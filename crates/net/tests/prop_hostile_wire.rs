//! Hostile wire-path properties: arbitrary bytes into the ack bitfield decoder and forged,
//! duplicate and late correlation ids into the RPC table.
//!
//! `prop_proto.rs` checks the struct → bytes → struct direction; this file drives the
//! opposite, adversarial direction: every byte string a byzantine peer could put on the wire
//! must decode without panicking (and re-encode to the same bytes — the decoder is a total
//! bijection, no canonicalization a forger could exploit), and a [`RpcTable`] bombarded with
//! responses that correlate to nothing must swallow every one of them without completing a
//! call, double-completing one, or corrupting its accounting.

use p2plab_net::proto::AckBitfield;
use p2plab_net::rpc::{
    self, RpcHost, RpcId, RpcOutcome, RpcPayload, RpcStats, RpcTable, RpcTimeout,
};
use p2plab_net::{
    AccessLinkClass, GroupId, NetHost, NetSim, Network, NetworkConfig, SocketAddr, TopologySpec,
    TransportEvent, VNodeId, VirtAddr,
};
use p2plab_sim::{SimDuration, Simulation};
use proptest::prelude::*;

/// Minimal echo-with-increment RPC world (the `rpc` module's doc pattern): node 1 answers
/// `n` with `n + 1`; completed outcomes are recorded as `(tag, body)` pairs.
struct World {
    net: Network,
    rpc: RpcTable<World>,
    outcomes: Vec<(u64, u64)>,
}

impl NetHost for World {
    type Payload = RpcPayload<u64>;
    type Timer = RpcTimeout;

    fn network(&mut self) -> &mut Network {
        &mut self.net
    }

    fn on_transport_event(
        sim: &mut NetSim<Self>,
        node: VNodeId,
        ev: TransportEvent<RpcPayload<u64>>,
    ) {
        let leftover = rpc::dispatch(sim, node, ev);
        assert!(leftover.is_none(), "only RPC traffic in this world");
    }

    fn on_timer(sim: &mut NetSim<Self>, timeout: RpcTimeout) {
        rpc::on_timeout(sim, timeout);
    }
}

impl RpcHost for World {
    type Body = u64;
    type Context = u64;

    fn rpc_table(&mut self) -> &mut RpcTable<World> {
        &mut self.rpc
    }

    fn serve(
        _sim: &mut NetSim<Self>,
        _node: VNodeId,
        _from: SocketAddr,
        _port: u16,
        body: u64,
    ) -> Option<(u64, u64)> {
        Some((body + 1, 16))
    }

    fn on_outcome(sim: &mut NetSim<Self>, tag: u64, outcome: RpcOutcome<u64>) {
        match outcome {
            RpcOutcome::Reply { body, .. } => sim.world_mut().outcomes.push((tag, body)),
            RpcOutcome::TimedOut { .. } => panic!("lossless link never times out"),
        }
    }
}

fn world() -> World {
    let link = AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(5));
    let topo = TopologySpec::uniform("hostile-rpc", 2, link);
    let mut net = Network::new(NetworkConfig::default(), topo);
    let m = net.add_machine("pm0", VirtAddr::new(192, 168, 38, 1));
    for _ in 0..2 {
        net.add_vnode(m, GroupId(0)).unwrap();
    }
    World {
        net,
        rpc: RpcTable::new(),
        outcomes: Vec::new(),
    }
}

/// Injects a forged response datagram straight into the RPC dispatcher at `node`, exactly as
/// a byzantine peer delivering a fabricated correlation id would.
fn inject_forged(sim: &mut NetSim<World>, node: VNodeId, id: u64, body: u64) {
    let from = SocketAddr::new(VirtAddr::new(10, 0, 0, 99), 4000);
    let leftover = rpc::dispatch(
        sim,
        node,
        TransportEvent::Datagram {
            from,
            to_port: 4000,
            payload: RpcPayload::Response {
                id: RpcId(id),
                body,
            },
            size: 16,
        },
    );
    assert!(leftover.is_none(), "a response is always consumed");
}

proptest! {
    /// Ack bitfield decoding is total and byte-exact: every 6-byte string a hostile peer puts
    /// on the wire decodes without panicking and re-encodes to the very same bytes — there is
    /// no canonicalization step whose asymmetry a forger could exploit.
    #[test]
    fn ack_bitfield_decode_is_total_on_arbitrary_bytes(latest in any::<u16>(), bits in any::<u32>()) {
        let mut bytes = [0u8; 6];
        bytes[..2].copy_from_slice(&latest.to_le_bytes());
        bytes[2..].copy_from_slice(&bits.to_le_bytes());
        let a = AckBitfield::decode(bytes);
        prop_assert_eq!(a.encode(), bytes);
    }

    /// The RPC table under a correlation-id forgery barrage: responses with ids that were
    /// never allocated, responses addressed to the wrong node (a live id arriving anywhere
    /// but its caller), and duplicates of already-completed calls are all counted as
    /// `late_replies` and swallowed — no panic, no spurious completion, no double delivery,
    /// and the real calls still complete exactly once with the right bodies.
    #[test]
    fn forged_duplicate_and_late_correlation_ids_are_suppressed(
        calls in 0u64..6,
        forged in prop::collection::vec((any::<u64>(), 0u8..2, any::<u64>()), 1..60),
    ) {
        let mut sim: NetSim<World> = Simulation::new(world(), 1);
        for tag in 0..calls {
            let remote = SocketAddr::new(sim.world_mut().net.addr_of(VNodeId(1)), 4000);
            rpc::call(&mut sim, VNodeId(0), 4000, remote, tag, 32, tag).unwrap();
        }

        // Phase 1 — while every call is pending: forge ids that were never allocated at the
        // caller (live ids are 0..calls; `calls + raw/2` cannot collide or overflow), and
        // arbitrary ids at the serving node, where even a live id must fail the caller check.
        for &(raw, node, body) in &forged {
            match node {
                0 => inject_forged(&mut sim, VNodeId(0), calls + (raw >> 1), body),
                _ => inject_forged(&mut sim, VNodeId(1), raw, body),
            }
        }
        // A call is pending until it is replied to or times out.
        let pending = |s: RpcStats| s.calls - s.replies - s.timeouts;
        let stats = sim.world_mut().rpc.stats();
        prop_assert_eq!(stats.late_replies, forged.len() as u64);
        prop_assert_eq!(stats.replies, 0, "a forged id completed a call");
        prop_assert_eq!(pending(stats), calls);

        // The real traffic is unharmed: every call completes with the served body.
        sim.run();
        let mut outcomes = sim.world().outcomes.clone();
        outcomes.sort_unstable();
        let expected: Vec<(u64, u64)> = (0..calls).map(|t| (t, t + 1)).collect();
        prop_assert_eq!(outcomes, expected);

        // Phase 2 — after completion: replay the *real* correlation ids. They are duplicates
        // of completed calls now, and every one must be counted late, not re-delivered.
        for tag in 0..calls {
            inject_forged(&mut sim, VNodeId(0), tag, 0xdead);
        }
        let stats = sim.world_mut().rpc.stats();
        prop_assert_eq!(stats.calls, calls);
        prop_assert_eq!(stats.replies, calls);
        prop_assert_eq!(stats.timeouts, 0);
        prop_assert_eq!(stats.late_replies, forged.len() as u64 + calls);
        prop_assert_eq!(pending(stats), 0);
        prop_assert_eq!(sim.world().outcomes.len() as u64, calls, "a duplicate id re-delivered");
    }
}
