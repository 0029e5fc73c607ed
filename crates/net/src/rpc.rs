//! Typed request/response RPC over connectionless datagrams.
//!
//! Iterative protocols (DHT lookups, probing, gossip pull) are request/response at heart: send
//! a query, wait bounded time for the answer, retry a few times, give up. This module packages
//! that pattern over the transport's unreliable datagram path:
//!
//! * [`call`] sends a request and remembers the caller's per-call context; the reply (or a
//!   timeout after [`MAX_ATTEMPTS`] tries) is handed back with that context to
//!   [`RpcHost::on_outcome`], with the measured latency;
//! * retransmissions are **bounded retries** on a flat [`TIMEOUT`] — the reliability lives in
//!   the RPC layer, not the transport, exactly like UDP-based DHT protocols;
//! * the per-call timeout is one of the world's own timers ([`NetHost::Timer`], built from an
//!   [`RpcTimeout`]), cancelled through the engine's timer wheel when the reply arrives first
//!   — the overwhelmingly common case — so a completed call costs O(1) cancellation instead of
//!   a stale timer firing later;
//! * request/response correlation, duplicate/late-reply suppression and statistics live in the
//!   world's [`RpcTable`].
//!
//! A world opts in by choosing [`RpcPayload`] as its transport payload, a timer type that an
//! [`RpcTimeout`] converts into, and implementing [`RpcHost`]: [`RpcHost::serve`] answers
//! incoming requests and [`RpcHost::on_outcome`] completes calls. The world's
//! `on_transport_event` routes events through [`dispatch`], which consumes RPC traffic and
//! passes everything else back, and its `on_timer` routes timeouts to [`on_timeout`].
//!
//! ```
//! use p2plab_net::rpc::{self, RpcHost, RpcOutcome, RpcPayload, RpcTable, RpcTimeout};
//! use p2plab_net::{
//!     AccessLinkClass, GroupId, NetHost, NetSim, Network, NetworkConfig, SocketAddr,
//!     TopologySpec, TransportEvent, VNodeId, VirtAddr,
//! };
//! use p2plab_sim::Simulation;
//!
//! /// Nodes answer `n` with `n + 1`; the world records `(call label, answer)` pairs.
//! struct Adder {
//!     net: Network,
//!     rpc: RpcTable<Adder>,
//!     answers: Vec<(&'static str, u64)>,
//! }
//!
//! impl NetHost for Adder {
//!     type Payload = RpcPayload<u64>;
//!     type Timer = RpcTimeout; // the only timers here are RPC timeouts
//!     fn network(&mut self) -> &mut Network {
//!         &mut self.net
//!     }
//!     fn on_transport_event(sim: &mut NetSim<Self>, node: VNodeId, ev: TransportEvent<RpcPayload<u64>>) {
//!         rpc::dispatch(sim, node, ev); // everything here is RPC traffic
//!     }
//!     fn on_timer(sim: &mut NetSim<Self>, timeout: RpcTimeout) {
//!         rpc::on_timeout(sim, timeout);
//!     }
//! }
//!
//! impl RpcHost for Adder {
//!     type Body = u64;
//!     type Context = &'static str;
//!     fn rpc_table(&mut self) -> &mut RpcTable<Adder> {
//!         &mut self.rpc
//!     }
//!     fn serve(
//!         _sim: &mut NetSim<Self>,
//!         _node: VNodeId,
//!         _from: SocketAddr,
//!         _port: u16,
//!         body: u64,
//!     ) -> Option<(u64, u64)> {
//!         Some((body + 1, 8)) // reply payload, reply wire bytes
//!     }
//!     fn on_outcome(sim: &mut NetSim<Self>, label: &'static str, outcome: RpcOutcome<u64>) {
//!         if let RpcOutcome::Reply { body, .. } = outcome {
//!             sim.world_mut().answers.push((label, body));
//!         }
//!     }
//! }
//!
//! let topo = TopologySpec::uniform("doc", 2, AccessLinkClass::bittorrent_dsl());
//! let mut net = Network::new(NetworkConfig::default(), topo);
//! let m = net.add_machine("pm0", VirtAddr::new(192, 168, 38, 1));
//! let a = net.add_vnode(m, GroupId(0)).unwrap();
//! let b = net.add_vnode(m, GroupId(0)).unwrap();
//! let remote = SocketAddr::new(net.addr_of(b), 4000);
//!
//! let world = Adder { net, rpc: RpcTable::new(), answers: vec![] };
//! let mut sim: NetSim<Adder> = Simulation::new(world, 1);
//! rpc::call(&mut sim, a, 4000, remote, 41, 8, "the answer").unwrap();
//! sim.run();
//! assert_eq!(sim.world().answers, vec![("the answer", 42)]);
//! ```

use crate::addr::SocketAddr;
use crate::endpoint::Endpoint;
use crate::network::{NetError, VNodeId};
use crate::transport::{NetEvent, NetHost, NetSim, TransportEvent};
use p2plab_sim::{EventId, FxHashMap, SimDuration, SimTime};

/// Correlation id of one RPC call, unique within the world's [`RpcTable`]. The raw value is
/// public so hostile-path tests can forge arbitrary correlation ids against the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RpcId(pub u64);

impl RpcId {
    /// The raw correlation value (for logging).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// The transport payload of an RPC world: application bodies tagged as requests or responses,
/// correlated by [`RpcId`].
#[derive(Debug, Clone)]
pub enum RpcPayload<B> {
    /// A request awaiting an answer.
    Request {
        /// Correlation id, echoed by the response.
        id: RpcId,
        /// Application request body.
        body: B,
    },
    /// The answer to an earlier request.
    Response {
        /// Correlation id of the request being answered.
        id: RpcId,
        /// Application response body.
        body: B,
    },
}

/// Total transmissions of a call's request before the call fails: the first try and two
/// retries.
pub const MAX_ATTEMPTS: u32 = 3;

/// How long each attempt waits for its response before the call retries (flat per attempt).
pub const TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Counters kept by an [`RpcTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcStats {
    /// Calls issued.
    pub calls: u64,
    /// Calls completed by a response.
    pub replies: u64,
    /// Request retransmissions after a timeout.
    pub retries: u64,
    /// Calls abandoned after exhausting their attempts.
    pub timeouts: u64,
    /// Responses that arrived after their call had already timed out (or that matched no
    /// pending call at this node).
    pub late_replies: u64,
    /// Requests served by this world's nodes.
    pub served: u64,
}

/// How one RPC call ended, handed to [`RpcHost::on_outcome`] with the call's context.
pub enum RpcOutcome<B> {
    /// The response arrived.
    Reply {
        /// Application response body.
        body: B,
        /// Time from [`call`] to the response's delivery (spanning retries).
        rtt: SimDuration,
        /// Request transmissions performed (1 = first try answered).
        attempts: u32,
    },
    /// Every attempt went unanswered within its timeout.
    TimedOut {
        /// Request transmissions performed.
        attempts: u32,
    },
}

/// The timer of one call's current attempt. A world carries it inside its own
/// [`NetHost::Timer`] and routes it back to [`on_timeout`] from
/// [`on_timer`](NetHost::on_timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcTimeout(u64);

/// One in-flight call.
struct Pending<W: RpcHost> {
    caller: VNodeId,
    from_port: u16,
    remote: SocketAddr,
    /// The request body, kept for retransmission.
    body: W::Body,
    /// Request wire bytes (payload size charged per transmission).
    size: u64,
    attempts: u32,
    timer: EventId,
    started: SimTime,
    /// What the caller handed to [`call`], returned with the outcome.
    ctx: W::Context,
}

/// Per-world RPC state: pending calls keyed by correlation id, and counters. Embedded in the
/// world and exposed through [`RpcHost::rpc_table`].
pub struct RpcTable<W: RpcHost> {
    next_id: u64,
    pending: FxHashMap<u64, Pending<W>>,
    stats: RpcStats,
}

impl<W: RpcHost> RpcTable<W> {
    /// Creates an empty table.
    #[expect(
        clippy::new_without_default,
        reason = "a table is built by its world's constructor; nothing asks for a default"
    )]
    pub fn new() -> RpcTable<W> {
        RpcTable {
            next_id: 0,
            pending: FxHashMap::default(),
            stats: RpcStats::default(),
        }
    }

    /// The table's counters.
    pub fn stats(&self) -> RpcStats {
        self.stats
    }
}

/// A world that runs the RPC layer: transport payload is [`RpcPayload`], call timeouts are
/// [`RpcTimeout`]s inside the world's timers, requests are answered by
/// [`serve`](RpcHost::serve), calls complete into [`on_outcome`](RpcHost::on_outcome), and
/// pending-call state lives in the embedded [`RpcTable`].
pub trait RpcHost:
    NetHost<Payload = RpcPayload<<Self as RpcHost>::Body>, Timer: From<RpcTimeout>>
{
    /// Application message body carried inside requests and responses.
    type Body: Clone + 'static;

    /// What a caller remembers about one call: passed to [`call`], kept in the call's
    /// [`RpcTable`] row and handed back to [`on_outcome`](RpcHost::on_outcome).
    type Context: 'static;

    /// Access to the world's RPC state.
    fn rpc_table(&mut self) -> &mut RpcTable<Self>;

    /// Answers a request that arrived at `node` on `port` from `from`. Returning
    /// `Some((reply_body, reply_size))` sends the response back; `None` drops the request
    /// (the caller will retry and eventually time out).
    fn serve(
        sim: &mut NetSim<Self>,
        node: VNodeId,
        from: SocketAddr,
        port: u16,
        body: Self::Body,
    ) -> Option<(Self::Body, u64)>;

    /// Completes a call: `ctx` is what was passed to [`call`], `outcome` the reply or the
    /// final timeout. Runs exactly once per call that left the node.
    fn on_outcome(sim: &mut NetSim<Self>, ctx: Self::Context, outcome: RpcOutcome<Self::Body>);
}

/// Issues an RPC from `node:from_port` to `remote`: sends `body` (`size` wire bytes) as an
/// unreliable datagram, retrying on the flat [`TIMEOUT`] up to [`MAX_ATTEMPTS`] sends, and
/// hands the outcome to [`RpcHost::on_outcome`] together with `ctx` — with the reply and
/// measured latency, or as a timeout. A synchronous send error returns `Err` and keeps
/// nothing: `on_outcome` then never runs for this call.
///
/// The timeout timer is cancelled in O(1) through the engine's timer wheel when the reply
/// arrives first (the common case), so completed calls leave nothing behind in the queue.
pub fn call<W: RpcHost>(
    sim: &mut NetSim<W>,
    node: VNodeId,
    from_port: u16,
    remote: SocketAddr,
    body: W::Body,
    size: u64,
    ctx: W::Context,
) -> Result<RpcId, NetError> {
    let now = sim.now();
    let id = {
        let table = sim.world_mut().rpc_table();
        let id = table.next_id;
        table.next_id += 1;
        id
    };
    Endpoint::new(node).send_datagram(
        sim,
        from_port,
        remote,
        size,
        RpcPayload::Request {
            id: RpcId(id),
            body: body.clone(),
        },
    )?;
    // Counted only once the request is actually on the wire: a synchronous send error above
    // leaves the stats invariant `calls == replies + timeouts + pending` intact.
    sim.world_mut().rpc_table().stats.calls += 1;
    let timer = sim.schedule_event_in(TIMEOUT, NetEvent::Timer(RpcTimeout(id).into()));
    sim.world_mut().rpc_table().pending.insert(
        id,
        Pending {
            caller: node,
            from_port,
            remote,
            body,
            size,
            attempts: 1,
            timer,
            started: now,
            ctx,
        },
    );
    Ok(RpcId(id))
}

/// Routes a transport event through the RPC layer: requests are answered via
/// [`RpcHost::serve`], responses complete their pending call (cancelling its timer), and
/// anything that is not RPC traffic is handed back for the application to process.
pub fn dispatch<W: RpcHost>(
    sim: &mut NetSim<W>,
    node: VNodeId,
    event: TransportEvent<RpcPayload<W::Body>>,
) -> Option<TransportEvent<RpcPayload<W::Body>>> {
    match event {
        TransportEvent::Datagram {
            from,
            to_port,
            payload: RpcPayload::Request { id, body },
            ..
        } => {
            let reply = W::serve(sim, node, from, to_port, body);
            sim.world_mut().rpc_table().stats.served += 1;
            if let Some((reply_body, reply_size)) = reply {
                // Answer from the port the request was addressed to, back to the caller's
                // socket: the correlation id ties the response to the pending call.
                let _ = Endpoint::new(node).send_datagram(
                    sim,
                    to_port,
                    from,
                    reply_size,
                    RpcPayload::Response {
                        id,
                        body: reply_body,
                    },
                );
            }
            None
        }
        TransportEvent::Datagram {
            payload: RpcPayload::Response { id, body },
            ..
        } => {
            let now = sim.now();
            let pending = {
                let table = sim.world_mut().rpc_table();
                // Only the calling node may complete the call; a stray or duplicate response
                // (late after a timeout, or misrouted) is counted and swallowed.
                match table.pending.get(&id.0) {
                    Some(p) if p.caller == node => table.pending.remove(&id.0),
                    _ => {
                        table.stats.late_replies += 1;
                        return None;
                    }
                }
            };
            let p = pending.expect("checked above");
            sim.world_mut().rpc_table().stats.replies += 1;
            // The common completed-before-timeout case: O(1) timer-wheel cancellation.
            sim.cancel(p.timer);
            W::on_outcome(
                sim,
                p.ctx,
                RpcOutcome::Reply {
                    body,
                    rtt: now - p.started,
                    attempts: p.attempts,
                },
            );
            None
        }
        other => Some(other),
    }
}

/// Timeout path, routed here from the world's [`on_timer`](NetHost::on_timer): retry while
/// attempts remain, otherwise fail the call.
pub fn on_timeout<W: RpcHost>(sim: &mut NetSim<W>, RpcTimeout(id): RpcTimeout) {
    let retry = {
        let table = sim.world_mut().rpc_table();
        match table.pending.get(&id) {
            None => return, // completed in the same instant; timer raced its cancellation
            Some(p) if p.attempts < MAX_ATTEMPTS => {
                Some((p.caller, p.from_port, p.remote, p.body.clone(), p.size))
            }
            Some(_) => None,
        }
    };
    match retry {
        Some((caller, from_port, remote, body, size)) => {
            sim.world_mut().rpc_table().stats.retries += 1;
            let _ = Endpoint::new(caller).send_datagram(
                sim,
                from_port,
                remote,
                size,
                RpcPayload::Request {
                    id: RpcId(id),
                    body,
                },
            );
            let timer = sim.schedule_event_in(TIMEOUT, NetEvent::Timer(RpcTimeout(id).into()));
            let table = sim.world_mut().rpc_table();
            if let Some(p) = table.pending.get_mut(&id) {
                p.attempts += 1;
                p.timer = timer;
            }
        }
        None => {
            let p = sim
                .world_mut()
                .rpc_table()
                .pending
                .remove(&id)
                .expect("pending checked above");
            sim.world_mut().rpc_table().stats.timeouts += 1;
            sim.world_mut().network().stats.rpc_timeouts += 1;
            W::on_outcome(
                sim,
                p.ctx,
                RpcOutcome::TimedOut {
                    attempts: p.attempts,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, NetworkConfig};
    use crate::topology::{AccessLinkClass, GroupId, TopologySpec};
    use crate::VirtAddr;
    use p2plab_sim::{RunOutcome, Simulation};

    /// Echo-with-increment RPC world; drops requests on nodes listed in `mute`, and the first
    /// `deaf_for` requests any node sees. A call's context is a tag, recorded with its outcome.
    struct World {
        net: Network,
        rpc: RpcTable<World>,
        outcomes: Vec<(u64, Option<u64>, u32)>, // (context, reply body, attempts)
        mute: Vec<VNodeId>,
        deaf_for: u32,
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
            let leftover = super::dispatch(sim, node, ev);
            assert!(leftover.is_none(), "only RPC traffic in this world");
        }

        fn on_timer(sim: &mut NetSim<Self>, timeout: RpcTimeout) {
            on_timeout(sim, timeout);
        }
    }

    impl RpcHost for World {
        type Body = u64;
        type Context = u64;

        fn rpc_table(&mut self) -> &mut RpcTable<World> {
            &mut self.rpc
        }

        fn serve(
            sim: &mut NetSim<Self>,
            node: VNodeId,
            _from: SocketAddr,
            _port: u16,
            body: u64,
        ) -> Option<(u64, u64)> {
            let world = sim.world_mut();
            if world.mute.contains(&node) {
                return None;
            }
            if world.deaf_for > 0 {
                world.deaf_for -= 1;
                return None;
            }
            Some((body + 1, 16))
        }

        fn on_outcome(sim: &mut NetSim<Self>, tag: u64, outcome: RpcOutcome<u64>) {
            let record = match outcome {
                RpcOutcome::Reply { body, attempts, .. } => (tag, Some(body), attempts),
                RpcOutcome::TimedOut { attempts } => (tag, None, attempts),
            };
            sim.world_mut().outcomes.push(record);
        }
    }

    /// An access link latency whose round trip (four pipes) is far below [`TIMEOUT`].
    const LATENCY: SimDuration = SimDuration::from_millis(5);

    fn world(n: usize, loss: f64, latency: SimDuration) -> World {
        let link = AccessLinkClass::symmetric(10_000_000, latency);
        let topo = TopologySpec::uniform("rpc", n, link.with_loss(loss));
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m = net.add_machine("pm0", VirtAddr::new(192, 168, 38, 1));
        for _ in 0..n {
            net.add_vnode(m, GroupId(0)).unwrap();
        }
        World {
            net,
            rpc: RpcTable::new(),
            outcomes: Vec::new(),
            mute: Vec::new(),
            deaf_for: 0,
        }
    }

    fn port_of(sim: &mut NetSim<World>, node: VNodeId) -> SocketAddr {
        SocketAddr::new(sim.world_mut().net.addr_of(node), 4000)
    }

    /// Calls `to` with body `tag` and context `tag`.
    fn call_tagged(sim: &mut NetSim<World>, from: VNodeId, to: VNodeId, tag: u64) {
        let remote = port_of(sim, to);
        call(sim, from, 4000, remote, tag, 32, tag).unwrap();
    }

    #[test]
    fn call_completes_and_cancels_its_timer() {
        let w = world(2, 0.0, LATENCY);
        let mut sim: NetSim<World> = Simulation::new(w, 1);
        call_tagged(&mut sim, VNodeId(0), VNodeId(1), 7);
        sim.run();
        assert_eq!(sim.world().outcomes, vec![(7, Some(8), 1)]);
        let stats = sim.world_mut().rpc.stats();
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.replies, 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(sim.world().rpc.pending.len(), 0);
        assert_eq!(sim.world_mut().net.stats().rpc_timeouts, 0);
        // The cancelled timeout timer never fired: virtual time stops at the reply, well
        // before the 2 s timeout.
        assert!(sim.now() < SimTime::ZERO + SimDuration::from_millis(500));
    }

    #[test]
    fn unanswered_call_retries_then_times_out() {
        let w = world(2, 0.0, LATENCY);
        let mut sim: NetSim<World> = Simulation::new(w, 1);
        sim.world_mut().mute.push(VNodeId(1));
        call_tagged(&mut sim, VNodeId(0), VNodeId(1), 9);
        sim.run();
        assert_eq!(sim.world().outcomes, vec![(9, None, MAX_ATTEMPTS)]);
        let stats = sim.world_mut().rpc.stats();
        assert_eq!(stats.retries, u64::from(MAX_ATTEMPTS) - 1);
        assert_eq!(stats.timeouts, 1);
        assert_eq!(
            stats.served,
            u64::from(MAX_ATTEMPTS),
            "the mute responder still saw each attempt"
        );
        // Timeouts surface on the network's transport counters too (the PR 3 convention
        // syncs them into the run's Recorder).
        assert_eq!(sim.world_mut().net.stats().rpc_timeouts, 1);
        // `MAX_ATTEMPTS` attempts, `TIMEOUT` apart: the call fails `TIMEOUT` after the last.
        assert_eq!(sim.now(), SimTime::ZERO + TIMEOUT * u64::from(MAX_ATTEMPTS));
    }

    #[test]
    fn retries_recover_from_loss() {
        // 10% loss on every pipe traversal (a round trip crosses four lossy pipes, so a single
        // attempt only succeeds ~66% of the time); bounded retries recover almost every call.
        let w = world(2, 0.1, LATENCY);
        let mut sim: NetSim<World> = Simulation::new(w, 5);
        for tag in 0..20 {
            call_tagged(&mut sim, VNodeId(0), VNodeId(1), tag);
        }
        sim.run();
        let replied = sim
            .world()
            .outcomes
            .iter()
            .filter(|(_, r, _)| r.is_some())
            .count();
        assert!(replied >= 16, "only {replied}/20 RPCs survived 10% loss");
        assert!(sim.world_mut().rpc.stats().retries > 0);
        assert_eq!(sim.world().rpc.pending.len(), 0);
    }

    #[test]
    fn late_reply_after_timeout_is_counted_not_delivered() {
        // A round trip of four pipes of `TIMEOUT` latency each, longer than all `MAX_ATTEMPTS`
        // timeouts together: every attempt's reply arrives after the call already gave up.
        let w = world(2, 0.0, TIMEOUT);
        let mut sim: NetSim<World> = Simulation::new(w, 1);
        call_tagged(&mut sim, VNodeId(0), VNodeId(1), 3);
        sim.run();
        assert_eq!(sim.world().outcomes, vec![(3, None, MAX_ATTEMPTS)]);
        let stats = sim.world_mut().rpc.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(
            stats.late_replies,
            u64::from(MAX_ATTEMPTS),
            "every attempt's reply arrived late"
        );
    }

    #[test]
    fn each_outcome_carries_its_calls_context() {
        // Two concurrent calls whose contexts have nothing to do with their bodies: the
        // answered one gets its context back with the reply, the one to a mute node with its
        // final timeout.
        let w = world(3, 0.0, LATENCY);
        let mut sim: NetSim<World> = Simulation::new(w, 1);
        sim.world_mut().mute.push(VNodeId(2));
        let (answering, mute) = (port_of(&mut sim, VNodeId(1)), port_of(&mut sim, VNodeId(2)));
        call(&mut sim, VNodeId(0), 4000, mute, 5, 32, 900).unwrap();
        call(&mut sim, VNodeId(0), 4000, answering, 40, 32, 901).unwrap();
        sim.run();
        assert_eq!(
            sim.world().outcomes,
            vec![(901, Some(41), 1), (900, None, MAX_ATTEMPTS)]
        );
    }

    #[test]
    fn a_reply_racing_its_timeout_at_one_instant_completes_once() {
        // A link latency whose lossless round trip is exactly `TIMEOUT` (four pipes, each
        // adding the latency to a fixed serialization time), and a responder that ignores its
        // first `deaf_for` requests: attempt `deaf_for + 1`'s reply and its timer fall on one
        // instant. The timer was scheduled first, so it fires first. On the last attempt that
        // is the final timeout after `MAX_ATTEMPTS` sends, and the reply then arrives late; on
        // the one before, it is a retry, and the reply then completes the call on its last
        // attempt. Either way the call completes exactly once.
        let rtt = |latency| {
            let mut sim: NetSim<World> = Simulation::new(world(2, 0.0, latency), 1);
            call_tagged(&mut sim, VNodeId(0), VNodeId(1), 1);
            sim.run();
            sim.now() - SimTime::ZERO
        };
        let serialization = rtt(SimDuration::ZERO);
        assert_eq!(rtt(LATENCY), serialization + LATENCY * 4);
        let latency = (TIMEOUT - serialization) / 4;
        assert_eq!(serialization + latency * 4, TIMEOUT);
        for (deaf_for, outcome) in [
            (MAX_ATTEMPTS - 1, (1, None, MAX_ATTEMPTS)),
            (MAX_ATTEMPTS - 2, (1, Some(2), MAX_ATTEMPTS)),
        ] {
            let mut sim: NetSim<World> = Simulation::new(world(2, 0.0, latency), 1);
            sim.world_mut().deaf_for = deaf_for;
            call_tagged(&mut sim, VNodeId(0), VNodeId(1), 1);
            sim.run();
            assert_eq!(sim.world().outcomes, vec![outcome]);
            let stats = sim.world_mut().rpc.stats();
            assert_eq!(stats.calls, stats.replies + stats.timeouts);
            assert_eq!(stats.served, u64::from(MAX_ATTEMPTS));
            assert_eq!(stats.late_replies, 1, "the losing reply is counted late");
            assert_eq!(sim.world().rpc.pending.len(), 0);
        }
    }

    #[test]
    fn a_timeout_that_raced_its_cancellation_is_ignored() {
        // A timer that fires for a call completed at the same instant finds no pending row:
        // nothing is retried, counted or completed a second time.
        let mut sim: NetSim<World> = Simulation::new(world(2, 0.0, LATENCY), 1);
        call_tagged(&mut sim, VNodeId(0), VNodeId(1), 7);
        sim.run();
        let stats = sim.world_mut().rpc.stats();
        on_timeout(&mut sim, RpcTimeout(0));
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.world().outcomes, vec![(7, Some(8), 1)]);
        assert_eq!(sim.world_mut().rpc.stats(), stats);
    }
}
