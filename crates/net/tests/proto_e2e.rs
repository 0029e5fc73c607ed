//! End-to-end tests of the protocol-depth layer: MTU fragmentation with exactly-once
//! delivery, ack-bitfield-driven congestion control, selective retransmission under loss,
//! reassembly timeouts, and link conditioners (jitter, duplication, Gilbert–Elliott burst
//! loss) — all through the public `Endpoint` API over the full emulated packet walk.

use p2plab_net::{
    AccessLinkClass, BurstLoss, CcKind, ConnId, Endpoint, GroupId, LaneKind, LinkCondition,
    NetHost, NetSim, Network, NetworkConfig, SocketAddr, TopologySpec, TransportConfig,
    TransportEvent, VNodeId, VirtAddr,
};
use p2plab_sim::{NoEvent, SimDuration, Simulation};

/// Records every delivered message/datagram payload per node.
struct World {
    net: Network,
    delivered: Vec<(VNodeId, u32, u64)>,
}

impl NetHost for World {
    type Payload = u32;
    type Timer = NoEvent;

    fn on_timer(_sim: &mut NetSim<Self>, timer: NoEvent) {
        match timer {}
    }

    fn network(&mut self) -> &mut Network {
        &mut self.net
    }

    fn on_transport_event(sim: &mut NetSim<Self>, node: VNodeId, ev: TransportEvent<u32>) {
        match ev {
            TransportEvent::Message { payload, size, .. }
            | TransportEvent::Datagram { payload, size, .. } => {
                sim.world_mut().delivered.push((node, payload, size));
            }
            _ => {}
        }
    }
}

/// Two virtual nodes on separate machines over `link`, with the given transport config.
fn world(link: AccessLinkClass, transport: TransportConfig) -> World {
    let topo = TopologySpec::uniform("proto", 2, link);
    let config = NetworkConfig {
        transport,
        ..NetworkConfig::default()
    };
    let mut net = Network::new(config, topo);
    for i in 0..2u8 {
        let m = net.add_machine(format!("pm{i}"), VirtAddr::new(192, 168, 38, i + 1));
        net.add_vnode(m, GroupId(0)).unwrap();
    }
    World {
        net,
        delivered: Vec::new(),
    }
}

/// Establishes node 0 → node 1 and returns the connection.
fn establish(sim: &mut NetSim<World>) -> ConnId {
    let peer = SocketAddr::new(VirtAddr::new(10, 0, 0, 2), 7000);
    Endpoint::new(VNodeId(1)).bind(sim, 7000).unwrap();
    let conn = Endpoint::new(VNodeId(0)).connect(sim, peer).unwrap();
    sim.run();
    conn
}

fn payloads_at(sim: &NetSim<World>, node: VNodeId) -> Vec<u32> {
    sim.world()
        .delivered
        .iter()
        .filter(|(n, _, _)| *n == node)
        .map(|(_, p, _)| *p)
        .collect()
}

#[test]
fn fragmentation_delivers_each_message_exactly_once() {
    let transport = TransportConfig {
        mtu: Some(1500),
        ..TransportConfig::default()
    };
    let w = world(
        AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(5)),
        transport,
    );
    let mut sim: NetSim<World> = Simulation::new(w, 42);
    let conn = establish(&mut sim);
    let ep = Endpoint::new(VNodeId(0));
    for i in 0..10u32 {
        ep.send(&mut sim, conn, LaneKind::ReliableOrdered, 16 * 1024, i)
            .unwrap();
    }
    sim.run();
    let mut got = payloads_at(&sim, VNodeId(1));
    got.sort_unstable();
    assert_eq!(got, (0..10).collect::<Vec<u32>>());
    // Every delivery reports the full message size, not a fragment's.
    assert!(sim
        .world()
        .delivered
        .iter()
        .all(|&(_, _, size)| size == 16 * 1024));
    let stats = sim.world_mut().net.stats();
    // 16 KiB at a 1500-byte MTU is 11 fragments per message.
    assert_eq!(stats.fragments_sent, 10 * 11);
    // Reliable-lane fragments are acknowledged.
    assert!(stats.acks_sent >= stats.fragments_sent);
    // Byte accounting is message-level, exactly as on the legacy path.
    // Node 1 is the only receiver.
    assert_eq!(stats.bytes_delivered, 10 * 16 * 1024);
}

#[test]
fn aimd_grows_its_window_on_a_clean_link() {
    let transport = TransportConfig {
        mtu: Some(1200),
        congestion: CcKind::Aimd,
    };
    let w = world(
        AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(5)),
        transport,
    );
    let mut sim: NetSim<World> = Simulation::new(w, 42);
    let conn = establish(&mut sim);
    let initial = sim.world_mut().net.cwnd_mean_bytes();
    let ep = Endpoint::new(VNodeId(0));
    for i in 0..50u32 {
        ep.send(&mut sim, conn, LaneKind::ReliableOrdered, 16 * 1024, i)
            .unwrap();
        sim.run();
    }
    assert_eq!(payloads_at(&sim, VNodeId(1)).len(), 50);
    let grown = sim.world_mut().net.cwnd_mean_bytes().unwrap();
    // Acks flowed back, so the sender's window must have grown past its initial value
    // (the mean includes the idle reverse direction, so compare against the mean).
    assert!(
        initial.is_none_or(|w0| grown > w0),
        "cwnd mean {grown} vs initial {initial:?}"
    );
}

#[test]
fn lossy_link_triggers_selective_retransmits_and_still_delivers() {
    let transport = TransportConfig {
        mtu: Some(1500),
        congestion: CcKind::Aimd,
    };
    let link = AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(5)).with_loss(0.2);
    let w = world(link, transport);
    let mut sim: NetSim<World> = Simulation::new(w, 42);
    let conn = establish(&mut sim);
    let ep = Endpoint::new(VNodeId(0));
    for i in 0..20u32 {
        ep.send(&mut sim, conn, LaneKind::ReliableOrdered, 16 * 1024, i)
            .unwrap();
    }
    sim.run();
    let mut got = payloads_at(&sim, VNodeId(1));
    got.sort_unstable();
    assert_eq!(
        got,
        (0..20).collect::<Vec<u32>>(),
        "exactly-once despite loss"
    );
    let stats = sim.world_mut().net.stats();
    assert!(
        stats.selective_retransmits > 0,
        "20% loss must retransmit fragments"
    );
    // Only lost fragments are retransmitted — far fewer retransmits than fragments.
    assert!(stats.selective_retransmits < stats.fragments_sent);
}

#[test]
fn burst_loss_and_duplication_preserve_exactly_once() {
    let transport = TransportConfig {
        mtu: Some(1500),
        congestion: CcKind::Aimd,
    };
    let condition = LinkCondition {
        duplicate_rate: 0.1,
        ..LinkCondition::none()
    }
    .with_jitter(SimDuration::from_millis(3))
    .with_burst(BurstLoss::new(0.05, 0.25, 0.9));
    let link = AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(5))
        .with_condition(Some(condition));
    let w = world(link, transport);
    let mut sim: NetSim<World> = Simulation::new(w, 2006);
    let conn = establish(&mut sim);
    let ep = Endpoint::new(VNodeId(0));
    for i in 0..20u32 {
        ep.send(&mut sim, conn, LaneKind::ReliableOrdered, 16 * 1024, i)
            .unwrap();
    }
    sim.run();
    let mut got = payloads_at(&sim, VNodeId(1));
    got.sort_unstable();
    // Duplicated fragments are deduplicated by the reassembler: nothing arrives twice. Burst
    // losses are repaired by selective retransmission up to the lane's bounded attempts, so
    // nearly everything arrives once (residual loss past max attempts is app-level territory).
    let mut dedup = got.clone();
    dedup.dedup();
    assert_eq!(
        dedup, got,
        "duplicated fragments must not duplicate messages"
    );
    assert!(
        got.len() >= 18,
        "only {} of 20 messages survived",
        got.len()
    );
    assert!(got.iter().all(|&p| p < 20));
    let stats = sim.world_mut().net.stats();
    assert!(stats.selective_retransmits > 0, "bursts must cause losses");
}

#[test]
fn incomplete_unreliable_messages_time_out() {
    let transport = TransportConfig {
        mtu: Some(1000),
        ..TransportConfig::default()
    };
    let link = AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(5)).with_loss(0.4);
    let w = world(link, transport);
    let mut sim: NetSim<World> = Simulation::new(w, 42);
    let conn = establish(&mut sim);
    let ep = Endpoint::new(VNodeId(0));
    // Unreliable lane: lost fragments are never retransmitted, so most multi-fragment
    // messages stay incomplete and are discarded on timeout.
    for i in 0..50u32 {
        ep.send(&mut sim, conn, LaneKind::UnreliableUnordered, 8 * 1024, i)
            .unwrap();
    }
    sim.run();
    let stats = sim.world_mut().net.stats();
    assert!(
        stats.reassembly_timeouts > 0,
        "40% loss on 9-fragment unreliable messages must strand reassemblies"
    );
    // Whatever did complete was delivered at most once.
    let got = payloads_at(&sim, VNodeId(1));
    let mut dedup = got.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), got.len(), "no duplicate deliveries");
}

#[test]
fn default_config_keeps_the_legacy_wire_path() {
    // With the default transport config the proto layer must stay entirely cold: no
    // fragments, no acks, no proto state — the byte-identity pin's precondition.
    let w = world(
        AccessLinkClass::bittorrent_dsl(),
        TransportConfig::default(),
    );
    let mut sim: NetSim<World> = Simulation::new(w, 42);
    let conn = establish(&mut sim);
    let ep = Endpoint::new(VNodeId(0));
    for i in 0..5u32 {
        ep.send(&mut sim, conn, LaneKind::ReliableOrdered, 16 * 1024, i)
            .unwrap();
    }
    sim.run();
    assert_eq!(payloads_at(&sim, VNodeId(1)).len(), 5);
    let stats = sim.world_mut().net.stats();
    assert_eq!(stats.fragments_sent, 0);
    assert_eq!(stats.acks_sent, 0);
    assert_eq!(stats.selective_retransmits, 0);
    assert_eq!(sim.world_mut().net.cwnd_mean_bytes(), None);
    assert!(!sim.world_mut().net.transport_active());
}
