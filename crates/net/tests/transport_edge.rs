//! Edge-case integration tests of the session transport API: connection teardown races,
//! listen/connect races, retransmit accounting under loss, loopback delivery and multi-port
//! datagram demultiplexing.

use p2plab_net::{
    AccessLinkClass, ConnState, Endpoint, GroupId, NetHost, NetSim, Network, NetworkConfig,
    SocketAddr, TopologySpec, TransportEvent, VNodeId, VirtAddr,
};
use p2plab_sim::{NoEvent, SimDuration, SimTime, Simulation};

/// Records every transport event as `(node, label)`.
struct World {
    net: Network,
    seen: Vec<(VNodeId, String)>,
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
        let label = match ev {
            TransportEvent::Connected { .. } => "connected".into(),
            TransportEvent::Refused { .. } => "refused".into(),
            TransportEvent::Accepted { .. } => "accepted".into(),
            TransportEvent::Message { payload, .. } => format!("msg:{payload}"),
            TransportEvent::Datagram {
                to_port, payload, ..
            } => format!("dgram:{to_port}:{payload}"),
            TransportEvent::Closed { .. } => "closed".into(),
        };
        sim.world_mut().seen.push((node, label));
    }
}

/// `n` virtual nodes on one machine over the given access link.
fn world(n: usize, link: AccessLinkClass) -> World {
    let topo = TopologySpec::uniform("edge", n, link);
    let mut net = Network::new(NetworkConfig::default(), topo);
    let m = net.add_machine("pm0", VirtAddr::new(192, 168, 38, 1));
    for _ in 0..n {
        net.add_vnode(m, GroupId(0)).unwrap();
    }
    World {
        net,
        seen: Vec::new(),
    }
}

fn lan() -> AccessLinkClass {
    AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(5))
}

fn labels_of(sim: &NetSim<World>, node: VNodeId) -> Vec<&str> {
    sim.world()
        .seen
        .iter()
        .filter(|(n, _)| *n == node)
        .map(|(_, l)| l.as_str())
        .collect()
}

#[test]
fn close_with_data_in_flight_discards_the_data() {
    let w = world(2, lan());
    let peer = SocketAddr::new(w.net.addr_of(VNodeId(1)), 7000);
    let mut sim: NetSim<World> = Simulation::new(w, 1);
    Endpoint::new(VNodeId(1)).bind(&mut sim, 7000).unwrap();
    let ep = Endpoint::new(VNodeId(0));
    let conn = ep.connect(&mut sim, peer).unwrap();
    sim.run();

    // Put a message in flight, then close the connection before it can be delivered. Close is
    // an abortive teardown of the shared connection state (the emulation models conntrack, not
    // a graceful TCP half-close), so the in-flight data reaches a closed connection and is
    // discarded; only the peer's Closed notification survives.
    ep.send(&mut sim, conn, 1024, 7).unwrap();
    ep.close(&mut sim, conn).unwrap();
    sim.run();

    let receiver = labels_of(&sim, VNodeId(1));
    assert!(receiver.contains(&"closed"), "{receiver:?}");
    assert!(
        !receiver.iter().any(|l| l.starts_with("msg:")),
        "data in flight across a close must be discarded: {receiver:?}"
    );
    // Closed, with the data and the FIN gone, the connection is released.
    assert!(sim.world().net.connection(conn).is_none());
    // Node 1 is the only receiver.
    assert_eq!(sim.world().net.stats().bytes_delivered, 0);

    // Sending on the closed connection fails immediately.
    assert!(ep.send(&mut sim, conn, 10, 8).is_err());
}

#[test]
fn data_arriving_at_closed_connection_is_dropped() {
    // The receiver closes while the sender's message is still walking the pipes: the frame
    // reaches a closed connection and must be discarded, not delivered.
    let w = world(2, lan());
    let peer = SocketAddr::new(w.net.addr_of(VNodeId(1)), 7000);
    let mut sim: NetSim<World> = Simulation::new(w, 1);
    Endpoint::new(VNodeId(1)).bind(&mut sim, 7000).unwrap();
    let ep = Endpoint::new(VNodeId(0));
    let conn = ep.connect(&mut sim, peer).unwrap();
    sim.run();

    ep.send(&mut sim, conn, 2048, 9).unwrap();
    // The receiver closes its side in the same instant: the connection is marked closed
    // immediately, while the data frame is still in flight.
    Endpoint::new(VNodeId(1)).close(&mut sim, conn).unwrap();
    sim.run();

    let receiver = labels_of(&sim, VNodeId(1));
    assert!(
        !receiver.iter().any(|l| l.starts_with("msg:")),
        "in-flight data must be discarded at the closed connection: {receiver:?}"
    );
    // Node 1 is the only receiver.
    assert_eq!(sim.world().net.stats().bytes_delivered, 0);
}

#[test]
fn connect_racing_a_concurrent_listen() {
    // The SYN is in flight while the destination binds the port: the listener exists by the
    // time the SYN is processed, so the connection is accepted — bind-then-SYN-delivery is the
    // race's benign ordering.
    let w = world(2, lan());
    let addr1 = w.net.addr_of(VNodeId(1));
    let mut sim: NetSim<World> = Simulation::new(w, 1);
    let conn = Endpoint::new(VNodeId(0))
        .connect(&mut sim, SocketAddr::new(addr1, 7000))
        .unwrap();
    // Bind 1 ms after the connect: well before the ~10 ms one-way trip of the SYN.
    sim.run_until(SimTime::from_millis(1));
    Endpoint::new(VNodeId(1)).bind(&mut sim, 7000).unwrap();
    sim.run();
    assert_eq!(
        sim.world_mut().net.connection(conn).unwrap().state,
        ConnState::Established,
        "a listen registered while the SYN is in flight must accept it"
    );
    assert!(labels_of(&sim, VNodeId(0)).contains(&"connected"));
    assert!(labels_of(&sim, VNodeId(1)).contains(&"accepted"));
}

#[test]
fn connect_losing_the_listen_race_is_refused() {
    // The other ordering: the bind lands after the SYN was already refused. The connection
    // stays refused — the transport does not retroactively accept.
    let w = world(2, lan());
    let addr1 = w.net.addr_of(VNodeId(1));
    let mut sim: NetSim<World> = Simulation::new(w, 1);
    let conn = Endpoint::new(VNodeId(0))
        .connect(&mut sim, SocketAddr::new(addr1, 7000))
        .unwrap();
    // Bind long after the SYN arrived and was refused.
    sim.run_until(SimTime::from_secs(1));
    Endpoint::new(VNodeId(1)).bind(&mut sim, 7000).unwrap();
    sim.run();
    // Refused, with nothing left in flight, the connection is released.
    assert!(sim.world().net.connection(conn).is_none());
    assert!(labels_of(&sim, VNodeId(0)).contains(&"refused"));
    assert!(!labels_of(&sim, VNodeId(1)).contains(&"accepted"));
}

#[test]
fn stream_retransmit_accounting_under_loss() {
    let w = world(2, lan().with_loss(0.3));
    let peer = SocketAddr::new(w.net.addr_of(VNodeId(1)), 7000);
    let mut sim: NetSim<World> = Simulation::new(w, 42);
    Endpoint::new(VNodeId(1)).bind(&mut sim, 7000).unwrap();
    let ep = Endpoint::new(VNodeId(0));
    let conn = ep.connect(&mut sim, peer).unwrap();
    sim.run();
    assert_eq!(
        sim.world_mut().net.connection(conn).unwrap().state,
        ConnState::Established
    );

    // 30 messages on the connection: every one must eventually arrive, and every drop must be
    // visible as a retransmission — never as a datagram drop.
    for i in 0..30 {
        ep.send(&mut sim, conn, 500, i).unwrap();
    }
    sim.run();
    let delivered = labels_of(&sim, VNodeId(1))
        .iter()
        .filter(|l| l.starts_with("msg:"))
        .count();
    assert_eq!(delivered, 30, "the stream must deliver all messages");
    let stats = sim.world_mut().net.stats();
    assert!(
        stats.retransmissions > 0,
        "30% loss must trigger retransmissions"
    );
    assert_eq!(
        stats.datagrams_dropped, 0,
        "stream drops are retransmitted, not counted as datagram drops"
    );
}

#[test]
fn same_vnode_loopback_delivery() {
    // A node sends a datagram to its own address: the frame still walks its upload and
    // download pipes (loopback traffic is shaped like everything else in the decentralized
    // model) and is delivered back to the node itself.
    let w = world(1, lan());
    let own = SocketAddr::new(w.net.addr_of(VNodeId(0)), 7001);
    let mut sim: NetSim<World> = Simulation::new(w, 1);
    Endpoint::new(VNodeId(0))
        .send_datagram(&mut sim, 7000, own, 256, 5)
        .unwrap();
    sim.run();
    assert_eq!(labels_of(&sim, VNodeId(0)), vec!["dgram:7001:5"]);
    // Both access-link latencies applied: at least 2 x 5 ms even without leaving the node.
    assert!(
        sim.now() >= SimTime::from_millis(10),
        "delivered at {}",
        sim.now()
    );
    // Node 0 is the only sender and the only receiver.
    let stats = sim.world().net.stats();
    assert_eq!((stats.messages_sent, stats.bytes_delivered), (1, 256));
}

#[test]
fn datagrams_demux_by_receiving_port() {
    // One vnode bound on two ports: the receiving port must be visible on delivery, otherwise
    // two services on one node cannot tell their traffic apart.
    let w = world(2, lan());
    let addr1 = w.net.addr_of(VNodeId(1));
    let mut sim: NetSim<World> = Simulation::new(w, 1);
    let server = Endpoint::new(VNodeId(1));
    server.bind(&mut sim, 8001).unwrap();
    server.bind(&mut sim, 8002).unwrap();
    let client = Endpoint::new(VNodeId(0));
    client
        .send_datagram(&mut sim, 9000, SocketAddr::new(addr1, 8001), 64, 1)
        .unwrap();
    client
        .send_datagram(&mut sim, 9000, SocketAddr::new(addr1, 8002), 64, 2)
        .unwrap();
    sim.run();
    let seen = labels_of(&sim, VNodeId(1));
    assert!(seen.contains(&"dgram:8001:1"), "{seen:?}");
    assert!(seen.contains(&"dgram:8002:2"), "{seen:?}");
}
