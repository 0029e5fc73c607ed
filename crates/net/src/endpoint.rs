//! The node-facing session API: per-vnode [`Endpoint`] handles over bound ports, connections
//! and typed lanes.
//!
//! An [`Endpoint`] is a virtual node's view of its transport stack — the handle through which
//! an application binds ports, opens and closes connections, and sends messages on typed
//! [`LaneKind`](crate::lane::LaneKind) lanes or as connectionless datagrams. The passive state
//! (listener table, connection arena, counters) lives in the
//! [`Network`](crate::network::Network); the endpoint is a cheap `Copy` capability that names
//! the vnode, so application code can hold one per protocol instance without borrowing the
//! world.
//!
//! Incoming traffic reaches the application through
//! [`NetHost::on_transport_event`](crate::transport::NetHost) as
//! [`TransportEvent`](crate::transport::TransportEvent)s. A typed request/response layer over
//! the unreliable datagram path lives in [`crate::rpc`].
//!
//! ```
//! use p2plab_net::{
//!     AccessLinkClass, Endpoint, GroupId, LaneKind, NetHost, NetSim, Network, NetworkConfig,
//!     TopologySpec, TransportEvent, VNodeId, VirtAddr,
//! };
//! use p2plab_sim::{NoEvent, Simulation};
//!
//! /// A world whose nodes echo every message back on the lane it arrived on.
//! struct Echo {
//!     net: Network,
//!     delivered: Vec<(VNodeId, LaneKind, u32)>,
//! }
//!
//! impl NetHost for Echo {
//!     type Payload = u32;
//!     type Timer = NoEvent;
//!     fn network(&mut self) -> &mut Network {
//!         &mut self.net
//!     }
//!     fn on_timer(_sim: &mut NetSim<Self>, timer: NoEvent) {
//!         match timer {}
//!     }
//!     fn on_transport_event(sim: &mut NetSim<Self>, node: VNodeId, ev: TransportEvent<u32>) {
//!         if let TransportEvent::Message { conn, lane, payload, size, .. } = ev {
//!             sim.world_mut().delivered.push((node, lane, payload));
//!             if payload < 1000 {
//!                 let _ = Endpoint::new(node).send(sim, conn, lane, size, payload + 1000);
//!             }
//!         }
//!     }
//! }
//!
//! // Two DSL nodes folded onto one machine.
//! let topo = TopologySpec::uniform("doc", 2, AccessLinkClass::bittorrent_dsl());
//! let mut net = Network::new(NetworkConfig::default(), topo);
//! let m = net.add_machine("pm0", VirtAddr::new(192, 168, 38, 1));
//! let a = net.add_vnode(m, GroupId(0)).unwrap();
//! let b = net.add_vnode(m, GroupId(0)).unwrap();
//! let peer = p2plab_net::SocketAddr::new(net.addr_of(b), 6881);
//!
//! let mut sim: NetSim<Echo> = Simulation::new(Echo { net, delivered: vec![] }, 1);
//! let server = Endpoint::new(b);
//! server.bind(&mut sim, 6881).unwrap();
//! let client = Endpoint::new(a);
//! let conn = client.connect(&mut sim, peer).unwrap();
//! sim.run();
//! // Send on two different lanes of the same connection; the echo comes back on each.
//! client.send(&mut sim, conn, LaneKind::ReliableOrdered, 512, 1).unwrap();
//! client.send(&mut sim, conn, LaneKind::UnreliableUnordered, 64, 2).unwrap();
//! sim.run();
//! assert!(sim.world().delivered.contains(&(b, LaneKind::ReliableOrdered, 1)));
//! assert!(sim.world().delivered.contains(&(a, LaneKind::UnreliableUnordered, 1002)));
//! ```

use crate::network::VNodeId;

/// A virtual node's transport handle: bound ports, connections and lane sends.
///
/// Cheap to create and `Copy` — an endpoint is the *name* of a vnode's transport stack, not a
/// stateful object, so protocol code can construct one wherever it holds a [`VNodeId`]. The
/// operations that put frames on the wire are implemented beside the packet walk, in
/// [`crate::transport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    node: VNodeId,
}

impl Endpoint {
    /// The endpoint of virtual node `node`.
    pub fn new(node: VNodeId) -> Endpoint {
        Endpoint { node }
    }

    /// The virtual node this endpoint belongs to.
    pub fn node(&self) -> VNodeId {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SocketAddr;
    use crate::lane::LaneKind;
    use crate::network::{ConnState, NetError, Network, NetworkConfig};
    use crate::topology::{AccessLinkClass, GroupId, TopologySpec};
    use crate::transport::{NetHost, NetSim, TransportEvent};
    use crate::VirtAddr;
    use p2plab_sim::{NoEvent, Simulation};

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
                TransportEvent::Message { lane, payload, .. } => {
                    format!("msg:{lane:?}:{payload}")
                }
                TransportEvent::Datagram {
                    to_port, payload, ..
                } => format!("dgram:{to_port}:{payload}"),
                TransportEvent::Closed { .. } => "closed".into(),
            };
            sim.world_mut().seen.push((node, label));
        }
    }

    fn world(n: usize) -> World {
        let topo = TopologySpec::uniform("lan", n, AccessLinkClass::bittorrent_dsl());
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

    #[test]
    fn lane_tag_travels_with_the_message() {
        let w = world(2);
        let peer = SocketAddr::new(w.net.addr_of(VNodeId(1)), 7000);
        let mut sim: NetSim<World> = Simulation::new(w, 1);
        Endpoint::new(VNodeId(1)).bind(&mut sim, 7000).unwrap();
        let ep = Endpoint::new(VNodeId(0));
        let conn = ep.connect(&mut sim, peer).unwrap();
        sim.run();
        for lane in LaneKind::ALL {
            ep.send(&mut sim, conn, lane, 100, 7).unwrap();
        }
        sim.run();
        let seen = &sim.world().seen;
        for lane in LaneKind::ALL {
            assert!(
                seen.contains(&(VNodeId(1), format!("msg:{lane:?}:7"))),
                "missing {lane:?} delivery in {seen:?}"
            );
        }
    }

    #[test]
    fn connect_to_an_unbound_port_is_refused() {
        let w = world(2);
        let addr1 = w.net.addr_of(VNodeId(1));
        let mut sim: NetSim<World> = Simulation::new(w, 1);
        let conn = Endpoint::new(VNodeId(0))
            .connect(&mut sim, SocketAddr::new(addr1, 7000))
            .unwrap();
        sim.run();
        let refused = (VNodeId(0), "refused".to_string());
        assert!(sim.world().seen.contains(&refused));
        // Refused and with nothing left in flight, the connection is released.
        assert!(sim.world().net.connection(conn).is_none());
    }

    #[test]
    fn endpoint_reports_its_ports_and_connections() {
        let w = world(3);
        let peer = SocketAddr::new(w.net.addr_of(VNodeId(1)), 7000);
        let mut sim: NetSim<World> = Simulation::new(w, 1);
        let server = Endpoint::new(VNodeId(1));
        server.bind(&mut sim, 7000).unwrap();
        server.bind(&mut sim, 7001).unwrap();
        let client = Endpoint::new(VNodeId(0));
        let conn = client.connect(&mut sim, peer).unwrap();
        sim.run();

        let net = &sim.world().net;
        let bound = |ep: &Endpoint| {
            let mut ports: Vec<u16> = (net.listeners.iter())
                .filter(|&&(n, _)| n == ep.node())
                .map(|&(_, p)| p)
                .collect();
            ports.sort_unstable();
            ports
        };
        assert_eq!(bound(&server), [7000, 7001]);
        assert_eq!(bound(&client), []);
        // The connection names both ends, each the other's peer.
        let c = net.connection(conn).unwrap();
        assert_eq!(c.state, ConnState::Established);
        assert_eq!(c.client.0, client.node());
        assert_eq!(c.server, (server.node(), 7000));
        assert_eq!(c.peer_of(client.node()), server.node());
        assert_eq!(c.peer_of(server.node()), client.node());
        assert_eq!(c.port_of(server.node()), 7000);
        assert_eq!(server.node(), VNodeId(1));
    }

    #[test]
    fn endpoint_rejects_foreign_connections() {
        let w = world(3);
        let peer = SocketAddr::new(w.net.addr_of(VNodeId(1)), 7000);
        let mut sim: NetSim<World> = Simulation::new(w, 1);
        Endpoint::new(VNodeId(1)).bind(&mut sim, 7000).unwrap();
        let conn = Endpoint::new(VNodeId(0)).connect(&mut sim, peer).unwrap();
        sim.run();
        // A third node cannot send or close on a connection it is not part of.
        let stranger = Endpoint::new(VNodeId(2));
        assert_eq!(
            stranger.send(&mut sim, conn, LaneKind::ReliableOrdered, 10, 1),
            Err(NetError::UnknownConnection(conn))
        );
        assert_eq!(
            stranger.close(&mut sim, conn),
            Err(NetError::UnknownConnection(conn))
        );
    }
}
