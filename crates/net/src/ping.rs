//! A self-contained ping (echo request/reply) application.
//!
//! The paper uses `ping` for the two emulation-accuracy experiments: Figure 6 (round-trip time
//! as a function of the number of firewall rules) and the Figure 7 latency-decomposition check
//! (853 ms between `10.1.3.207` and `10.2.2.117`). [`PingWorld`] is a minimal [`NetHost`] whose
//! only application is an echo responder, used by those benches and by integration tests.

use crate::addr::SocketAddr;
use crate::endpoint::Endpoint;
use crate::network::{Network, VNodeId};
use crate::transport::{NetEvent, NetHost, NetSim, TransportEvent};
use p2plab_sim::{FxHashMap, SimDuration, SimTime, Simulation};

/// The ICMP-like echo port.
pub const ECHO_PORT: u16 = 7;

/// Echo payload size in bytes: a standard ping's 56.
pub const ECHO_BYTES: u64 = 56;

/// Payload of the echo protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingPayload {
    /// Echo request.
    Echo {
        /// Sequence number.
        seq: u64,
    },
    /// Echo reply.
    Reply {
        /// Sequence number of the request being answered.
        seq: u64,
    },
}

/// The timers of a [`PingWorld`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingTimer {
    /// A probe series: send one echo request from `from` to `to` ([`ping`]), then, while
    /// `left > 0`, re-arm `interval` later at the queue rank after its own
    /// ([`Simulation::firing_rank`]) with one fewer left. One series is one pending event
    /// whatever its length, and its ranks — reserved with [`Simulation::reserve_ranks`] — keep
    /// it in the order scheduling every request up front would give. A single probe is a
    /// series with `left = 0`.
    Probe {
        /// The pinging node.
        from: VNodeId,
        /// The pinged node.
        to: VNodeId,
        /// Requests the series still sends after this one.
        left: u32,
        /// Spacing between the series' requests.
        interval: SimDuration,
    },
}

// The series fields must not widen the event's queue slot.
const _: () = assert!(std::mem::size_of::<NetEvent<PingPayload, PingTimer>>() <= 80);

/// A world whose virtual nodes all run an echo responder.
pub struct PingWorld {
    /// The emulated network.
    pub net: Network,
    /// Completed round trips, `(pinging node, rtt)`, in completion order, less any a reader
    /// has drained.
    pub rtts: Vec<(VNodeId, SimDuration)>,
    /// Round trips completed so far, drained ones included.
    pub replies: usize,
    pending: FxHashMap<u64, (VNodeId, SimTime)>,
    next_seq: u64,
}

impl PingWorld {
    /// Creates a ping world over the given network; every echo carries [`ECHO_BYTES`].
    pub fn new(net: Network) -> PingWorld {
        PingWorld {
            net,
            rtts: Vec::new(),
            replies: 0,
            pending: FxHashMap::default(),
            next_seq: 0,
        }
    }

    /// Average measured round-trip time, if any pings completed.
    pub fn average_rtt(&self) -> Option<SimDuration> {
        if self.rtts.is_empty() {
            return None;
        }
        let total: u64 = self.rtts.iter().map(|(_, d)| d.as_nanos()).sum();
        Some(SimDuration::from_nanos(total / self.rtts.len() as u64))
    }

    /// Minimum and maximum measured round-trip times.
    pub fn min_max_rtt(&self) -> Option<(SimDuration, SimDuration)> {
        let min = self.rtts.iter().map(|(_, d)| *d).min()?;
        let max = self.rtts.iter().map(|(_, d)| *d).max()?;
        Some((min, max))
    }
}

impl NetHost for PingWorld {
    type Payload = PingPayload;
    type Timer = PingTimer;

    fn network(&mut self) -> &mut Network {
        &mut self.net
    }

    fn on_transport_event(
        sim: &mut NetSim<Self>,
        node: VNodeId,
        event: TransportEvent<PingPayload>,
    ) {
        match event {
            TransportEvent::Datagram {
                from,
                to_port,
                payload: PingPayload::Echo { seq },
                size,
            } => {
                // Echo responder: reply from the port the request was addressed to, back to
                // wherever it came from.
                let _ = Endpoint::new(node).send_datagram(
                    sim,
                    to_port,
                    from,
                    size,
                    PingPayload::Reply { seq },
                );
            }
            TransportEvent::Datagram {
                payload: PingPayload::Reply { seq },
                ..
            } => {
                let now = sim.now();
                let world = sim.world_mut();
                if let Some((origin, sent_at)) = world.pending.remove(&seq) {
                    world.rtts.push((origin, now - sent_at));
                    world.replies += 1;
                }
            }
            _ => {}
        }
    }

    fn on_timer(sim: &mut NetSim<Self>, timer: PingTimer) {
        let PingTimer::Probe {
            from,
            to,
            left,
            interval,
        } = timer;
        ping(sim, from, to);
        if left > 0 {
            let next = PingTimer::Probe {
                from,
                to,
                left: left - 1,
                interval,
            };
            let at = sim.now() + interval;
            let rank = sim.firing_rank() + 1;
            sim.schedule_event_ranked(at, rank, NetEvent::Timer(next));
        }
    }
}

/// Sends one echo request from `from` to `to`. The RTT is recorded in
/// [`PingWorld::rtts`] when (and if) the reply arrives.
pub fn ping(sim: &mut NetSim<PingWorld>, from: VNodeId, to: VNodeId) {
    let seq = sim.world().next_seq;
    sim.world_mut().next_seq += 1;
    let now = sim.now();
    sim.world_mut().pending.insert(seq, (from, now));
    let to_addr = sim.world_mut().net.addr_of(to);
    let _ = Endpoint::new(from).send_datagram(
        sim,
        ECHO_PORT,
        SocketAddr::new(to_addr, ECHO_PORT),
        ECHO_BYTES,
        PingPayload::Echo { seq },
    );
}

/// Sends `count` echo requests from `from` to `to`, spaced by `interval`, runs the simulation to
/// completion, and returns the measured RTTs.
pub fn ping_series(
    world: PingWorld,
    from: VNodeId,
    to: VNodeId,
    count: usize,
    interval: SimDuration,
    seed: u64,
) -> (PingWorld, Vec<SimDuration>) {
    let mut sim: NetSim<PingWorld> = Simulation::new(world, seed);
    if let Some(left) = count.checked_sub(1) {
        let rank = sim.reserve_ranks(count as u64);
        let probe = PingTimer::Probe {
            from,
            to,
            left: u32::try_from(left).expect("a ping series fits in u32 requests"),
            interval,
        };
        sim.schedule_event_ranked(SimTime::ZERO, rank, NetEvent::Timer(probe));
    }
    sim.run();
    let world = sim.into_world();
    let rtts = world.rtts.iter().map(|(_, d)| *d).collect();
    (world, rtts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;
    use crate::network::NetworkConfig;
    use crate::topology::{AccessLinkClass, GroupId, TopologySpec};

    fn two_node_world(rules_on_sender: usize) -> PingWorld {
        let topo = TopologySpec::uniform(
            "lan",
            2,
            AccessLinkClass::symmetric(100_000_000, SimDuration::from_micros(100)),
        );
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m0 = net.add_machine("pm0", VirtAddr::new(192, 168, 38, 1));
        let m1 = net.add_machine("pm1", VirtAddr::new(192, 168, 38, 2));
        net.add_vnode(m0, GroupId(0)).unwrap();
        net.add_vnode(m1, GroupId(0)).unwrap();
        net.add_dummy_rules(m0, rules_on_sender);
        PingWorld::new(net)
    }

    #[test]
    fn ping_measures_round_trip() {
        let world = two_node_world(0);
        let (world, rtts) = ping_series(
            world,
            VNodeId(0),
            VNodeId(1),
            5,
            SimDuration::from_millis(100),
            1,
        );
        assert_eq!(rtts.len(), 5);
        // Two traversals of the 100 us links in each direction: at least 400 us.
        let floor = SimDuration::from_micros(400);
        assert!(rtts.iter().all(|&r| r >= floor));
        assert!(world.average_rtt().unwrap() >= floor);
        let (min, max) = world.min_max_rtt().unwrap();
        assert!(min <= max);
    }

    #[test]
    fn rtt_grows_linearly_with_rule_count() {
        // The Figure 6 mechanism, end to end: more rules on the sending physical node's
        // firewall means proportionally larger RTT.
        let rtt_with = |rules: usize| {
            let world = two_node_world(rules);
            let (_, rtts) = ping_series(
                world,
                VNodeId(0),
                VNodeId(1),
                3,
                SimDuration::from_millis(50),
                1,
            );
            rtts.iter().map(|r| r.as_nanos()).sum::<u64>() as f64 / rtts.len() as f64
        };
        let base = rtt_with(0);
        let mid = rtt_with(10_000);
        let big = rtt_with(20_000);
        // Each outgoing packet on the sender scans the dummy rules once per direction
        // (request out, reply in), so the RTT delta should double when the rule count doubles.
        let d1 = mid - base;
        let d2 = big - base;
        assert!(d1 > 0.0);
        let ratio = d2 / d1;
        assert!((ratio - 2.0).abs() < 0.2, "ratio={ratio}");
    }
}
