//! The BitTorrent tracker.
//!
//! The tracker keeps the list of swarm members and answers announces with a random subset of
//! peers (`numwant`, 50 by default in mainline). The paper's experiments run one tracker as just
//! another virtual node of the emulated network.

use crate::messages::{AnnounceEvent, PeerId};
use p2plab_net::{SocketAddr, VNodeId};
use p2plab_sim::{SimRng, SimTime};

/// Counters kept by the tracker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackerStats {
    /// Announces received.
    pub announces: u64,
    /// Completed-download events received.
    pub completed: u64,
    /// Peers that announced `Stopped`.
    pub stopped: u64,
}

#[derive(Debug, Clone)]
struct SwarmMember {
    addr: SocketAddr,
    last_announce: SimTime,
}

/// The tracker state.
#[derive(Debug, Clone)]
pub struct Tracker {
    /// The virtual node hosting the tracker.
    pub vnode: VNodeId,
    /// The UDP-style port the tracker answers on.
    pub port: u16,
    /// Swarm members by peer id (a peer id is its client's index).
    members: Vec<Option<SwarmMember>>,
    stats: TrackerStats,
    /// Reused buffer for the addresses an announce's answer is sampled from.
    others: Vec<SocketAddr>,
}

/// The default tracker port.
pub const TRACKER_PORT: u16 = 6969;

impl Tracker {
    /// Creates a tracker hosted on `vnode`.
    pub fn new(vnode: VNodeId) -> Tracker {
        Tracker {
            vnode,
            port: TRACKER_PORT,
            members: Vec::new(),
            stats: TrackerStats::default(),
            others: Vec::new(),
        }
    }

    /// Tracker counters.
    pub fn stats(&self) -> TrackerStats {
        self.stats
    }

    /// Handles an announce and returns the peer list for the response.
    pub fn handle_announce(
        &mut self,
        now: SimTime,
        peer_id: PeerId,
        peer_addr: SocketAddr,
        event: AnnounceEvent,
        numwant: usize,
        rng: &mut SimRng,
    ) -> Vec<SocketAddr> {
        self.stats.announces += 1;
        let me = peer_id.0 as usize;
        if self.members.len() <= me {
            self.members.resize(me + 1, None);
        }
        match event {
            AnnounceEvent::Stopped => {
                self.stats.stopped += 1;
                self.members[me] = None;
                return Vec::new();
            }
            AnnounceEvent::Completed => {
                self.stats.completed += 1;
            }
            AnnounceEvent::Started | AnnounceEvent::Periodic => {}
        }
        self.members[me] = Some(SwarmMember {
            addr: peer_addr,
            last_announce: now,
        });
        // Random subset of everyone else, drawn from the members in ascending id order.
        self.others.clear();
        let others = self.members.iter().enumerate().filter(|&(id, _)| id != me);
        self.others
            .extend(others.filter_map(|(_, m)| m.as_ref().map(|m| m.addr)));
        rng.sample(&self.others, numwant)
            .into_iter()
            .copied()
            .collect()
    }

    /// Time of the last announce from a peer, if it is still a member.
    pub fn last_announce(&self, peer: PeerId) -> Option<SimTime> {
        let member = self.members.get(peer.0 as usize)?.as_ref();
        member.map(|m| m.last_announce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2plab_net::VirtAddr;

    fn addr(i: u8) -> SocketAddr {
        SocketAddr::new(VirtAddr::new(10, 0, 0, i), 6881)
    }

    fn member_count(t: &Tracker) -> usize {
        t.members.iter().flatten().count()
    }

    #[test]
    fn announce_registers_and_returns_other_peers() {
        let mut t = Tracker::new(VNodeId(0));
        let mut rng = SimRng::new(1);
        let p1 = t.handle_announce(
            SimTime::ZERO,
            PeerId(1),
            addr(1),
            AnnounceEvent::Started,
            50,
            &mut rng,
        );
        assert!(p1.is_empty(), "first peer sees an empty swarm");
        let p2 = t.handle_announce(
            SimTime::ZERO,
            PeerId(2),
            addr(2),
            AnnounceEvent::Started,
            50,
            &mut rng,
        );
        assert_eq!(p2, vec![addr(1)]);
        assert_eq!(member_count(&t), 2);
        // A peer never gets itself back.
        let p1_again = t.handle_announce(
            SimTime::ZERO,
            PeerId(1),
            addr(1),
            AnnounceEvent::Periodic,
            50,
            &mut rng,
        );
        assert_eq!(p1_again, vec![addr(2)]);
    }

    #[test]
    fn numwant_limits_response_size() {
        let mut t = Tracker::new(VNodeId(0));
        let mut rng = SimRng::new(1);
        for i in 1..=100u8 {
            t.handle_announce(
                SimTime::ZERO,
                PeerId(i as u32),
                addr(i),
                AnnounceEvent::Started,
                0,
                &mut rng,
            );
        }
        let peers = t.handle_announce(
            SimTime::ZERO,
            PeerId(200),
            SocketAddr::new(VirtAddr::new(10, 0, 1, 1), 6881),
            AnnounceEvent::Started,
            50,
            &mut rng,
        );
        assert_eq!(peers.len(), 50);
        // No duplicates.
        let mut unique = peers.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 50);
    }

    #[test]
    fn completed_and_stopped_events() {
        let mut t = Tracker::new(VNodeId(0));
        let mut rng = SimRng::new(1);
        t.handle_announce(
            SimTime::ZERO,
            PeerId(1),
            addr(1),
            AnnounceEvent::Started,
            50,
            &mut rng,
        );
        t.handle_announce(
            SimTime::from_secs(10),
            PeerId(1),
            addr(1),
            AnnounceEvent::Completed,
            50,
            &mut rng,
        );
        assert_eq!(t.stats().completed, 1);
        assert_eq!(t.last_announce(PeerId(1)), Some(SimTime::from_secs(10)));
        t.handle_announce(
            SimTime::from_secs(20),
            PeerId(1),
            addr(1),
            AnnounceEvent::Stopped,
            50,
            &mut rng,
        );
        assert_eq!(member_count(&t), 0);
        assert_eq!(t.stats().stopped, 1);
        assert_eq!(t.last_announce(PeerId(1)), None);
    }
}
