//! The choking algorithm (tit-for-tat reciprocation).
//!
//! BitTorrent's "complex reciprocation system" (the paper's words) is what makes downloaders
//! cooperate: every 10 seconds a client unchokes the interested peers that upload to it fastest
//! (three of them), plus one *optimistic unchoke* rotated every 30 seconds so that new peers get
//! a chance to prove themselves. A seeder has nothing to reciprocate for, so it unchokes the
//! peers it uploads to fastest (spreading data as quickly as possible), again with rotation.

use p2plab_net::ConnId;
use p2plab_sim::SimRng;
use std::cmp::Ordering;

/// Choking policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChokeConfig {
    /// Number of regular (reciprocation-based) unchoke slots.
    pub regular_slots: usize,
    /// Number of optimistic unchoke slots.
    pub optimistic_slots: usize,
}

impl Default for ChokeConfig {
    fn default() -> Self {
        ChokeConfig {
            regular_slots: 3,
            optimistic_slots: 1,
        }
    }
}

/// The ablation variant: no choking at all — every interested peer is unchoked. Used by the
/// `choking_ablation` bench to show why the reciprocation system matters.
pub fn no_choking() -> ChokeConfig {
    ChokeConfig {
        regular_slots: usize::MAX,
        optimistic_slots: 0,
    }
}

/// What the choker needs to know about one connected peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerSnapshot {
    /// The connection to the peer.
    pub conn: ConnId,
    /// Whether the peer is interested in our data (only interested peers take slots).
    pub interested: bool,
    /// Bytes per second the peer recently uploaded to us.
    pub download_rate: f64,
    /// Bytes per second we recently uploaded to the peer.
    pub upload_rate: f64,
}

/// How many choker rounds an optimistic unchoke lasts (mainline: 3 rounds of 10 s = 30 s).
const OPTIMISTIC_ROUNDS: u32 = 3;

/// The per-client choker state.
#[derive(Debug, Clone)]
pub struct Choker {
    config: ChokeConfig,
    round: u32,
    optimistic: Option<ConnId>,
}

impl Choker {
    /// Creates a choker.
    pub fn new(config: ChokeConfig) -> Choker {
        Choker {
            config,
            round: 0,
            optimistic: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChokeConfig {
        &self.config
    }

    /// The current optimistic unchoke, if any.
    pub fn optimistic(&self) -> Option<ConnId> {
        self.optimistic
    }

    /// Runs one choker round and fills `unchoked` with the peers to unchoke.
    ///
    /// `seeding` selects the seeder policy (rank by upload rate to the peer) instead of the
    /// leecher policy (rank by download rate from the peer). `peers` is ranked in place; both
    /// buffers are the caller's, so a round allocates nothing once they have grown.
    pub fn run_round(
        &mut self,
        peers: &mut [PeerSnapshot],
        seeding: bool,
        rng: &mut SimRng,
        unchoked: &mut Vec<ConnId>,
    ) {
        self.round += 1;
        unchoked.clear();
        if self.config.regular_slots == usize::MAX {
            // Ablation mode: unchoke everyone who is interested.
            unchoked.extend(peers.iter().filter(|p| p.interested).map(|p| p.conn));
            return;
        }
        // Interested peers first, ranked by the policy-relevant rate, ties broken by connection
        // id. Rates are finite and ids unique, so the order is total and an unstable sort is
        // deterministic.
        let rate = |p: &PeerSnapshot| {
            if seeding {
                p.upload_rate
            } else {
                p.download_rate
            }
        };
        peers.sort_unstable_by(|a, b| {
            b.interested
                .cmp(&a.interested)
                .then(rate(b).partial_cmp(&rate(a)).unwrap_or(Ordering::Equal))
                .then(a.conn.cmp(&b.conn))
        });
        let interested = &peers[..peers.partition_point(|p| p.interested)];
        let regular = interested.len().min(self.config.regular_slots);
        unchoked.extend(interested[..regular].iter().map(|p| p.conn));

        if self.config.optimistic_slots > 0 {
            let rotate = self.round % OPTIMISTIC_ROUNDS == 1 || self.optimistic.is_none();
            let still_valid = self
                .optimistic
                .is_some_and(|c| interested.iter().any(|p| p.conn == c));
            if rotate || !still_valid {
                // The candidates are the interested peers no regular slot took, in rank order.
                self.optimistic = rng.choose(&interested[regular..]).map(|p| p.conn);
            }
            if let Some(opt) = self.optimistic {
                if !unchoked.contains(&opt) {
                    unchoked.push(opt);
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "std collections model the implementation under test"
)]
mod tests {
    use super::*;

    fn peer(id: u64, interested: bool, down: f64, up: f64) -> PeerSnapshot {
        PeerSnapshot {
            conn: ConnId(id),
            interested,
            download_rate: down,
            upload_rate: up,
        }
    }

    /// One round over a copy of `peers`; the unchoked set.
    fn round(
        choker: &mut Choker,
        peers: &[PeerSnapshot],
        seeding: bool,
        rng: &mut SimRng,
    ) -> Vec<ConnId> {
        let mut unchoked = Vec::new();
        choker.run_round(&mut peers.to_vec(), seeding, rng, &mut unchoked);
        unchoked
    }

    /// The round as it was first written: a stable sort of the interested peers, and the
    /// optimistic candidates collected by filtering out the regular unchokes.
    fn reference_round(
        choker: &mut Choker,
        peers: &[PeerSnapshot],
        seeding: bool,
        rng: &mut SimRng,
    ) -> Vec<ConnId> {
        choker.round += 1;
        let mut interested: Vec<&PeerSnapshot> = peers.iter().filter(|p| p.interested).collect();
        let rate = |p: &PeerSnapshot| {
            if seeding {
                p.upload_rate
            } else {
                p.download_rate
            }
        };
        interested.sort_by(|a, b| {
            rate(b)
                .partial_cmp(&rate(a))
                .unwrap_or(Ordering::Equal)
                .then(a.conn.cmp(&b.conn))
        });
        let mut unchoked: Vec<ConnId> = interested
            .iter()
            .take(choker.config.regular_slots)
            .map(|p| p.conn)
            .collect();
        let rotate = choker.round % OPTIMISTIC_ROUNDS == 1 || choker.optimistic.is_none();
        let still_valid = choker
            .optimistic
            .is_some_and(|c| peers.iter().any(|p| p.conn == c && p.interested));
        if rotate || !still_valid {
            let candidates: Vec<ConnId> = interested
                .iter()
                .map(|p| p.conn)
                .filter(|c| !unchoked.contains(c))
                .collect();
            choker.optimistic = rng.choose(&candidates).copied();
        }
        if let Some(opt) = choker.optimistic.filter(|o| !unchoked.contains(o)) {
            unchoked.push(opt);
        }
        unchoked
    }

    #[test]
    fn ranking_in_place_matches_the_stable_sort_and_draws_alike() {
        // Rates drawn from a handful of values so ties are common; snapshots arrive in any
        // order and the interested set changes between rounds.
        let mut draw = SimRng::new(30);
        for case in 0..200 {
            let (mut choker, mut twin) = (
                Choker::new(ChokeConfig::default()),
                Choker::new(ChokeConfig::default()),
            );
            let (mut rng, mut twin_rng) = (SimRng::new(case), SimRng::new(case));
            let n = draw.gen_range(0..12u64);
            let seeding = draw.chance(0.3);
            for _ in 0..8 {
                let mut peers: Vec<PeerSnapshot> = (0..n)
                    .map(|id| {
                        let interested = draw.chance(0.7);
                        let down = f64::from(draw.gen_range(0..4u32)) * 100.0;
                        let up = f64::from(draw.gen_range(0..4u32)) * 100.0;
                        peer(id * 3, interested, down, up)
                    })
                    .collect();
                draw.shuffle(&mut peers);
                let expected = reference_round(&mut twin, &peers, seeding, &mut twin_rng);
                assert_eq!(round(&mut choker, &peers, seeding, &mut rng), expected);
                assert_eq!(choker.optimistic(), twin.optimistic());
            }
        }
    }

    #[test]
    fn leecher_unchokes_best_uploaders() {
        let mut choker = Choker::new(ChokeConfig::default());
        let mut rng = SimRng::new(1);
        let peers = vec![
            peer(1, true, 100.0, 0.0),
            peer(2, true, 500.0, 0.0),
            peer(3, true, 300.0, 0.0),
            peer(4, true, 200.0, 0.0),
            peer(5, true, 50.0, 0.0),
        ];
        let unchoked = round(&mut choker, &peers, false, &mut rng);
        // Three regular slots go to the three fastest uploaders.
        assert!(unchoked.contains(&ConnId(2)));
        assert!(unchoked.contains(&ConnId(3)));
        assert!(unchoked.contains(&ConnId(4)));
        // Plus exactly one optimistic among the rest.
        assert_eq!(unchoked.len(), 4);
        let optimistic = choker.optimistic().unwrap();
        assert!(optimistic == ConnId(1) || optimistic == ConnId(5));
    }

    #[test]
    fn uninterested_peers_never_take_slots() {
        let mut choker = Choker::new(ChokeConfig::default());
        let mut rng = SimRng::new(1);
        let peers = vec![peer(1, false, 1000.0, 0.0), peer(2, true, 10.0, 0.0)];
        let unchoked = round(&mut choker, &peers, false, &mut rng);
        assert!(!unchoked.contains(&ConnId(1)));
        assert!(unchoked.contains(&ConnId(2)));
    }

    #[test]
    fn seeder_ranks_by_upload_rate() {
        let mut choker = Choker::new(ChokeConfig {
            optimistic_slots: 0,
            ..Default::default()
        });
        let mut rng = SimRng::new(1);
        let peers = vec![
            peer(1, true, 0.0, 10.0),
            peer(2, true, 0.0, 500.0),
            peer(3, true, 0.0, 300.0),
            peer(4, true, 0.0, 100.0),
        ];
        let unchoked = round(&mut choker, &peers, true, &mut rng);
        assert_eq!(unchoked.len(), 3);
        assert!(unchoked.contains(&ConnId(2)));
        assert!(unchoked.contains(&ConnId(3)));
        assert!(unchoked.contains(&ConnId(4)));
    }

    #[test]
    fn optimistic_unchoke_rotates_over_rounds() {
        let mut choker = Choker::new(ChokeConfig::default());
        let mut rng = SimRng::new(42);
        // Many equal peers with zero rates: the three regular slots are arbitrary, the
        // optimistic one must visit different peers over many rounds.
        let peers: Vec<PeerSnapshot> = (0..20).map(|i| peer(i, true, 0.0, 0.0)).collect();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..30 {
            round(&mut choker, &peers, false, &mut rng);
            if let Some(o) = choker.optimistic() {
                seen.insert(o);
            }
        }
        assert!(
            seen.len() >= 3,
            "optimistic unchoke should rotate, saw {seen:?}"
        );
    }

    #[test]
    fn optimistic_kept_between_rotations() {
        let mut choker = Choker::new(ChokeConfig::default());
        let mut rng = SimRng::new(5);
        let peers: Vec<PeerSnapshot> = (0..10).map(|i| peer(i, true, i as f64, 0.0)).collect();
        round(&mut choker, &peers, false, &mut rng);
        let first = choker.optimistic();
        // Round 2 and 3 are within the same 30 s optimistic period.
        round(&mut choker, &peers, false, &mut rng);
        assert_eq!(choker.optimistic(), first);
        round(&mut choker, &peers, false, &mut rng);
        assert_eq!(choker.optimistic(), first);
    }

    #[test]
    fn no_choking_ablation_unchokes_everyone() {
        let mut choker = Choker::new(no_choking());
        let mut rng = SimRng::new(1);
        let peers: Vec<PeerSnapshot> = (0..50).map(|i| peer(i, true, 0.0, 0.0)).collect();
        let unchoked = round(&mut choker, &peers, false, &mut rng);
        assert_eq!(unchoked.len(), 50);
    }

    #[test]
    fn empty_peer_set() {
        let mut choker = Choker::new(ChokeConfig::default());
        let mut rng = SimRng::new(1);
        assert!(round(&mut choker, &[], false, &mut rng).is_empty());
        assert!(choker.optimistic().is_none());
    }
}
