//! Piece/block bookkeeping and the piece-selection policy.
//!
//! The selection policy follows the mainline client the paper uses: *strict priority* (finish
//! partially downloaded pieces first), *random first pieces* (until a few pieces are complete,
//! pick at random so a new peer quickly has something to reciprocate with), *rarest first*
//! afterwards (pick the piece owned by the fewest peers), and *endgame mode* (once every block
//! has been requested, outstanding blocks may be requested from several peers in parallel).

use crate::bitfield::Bitfield;
use crate::torrent::Torrent;
use p2plab_sim::{SimRng, SimTime};
use std::collections::BTreeMap;

/// Number of complete pieces below which the client picks pieces at random rather than
/// rarest-first (mainline's "random first piece" policy).
pub const RANDOM_FIRST_PIECES: u32 = 4;

/// Result of recording a received block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOutcome {
    /// The block was a duplicate (endgame or retransmission); nothing changed.
    Duplicate,
    /// The block was new but its piece is still incomplete.
    Progress,
    /// The block completed its piece.
    PieceComplete(u32),
    /// The block completed the piece *and* the whole file.
    FileComplete(u32),
}

/// How many peers may have the same block outstanding in endgame mode. Mainline bounds the
/// duplication with `cancel` messages; the model caps the number of parallel requests instead.
pub const MAX_ENDGAME_DUPLICATION: u8 = 2;

#[derive(Debug, Clone)]
struct PartialPiece {
    received: Bitfield,
    /// How many peers hold an outstanding request for each block (indexed by block number —
    /// pieces have a small, fixed block count, so an array beats a hash map in the per-block
    /// hot loops). A count only: *who* asked and *when* is recorded once, in the peers'
    /// `PeerConn::inflight` lists, and `Client` keeps the two in step. Zero for a received block.
    requested: Vec<u8>,
}

impl PartialPiece {
    fn new(blocks: u32) -> PartialPiece {
        PartialPiece {
            received: Bitfield::new(blocks),
            requested: vec![0; blocks as usize],
        }
    }

    /// Blocks neither received nor requested — the quantity the endgame test sums.
    fn uncovered(&self) -> u64 {
        (0..self.requested.len() as u32)
            .filter(|&b| !self.received.get(b) && self.requested[b as usize] == 0)
            .count() as u64
    }
}

/// Per-client piece state and selection logic.
#[derive(Debug, Clone)]
pub struct PieceManager {
    torrent: Torrent,
    have: Bitfield,
    /// In-progress pieces. A BTreeMap so iteration is already in piece order (strict-priority
    /// candidates need no per-call sort).
    partial: BTreeMap<u32, PartialPiece>,
    /// How many connected peers have each piece (availability for rarest-first).
    availability: Vec<u32>,
    bytes_done: u64,
    /// Blocks that are neither owned nor currently requested, over the whole torrent —
    /// maintained incrementally so the endgame test is O(1) instead of a scan per pick.
    uncovered_blocks: u64,
    /// Scratch buffer reused by `pick_into` (in-progress candidates, then fresh pieces).
    candidates: Vec<u32>,
}

impl PieceManager {
    /// Creates the piece state of a fresh leecher (`complete = false`) or a seeder
    /// (`complete = true`).
    pub fn new(torrent: Torrent, complete: bool) -> PieceManager {
        let n = torrent.num_pieces();
        let have = if complete {
            Bitfield::full(n)
        } else {
            Bitfield::new(n)
        };
        let bytes_done = if complete { torrent.total_bytes } else { 0 };
        let uncovered_blocks = if complete {
            0
        } else {
            (0..n).map(|p| torrent.blocks_in_piece(p) as u64).sum()
        };
        PieceManager {
            availability: vec![0; n as usize],
            partial: BTreeMap::new(),
            have,
            torrent,
            bytes_done,
            uncovered_blocks,
            candidates: Vec::new(),
        }
    }

    /// The torrent this manager tracks.
    pub fn torrent(&self) -> &Torrent {
        &self.torrent
    }

    /// The client's own bitfield.
    pub fn have(&self) -> &Bitfield {
        &self.have
    }

    /// True once every piece is complete.
    pub fn is_complete(&self) -> bool {
        self.have.is_full()
    }

    /// Bytes of verified data downloaded (or owned, for a seeder).
    pub fn bytes_done(&self) -> u64 {
        self.bytes_done
    }

    /// Download progress in percent (0-100), the quantity plotted in Figures 8 and 10.
    pub fn percent_done(&self) -> f64 {
        100.0 * self.bytes_done as f64 / self.torrent.total_bytes as f64
    }

    /// Registers a peer's full bitfield in the availability counts.
    pub fn add_peer_bitfield(&mut self, bf: &Bitfield) {
        for i in bf.iter_set() {
            self.availability[i as usize] += 1;
        }
    }

    /// Removes a disconnected peer's bitfield from the availability counts.
    pub fn remove_peer_bitfield(&mut self, bf: &Bitfield) {
        for i in bf.iter_set() {
            self.availability[i as usize] = self.availability[i as usize].saturating_sub(1);
        }
    }

    /// Registers a single `have` announcement from a peer.
    pub fn add_peer_have(&mut self, piece: u32) {
        self.availability[piece as usize] += 1;
    }

    /// Retracts a single piece claim from a peer — used when a served block fails the hash
    /// check and the claim turns out to be a lie.
    pub fn remove_peer_have(&mut self, piece: u32) {
        self.availability[piece as usize] = self.availability[piece as usize].saturating_sub(1);
    }

    /// Current availability (number of connected peers owning each piece).
    pub fn availability(&self) -> &[u32] {
        &self.availability
    }

    /// True once every block is either owned or currently requested — the endgame condition.
    /// O(1): the uncovered-block count is maintained incrementally by every request/receive/
    /// release (and checked against a full recount in debug builds).
    pub fn in_endgame(&self) -> bool {
        debug_assert_eq!(
            self.uncovered_blocks,
            self.recount_uncovered(),
            "incremental uncovered-block count drifted"
        );
        !self.is_complete() && self.uncovered_blocks == 0
    }

    /// The slow recount backing the `in_endgame` debug assertion.
    fn recount_uncovered(&self) -> u64 {
        self.have
            .iter_missing()
            .map(|p| match self.partial.get(&p) {
                Some(pp) => pp.uncovered(),
                None => self.torrent.blocks_in_piece(p) as u64,
            })
            .sum()
    }

    /// How many peers hold an outstanding request for this block.
    pub fn request_count(&self, piece: u32, block: u32) -> u8 {
        self.partial
            .get(&piece)
            .map_or(0, |pp| pp.requested[block as usize])
    }

    /// Requests outstanding over all peers: the sum of every block's request count (a scan —
    /// for the recount and tests, not the hot path).
    pub fn requests_outstanding(&self) -> u64 {
        let counts = self.partial.values().flat_map(|pp| &pp.requested);
        counts.map(|&c| c as u64).sum()
    }

    /// Picks up to `max` blocks to request from a peer owning `peer_have` and counts one more
    /// request against each. Blocks already requested from other peers are skipped unless
    /// endgame mode is active. `_now` is unused — a request's age lives with the peer that holds
    /// it ([`Client::request_blocks`](crate::Client::request_blocks)) — and stays only because
    /// `benchmark`'s probe calls this signature.
    pub fn pick_blocks(
        &mut self,
        peer_have: &Bitfield,
        max: usize,
        _now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<(u32, u32)> {
        let mut picked = Vec::with_capacity(max);
        self.pick_into(peer_have, max, rng, |_| false, &mut picked);
        picked
    }

    /// [`pick_blocks`](Self::pick_blocks) into a caller-owned buffer, for a peer that already
    /// `holds` requests of its own: endgame mode never hands such a block to the same peer a
    /// second time (it would only waste its upload link, and count a holder that is not one).
    pub fn pick_into(
        &mut self,
        peer_have: &Bitfield,
        max: usize,
        rng: &mut SimRng,
        holds: impl Fn((u32, u32)) -> bool,
        picked: &mut Vec<(u32, u32)>,
    ) {
        picked.clear();
        if max == 0 || self.is_complete() {
            return;
        }
        let endgame = self.in_endgame();

        // Candidate pieces, in one reused scratch buffer: strict priority first (blocks of
        // pieces already in progress; BTreeMap iteration is already in piece order), then
        // fresh pieces.
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend(
            self.partial
                .keys()
                .copied()
                .filter(|&p| peer_have.get(p) && !self.have.get(p)),
        );
        let fresh_start = candidates.len();
        candidates.extend(
            self.have
                .iter_missing_in(peer_have)
                .filter(|p| !self.partial.contains_key(p)),
        );
        // Fresh pieces: random while we own few pieces, rarest-first afterwards.
        let fresh = &mut candidates[fresh_start..];
        if self.have.count() < RANDOM_FIRST_PIECES {
            rng.shuffle(fresh);
        } else {
            fresh.sort_by_key(|&p| (self.availability[p as usize], p));
            // Shuffle ties so that identical availability does not make every client converge
            // on the same piece (mainline breaks ties randomly).
            let mut i = 0;
            while i < fresh.len() {
                let mut j = i + 1;
                while j < fresh.len()
                    && self.availability[fresh[j] as usize] == self.availability[fresh[i] as usize]
                {
                    j += 1;
                }
                rng.shuffle(&mut fresh[i..j]);
                i = j;
            }
        }

        let mut budget = max;
        for &piece in &candidates {
            if budget == 0 {
                break;
            }
            let blocks = self.torrent.blocks_in_piece(piece);
            let entry = self
                .partial
                .entry(piece)
                .or_insert_with(|| PartialPiece::new(blocks));
            for b in 0..blocks {
                if budget == 0 {
                    break;
                }
                if entry.received.get(b) {
                    continue;
                }
                let count = &mut entry.requested[b as usize];
                if *count > 0 && (!endgame || *count >= MAX_ENDGAME_DUPLICATION) {
                    continue;
                }
                budget -= 1;
                if *count == 0 {
                    self.uncovered_blocks -= 1;
                } else if holds((piece, b)) {
                    // An endgame block the peer already holds uses up one of its picks, but is
                    // neither counted nor handed back a second time.
                    continue;
                }
                *count += 1;
                picked.push((piece, b));
            }
        }
        self.candidates = candidates;
    }

    /// Records a received block. Returns what the block achieved.
    pub fn block_received(&mut self, piece: u32, block: u32) -> BlockOutcome {
        if self.have.get(piece) {
            return BlockOutcome::Duplicate;
        }
        let blocks = self.torrent.blocks_in_piece(piece);
        let entry = self
            .partial
            .entry(piece)
            .or_insert_with(|| PartialPiece::new(blocks));
        if !entry.received.set(block) {
            return BlockOutcome::Duplicate;
        }
        // Receipt settles every request for the block, whoever held one.
        if std::mem::take(&mut entry.requested[block as usize]) == 0 {
            // A block that was never requested (or whose request timed out) stops being
            // uncovered the moment it is owned.
            self.uncovered_blocks -= 1;
        }
        self.bytes_done += self.torrent.block_len(piece, block) as u64;
        if entry.received.is_full() {
            self.partial.remove(&piece);
            self.have.set(piece);
            if self.have.is_full() {
                BlockOutcome::FileComplete(piece)
            } else {
                BlockOutcome::PieceComplete(piece)
            }
        } else {
            BlockOutcome::Progress
        }
    }

    /// Takes one holder off each listed block's request count — the peer that held the request
    /// disconnected, answered with corrupt data, or let it time out. A block stays reserved
    /// while another peer (an endgame twin) still holds a request for it.
    pub fn release_requests(&mut self, blocks: &[(u32, u32)]) {
        for &(piece, block) in blocks {
            let Some(pp) = self.partial.get_mut(&piece) else {
                continue;
            };
            let count = &mut pp.requested[block as usize];
            if *count > 0 {
                *count -= 1;
                if *count == 0 {
                    self.uncovered_blocks += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    fn small_torrent() -> Torrent {
        // 4 pieces of 256 KB, 16 blocks each.
        Torrent::new("t", 1024 * 1024)
    }

    #[test]
    fn seeder_starts_complete() {
        let pm = PieceManager::new(small_torrent(), true);
        assert!(pm.is_complete());
        assert_eq!(pm.percent_done(), 100.0);
        assert_eq!(pm.bytes_done(), pm.torrent().total_bytes);
        assert!(!pm.in_endgame());
    }

    #[test]
    fn leecher_downloads_whole_file() {
        let t = small_torrent();
        let mut pm = PieceManager::new(t.clone(), false);
        let seeder = Bitfield::full(t.num_pieces());
        pm.add_peer_bitfield(&seeder);
        let mut r = rng();
        let mut done = false;
        let mut received = 0;
        while !done {
            let blocks = pm.pick_blocks(&seeder, 8, SimTime::ZERO, &mut r);
            assert!(
                !blocks.is_empty(),
                "must always find blocks while incomplete"
            );
            for (p, b) in blocks {
                received += 1;
                match pm.block_received(p, b) {
                    BlockOutcome::FileComplete(_) => done = true,
                    BlockOutcome::Duplicate => panic!("unexpected duplicate"),
                    _ => {}
                }
            }
        }
        assert!(pm.is_complete());
        let blocks: u32 = (0..t.num_pieces()).map(|p| t.blocks_in_piece(p)).sum();
        assert_eq!(received, blocks);
        assert_eq!(pm.bytes_done(), t.total_bytes);
    }

    #[test]
    fn rarest_first_prefers_rare_pieces() {
        let t = Torrent::paper_16mb();
        let mut pm = PieceManager::new(t.clone(), false);
        // Pretend we already have several pieces so random-first-piece mode is over.
        for p in 0..RANDOM_FIRST_PIECES {
            for b in 0..t.blocks_in_piece(p) {
                pm.block_received(p, b);
            }
        }
        // Everyone has every piece except piece 10, which only our peer has.
        let common = Bitfield::full(t.num_pieces());
        for _ in 0..10 {
            let mut bf = common.clone();
            bf.clear(10);
            pm.add_peer_bitfield(&bf);
        }
        let peer = Bitfield::full(t.num_pieces());
        pm.add_peer_bitfield(&peer);
        let mut r = rng();
        let picked = pm.pick_blocks(&peer, 4, SimTime::ZERO, &mut r);
        assert!(picked.iter().all(|&(p, _)| p == 10), "picked={picked:?}");
    }

    #[test]
    fn strict_priority_finishes_partial_pieces_first() {
        let t = Torrent::paper_16mb();
        let mut pm = PieceManager::new(t.clone(), false);
        let peer = Bitfield::full(t.num_pieces());
        pm.add_peer_bitfield(&peer);
        // Receive one block of piece 5 without having requested the rest.
        pm.block_received(5, 0);
        let mut r = rng();
        let picked = pm.pick_blocks(&peer, 3, SimTime::ZERO, &mut r);
        assert!(picked.iter().all(|&(p, _)| p == 5), "picked={picked:?}");
        assert!(!picked.contains(&(5, 0)));
    }

    #[test]
    fn duplicate_requests_suppressed_outside_endgame() {
        let t = small_torrent();
        let mut pm = PieceManager::new(t.clone(), false);
        let peer = Bitfield::full(t.num_pieces());
        pm.add_peer_bitfield(&peer);
        let mut r = rng();
        let first = pm.pick_blocks(&peer, 10, SimTime::ZERO, &mut r);
        let second = pm.pick_blocks(&peer, 10, SimTime::ZERO, &mut r);
        for b in &first {
            assert!(
                !second.contains(b),
                "block {b:?} requested twice outside endgame"
            );
        }
    }

    #[test]
    fn endgame_allows_parallel_requests() {
        // Tiny torrent: 2 blocks total.
        let t = Torrent {
            name: "tiny".into(),
            total_bytes: 32 * 1024,
            piece_size: 32 * 1024,
            block_size: 16 * 1024,
        };
        let mut pm = PieceManager::new(t.clone(), false);
        let peer = Bitfield::full(1);
        pm.add_peer_bitfield(&peer);
        let mut r = rng();
        let first = pm.pick_blocks(&peer, 10, SimTime::ZERO, &mut r);
        assert_eq!(first.len(), 2);
        assert!(pm.in_endgame());
        // A second peer can now request the same outstanding blocks.
        let second = pm.pick_blocks(&peer, 10, SimTime::ZERO, &mut r);
        assert_eq!(second.len(), 2);
    }

    #[test]
    fn release_requests_for_disconnected_peer() {
        let t = small_torrent();
        let mut pm = PieceManager::new(t.clone(), false);
        let peer = Bitfield::full(t.num_pieces());
        let mut r = rng();
        let picked = pm.pick_blocks(&peer, 6, SimTime::ZERO, &mut r);
        pm.release_requests(&picked);
        let again = pm.pick_blocks(&peer, 6, SimTime::ZERO, &mut r);
        assert_eq!(picked.len(), again.len());
    }

    #[test]
    fn availability_tracking() {
        let t = small_torrent();
        let mut pm = PieceManager::new(t.clone(), false);
        let mut bf = Bitfield::new(t.num_pieces());
        bf.set(1);
        pm.add_peer_bitfield(&bf);
        pm.add_peer_have(1);
        pm.add_peer_have(2);
        assert_eq!(pm.availability()[1], 2);
        assert_eq!(pm.availability()[2], 1);
        pm.remove_peer_bitfield(&bf);
        assert_eq!(pm.availability()[1], 1);
        assert_eq!(pm.availability()[0], 0);
    }

    #[test]
    fn needs_block_reflects_state() {
        // Still needed: the piece is missing and the block not yet received.
        let needs = |pm: &PieceManager, piece, block| {
            !pm.have.get(piece)
                && pm
                    .partial
                    .get(&piece)
                    .is_none_or(|pp| !pp.received.get(block))
        };
        let t = small_torrent();
        let mut pm = PieceManager::new(t, false);
        assert!(needs(&pm, 0, 0));
        pm.block_received(0, 0);
        assert!(!needs(&pm, 0, 0));
        assert!(needs(&pm, 0, 1));
    }
}
