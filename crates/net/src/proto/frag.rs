//! MTU fragmentation and receive-side reassembly.
//!
//! A message larger than the configured MTU is split into `ceil(size / mtu)` fragments, each
//! carrying an 8-byte fragment header ([`FRAG_HEADER_BYTES`]: message id, fragment index,
//! fragment count, wire sequence) on top of its lane framing. The receive side tracks per-message
//! bitmasks ([`Reassembler`]) and reports completion exactly once per message id — duplicate
//! fragments (conditioner duplication, retransmit races) and malformed headers are ignored, so
//! the layer never delivers a message it was not sent and never delivers one twice.
//!
//! A message's mask is one inline `u64` up to 64 fragments (a 16 KiB block at a 1,500-byte
//! MTU is 11), so opening an assembly allocates nothing beyond its map slot; only a message
//! of more than 64 fragments spills its mask to a heap slice of 64-bit blocks.
//!
//! The [`Reassembler`] keeps its window of completed message ids as sorted, disjoint ranges:
//! a lane's messages complete nearly in order, so it holds about one range, plus one per
//! message still open behind the newest completed one.
//!
//! Incomplete **unreliable-lane** messages are discarded after an idle timeout
//! ([`REASSEMBLY_TIMEOUT`](crate::transport::REASSEMBLY_TIMEOUT)): the transport arms a
//! timer on [`FragOutcome::Pending`]`{ first: true }` carrying a [`progress`](Reassembler::progress)
//! snapshot, and when it fires it re-arms instead of expiring if any fragment arrived in the
//! meantime. Reliable-lane assemblies are exempt from the reaper — their fragments keep being
//! retransmitted until they arrive, and when the sender abandons a fragment (attempts
//! exhausted) the whole message is [`abandon`](Reassembler::abandon)ed at once: partial state
//! dropped, stragglers ignored.

use p2plab_sim::FxHashMap;

/// Bytes of the per-fragment header priced on the wire on top of the lane framing, laid out
/// as four little-endian `u16`s: message (reassembly) id, fragment index, fragment count and
/// wire sequence number (the unit of acknowledgement). The simulation carries these fields in
/// the fragment frame itself and never serialises a header, so only its size is modelled.
pub const FRAG_HEADER_BYTES: u64 = 8;

/// Number of fragments a message of `size` bytes needs at the given MTU (at least 1 — empty
/// messages still travel as one fragment).
///
/// # Panics
///
/// Panics when the count would not fit the 16-bit wire header; the transport's
/// [`MAX_MESSAGE_BYTES`](crate::transport::MAX_MESSAGE_BYTES) bound together with the DSL's MTU
/// floor makes that unreachable in configured scenarios.
pub fn fragment_count(size: u64, mtu: u64) -> u16 {
    let mtu = mtu.max(1);
    let count = size.div_ceil(mtu).max(1);
    u16::try_from(count).expect("message/MTU ratio exceeds the 16-bit fragment count")
}

/// The payload size of fragment `index` of a `size`-byte message split at `mtu`.
pub fn fragment_size(size: u64, mtu: u64, index: u16, count: u16) -> u64 {
    let mtu = mtu.max(1);
    if u32::from(index) + 1 < u32::from(count) {
        mtu
    } else {
        size - mtu * u64::from(count - 1)
    }
}

/// Result of offering one fragment to the [`Reassembler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragOutcome {
    /// The fragment was accepted but the message is still incomplete. `first` is set when this
    /// fragment opened a fresh reassembly entry — the caller schedules the reassembly timeout.
    Pending {
        /// Whether this fragment created the reassembly entry.
        first: bool,
    },
    /// This fragment completed the message: deliver it (exactly once).
    Complete,
    /// Duplicate, stale or malformed fragment; ignored.
    Ignored,
}

/// Received fragment indices of one message: one inline word up to 64 fragments, 64-bit
/// blocks on the heap above that.
#[derive(Debug, Clone)]
enum Mask {
    Inline(u64),
    Spilled(Box<[u64]>),
}

impl Mask {
    fn new(count: u16) -> Mask {
        match count {
            0..=64 => Mask::Inline(0),
            _ => Mask::Spilled(vec![0; usize::from(count).div_ceil(64)].into_boxed_slice()),
        }
    }

    /// Sets the bit of `index`; returns whether it was clear.
    fn insert(&mut self, index: u16) -> bool {
        let word = match self {
            Mask::Inline(word) => word,
            Mask::Spilled(blocks) => &mut blocks[usize::from(index) / 64],
        };
        let bit = 1u64 << (index % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// In-progress reassembly of one message.
#[derive(Debug, Clone)]
struct Entry {
    count: u16,
    received: u16,
    mask: Mask,
}

/// A set of message ids as sorted, disjoint, non-adjacent inclusive ranges `(first, last)`.
/// The order is the plain order of `u16`: ids that run across the `0xFFFF → 0` wrap are two
/// ranges.
#[derive(Debug, Clone, Default)]
struct CompletedIds {
    ranges: Vec<(u16, u16)>,
}

impl CompletedIds {
    /// The index of the first range starting above `id`; the range before it is the only one
    /// that can hold `id`.
    fn after(&self, id: u16) -> usize {
        self.ranges.partition_point(|&(first, _)| first <= id)
    }

    fn contains(&self, id: u16) -> bool {
        let i = self.after(id);
        i > 0 && self.ranges[i - 1].1 >= id
    }

    /// Adds `id`, merging it into the ranges it touches.
    fn insert(&mut self, id: u16) {
        let i = self.after(id);
        if i > 0 && self.ranges[i - 1].1 >= id {
            return;
        }
        // Every range before `i` now ends below `id`, and every range from `i` on starts
        // above it, so neither `id - 1` nor `id + 1` is reached at the ends of `u16`.
        let joins_left = i > 0 && self.ranges[i - 1].1 == id - 1;
        let joins_right = i < self.ranges.len() && self.ranges[i].0 == id + 1;
        match (joins_left, joins_right) {
            (true, true) => {
                self.ranges[i - 1].1 = self.ranges[i].1;
                self.ranges.remove(i);
            }
            (true, false) => self.ranges[i - 1].1 = id,
            (false, true) => self.ranges[i].0 = id,
            (false, false) => self.ranges.insert(i, (id, id)),
        }
    }

    /// Removes `id`, splitting the range that holds it.
    fn remove(&mut self, id: u16) {
        let i = self.after(id);
        if i == 0 || self.ranges[i - 1].1 < id {
            return;
        }
        let (first, last) = self.ranges[i - 1];
        match (first == id, last == id) {
            (true, true) => {
                self.ranges.remove(i - 1);
            }
            (true, false) => self.ranges[i - 1].0 = id + 1,
            (false, true) => self.ranges[i - 1].1 = id - 1,
            (false, false) => {
                self.ranges[i - 1].1 = id - 1;
                self.ranges.insert(i, (id + 1, last));
            }
        }
    }
}

/// Receive-side fragment reassembly for one (connection, direction, lane).
///
/// Tracks per-message bitmasks and a window of completed message ids so duplicates of an
/// already-delivered message are ignored. Completed ids are forgotten half a sequence space
/// (32768 messages) later — long after any duplicate can still be in flight.
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    entries: FxHashMap<u16, Entry>,
    completed: CompletedIds,
}

impl Reassembler {
    /// Offers fragment `index` of message `msg` (which claims `count` fragments total).
    /// Malformed (`count == 0`, `index >= count`), duplicate and inconsistent fragments are
    /// [`FragOutcome::Ignored`].
    pub fn accept(&mut self, msg: u16, index: u16, count: u16) -> FragOutcome {
        if count == 0 || index >= count || self.completed.contains(msg) {
            return FragOutcome::Ignored;
        }
        if count == 1 {
            self.finish(msg);
            return FragOutcome::Complete;
        }
        let (entry, first) = match self.entries.get_mut(&msg) {
            Some(e) => (e, false),
            None => (
                self.entries.entry(msg).or_insert_with(|| Entry {
                    count,
                    received: 0,
                    mask: Mask::new(count),
                }),
                true,
            ),
        };
        if entry.count != count {
            // A fragment disagreeing with the entry's count is corrupt; keep the entry.
            return FragOutcome::Ignored;
        }
        if !entry.mask.insert(index) {
            return FragOutcome::Ignored;
        }
        entry.received += 1;
        if entry.received == entry.count {
            self.entries.remove(&msg);
            self.finish(msg);
            FragOutcome::Complete
        } else {
            FragOutcome::Pending { first }
        }
    }

    /// Expires the reassembly of `msg`: drops its entry if still incomplete. Returns whether
    /// an incomplete entry was discarded (the caller counts a reassembly timeout).
    pub fn expire(&mut self, msg: u16) -> bool {
        self.entries.remove(&msg).is_some()
    }

    /// Marks `msg` as dead: drops its partial assembly and ignores every future fragment of
    /// it. Called when the sender abandons a fragment (retransmission attempts exhausted) — the
    /// message can never complete, and without this the still-retrying sibling fragments would
    /// reopen a permanently incomplete entry. Returns whether the message was newly killed
    /// (`false` when it already completed or was already abandoned), so the caller counts each
    /// abandoned message exactly once.
    pub fn abandon(&mut self, msg: u16) -> bool {
        if self.completed.contains(msg) {
            return false;
        }
        self.entries.remove(&msg);
        self.finish(msg);
        true
    }

    /// Number of messages currently being reassembled.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Fragments received so far for the in-progress message `msg` (`None` once completed,
    /// expired or never seen). The timeout machinery compares snapshots of this to tell a
    /// stalled reassembly from one that is still receiving retransmitted fragments.
    pub fn progress(&self, msg: u16) -> Option<u16> {
        self.entries.get(&msg).map(|e| e.received)
    }

    fn finish(&mut self, msg: u16) {
        self.completed.insert(msg);
        // Forget the id opposite in the sequence space: a completed id is remembered for 32768
        // message generations, bounding the set while leaving no realistic reuse hazard.
        self.completed.remove(msg.wrapping_add(0x8000));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of ids in the set.
    fn len(ids: &CompletedIds) -> usize {
        let span = |&(first, last): &(u16, u16)| usize::from(last - first) + 1;
        ids.ranges.iter().map(span).sum()
    }

    #[test]
    fn fragment_plan_covers_message() {
        for (size, mtu) in [
            (0u64, 1500u64),
            (1, 1500),
            (1500, 1500),
            (1501, 1500),
            (64 * 1024, 1200),
        ] {
            let count = fragment_count(size, mtu);
            let total: u64 = (0..count).map(|i| fragment_size(size, mtu, i, count)).sum();
            assert_eq!(total, size, "size={size} mtu={mtu} count={count}");
            for i in 0..count {
                assert!(fragment_size(size, mtu, i, count) <= mtu);
            }
        }
        assert_eq!(fragment_count(0, 1500), 1);
        assert_eq!(fragment_count(3000, 1500), 2);
        assert_eq!(fragment_count(3001, 1500), 3);
    }

    #[test]
    fn reassembly_completes_once() {
        let mut r = Reassembler::default();
        assert_eq!(r.accept(5, 0, 3), FragOutcome::Pending { first: true });
        assert_eq!(r.accept(5, 2, 3), FragOutcome::Pending { first: false });
        assert_eq!(r.accept(5, 1, 3), FragOutcome::Complete);
        // Any further fragment of the completed message is ignored.
        assert_eq!(r.accept(5, 0, 3), FragOutcome::Ignored);
        assert_eq!(r.accept(5, 1, 3), FragOutcome::Ignored);
        assert!(r.completed.contains(5));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn single_fragment_messages_short_circuit() {
        let mut r = Reassembler::default();
        assert_eq!(r.accept(1, 0, 1), FragOutcome::Complete);
        assert_eq!(r.accept(1, 0, 1), FragOutcome::Ignored);
    }

    #[test]
    fn malformed_fragments_ignored() {
        let mut r = Reassembler::default();
        assert_eq!(r.accept(1, 0, 0), FragOutcome::Ignored);
        assert_eq!(r.accept(1, 3, 3), FragOutcome::Ignored);
        assert_eq!(r.accept(1, u16::MAX, 4), FragOutcome::Ignored);
        // Count mismatch against an open entry.
        assert_eq!(r.accept(2, 0, 4), FragOutcome::Pending { first: true });
        assert_eq!(r.accept(2, 1, 5), FragOutcome::Ignored);
        assert_eq!(r.accept(2, 1, 4), FragOutcome::Pending { first: false });
    }

    #[test]
    fn duplicate_fragment_ignored() {
        let mut r = Reassembler::default();
        assert_eq!(r.accept(9, 0, 2), FragOutcome::Pending { first: true });
        assert_eq!(r.accept(9, 0, 2), FragOutcome::Ignored);
        assert_eq!(r.accept(9, 1, 2), FragOutcome::Complete);
    }

    #[test]
    fn abandoned_messages_ignore_stragglers() {
        let mut r = Reassembler::default();
        r.accept(4, 0, 3);
        assert!(r.abandon(4));
        assert!(!r.abandon(4), "second abandonment is not newly killed");
        // Late sibling fragments must not reopen the dead message.
        assert_eq!(r.accept(4, 1, 3), FragOutcome::Ignored);
        assert_eq!(r.accept(4, 2, 3), FragOutcome::Ignored);
        assert_eq!(r.pending(), 0);
        // Abandoning a message that already completed reports nothing to count.
        assert_eq!(r.accept(9, 0, 1), FragOutcome::Complete);
        assert!(!r.abandon(9));
    }

    #[test]
    fn expiry_discards_incomplete_entries() {
        let mut r = Reassembler::default();
        r.accept(3, 0, 2);
        assert!(r.expire(3));
        assert!(!r.expire(3), "double expiry is a no-op");
        // A straggler reopens the entry (and would get a fresh timeout via first=true).
        assert_eq!(r.accept(3, 1, 2), FragOutcome::Pending { first: true });
        assert_eq!(r.accept(3, 0, 2), FragOutcome::Complete);
        // Expiring a completed message is a no-op.
        assert!(!r.expire(3));
    }

    #[test]
    fn completed_window_is_bounded() {
        let mut r = Reassembler::default();
        // Complete 40000 single-fragment messages with wrapping ids: the completed set must
        // stay at or below half the sequence space.
        for m in 0..40_000u32 {
            assert_eq!(r.accept(m as u16, 0, 1), FragOutcome::Complete);
        }
        assert!(len(&r.completed) <= 0x8000);
        // In-order completions are one range however many ids it holds.
        assert_eq!(r.completed.ranges.len(), 1);
    }

    #[test]
    fn completed_ids_are_ranges() {
        let mut ids = CompletedIds::default();
        for id in [0xFFFD, 0xFFFF, 0, 1, 5, 3] {
            ids.insert(id);
        }
        // Ids across the wrap are two ranges in `u16` order; every gap is a hole.
        assert_eq!(
            ids.ranges,
            [(0, 1), (3, 3), (5, 5), (0xFFFD, 0xFFFD), (0xFFFF, 0xFFFF)]
        );
        for id in [2, 4, 0xFFFE] {
            ids.insert(id);
        }
        assert_eq!(ids.ranges, [(0, 5), (0xFFFD, 0xFFFF)]);
        ids.insert(3);
        assert_eq!(len(&ids), 9, "a present id is not added twice");
        // A removal inside a range splits it; at an edge it shrinks it.
        ids.remove(2);
        assert_eq!(ids.ranges, [(0, 1), (3, 5), (0xFFFD, 0xFFFF)]);
        ids.remove(0xFFFF);
        ids.remove(3);
        ids.remove(7);
        assert_eq!(ids.ranges, [(0, 1), (4, 5), (0xFFFD, 0xFFFE)]);
        assert!(ids.contains(0) && ids.contains(1) && ids.contains(0xFFFE));
        assert!(!ids.contains(2) && !ids.contains(3) && !ids.contains(0xFFFF));
        ids.remove(0);
        ids.remove(1);
        assert_eq!(ids.ranges, [(4, 5), (0xFFFD, 0xFFFE)]);
    }

    #[test]
    fn finishing_an_id_forgets_the_opposite_one() {
        let mut r = Reassembler::default();
        for m in 0x7FFE..=0x8002u16 {
            assert_eq!(r.accept(m, 0, 1), FragOutcome::Complete);
        }
        // Completing id 0 forgets 0x8000, the middle of the completed range.
        assert_eq!(r.accept(0, 0, 1), FragOutcome::Complete);
        assert_eq!(
            r.completed.ranges,
            [(0, 0), (0x7FFE, 0x7FFF), (0x8001, 0x8002)]
        );
        assert_eq!(r.accept(0x8000, 0, 1), FragOutcome::Complete);
        assert_eq!(r.accept(0x8001, 0, 1), FragOutcome::Ignored);
    }

    #[test]
    fn wide_messages_use_multiple_mask_blocks() {
        for count in [64u16, 65, 130] {
            let mut r = Reassembler::default();
            for i in 0..count - 1 {
                assert!(matches!(r.accept(0, i, count), FragOutcome::Pending { .. }));
                assert_eq!(r.accept(0, i, count), FragOutcome::Ignored, "duplicate {i}");
            }
            let spilled = matches!(r.entries[&0].mask, Mask::Spilled(_));
            assert_eq!(spilled, count > 64, "{count} fragments");
            assert_eq!(r.accept(0, count - 1, count), FragOutcome::Complete);
        }
    }
}
