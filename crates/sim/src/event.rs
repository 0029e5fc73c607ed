//! Event queue internals: a slab-backed hierarchical timer wheel.
//!
//! The queue used to be a binary heap keyed on `(time, sequence)` with a lazy-deletion
//! cancellation set. At 10^4–10^5-vnode scale the heap's `O(log n)` sifts, the per-pop hash
//! lookup in the cancellation set and the unbounded tombstone growth dominated the hot path, so
//! the queue is now a **hierarchical timer wheel**:
//!
//! * Payloads live in a **slab** (parallel `payloads` / `seqs` vectors plus a free list). Slots
//!   are reused, so a steady-state simulation performs no allocation per event, and every slot
//!   records the **sequence number** of the event occupying it: cancellation just frees the
//!   slot — `O(1)`, no tombstone set — and the stale timing entry it leaves behind no longer
//!   matches the slot's sequence, so it is skipped when it surfaces.
//! * Timing lives in the **wheel**: [`LEVELS`] levels of 64 buckets, each level covering 64×
//!   the span of the one below (tick = 2^[`TICK_SHIFT`] ns). An entry is bucketed by the
//!   highest 6-bit digit in which its tick differs from the cursor and cascades toward level 0
//!   as the cursor advances. Push ahead of the cursor and cancel are `O(1)` amortized.
//! * Bucket storage is **one shared pool of fixed [`CHUNK`]-entry chunks**: a bucket is a
//!   linked list of chunks, appended at its tail and handed back to the pool's free list as a
//!   cascade drains it, so wheel memory is proportional to the entries pending in the wheel
//!   (at most one partly filled chunk per occupied bucket on top), not to the most a bucket
//!   ever held, as a `Vec` per bucket would keep. A bucket stays in insertion order (FIFO):
//!   entries cascade into the due batch in long presorted runs, which its one sort exploits.
//! * Entries beyond the wheel horizon (≈ 52 days of virtual time — mostly "never" timers at
//!   [`SimTime::MAX`]) wait in a small **overflow heap** ordered by `(time, sequence)` and are
//!   merged in when the cursor approaches them.
//! * The **due set** — everything at or behind the cursor's tick — is two structures whose
//!   earlier head is the next event. `ready` is a batch sorted by `(time, sequence)`
//!   descending: a cursor move (which only happens once the due set is empty) appends the
//!   entries that became due and sorts them once, `O(log n)` amortized per entry, and the pop
//!   is a `Vec::pop`. A push that lands at or behind the cursor afterwards — a same-tick
//!   follow-up, or a shard's incoming envelopes, which arrive *behind* a cursor parked on the
//!   next local event — goes to the back of `ready` if it precedes everything there and
//!   otherwise into the `late` min-heap, `O(log n)` either way, however many entries are due
//!   before it.
//!
//! Determinism is preserved exactly: every push draws or was reserved a global **sequence
//! number**, and the due set pops in `(time, sequence)` order, so two events scheduled for the
//! same instant always execute in the order they were scheduled — the property the
//! reproduction's byte-identity pins rely on, checked against a reference model queue by
//! `tests/prop_engine.rs`.
//!
//! **Ranked pushes** let a fixed series of events hold one slab slot instead of one per event.
//! [`reserve_seqs`](EventQueue::reserve_seqs) sets aside a block of sequence numbers at the
//! point where the whole series would have been pushed, and
//! [`push_ranked`](EventQueue::push_ranked) pushes one member under its reserved number later —
//! typically from the handler of its predecessor, which re-arms the series. The contract: each
//! reserved number is pushed at most once, and before its `(time, sequence)` key comes due
//! (an event that orders before it, such as its predecessor in the series, may push it). Pops
//! then come in the same `(time, sequence)` order, under the same sequence numbers, as if the
//! whole block had been pushed when it was reserved.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the tick length in nanoseconds: one tick = 65536 ns (~65 µs). Sub-tick ordering is
/// handled by the `(time, seq)`-ordered due set, so the tick only bounds bucketing
/// granularity, not timing accuracy — a coarser tick just means fewer cascade hops for the
/// second-scale delays that dominate network scenarios.
const TICK_SHIFT: u32 = 16;
/// log2 of the bucket count per level.
const LEVEL_BITS: u32 = 6;
/// Buckets per level.
const SLOTS_PER_LEVEL: usize = 1 << LEVEL_BITS;
/// Number of wheel levels. Horizon = 64^6 ticks = 2^36 ticks ≈ 52 days of virtual time;
/// longer timers (mostly "never" sentinels) go to the overflow heap.
const LEVELS: usize = 6;
/// Ticks the wheel can represent relative to the cursor.
const HORIZON_BITS: u32 = LEVEL_BITS * LEVELS as u32;
/// Timing entries per bucket chunk.
const CHUNK: usize = 16;
/// End of a chunk list (an empty bucket, the last chunk of a bucket or of the free list).
const NIL: u32 = u32::MAX;

/// Identifier of a scheduled event, usable to cancel it before it fires.
///
/// Internally this is the event's slab slot plus its globally unique sequence number — the
/// sequence doubles as the liveness tag, so a stale id (the event already fired, was
/// cancelled, or the slot was reused) simply fails to cancel. A 64-bit sequence cannot wrap
/// within any realizable run, unlike a per-slot generation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl EventId {
    /// The event's globally unique sequence number (also its FIFO tie-break rank).
    pub fn raw(self) -> u64 {
        self.seq
    }
}

/// A timing entry in the wheel, the due set or the overflow heap. The payload stays in the slab;
/// the entry is a small `Copy` record so bucket moves are cheap.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A fixed block of one bucket's timing entries, linked to the bucket's next chunk (or, while
/// free, to the next free chunk). The header comes first so a chunk is 8 + 16 × 24 bytes.
#[derive(Clone, Copy)]
struct Chunk {
    len: u32,
    next: u32,
    entries: [Entry; CHUNK],
}

const _: () = assert!(std::mem::size_of::<Chunk>() <= 392);

/// Heap wrapper ordering entries as a min-heap on `(time, seq)` (overflow and late heaps).
struct MinEntry(Entry);

impl PartialEq for MinEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl Eq for MinEntry {}
impl Ord for MinEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) surfaces first.
        other.0.key().cmp(&self.0.key())
    }
}
impl PartialOrd for MinEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A cancellable priority queue of timed events (timer wheel + slab, see the module docs).
pub struct EventQueue<E> {
    /// Payload slab; index = [`EventId::slot`]. Kept parallel to `seqs` so the frequent
    /// liveness probes (stale-entry checks during cascading) touch a dense array instead of
    /// striding over fat payload slots.
    payloads: Vec<Option<E>>,
    /// Sequence number of the event currently occupying each slot (`u64::MAX` = free). Stale
    /// wheel entries and ids are detected by comparing against it.
    seqs: Vec<u64>,
    /// Free slab slots awaiting reuse.
    free: Vec<u32>,
    /// First chunk of each of the `LEVELS * 64` buckets, level-major ([`NIL`] = empty).
    heads: Vec<u32>,
    /// Last chunk of each bucket, where pushes append.
    tails: Vec<u32>,
    /// The chunk pool every bucket draws from.
    chunks: Vec<Chunk>,
    /// Head of the free-chunk list, linked through [`Chunk::next`].
    free_chunk: u32,
    /// One occupancy bit per bucket, per level.
    occupied: [u64; LEVELS],
    /// The batch of entries that became due when the cursor last moved, sorted by
    /// `(time, seq)` **descending** so the next one pops from the back in `O(1)`.
    ready: Vec<Entry>,
    /// Entries pushed at or behind the cursor that do not precede all of `ready`. The next
    /// event is the earlier of this heap's head and `ready`'s back.
    late: BinaryHeap<MinEntry>,
    /// Entries beyond the wheel horizon.
    overflow: BinaryHeap<MinEntry>,
    /// Current wheel position, in ticks. No wheel entry has `tick < cursor`.
    cursor: u64,
    /// Next global sequence number (the FIFO tie-breaker).
    next_seq: u64,
    /// Live (scheduled, not cancelled, not fired) events.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

fn tick_of(time: SimTime) -> u64 {
    time.as_nanos() >> TICK_SHIFT
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            payloads: Vec::new(),
            seqs: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; LEVELS * SLOTS_PER_LEVEL],
            tails: vec![NIL; LEVELS * SLOTS_PER_LEVEL],
            chunks: Vec::new(),
            free_chunk: NIL,
            occupied: [0; LEVELS],
            ready: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            next_seq: 0,
            live: 0,
        }
    }

    /// Number of live (not cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Reserves `n` consecutive sequence numbers for [`push_ranked`](Self::push_ranked) and
    /// returns the first: later pushes draw theirs after the block.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `payload` at absolute time `time` and returns its id.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_ranked(time, seq, payload)
    }

    /// Schedules `payload` at absolute time `time` under a sequence number `seq` taken from a
    /// block [`reserve_seqs`](Self::reserve_seqs) handed out, and returns its id. Each reserved
    /// number is pushed at most once (see the module docs for the ordering this keeps).
    // Forced: the one push body, so `push` costs what it did before ranks existed.
    #[inline(always)]
    pub fn push_ranked(&mut self, time: SimTime, seq: u64, payload: E) -> EventId {
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        let slot = match self.free.pop() {
            Some(i) => {
                debug_assert!(self.payloads[i as usize].is_none());
                self.payloads[i as usize] = Some(payload);
                self.seqs[i as usize] = seq;
                i
            }
            None => {
                let i = self.payloads.len() as u32;
                self.payloads.push(Some(payload));
                self.seqs.push(seq);
                i
            }
        };
        self.live += 1;
        let entry = Entry { time, seq, slot };
        if !self.place_ahead(entry) {
            // Due on arrival. Behind everything in `ready` keeps the batch sorted; anything
            // else would have to be inserted into it, which is what the late heap is for.
            match self.ready.last() {
                Some(next) if next.key() < entry.key() => self.late.push(MinEntry(entry)),
                _ => self.ready.push(entry),
            }
        }
        EventId { seq, slot }
    }

    /// Cancels a previously scheduled event. Returns true if the event was still pending.
    ///
    /// This is `O(1)`: the payload slot is freed and stops carrying the id's sequence number,
    /// so the timing entry left behind (in the wheel, the due set or the overflow heap) no
    /// longer matches it and is skipped when it surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let index = id.slot as usize;
        match (self.seqs.get(index), self.payloads.get_mut(index)) {
            (Some(&seq), Some(payload)) if seq == id.seq && payload.is_some() => {
                *payload = None;
                self.seqs[index] = u64::MAX;
                self.free.push(id.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.advance();
        self.due_head().map(|(e, _)| e.time)
    }

    /// Removes and returns the next live event as `(time, id, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Removes and returns the next live event only if it is due at or before `deadline` —
    /// the run loop's fused peek-and-pop (a separate peek would cascade the wheel twice per
    /// event).
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, EventId, E)> {
        self.advance();
        let (entry, from_late) = self.due_head()?;
        if entry.time > deadline {
            return None;
        }
        Some(self.take_due(entry, from_late))
    }

    /// The next entry of the (already advanced) due set — the earlier of `ready`'s back and
    /// the late heap's head — and whether it is the late heap's.
    fn due_head(&self) -> Option<(Entry, bool)> {
        let ready = self.ready.last().copied();
        match self.late.peek() {
            None => ready.map(|e| (e, false)),
            Some(&MinEntry(late)) => match ready {
                Some(e) if e.key() < late.key() => Some((e, false)),
                _ => Some((late, true)),
            },
        }
    }

    /// Removes the entry [`due_head`](Self::due_head) returned and hands out its payload.
    fn take_due(&mut self, entry: Entry, from_late: bool) -> (SimTime, EventId, E) {
        if from_late {
            self.late.pop();
        } else {
            self.ready.pop();
        }
        debug_assert_eq!(self.seqs[entry.slot as usize], entry.seq);
        let payload = self.payloads[entry.slot as usize]
            .take()
            .expect("live entry has a payload");
        self.seqs[entry.slot as usize] = u64::MAX;
        self.free.push(entry.slot);
        self.live -= 1;
        (
            entry.time,
            EventId {
                seq: entry.seq,
                slot: entry.slot,
            },
            payload,
        )
    }

    /// True if the entry still refers to a live slot. Touches only the dense sequence array.
    fn is_live(&self, e: &Entry) -> bool {
        self.seqs[e.slot as usize] == e.seq
    }

    /// Files a timing entry ahead of the cursor — into a wheel bucket or the overflow heap,
    /// according to its distance — and returns true; returns false, filing nothing, if the
    /// entry is already due (its tick is at or behind the cursor).
    // Forced: the hot path of `push` and of every cascade, which rustc declines to inline on
    // its own since a bucket append can take a chunk (≈ 25 % on the queue's hold model).
    #[inline(always)]
    fn place_ahead(&mut self, entry: Entry) -> bool {
        let t = tick_of(entry.time);
        if t <= self.cursor {
            return false;
        }
        let diff = t ^ self.cursor;
        let highest_bit = 63 - diff.leading_zeros();
        if highest_bit >= HORIZON_BITS {
            // Beyond the wheel horizon (or a rotation carry at the top level): the overflow
            // heap holds it until the cursor gets close.
            self.overflow.push(MinEntry(entry));
            return true;
        }
        let level = (highest_bit / LEVEL_BITS) as usize;
        let slot = ((t >> (LEVEL_BITS * level as u32)) & (SLOTS_PER_LEVEL as u64 - 1)) as usize;
        let bucket = level * SLOTS_PER_LEVEL + slot;
        let mut tail = self.tails[bucket];
        if tail == NIL || self.chunks[tail as usize].len as usize == CHUNK {
            let fresh = self.alloc_chunk();
            if tail == NIL {
                self.heads[bucket] = fresh;
            } else {
                self.chunks[tail as usize].next = fresh;
            }
            self.tails[bucket] = fresh;
            tail = fresh;
        }
        let chunk = &mut self.chunks[tail as usize];
        chunk.entries[chunk.len as usize] = entry;
        chunk.len += 1;
        self.occupied[level] |= 1 << slot;
        true
    }

    /// An empty, unlinked chunk: the head of the free list, or a new one.
    fn alloc_chunk(&mut self) -> u32 {
        if self.free_chunk == NIL {
            return self.grow_chunks();
        }
        let index = self.free_chunk;
        let chunk = &mut self.chunks[index as usize];
        self.free_chunk = chunk.next;
        chunk.len = 0;
        chunk.next = NIL;
        index
    }

    /// Appends an empty chunk to the pool, which happens only when every chunk is in use; out
    /// of line so the inlined append stays small.
    #[cold]
    #[inline(never)]
    fn grow_chunks(&mut self) -> u32 {
        self.chunks.push(Chunk {
            len: 0,
            next: NIL,
            entries: [Entry {
                time: SimTime::ZERO,
                seq: 0,
                slot: 0,
            }; CHUNK],
        });
        (self.chunks.len() - 1) as u32
    }

    /// Ensures both heads of the due set are live (so the earlier one is the next event),
    /// cascading wheel buckets and merging due overflow entries when the due set runs empty.
    fn advance(&mut self) {
        loop {
            // Skip stale (cancelled) entries at both consumption ends.
            while let Some(&e) = self.ready.last() {
                if self.is_live(&e) {
                    break;
                }
                self.ready.pop();
            }
            while let Some(&MinEntry(e)) = self.late.peek() {
                if self.is_live(&e) {
                    break;
                }
                self.late.pop();
            }
            if !self.ready.is_empty() || !self.late.is_empty() || self.live == 0 {
                // With nothing live anywhere, stale bookkeeping is dropped lazily as it
                // surfaces.
                return;
            }
            // Advance the cursor to the earliest pending position: the lowest occupied wheel
            // level always holds the earliest bucket (level-l candidates start strictly after
            // every level-(l-1) candidate by construction), compared against the overflow head.
            let wheel = self.next_wheel_candidate();
            let overflow = self.next_overflow_tick();
            let target = match (wheel, overflow) {
                (Some(w), Some(o)) => w.min(o),
                (Some(w), None) => w,
                (None, Some(o)) => o,
                (None, None) => {
                    debug_assert_eq!(self.live, 0, "live events but nothing scheduled");
                    return;
                }
            };
            debug_assert!(target > self.cursor, "cursor must move forward");
            self.cursor = target;
            // Entering a bucket's range obliges us to cascade it, whatever moved the cursor
            // there — a wheel candidate (its own bucket) or an overflow entry that is due
            // inside a coarser bucket's span.
            self.cascade_entered_buckets();
            self.merge_due_overflow();
            // The due set was empty, so `ready` holds exactly what the cursor move appended,
            // in bucket order: one sort restores `(time, seq)` order for the whole batch.
            self.ready
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        }
    }

    /// Range-start tick of the earliest occupied wheel bucket strictly ahead of the cursor.
    fn next_wheel_candidate(&self) -> Option<u64> {
        for level in 0..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            let digit = (self.cursor >> shift) & (SLOTS_PER_LEVEL as u64 - 1);
            // Occupied slots at this level are strictly ahead of the cursor's digit: buckets at
            // or behind it were cascaded when the cursor entered their range.
            let ahead = self.occupied[level] & !((1u64 << digit) | ((1u64 << digit) - 1));
            if ahead != 0 {
                let slot = ahead.trailing_zeros() as u64;
                // Range start: cursor's digits above this level, the found slot at this level,
                // zeros below.
                let above_mask = !(((1u64 << LEVEL_BITS) << shift) - 1);
                return Some((self.cursor & above_mask) | (slot << shift));
            }
        }
        None
    }

    /// Tick of the earliest live overflow entry, discarding stale heads.
    fn next_overflow_tick(&mut self) -> Option<u64> {
        while let Some(&MinEntry(e)) = self.overflow.peek() {
            if self.is_live(&e) {
                return Some(tick_of(e.time));
            }
            self.overflow.pop();
        }
        None
    }

    /// Cascades every bucket whose range the cursor now lies in, from the coarsest level down
    /// (entries re-placed from level `l` can land in the cursor's bucket at a level below `l`,
    /// which the next iteration then picks up). Entries whose tick equals the cursor are
    /// appended to `ready`, which the caller sorts, so cascade order does not matter.
    fn cascade_entered_buckets(&mut self) {
        for level in (0..LEVELS).rev() {
            let shift = LEVEL_BITS * level as u32;
            let digit = ((self.cursor >> shift) & (SLOTS_PER_LEVEL as u64 - 1)) as usize;
            if self.occupied[level] & (1u64 << digit) != 0 {
                self.drain_bucket(level, digit);
            }
        }
    }

    /// Empties a bucket, re-placing its live entries relative to the current cursor (the due
    /// ones at the back of `ready`, unsorted, in push order) and dropping stale (cancelled)
    /// ones. Each chunk goes back to the free list as soon as it has been read, so the entries
    /// re-placed from the rest of the bucket can reuse it.
    fn drain_bucket(&mut self, level: usize, slot: usize) {
        let bucket = level * SLOTS_PER_LEVEL + slot;
        self.occupied[level] &= !(1u64 << slot);
        let mut next = std::mem::replace(&mut self.heads[bucket], NIL);
        self.tails[bucket] = NIL;
        while next != NIL {
            // Detached from the bucket and not yet free, so re-placing cannot write to it.
            let chunk = next as usize;
            for i in 0..self.chunks[chunk].len as usize {
                let entry = self.chunks[chunk].entries[i];
                if self.is_live(&entry) && !self.place_ahead(entry) {
                    self.ready.push(entry);
                }
            }
            next = std::mem::replace(&mut self.chunks[chunk].next, self.free_chunk);
            self.free_chunk = chunk as u32;
        }
    }

    /// Moves overflow entries that are now due (tick ≤ cursor) to the back of `ready`, unsorted.
    fn merge_due_overflow(&mut self) {
        while let Some(&MinEntry(e)) = self.overflow.peek() {
            if !self.is_live(&e) {
                self.overflow.pop();
                continue;
            }
            if tick_of(e.time) > self.cursor {
                break;
            }
            self.overflow.pop();
            self.ready.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 1);
        q.push(t, 2);
        q.push(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn sub_tick_times_pop_in_time_order() {
        // Distinct times within one wheel tick (65536 ns) must still order by time, not seq.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(700), "late");
        q.push(SimTime::from_nanos(5), "early");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["early", "late"]);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId { seq: 0, slot: 42 }));
    }

    #[test]
    fn cancelled_slot_is_reused_without_id_confusion() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        assert!(q.cancel(a));
        // The slot is reused for the next push, but the old id must stay dead.
        let b = q.push(SimTime::from_secs(2), "b");
        assert_eq!(a.slot, b.slot, "slot should be reused");
        assert!(!q.cancel(a), "stale id must not cancel the new event");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn far_future_events_go_through_overflow() {
        let mut q = EventQueue::new();
        // Beyond the wheel horizon (2^36 ticks ≈ 52 days), including the "never" sentinel.
        q.push(SimTime::MAX, "never");
        q.push(SimTime::from_secs(5_000_000), "far");
        assert_eq!(q.overflow.len(), 2);
        q.push(SimTime::from_secs(1), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["near", "far", "never"]);
    }

    #[test]
    fn overflow_ties_with_wheel_respect_seq_order() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(5_000_000);
        q.push(far, "via-overflow"); // seq 0, beyond the horizon at cursor 0
        assert_eq!(q.overflow.len(), 1);
        // Pop an earlier event to advance the cursor until `far` is within the horizon...
        q.push(SimTime::from_secs(4_600_000), "advance");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("advance"));
        // ...then schedule a second event for the same instant; it lands in the wheel but has
        // a larger seq, so the overflow entry must still pop first.
        q.push(far, "via-wheel"); // seq 2
        assert_eq!(q.overflow.len(), 1, "the second push must take the wheel");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["via-overflow", "via-wheel"]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(30), 3);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(1));
        // Pushed after a pop, due before the remaining event.
        q.push(SimTime::from_millis(20), 2);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(2));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(3));
    }

    #[test]
    fn pushes_behind_a_parked_cursor_pop_in_time_then_seq_order() {
        // The shard loop's pattern: the last `pop_due` of a window parks the cursor on the next
        // local event, far ahead, and the barrier then delivers a window of envelopes behind
        // it, in ascending time with repeated instants.
        let mut q = EventQueue::new();
        let far = SimTime::from_millis(990);
        q.push(far, usize::MAX);
        assert_eq!(q.peek_time(), Some(far));
        assert!(q.cursor > 0, "peek_time parks the cursor on the far event");

        let n = 1_000;
        let time_of = |i: usize| SimTime::from_micros(10 + (i / 4) as u64);
        let ids: Vec<_> = (0..n).map(|i| q.push(time_of(i), i)).collect();
        let cancelled = |i: usize| i % 7 == 3;
        for (i, &id) in ids.iter().enumerate() {
            if cancelled(i) {
                assert!(q.cancel(id));
            }
        }
        let survivors: Vec<usize> = (0..n).filter(|&i| !cancelled(i)).collect();
        assert_eq!(q.len(), survivors.len() + 1);
        assert_eq!(q.peek_time(), Some(time_of(0)));

        // Payload order is push order, so ascending payloads are `(time, seq)` order and FIFO
        // within each four-event instant; a cancelled entry never surfaces.
        for (left, &want) in survivors.iter().enumerate() {
            // An earlier event scheduled mid-drain (new minimum) jumps the queue.
            if left == survivors.len() / 2 {
                q.push(time_of(0), n);
                assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((time_of(0), n)));
            }
            let (t, _, p) = q.pop_due(far).expect("a survivor is due");
            assert_eq!((t, p), (time_of(want), want));
            assert_eq!(q.len(), survivors.len() - left);
        }
        assert_eq!(q.pop_due(SimTime::from_millis(989)), None);
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((far, usize::MAX)));
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|(_, _, p)| p), None);
    }

    #[test]
    fn slab_reuses_slots_across_pops() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.push(SimTime::from_millis(round), round);
            let (_, _, p) = q.pop().unwrap();
            assert_eq!(p, round);
        }
        assert!(
            q.payloads.len() <= 2,
            "steady-state push/pop must reuse slots, got {}",
            q.payloads.len()
        );
    }

    #[test]
    fn wheel_storage_follows_pending_entries() {
        // Each round files 10,000 entries about a second ahead, into a level-2 bucket the
        // cursor has moved on to, and cascades them down through level 1 to the due set. A
        // bucket that kept its largest load would hold on to it after draining; pooled chunks
        // are reused round after round.
        let mut q = EventQueue::new();
        let n = 10_000u64;
        let mut now = SimTime::ZERO;
        for _ in 0..64 {
            let base = now + SimDuration::from_secs(1);
            for i in 0..n {
                q.push(base + SimDuration::from_micros(7 * (n - i)), i);
            }
            let mut popped = 0;
            let mut last = SimTime::ZERO;
            while let Some((t, _, _)) = q.pop() {
                assert!(t >= last);
                last = t;
                popped += 1;
            }
            assert_eq!(popped, n);
            now = last;
            assert!(
                q.chunks.len() <= (n as usize).div_ceil(CHUNK) + LEVELS * SLOTS_PER_LEVEL,
                "{} chunks for {n} pending entries",
                q.chunks.len()
            );
        }
    }

    #[test]
    fn a_bucket_drains_in_insertion_order() {
        // 100 entries in one level-1 bucket (several chunks), all due within its first tick
        // and pushed latest-first: the drain appends them to `ready` in push order, not time
        // order, for the batch sort to put right.
        let mut q = EventQueue::new();
        let tick = 3 * SLOTS_PER_LEVEL as u64;
        let start = SimTime::from_nanos(tick << TICK_SHIFT);
        for i in 0..100u64 {
            q.push(start + SimDuration::from_nanos(100 - i), i);
        }
        assert_eq!(q.occupied[1], 1 << 3);
        q.cursor = tick;
        q.drain_bucket(1, 3);
        let seqs: Vec<u64> = q.ready.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
        assert_eq!(q.occupied, [0; LEVELS]);
        assert_eq!(q.heads[SLOTS_PER_LEVEL + 3], NIL);
        // Every chunk the bucket used is back on the free list.
        let mut free = 0;
        let mut next = q.free_chunk;
        while next != NIL {
            free += 1;
            next = q.chunks[next as usize].next;
        }
        assert_eq!(free, q.chunks.len());
        assert_eq!(free, 100usize.div_ceil(CHUNK));
    }

    #[test]
    fn a_ranked_chain_holds_one_slot() {
        // A 10,000-long series pushed one member at a time, each when its predecessor pops,
        // pops under the numbers reserved for it and never holds a second slab slot.
        let mut q = EventQueue::new();
        let n = 10_000u64;
        let first = q.reserve_seqs(n);
        q.push_ranked(SimTime::ZERO, first, 0);
        for k in 0..n {
            let (t, id, p) = q.pop().expect("the chain is pending");
            assert_eq!((t, id.raw(), p), (SimTime::from_millis(k), first + k, k));
            if k + 1 < n {
                q.push_ranked(SimTime::from_millis(k + 1), first + k + 1, k + 1);
            }
            assert_eq!(q.payloads.len(), 1);
        }
        assert!(q.is_empty());
        let next = q.push(SimTime::ZERO, n);
        assert_eq!(
            next.raw(),
            first + n,
            "pushes draw after the reserved block"
        );
    }
}
