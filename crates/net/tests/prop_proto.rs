//! Property-based tests of the protocol-depth layer: the ack-bitfield wire round-trip,
//! fragment-plan arithmetic, the reassembler/ack-tracker invariants under
//! arbitrary (including adversarial) input sequences, and the sender window and reassembler
//! against reference twins that store everything they are given.

#![allow(
    clippy::disallowed_types,
    reason = "std collections model the implementation under test"
)]

use p2plab_net::proto::{
    fragment_count, fragment_size, seq_newer, AckBitfield, AckTracker, FragOutcome, Reassembler,
    SentWindow,
};
use p2plab_sim::{SimRng, SimTime};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

/// One send in the [`ReferenceSentWindow`], acknowledged or not.
struct ReferenceEntry {
    seq: u16,
    wire_bytes: u64,
    sent_at: SimTime,
    acked: bool,
    retransmitted: bool,
}

/// The sender window written out in full: every send is kept, acknowledged or not, until the
/// acknowledged prefix is dropped or the 4,096-entry cap evicts the front; an ack scans every
/// entry.
#[derive(Default)]
struct ReferenceSentWindow {
    entries: VecDeque<ReferenceEntry>,
}

impl ReferenceSentWindow {
    fn on_sent(&mut self, seq: u16, wire_bytes: u64, sent_at: SimTime) {
        if self.entries.len() >= 4096 {
            self.entries.pop_front();
        }
        self.entries.push_back(ReferenceEntry {
            seq,
            wire_bytes,
            sent_at,
            acked: false,
            retransmitted: false,
        });
    }

    fn mark_retransmitted(&mut self, seq: u16) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.seq == seq) {
            entry.retransmitted = true;
        }
    }

    fn on_ack(&mut self, field: &AckBitfield, mut on_acked: impl FnMut(u64, Option<SimTime>)) {
        for entry in self.entries.iter_mut() {
            if !entry.acked && field.contains(entry.seq) {
                entry.acked = true;
                on_acked(
                    entry.wire_bytes,
                    (!entry.retransmitted).then_some(entry.sent_at),
                );
            }
        }
        while self.entries.front().is_some_and(|e| e.acked) {
            self.entries.pop_front();
        }
    }
}

/// The reassembler written out in full: a heap mask of 64-bit blocks per open message.
#[derive(Default)]
struct ReferenceReassembler {
    entries: HashMap<u16, (u16, u16, Vec<u64>)>,
    completed: HashSet<u16>,
}

impl ReferenceReassembler {
    fn accept(&mut self, msg: u16, index: u16, count: u16) -> FragOutcome {
        if count == 0 || index >= count || self.completed.contains(&msg) {
            return FragOutcome::Ignored;
        }
        if count == 1 {
            self.finish(msg);
            return FragOutcome::Complete;
        }
        let first = !self.entries.contains_key(&msg);
        let (entry_count, received, mask) = self
            .entries
            .entry(msg)
            .or_insert_with(|| (count, 0, vec![0; usize::from(count).div_ceil(64)]));
        if *entry_count != count {
            return FragOutcome::Ignored;
        }
        let (block, bit) = (usize::from(index) / 64, u64::from(index) % 64);
        if mask[block] & (1u64 << bit) != 0 {
            return FragOutcome::Ignored;
        }
        mask[block] |= 1u64 << bit;
        *received += 1;
        if *received == count {
            self.entries.remove(&msg);
            self.finish(msg);
            FragOutcome::Complete
        } else {
            FragOutcome::Pending { first }
        }
    }

    fn expire(&mut self, msg: u16) -> bool {
        self.entries.remove(&msg).is_some()
    }

    fn abandon(&mut self, msg: u16) -> bool {
        if self.completed.contains(&msg) {
            return false;
        }
        self.entries.remove(&msg);
        self.finish(msg);
        true
    }

    fn progress(&self, msg: u16) -> Option<u16> {
        self.entries.get(&msg).map(|e| e.1)
    }

    fn finish(&mut self, msg: u16) {
        self.completed.insert(msg);
        self.completed.remove(&msg.wrapping_add(0x8000));
    }
}

fn any_u16(rng: &mut SimRng) -> u16 {
    rng.gen_range(0..=u32::from(u16::MAX)) as u16
}

/// Runs a [`SentWindow`] and its [`ReferenceSentWindow`] twin through `sends` random sends
/// interleaved with retransmit marks and acks, and asserts that every ack makes the same
/// `(wire_bytes, sent_at)` callbacks in the same order on both.
///
/// Sequence numbers start anywhere (so some runs wrap), mostly ascend, and are sometimes held
/// back and sent later or skipped. A lossy receiver takes in-flight fragments in random order
/// and builds its bitfields with an [`AckTracker`]; the sender gets the newest of them, a
/// stale one, none for a while, or a bitfield around an arbitrary earlier send (which may be
/// acknowledged or evicted by then). Retransmit marks name fragments in flight, fragments
/// sent long ago and arbitrary sequences. Past 4,096 sends the cap evicts fronts that are
/// acknowledged as well as ones that are not; a final sweep acknowledges every send the twin
/// may still hold.
fn window_matches_its_twin(seed: u64, sends: usize) {
    let mut rng = SimRng::new(seed);
    let (mut window, mut twin) = (SentWindow::default(), ReferenceSentWindow::default());
    let mut receiver = AckTracker::default();
    let loss = rng.gen_range(0.0..0.4);
    let mut next_seq = any_u16(&mut rng);
    let (mut held, mut history, mut in_flight, mut fields) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let ack = |window: &mut SentWindow, twin: &mut ReferenceSentWindow, field, sent| {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        window.on_ack(&field, |bytes, at| got.push((bytes, at)));
        twin.on_ack(&field, |bytes, at| want.push((bytes, at)));
        assert_eq!(got, want, "seed {seed}: {field:?} after {sent} sends");
    };
    let mut now = 0;
    while history.len() < sends {
        now += 1;
        match rng.gen_range(0..100u32) {
            0..=44 => {
                let seq = if !held.is_empty() && rng.chance(0.3) {
                    held.swap_remove(rng.gen_range(0..held.len()))
                } else {
                    loop {
                        let seq = next_seq;
                        next_seq = next_seq.wrapping_add(1);
                        if rng.chance(0.04) {
                            held.push(seq);
                        } else if !rng.chance(0.02) {
                            break seq;
                        }
                    }
                };
                let bytes = rng.gen_range(1..3_000u64);
                let at = SimTime::from_nanos(now);
                window.on_sent(seq, bytes, at);
                twin.on_sent(seq, bytes, at);
                history.push(seq);
                in_flight.push(seq);
            }
            45..=54 => {
                let seq = match rng.gen_range(0..4u32) {
                    0 if !in_flight.is_empty() => in_flight[rng.gen_range(0..in_flight.len())],
                    1 | 2 if !history.is_empty() => history[rng.gen_range(0..history.len())],
                    _ => any_u16(&mut rng),
                };
                window.mark_retransmitted(seq);
                twin.mark_retransmitted(seq);
                if rng.chance(0.5) {
                    in_flight.push(seq);
                }
            }
            55..=84 if !in_flight.is_empty() => {
                let seq = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
                if !rng.chance(loss) {
                    receiver.record(seq);
                    fields.push(receiver.bitfield());
                }
            }
            85..=96 if !fields.is_empty() => {
                let field = match rng.gen_range(0..10u32) {
                    6 | 7 => fields[rng.gen_range(0..fields.len())],
                    8 | 9 if !history.is_empty() => AckBitfield {
                        latest: history[rng.gen_range(0..history.len())],
                        bits: rng.gen_range(0..=u64::from(u32::MAX)) as u32,
                    },
                    _ => fields[fields.len() - 1],
                };
                ack(&mut window, &mut twin, field, history.len());
            }
            _ => {}
        }
    }
    for &latest in history.iter().rev().take(4_200) {
        let field = AckBitfield {
            latest,
            bits: u32::MAX,
        };
        ack(&mut window, &mut twin, field, history.len());
    }
}

/// Runs a [`Reassembler`] and its [`ReferenceReassembler`] twin through 1,000 random calls
/// and asserts equal answers, then sweeps every id the run named. Message ids drift upward
/// from an arbitrary start — half the runs start just below `0xFFFF`, so their ids cross the
/// wrap to 0 — with eight open at once, so completions and abandonments come out of order and
/// leave holes. One call in ten names the id opposite in the sequence space: finishing it
/// forgets an id from the middle of a completed run. Counts lie on both sides of 64, indices
/// are mostly valid, and some fragments are malformed or disagree on the count.
fn reassembler_matches_its_twin(seed: u64) {
    let mut rng = SimRng::new(seed);
    let (mut r, mut twin) = (Reassembler::default(), ReferenceReassembler::default());
    let counts: Vec<u16> = (0..6)
        .map(|_| match rng.gen_range(0..5u32) {
            0 | 1 => rng.gen_range(1..=3u32) as u16,
            2 => rng.gen_range(60..=64u32) as u16,
            3 => rng.gen_range(65..=70u32) as u16,
            _ => rng.gen_range(2..=200u32) as u16,
        })
        .collect();
    let start = if rng.chance(0.5) {
        u16::MAX - rng.gen_range(0..64u32) as u16
    } else {
        any_u16(&mut rng)
    };
    let mut cursor = 0u16;
    for step in 0..1_000 {
        cursor += u16::from(rng.chance(0.2));
        let opposite = if rng.chance(0.1) { 0x8000 } else { 0 };
        let msg = (start.wrapping_add(cursor))
            .wrapping_add(rng.gen_range(0..8u32) as u16)
            .wrapping_add(opposite);
        let slot = usize::from(msg) % counts.len();
        let what = format!("seed {seed} step {step} msg {msg}");
        match rng.gen_range(0..100u32) {
            0..=84 => {
                let mut count = counts[slot];
                if rng.chance(0.03) {
                    count = rng.gen_range(0..=200u32) as u16;
                }
                let index = if rng.chance(0.03) {
                    count.saturating_add(rng.gen_range(0..3u32) as u16)
                } else {
                    rng.gen_range(0..u32::from(count.max(1))) as u16
                };
                let want = twin.accept(msg, index, count);
                assert_eq!(r.accept(msg, index, count), want, "{what}: {index}/{count}");
            }
            85..=89 => assert_eq!(r.expire(msg), twin.expire(msg), "{what}: expire"),
            90..=92 => assert_eq!(r.abandon(msg), twin.abandon(msg), "{what}: abandon"),
            _ => {}
        }
        assert_eq!(r.progress(msg), twin.progress(msg), "{what}: progress");
        assert_eq!(r.pending(), twin.entries.len(), "{what}: pending");
    }
    // Abandoning reports whether an id had completed, so the sweep reads the completed set.
    for offset in 0..cursor + 8 {
        for opposite in [0, 0x8000] {
            let msg = start.wrapping_add(offset).wrapping_add(opposite);
            assert_eq!(
                r.abandon(msg),
                twin.abandon(msg),
                "seed {seed}: sweep {msg}"
            );
        }
    }
}

proptest! {
    /// Ack bitfields survive an encode → decode round-trip for every field value.
    #[test]
    fn ack_bitfield_roundtrip(latest in any::<u16>(), bits in any::<u32>()) {
        let a = AckBitfield { latest, bits };
        prop_assert_eq!(AckBitfield::decode(a.encode()), a);
    }

    /// Sequence comparison is an antisymmetric total order on any window smaller than half the
    /// sequence space.
    #[test]
    fn seq_newer_is_antisymmetric(a in any::<u16>(), delta in 1u16..0x8000) {
        let b = a.wrapping_add(delta);
        prop_assert!(seq_newer(b, a));
        prop_assert!(!seq_newer(a, b));
        prop_assert!(!seq_newer(a, a));
    }

    /// A fragment plan covers the message exactly: fragment sizes sum to the message size,
    /// every fragment fits the MTU, and only the last fragment may be short.
    #[test]
    fn fragment_plan_covers_message(size in 1u64..1_000_000, mtu in 1u64..20_000) {
        let count = fragment_count(size, mtu);
        let sizes: Vec<u64> = (0..count).map(|i| fragment_size(size, mtu, i, count)).collect();
        prop_assert_eq!(sizes.iter().sum::<u64>(), size);
        for (i, &s) in sizes.iter().enumerate() {
            prop_assert!(s <= mtu, "fragment {i} of {count} is {s} > mtu {mtu}");
            if i + 1 < sizes.len() {
                prop_assert_eq!(s, mtu, "only the last fragment may be short");
            } else {
                prop_assert!(s > 0, "empty trailing fragment");
            }
        }
    }

    /// The reassembler fed arbitrary fragment triples never panics, completes each message at
    /// most once, and only completes a message after seeing all of its fragment indices.
    #[test]
    fn reassembler_never_panics_and_completes_at_most_once(
        frags in prop::collection::vec((0u16..64, any::<u16>(), 0u16..40), 1..400),
    ) {
        let mut r = Reassembler::default();
        let mut completed = std::collections::HashSet::new();
        let mut seen: std::collections::HashMap<u16, std::collections::HashSet<u16>> =
            std::collections::HashMap::new();
        for (msg, index, count) in frags {
            match r.accept(msg, index, count) {
                FragOutcome::Complete => {
                    // Exactly-once: a message never completes twice (msg ids stay far below
                    // the 0x8000 forgetting window here, so no legitimate re-completion).
                    prop_assert!(completed.insert(msg), "message {msg} completed twice");
                    seen.entry(msg).or_default().insert(index);
                    // Completion requires every index 0..count to have been accepted.
                    let got = &seen[&msg];
                    prop_assert!(count >= 1 && (0..count).all(|i| got.contains(&i)),
                        "message {msg} completed with indices {got:?} of count {count}");
                }
                FragOutcome::Pending { .. } => {
                    seen.entry(msg).or_default().insert(index);
                    prop_assert!(!completed.contains(&msg));
                }
                FragOutcome::Ignored => {}
            }
        }
    }

    /// The ack tracker's bitfield only ever claims sequences that were actually recorded.
    #[test]
    fn ack_bitfield_is_sound(seqs in prop::collection::vec(any::<u16>(), 1..200)) {
        let mut t = AckTracker::default();
        let mut recorded = std::collections::HashSet::new();
        for s in &seqs {
            t.record(*s);
            recorded.insert(*s);
        }
        let field = t.bitfield();
        for off in 0u16..=32 {
            let s = field.latest.wrapping_sub(off);
            if field.contains(s) {
                prop_assert!(recorded.contains(&s), "bitfield claims unrecorded seq {s}");
            }
        }
    }

    /// A sent window only acknowledges entries it recorded, each at most once, regardless of
    /// the ack bitfields thrown at it.
    #[test]
    fn sent_window_acks_are_a_subset_of_sends(
        sends in prop::collection::vec(1u64..2000, 1..100),
        acks in prop::collection::vec((any::<u16>(), any::<u32>()), 0..50),
    ) {
        let mut w = SentWindow::default();
        for (i, &bytes) in sends.iter().enumerate() {
            w.on_sent(i as u16, bytes, SimTime::ZERO);
        }
        let mut acked = std::collections::HashSet::new();
        let mut acked_bytes = 0u64;
        for (latest, bits) in acks {
            w.on_ack(&AckBitfield { latest, bits }, |wire_bytes, _sent_at| {
                acked_bytes += wire_bytes;
                // Each callback corresponds to a distinct recorded send of that exact size.
                let idx = sends.iter().enumerate()
                    .position(|(i, &b)| b == wire_bytes && !acked.contains(&i));
                assert!(idx.is_some(), "acked bytes {wire_bytes} never sent");
                acked.insert(idx.unwrap());
            });
        }
        prop_assert!(acked.len() <= sends.len());
        prop_assert!(acked_bytes <= sends.iter().sum::<u64>());
        // Acking every send afterwards credits exactly the sends not credited yet: the window
        // holds no entry it was not given (and, under its cap, drops none).
        let mut rest = 0;
        for latest in 0..sends.len() as u16 {
            w.on_ack(&AckBitfield { latest, bits: u32::MAX }, |_, _| rest += 1);
        }
        prop_assert_eq!(acked.len() + rest, sends.len());
    }

    /// The sender window makes the same ack callbacks as its twin; one case in eight sends
    /// more than 4,200 fragments, so the cap evicts acknowledged and unacknowledged fronts.
    #[test]
    fn sent_window_equals_the_reference(seed in any::<u64>(), long in 0u32..8) {
        let sends = if long == 0 { 4_200 + (seed % 600) as usize } else { 1 + (seed % 600) as usize };
        window_matches_its_twin(seed, sends);
    }

    /// The reassembler answers every call as its twin does, inline and spilled masks alike.
    #[test]
    fn reassembler_equals_the_reference(seed in any::<u64>()) {
        reassembler_matches_its_twin(seed);
    }
}
