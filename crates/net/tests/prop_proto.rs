//! Property-based tests of the protocol-depth layer: fragment-header and ack-bitfield wire
//! round-trips, fragment-plan arithmetic, and the reassembler/ack-tracker invariants under
//! arbitrary (including adversarial) input sequences.

#![allow(
    clippy::disallowed_types,
    reason = "std collections model the implementation under test"
)]

use p2plab_net::proto::{
    fragment_count, fragment_size, seq_newer, AckBitfield, AckTracker, FragHeader, FragOutcome,
    Reassembler, SentWindow,
};
use p2plab_sim::SimTime;
use proptest::prelude::*;

proptest! {
    /// Fragment headers survive an encode → decode round-trip for every field value.
    #[test]
    fn frag_header_roundtrip(msg in any::<u16>(), index in any::<u16>(), count in any::<u16>(), seq in any::<u16>()) {
        let h = FragHeader { msg, index, count, seq };
        prop_assert_eq!(FragHeader::decode(h.encode()), h);
    }

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
}
