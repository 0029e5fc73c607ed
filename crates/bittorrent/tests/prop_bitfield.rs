//! The bitfield against a `BTreeSet<u32>` model, at lengths on both sides of every word
//! boundary and of the inline/heap boundary (128 pieces): under random sets, clears and fills
//! of two bitfields of one length, every query agrees with the model after every operation.

#![allow(
    clippy::disallowed_types,
    reason = "std collections model the implementation under test"
)]

use p2plab_bittorrent::Bitfield;
use proptest::prelude::*;
use std::collections::BTreeSet;

const LENGTHS: [u32; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 1000];

/// Checks `bf` against `model` on its own, then against the pair `(other, other_model)`.
fn check(
    bf: &Bitfield,
    model: &BTreeSet<u32>,
    other: &Bitfield,
    other_model: &BTreeSet<u32>,
    len: u32,
) {
    assert_eq!(bf.len(), len);
    assert_eq!(bf.is_empty(), len == 0);
    assert_eq!(bf.count(), model.len() as u32);
    assert_eq!(bf.is_full(), model.len() as u32 == len);
    assert_eq!(bf.wire_bytes(), (len as u64).div_ceil(8));
    for i in 0..len {
        assert_eq!(bf.get(i), model.contains(&i), "piece {i} of {len}");
    }
    assert!(bf.iter_set().eq(model.iter().copied()));
    assert!(bf
        .iter_missing()
        .eq((0..len).filter(|i| !model.contains(i))));
    let wanted: Vec<u32> = other_model.difference(model).copied().collect();
    assert_eq!(bf.iter_missing_in(other).collect::<Vec<_>>(), wanted);
    assert_eq!(bf.is_interested_in(other), !wanted.is_empty());
    assert_eq!(bf == other, model == other_model);
    let copy = bf.clone();
    assert_eq!(&copy, bf);
    assert!(copy.iter_set().eq(model.iter().copied()));
}

/// Flips piece `i` of a clone: the clone differs, the original is untouched.
fn check_clone_is_independent(bf: &Bitfield, model: &BTreeSet<u32>, i: u32) {
    let mut copy = bf.clone();
    if model.contains(&i) {
        assert!(copy.clear(i));
    } else {
        assert!(copy.set(i));
    }
    assert_ne!(&copy, bf);
    assert_eq!(bf.get(i), model.contains(&i));
}

/// Applies `ops` — `(kind, raw)`: even kinds act on the first bitfield, odd on the second;
/// `kind / 2` is 0–1 set, 2–3 clear, 4 fill, 5 a clone check; the piece is `raw % len` — then
/// checks both bitfields against their models.
fn check_against_model(len: u32, ops: &[(u8, u32)]) {
    let (mut a, mut b) = (Bitfield::new(len), Bitfield::new(len));
    let (mut ma, mut mb) = (BTreeSet::new(), BTreeSet::new());
    check(&a, &ma, &b, &mb, len);
    let full = Bitfield::full(len);
    check(&full, &(0..len).collect(), &a, &ma, len);
    if len == 0 {
        return;
    }
    for &(kind, raw) in ops {
        let i = raw % len;
        let (bf, model) = if kind % 2 == 0 {
            (&mut a, &mut ma)
        } else {
            (&mut b, &mut mb)
        };
        match kind / 2 {
            0 | 1 => assert_eq!(bf.set(i), model.insert(i)),
            2 | 3 => assert_eq!(bf.clear(i), model.remove(&i)),
            4 => {
                for j in 0..len {
                    bf.set(j);
                }
                model.extend(0..len);
            }
            _ => check_clone_is_independent(bf, model, i),
        }
        check(&a, &ma, &b, &mb, len);
        check(&b, &mb, &a, &ma, len);
    }
}

proptest! {
    #[test]
    fn bitfield_matches_a_btreeset_model(
        len in prop::sample::select(LENGTHS.to_vec()),
        ops in prop::collection::vec((0u8..12, any::<u32>()), 0..120),
    ) {
        check_against_model(len, &ops);
    }
}
