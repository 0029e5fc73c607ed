//! Piece bitfields.
//!
//! Compact set of piece indices, exchanged in the peer wire protocol's `bitfield` message and
//! used for availability accounting (rarest-first needs per-piece counts over all peers).
//!
//! Every peer connection, partial piece and `bitfield` message carries one, so up to 128 pieces
//! are stored in the value itself (every shipped torrent has at most 64); only a longer
//! bitfield puts its words on the heap.

/// Words stored inline: 128 pieces.
const INLINE_WORDS: usize = 2;

/// The words of a bitfield: inline up to `64 * INLINE_WORDS` pieces, boxed beyond. Inline words
/// past the bitfield's length stay zero, so the derived equality compares contents.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

/// A fixed-size set of piece indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitfield {
    bits: Words,
    len: u32,
    count: u32,
}

// One per peer connection and partial piece: the inline words may not make it any larger.
const _: () = assert!(std::mem::size_of::<Bitfield>() <= 32);

impl Bitfield {
    /// An empty bitfield over `len` pieces.
    pub fn new(len: u32) -> Bitfield {
        let words = (len as usize).div_ceil(64);
        let bits = if words <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; words].into_boxed_slice())
        };
        Bitfield {
            bits,
            len,
            count: 0,
        }
    }

    /// The `len.div_ceil(64)` words in use.
    fn words(&self) -> &[u64] {
        match &self.bits {
            Words::Inline(w) => &w[..(self.len as usize).div_ceil(64)],
            Words::Heap(w) => w,
        }
    }

    /// The words in use, mutably.
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.bits {
            Words::Inline(w) => &mut w[..(self.len as usize).div_ceil(64)],
            Words::Heap(w) => w,
        }
    }

    /// A bitfield with every piece set (a seeder's bitfield).
    pub fn full(len: u32) -> Bitfield {
        let mut b = Bitfield::new(len);
        for i in 0..len {
            b.set(i);
        }
        b
    }

    /// Number of pieces the bitfield covers.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if the bitfield covers zero pieces.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pieces currently set.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// True if every piece is set.
    pub fn is_full(&self) -> bool {
        self.count == self.len
    }

    /// True if piece `i` is set.
    pub fn get(&self, i: u32) -> bool {
        assert!(i < self.len, "piece index out of range");
        self.words()[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    /// Sets piece `i`. Returns true if it was newly set.
    pub fn set(&mut self, i: u32) -> bool {
        assert!(i < self.len, "piece index out of range");
        let word = &mut self.words_mut()[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Clears piece `i`. Returns true if it was previously set.
    pub fn clear(&mut self, i: u32) -> bool {
        assert!(i < self.len, "piece index out of range");
        let word = &mut self.words_mut()[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        if *word & mask != 0 {
            *word &= !mask;
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Iterates over set piece indices (word-at-a-time: these iterators feed the per-message
    /// hot paths, so per-bit probing would cost a division and a load per piece).
    pub fn iter_set(&self) -> impl Iterator<Item = u32> + '_ {
        WordBitIter::new(self.words(), self.len, 0)
    }

    /// Iterates over missing piece indices.
    pub fn iter_missing(&self) -> impl Iterator<Item = u32> + '_ {
        WordBitIter::new(self.words(), self.len, u64::MAX)
    }

    /// Iterates over pieces that `other` has and this bitfield is missing (ascending) — the
    /// candidate set of the piece picker, one AND-NOT per word.
    pub fn iter_missing_in<'a>(&'a self, other: &'a Bitfield) -> impl Iterator<Item = u32> + 'a {
        assert_eq!(self.len, other.len, "bitfield length mismatch");
        self.words()
            .iter()
            .zip(other.words())
            .enumerate()
            .flat_map(|(w, (&mine, &theirs))| {
                let mut bits = theirs & !mine;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(w as u32 * 64 + b)
                })
            })
    }

    /// True if `other` has at least one piece this bitfield is missing (i.e. the peer owning
    /// `other` is interesting to us). One AND-NOT per word.
    pub fn is_interested_in(&self, other: &Bitfield) -> bool {
        assert_eq!(self.len, other.len, "bitfield length mismatch");
        self.words()
            .iter()
            .zip(other.words())
            .any(|(&mine, &theirs)| theirs & !mine != 0)
    }

    /// Size of the wire representation of the bitfield message payload, in bytes.
    pub fn wire_bytes(&self) -> u64 {
        (self.len as u64).div_ceil(8)
    }
}

/// Ascending iterator over the bits of `words` (xored with `invert`), clipped to `len`.
struct WordBitIter<'a> {
    words: &'a [u64],
    /// Remaining bits of the current word (already inverted/clipped), shifted as consumed.
    current: u64,
    /// Index of the word `current` came from.
    word_idx: usize,
    len: u32,
    invert: u64,
}

impl<'a> WordBitIter<'a> {
    fn new(words: &'a [u64], len: u32, invert: u64) -> WordBitIter<'a> {
        let mut it = WordBitIter {
            words,
            current: 0,
            word_idx: 0,
            len,
            invert,
        };
        it.current = it.load(0);
        it
    }

    fn load(&self, idx: usize) -> u64 {
        let Some(&w) = self.words.get(idx) else {
            return 0;
        };
        let mut bits = w ^ self.invert;
        // Clip the final partial word so inverted iteration never yields ghost bits past len.
        let base = idx as u32 * 64;
        if base + 64 > self.len {
            bits &= (1u64 << (self.len - base)) - 1;
        }
        bits
    }
}

impl Iterator for WordBitIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.load(self.word_idx);
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.word_idx as u32 * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_count() {
        let mut b = Bitfield::new(100);
        assert_eq!(b.count(), 0);
        assert!(b.set(3));
        assert!(!b.set(3));
        assert!(b.set(64));
        assert!(b.get(3) && b.get(64) && !b.get(4));
        assert_eq!(b.count(), 2);
        assert!(b.clear(3));
        assert!(!b.clear(3));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn full_bitfield() {
        let b = Bitfield::full(64);
        assert!(b.is_full());
        assert_eq!(b.count(), 64);
        assert_eq!(b.iter_missing().count(), 0);
        assert_eq!(b.iter_set().count(), 64);
    }

    #[test]
    fn interest_detection() {
        let mut mine = Bitfield::new(10);
        let mut theirs = Bitfield::new(10);
        assert!(!mine.is_interested_in(&theirs));
        theirs.set(5);
        assert!(mine.is_interested_in(&theirs));
        mine.set(5);
        assert!(!mine.is_interested_in(&theirs));
    }

    #[test]
    fn missing_in_is_their_pieces_we_lack() {
        let mut mine = Bitfield::new(130);
        let mut theirs = Bitfield::new(130);
        for i in [0, 5, 63, 64, 100, 129] {
            theirs.set(i);
        }
        mine.set(5);
        mine.set(100);
        let got: Vec<u32> = mine.iter_missing_in(&theirs).collect();
        assert_eq!(got, vec![0, 63, 64, 129]);
        // Matches the naive definition on arbitrary bit patterns.
        let naive: Vec<u32> = theirs.iter_set().filter(|&i| !mine.get(i)).collect();
        assert_eq!(got, naive);
    }

    #[test]
    fn wire_size_rounds_up() {
        assert_eq!(Bitfield::new(64).wire_bytes(), 8);
        assert_eq!(Bitfield::new(65).wire_bytes(), 9);
        assert_eq!(Bitfield::new(1).wire_bytes(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_checked() {
        Bitfield::new(10).get(10);
    }
}
