//! Deterministic random number generation.
//!
//! Experiment reproducibility is one of the paper's motivations, so every source of randomness
//! in the framework flows through [`SimRng`]: a seeded PRNG with helpers for the distributions
//! the substrates need (uniform ranges, Bernoulli packet loss, exponential, Pareto and normal
//! variates, shuffles and samples). Child generators can be split off by label so that adding a
//! new consumer of randomness does not perturb the draws seen by existing ones.
//!
//! The stream is defined here and nowhere else: xoshiro256++ seeded by SplitMix64, Lemire's
//! multiply-shift for bounded integers and the top 53 bits for floats. Every committed pin and
//! report byte depends on the exact draws each method makes, in order.

use std::fmt::Debug;
use std::ops::{Bound, RangeBounds};

/// A deterministic, splittable random number generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    seed: u64,
}

/// SplitMix64's increment: 2^64 over the golden ratio.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output from state `x`: a bijective avalanche mixer. It seeds every [`SimRng`]
/// and spreads sequential keys (hash states, DHT node ids) over 64 bits.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A type [`SimRng::gen_range`] draws uniformly.
pub trait Uniform: Copy + PartialOrd + Debug {
    /// Draws from `[low, high)`, or `[low, high]` if `inclusive`; the range is not empty.
    fn draw(rng: &mut SimRng, low: Self, high: Self, inclusive: bool) -> Self;
}

macro_rules! impl_uniform_uint {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn draw(rng: &mut SimRng, low: Self, high: Self, inclusive: bool) -> Self {
                let span = (high as u64).wrapping_sub(low as u64);
                let width = if inclusive { span.wrapping_add(1) } else { span };
                low.wrapping_add(rng.below(width) as $t)
            }
        }
    )*};
}
impl_uniform_uint!(u8, u32, u64, usize);

impl Uniform for f64 {
    fn draw(rng: &mut SimRng, low: Self, high: Self, _inclusive: bool) -> Self {
        let v = low + (high - low) * rng.gen_f64();
        // Rounding can reach `high`; keep a half-open draw below it.
        if v >= high {
            low.max(high - (high - low) * f64::EPSILON)
        } else {
            v
        }
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64's first four outputs from `seed`.
        let s = [0, 1, 2, 3].map(|k: u64| splitmix64(seed.wrapping_add(k.wrapping_mul(GAMMA))));
        SimRng { s, seed }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator from this generator's seed and a label.
    ///
    /// The child depends only on `(seed, label)`, not on how many numbers were already drawn,
    /// so different subsystems can own independent streams.
    pub fn split(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::new(h)
    }

    /// Derives an independent child generator from this generator's seed and a numeric label.
    ///
    /// Same contract as [`split`](SimRng::split) but keyed by a `u64`, for per-entity streams
    /// at scale (10^6 node ids) where formatting a string label per entity would dominate.
    /// The stream for `split_u64(n)` is unrelated to `split(&n.to_string())`.
    pub fn split_u64(&self, label: u64) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::new(h)
    }

    /// The next 64 bits of xoshiro256++.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, width)` by Lemire's multiply-shift; `width == 0` stands for 2^64.
    fn below(&mut self, width: u64) -> u64 {
        if width == 0 {
            return self.next_u64();
        }
        ((self.next_u64() as u128 * width as u128) >> 64) as u64
    }

    /// Uniform draw from a range, e.g. `rng.gen_range(0..10)` or `rng.gen_range(1..=6)`.
    ///
    /// Panics at the caller if the range is empty.
    #[track_caller]
    pub fn gen_range<T: Uniform>(&mut self, range: impl RangeBounds<T>) -> T {
        match (range.start_bound(), range.end_bound()) {
            (Bound::Included(&low), Bound::Excluded(&high)) => {
                assert!(low < high, "gen_range: empty range {low:?}..{high:?}");
                T::draw(self, low, high, false)
            }
            (Bound::Included(&low), Bound::Included(&high)) => {
                assert!(low <= high, "gen_range: empty range {low:?}..={high:?}");
                T::draw(self, low, high, true)
            }
            _ => panic!("gen_range: a range needs a start and an end"),
        }
    }

    /// Uniform draw in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let u = self.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Pareto-distributed value with minimum `scale` and tail index `shape` (inverse-CDF
    /// method). Smaller shapes give heavier tails; the mean `scale * shape / (shape - 1)` is
    /// finite only for `shape > 1`.
    pub fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(
            scale > 0.0 && scale.is_finite() && shape > 0.0 && shape.is_finite(),
            "invalid Pareto parameters: scale={scale} shape={shape}"
        );
        let u = self.gen_range(f64::MIN_POSITIVE..1.0);
        scale / u.powf(1.0 / shape)
    }

    /// Normally distributed value (Box-Muller) with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.gen_range(f64::MIN_POSITIVE..1.0);
        let u2 = self.gen_f64();
        let z = (-2.0_f64 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Chooses up to `n` distinct elements uniformly at random, preserving no particular order.
    pub fn sample<'a, T>(&mut self, slice: &'a [T], n: usize) -> Vec<&'a T> {
        // Partial Fisher-Yates over the indices: the first `n` slots end up a uniform sample.
        let n = n.min(slice.len());
        let mut indices: Vec<usize> = (0..slice.len()).collect();
        for i in 0..n {
            let j = i + self.below((slice.len() - i) as u64) as usize;
            indices.swap(i, j);
        }
        indices[..n].iter().map(|&i| &slice[i]).collect()
    }

    /// Chooses one element uniformly at random, or `None` from an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            return None;
        }
        Some(&slice[self.below(slice.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_a_function_of_the_seed() {
        let draws = |seed| {
            let mut rng = SimRng::new(seed);
            (0..32)
                .map(|_| rng.gen_range(0u32..1000))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
    }

    #[test]
    fn splits_are_label_dependent_and_stable() {
        let root = SimRng::new(11);
        let first = |mut rng: SimRng| rng.gen_range(0..=u64::MAX);
        assert_eq!(first(root.split("net")), first(root.split("net")));
        assert_ne!(first(root.split("net")), first(root.split("os")));
        assert_eq!(first(root.split_u64(7)), first(root.split_u64(7)));
        assert_ne!(first(root.split_u64(7)), first(root.split_u64(8)));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SimRng::new(42);
        for _ in 0..10_000 {
            assert!((10..20).contains(&rng.gen_range(10u32..20)));
            assert!((8..=30).contains(&rng.gen_range(8u8..=30)));
            assert!(rng.gen_range(200u8..=255) >= 200);
            // A half-open float draw never returns its end.
            for (low, high) in [(f64::MIN_POSITIVE, 1.0), (0.0, 0.3), (-5.0, -4.0)] {
                let v = rng.gen_range(low..high);
                assert!(v >= low && v < high, "{v} outside {low}..{high}");
            }
        }
    }

    #[test]
    fn full_u64_ranges_are_usable_and_reach_the_upper_half() {
        let mut rng = SimRng::new(7);
        let half_open = (0..64).any(|_| rng.gen_range(0..u64::MAX) > u64::MAX / 2);
        let inclusive = (0..64).any(|_| rng.gen_range(0..=u64::MAX) > u64::MAX / 2);
        assert!(half_open && inclusive);
    }

    #[test]
    fn draws_are_roughly_uniform() {
        let mut rng = SimRng::new(3);
        let n = 100_000;
        let mean = (0..n)
            .map(|_| rng.gen_range(0u32..1000) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 499.5).abs() < 10.0, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range 3..3")]
    fn an_empty_half_open_range_panics_naming_it() {
        SimRng::new(1).gen_range(3u32..3);
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range 5..=3")]
    fn a_reversed_inclusive_range_panics_naming_it() {
        let (low, high) = (5usize, 3);
        SimRng::new(1).gen_range(low..=high);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SimRng::new(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn pareto_support_and_mean() {
        let mut rng = SimRng::new(21);
        let (scale, shape) = (2.0, 3.0);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.pareto(scale, shape)).collect();
        assert!(xs.iter().all(|&x| x >= scale), "support starts at scale");
        let mean = xs.iter().sum::<f64>() / n as f64;
        let expected = scale * shape / (shape - 1.0);
        assert!((mean - expected).abs() / expected < 0.05, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "invalid Pareto parameters")]
    fn pareto_rejects_zero_scale() {
        SimRng::new(1).pareto(0.0, 2.0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std={}", var.sqrt());
    }

    #[test]
    fn sample_returns_distinct_elements() {
        let mut rng = SimRng::new(17);
        let items: Vec<u32> = (0..100).collect();
        let picked = rng.sample(&items, 10);
        assert_eq!(picked.len(), 10);
        let mut vals: Vec<u32> = picked.into_iter().copied().collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), 10);
        // Asking for more than available returns all.
        assert_eq!(rng.sample(&items, 1000).len(), 100);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_picks_from_the_slice_and_an_empty_slice_gives_none() {
        let mut rng = SimRng::new(9);
        let v: Vec<u32> = (0..100).collect();
        assert!(v.contains(rng.choose(&v).unwrap()));
        assert!(rng.choose::<u32>(&[]).is_none());
    }
}
