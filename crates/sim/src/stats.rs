//! Measurement utilities: time series, summary statistics and CDFs.
//!
//! Every figure in the paper is either a time series (download progress, completion counts,
//! cumulative data received) or a distribution (execution-time CDF, RTT vs rule count), so these
//! types are the common output format of all experiments in the workspace.

use crate::time::{SimDuration, SimTime};

/// A sequence of `(time, value)` samples in simulation time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries {
            samples: Vec::new(),
        }
    }

    /// Creates an empty series with room for `samples` samples.
    pub fn with_capacity(samples: usize) -> Self {
        TimeSeries {
            samples: Vec::with_capacity(samples),
        }
    }

    /// Appends a sample. Samples are expected in non-decreasing time order; out-of-order
    /// samples are accepted but `value_at` assumes ordering.
    pub fn push(&mut self, time: SimTime, value: f64) {
        self.samples.push((time, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// The last sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.samples.last().copied()
    }

    /// Value of the series at `t` using step ("last value carried forward") interpolation.
    /// Returns `default` before the first sample.
    pub fn value_at(&self, t: SimTime, default: f64) -> f64 {
        match self.samples.partition_point(|(st, _)| *st <= t) {
            0 => default,
            i => self.samples[i - 1].1,
        }
    }

    /// First time at which the series reaches `threshold` (values assumed non-decreasing).
    pub fn time_to_reach(&self, threshold: f64) -> Option<SimTime> {
        self.samples
            .iter()
            .find(|(_, v)| *v >= threshold)
            .map(|(t, _)| *t)
    }

    /// Resamples the series on a regular grid of `step` from 0 to `end` (inclusive), carrying
    /// the last value forward. When `end` is not a multiple of `step`, the final sample is
    /// clamped to `end` itself — the grid never extends past the requested range. Useful to
    /// compare runs with different event times.
    pub fn resample(&self, step: SimDuration, end: SimTime, default: f64) -> Vec<(SimTime, f64)> {
        assert!(!step.is_zero(), "step must be non-zero");
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            out.push((t, self.value_at(t, default)));
            if t >= end {
                break;
            }
            t = (t + step).min(end);
        }
        out
    }

    /// Maximum absolute difference between two series sampled on a regular grid.
    ///
    /// This is the measure used to check the paper's folding-ratio claim ("results are nearly
    /// identical"): the curves for different virtual-to-physical ratios must stay close.
    pub fn max_abs_difference(
        &self,
        other: &TimeSeries,
        step: SimDuration,
        end: SimTime,
        default: f64,
    ) -> f64 {
        let a = self.resample(step, end, default);
        let b = other.resample(step, end, default);
        a.iter()
            .zip(b.iter())
            .map(|((_, va), (_, vb))| (va - vb).abs())
            .fold(0.0, f64::max)
    }
}

/// Basic summary statistics over a set of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Computes summary statistics. Returns `None` for an empty input.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let count = values.len();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        let mean = sum / count as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        Some(Summary {
            count,
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        })
    }
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from a set of samples (NaNs are rejected with a panic).
    pub fn from_samples(mut samples: Vec<f64>) -> Cdf {
        assert!(
            samples.iter().all(|v| !v.is_nan()),
            "CDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// F(x): fraction of samples less than or equal to `x`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (q in `[0, 1]`) using the nearest-rank method.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.sorted[rank.min(self.sorted.len() - 1)])
    }

    /// Points `(x, F(x))` suitable for plotting the empirical CDF.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Kolmogorov-Smirnov distance to another CDF (max |F1 - F2| over both sample sets).
    pub fn ks_distance(&self, other: &Cdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.fraction_at(x) - other.fraction_at(x)).abs());
        }
        d
    }
}

/// Exponentially-weighted moving average rate estimator (bytes per second), in the style of the
/// 20-second rolling rate BitTorrent clients use to pick tit-for-tat partners.
///
/// An idle estimator is its `Default`. The smoothing window is not stored: the caller passes its
/// one window constant to every [`record`](RateEstimator::record) and
/// [`rate`](RateEstimator::rate), the same value each time.
#[derive(Debug, Clone, Default)]
pub struct RateEstimator {
    rate_bps: f64,
    last_update: SimTime,
    /// One-entry memo of the last decay factor: periodic samplers (the 10 s choker round)
    /// produce the same `dt` for millions of estimator touches, and `exp` for equal input
    /// bits is deterministic, so reusing the factor is exact and skips the `exp` call. Zero
    /// means empty: a zero `dt` never decays.
    memo_dt_nanos: u64,
    memo_alpha: f64,
}

// One per direction of every peer connection.
const _: () = assert!(std::mem::size_of::<RateEstimator>() <= 32);

impl RateEstimator {
    /// Records `bytes` transferred at time `now`, smoothed over `window`.
    pub fn record(&mut self, now: SimTime, bytes: u64, window: SimDuration) {
        self.decay_to(now, window);
        // Treat the transfer as spread over the window: contributes bytes/window to the rate.
        self.rate_bps += bytes as f64 / window.as_secs_f64();
    }

    /// Current estimated rate in bytes per second at time `now`, smoothed over `window`.
    pub fn rate(&mut self, now: SimTime, window: SimDuration) -> f64 {
        self.decay_to(now, window);
        self.rate_bps
    }

    fn decay_to(&mut self, now: SimTime, window: SimDuration) {
        debug_assert!(!window.is_zero(), "window must be non-zero");
        if now <= self.last_update {
            return;
        }
        if self.rate_bps == 0.0 {
            // Nothing to decay (idle link): skip the exp — 0 × α is exactly 0 for any α, so
            // this changes no observable value.
            self.last_update = now;
            return;
        }
        let dt = now - self.last_update;
        if dt.as_nanos() != self.memo_dt_nanos {
            self.memo_dt_nanos = dt.as_nanos();
            self.memo_alpha = (-dt.as_secs_f64() / window.as_secs_f64()).exp();
        }
        self.rate_bps *= self.memo_alpha;
        self.last_update = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(points: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(sec, v) in points {
            s.push(SimTime::from_secs(sec), v);
        }
        s
    }

    #[test]
    fn time_series_value_at() {
        let s = ts(&[(1, 10.0), (5, 50.0), (9, 90.0)]);
        assert_eq!(s.value_at(SimTime::ZERO, -1.0), -1.0);
        assert_eq!(s.value_at(SimTime::from_secs(1), -1.0), 10.0);
        assert_eq!(s.value_at(SimTime::from_secs(4), -1.0), 10.0);
        assert_eq!(s.value_at(SimTime::from_secs(5), -1.0), 50.0);
        assert_eq!(s.value_at(SimTime::from_secs(100), -1.0), 90.0);
    }

    #[test]
    fn time_series_time_to_reach() {
        let s = ts(&[(1, 10.0), (5, 50.0), (9, 100.0)]);
        assert_eq!(s.time_to_reach(50.0), Some(SimTime::from_secs(5)));
        assert_eq!(s.time_to_reach(100.0), Some(SimTime::from_secs(9)));
        assert_eq!(s.time_to_reach(101.0), None);
    }

    #[test]
    fn time_series_resample_and_difference() {
        let a = ts(&[(0, 0.0), (10, 100.0)]);
        let b = ts(&[(0, 0.0), (10, 90.0)]);
        let diff = a.max_abs_difference(&b, SimDuration::from_secs(5), SimTime::from_secs(20), 0.0);
        assert!((diff - 10.0).abs() < 1e-9);
        let grid = a.resample(SimDuration::from_secs(5), SimTime::from_secs(10), 0.0);
        assert_eq!(grid.len(), 3);
    }

    #[test]
    fn resample_clamps_final_sample_to_end() {
        // Regression: with end not a multiple of step, the last grid point used to land past
        // end (step 4, end 10 produced 0, 4, 8, 12). The grid must stop exactly at end.
        let s = ts(&[(0, 0.0), (9, 90.0)]);
        let grid = s.resample(SimDuration::from_secs(4), SimTime::from_secs(10), 0.0);
        let times: Vec<u64> = grid
            .iter()
            .map(|(t, _)| t.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(times, vec![0, 4, 8, 10]);
        assert_eq!(grid.last().unwrap().1, 90.0);
        // max_abs_difference rides on the same grid, so it too stays inside [0, end].
        let o = ts(&[(0, 0.0), (9, 50.0)]);
        let d = s.max_abs_difference(&o, SimDuration::from_secs(4), SimTime::from_secs(10), 0.0);
        assert!((d - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn cdf_basic() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at(0.5), 0.0);
        assert_eq!(cdf.fraction_at(2.0), 0.5);
        assert_eq!(cdf.fraction_at(10.0), 1.0);
        assert_eq!(cdf.quantile(0.5), Some(2.0));
        assert_eq!(cdf.quantile(1.0), Some(4.0));
        assert_eq!(cdf.points().len(), 4);
    }

    #[test]
    fn cdf_ks_distance() {
        let a = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        let b = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.ks_distance(&b), 0.0);
        let c = Cdf::from_samples(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.ks_distance(&c), 1.0);
    }

    #[test]
    fn rate_estimator_decays() {
        let window = SimDuration::from_secs(20);
        let mut r = RateEstimator::default();
        r.record(SimTime::from_secs(0), 20_000, window);
        // Right after a transfer from rest, the rate is the bytes spread over the window.
        assert_eq!(r.rate(SimTime::from_secs(0), window), 20_000.0 / 20.0);
        let early = r.rate(SimTime::from_secs(1), window);
        let late = r.rate(SimTime::from_secs(60), window);
        assert!(early > late);
        assert!(late < 100.0);
    }
}
