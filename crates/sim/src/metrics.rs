//! The unified metrics pipeline: a [`Recorder`] with cheap typed handles and the
//! [`MetricSet`] snapshot every run ships in its report.
//!
//! The paper's folding claim is validated by *measurement* — system load, NIC saturation and
//! download curves on every node — so the framework needs one observability surface that every
//! workload and the platform monitor record through, instead of each result struct growing its
//! own hand-rolled `TimeSeries` fields. The design goals:
//!
//! * **Cheap in the hot path.** A handle is a plain index into a `Vec`; recording an event is
//!   an array access plus an add — no hashing, no string lookup, no allocation (time series
//!   push amortized). Names are resolved once, at registration time.
//! * **Typed.** [`Counter`] (monotonic `u64`), [`Gauge`] (last-value `f64`),
//!   [`TimeSeriesId`] (sampled `(time, value)` curve) and [`HistogramId`]
//!   (log-bucket distribution with p50/p90/p99 quantiles).
//! * **Serializable.** [`Recorder::finish`] freezes everything into a [`MetricSet`] — plain
//!   data that the report layer renders to JSON/CSV and the analysis layer consumes.

use crate::stats::TimeSeries;
use crate::time::SimTime;

/// Handle to a monotonic counter. Plain index — `Copy`, no lifetime, free to pass around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(usize);

/// Handle to a last-value gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge(usize);

/// Handle to a `(time, value)` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSeriesId(usize);

/// Handle to a log-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Growth factor between consecutive log-histogram bucket edges: four buckets per octave,
/// so an estimated quantile is within a factor of `2^(1/4) ≈ 1.19` of the exact one.
pub const LOG_BUCKET_GROWTH: f64 = 1.189207115002721; // 2^(1/4)

/// Exponent (base [`LOG_BUCKET_GROWTH`]) of the smallest positive bucket edge: `2^-30` (~1 ns
/// expressed in seconds), so sub-microsecond latencies still resolve.
const LOG_BUCKET_MIN_EXP: i32 = -120; // growth^-120 = 2^-30
/// Number of log buckets: spans `2^-30 .. 2^60`, enough for latencies in seconds up to byte
/// counts in the exabytes.
const LOG_BUCKETS: usize = 360;

/// A histogram over fixed logarithmic buckets.
///
/// Values are assigned to buckets whose edges grow geometrically by [`LOG_BUCKET_GROWTH`], so
/// the relative error of any reported quantile is bounded by one bucket's width (±19%) while
/// recording stays a constant-time `log2` plus an array increment — no per-event allocation and
/// no stored samples.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    /// Values `<= 0` (a log scale cannot place them); quantiles report them as `0.0`.
    nonpositive: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: vec![0; LOG_BUCKETS],
            nonpositive: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one value. Non-positive and non-finite values land in a dedicated zero bucket.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        if v.is_finite() {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        if !(v > 0.0 && v.is_finite()) {
            self.nonpositive += 1;
            return;
        }
        let idx = (v.log2() * 4.0).floor() as i64 - LOG_BUCKET_MIN_EXP as i64;
        let idx = idx.clamp(0, LOG_BUCKETS as i64 - 1) as usize;
        self.buckets[idx] += 1;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0 && self.min.is_finite()).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0 && self.max.is_finite()).then_some(self.max)
    }

    /// The `q`-quantile (nearest rank over bucket counts). An exact recorded quantile `x` is
    /// guaranteed to satisfy `est / LOG_BUCKET_GROWTH <= x <= est * LOG_BUCKET_GROWTH`, because
    /// the estimate is the geometric midpoint of the bucket containing the exact value.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank <= self.nonpositive {
            return Some(0.0);
        }
        let mut seen = self.nonpositive;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = bucket_low_edge(i);
                return Some(lo * LOG_BUCKET_GROWTH.sqrt());
            }
        }
        // Unreachable when counts are consistent; fall back to the max.
        self.max()
    }

    /// The non-empty buckets as `(low_edge, count)`, plus the non-positive count first (edge
    /// `0.0`) when present.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        if self.nonpositive > 0 {
            out.push((0.0, self.nonpositive));
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                out.push((bucket_low_edge(i), c));
            }
        }
        out
    }

    /// Freezes the histogram into its serializable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets: self.buckets(),
        }
    }
}

fn bucket_low_edge(idx: usize) -> f64 {
    LOG_BUCKET_GROWTH.powi(idx as i32 + LOG_BUCKET_MIN_EXP)
}

/// The frozen, serializable form of a [`LogHistogram`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Smallest recorded value.
    pub min: Option<f64>,
    /// Largest recorded value.
    pub max: Option<f64>,
    /// Median estimate.
    pub p50: Option<f64>,
    /// 90th-percentile estimate.
    pub p90: Option<f64>,
    /// 99th-percentile estimate.
    pub p99: Option<f64>,
    /// Non-empty buckets as `(low_edge, count)`; edge `0.0` holds non-positive values.
    pub buckets: Vec<(f64, u64)>,
}

/// The value of one finished metric inside a [`MetricSet`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Last observed value.
    Gauge(f64),
    /// Sampled `(time, value)` curve.
    Series(TimeSeries),
    /// Distribution summary.
    Histogram(HistogramSnapshot),
}

/// One named, finished metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's registered name.
    pub name: String,
    /// Its frozen value.
    pub value: MetricValue,
}

/// Everything a run recorded, frozen in registration order — the metrics half of a run report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// Creates an empty set (used by reports loaded from disk before metrics are pushed in).
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Appends a finished metric (used by the report loader; `Recorder::finish` is the normal
    /// producer).
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// All metrics, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// The named series, when present and a series.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        match self.get(name) {
            Some(MetricValue::Series(s)) => Some(s),
            _ => None,
        }
    }

    /// The named counter's value, when present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// The named gauge's value, when present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// The named histogram snapshot, when present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

impl IntoIterator for MetricSet {
    type Item = Metric;
    type IntoIter = std::vec::IntoIter<Metric>;
    fn into_iter(self) -> Self::IntoIter {
        self.metrics.into_iter()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Counter(usize),
    Gauge(usize),
    Series(usize),
    Histogram(usize),
}

/// Collects every metric of one run.
///
/// Registration (by name) happens at setup time and returns a typed handle; the hot path then
/// records through the handle with plain indexed access. Registering a name twice returns the
/// existing handle (and panics if the kinds disagree), so a monitor re-attached mid-run keeps
/// appending to the same metric.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    names: Vec<(String, Slot)>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    series: Vec<TimeSeries>,
    histograms: Vec<LogHistogram>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    fn slot_of(&self, name: &str) -> Option<Slot> {
        self.names
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, slot)| slot)
    }

    /// Registers (or re-resolves) a counter.
    pub fn counter(&mut self, name: impl Into<String>) -> Counter {
        let name = name.into();
        match self.slot_of(&name) {
            Some(Slot::Counter(i)) => Counter(i),
            Some(_) => panic!("metric {name:?} already registered with a different kind"),
            None => {
                let i = self.counters.len();
                self.counters.push(0);
                self.names.push((name, Slot::Counter(i)));
                Counter(i)
            }
        }
    }

    /// Registers (or re-resolves) a gauge.
    pub fn gauge(&mut self, name: impl Into<String>) -> Gauge {
        let name = name.into();
        match self.slot_of(&name) {
            Some(Slot::Gauge(i)) => Gauge(i),
            Some(_) => panic!("metric {name:?} already registered with a different kind"),
            None => {
                let i = self.gauges.len();
                self.gauges.push(0.0);
                self.names.push((name, Slot::Gauge(i)));
                Gauge(i)
            }
        }
    }

    /// Registers (or re-resolves) a time series.
    pub fn time_series(&mut self, name: impl Into<String>) -> TimeSeriesId {
        let name = name.into();
        match self.slot_of(&name) {
            Some(Slot::Series(i)) => TimeSeriesId(i),
            Some(_) => panic!("metric {name:?} already registered with a different kind"),
            None => {
                let i = self.series.len();
                self.series.push(TimeSeries::new());
                self.names.push((name, Slot::Series(i)));
                TimeSeriesId(i)
            }
        }
    }

    /// Registers (or re-resolves) a log-bucket histogram.
    pub fn histogram(&mut self, name: impl Into<String>) -> HistogramId {
        let name = name.into();
        match self.slot_of(&name) {
            Some(Slot::Histogram(i)) => HistogramId(i),
            Some(_) => panic!("metric {name:?} already registered with a different kind"),
            None => {
                let i = self.histograms.len();
                self.histograms.push(LogHistogram::new());
                self.names.push((name, Slot::Histogram(i)));
                HistogramId(i)
            }
        }
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.0] += n;
    }

    /// Sets a counter to an absolute total (for syncing a count maintained elsewhere in the
    /// world state; the counter stays monotonic by taking the max).
    pub fn set_total(&mut self, c: Counter, total: u64) {
        let v = &mut self.counters[c.0];
        *v = (*v).max(total);
    }

    /// Sets a gauge. Non-finite values are ignored (the metric pipeline and the run-report
    /// format are finite-only; the gauge keeps its last finite value).
    pub fn set(&mut self, g: Gauge, v: f64) {
        if v.is_finite() {
            self.gauges[g.0] = v;
        }
    }

    /// Appends a `(time, value)` sample to a series. Non-finite values are dropped (the
    /// metric pipeline and the run-report format are finite-only).
    pub fn push(&mut self, s: TimeSeriesId, at: SimTime, v: f64) {
        if v.is_finite() {
            self.series[s.0].push(at, v);
        }
    }

    /// Records a value into a histogram.
    pub fn record(&mut self, h: HistogramId, v: f64) {
        self.histograms[h.0].record(v);
    }

    /// Freezes the recorder into the run's [`MetricSet`], in registration order.
    pub fn finish(self) -> MetricSet {
        let mut set = MetricSet::new();
        for (name, slot) in self.names {
            let value = match slot {
                Slot::Counter(i) => MetricValue::Counter(self.counters[i]),
                Slot::Gauge(i) => MetricValue::Gauge(self.gauges[i]),
                Slot::Series(i) => MetricValue::Series(self.series[i].clone()),
                Slot::Histogram(i) => MetricValue::Histogram(self.histograms[i].snapshot()),
            };
            set.push(Metric { name, value });
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_record_and_finish_in_registration_order() {
        let mut rec = Recorder::new();
        let sent = rec.counter("sent");
        let online = rec.gauge("online");
        let curve = rec.time_series("progress");
        let rtt = rec.histogram("rtt");

        rec.add(sent, 3);
        rec.add(sent, 2);
        rec.set(online, 7.0);
        rec.set(online, 9.0);
        rec.push(curve, SimTime::from_secs(1), 10.0);
        rec.push(curve, SimTime::from_secs(2), 20.0);
        rec.record(rtt, 0.030);
        rec.record(rtt, 0.031);

        assert_eq!(rec.counters[sent.0], 5);
        let set = rec.finish();
        let names: Vec<&str> = set.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["sent", "online", "progress", "rtt"]);
        assert_eq!(set.counter("sent"), Some(5));
        assert_eq!(set.gauge("online"), Some(9.0));
        assert_eq!(set.series("progress").unwrap().len(), 2);
        let h = set.histogram("rtt").unwrap();
        assert_eq!(h.count, 2);
        assert!(h.min.unwrap() <= 0.030 && h.max.unwrap() >= 0.031);
        // Kind-mismatched lookups return None instead of lying.
        assert_eq!(set.counter("online"), None);
        assert_eq!(set.series("rtt"), None);
    }

    #[test]
    fn re_registration_returns_the_same_handle() {
        let mut rec = Recorder::new();
        let a = rec.counter("x");
        let b = rec.counter("x");
        assert_eq!(a, b);
        rec.add(a, 1);
        rec.add(b, 1);
        assert_eq!(rec.finish().counter("x"), Some(2));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn re_registration_with_a_different_kind_panics() {
        let mut rec = Recorder::new();
        rec.counter("x");
        rec.gauge("x");
    }

    #[test]
    fn non_finite_gauge_and_series_values_are_dropped() {
        // The run-report format is finite-only; a workload that divides by zero must not be
        // able to poison the artifact (a serialized NaN could never round-trip, since
        // NaN != NaN under the loader's equality check).
        let mut rec = Recorder::new();
        let g = rec.gauge("ratio");
        let s = rec.time_series("curve");
        rec.set(g, 0.5);
        rec.set(g, f64::NAN);
        rec.set(g, f64::INFINITY);
        rec.push(s, SimTime::from_secs(1), 1.0);
        rec.push(s, SimTime::from_secs(2), f64::NAN);
        let set = rec.finish();
        assert_eq!(set.gauge("ratio"), Some(0.5));
        assert_eq!(set.series("curve").unwrap().len(), 1);
    }

    #[test]
    fn set_total_is_monotonic() {
        let mut rec = Recorder::new();
        let c = rec.counter("events");
        rec.set_total(c, 10);
        rec.set_total(c, 7); // stale sync must not roll the counter back
        rec.set_total(c, 12);
        assert_eq!(rec.counters[c.0], 12);
    }

    #[test]
    fn histogram_quantiles_bound_exact_quantiles() {
        let mut h = LogHistogram::new();
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.001).collect();
        for &v in &values {
            h.record(v);
        }
        for (q, exact) in [(0.50, 0.500), (0.90, 0.900), (0.99, 0.990)] {
            let est = h.quantile(q).unwrap();
            assert!(
                est / LOG_BUCKET_GROWTH <= exact && exact <= est * LOG_BUCKET_GROWTH,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(h.count(), 1000);
        assert!((h.min().unwrap() - 0.001).abs() < 1e-12);
        assert!((h.max().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_handles_nonpositive_and_extreme_values() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(1e-300); // far below the smallest bucket: clamped, not lost
        h.record(1e300); // far above the largest bucket: clamped, not lost
        assert_eq!(h.count(), 5);
        // Ranks 1-3 are the non-positive values.
        assert_eq!(h.quantile(0.5).unwrap(), 0.0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 5);
        assert_eq!(snap.buckets[0], (0.0, 3));
        let empty = LogHistogram::new();
        assert!(empty.quantile(0.5).is_none());
        assert!(empty.snapshot().p50.is_none());
    }

    #[test]
    fn empty_metric_set_lookups() {
        let set = Recorder::new().finish();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(set.get("nope").is_none());
    }
}
