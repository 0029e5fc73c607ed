//! Result analysis: folding-ratio invariance, completion statistics and download phases.
//!
//! The paper's central claim for P2PLab's usefulness is that folding many virtual nodes onto one
//! physical node does **not** change the application-level results ("results are nearly
//! identical", Figure 9). [`compare_folding`] quantifies that: it overlays the total-data curves
//! of runs with different folding ratios and reports their worst-case relative deviation from
//! the unfolded baseline.
//!
//! Since the metrics redesign the statistical machinery is workload-agnostic: the relative
//! curve deviation ([`relative_curve_deviation`]), Kolmogorov-Smirnov distances
//! ([`samples_ks_distance`], [`histogram_ks_distance`]) and the folding comparison over run
//! reports ([`compare_folding_reports`]) operate on plain series / sample sets / histogram
//! snapshots, so any workload that records through the [`Recorder`](p2plab_sim::Recorder) gets
//! the same analysis for free. The original [`compare_folding`] over [`SwarmResult`]s is
//! re-expressed on top of these primitives.

use crate::experiment::SwarmResult;
use crate::report::RunReport;
use p2plab_sim::{Cdf, HistogramSnapshot, SimDuration, SimTime, TimeSeries};
use serde::{Deserialize, Serialize};

/// Deviation of one folded run from the baseline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldingRow {
    /// Folding ratio of the run (virtual nodes per physical machine).
    pub folding_ratio: f64,
    /// Worst-case difference between the run's total-data curve and the baseline's, as a
    /// fraction of the final total.
    pub max_relative_deviation: f64,
    /// Kolmogorov-Smirnov distance between the completion-time distributions.
    pub completion_ks_distance: f64,
    /// Median completion time of this run.
    pub median_completion: Option<SimTime>,
    /// Fraction of downloaders that finished.
    pub completion_fraction: f64,
}

/// The folding-ratio comparison of Figure 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldingComparison {
    /// Folding ratio of the baseline run (normally 1:1).
    pub baseline_ratio: f64,
    /// One row per compared run.
    pub rows: Vec<FoldingRow>,
}

impl FoldingComparison {
    /// The largest relative deviation over all runs — the headline "no folding overhead" number.
    pub fn worst_deviation(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.max_relative_deviation)
            .fold(0.0, f64::max)
    }
}

fn completion_cdf(result: &SwarmResult) -> Cdf {
    Cdf::from_samples(
        result
            .completion_times
            .iter()
            .map(|t| t.as_secs_f64())
            .collect(),
    )
}

/// Worst-case difference between two curves on a shared regular grid, as a fraction of the
/// baseline's final value — the workload-agnostic form of the Figure 9 deviation measure.
/// Works on any non-negative progress-like series (bytes downloaded, nodes informed, replies
/// received).
pub fn relative_curve_deviation(
    baseline: &TimeSeries,
    other: &TimeSeries,
    step: SimDuration,
    end: SimTime,
) -> f64 {
    let final_total = baseline.last().map(|(_, v)| v).unwrap_or(0.0).max(1.0);
    baseline.max_abs_difference(other, step, end, 0.0) / final_total
}

/// Kolmogorov-Smirnov distance between two empirical sample sets.
pub fn samples_ks_distance(a: &[f64], b: &[f64]) -> f64 {
    Cdf::from_samples(a.to_vec()).ks_distance(&Cdf::from_samples(b.to_vec()))
}

/// Kolmogorov-Smirnov distance between two log-bucket histogram snapshots, computed over the
/// union of their bucket edges (each bucket's mass sits at its low edge). Exact up to the
/// bucket resolution: identical histograms give 0, and the error of a true KS distance is
/// bounded by the mass of the buckets the two histograms split differently.
pub fn histogram_ks_distance(a: &HistogramSnapshot, b: &HistogramSnapshot) -> f64 {
    if a.count == 0 || b.count == 0 {
        return if a.count == b.count { 0.0 } else { 1.0 };
    }
    let fraction_at = |h: &HistogramSnapshot, x: f64| -> f64 {
        let below: u64 = h
            .buckets
            .iter()
            .filter(|&&(edge, _)| edge <= x)
            .map(|&(_, c)| c)
            .sum();
        below as f64 / h.count as f64
    };
    let mut d: f64 = 0.0;
    for &(edge, _) in a.buckets.iter().chain(b.buckets.iter()) {
        d = d.max((fraction_at(a, edge) - fraction_at(b, edge)).abs());
    }
    d
}

/// Compares folded runs against a baseline run of the same experiment (Figure 9). This is the
/// swarm-specific entry point, expressed over the generic primitives
/// ([`relative_curve_deviation`], [`samples_ks_distance`]); for arbitrary workloads compare
/// their run reports with [`compare_folding_reports`].
pub fn compare_folding(baseline: &SwarmResult, folded: &[&SwarmResult]) -> FoldingComparison {
    let end = folded
        .iter()
        .map(|r| r.stopped_at)
        .chain(std::iter::once(baseline.stopped_at))
        .max()
        .unwrap_or(SimTime::ZERO);
    let step = SimDuration::from_secs(10);
    let secs = |times: &[SimTime]| -> Vec<f64> { times.iter().map(|t| t.as_secs_f64()).collect() };
    let baseline_completions = secs(&baseline.completion_times);
    let rows = folded
        .iter()
        .map(|r| FoldingRow {
            folding_ratio: r.folding_ratio,
            max_relative_deviation: relative_curve_deviation(
                &baseline.total_downloaded,
                &r.total_downloaded,
                step,
                end,
            ),
            completion_ks_distance: samples_ks_distance(
                &baseline_completions,
                &secs(&r.completion_times),
            ),
            median_completion: r.median_completion(),
            completion_fraction: if r.leechers == 0 {
                1.0
            } else {
                r.completed as f64 / r.leechers as f64
            },
        })
        .collect();
    FoldingComparison {
        baseline_ratio: baseline.folding_ratio,
        rows,
    }
}

/// Compares folded runs against a baseline using only their [`RunReport`]s — no
/// workload-specific result type involved. `curve_metric` names the progress-like series to
/// overlay (`"progress"` for any scenario run) and `completion_metric` names the histogram of
/// per-participant completion values whose distributions are compared by KS distance
/// (`"completion_time_secs"` for the swarm). Returns an error naming the missing metric when a
/// report does not carry the requested ones.
pub fn compare_folding_reports(
    baseline: &RunReport,
    folded: &[&RunReport],
    curve_metric: &str,
    completion_metric: &str,
) -> Result<FoldingComparison, String> {
    fn curve_of<'a>(r: &'a RunReport, name: &str) -> Result<&'a TimeSeries, String> {
        r.metrics
            .series(name)
            .ok_or_else(|| format!("report {:?} has no series metric {name:?}", r.scenario))
    }
    fn hist_of<'a>(r: &'a RunReport, name: &str) -> Result<&'a HistogramSnapshot, String> {
        r.metrics
            .histogram(name)
            .ok_or_else(|| format!("report {:?} has no histogram metric {name:?}", r.scenario))
    }
    let baseline_curve = curve_of(baseline, curve_metric)?;
    let baseline_hist = hist_of(baseline, completion_metric)?;
    let end = folded
        .iter()
        .map(|r| r.stopped_at)
        .chain(std::iter::once(baseline.stopped_at))
        .max()
        .unwrap_or(SimTime::ZERO);
    let step = SimDuration::from_secs(10);
    let mut rows = Vec::with_capacity(folded.len());
    for r in folded {
        let hist = hist_of(r, completion_metric)?;
        rows.push(FoldingRow {
            folding_ratio: r.folding_ratio,
            max_relative_deviation: relative_curve_deviation(
                baseline_curve,
                curve_of(r, curve_metric)?,
                step,
                end,
            ),
            completion_ks_distance: histogram_ks_distance(baseline_hist, hist),
            median_completion: hist.p50.map(SimTime::from_secs_f64),
            completion_fraction: if r.participants == 0 {
                1.0
            } else {
                hist.count as f64 / r.participants as f64
            },
        });
    }
    Ok(FoldingComparison {
        baseline_ratio: baseline.folding_ratio,
        rows,
    })
}

/// Summary statistics of a run's completion times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletionSummary {
    /// Number of downloaders that finished.
    pub completed: usize,
    /// Earliest completion.
    pub first: SimTime,
    /// Latest completion.
    pub last: SimTime,
    /// Median completion.
    pub median: SimTime,
    /// Spread between the 5th and 95th percentile, in seconds.
    pub p5_p95_spread_secs: f64,
}

/// Computes completion statistics for a run, if any downloader finished.
pub fn completion_summary(result: &SwarmResult) -> Option<CompletionSummary> {
    if result.completion_times.is_empty() {
        return None;
    }
    let cdf = completion_cdf(result);
    Some(CompletionSummary {
        completed: result.completion_times.len(),
        first: *result.completion_times.first().expect("non-empty"),
        last: *result.completion_times.last().expect("non-empty"),
        median: result.median_completion().expect("non-empty"),
        p5_p95_spread_secs: cdf.quantile(0.95).expect("non-empty")
            - cdf.quantile(0.05).expect("non-empty"),
    })
}

/// The three phases of a BitTorrent download the paper reads off Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DownloadPhases {
    /// End of the first phase: the moment downloaders other than the initial seeders start
    /// contributing upload capacity (first completion of *any* piece exchange between leechers
    /// is not observable from the curves, so this uses the first time aggregate progress
    /// accelerates past the initial seeder-only rate).
    pub seeder_only_until: SimTime,
    /// Time of the first completed download (start of the third phase, where finished clients
    /// help the others).
    pub first_completion: SimTime,
    /// Time of the last completed download.
    pub last_completion: SimTime,
}

/// Extracts the phase boundaries from a finished run.
pub fn download_phases(result: &SwarmResult) -> Option<DownloadPhases> {
    let first_completion = *result.completion_times.first()?;
    let last_completion = *result.completion_times.last()?;
    // Seeder-only phase: aggregate download rate while only the initial seeders upload is
    // bounded by their upload capacity. Detect the first sample where the rate over the
    // previous interval exceeds twice the rate of the very first active interval.
    let samples = result.total_downloaded.samples();
    let mut initial_rate = None;
    let mut seeder_only_until = first_completion;
    for w in samples.windows(2) {
        let dt = (w[1].0 - w[0].0).as_secs_f64();
        if dt <= 0.0 {
            continue;
        }
        let rate = (w[1].1 - w[0].1) / dt;
        if rate <= 0.0 {
            continue;
        }
        match initial_rate {
            None => initial_rate = Some(rate),
            Some(r0) if rate > 2.0 * r0 => {
                seeder_only_until = w[0].0;
                break;
            }
            Some(_) => {}
        }
    }
    Some(DownloadPhases {
        seeder_only_until,
        first_completion,
        last_completion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SwarmExperiment;
    use crate::scenario::{run_reported, run_scenario};

    fn quick_result(machines: usize, seed: u64) -> SwarmResult {
        let mut cfg = SwarmExperiment::quick();
        cfg.machines = machines;
        cfg.seed = seed;
        cfg.name = format!("quick-{machines}m");
        run_scenario(&cfg.to_scenario(), cfg.workload()).unwrap()
    }

    #[test]
    fn folding_comparison_of_identical_runs_is_zero() {
        let a = quick_result(4, 7);
        let b = quick_result(4, 7);
        let cmp = compare_folding(&a, &[&b]);
        assert_eq!(cmp.rows.len(), 1);
        assert!(cmp.worst_deviation() < 1e-12);
        assert!(cmp.rows[0].completion_ks_distance < 1e-12);
        assert_eq!(cmp.rows[0].completion_fraction, 1.0);
    }

    #[test]
    fn folding_comparison_across_ratios_is_small() {
        // The core Figure 9 claim at unit-test scale: fold the same quick swarm onto fewer
        // machines and the aggregate curves stay close.
        let spread = quick_result(15, 7); // ~1 virtual node per machine
        let folded = quick_result(1, 7); // everything on one machine
        let cmp = compare_folding(&spread, &[&folded]);
        assert!(
            cmp.worst_deviation() < 0.12,
            "deviation {} too large",
            cmp.worst_deviation()
        );
        assert!(cmp.rows[0].folding_ratio > 10.0 * cmp.baseline_ratio);
    }

    #[test]
    fn completion_summary_and_phases() {
        let r = quick_result(4, 7);
        let s = completion_summary(&r).unwrap();
        assert_eq!(s.completed, r.leechers);
        assert!(s.first <= s.median && s.median <= s.last);
        assert!(s.p5_p95_spread_secs >= 0.0);
        let phases = download_phases(&r).unwrap();
        assert!(phases.seeder_only_until <= phases.first_completion);
        assert!(phases.first_completion <= phases.last_completion);
    }

    #[test]
    fn empty_result_has_no_summary() {
        let mut r = quick_result(4, 7);
        r.completion_times.clear();
        assert!(completion_summary(&r).is_none());
        assert!(download_phases(&r).is_none());
    }

    #[test]
    fn generic_primitives_match_direct_computation() {
        let mut a = TimeSeries::new();
        let mut b = TimeSeries::new();
        for t in 0..=10u64 {
            a.push(SimTime::from_secs(t), (t * 10) as f64);
            b.push(
                SimTime::from_secs(t),
                (t * 10) as f64 + if t == 5 { 7.0 } else { 0.0 },
            );
        }
        let dev =
            relative_curve_deviation(&a, &b, SimDuration::from_secs(1), SimTime::from_secs(10));
        assert!((dev - 7.0 / 100.0).abs() < 1e-12);
        assert_eq!(samples_ks_distance(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(samples_ks_distance(&[1.0, 2.0], &[10.0, 20.0]), 1.0);
    }

    #[test]
    fn histogram_ks_is_zero_for_identical_and_one_for_disjoint() {
        use p2plab_sim::LogHistogram;
        let mut h1 = LogHistogram::new();
        let mut h2 = LogHistogram::new();
        let mut far = LogHistogram::new();
        for i in 1..=100 {
            h1.record(i as f64);
            h2.record(i as f64);
            far.record(i as f64 * 1e6);
        }
        assert_eq!(histogram_ks_distance(&h1.snapshot(), &h2.snapshot()), 0.0);
        assert_eq!(histogram_ks_distance(&h1.snapshot(), &far.snapshot()), 1.0);
        let empty = LogHistogram::new().snapshot();
        assert_eq!(histogram_ks_distance(&empty, &empty), 0.0);
        assert_eq!(histogram_ks_distance(&h1.snapshot(), &empty), 1.0);
    }

    #[test]
    fn folding_comparison_over_reports_matches_result_comparison() {
        let run = |machines: usize| {
            let mut cfg = SwarmExperiment::quick();
            cfg.leechers = 6;
            cfg.machines = machines;
            cfg.name = format!("report-folding-{machines}m");
            run_reported(&cfg.to_scenario(), cfg.workload()).unwrap()
        };
        let (spread_result, spread_report) = run(9);
        let (folded_result, folded_report) = run(1);

        let by_results = compare_folding(&spread_result, &[&folded_result]);
        let by_reports = compare_folding_reports(
            &spread_report,
            &[&folded_report],
            "progress",
            "completion_time_secs",
        )
        .unwrap();

        assert_eq!(by_reports.rows.len(), 1);
        assert_eq!(by_reports.baseline_ratio, by_results.baseline_ratio);
        // The curve deviation is computed from the same "progress" series the result carries,
        // so the two paths agree exactly.
        assert!(
            (by_reports.rows[0].max_relative_deviation - by_results.rows[0].max_relative_deviation)
                .abs()
                < 1e-12
        );
        // The report path sees bucketized completion times; distances agree up to the
        // histogram's bucket resolution.
        assert!(
            (by_reports.rows[0].completion_ks_distance - by_results.rows[0].completion_ks_distance)
                .abs()
                < 0.35
        );
        assert_eq!(by_reports.rows[0].completion_fraction, 1.0);
        assert!(by_reports.rows[0].median_completion.is_some());

        // Missing metrics are named, not silently zeroed.
        let err = compare_folding_reports(&spread_report, &[&folded_report], "progress", "nope")
            .unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }
}
