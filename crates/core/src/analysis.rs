//! Result analysis: folding-ratio invariance, completion statistics and download phases.
//!
//! The paper's central claim for P2PLab's usefulness is that folding many virtual nodes onto one
//! physical node does **not** change the application-level results ("results are nearly
//! identical", Figure 9). [`compare_folding`] quantifies that: it overlays the progress curves
//! of runs with different folding ratios and reports their worst-case relative deviation from
//! the unfolded baseline.
//!
//! Everything here works over plain data: the relative curve deviation
//! ([`relative_curve_deviation`]) over any two series, the Kolmogorov-Smirnov distance
//! ([`samples_ks_distance`]) over any two sample sets, and the completion statistics over a
//! sorted list of completion times — what a swarm world's
//! [`completion_times`](p2plab_bittorrent::SwarmWorld::completion_times) returns. A run's curve,
//! folding ratio, participant count and stop time come from its [`RunReport`].

use crate::report::RunReport;
use p2plab_sim::{Cdf, SimDuration, SimTime, TimeSeries};

/// Deviation of one folded run from the baseline run.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

/// Compares folded runs against a baseline run of the same experiment (Figure 9). A run is its
/// report — progress curve, folding ratio, participants, stop time — and the exact completion
/// times of its participants, sorted (a swarm world's
/// [`completion_times`](p2plab_bittorrent::SwarmWorld::completion_times)).
pub fn compare_folding(
    baseline: (&RunReport, &[SimTime]),
    folded: &[(&RunReport, &[SimTime])],
) -> FoldingComparison {
    let (base, base_times) = baseline;
    let end = folded
        .iter()
        .map(|(r, _)| r.stopped_at)
        .chain(std::iter::once(base.stopped_at))
        .max()
        .unwrap_or(SimTime::ZERO);
    let step = SimDuration::from_secs(10);
    let secs = |times: &[SimTime]| -> Vec<f64> { times.iter().map(|t| t.as_secs_f64()).collect() };
    let baseline_completions = secs(base_times);
    let rows = folded
        .iter()
        .map(|&(r, times)| FoldingRow {
            folding_ratio: r.folding_ratio,
            max_relative_deviation: relative_curve_deviation(
                base.progress(),
                r.progress(),
                step,
                end,
            ),
            completion_ks_distance: samples_ks_distance(&baseline_completions, &secs(times)),
            median_completion: times.get(times.len() / 2).copied(),
            completion_fraction: if r.participants == 0 {
                1.0
            } else {
                times.len() as f64 / r.participants as f64
            },
        })
        .collect();
    FoldingComparison {
        baseline_ratio: base.folding_ratio,
        rows,
    }
}

/// Summary statistics of a run's completion times.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Computes completion statistics over sorted completion times, if there are any.
pub fn completion_summary(times: &[SimTime]) -> Option<CompletionSummary> {
    let (&first, &last) = (times.first()?, times.last()?);
    let cdf = Cdf::from_samples(times.iter().map(|t| t.as_secs_f64()).collect());
    Some(CompletionSummary {
        completed: times.len(),
        first,
        last,
        median: times[times.len() / 2],
        p5_p95_spread_secs: cdf.quantile(0.95).expect("non-empty")
            - cdf.quantile(0.05).expect("non-empty"),
    })
}

/// The three phases of a BitTorrent download the paper reads off Figure 8.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Extracts the phase boundaries from a run's sorted completion times and its total-data curve
/// (a swarm report's `progress` series).
pub fn download_phases(times: &[SimTime], total_downloaded: &TimeSeries) -> Option<DownloadPhases> {
    let first_completion = *times.first()?;
    let last_completion = *times.last()?;
    // Seeder-only phase: aggregate download rate while only the initial seeders upload is
    // bounded by their upload capacity. Detect the first sample where the rate over the
    // previous interval exceeds twice the rate of the very first active interval.
    let samples = total_downloaded.samples();
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
    use crate::scenario::dsl::ScenarioFile;
    use crate::scenario::run_scenario;
    use crate::workloads::{SwarmWorkload, WorkloadConfig};

    /// The quick swarm (`examples/scenarios/swarm_quick.toml`) on `machines` machines: its
    /// report and its sorted completion times.
    fn quick_run(machines: usize, seed: u64) -> (RunReport, Vec<SimTime>) {
        let text = include_str!("../../../examples/scenarios/swarm_quick.toml");
        let overrides = format!(
            "scenario.machines = {machines}\nscenario.seed = {seed}\n\
             scenario.name = \"quick-{machines}m\"\n"
        );
        let file = ScenarioFile::parse_with(text, &overrides).unwrap();
        let WorkloadConfig::Swarm(swarm) = file.workload else {
            panic!("swarm_quick.toml is a swarm scenario");
        };
        let (world, report) = run_scenario(&file.spec, SwarmWorkload::new(swarm)).unwrap();
        (report, world.completion_times())
    }

    #[test]
    fn folding_comparison_of_identical_runs_is_zero() {
        let (a, a_times) = quick_run(4, 7);
        let (b, b_times) = quick_run(4, 7);
        let cmp = compare_folding((&a, &a_times), &[(&b, &b_times)]);
        assert_eq!(cmp.rows.len(), 1);
        assert!(cmp.worst_deviation() < 1e-12);
        assert!(cmp.rows[0].completion_ks_distance < 1e-12);
        assert_eq!(cmp.rows[0].completion_fraction, 1.0);
        assert_eq!(
            cmp.rows[0].median_completion,
            Some(b_times[b_times.len() / 2])
        );
    }

    #[test]
    fn folding_comparison_across_ratios_is_small() {
        // The core Figure 9 claim at unit-test scale: fold the same quick swarm onto fewer
        // machines and the aggregate curves stay close.
        let (spread, spread_times) = quick_run(15, 7); // ~1 virtual node per machine
        let (folded, folded_times) = quick_run(1, 7); // everything on one machine
        let cmp = compare_folding((&spread, &spread_times), &[(&folded, &folded_times)]);
        assert!(
            cmp.worst_deviation() < 0.12,
            "deviation {} too large",
            cmp.worst_deviation()
        );
        assert!(cmp.rows[0].folding_ratio > 10.0 * cmp.baseline_ratio);
    }

    #[test]
    fn completion_summary_and_phases() {
        let (report, times) = quick_run(4, 7);
        let s = completion_summary(&times).unwrap();
        assert_eq!(s.completed, report.participants);
        assert!(s.first <= s.median && s.median <= s.last);
        assert!(s.p5_p95_spread_secs >= 0.0);
        let phases = download_phases(&times, report.progress()).unwrap();
        assert!(phases.seeder_only_until <= phases.first_completion);
        assert!(phases.first_completion <= phases.last_completion);
    }

    #[test]
    fn no_completions_have_no_summary() {
        assert!(completion_summary(&[]).is_none());
        assert!(download_phases(&[], &TimeSeries::new()).is_none());
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
}
