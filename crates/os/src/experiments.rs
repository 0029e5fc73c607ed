//! Drivers for the scheduler-suitability experiments (Figures 1-3 of the paper).
//!
//! These reproduce the methodology described in the paper's "Suitability of FreeBSD" section:
//! start `n` identical processes (nearly) simultaneously on one dual-core node, wait for all of
//! them to finish and report either the average per-process execution time (Figures 1-2) or the
//! full distribution of completion times (Figure 3).

use crate::machine::{Machine, MachineEvent, MachineSim};
use crate::memory::OsKind;
use crate::process::CompletedProcess;
use crate::sched::SchedulerKind;
use crate::workload::WorkloadSpec;
use p2plab_sim::{Cdf, SimDuration, SimTime, Simulation, Summary};

/// Fixed per-experiment cost (process creation, measurement harness, warm-up) in seconds.
///
/// The paper observes that the average per-process time *decreases* slightly as the number of
/// concurrent processes grows, "probably because of cache effects and costs that don't depend on
/// the number of processes"; this constant is that amortized cost.
pub const EXPERIMENT_FIXED_COST_SECS: f64 = 0.04;

/// Result of running one batch of identical concurrent processes on one machine.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Scheduler used.
    pub scheduler: SchedulerKind,
    /// OS used.
    pub os: OsKind,
    /// Number of concurrent processes.
    pub concurrency: usize,
    /// Per-process completion records.
    pub completions: Vec<CompletedProcess>,
    /// Wall-clock (virtual) time until the last process finished, in seconds.
    pub wall_seconds: f64,
    /// The figure-1/2 metric: average per-process execution time, i.e. the wall time normalized
    /// by the machine parallelism plus the amortized fixed cost.
    pub avg_per_process_seconds: f64,
}

impl BatchResult {
    /// Distribution of individual completion times (for the Figure 3 CDF).
    pub fn completion_time_cdf(&self) -> Cdf {
        Cdf::from_samples(self.completions.iter().map(|c| c.wall_seconds).collect())
    }

    /// Summary of individual completion times.
    pub fn completion_summary(&self) -> Option<Summary> {
        Summary::of(
            &self
                .completions
                .iter()
                .map(|c| c.wall_seconds)
                .collect::<Vec<_>>(),
        )
    }
}

/// Configuration of a concurrent-batch experiment.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Scheduler flavour of the host.
    pub scheduler: SchedulerKind,
    /// OS flavour of the host.
    pub os: OsKind,
    /// Number of concurrent processes to start.
    pub concurrency: usize,
    /// What each process does.
    pub workload: WorkloadSpec,
    /// Delay between consecutive process starts (the paper starts them "at the same time" from
    /// a high-priority launcher; a tiny stagger models the launcher's loop).
    pub stagger: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl BatchConfig {
    /// The Figure 1 configuration for a given scheduler and concurrency.
    pub fn figure1(scheduler: SchedulerKind, concurrency: usize) -> BatchConfig {
        BatchConfig {
            scheduler,
            os: host_os(scheduler),
            concurrency,
            workload: WorkloadSpec::ackermann(),
            stagger: SimDuration::from_micros(200),
            seed: 2006,
        }
    }

    /// The Figure 2 configuration (memory-intensive workload).
    pub fn figure2(scheduler: SchedulerKind, concurrency: usize) -> BatchConfig {
        BatchConfig {
            workload: WorkloadSpec::matrix(),
            ..BatchConfig::figure1(scheduler, concurrency)
        }
    }

    /// The Figure 3 configuration: 100 instances of the ~5 s job.
    pub fn figure3(scheduler: SchedulerKind) -> BatchConfig {
        BatchConfig {
            workload: WorkloadSpec::fairness_job(),
            ..BatchConfig::figure1(scheduler, 100)
        }
    }
}

/// The OS a scheduler runs on (ULE and 4BSD are FreeBSD schedulers, Linux 2.6 is Linux).
pub fn host_os(scheduler: SchedulerKind) -> OsKind {
    match scheduler {
        SchedulerKind::Bsd4 | SchedulerKind::Ule => OsKind::FreeBsd,
        SchedulerKind::Linux26 => OsKind::Linux,
    }
}

/// Runs one concurrent batch to completion and returns the measurements.
pub fn run_batch(config: BatchConfig) -> BatchResult {
    let machine = Machine::grid_explorer("node", config.scheduler, config.os);
    let cores = machine.cores();
    let mut sim: MachineSim = Simulation::new(machine, config.seed);
    for i in 0..config.concurrency {
        let at = SimTime::ZERO + config.stagger * i as u64;
        sim.schedule_event_at(at, MachineEvent::Spawn(config.workload));
    }
    sim.run();
    let machine = sim.world();
    assert_eq!(
        machine.completed().len(),
        config.concurrency,
        "all processes must have completed"
    );
    let wall_seconds = machine
        .completed()
        .iter()
        .map(|c| c.finished_at.as_secs_f64())
        .fold(0.0, f64::max);
    let parallelism = cores.min(config.concurrency.max(1)) as f64;
    let avg_per_process_seconds = wall_seconds * parallelism / config.concurrency as f64
        + EXPERIMENT_FIXED_COST_SECS / config.concurrency as f64;
    BatchResult {
        scheduler: config.scheduler,
        os: config.os,
        concurrency: config.concurrency,
        completions: machine.completed().to_vec(),
        wall_seconds,
        avg_per_process_seconds,
    }
}

/// One point of Figure 1 / Figure 2: `(concurrency, avg per-process execution time)`.
pub fn scaling_point(config: BatchConfig) -> (usize, f64) {
    let r = run_batch(config);
    (r.concurrency, r.avg_per_process_seconds)
}

/// Runs the whole Figure 1 sweep for one scheduler.
pub fn figure1_sweep(scheduler: SchedulerKind, concurrencies: &[usize]) -> Vec<(usize, f64)> {
    concurrencies
        .iter()
        .map(|&n| scaling_point(BatchConfig::figure1(scheduler, n)))
        .collect()
}

/// Runs the whole Figure 2 sweep for one scheduler.
pub fn figure2_sweep(scheduler: SchedulerKind, concurrencies: &[usize]) -> Vec<(usize, f64)> {
    concurrencies
        .iter()
        .map(|&n| scaling_point(BatchConfig::figure2(scheduler, n)))
        .collect()
}

/// Runs the Figure 3 fairness experiment for one scheduler and returns the CDF of completion
/// times.
pub fn figure3_fairness(scheduler: SchedulerKind) -> Cdf {
    run_batch(BatchConfig::figure3(scheduler)).completion_time_cdf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_no_overhead_from_concurrency() {
        // The defining property of Figure 1: the per-process execution time stays within a few
        // percent of the stand-alone 1.65 s whatever the concurrency.
        for sched in SchedulerKind::ALL {
            let points = figure1_sweep(sched, &[1, 2, 10, 100, 400]);
            for (n, avg) in &points {
                assert!((*avg - 1.65).abs() < 0.06, "{sched:?} at n={n}: avg={avg}");
            }
            // And it decreases (amortized fixed costs), as the paper observes.
            assert!(points.first().unwrap().1 > points.last().unwrap().1);
        }
    }

    #[test]
    fn figure2_freebsd_swap_cliff() {
        let bsd = figure2_sweep(SchedulerKind::Bsd4, &[5, 20, 50]);
        let linux = figure2_sweep(SchedulerKind::Linux26, &[5, 20, 50]);
        // Below the RAM limit: both flat and close.
        assert!((bsd[0].1 - linux[0].1).abs() < 0.2);
        // Above the RAM limit (50 x 80 MB = 4 GB > 2 GB): FreeBSD blows up, Linux does not.
        let bsd_50 = bsd[2].1;
        let linux_50 = linux[2].1;
        assert!(bsd_50 > 3.0 * linux_50, "bsd={bsd_50} linux={linux_50}");
        assert!(
            bsd_50 > 4.0,
            "bsd at 50 procs should be several seconds: {bsd_50}"
        );
        assert!(linux_50 < 2.5, "linux should stay nearly flat: {linux_50}");
    }

    #[test]
    fn figure3_ule_is_less_fair() {
        let ule = figure3_fairness(SchedulerKind::Ule);
        let bsd = figure3_fairness(SchedulerKind::Bsd4);
        let linux = figure3_fairness(SchedulerKind::Linux26);
        let spread = |cdf: &Cdf| cdf.quantile(0.95).unwrap() - cdf.quantile(0.05).unwrap();
        assert!(
            spread(&ule) > 2.0 * spread(&bsd),
            "ule={} bsd={}",
            spread(&ule),
            spread(&bsd)
        );
        assert!(spread(&ule) > 2.0 * spread(&linux));
        // All centred near 100 * 5 s / 2 cores = 250 s.
        for cdf in [&ule, &bsd, &linux] {
            let median = cdf.quantile(0.5).unwrap();
            assert!((median - 250.0).abs() < 25.0, "median={median}");
        }
    }

    #[test]
    fn batch_result_accounting() {
        let r = run_batch(BatchConfig::figure1(SchedulerKind::Bsd4, 8));
        assert_eq!(r.completions.len(), 8);
        assert_eq!(r.completion_time_cdf().len(), 8);
        let summary = r.completion_summary().unwrap();
        assert!(summary.mean > 0.0);
        assert!(r.wall_seconds >= summary.max - 1e-9);
    }

    #[test]
    fn host_os_mapping() {
        assert_eq!(host_os(SchedulerKind::Bsd4), OsKind::FreeBsd);
        assert_eq!(host_os(SchedulerKind::Ule), OsKind::FreeBsd);
        assert_eq!(host_os(SchedulerKind::Linux26), OsKind::Linux);
    }
}
