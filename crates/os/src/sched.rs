//! CPU scheduler models.
//!
//! The paper evaluates three schedulers as candidate hosts for P2PLab: FreeBSD's classic 4BSD
//! scheduler, FreeBSD's ULE scheduler and Linux 2.6's scheduler, looking at (a) throughput under
//! many concurrent processes (Figures 1-2) and (b) fairness between identical processes started
//! together (Figure 3). The models here are *fluid* processor-sharing models with
//! scheduler-specific imperfections:
//!
//! * **4BSD**: one global run queue, decay-usage priorities — close to ideal fair sharing with a
//!   small per-process jitter.
//! * **ULE**: per-CPU run queues with imperfect balancing — noticeably larger spread between
//!   processes, matching the wider CDF the paper reports (and a knob reproducing the much worse
//!   FreeBSD 5 behaviour mentioned in the text).
//! * **Linux 2.6 (CFS-like)**: global fair sharing with the smallest jitter.
//!
//! The models allocate a *rate* (CPU-seconds per second) to every runnable process; the
//! [`Machine`](crate::machine::Machine) integrates those rates between events.

use crate::process::SimProcess;
use p2plab_sim::{FxBuildHasher, FxHashMap, SimRng};

/// Which scheduler a machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// FreeBSD's classic 4BSD scheduler (the one the paper ends up using for P2PLab).
    Bsd4,
    /// FreeBSD's ULE scheduler.
    Ule,
    /// Linux 2.6's scheduler.
    Linux26,
}

impl SchedulerKind {
    /// All modelled schedulers, in the order the paper's figures list them.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Ule,
        SchedulerKind::Bsd4,
        SchedulerKind::Linux26,
    ];

    /// Human-readable label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Bsd4 => "4BSD scheduler",
            SchedulerKind::Ule => "ULE scheduler",
            SchedulerKind::Linux26 => "Linux 2.6",
        }
    }
}

/// Tunable parameters of a scheduler model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerModel {
    /// Which scheduler this parameterizes.
    pub kind: SchedulerKind,
    /// Standard deviation of the per-process share weight (relative). This is the source of the
    /// completion-time spread in Figure 3.
    pub fairness_jitter: f64,
    /// Cost of one context switch, in seconds.
    pub context_switch_cost: f64,
    /// Scheduling quantum, in seconds (how often switches happen under contention).
    pub timeslice: f64,
    /// Whether the scheduler uses per-CPU run queues (ULE) instead of a global queue.
    pub per_cpu_queues: bool,
    /// For per-CPU queues: fraction of the capacity of an idle queue's core that is *not*
    /// recovered by work stealing (0 = perfect balancing). The paper notes FreeBSD 5's ULE
    /// sometimes let a process run alone on a CPU; FreeBSD 6 fixed this. Setting this close to
    /// 1 reproduces the FreeBSD 5 misbehaviour.
    pub balance_loss: f64,
}

impl SchedulerModel {
    /// Default parameterization of a scheduler, calibrated to reproduce the paper's figures.
    pub fn new(kind: SchedulerKind) -> SchedulerModel {
        match kind {
            SchedulerKind::Bsd4 => SchedulerModel {
                kind,
                fairness_jitter: 0.012,
                context_switch_cost: 6e-6,
                timeslice: 0.1,
                per_cpu_queues: false,
                balance_loss: 0.0,
            },
            SchedulerKind::Ule => SchedulerModel {
                kind,
                fairness_jitter: 0.09,
                context_switch_cost: 5e-6,
                timeslice: 0.1,
                per_cpu_queues: true,
                balance_loss: 0.02,
            },
            SchedulerKind::Linux26 => SchedulerModel {
                kind,
                fairness_jitter: 0.008,
                context_switch_cost: 4e-6,
                timeslice: 0.1,
                per_cpu_queues: false,
                balance_loss: 0.0,
            },
        }
    }

    /// Draws the share weight of a newly spawned process.
    pub fn draw_weight(&self, rng: &mut SimRng) -> f64 {
        (rng.normal(1.0, self.fairness_jitter)).max(0.1)
    }

    /// Picks the run queue for a newly spawned process on a machine with `cores` CPUs, given
    /// the current queue occupancy. ULE inserts into the shortest queue (ties broken by index);
    /// global-queue schedulers always report queue 0.
    pub fn pick_queue(&self, cores: usize, occupancy: &[usize]) -> usize {
        if !self.per_cpu_queues || cores <= 1 {
            return 0;
        }
        debug_assert_eq!(occupancy.len(), cores);
        occupancy
            .iter()
            .enumerate()
            .min_by_key(|(_, &n)| n)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Fraction of CPU capacity lost to context switching when `runnable` processes compete for
    /// `cores` CPUs.
    pub fn switch_overhead(&self, runnable: usize, cores: usize) -> f64 {
        if runnable <= cores || self.timeslice <= 0.0 {
            0.0
        } else {
            (self.context_switch_cost / self.timeslice).min(0.5)
        }
    }

    /// Allocates CPU rates (in CPU-seconds per second) to the given processes.
    ///
    /// `core_speed` is the work rate of one core relative to the reference core of
    /// [`WorkloadSpec::cpu_seconds`](crate::workload::WorkloadSpec::cpu_seconds) (1.0 = same
    /// speed). The returned map assigns each process its current rate; rates respect the
    /// per-core cap (a single process can never use more than one core).
    pub fn allocate_rates(
        &self,
        procs: &[&SimProcess],
        cores: usize,
        core_speed: f64,
    ) -> FxHashMap<crate::process::Pid, f64> {
        let mut rates = FxHashMap::with_capacity_and_hasher(procs.len(), FxBuildHasher::default());
        if procs.is_empty() || cores == 0 || core_speed <= 0.0 {
            return rates;
        }
        let overhead = self.switch_overhead(procs.len(), cores);
        let effective_core = core_speed * (1.0 - overhead);

        if self.per_cpu_queues && cores > 1 {
            // Group processes by run queue; each queue owns one core. Idle cores donate
            // (1 - balance_loss) of their capacity, spread evenly over the busy queues.
            let mut queues: Vec<Vec<&SimProcess>> = vec![Vec::new(); cores];
            for p in procs {
                queues[p.run_queue % cores].push(p);
            }
            let busy = queues.iter().filter(|q| !q.is_empty()).count();
            let idle = cores - busy;
            let donated = if busy > 0 {
                idle as f64 * effective_core * (1.0 - self.balance_loss) / busy as f64
            } else {
                0.0
            };
            for queue in queues.iter().filter(|q| !q.is_empty()) {
                let capacity = effective_core + donated;
                fair_share(queue, capacity, effective_core, &mut rates);
            }
        } else {
            let capacity = effective_core * cores as f64;
            fair_share(procs, capacity, effective_core, &mut rates);
        }
        rates
    }
}

/// Weighted max-min fair sharing of `capacity` among `procs`, with each process individually
/// capped at `per_proc_cap` (one core).
fn fair_share(
    procs: &[&SimProcess],
    capacity: f64,
    per_proc_cap: f64,
    rates: &mut FxHashMap<crate::process::Pid, f64>,
) {
    let mut remaining: Vec<&SimProcess> = procs.to_vec();
    let mut capacity_left = capacity;
    // Water-filling: repeatedly hand out proportional shares; processes that would exceed the
    // per-core cap are pinned at the cap and removed from the pool.
    loop {
        if remaining.is_empty() || capacity_left <= 0.0 {
            for p in &remaining {
                rates.insert(p.pid, 0.0);
            }
            break;
        }
        let total_weight: f64 = remaining.iter().map(|p| p.weight).sum();
        let mut capped = Vec::new();
        let mut uncapped = Vec::new();
        for p in &remaining {
            let share = capacity_left * p.weight / total_weight;
            if share >= per_proc_cap {
                capped.push(*p);
            } else {
                uncapped.push(*p);
            }
        }
        if capped.is_empty() {
            for p in &uncapped {
                let share = capacity_left * p.weight / total_weight;
                rates.insert(p.pid, share);
            }
            break;
        }
        for p in &capped {
            rates.insert(p.pid, per_proc_cap);
            capacity_left -= per_proc_cap;
        }
        remaining = uncapped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Pid;
    use crate::workload::WorkloadSpec;
    use p2plab_sim::SimTime;

    fn proc(pid: u64, weight: f64, queue: usize) -> SimProcess {
        SimProcess {
            pid: Pid(pid),
            spec: WorkloadSpec::cpu_bound(1.0),
            remaining_cpu: 1.0,
            started_at: SimTime::ZERO,
            weight,
            run_queue: queue,
        }
    }

    fn rates_of(model: &SchedulerModel, procs: &[SimProcess], cores: usize) -> Vec<f64> {
        let refs: Vec<&SimProcess> = procs.iter().collect();
        let rates = model.allocate_rates(&refs, cores, 1.0);
        procs.iter().map(|p| rates[&p.pid]).collect()
    }

    #[test]
    fn single_process_gets_one_core() {
        let m = SchedulerModel::new(SchedulerKind::Bsd4);
        let procs = vec![proc(1, 1.0, 0)];
        let r = rates_of(&m, &procs, 2);
        assert!((r[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn few_processes_each_get_a_core() {
        let m = SchedulerModel::new(SchedulerKind::Linux26);
        let procs = vec![proc(1, 1.0, 0), proc(2, 1.0, 0)];
        let r = rates_of(&m, &procs, 4);
        assert!(r.iter().all(|&x| (x - 1.0).abs() < 1e-9));
    }

    #[test]
    fn contention_shares_capacity() {
        let m = SchedulerModel::new(SchedulerKind::Bsd4);
        let procs: Vec<_> = (0..8).map(|i| proc(i, 1.0, 0)).collect();
        let r = rates_of(&m, &procs, 2);
        let total: f64 = r.iter().sum();
        // Total allocated must equal capacity minus switch overhead.
        let expected = 2.0 * (1.0 - m.switch_overhead(8, 2));
        assert!((total - expected).abs() < 1e-9, "total={total}");
        // Equal weights -> equal shares.
        assert!(r.iter().all(|&x| (x - r[0]).abs() < 1e-9));
    }

    #[test]
    fn weights_bias_shares() {
        let m = SchedulerModel::new(SchedulerKind::Bsd4);
        let procs = vec![
            proc(1, 2.0, 0),
            proc(2, 1.0, 0),
            proc(3, 1.0, 0),
            proc(4, 1.0, 0),
        ];
        let r = rates_of(&m, &procs, 2);
        assert!(r[0] > r[1]);
        assert!((r[1] - r[2]).abs() < 1e-9);
    }

    #[test]
    fn cap_respected_with_skewed_weights() {
        let m = SchedulerModel::new(SchedulerKind::Bsd4);
        // One heavy process cannot exceed one core even with a huge weight.
        let procs = vec![proc(1, 100.0, 0), proc(2, 1.0, 0), proc(3, 1.0, 0)];
        let r = rates_of(&m, &procs, 2);
        assert!(r[0] <= 1.0 + 1e-9);
        // Leftover capacity goes to the others.
        assert!(r[1] > 0.4 && r[2] > 0.4);
    }

    #[test]
    fn ule_uses_per_queue_sharing() {
        let m = SchedulerModel::new(SchedulerKind::Ule);
        // 3 processes on queue 0, 1 process on queue 1, 2 cores: the lone process gets a full
        // core while the others share one.
        let procs = vec![
            proc(1, 1.0, 0),
            proc(2, 1.0, 0),
            proc(3, 1.0, 0),
            proc(4, 1.0, 1),
        ];
        let r = rates_of(&m, &procs, 2);
        assert!(
            r[3] > r[0] * 2.0,
            "lone queue process should be privileged: {r:?}"
        );
    }

    #[test]
    fn ule_idle_queue_donates_capacity() {
        let mut m = SchedulerModel::new(SchedulerKind::Ule);
        m.balance_loss = 0.0;
        // All processes on queue 0, queue 1 idle: with perfect stealing both cores are used.
        let procs = vec![
            proc(1, 1.0, 0),
            proc(2, 1.0, 0),
            proc(3, 1.0, 0),
            proc(4, 1.0, 0),
        ];
        let r = rates_of(&m, &procs, 2);
        let total: f64 = r.iter().sum();
        let expected = 2.0 * (1.0 - m.switch_overhead(4, 2));
        assert!((total - expected).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn pick_queue_balances() {
        let m = SchedulerModel::new(SchedulerKind::Ule);
        assert_eq!(m.pick_queue(2, &[3, 1]), 1);
        assert_eq!(m.pick_queue(2, &[1, 1]), 0);
        let global = SchedulerModel::new(SchedulerKind::Bsd4);
        assert_eq!(global.pick_queue(2, &[5, 0]), 0);
    }

    #[test]
    fn switch_overhead_only_under_contention() {
        let m = SchedulerModel::new(SchedulerKind::Bsd4);
        assert_eq!(m.switch_overhead(2, 2), 0.0);
        assert!(m.switch_overhead(100, 2) > 0.0);
        assert!(m.switch_overhead(100, 2) < 0.001);
    }

    #[test]
    fn jitter_ordering_matches_paper() {
        // Figure 3: ULE spread > 4BSD spread ~ Linux spread.
        let ule = SchedulerModel::new(SchedulerKind::Ule);
        let bsd = SchedulerModel::new(SchedulerKind::Bsd4);
        let linux = SchedulerModel::new(SchedulerKind::Linux26);
        assert!(ule.fairness_jitter > bsd.fairness_jitter);
        assert!(bsd.fairness_jitter >= linux.fairness_jitter);
    }

    #[test]
    fn draw_weight_is_positive_and_centered() {
        let m = SchedulerModel::new(SchedulerKind::Ule);
        let mut rng = SimRng::new(1);
        let ws: Vec<f64> = (0..2000).map(|_| m.draw_weight(&mut rng)).collect();
        assert!(ws.iter().all(|&w| w > 0.0));
        let mean = ws.iter().sum::<f64>() / ws.len() as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean={mean}");
    }
}
