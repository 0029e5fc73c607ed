//! Property-based tests of the scheduler models: capacity conservation, per-core caps, and
//! completion-time sanity of the machine model.

use p2plab_os::{
    Machine, MemoryModel, OsKind, Pid, SchedulerKind, SchedulerModel, SimProcess, WorkloadSpec,
};
use p2plab_sim::{SimRng, SimTime};
use proptest::prelude::*;

fn processes(weights: &[f64], queues: &[usize]) -> Vec<SimProcess> {
    weights
        .iter()
        .zip(queues.iter().cycle())
        .enumerate()
        .map(|(i, (&w, &q))| SimProcess {
            pid: Pid(i as u64),
            spec: WorkloadSpec::cpu_bound(1.0),
            remaining_cpu: 1.0,
            started_at: SimTime::ZERO,
            weight: w,
            run_queue: q,
        })
        .collect()
}

proptest! {
    /// For every scheduler, the allocated rates never exceed the machine capacity, never exceed
    /// one core per process, and are never negative.
    #[test]
    fn rates_respect_capacity_and_caps(
        kind in prop::sample::select(vec![SchedulerKind::Bsd4, SchedulerKind::Ule, SchedulerKind::Linux26]),
        weights in prop::collection::vec(0.1f64..5.0, 1..40),
        queues in prop::collection::vec(0usize..4, 1..8),
        cores in 1usize..8,
    ) {
        let model = SchedulerModel::new(kind);
        let procs = processes(&weights, &queues);
        let refs: Vec<&SimProcess> = procs.iter().collect();
        let rates = model.allocate_rates(&refs, cores, 1.0);
        prop_assert_eq!(rates.len(), procs.len());
        let total: f64 = rates.values().sum();
        prop_assert!(total <= cores as f64 + 1e-6, "total {total} exceeds {cores} cores");
        for (&pid, &r) in &rates {
            prop_assert!(r >= 0.0, "negative rate for {pid}");
            prop_assert!(r <= 1.0 + 1e-9, "process {pid} got more than one core: {r}");
        }
    }

    /// Work-conservation for the global schedulers: with more runnable processes than cores,
    /// (almost) the whole machine is used — only the modelled context-switch overhead is lost.
    #[test]
    fn global_schedulers_are_work_conserving(
        weights in prop::collection::vec(0.5f64..2.0, 4..40),
        cores in 1usize..4,
    ) {
        for kind in [SchedulerKind::Bsd4, SchedulerKind::Linux26] {
            let model = SchedulerModel::new(kind);
            let procs = processes(&weights, &[0]);
            if procs.len() < cores {
                continue;
            }
            let refs: Vec<&SimProcess> = procs.iter().collect();
            let rates = model.allocate_rates(&refs, cores, 1.0);
            let total: f64 = rates.values().sum();
            let lost = model.switch_overhead(procs.len(), cores);
            prop_assert!(
                total >= cores as f64 * (1.0 - lost) - 1e-6,
                "{kind:?} wasted capacity: {total} of {cores}"
            );
        }
    }

    /// The machine model conserves work: total CPU delivered to completed processes equals
    /// their total demand, and nobody finishes faster than running alone would allow.
    #[test]
    fn machine_conserves_cpu_and_respects_lower_bound(
        demands in prop::collection::vec(0.1f64..3.0, 1..20),
        cores in 1usize..4,
    ) {
        let mut sched = SchedulerModel::new(SchedulerKind::Bsd4);
        sched.fairness_jitter = 0.0;
        let mut machine = Machine::new(
            "prop",
            cores,
            1.0,
            sched,
            OsKind::Linux,
            MemoryModel::grid_explorer(OsKind::Linux),
        );
        let mut rng = SimRng::new(1);
        for &d in &demands {
            machine
                .spawn(SimTime::ZERO, WorkloadSpec::cpu_bound(d), &mut rng)
                .unwrap();
        }
        // Drive completions to the end, advancing virtual time monotonically.
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        // A process is running until it completes.
        while machine.completed().len() < demands.len() {
            let (t, _) = machine.next_completion(now).expect("progress");
            machine.complete_due(t);
            now = t;
            guard += 1;
            prop_assert!(guard < 10_000, "did not converge");
        }
        let total_demand: f64 = demands.iter().sum();
        prop_assert!((machine.total_cpu_delivered() - total_demand).abs() < 1e-6);
        prop_assert_eq!(machine.completed().len(), demands.len());
        for c in machine.completed() {
            prop_assert!(c.wall_seconds + 1e-9 >= c.cpu_seconds, "finished faster than alone");
        }
    }

    /// Memory thrash factors are monotone in resident size and never below 1.
    #[test]
    fn thrash_factor_monotone(resident in prop::collection::vec(0u64..(8u64 << 30), 2..20)) {
        for os in [OsKind::FreeBsd, OsKind::Linux] {
            let model = MemoryModel::grid_explorer(os);
            let mut sorted = resident.clone();
            sorted.sort_unstable();
            let factors: Vec<f64> = sorted.iter().map(|&r| model.thrash_factor(r)).collect();
            for f in &factors {
                prop_assert!(*f >= 1.0);
            }
            for w in factors.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }
}
