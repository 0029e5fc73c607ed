//! The physical-machine model: cores + scheduler + memory, advanced by discrete events.
//!
//! A [`Machine`] is a fluid processor-sharing model. Between events every runnable process
//! progresses at the rate assigned by the [`SchedulerModel`]
//! (divided by the memory thrash factor); rates only change when the process set changes, so the
//! machine exposes `next_completion` for the driver to schedule the next interesting instant.

use crate::memory::{MemoryModel, OsKind};
use crate::process::{CompletedProcess, Pid, SimProcess};
use crate::sched::{SchedulerKind, SchedulerModel};
use crate::workload::WorkloadSpec;
use p2plab_sim::{SimDuration, SimRng, SimTime, Simulation, TypedEvent};
use std::collections::BTreeMap;

/// Error returned when a process cannot be spawned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnError {
    /// RAM + swap would be exhausted.
    OutOfMemory {
        /// Bytes requested by the new process.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of memory: requested {requested} bytes, {available} available"
                )
            }
        }
    }
}

impl std::error::Error for SpawnError {}

/// A physical node of the experimentation platform.
#[derive(Debug, Clone)]
pub struct Machine {
    name: String,
    cores: usize,
    core_speed: f64,
    sched: SchedulerModel,
    os: OsKind,
    memory: MemoryModel,
    procs: BTreeMap<Pid, SimProcess>,
    next_pid: u64,
    last_advance: SimTime,
    epoch: u64,
    completed: Vec<CompletedProcess>,
    total_cpu_delivered: f64,
}

impl Machine {
    /// Creates a machine.
    pub fn new(
        name: impl Into<String>,
        cores: usize,
        core_speed: f64,
        sched: SchedulerModel,
        os: OsKind,
        memory: MemoryModel,
    ) -> Machine {
        assert!(cores > 0, "a machine needs at least one core");
        assert!(core_speed > 0.0, "core speed must be positive");
        Machine {
            name: name.into(),
            cores,
            core_speed,
            sched,
            os,
            memory,
            procs: BTreeMap::new(),
            next_pid: 0,
            last_advance: SimTime::ZERO,
            epoch: 0,
            completed: Vec::new(),
            total_cpu_delivered: 0.0,
        }
    }

    /// A GridExplorer node as described in the paper, with the given scheduler/OS:
    /// dual-Opteron 2 GHz (two reference cores), 2 GB of RAM and 4 GB of swap.
    pub fn grid_explorer(name: impl Into<String>, scheduler: SchedulerKind, os: OsKind) -> Machine {
        Machine::new(
            name,
            2,
            1.0,
            SchedulerModel::new(scheduler),
            os,
            MemoryModel::grid_explorer(os),
        )
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The OS flavour.
    pub fn os(&self) -> OsKind {
        self.os
    }

    /// The scheduler model in use.
    pub fn scheduler(&self) -> &SchedulerModel {
        &self.sched
    }

    /// Monotonic counter bumped whenever the set of runnable processes (and therefore the rate
    /// allocation) changes. Drivers capture it to detect stale completion events.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records of all completed processes.
    pub fn completed(&self) -> &[CompletedProcess] {
        &self.completed
    }

    /// Sum of resident memory of running processes.
    pub fn resident_memory(&self) -> u64 {
        self.procs.values().map(|p| p.spec.memory_bytes).sum()
    }

    /// Current 1-second-style load figure: runnable processes per core.
    pub fn load(&self) -> f64 {
        self.procs.len() as f64 / self.cores as f64
    }

    /// Total CPU-seconds of work delivered so far (for utilization accounting).
    pub fn total_cpu_delivered(&self) -> f64 {
        self.total_cpu_delivered
    }

    /// Spawns a process at `now`. Fails if RAM + swap would be exhausted.
    pub fn spawn(
        &mut self,
        now: SimTime,
        spec: WorkloadSpec,
        rng: &mut SimRng,
    ) -> Result<Pid, SpawnError> {
        self.advance(now);
        let resident = self.resident_memory();
        let capacity = self.memory.capacity();
        if resident.saturating_add(spec.memory_bytes) > capacity {
            return Err(SpawnError::OutOfMemory {
                requested: spec.memory_bytes,
                available: capacity.saturating_sub(resident),
            });
        }
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let occupancy = self.queue_occupancy();
        let run_queue = self.sched.pick_queue(self.cores, &occupancy);
        let weight = self.sched.draw_weight(rng);
        self.procs.insert(
            pid,
            SimProcess {
                pid,
                spec,
                remaining_cpu: spec.cpu_seconds,
                started_at: now,
                weight,
                run_queue,
            },
        );
        self.epoch += 1;
        Ok(pid)
    }

    /// Current per-process CPU rates (CPU-seconds per second), after memory thrashing.
    pub fn current_rates(&self) -> BTreeMap<Pid, f64> {
        let refs: Vec<&SimProcess> = self.procs.values().collect();
        let raw = self
            .sched
            .allocate_rates(&refs, self.cores, self.core_speed);
        let thrash = self.memory.thrash_factor(self.resident_memory());
        raw.into_iter().map(|(pid, r)| (pid, r / thrash)).collect()
    }

    /// Integrates process progress from the last advance up to `now`.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let dt = (now - self.last_advance).as_secs_f64();
        let rates = self.current_rates();
        for (pid, proc_) in self.procs.iter_mut() {
            let rate = rates.get(pid).copied().unwrap_or(0.0);
            let work = rate * dt;
            let applied = work.min(proc_.remaining_cpu);
            proc_.remaining_cpu -= applied;
            self.total_cpu_delivered += applied;
        }
        self.last_advance = now;
    }

    /// The instant and pid of the next process to complete, given current rates. `None` if no
    /// process is running or none can make progress.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, Pid)> {
        let rates = self.current_rates();
        let offset = (now - self.last_advance).as_secs_f64();
        self.procs
            .values()
            .filter_map(|p| {
                let rate = rates.get(&p.pid).copied().unwrap_or(0.0);
                if rate <= 0.0 {
                    return None;
                }
                let secs = (p.remaining_cpu / rate - offset).max(0.0);
                Some((now + SimDuration::from_secs_f64(secs), p.pid))
            })
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Advances to `now` and retires every process whose demand is met. Returns the processes
    /// completed by this call.
    pub fn complete_due(&mut self, now: SimTime) -> Vec<CompletedProcess> {
        self.advance(now);
        let done: Vec<Pid> = self
            .procs
            .values()
            .filter(|p| p.remaining_cpu <= 1e-9)
            .map(|p| p.pid)
            .collect();
        let mut out = Vec::with_capacity(done.len());
        for pid in done {
            let p = self.procs.remove(&pid).expect("pid was just listed");
            let rec = CompletedProcess {
                pid,
                started_at: p.started_at,
                finished_at: now,
                wall_seconds: (now - p.started_at).as_secs_f64(),
                cpu_seconds: p.spec.cpu_seconds,
            };
            self.completed.push(rec);
            out.push(rec);
        }
        if !out.is_empty() {
            self.epoch += 1;
        }
        out
    }

    fn queue_occupancy(&self) -> Vec<usize> {
        let mut occ = vec![0; self.cores];
        for p in self.procs.values() {
            occ[p.run_queue % self.cores] += 1;
        }
        occ
    }
}

/// A simulation whose world *is* a [`Machine`] (the scheduler experiments).
pub type MachineSim = Simulation<Machine, MachineEvent>;

/// The events of a [`MachineSim`]. Each one that changes the process set arms the next
/// completion.
pub enum MachineEvent {
    /// Spawn a process running `spec`.
    Spawn(WorkloadSpec),
    /// The next process completion computed at `epoch`; stale once the process set changed.
    Complete {
        /// [`Machine::epoch`] when the event was armed.
        epoch: u64,
    },
}

impl TypedEvent<Machine> for MachineEvent {
    fn fire(self, sim: &mut MachineSim) {
        let now = sim.now();
        match self {
            MachineEvent::Spawn(spec) => {
                let (machine, rng) = sim.world_and_rng();
                machine
                    .spawn(now, spec, rng)
                    .expect("experiment exceeds RAM+swap; shrink the workload");
            }
            MachineEvent::Complete { epoch } if epoch == sim.world().epoch() => {
                sim.world_mut().complete_due(now);
            }
            MachineEvent::Complete { .. } => return,
        }
        if let Some((t, _pid)) = sim.world().next_completion(now) {
            let epoch = sim.world().epoch();
            sim.schedule_event_at(t, MachineEvent::Complete { epoch });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_rng() -> SimRng {
        SimRng::new(42)
    }

    fn quiet_machine(cores: usize) -> Machine {
        // A machine with no fairness jitter so tests are exact.
        let mut sched = SchedulerModel::new(SchedulerKind::Bsd4);
        sched.fairness_jitter = 0.0;
        sched.context_switch_cost = 0.0;
        Machine::new(
            "m0",
            cores,
            1.0,
            sched,
            OsKind::FreeBsd,
            MemoryModel::grid_explorer(OsKind::FreeBsd),
        )
    }

    #[test]
    fn single_process_runs_at_full_speed() {
        let mut m = quiet_machine(2);
        let mut rng = test_rng();
        m.spawn(SimTime::ZERO, WorkloadSpec::cpu_bound(3.0), &mut rng)
            .unwrap();
        let (t, _) = m.next_completion(SimTime::ZERO).unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-9);
        let done = m.complete_due(t);
        assert_eq!(done.len(), 1);
        assert!((done[0].wall_seconds - 3.0).abs() < 1e-9);
    }

    #[test]
    fn four_processes_on_two_cores_take_twice_as_long() {
        let mut m = quiet_machine(2);
        let mut rng = test_rng();
        for _ in 0..4 {
            m.spawn(SimTime::ZERO, WorkloadSpec::cpu_bound(1.0), &mut rng)
                .unwrap();
        }
        let (t, _) = m.next_completion(SimTime::ZERO).unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9, "t={t}");
        let done = m.complete_due(t);
        assert_eq!(done.len(), 4, "identical processes finish together");
        assert_eq!(m.procs.len(), 0);
    }

    #[test]
    fn completion_frees_capacity_for_remaining() {
        let mut m = quiet_machine(1);
        let mut rng = test_rng();
        m.spawn(SimTime::ZERO, WorkloadSpec::cpu_bound(1.0), &mut rng)
            .unwrap();
        m.spawn(SimTime::ZERO, WorkloadSpec::cpu_bound(2.0), &mut rng)
            .unwrap();
        // Shared: both at 0.5 cps. First finishes at t=2 having used 1.0 CPU-s; the second has
        // 1.0 CPU-s left and then runs alone, finishing at t=3.
        let (t1, _) = m.next_completion(SimTime::ZERO).unwrap();
        assert!((t1.as_secs_f64() - 2.0).abs() < 1e-9);
        m.complete_due(t1);
        assert_eq!(m.procs.len(), 1);
        let (t2, _) = m.next_completion(t1).unwrap();
        assert!((t2.as_secs_f64() - 3.0).abs() < 1e-9, "t2={t2}");
    }

    #[test]
    fn spawn_fails_beyond_ram_plus_swap() {
        let mut m = quiet_machine(2);
        let mut rng = test_rng();
        // 6 GB capacity (2 RAM + 4 swap); 7 x 1 GB must fail on the 7th.
        for i in 0..7 {
            let r = m.spawn(
                SimTime::ZERO,
                WorkloadSpec::memory_intensive(1.0, 1 << 30),
                &mut rng,
            );
            if i < 6 {
                assert!(r.is_ok(), "spawn {i} should fit");
            } else {
                assert!(matches!(r, Err(SpawnError::OutOfMemory { .. })));
            }
        }
    }

    #[test]
    fn memory_pressure_slows_execution() {
        let mut rng = test_rng();
        let mut run = |n: usize| {
            let mut m = quiet_machine(2);
            for _ in 0..n {
                m.spawn(
                    SimTime::ZERO,
                    WorkloadSpec::memory_intensive(1.0, 256 << 20),
                    &mut rng,
                )
                .unwrap();
            }
            let (t, _) = m.next_completion(SimTime::ZERO).unwrap();
            // Normalize per process so the comparison isolates the thrashing effect.
            t.as_secs_f64() * 2.0 / n as f64
        };
        let light = run(4); // 1 GB resident: fits
        let heavy = run(16); // 4 GB resident: swapping
        assert!(heavy > light * 2.0, "light={light} heavy={heavy}");
    }

    #[test]
    fn epoch_changes_on_spawn_and_completion() {
        let mut m = quiet_machine(2);
        let mut rng = test_rng();
        let e0 = m.epoch();
        m.spawn(SimTime::ZERO, WorkloadSpec::cpu_bound(1.0), &mut rng)
            .unwrap();
        let e1 = m.epoch();
        assert!(e1 > e0);
        let (t, _) = m.next_completion(SimTime::ZERO).unwrap();
        m.complete_due(t);
        assert!(m.epoch() > e1);
    }

    #[test]
    fn driver_loop_completes_all_processes() {
        let machine = quiet_machine(2);
        let mut sim: MachineSim = Simulation::new(machine, 7);
        for i in 0..10u64 {
            let spawn = MachineEvent::Spawn(WorkloadSpec::cpu_bound(1.65));
            sim.schedule_event_at(SimTime::from_secs(i), spawn);
        }
        sim.run();
        assert_eq!(sim.world().completed().len(), 10);
        assert_eq!(sim.world().procs.len(), 0);
        // Conservation: total CPU delivered equals total demand.
        assert!((sim.world().total_cpu_delivered() - 16.5).abs() < 1e-6);
    }

    #[test]
    fn load_and_resident_memory_reporting() {
        let mut m = quiet_machine(2);
        let mut rng = test_rng();
        m.spawn(
            SimTime::ZERO,
            WorkloadSpec::memory_intensive(1.0, 100 << 20),
            &mut rng,
        )
        .unwrap();
        m.spawn(
            SimTime::ZERO,
            WorkloadSpec::memory_intensive(1.0, 100 << 20),
            &mut rng,
        )
        .unwrap();
        assert_eq!(m.procs.len(), 2);
        assert_eq!(m.resident_memory(), 200 << 20);
        assert!((m.load() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grid_explorer_matches_paper() {
        let m = Machine::grid_explorer("node-1", SchedulerKind::Bsd4, OsKind::FreeBsd);
        assert_eq!(m.name(), "node-1");
        assert_eq!(m.cores(), 2);
        assert_eq!(m.os(), OsKind::FreeBsd);
        assert_eq!(m.memory.ram_bytes, 2 << 30);
        assert_eq!(m.memory.swap_bytes, 4 << 30);
    }
}
