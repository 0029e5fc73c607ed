//! Process state tracked by the machine model.

use crate::workload::WorkloadSpec;
use p2plab_sim::SimTime;

/// Identifier of a process on a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A process currently running on a machine.
#[derive(Debug, Clone)]
pub struct SimProcess {
    /// Process id.
    pub pid: Pid,
    /// Demanded resources.
    pub spec: WorkloadSpec,
    /// CPU seconds still to be executed.
    pub remaining_cpu: f64,
    /// When the process was spawned.
    pub started_at: SimTime,
    /// Scheduling weight: 1.0 is nominal; the scheduler model perturbs this to reproduce the
    /// fairness differences of Figure 3.
    pub weight: f64,
    /// ULE-style run-queue assignment (index of the CPU whose queue holds this process).
    pub run_queue: usize,
}

/// Record of a finished process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedProcess {
    /// Process id.
    pub pid: Pid,
    /// Spawn time.
    pub started_at: SimTime,
    /// Completion time.
    pub finished_at: SimTime,
    /// Wall-clock (virtual) duration from spawn to completion, in seconds.
    pub wall_seconds: f64,
    /// CPU seconds the process demanded.
    pub cpu_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_displays_compactly() {
        assert_eq!(Pid(7).to_string(), "pid7");
    }
}
