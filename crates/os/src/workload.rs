//! Workload specifications for the scheduler-suitability experiments.
//!
//! The paper uses three synthetic programs: an Ackermann-function computation (CPU-bound,
//! ~1.65 s alone), a large-matrix workload (CPU- and memory-intensive), and a ~5 s CPU-bound
//! job for the fairness experiment. These are captured here as resource demands rather than as
//! actual computations: what matters to the scheduler model is how many CPU-seconds and how much
//! resident memory a process needs.

/// Resource demand of one process instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// CPU time needed to complete, in seconds of a reference core.
    pub cpu_seconds: f64,
    /// Resident set size while running, in bytes.
    pub memory_bytes: u64,
}

impl WorkloadSpec {
    /// A purely CPU-bound workload. The footprint is a few hundred kilobytes of text and stack,
    /// so that even 1000 concurrent instances (the right edge of Figure 1) stay far below the
    /// 2 GB of RAM of a GridExplorer node and never touch swap.
    pub fn cpu_bound(cpu_seconds: f64) -> Self {
        WorkloadSpec {
            cpu_seconds,
            memory_bytes: 512 << 10,
        }
    }

    /// A CPU- and memory-intensive workload.
    pub fn memory_intensive(cpu_seconds: f64, memory_bytes: u64) -> Self {
        WorkloadSpec {
            cpu_seconds,
            memory_bytes,
        }
    }

    /// The Ackermann-function job of Figure 1: ~1.65 s alone, tiny memory footprint.
    pub fn ackermann() -> Self {
        WorkloadSpec::cpu_bound(1.65)
    }

    /// The matrix job of Figure 2: simple operations on large matrices. The paper does not give
    /// the matrix size; 80 MB per process makes the aggregate demand cross the 2 GB of RAM of
    /// the GridExplorer nodes at ~25 concurrent processes, in the middle of the 5-50 range the
    /// figure sweeps.
    pub fn matrix() -> Self {
        WorkloadSpec::memory_intensive(1.2, 80 << 20)
    }

    /// The fairness job of Figure 3: ~5 s alone, CPU-bound.
    pub fn fairness_job() -> Self {
        WorkloadSpec::cpu_bound(5.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_workloads_have_expected_demands() {
        assert!((WorkloadSpec::ackermann().cpu_seconds - 1.65).abs() < 1e-12);
        assert!((WorkloadSpec::fairness_job().cpu_seconds - 5.0).abs() < 1e-12);
        assert_eq!(WorkloadSpec::matrix().memory_bytes, 80 << 20);
        assert!(WorkloadSpec::ackermann().memory_bytes < WorkloadSpec::matrix().memory_bytes);
    }

    #[test]
    fn matrix_workload_crosses_ram_mid_sweep() {
        // 2 GB GridExplorer nodes: the crossover must fall inside the 5-50 process sweep of
        // Figure 2, otherwise the figure cannot show the swap cliff.
        let ram: u64 = 2 << 30;
        let per = WorkloadSpec::matrix().memory_bytes;
        let crossover = ram / per;
        assert!(
            (5..50).contains(&(crossover as i32)),
            "crossover={crossover}"
        );
    }
}
