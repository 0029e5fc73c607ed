//! System-call cost model.
//!
//! P2PLab virtualizes the *network identity* of processes by intercepting `bind()`, `connect()`
//! and `listen()` in the C library; the interception issues one additional `bind()` system call
//! before each `connect()`/`listen()`. The paper measures the end-to-end effect as the duration
//! of a local TCP connect/disconnect cycle: 10.22 µs unmodified vs 10.79 µs with the modified
//! libc. This module provides the per-call costs that the network layer's interception shim
//! charges, so the same microbenchmark can be regenerated. There is one calibration, the
//! GridExplorer Opterons', so the costs are a constant table.

use p2plab_sim::SimDuration;

/// The system calls of a local TCP connect/disconnect cycle, which the interception layer
/// charges (Figure 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Syscall {
    /// `socket()`
    Socket,
    /// `bind()`
    Bind,
    /// `connect()`
    Connect,
    /// `accept()`
    Accept,
    /// `close()`
    Close,
}

/// Fixed cost of entering and leaving the kernel, in nanoseconds.
const TRAP_NS: u64 = 180;

impl Syscall {
    /// CPU time one call charges the calling process: the trap plus the call's own kernel work
    /// (a local `connect()`'s kernel work only). Calibrated so that an un-intercepted local
    /// connect/disconnect cycle costs ~10.22 µs, as measured in the paper on the GridExplorer
    /// Opterons, and the intercepted cycle (one extra `bind`) ~10.79 µs.
    pub fn cost(self) -> SimDuration {
        let body_ns = match self {
            Syscall::Socket => 1_300,
            Syscall::Bind => 390,
            Syscall::Connect => 4_200,
            Syscall::Accept => 2_900,
            Syscall::Close => 380,
        };
        SimDuration::from_nanos(TRAP_NS + body_ns)
    }
}

/// Total cost of a sequence of calls.
pub fn cost_of_sequence(calls: &[Syscall]) -> SimDuration {
    calls
        .iter()
        .fold(SimDuration::ZERO, |acc, &c| acc + c.cost())
}

/// The client-plus-server syscall sequence of one local TCP connect/disconnect cycle without
/// interception: `socket, connect, accept, close, close`.
pub fn plain_connect_cycle() -> SimDuration {
    cost_of_sequence(&[
        Syscall::Socket,
        Syscall::Connect,
        Syscall::Accept,
        Syscall::Close,
        Syscall::Close,
    ])
}

/// The same cycle with the P2PLab libc interception, which issues an extra `bind()` before
/// `connect()` ("this approach doubles the number of system calls for connect()").
pub fn intercepted_connect_cycle() -> SimDuration {
    plain_connect_cycle() + Syscall::Bind.cost()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_cycle_close_to_paper_measurement() {
        let us = plain_connect_cycle().as_nanos() as f64 / 1000.0;
        assert!((us - 10.22).abs() < 0.35, "cycle={us}us");
    }

    #[test]
    fn intercepted_cycle_close_to_paper_measurement() {
        let us = intercepted_connect_cycle().as_nanos() as f64 / 1000.0;
        assert!((us - 10.79).abs() < 0.35, "cycle={us}us");
    }

    #[test]
    fn interception_overhead_is_one_bind() {
        let overhead = intercepted_connect_cycle() - plain_connect_cycle();
        assert_eq!(overhead, Syscall::Bind.cost());
        // The paper calls the cost "very low": well under 10% of the cycle.
        let ratio = overhead.as_nanos() as f64 / plain_connect_cycle().as_nanos() as f64;
        assert!(ratio < 0.10, "ratio={ratio}");
    }

    #[test]
    fn every_call_costs_at_least_the_trap() {
        for c in [
            Syscall::Socket,
            Syscall::Bind,
            Syscall::Connect,
            Syscall::Accept,
            Syscall::Close,
        ] {
            assert!(c.cost() >= SimDuration::from_nanos(TRAP_NS));
        }
    }

    #[test]
    fn sequence_cost_is_additive() {
        let seq = cost_of_sequence(&[Syscall::Socket, Syscall::Close]);
        assert_eq!(seq, Syscall::Socket.cost() + Syscall::Close.cost());
        assert_eq!(cost_of_sequence(&[]), SimDuration::ZERO);
    }
}
