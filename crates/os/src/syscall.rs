//! System-call cost model.
//!
//! P2PLab virtualizes the *network identity* of processes by intercepting `bind()`, `connect()`
//! and `listen()` in the C library; the interception issues one additional `bind()` system call
//! before each `connect()`/`listen()`. The paper measures the end-to-end effect as the duration
//! of a local TCP connect/disconnect cycle: 10.22 µs unmodified vs 10.79 µs with the modified
//! libc. This module provides the per-call costs that the network layer's interception shim
//! charges, so the same microbenchmark can be regenerated.

use p2plab_sim::SimDuration;

/// The network-related system calls the interception layer deals with (Figure 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Syscall {
    /// `socket()`
    Socket,
    /// `bind()`
    Bind,
    /// `connect()`
    Connect,
    /// `listen()`
    Listen,
    /// `accept()`
    Accept,
    /// `close()`
    Close,
    /// `sendto()` / `sendmsg()`
    Send,
    /// `recvfrom()` / `recvmsg()`
    Recv,
}

/// Per-syscall costs charged to the calling process, in nanoseconds of CPU time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyscallCostModel {
    /// Fixed cost of entering/leaving the kernel.
    pub trap_ns: u64,
    /// Additional cost of `socket()`.
    pub socket_ns: u64,
    /// Additional cost of `bind()`.
    pub bind_ns: u64,
    /// Additional cost of `connect()` (local connection, kernel work only).
    pub connect_ns: u64,
    /// Additional cost of `listen()`.
    pub listen_ns: u64,
    /// Additional cost of `accept()`.
    pub accept_ns: u64,
    /// Additional cost of `close()`.
    pub close_ns: u64,
    /// Additional cost of a send/recv call (excluding per-byte copies handled by the network
    /// model).
    pub sendrecv_ns: u64,
}

impl Default for SyscallCostModel {
    fn default() -> Self {
        SyscallCostModel::freebsd_opteron()
    }
}

impl SyscallCostModel {
    /// Costs calibrated so that an un-intercepted local connect/disconnect cycle
    /// (`socket + connect + accept + 2 x close`) costs ~10.22 µs, as measured in the paper on
    /// the GridExplorer Opterons, and the intercepted cycle (one extra `bind`) ~10.79 µs.
    pub fn freebsd_opteron() -> SyscallCostModel {
        SyscallCostModel {
            trap_ns: 180,
            socket_ns: 1_300,
            bind_ns: 390,
            connect_ns: 4_200,
            listen_ns: 700,
            accept_ns: 2_900,
            close_ns: 380,
            sendrecv_ns: 900,
        }
    }

    /// Cost of a single system call.
    pub fn cost(&self, call: Syscall) -> SimDuration {
        let body = match call {
            Syscall::Socket => self.socket_ns,
            Syscall::Bind => self.bind_ns,
            Syscall::Connect => self.connect_ns,
            Syscall::Listen => self.listen_ns,
            Syscall::Accept => self.accept_ns,
            Syscall::Close => self.close_ns,
            Syscall::Send | Syscall::Recv => self.sendrecv_ns,
        };
        SimDuration::from_nanos(self.trap_ns + body)
    }

    /// Total cost of a sequence of calls.
    pub fn cost_of_sequence(&self, calls: &[Syscall]) -> SimDuration {
        calls
            .iter()
            .fold(SimDuration::ZERO, |acc, &c| acc + self.cost(c))
    }

    /// The client-plus-server syscall sequence of one local TCP connect/disconnect cycle
    /// without interception: `socket, connect, accept, close, close`.
    pub fn plain_connect_cycle(&self) -> SimDuration {
        self.cost_of_sequence(&[
            Syscall::Socket,
            Syscall::Connect,
            Syscall::Accept,
            Syscall::Close,
            Syscall::Close,
        ])
    }

    /// The same cycle with the P2PLab libc interception, which issues an extra `bind()` before
    /// `connect()` ("this approach doubles the number of system calls for connect()").
    pub fn intercepted_connect_cycle(&self) -> SimDuration {
        self.plain_connect_cycle() + self.cost(Syscall::Bind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_cycle_close_to_paper_measurement() {
        let m = SyscallCostModel::freebsd_opteron();
        let us = m.plain_connect_cycle().as_nanos() as f64 / 1000.0;
        assert!((us - 10.22).abs() < 0.35, "cycle={us}us");
    }

    #[test]
    fn intercepted_cycle_close_to_paper_measurement() {
        let m = SyscallCostModel::freebsd_opteron();
        let us = m.intercepted_connect_cycle().as_nanos() as f64 / 1000.0;
        assert!((us - 10.79).abs() < 0.35, "cycle={us}us");
    }

    #[test]
    fn interception_overhead_is_one_bind() {
        let m = SyscallCostModel::freebsd_opteron();
        let overhead = m.intercepted_connect_cycle() - m.plain_connect_cycle();
        assert_eq!(overhead, m.cost(Syscall::Bind));
        // The paper calls the cost "very low": well under 10% of the cycle.
        let ratio = overhead.as_nanos() as f64 / m.plain_connect_cycle().as_nanos() as f64;
        assert!(ratio < 0.10, "ratio={ratio}");
    }

    #[test]
    fn every_call_costs_at_least_the_trap() {
        let m = SyscallCostModel::freebsd_opteron();
        for c in [
            Syscall::Socket,
            Syscall::Bind,
            Syscall::Connect,
            Syscall::Listen,
            Syscall::Accept,
            Syscall::Close,
            Syscall::Send,
            Syscall::Recv,
        ] {
            assert!(m.cost(c) >= SimDuration::from_nanos(m.trap_ns));
        }
    }

    #[test]
    fn sequence_cost_is_additive() {
        let m = SyscallCostModel::freebsd_opteron();
        let seq = m.cost_of_sequence(&[Syscall::Socket, Syscall::Close]);
        assert_eq!(seq, m.cost(Syscall::Socket) + m.cost(Syscall::Close));
        assert_eq!(m.cost_of_sequence(&[]), SimDuration::ZERO);
    }
}
