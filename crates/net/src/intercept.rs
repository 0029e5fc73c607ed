//! The libc interception shim (BINDIP).
//!
//! P2PLab gives each process its network identity by modifying the FreeBSD C library: when the
//! `BINDIP` environment variable is set, `bind()` is rewritten to the configured address, and
//! `connect()` / `listen()` first perform a `bind()` to that address (ignoring the error if the
//! application had already bound the socket). The cost is one extra system call per
//! `connect()`/`listen()` — measured in the paper as 10.22 µs vs 10.79 µs per local
//! connect/disconnect cycle.
//!
//! In the reproduction, the shim decides (a) which source address a virtual node's connections
//! carry — its alias when interception is on, the physical machine's administration address when
//! it is off — and (b) how much system-call time connection establishment costs. Disabling it
//! shows why it is needed: traffic is then attributed to the physical node and bypasses the
//! per-virtual-node dummynet rules.

use crate::addr::VirtAddr;
use p2plab_os::syscall::{self, Syscall};
use p2plab_sim::SimDuration;

/// Configuration of the libc interception layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterceptConfig {
    /// Whether the modified libc (BINDIP) is active.
    pub enabled: bool,
}

impl InterceptConfig {
    /// The interception shim is installed (P2PLab's normal mode).
    pub fn enabled() -> InterceptConfig {
        InterceptConfig { enabled: true }
    }

    /// No interception: processes keep the default network identity of the physical node.
    pub fn disabled() -> InterceptConfig {
        InterceptConfig { enabled: false }
    }

    /// The source address a virtual node's traffic carries.
    pub fn source_addr(&self, vnode_alias: VirtAddr, machine_admin: VirtAddr) -> VirtAddr {
        if self.enabled {
            vnode_alias
        } else {
            machine_admin
        }
    }

    /// The system-call sequence one `connect()` performs from the application's point of view.
    pub fn connect_syscalls(&self) -> &'static [Syscall] {
        if self.enabled {
            &[Syscall::Socket, Syscall::Bind, Syscall::Connect]
        } else {
            &[Syscall::Socket, Syscall::Connect]
        }
    }

    /// CPU time charged on the initiating side of a connection.
    pub fn connect_cost(&self) -> SimDuration {
        syscall::cost_of_sequence(self.connect_syscalls())
    }

    /// The full connect/disconnect microbenchmark of the paper (client + server side of a local
    /// connection), in the current mode.
    pub fn connect_cycle_cost(&self) -> SimDuration {
        if self.enabled {
            syscall::intercepted_connect_cycle()
        } else {
            syscall::plain_connect_cycle()
        }
    }
}

impl Default for InterceptConfig {
    fn default() -> Self {
        InterceptConfig::enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interception_rewrites_source_address() {
        let alias = VirtAddr::new(10, 0, 0, 7);
        let admin = VirtAddr::new(192, 168, 38, 1);
        assert_eq!(InterceptConfig::enabled().source_addr(alias, admin), alias);
        assert_eq!(InterceptConfig::disabled().source_addr(alias, admin), admin);
    }

    #[test]
    fn interception_adds_exactly_one_bind_to_connect() {
        let on = InterceptConfig::enabled();
        let off = InterceptConfig::disabled();
        assert_eq!(
            on.connect_syscalls().len(),
            off.connect_syscalls().len() + 1
        );
        assert!(on.connect_syscalls().contains(&Syscall::Bind));
        assert!(!off.connect_syscalls().contains(&Syscall::Bind));
    }

    #[test]
    fn connect_cost_overhead_is_small() {
        let on = InterceptConfig::enabled().connect_cost();
        let off = InterceptConfig::disabled().connect_cost();
        assert!(on > off);
        assert_eq!(on - off, Syscall::Bind.cost());
        let overhead = (on - off).as_nanos() as f64 / off.as_nanos() as f64;
        assert!(overhead < 0.15, "overhead={overhead}");
    }

    #[test]
    fn cycle_cost_is_the_calibrated_cycle_in_each_mode() {
        // The calibrated values are pinned once, in `p2plab_os::syscall`; here the shim picks
        // the cycle for its mode.
        assert_eq!(
            InterceptConfig::disabled().connect_cycle_cost(),
            syscall::plain_connect_cycle()
        );
        assert_eq!(
            InterceptConfig::enabled().connect_cycle_cost(),
            syscall::intercepted_connect_cycle()
        );
    }
}
