//! Process accounting: run a child to completion and read its wall time, CPU time and peak
//! resident set from the kernel (`wait4`), and this process's own CPU time (`getrusage`).
//!
//! The two libc symbols are declared here instead of pulling in a crate; the struct layout is
//! the LP64 Linux one (`struct rusage`: two `timeval`s followed by fourteen `long`s).

use std::io;
use std::process::Command;
use std::time::Instant;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn secs(self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// Peak resident set size in KiB.
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// What one finished child process cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildUsage {
    /// Wall time from just before spawn to just after the child was reaped.
    pub wall_s: f64,
    /// User + system CPU time of the child (all its threads).
    pub cpu_s: f64,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
    /// Exit code; `None` when a signal killed the child.
    pub exit_code: Option<i32>,
}

/// Spawns `command`, waits for it and returns its resource usage. The child is always reaped
/// before this returns.
pub fn run_child(command: &mut Command) -> io::Result<ChildUsage> {
    let start = Instant::now();
    let child = command.spawn()?;
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, writable and live for the whole call, and
        // `Rusage` has the kernel's layout for this target (see the module comment). `pid` is
        // a child of this process that nothing else waits on: `child` is never waited
        // through `std`, and dropping it does not reap.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // WIFEXITED / WEXITSTATUS: the low seven bits hold the terminating signal, zero for a
    // normal exit, and the next byte holds the exit code.
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildUsage {
        wall_s,
        cpu_s: usage.utime.secs() + usage.stime.secs(),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        exit_code,
    })
}

/// User + system CPU seconds this process (all threads) has consumed so far.
pub fn self_cpu_s() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is valid and writable for the call and has the kernel's layout.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    usage.utime.secs() + usage.stime.secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_reports_its_exit_code_and_usage() {
        let usage = run_child(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert_eq!(usage.exit_code, Some(3));
        assert!(usage.wall_s > 0.0);
        assert!(usage.peak_rss_mb > 0.1, "a shell maps more than 100 KiB");
        assert!(usage.cpu_s >= 0.0 && usage.cpu_s < usage.wall_s + 1.0);
    }

    #[test]
    fn a_killed_child_has_no_exit_code() {
        let usage = run_child(Command::new("sh").args(["-c", "kill -9 $$"])).unwrap();
        assert_eq!(usage.exit_code, None);
    }

    #[test]
    fn own_cpu_time_advances_with_work() {
        let before = self_cpu_s();
        let mut x = 0u64;
        while self_cpu_s() - before < 0.02 {
            for i in 0..100_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(self_cpu_s() > before);
    }
}
