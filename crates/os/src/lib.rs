//! # p2plab-os — physical-node substrate
//!
//! The paper's P2PLab runs on real FreeBSD cluster nodes; before trusting results obtained with
//! many virtual nodes folded onto one machine, the authors verify that the host OS schedules
//! hundreds of concurrent processes without overhead and fairly (Figures 1-3). This crate models
//! that substrate: machines with cores, a CPU scheduler (4BSD / ULE / Linux 2.6 flavours), a
//! memory + swap model, and a system-call cost model used by the network-identity interception
//! layer.
//!
//! The entry points are [`Machine`] (the processor-sharing node model) and the experiment
//! drivers in [`experiments`].

#![warn(missing_docs)]

pub mod experiments;
pub mod machine;
pub mod memory;
pub mod process;
pub mod sched;
pub mod syscall;
pub mod workload;

pub use machine::{Machine, MachineEvent, MachineSim, SpawnError};
pub use memory::{MemoryModel, OsKind};
pub use process::{CompletedProcess, Pid, SimProcess};
pub use sched::{SchedulerKind, SchedulerModel};
pub use syscall::Syscall;
pub use workload::WorkloadSpec;
