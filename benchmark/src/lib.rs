//! Shared, std-only parts of the repo benchmark (see `benchmark/README.md`).
//!
//! Nothing in this library or in the `bench` driver names a p2plab crate: the driver runs the
//! `campaign` CLI as a child process and reads the run reports it leaves behind, so the
//! end-to-end numbers survive any refactor that keeps the scenario-file format and the CLI.
//! Only `src/bin/probe.rs` links the crates, for the per-layer numbers.

#![warn(missing_docs)]

pub mod catalog;
pub mod compare;
pub mod json;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod sys;
