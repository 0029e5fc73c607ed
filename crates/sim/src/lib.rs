//! # p2plab-sim — deterministic discrete-event engine
//!
//! This crate is the substrate every other crate in the workspace runs on. The paper's P2PLab
//! runs real applications in real time on a cluster; this reproduction instead executes the
//! whole experiment inside a deterministic discrete-event simulation so that
//!
//! * multi-thousand-second BitTorrent experiments complete in seconds of wall-clock time,
//! * every run is exactly reproducible from a seed (one of the paper's stated goals), and
//! * the emulated resources (CPU schedulers, access links, firewall rules) can be modelled at
//!   exactly the fidelity the paper's evaluation requires.
//!
//! The main entry point is [`Simulation`]; measurements are collected with the types in
//! [`stats`] and recorded through the unified [`metrics`] pipeline ([`Recorder`]/[`MetricSet`]).

#![warn(missing_docs)]

mod engine;
mod event;
pub mod hash;
pub mod metrics;
mod rng;
pub mod shard;
pub mod stats;
mod time;

pub use engine::{Halt, NoEvent, PeriodicSeries, RunOutcome, Simulation, TypedEvent};
pub use event::{EventId, EventQueue};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use metrics::{
    Counter, Gauge, HistogramId, HistogramSnapshot, LogHistogram, Metric, MetricSet, MetricValue,
    Recorder, TimeSeriesId,
};
pub use rng::{splitmix64, SimRng, Uniform};
pub use shard::{
    run_sharded, ShardConfig, ShardEvent, ShardHost, ShardOutcome, ShardRun, ShardSim, ShardWorld,
};
pub use stats::{Cdf, RateEstimator, Summary, TimeSeries};
pub use time::{SimDuration, SimTime};
