//! # p2plab — lightweight emulation to study peer-to-peer systems
//!
//! A Rust reproduction of *"Lightweight emulation to study peer-to-peer systems"*
//! (Nussbaum & Richard): the P2PLab framework, rebuilt on a deterministic discrete-event
//! engine so that the paper's full evaluation — scheduler suitability, emulation accuracy and
//! the BitTorrent case study — runs on a laptop in seconds and is exactly reproducible.
//!
//! This facade crate simply re-exports the workspace crates:
//!
//! * [`sim`] — discrete-event engine, deterministic RNG, measurement types;
//! * [`os`] — physical-node substrate (CPU schedulers, memory/swap, syscall costs);
//! * [`net`] — network emulation (dummynet pipes, IPFW rules, topologies, the session/lane/RPC
//!   node-facing transport API, BINDIP shim);
//! * [`bittorrent`] — the studied application (tracker, peer wire protocol, choking, swarms);
//! * [`core`] — the P2PLab framework: the workload-agnostic scenario API
//!   (`Workload` + `ScenarioSpec` + `run_scenario`), the arrival/session process library
//!   (Poisson, ramp, flash-crowd, trace arrivals; exponential, Pareto, trace churn),
//!   deployment/folding, the shipped workloads (BitTorrent swarm, ping mesh, gossip, DHT
//!   lookups), analysis and reports.
//!
//! ## Quickstart
//!
//! Experiments are *scenarios*: a [`Workload`](p2plab_core::scenario::Workload) composed with
//! topology, folding, network config, churn, deadline and seed — by a
//! [`ScenarioSpec`](p2plab_core::ScenarioSpec) or a [`ScenarioFile`](p2plab_core::ScenarioFile)
//! — and driven by the generic [`run_scenario`](p2plab_core::run_scenario) loop, which returns
//! the final world and the run's [`RunReport`](p2plab_core::RunReport):
//!
//! ```
//! use p2plab::core::{completion_summary, run_scenario, ScenarioFile, SwarmWorkload, WorkloadConfig};
//!
//! // A small BitTorrent swarm on emulated access links, folded onto 4 physical machines: the
//! // quick scenario file with six downloaders instead of twelve.
//! let text = include_str!("../examples/scenarios/swarm_quick.toml");
//! let file = ScenarioFile::parse_with(text, "workload.swarm.leechers = 6").unwrap();
//! let WorkloadConfig::Swarm(swarm) = file.workload else { unreachable!() };
//! let (world, report) = run_scenario(&file.spec, SwarmWorkload::new(swarm)).unwrap();
//! assert!(world.swarm_finished());
//! let median = completion_summary(&world.completion_times()).unwrap().median;
//! println!("{}: median completion {median}, {} events", report.scenario, report.events_executed);
//! ```
//!
//! The same loop runs every other workload — e.g.
//! [`PingMeshWorkload`](p2plab_core::PingMeshWorkload) — and every workload can be described as
//! a scenario file (`examples/scenarios/*.toml`, run by the `campaign` binary); the paper's
//! Figures 8–11 are `paper_fig8.toml` and `paper_fig10.toml`.

#![warn(missing_docs)]

pub use p2plab_bittorrent as bittorrent;
pub use p2plab_core as core;
pub use p2plab_net as net;
pub use p2plab_os as os;
pub use p2plab_sim as sim;

/// The most commonly used items, for glob-importing in examples and experiments.
pub mod prelude {
    pub use p2plab_bittorrent::{SwarmWorld, Torrent};
    pub use p2plab_core::{
        compare_folding, deploy, run_scenario, ArrivalSpec, DeploymentSpec, DhtLookupSpec,
        DhtLookupWorkload, GossipSpec, GossipWorkload, PingMeshSpec, PingMeshWorkload,
        ScenarioFile, ScenarioSpec, SessionProcess, SwarmSpec, SwarmWorkload, Workload,
    };
    pub use p2plab_net::{
        AccessLinkClass, Endpoint, LaneKind, Network, NetworkConfig, TopologySpec, TransportEvent,
    };
    pub use p2plab_os::{Machine, OsKind, SchedulerKind};
    pub use p2plab_sim::{SimDuration, SimTime, Simulation};
}
