//! # p2plab-core — the P2PLab framework
//!
//! This crate is the reproduction of the paper's primary contribution: the P2PLab
//! experimentation framework itself. It ties the substrates together:
//!
//! * [`deploy`](mod@deploy) — fold virtual nodes onto physical machines, each node at its own
//!   address (an interface alias on its machine), and generate the per-machine dummynet/IPFW
//!   rules (the decentralized network-emulation model);
//! * [`scenario`] — the workload-agnostic experiment layer: the [`Workload`] trait,
//!   [`ScenarioSpec`], the single generic [`run_scenario`] loop every experiment runs
//!   through (it returns the final world and the run's [`RunReport`]), and the arrival/session
//!   process library
//!   ([`scenario::processes`]: Poisson, uniform-ramp, flash-crowd and trace arrivals;
//!   exponential, Pareto and trace-driven churn sessions), and the scenario-file language
//!   ([`scenario::dsl`]) the paper's experiments are written in
//!   (`examples/scenarios/paper_fig8.toml`, `paper_fig10.toml`);
//! * [`workloads`] — the first-class workloads: the BitTorrent swarm of the evaluation section,
//!   the ping-mesh latency probe, the gossip (epidemic broadcast) workload and Kademlia-style
//!   DHT lookups over the transport's RPC layer;
//! * [`adversary`] — byzantine peers, wire-level fault injection and invariant monitors: mark
//!   a fraction of a workload's population hostile and assert honest-node safety;
//! * [`accuracy`] — the emulation-accuracy experiments (rule-count scaling of Figure 6, the
//!   Figure 7 latency decomposition, the libc-interception overhead table);
//! * [`analysis`] — folding-invariance comparison and completion statistics;
//! * [`report`] — tables, CSV and ASCII plots for the figure-regeneration binaries.

#![warn(missing_docs)]

pub mod accuracy;
pub mod adversary;
pub mod analysis;
pub mod deploy;
pub mod monitor;
pub mod report;
pub mod scenario;
pub mod workloads;

pub use accuracy::{
    figure7_latency_experiment, interception_overhead, rule_scaling_experiment,
    InterceptionOverhead, LatencyDecomposition, RuleScalingPoint,
};
pub use adversary::{AdversaryPlan, AdversaryRoster, InvariantReport, Selection, BEHAVIORS};
pub use analysis::{
    compare_folding, completion_summary, download_phases, relative_curve_deviation,
    samples_ks_distance, CompletionSummary, DownloadPhases, FoldingComparison, FoldingRow,
};
pub use deploy::{deploy, Deployment, DeploymentSpec};
pub use monitor::ResourceMonitor;
pub use report::{
    ascii_plot, points_to_csv, render_table, series_to_csv, ReportError, RunReport,
    RUN_REPORT_SCHEMA,
};
pub use scenario::campaign::{
    default_threads, oversubscription_warning, run_campaign, CampaignCell, CampaignRow,
    CampaignSpec, CampaignSummary, CAMPAIGN_SCHEMA,
};
pub use scenario::dsl::{
    parse_duration, parse_toml, DslError, ScenarioFile, Spanned, TomlTable, TomlValue,
    LINK_PROFILES,
};
pub use scenario::{
    run_scenario, ArrivalSchedule, ArrivalSpec, ScenarioError, ScenarioSpec, SessionProcess,
    Workload,
};
pub use workloads::{
    DhtLookupSpec, DhtLookupWorkload, GossipShardedSpec, GossipShardedWorkload, GossipSpec,
    GossipWorkload, MeshPattern, PingMeshSpec, PingMeshWorkload, SwarmSpec, SwarmWorkload,
    WorkloadConfig,
};
