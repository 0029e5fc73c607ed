//! First-class [`Workload`] implementations.
//!
//! Every application studied on the framework lives here as a `Workload` impl, runnable by
//! [`run_scenario`]:
//!
//! * [`SwarmWorkload`] — the BitTorrent swarm of the paper's evaluation (Figures 8-11);
//! * [`PingMeshWorkload`] — an all-pairs/ring latency probe built on the echo application the
//!   paper uses for its accuracy experiments;
//! * [`GossipWorkload`] — epidemic broadcast with configurable fanout, driven by the scenario
//!   layer's arrival and session processes (flash crowds, Poisson joins, churn);
//! * [`DhtLookupWorkload`] — Kademlia-style iterative lookups over the transport's typed RPC
//!   layer, measuring hop counts, lookup latency and convergence.
//!
//! Arrival and churn schedules come from the scenario layer
//! ([`scenario::processes`](crate::scenario::processes)); workloads consume them, they do not
//! re-derive them.

pub mod dht;
pub mod gossip;
pub mod gossip_sharded;
pub mod ping_mesh;
pub mod swarm;

pub use dht::{
    DhtBody, DhtLookupSpec, DhtLookupWorkload, DhtTimer, DhtWorld, LookupRecord, DHT_PORT,
};
pub use gossip::{GossipSpec, GossipTimer, GossipWorkload, GossipWorld, Rumor, GOSSIP_PORT};
pub use gossip_sharded::{GossipShardedSpec, GossipShardedWorkload, GossipShardedWorld};
pub use ping_mesh::{MeshPattern, PingMeshSpec, PingMeshWorkload};
pub use swarm::{SwarmSpec, SwarmWorkload};

use crate::report::RunReport;
use crate::scenario::dsl::{DslError, Keys, Kinds};
use crate::scenario::{preflight, run_scenario, ScenarioError, ScenarioSpec, Workload};

/// A workload configuration constructible *by name* — the registry half of the scenario DSL.
///
/// [`Workload`] has associated types (world, event), so the trait is not object-safe and a
/// scenario file cannot hold a `Box<dyn Workload>`. This enum closes the gap: one variant per
/// first-class workload, each carrying its spec struct, plus a uniform
/// [`run`](WorkloadConfig::run) that instantiates the right workload and returns the run's
/// workload-agnostic [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadConfig {
    /// The BitTorrent swarm of the paper's evaluation.
    Swarm(SwarmSpec),
    /// The ping-mesh latency probe.
    PingMesh(PingMeshSpec),
    /// Epidemic broadcast.
    Gossip(GossipSpec),
    /// Epidemic broadcast on the sharded conservative-window runtime (honours the scenario's
    /// `shards` knob for true multi-core execution).
    GossipSharded(GossipShardedSpec),
    /// Kademlia-style iterative DHT lookups.
    DhtLookup(DhtLookupSpec),
}

impl WorkloadConfig {
    /// The `workload.kind` names of a scenario file, one per first-class workload, in
    /// registry order: each is its workload's [`Workload::KIND`]. Each kind's blank is its
    /// spec's constructor — the defaults live there — called with a placeholder for the
    /// required size key, which always overwrites it.
    pub const KINDS: &'static Kinds<WorkloadConfig> = &[
        (SwarmWorkload::KIND, || {
            WorkloadConfig::Swarm(SwarmSpec::new(0))
        }),
        (PingMeshWorkload::KIND, || {
            WorkloadConfig::PingMesh(PingMeshSpec::full(2))
        }),
        (GossipWorkload::KIND, || {
            WorkloadConfig::Gossip(GossipSpec::new(2))
        }),
        (GossipShardedWorkload::KIND, || {
            WorkloadConfig::GossipSharded(GossipShardedSpec::new(2))
        }),
        (DhtLookupWorkload::KIND, || {
            WorkloadConfig::DhtLookup(DhtLookupSpec::new(2))
        }),
    ];

    /// `[workload]`: `kind`, and the selected kind's `[workload.<kind>]` table.
    pub(crate) fn section(k: &mut Keys, workload: &mut WorkloadConfig) -> Result<(), DslError> {
        k.tagged("workload", workload, Self::KINDS, true, Self::keys)
    }

    /// The `[workload.<kind>]` keys: those of whichever spec this is.
    fn keys(k: &mut Keys, workload: &mut WorkloadConfig) -> Result<(), DslError> {
        match workload {
            WorkloadConfig::Swarm(spec) => SwarmSpec::keys(k, spec),
            WorkloadConfig::PingMesh(spec) => PingMeshSpec::keys(k, spec),
            WorkloadConfig::Gossip(spec) => GossipSpec::keys(k, spec),
            WorkloadConfig::GossipSharded(spec) => GossipShardedSpec::keys(k, spec),
            WorkloadConfig::DhtLookup(spec) => DhtLookupSpec::keys(k, spec),
        }
    }

    /// The workload's kind label, its [`Workload::KIND`].
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadConfig::Swarm(_) => SwarmWorkload::KIND,
            WorkloadConfig::PingMesh(_) => PingMeshWorkload::KIND,
            WorkloadConfig::Gossip(_) => GossipWorkload::KIND,
            WorkloadConfig::GossipSharded(_) => GossipShardedWorkload::KIND,
            WorkloadConfig::DhtLookup(_) => DhtLookupWorkload::KIND,
        }
    }

    /// Number of virtual nodes the workload needs from the scenario's topology.
    pub fn vnodes_required(&self) -> usize {
        match self {
            WorkloadConfig::Swarm(cfg) => cfg.total_vnodes(),
            WorkloadConfig::PingMesh(spec) => spec.nodes,
            WorkloadConfig::Gossip(spec) => spec.nodes,
            WorkloadConfig::GossipSharded(spec) => spec.nodes,
            WorkloadConfig::DhtLookup(spec) => spec.nodes,
        }
    }

    /// Makes the checks [`run`](WorkloadConfig::run) makes before it deploys anything, on a
    /// workload that is then dropped.
    pub(crate) fn validate(&self, spec: &ScenarioSpec) -> Result<(), ScenarioError> {
        fn check<W: Workload>(spec: &ScenarioSpec, mut workload: W) -> Result<(), ScenarioError> {
            preflight(spec, &mut workload).map(drop)
        }
        match self {
            WorkloadConfig::Swarm(s) => check(spec, SwarmWorkload::new(s.clone())),
            WorkloadConfig::PingMesh(p) => check(spec, PingMeshWorkload::new(p.clone())),
            WorkloadConfig::Gossip(g) => check(spec, GossipWorkload::new(g.clone())),
            WorkloadConfig::GossipSharded(g) => check(spec, GossipShardedWorkload::new(g.clone())),
            WorkloadConfig::DhtLookup(d) => check(spec, DhtLookupWorkload::new(d.clone())),
        }
    }

    /// Runs the workload under `spec` through the generic [`run_scenario`] loop and returns the
    /// run's [`RunReport`]. The final world is dropped — by-name construction is for
    /// campaign-style runs where everything that leaves the process goes through the report.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<RunReport, ScenarioError> {
        fn report<W: Workload + 'static>(
            spec: &ScenarioSpec,
            workload: W,
        ) -> Result<RunReport, ScenarioError> {
            run_scenario(spec, workload).map(|(_, report)| report)
        }
        match self {
            WorkloadConfig::Swarm(s) => report(spec, SwarmWorkload::new(s.clone())),
            WorkloadConfig::PingMesh(p) => report(spec, PingMeshWorkload::new(p.clone())),
            WorkloadConfig::Gossip(g) => report(spec, GossipWorkload::new(g.clone())),
            WorkloadConfig::GossipSharded(g) => report(spec, GossipShardedWorkload::new(g.clone())),
            WorkloadConfig::DhtLookup(d) => report(spec, DhtLookupWorkload::new(d.clone())),
        }
    }
}
