//! The workload-agnostic scenario layer: [`Workload`], [`ScenarioSpec`] and [`run_scenario`].
//!
//! The paper presents P2PLab as a platform for studying P2P *applications* in general, not just
//! BitTorrent. This module is the framework half of that claim: everything an experiment needs
//! besides the application itself — topology, deployment/folding, network configuration, node
//! churn, resource monitoring, time-series sampling, deadline and seed — is a field of
//! [`ScenarioSpec`], and [`run_scenario`] drives any application that
//! implements [`Workload`] through the same deploy → schedule → run → sample loop, and hands
//! back the final world together with the run's [`RunReport`].
//!
//! Three first-class workloads ship with the framework (see [`crate::workloads`]): the
//! BitTorrent swarm of the paper's evaluation, a ping-mesh latency probe built on the echo
//! application from the accuracy experiments, and an epidemic-broadcast (gossip) workload.
//! Every new scenario is expected to follow the same pattern: implement [`Workload`], then run
//! it with [`run_scenario`].
//!
//! Participant dynamics — *when nodes join* and *how long they stay* — are owned by the
//! scenario layer's process library ([`processes`]): the runner resolves the scenario's
//! [`ArrivalSpec`] into a concrete [`ArrivalSchedule`] and hands it (plus the optional
//! [`SessionProcess`]) to the workload. Workloads consume these schedules; they do not
//! re-derive them.
//!
//! ```
//! use p2plab_core::scenario::{run_scenario, ScenarioSpec};
//! use p2plab_core::DeploymentSpec;
//! use p2plab_core::{SwarmSpec, SwarmWorkload};
//! use p2plab_net::{AccessLinkClass, TopologySpec};
//! use p2plab_sim::SimDuration;
//!
//! // Four downloaders, a seeder and the tracker on 8M/1M links, folded onto 2 machines.
//! let swarm = SwarmSpec::new(4);
//! let link = AccessLinkClass::new(8_000_000, 1_000_000, SimDuration::from_millis(10));
//! let topology = TopologySpec::uniform("doc", swarm.total_vnodes(), link);
//! let spec = ScenarioSpec {
//!     deployment: DeploymentSpec::new(2),
//!     seed: 7,
//!     ..ScenarioSpec::new("doc", topology)
//! };
//! let (world, report) = run_scenario(&spec, SwarmWorkload::new(swarm)).unwrap();
//! assert!(world.swarm_finished());
//! assert_eq!(report.participants, 4);
//! ```

pub mod campaign;
pub mod dsl;
pub mod processes;

use crate::adversary::{AdversaryPlan, AdversaryRoster, InvariantReport};
use crate::deploy::{deploy, Deployment, DeploymentSpec};
use crate::monitor::ResourceMonitor;
use crate::report::RunReport;
use p2plab_net::{NetError, NetStats, Network, NetworkConfig, TopologySpec};
use p2plab_sim::{
    Counter, Halt, Recorder, RunOutcome, SimDuration, SimRng, SimTime, Simulation, TimeSeriesId,
    TypedEvent,
};
use std::fmt;
use std::time::Instant;

pub use processes::{ArrivalSchedule, ArrivalSpec, SessionProcess};

/// An application that can be run by [`run_scenario`].
///
/// The trait splits an experiment's application side into the phases the generic runner needs
/// to interleave with its own work (deployment, monitoring, sampling, deadline handling):
///
/// 1. [`build_world`](Workload::build_world) turns the finished [`Deployment`] into the
///    simulation world (network + application state);
/// 2. [`on_deployed`](Workload::on_deployed) schedules the infrastructure that must exist
///    before any arrivals (seeders, servers, bootstrap nodes);
/// 3. [`schedule_arrivals`](Workload::schedule_arrivals) schedules the participants joining
///    over time;
/// 4. under a scenario's [`SessionProcess`], the runner drives each participant's on/off chain
///    through [`depart`](Workload::depart) and [`rejoin`](Workload::rejoin) (a workload that
///    churns says so with [`churns`](Workload::churns));
/// 5. [`sample`](Workload::sample) is called on the sampling grid and feeds the scenario's
///    global progress curve; [`is_complete`](Workload::is_complete) lets the runner stop
///    sampling once the workload is done.
///
/// The run's result is the final world and the [`RunReport`]: run facts and recorded metrics are
/// read from the report, workload state from the world's own fields and accessors.
pub trait Workload {
    /// The simulation world (application state plus the emulated network).
    type World: 'static;
    /// The world's event class (for a [`NetHost`](p2plab_net::NetHost) world this is
    /// `NetEvent<Payload, Timer>`, spelled `p2plab_net::NetSim<World>` at the simulation type).
    type Event: TypedEvent<Self::World>;

    /// The workload's kind label: a scenario file's `workload.kind` and a run report's
    /// `workload` (`"swarm"`, `"ping-mesh"`, ...).
    const KIND: &'static str;

    /// Number of virtual nodes the workload needs. The scenario's topology must provide at
    /// least this many.
    fn vnodes_required(&self) -> usize;

    /// Number of participants whose arrival instants come from the scenario's arrival process
    /// (downloaders for the swarm, probe pairs for the ping mesh, nodes for gossip).
    fn participants(&self) -> usize;

    /// The population an [`AdversaryPlan`] selects over. Defaults to
    /// [`participants`](Workload::participants); workloads whose participants are *actions*
    /// rather than nodes (DHT lookups) override this so byzantine marks land on nodes.
    fn adversary_population(&self) -> usize {
        self.participants()
    }

    /// Installs a resolved adversary roster before the world is built. The runner calls this
    /// once, only when the scenario's plan selects at least one member. The default rejects
    /// the plan: a workload must opt in by implementing both this and
    /// [`check_invariants`](Workload::check_invariants), so an adversary can never silently
    /// no-op on a workload that ignores it.
    fn set_adversary(&mut self, _roster: &AdversaryRoster) -> Result<(), String> {
        Err(format!(
            "the {:?} workload has no adversarial mode",
            Self::KIND
        ))
    }

    /// The invariant monitor: after an adversarial run, asserts the workload's honest-node
    /// safety properties over the final world (honest completion, delivery, convergence —
    /// derived from protocol state, never magic values) and tallies byzantine traffic. Called
    /// only when a roster was installed; the runner records the report's counts into the run's
    /// metric set (`invariants_checked`, `invariant_violations`, `byzantine_msgs_sent`).
    fn check_invariants(&self, _world: &Self::World, _stop: &ShardedOutcome) -> InvariantReport {
        InvariantReport::new()
    }

    /// The workload's natural arrival pattern, used when the scenario does not override it
    /// with [`ScenarioSpec::arrivals`].
    fn default_arrivals(&self) -> ArrivalSpec;

    /// When the last of the starts the workload schedules itself, outside the arrival process,
    /// happens (the swarm's seeders). The deadline is held to it as to the arrival ramp. The
    /// default is zero: no such start.
    fn own_ramp(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// Builds the simulation world from the finished deployment.
    fn build_world(&mut self, deployment: Deployment) -> Self::World;

    /// Schedules the infrastructure that comes online before any arrivals.
    fn on_deployed(&mut self, sim: &mut Simulation<Self::World, Self::Event>);

    /// Schedules the participants' arrival events. `arrivals` holds one concrete instant per
    /// participant, drawn by the runner from the scenario's arrival process — the workload
    /// consumes the schedule, it does not re-derive it.
    fn schedule_arrivals(
        &mut self,
        sim: &mut Simulation<Self::World, Self::Event>,
        arrivals: &ArrivalSchedule,
    );

    /// Whether the workload churns: it implements [`depart`](Workload::depart) and
    /// [`rejoin`](Workload::rejoin). The default is no, and the runner rejects a scenario that
    /// carries a [`SessionProcess`] for such a workload instead of silently ignoring it.
    fn churns(&self) -> bool {
        false
    }

    /// Whether `spec` can execute on the workload's path, checked before anything is deployed.
    /// The default is the reference engine's: a [`SessionProcess`] needs a workload that
    /// [`churns`](Workload::churns) ([`ScenarioError::ChurnUnsupported`]), and `shards > 1` a
    /// shard-native path ([`ScenarioError::ShardingUnsupported`]). A shard-native workload
    /// replaces it with the limits of its own runtime.
    fn check_execution(&self, spec: &ScenarioSpec) -> Result<(), ScenarioError> {
        let workload = Self::KIND;
        if spec.sessions.is_some() && !self.churns() {
            return Err(ScenarioError::ChurnUnsupported { workload });
        }
        if spec.shards > 1 {
            return Err(ScenarioError::ShardingUnsupported {
                reason: format!(
                    "the {workload:?} workload has no sharded mode (shards = {})",
                    spec.shards
                ),
            });
        }
        Ok(())
    }

    /// Ends participant `p`'s current session: takes it offline and returns true, or returns
    /// false — leaving it as it is — to end its churn chain (finished, already offline, ...).
    /// The runner calls it when a session drawn from the scenario's [`SessionProcess`] runs
    /// out; the first session starts at the participant's arrival.
    fn depart(&mut self, _sim: &mut Simulation<Self::World, Self::Event>, _p: usize) -> bool {
        false
    }

    /// Brings participant `p` back after its downtime; returns false to end its churn chain.
    fn rejoin(&mut self, _sim: &mut Simulation<Self::World, Self::Event>, _p: usize) -> bool {
        false
    }

    /// Access to the emulated network inside the world (for resource monitoring).
    fn network(world: &Self::World) -> &Network;

    /// Registers the workload's metrics in the run's [`Recorder`] (called once, after
    /// [`build_world`](Workload::build_world) and before any event runs). Store the returned
    /// handles; recording through them later is a plain indexed write. The default registers
    /// nothing.
    fn setup_metrics(&mut self, _rec: &mut Recorder) {}

    /// One sample of the workload's global progress metric, taken on the scenario's sampling
    /// grid. The runner feeds the returned value to the run's progress curve; the workload
    /// records any further metrics of its own through `rec` using the handles it registered in
    /// [`setup_metrics`](Workload::setup_metrics), and may drain from the world what it has
    /// recorded.
    fn sample(&mut self, now: SimTime, world: &mut Self::World, rec: &mut Recorder) -> f64;

    /// Whether the workload has reached its natural end (stops the periodic sampler; the
    /// simulation itself still drains remaining events up to the deadline).
    fn is_complete(&self, world: &Self::World) -> bool;

    /// Executes the workload on the sharded conservative-window runtime
    /// (`p2plab_sim::shard`), when the workload supports it.
    ///
    /// The default returns `None`: the workload has no shard-native execution path, runs on
    /// the reference single-threaded engine, and the default
    /// [`check_execution`](Workload::check_execution) rejects `shards > 1` rather than ignore
    /// it. A shard-native workload replaces that check and returns `Some` for *every* shard
    /// count (including 1, which runs the same windowed algorithm inline): the runner then
    /// skips the classic deploy/run loop entirely and the implementation is responsible for
    /// recording its metrics — the progress curve through `progress`, anything else through
    /// handles it stored in [`setup_metrics`](Workload::setup_metrics) — in a
    /// **shard-count-invariant** way (reconstructed on the sampling grid, never from per-shard
    /// interleaving).
    fn run_sharded(
        &mut self,
        _spec: &ScenarioSpec,
        _arrivals: &ArrivalSchedule,
        _rec: &mut Recorder,
        _progress: TimeSeriesId,
    ) -> Option<Result<(Self::World, ShardedOutcome), ScenarioError>> {
        None
    }
}

/// What an execution — shard-native ([`Workload::run_sharded`]) or the runner's own reference
/// engine — hands back to the runner's tail: the shard-count-invariant run aggregates the report
/// needs (wall-clock fields are the runner's).
#[derive(Debug, Clone, Copy)]
pub struct ShardedOutcome {
    /// Virtual time when the run stopped.
    pub stopped_at: SimTime,
    /// Total events executed across all shards.
    pub events_executed: u64,
    /// How the run ended.
    pub outcome: RunOutcome,
}

/// A fully specified scenario. Start from [`ScenarioSpec::new`]'s defaults and set the fields an
/// experiment varies: `ScenarioSpec { seed: 7, ..ScenarioSpec::new(name, topology) }`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Name used in reports and results.
    pub name: String,
    /// Virtual-node topology (groups, subnets, access links).
    pub topology: TopologySpec,
    /// How virtual nodes fold onto physical machines.
    pub deployment: DeploymentSpec,
    /// Data-plane tunables of the emulated network.
    pub network: NetworkConfig,
    /// Optional override of the workload's arrival process. When `None`, the runner uses
    /// [`Workload::default_arrivals`].
    pub arrivals: Option<ArrivalSpec>,
    /// Optional session (churn) process, interpreted by the workload.
    pub sessions: Option<SessionProcess>,
    /// Optional adversary assignment: which fraction of the workload's population misbehaves,
    /// and how ([`crate::adversary`]). `None` — the default — is a fully honest run and
    /// executes the exact frozen event sequence adversary-free builds produced.
    pub adversary: Option<AdversaryPlan>,
    /// Hard stop for the experiment (virtual time).
    pub deadline: SimDuration,
    /// Sampling period of the progress curve and the resource monitor.
    pub sample_interval: SimDuration,
    /// Whether per-machine NIC utilization is monitored during the run.
    pub monitor_resources: bool,
    /// Hard cap on executed events. `None` is unlimited; CI smoke runs set it so a runaway
    /// event loop fails fast ([`RunOutcome::EventBudgetExhausted`]) instead of hanging the job.
    pub event_budget: Option<u64>,
    /// Number of event-loop shards (worker threads) for workloads with a shard-native
    /// execution path ([`Workload::run_sharded`]). `1` — the default and the reference
    /// semantics — runs single-threaded; results are bit-identical across shard counts, so
    /// this knob is deliberately **excluded from the report's spec echo**. A workload without a
    /// shard-native path rejects `shards > 1` ([`ScenarioError::ShardingUnsupported`]).
    pub shards: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A scenario with the given name and topology and the defaults: one machine (everything
    /// folded), default network config, the workload's own arrivals, no churn, no adversary,
    /// 1 h deadline, 10 s sampling, resource monitoring on, no event budget, one shard, seed 0.
    pub fn new(name: impl Into<String>, topology: TopologySpec) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            topology,
            deployment: DeploymentSpec::new(1),
            network: NetworkConfig::default(),
            arrivals: None,
            sessions: None,
            adversary: None,
            deadline: SimDuration::from_secs(3600),
            sample_interval: SimDuration::from_secs(10),
            monitor_resources: true,
            event_budget: None,
            shards: 1,
            seed: 0,
        }
    }

    /// The folding ratio this scenario deploys at.
    pub fn folding_ratio(&self) -> f64 {
        self.topology.total_nodes() as f64 / self.deployment.machines as f64
    }
}

/// Why a scenario could not be built or run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The deployment requests zero physical machines.
    NoMachines,
    /// The topology contains no virtual nodes.
    EmptyTopology,
    /// The deadline is zero.
    ZeroDeadline,
    /// The sampling interval is zero.
    ZeroSampleInterval,
    /// The shard count is zero.
    ZeroShards,
    /// The scenario asked for sharded execution but the combination cannot be sharded (e.g.
    /// the workload has no shard-native path, zero-latency links leave no conservative
    /// lookahead, or the workload does not support a requested feature under sharding).
    ShardingUnsupported {
        /// Why the scenario cannot run sharded.
        reason: String,
    },
    /// The deadline ends before the last scheduled arrival.
    DeadlineBeforeArrivalRamp {
        /// Duration of the arrival ramp.
        ramp: SimDuration,
        /// The configured deadline.
        deadline: SimDuration,
    },
    /// The arrival process is degenerate (non-finite or non-positive rate, unsorted or
    /// too-short trace).
    InvalidArrivals {
        /// What is wrong with the arrival process.
        reason: String,
    },
    /// The session (churn) process is degenerate — zero or non-finite means would draw
    /// zero-length sessions and spin depart/rejoin events at one instant forever.
    InvalidChurn {
        /// What is wrong with the session process.
        reason: String,
    },
    /// The adversary plan is malformed (fraction outside `[0, 1]`, unknown behavior name,
    /// out-of-range trace index).
    InvalidAdversary {
        /// What is wrong with the adversary plan.
        reason: String,
    },
    /// The scenario carries an adversary plan but the workload has no adversarial mode.
    AdversaryUnsupported {
        /// Why the workload rejected the plan.
        reason: String,
    },
    /// The scenario carries a session (churn) process but the workload does not churn.
    ChurnUnsupported {
        /// The workload's kind label.
        workload: &'static str,
    },
    /// The topology has fewer virtual nodes than the workload needs.
    TopologyTooSmall {
        /// Nodes the workload requires.
        needed: usize,
        /// Nodes the topology provides.
        available: usize,
    },
    /// The network deployment failed.
    DeploymentFailed(NetError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoMachines => write!(
                f,
                "scenario needs at least one physical machine (deployment.machines = 0)"
            ),
            ScenarioError::EmptyTopology => write!(
                f,
                "scenario topology has no virtual nodes (topology.nodes = 0)"
            ),
            ScenarioError::ZeroDeadline => {
                write!(f, "scenario deadline must be positive (deadline = 0s)")
            }
            ScenarioError::ZeroSampleInterval => write!(
                f,
                "scenario sample interval must be positive (sample_interval = 0s)"
            ),
            ScenarioError::ZeroShards => {
                write!(f, "scenario shard count must be positive (shards = 0)")
            }
            ScenarioError::ShardingUnsupported { reason } => {
                write!(f, "scenario cannot run sharded: {reason}")
            }
            ScenarioError::DeadlineBeforeArrivalRamp { ramp, deadline } => write!(
                f,
                "deadline {deadline} ends before the arrival ramp {ramp} completes"
            ),
            ScenarioError::InvalidArrivals { reason } => {
                write!(f, "invalid arrival process: {reason}")
            }
            ScenarioError::InvalidChurn { reason } => {
                write!(f, "invalid churn/session process: {reason}")
            }
            ScenarioError::InvalidAdversary { reason } => {
                write!(f, "invalid adversary plan: {reason}")
            }
            ScenarioError::AdversaryUnsupported { reason } => {
                write!(f, "adversary plan rejected: {reason}")
            }
            ScenarioError::ChurnUnsupported { workload } => write!(
                f,
                "session process rejected: the {workload:?} workload has no churn (drop [sessions])"
            ),
            ScenarioError::TopologyTooSmall { needed, available } => write!(
                f,
                "workload needs {needed} virtual nodes but the topology provides {available}"
            ),
            ScenarioError::DeploymentFailed(e) => write!(f, "deployment failed: {e:?}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl ScenarioSpec {
    /// Checks the spec's internal consistency. [`run_scenario`] calls this first, so no spec
    /// can hang the runner — a zero sample interval, for instance, would reschedule the
    /// periodic sampler at the same instant forever.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.deployment.machines == 0 {
            return Err(ScenarioError::NoMachines);
        }
        if self.topology.total_nodes() == 0 {
            return Err(ScenarioError::EmptyTopology);
        }
        if self.deadline == SimDuration::ZERO {
            return Err(ScenarioError::ZeroDeadline);
        }
        if self.sample_interval == SimDuration::ZERO {
            return Err(ScenarioError::ZeroSampleInterval);
        }
        if self.shards == 0 {
            return Err(ScenarioError::ZeroShards);
        }
        if let Some(arrivals) = &self.arrivals {
            arrivals
                .validate()
                .map_err(|reason| ScenarioError::InvalidArrivals { reason })?;
        }
        if let Some(sessions) = &self.sessions {
            sessions
                .validate()
                .map_err(|reason| ScenarioError::InvalidChurn { reason })?;
        }
        if let Some(adversary) = &self.adversary {
            adversary
                .validate()
                .map_err(|reason| ScenarioError::InvalidAdversary { reason })?;
        }
        Ok(())
    }
}

/// Handles of the transport-level counters the runner registers for **every** run (the PR 3
/// convention: data-plane health belongs in the run's metric set, not only in `NetStats`).
/// Synced from the network's counters on the sampling grid and once more at stop time.
#[derive(Clone, Copy)]
struct TransportCounters {
    retransmits: Counter,
    datagrams_dropped: Counter,
    rpc_timeouts: Counter,
    fragments_sent: Counter,
    selective_retransmits: Counter,
}

impl TransportCounters {
    fn register(rec: &mut Recorder) -> TransportCounters {
        TransportCounters {
            retransmits: rec.counter("retransmits"),
            datagrams_dropped: rec.counter("datagrams_dropped"),
            rpc_timeouts: rec.counter("rpc_timeouts"),
            fragments_sent: rec.counter("fragments_sent"),
            selective_retransmits: rec.counter("selective_retransmits"),
        }
    }

    fn sync(&self, stats: NetStats, rec: &mut Recorder) {
        rec.set_total(self.retransmits, stats.retransmissions);
        rec.set_total(self.datagrams_dropped, stats.datagrams_dropped);
        rec.set_total(self.rpc_timeouts, stats.rpc_timeouts);
        rec.set_total(self.fragments_sent, stats.fragments_sent);
        rec.set_total(self.selective_retransmits, stats.selective_retransmits);
    }
}

/// Handles of the adversary counters, registered **only when the scenario's plan resolves to
/// a non-empty roster** — honest runs carry no adversary keys in their metric set, keeping
/// pre-adversary report artifacts byte-identical. Filled once at stop time from the workload's
/// [`InvariantReport`].
#[derive(Clone, Copy)]
struct AdversaryCounters {
    byzantine_participants: Counter,
    byzantine_msgs_sent: Counter,
    invariants_checked: Counter,
    invariant_violations: Counter,
}

impl AdversaryCounters {
    fn register(rec: &mut Recorder) -> AdversaryCounters {
        AdversaryCounters {
            byzantine_participants: rec.counter("byzantine_participants"),
            byzantine_msgs_sent: rec.counter("byzantine_msgs_sent"),
            invariants_checked: rec.counter("invariants_checked"),
            invariant_violations: rec.counter("invariant_violations"),
        }
    }

    fn record(&self, members: usize, inv: &InvariantReport, rec: &mut Recorder) {
        rec.set_total(self.byzantine_participants, members as u64);
        rec.set_total(self.byzantine_msgs_sent, inv.byzantine_msgs_sent);
        rec.set_total(self.invariants_checked, inv.checked);
        rec.set_total(self.invariant_violations, inv.violations.len() as u64);
    }
}

/// The wake token of the runner's sampler; churn chains wake with their participant's index.
const SAMPLER: usize = usize::MAX;

/// Where one participant's churn chain stands.
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    /// The index of its current (or, while offline, last) session.
    session: usize,
    /// Whether it is between sessions: its next wake is a rejoin, not a departure.
    offline: bool,
}

/// Runs `workload` under `spec`: deploy and fold the topology, build the world, draw the
/// arrival schedule from the scenario's arrival process, schedule infrastructure / arrivals /
/// churn, and run to completion or deadline while sampling progress and machine resources.
/// Returns the final world and the run's [`RunReport`]: workload kind, spec echo, seed,
/// wall/sim time, outcome and the full [`MetricSet`](p2plab_sim::MetricSet) the run recorded.
/// Bench binaries serialize the report to JSON/CSV under `results/`.
///
/// Arrival instants are drawn from a dedicated RNG stream (split off the scenario seed by
/// label), so switching arrival processes never perturbs the draws the simulation itself makes.
///
/// This is the single generic experiment loop of the framework: every workload runs through
/// it.
pub fn run_scenario<W: Workload + 'static>(
    spec: &ScenarioSpec,
    mut workload: W,
) -> Result<(W::World, RunReport), ScenarioError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the runner's one wall-clock read: RunReport.wall_secs / events_per_sec"
    )]
    let wall_start = Instant::now();
    let (arrivals, roster) = preflight(spec, &mut workload)?;
    let participants = workload.participants();
    let workload_kind = W::KIND;

    // The run's recorder: one per run, owned by the runner. Registration order is part of the
    // report schema, so the runner's series and counters always come first, then whatever the
    // workload registers. The adversary counters exist only on adversarial runs, between the
    // transport counters and the workload's own metrics.
    let mut recorder = Recorder::new();
    let progress_id = recorder.time_series("progress");
    let cwnd_id = recorder.time_series("cwnd_mean_bytes");
    let transport_counters = TransportCounters::register(&mut recorder);
    let adversary_counters = roster
        .as_ref()
        .map(|_| AdversaryCounters::register(&mut recorder));
    workload.setup_metrics(&mut recorder);

    // Execution is the only part of a run that differs by path. Shard-native workloads execute
    // on the conservative-window runtime at every shard count (`shards = 1` runs the same
    // windowed algorithm inline — the reference semantics); workloads without a shard-native
    // path return `None` and run the reference engine.
    let sharded = workload.run_sharded(spec, &arrivals, &mut recorder, progress_id);
    let (world, stop) = match sharded {
        Some(result) => result?,
        None => {
            let deployment = deploy(&spec.topology, spec.deployment, spec.network)
                .map_err(ScenarioError::DeploymentFailed)?;

            let world = workload.build_world(deployment);
            let mut sim: Simulation<W::World, W::Event> = Simulation::new(world, spec.seed);
            if let Some(budget) = spec.event_budget {
                sim.set_event_budget(budget);
            }

            workload.on_deployed(&mut sim);
            workload.schedule_arrivals(&mut sim, &arrivals);
            // Churn: participant `p`'s chain wakes the runner with token `p`. Its first session
            // starts at its arrival; a session's length is drawn when it starts, the downtime
            // when the participant departs.
            let mut chains = Vec::new();
            if let Some(sessions) = &spec.sessions {
                for p in 0..participants {
                    let start = arrivals.get(p).unwrap_or(SimTime::ZERO);
                    let session = sessions.session_at(0, sim.rng());
                    sim.schedule_wake_at(start + session, p);
                }
                chains = vec![Chain::default(); participants];
            }

            // Periodic sampling of the workload's progress metric and of the physical machines'
            // NIC utilization, on the same grid the figures use. The `progress` series in the
            // recorder is the single copy of the progress curve.
            let mut monitor = spec
                .monitor_resources
                .then(|| ResourceMonitor::new(W::network(sim.world()), &mut recorder));
            sim.schedule_wake_at(SimTime::ZERO, SAMPLER);

            // One sample: the workload's progress, the transport counters and the
            // congestion-window trajectory (sampled only when the protocol-depth layer has live
            // connections; the series stays empty on legacy-path runs).
            let sample = |workload: &mut W, world: &mut W::World, now, rec: &mut Recorder| {
                let progress = workload.sample(now, world, rec);
                rec.push(progress_id, now, progress);
                transport_counters.sync(W::network(world).stats(), rec);
                if let Some(cwnd) = W::network(world).cwnd_mean_bytes() {
                    rec.push(cwnd_id, now, cwnd as f64);
                }
            };
            let deadline = SimTime::ZERO + spec.deadline;
            let outcome = loop {
                let p = match sim.run_until_wake(deadline) {
                    Halt::Stopped(outcome) => break outcome,
                    Halt::Wake(SAMPLER) => {
                        let now = sim.now();
                        let world = sim.world_mut();
                        sample(&mut workload, world, now, &mut recorder);
                        if let Some(m) = monitor.as_mut() {
                            m.record(now, W::network(world), &mut recorder);
                        }
                        // Like every periodic round, the sampler re-arms after its body.
                        if !workload.is_complete(world) {
                            sim.schedule_wake_at(now + spec.sample_interval, SAMPLER);
                        }
                        continue;
                    }
                    Halt::Wake(p) => p,
                };
                let sessions = spec
                    .sessions
                    .as_ref()
                    .expect("only churn chains wake with p");
                let chain = &mut chains[p];
                let next = if chain.offline {
                    if !workload.rejoin(&mut sim, p) {
                        continue;
                    }
                    chain.session += 1;
                    sessions.session_at(chain.session, sim.rng())
                } else {
                    if !workload.depart(&mut sim, p) {
                        continue;
                    }
                    sessions.downtime_at(chain.session, sim.rng())
                };
                chain.offline = !chain.offline;
                let at = sim.now() + next;
                sim.schedule_wake_at(at, p);
            };
            let stop = ShardedOutcome {
                stopped_at: sim.now(),
                events_executed: sim.executed_events(),
                outcome,
            };
            let mut world = sim.into_world();

            // Final sample so the progress curve extends to the stop time, and a last
            // transport-counter sync so drops/retransmits/timeouts after the final grid tick
            // are not lost.
            sample(&mut workload, &mut world, stop.stopped_at, &mut recorder);
            (world, stop)
        }
    };

    // The invariant monitor runs once, over the final world: honest-node safety checks and the
    // byzantine traffic tally land in the same metric set the report carries.
    if let (Some(roster), Some(counters)) = (&roster, adversary_counters) {
        let inv = workload.check_invariants(&world, &stop);
        counters.record(roster.len(), &inv, &mut recorder);
    }
    let metrics = recorder.finish();
    let wall_secs = wall_start.elapsed().as_secs_f64();
    let events_per_sec = if wall_secs > 0.0 {
        stop.events_executed as f64 / wall_secs
    } else {
        0.0
    };
    let report = RunReport {
        workload: workload_kind.to_string(),
        scenario: spec.name.clone(),
        seed: spec.seed,
        machines: spec.deployment.machines,
        vnodes: spec.topology.total_nodes(),
        participants,
        folding_ratio: spec.folding_ratio(),
        wall_secs,
        stopped_at: stop.stopped_at,
        events_executed: stop.events_executed,
        events_per_sec,
        outcome: stop.outcome,
        spec: spec_echo(spec),
        metrics,
    };
    Ok((world, report))
}

/// The checks [`run_scenario`] makes before it deploys anything, in the order it makes them:
/// the spec's own consistency, the topology's size, the arrival schedule and its ramp, the
/// adversary roster (installed on `workload`) and the workload's
/// [execution path](Workload::check_execution). Returns the schedule and the roster.
pub(crate) fn preflight<W: Workload>(
    spec: &ScenarioSpec,
    workload: &mut W,
) -> Result<(ArrivalSchedule, Option<AdversaryRoster>), ScenarioError> {
    spec.validate()?;
    let needed = workload.vnodes_required();
    let available = spec.topology.total_nodes();
    if needed > available {
        return Err(ScenarioError::TopologyTooSmall { needed, available });
    }

    // Resolve the arrival process (scenario override or the workload's natural pattern) into
    // one concrete instant per participant.
    let arrival_spec = spec
        .arrivals
        .clone()
        .unwrap_or_else(|| workload.default_arrivals());
    let mut arrival_rng = SimRng::new(spec.seed).split("scenario-arrivals");
    let arrivals = arrival_spec
        .schedule(workload.participants(), &mut arrival_rng)
        .map_err(|reason| ScenarioError::InvalidArrivals { reason })?;
    // A deadline that ends before the last participant even joins is rejected outright
    // instead of silently dropping the tail of the crowd.
    let ramp = arrivals.ramp().max(workload.own_ramp());
    if spec.deadline < ramp {
        return Err(ScenarioError::DeadlineBeforeArrivalRamp {
            ramp,
            deadline: spec.deadline,
        });
    }

    // Resolve the adversary plan (when there is one) into a concrete roster, deterministically
    // from the scenario seed, and install it on the workload before anything is built. A plan
    // that selects nobody resolves to `None` and the run proceeds exactly like an honest one.
    let roster = match &spec.adversary {
        Some(plan) => plan
            .resolve(spec.seed, workload.adversary_population())
            .map_err(|reason| ScenarioError::InvalidAdversary { reason })?,
        None => None,
    };
    if let Some(roster) = &roster {
        workload
            .set_adversary(roster)
            .map_err(|reason| ScenarioError::AdversaryUnsupported { reason })?;
    }
    workload.check_execution(spec)?;
    Ok((arrivals, roster))
}

/// Renders the spec as ordered key/value pairs for the report's provenance block. This is an
/// *echo* (human-readable, stable keys), not a parseable serialization of the spec.
fn spec_echo(spec: &ScenarioSpec) -> Vec<(String, String)> {
    let mut echo = vec![
        ("name".to_string(), spec.name.clone()),
        (
            "topology_nodes".to_string(),
            spec.topology.total_nodes().to_string(),
        ),
        ("machines".to_string(), spec.deployment.machines.to_string()),
        ("network".to_string(), format!("{:?}", spec.network)),
        ("deadline".to_string(), spec.deadline.to_string()),
        (
            "sample_interval".to_string(),
            spec.sample_interval.to_string(),
        ),
        (
            "monitor_resources".to_string(),
            spec.monitor_resources.to_string(),
        ),
        ("seed".to_string(), spec.seed.to_string()),
    ];
    if let Some(arrivals) = &spec.arrivals {
        echo.push(("arrivals".to_string(), format!("{arrivals:?}")));
    }
    if let Some(budget) = spec.event_budget {
        echo.push(("event_budget".to_string(), budget.to_string()));
    }
    if let Some(sessions) = &spec.sessions {
        echo.push(("sessions".to_string(), format!("{sessions:?}")));
    }
    if let Some(adversary) = &spec.adversary {
        echo.push(("adversary".to_string(), format!("{adversary:?}")));
    }
    echo
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2plab_net::AccessLinkClass;

    fn topo(n: usize) -> TopologySpec {
        TopologySpec::uniform(
            "t",
            n,
            AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(1)),
        )
    }

    /// `ScenarioSpec::new("bad", topo(n))` with `edit` applied, validated.
    fn validated(n: usize, edit: impl FnOnce(&mut ScenarioSpec)) -> Result<(), ScenarioError> {
        let mut spec = ScenarioSpec::new("bad", topo(n));
        edit(&mut spec);
        spec.validate()
    }

    #[test]
    fn defaults_are_valid() {
        let spec = ScenarioSpec::new("ok", topo(4));
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(spec.name, "ok");
        assert_eq!(spec.deployment.machines, 1);
        assert!(spec.monitor_resources);
        assert!((spec.folding_ratio() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_zero_machines() {
        let err = validated(4, |s| s.deployment = DeploymentSpec::new(0));
        assert_eq!(err, Err(ScenarioError::NoMachines));
    }

    #[test]
    fn validate_rejects_empty_topology() {
        assert_eq!(validated(0, |_| ()), Err(ScenarioError::EmptyTopology));
    }

    #[test]
    fn validate_rejects_zero_deadline_and_interval() {
        let err = validated(2, |s| s.deadline = SimDuration::ZERO);
        assert_eq!(err, Err(ScenarioError::ZeroDeadline));
        let err = validated(2, |s| s.sample_interval = SimDuration::ZERO);
        assert_eq!(err, Err(ScenarioError::ZeroSampleInterval));
    }

    #[test]
    fn run_rejects_deadline_shorter_than_arrival_ramp() {
        use crate::workloads::{MeshPattern, PingMeshSpec, PingMeshWorkload};
        // Four probe streams joining 10 s apart: the last one at 30 s.
        let run = |deadline: u64| {
            let spec = ScenarioSpec {
                arrivals: Some(ArrivalSpec::ramp(
                    SimDuration::ZERO,
                    SimDuration::from_secs(10),
                )),
                deadline: SimDuration::from_secs(deadline),
                ..ScenarioSpec::new("late", topo(4))
            };
            run_scenario(
                &spec,
                PingMeshWorkload::new(PingMeshSpec {
                    pattern: MeshPattern::Ring,
                    ..PingMeshSpec::full(4)
                }),
            )
        };
        assert_eq!(
            run(29).err(),
            Some(ScenarioError::DeadlineBeforeArrivalRamp {
                ramp: SimDuration::from_secs(30),
                deadline: SimDuration::from_secs(29),
            })
        );
        // Equal is fine.
        assert!(run(30).is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_churn() {
        // Regression: a zero mean-session or mean-downtime used to pass validation and then
        // livelock `schedule_departure` by drawing zero-length exponential delays — the
        // depart/rejoin pair re-fired at the same instant until the event budget died.
        for sessions in [
            SessionProcess::Exponential {
                mean_session: SimDuration::ZERO,
                mean_downtime: SimDuration::from_secs(10),
            },
            SessionProcess::Exponential {
                mean_session: SimDuration::from_secs(10),
                mean_downtime: SimDuration::ZERO,
            },
            // The generalized session processes are validated through the same gate.
            SessionProcess::Pareto {
                scale_session: SimDuration::from_secs(10),
                shape: f64::NAN,
                mean_downtime: SimDuration::from_secs(5),
            },
        ] {
            let err = validated(4, |s| s.sessions = Some(sessions));
            assert!(
                matches!(err, Err(ScenarioError::InvalidChurn { .. })),
                "{err:?}"
            );
        }
    }

    /// A scenario with exponential sessions over `n` nodes.
    fn churning(n: usize) -> ScenarioSpec {
        ScenarioSpec {
            sessions: Some(SessionProcess::Exponential {
                mean_session: SimDuration::from_secs(5),
                mean_downtime: SimDuration::from_secs(5),
            }),
            ..ScenarioSpec::new("churn", topo(n))
        }
    }

    #[test]
    fn sessions_on_the_ping_mesh_are_rejected_not_ignored() {
        use crate::workloads::{MeshPattern, PingMeshSpec, PingMeshWorkload};
        let err = run_scenario(
            &churning(4),
            PingMeshWorkload::new(PingMeshSpec {
                pattern: MeshPattern::Ring,
                ..PingMeshSpec::full(4)
            }),
        );
        assert_eq!(
            err.err(),
            Some(ScenarioError::ChurnUnsupported {
                workload: "ping-mesh"
            })
        );
    }

    #[test]
    fn sessions_on_dht_lookups_are_rejected_not_ignored() {
        use crate::workloads::{DhtLookupSpec, DhtLookupWorkload};
        let err = run_scenario(&churning(8), DhtLookupWorkload::new(DhtLookupSpec::new(8)));
        let err = err.err().expect("churn is rejected");
        assert_eq!(
            err,
            ScenarioError::ChurnUnsupported {
                workload: "dht-lookup"
            }
        );
        assert!(err.to_string().contains("\"dht-lookup\""), "{err}");
    }

    #[test]
    fn validate_rejects_degenerate_arrivals() {
        for arrivals in [
            ArrivalSpec::poisson(f64::NAN),
            ArrivalSpec::trace(vec![SimDuration::from_secs(3), SimDuration::from_secs(1)]),
        ] {
            let err = validated(4, |s| s.arrivals = Some(arrivals));
            assert!(
                matches!(err, Err(ScenarioError::InvalidArrivals { .. })),
                "{err:?}"
            );
        }
    }

    #[test]
    fn errors_display_something_readable() {
        for e in [
            ScenarioError::NoMachines,
            ScenarioError::EmptyTopology,
            ScenarioError::ZeroDeadline,
            ScenarioError::ZeroSampleInterval,
            ScenarioError::DeadlineBeforeArrivalRamp {
                ramp: SimDuration::from_secs(2),
                deadline: SimDuration::from_secs(1),
            },
            ScenarioError::InvalidArrivals {
                reason: "rate must be positive".into(),
            },
            ScenarioError::InvalidChurn {
                reason: "mean session duration must be positive".into(),
            },
            ScenarioError::InvalidAdversary {
                reason: "fraction must be in [0, 1]".into(),
            },
            ScenarioError::AdversaryUnsupported {
                reason: "the ping-mesh workload has no adversarial mode".into(),
            },
            ScenarioError::ChurnUnsupported {
                workload: "ping-mesh",
            },
            ScenarioError::TopologyTooSmall {
                needed: 5,
                available: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn validate_rejects_malformed_adversary_plans() {
        for plan in [
            AdversaryPlan::new(1.5, &["silent-drop"]),
            AdversaryPlan::new(0.2, &["omniscient"]),
        ] {
            let err = validated(4, |s| s.adversary = Some(plan));
            assert!(
                matches!(err, Err(ScenarioError::InvalidAdversary { .. })),
                "{err:?}"
            );
        }
        // A well-formed plan passes validation; whether the workload accepts it is decided at
        // run time by `Workload::set_adversary`.
        let plan = AdversaryPlan::new(0.25, &["silent-drop"]);
        assert_eq!(validated(4, |s| s.adversary = Some(plan)), Ok(()));
    }

    #[test]
    fn errors_name_the_offending_field_and_value() {
        // Every validation error must point at the spec field (in scenario-file terms) and,
        // where there is one, the offending value — a campaign over dozens of cells is
        // undebuggable from "must be positive" alone.
        assert!(ScenarioError::NoMachines
            .to_string()
            .contains("deployment.machines = 0"));
        assert!(ScenarioError::EmptyTopology
            .to_string()
            .contains("topology.nodes = 0"));
        assert!(ScenarioError::ZeroDeadline
            .to_string()
            .contains("deadline = 0s"));
        assert!(ScenarioError::ZeroSampleInterval
            .to_string()
            .contains("sample_interval = 0s"));
        let msg = ScenarioError::DeadlineBeforeArrivalRamp {
            ramp: SimDuration::from_secs(2),
            deadline: SimDuration::from_secs(1),
        }
        .to_string();
        assert!(msg.contains("1.000s") && msg.contains("2.000s"), "{msg}");
        let msg = ScenarioError::InvalidArrivals {
            reason: "rate must be positive".into(),
        }
        .to_string();
        assert!(msg.contains("arrival") && msg.contains("rate must be positive"));
        let msg = ScenarioError::InvalidChurn {
            reason: "shape must exceed 1".into(),
        }
        .to_string();
        assert!(msg.contains("session") && msg.contains("shape must exceed 1"));
        let msg = ScenarioError::TopologyTooSmall {
            needed: 5,
            available: 2,
        }
        .to_string();
        assert!(msg.contains('5') && msg.contains('2'), "{msg}");
        let msg = ScenarioError::InvalidAdversary {
            reason: "unknown adversary behavior \"x\"".into(),
        }
        .to_string();
        assert!(
            msg.contains("adversary") && msg.contains("unknown"),
            "{msg}"
        );
    }
}
