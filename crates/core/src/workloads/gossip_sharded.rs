//! Epidemic broadcast on the sharded conservative-window runtime.
//!
//! [`GossipShardedWorkload`] is the first shard-native workload: it implements
//! [`Workload::run_sharded`], so [`run_scenario`](crate::scenario::run_scenario) executes it on
//! `p2plab_sim::shard`'s windowed runtime at the scenario's `shards` count — `shards = 1` runs
//! the same algorithm inline and is the reference semantics; higher counts run one OS thread
//! per shard and produce **bit-identical** results.
//!
//! The protocol is the blind-push gossip of [`GossipWorkload`](super::GossipWorkload), restated
//! in the shard runtime's message model instead of the emulated socket stack:
//!
//! * nodes are partitioned into contiguous blocks, one block per shard;
//! * every rumor push is a time-stamped [`send_message`](p2plab_sim::ShardSim::send_message)
//!   whose delay is derived from *sender-local* state only (egress serialization on the
//!   sender's uplink plus both endpoints' access latencies), so delays are independent of the
//!   partition;
//! * peer selection draws from a **per-node** RNG stream split off the scenario seed by node
//!   id — never from the shard simulation's RNG, whose consumption order is shard-dependent;
//! * completion is the runtime's summed progress target (nodes informed), checked at window
//!   boundaries, which are aligned to an absolute grid and therefore partition-invariant —
//!   unless the spec caps `rounds`, in which case every node goes quiet after its countdown
//!   and the run **drains** (the shard-safe stop used by strict campaign cells).
//!
//! A shard holds no pending event per node: its block's arrivals are one ranked series (each
//! arms the next, under ranks reserved up front), and every round after a node's first is a
//! member of one [`PeriodicSeries`], as in the classic workload. With the runtime's inbound
//! batches that leaves a shard's queue with a handful of series heads plus the first rounds
//! and nothing else.
//!
//! Churn is not supported under sharding (a depart/rejoin at one node would need same-instant
//! global visibility); scenarios with a session process are rejected with
//! [`ScenarioError::ShardingUnsupported`].

use super::gossip::{check_fanout, ROUND_INTERVAL, RUMOR_BYTES};
use crate::adversary::{AdversaryRoster, InvariantReport};
use crate::scenario::dsl::{DslError, Keys};
use crate::scenario::{
    ArrivalSchedule, ArrivalSpec, ScenarioError, ScenarioSpec, ShardedOutcome, Workload,
};
use p2plab_net::{Network, TamperSpec};
use p2plab_sim::{
    run_sharded, Counter, Gauge, NoEvent, PeriodicSeries, Recorder, ShardConfig, ShardEvent,
    ShardSim, ShardWorld, SimDuration, SimRng, SimTime, TimeSeriesId,
};

/// Description of a sharded gossip experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipShardedSpec {
    /// Number of gossiping nodes.
    pub nodes: usize,
    /// How many random peers each informed node pushes the rumor to per round.
    pub fanout: usize,
    /// How many rounds an informed node pushes before going quiet. `0` means unlimited: the
    /// run then stops at the runtime's summed dissemination target instead of draining. A
    /// capped run drains — every node exhausts its rounds and the queues empty — which is the
    /// only shard-safe way to reach [`RunOutcome::Drained`](p2plab_sim::RunOutcome::Drained) (a
    /// per-node countdown needs no global informedness view, unlike the classic workload's
    /// `fully_informed()` stop).
    pub rounds: u32,
}

impl GossipShardedSpec {
    /// A sharded gossip experiment over `nodes` nodes with fanout 3 and unlimited rounds (the
    /// same defaults as [`GossipSpec::new`](super::GossipSpec::new)).
    pub fn new(nodes: usize) -> GossipShardedSpec {
        assert!(nodes >= 2, "gossip needs at least two nodes");
        GossipShardedSpec {
            nodes,
            fanout: 3,
            rounds: 0,
        }
    }

    /// The `[workload.gossip-sharded]` keys of a scenario file; absent ones keep
    /// [`GossipShardedSpec::new`]'s defaults. A value that would panic or stall a run is
    /// rejected at its key.
    pub(crate) fn keys(k: &mut Keys, spec: &mut GossipShardedSpec) -> Result<(), DslError> {
        k.req_checked("nodes", &mut spec.nodes, |&n| match n {
            0 | 1 => Err(format!("gossip needs at least two nodes, got {n}")),
            _ => Ok(()),
        })?;
        k.checked("fanout", &mut spec.fanout, check_fanout)?;
        k.opt("rounds", &mut spec.rounds)?;
        Ok(())
    }
}

/// The contiguous block of global node ids shard `shard` owns.
fn block_of(shard: usize, shards: usize, nodes: usize) -> std::ops::Range<usize> {
    let base = nodes / shards;
    let rem = nodes % shards;
    let start = shard * base + shard.min(rem);
    let len = base + usize::from(shard < rem);
    start..start + len
}

/// The shard owning global node `node` (inverse of [`block_of`]).
fn shard_of(node: usize, shards: usize, nodes: usize) -> usize {
    let base = nodes / shards;
    let rem = nodes % shards;
    let wide = rem * (base + 1);
    if node < wide {
        node / (base + 1)
    } else {
        rem + (node - wide) / base.max(1)
    }
}

/// A rumor push addressed to a global node id.
struct GossipMsg {
    dest: u32,
}

// Every push in flight is a runtime envelope around one, 24 bytes while it fits in 8
// (pinned beside the envelope).
const _: () = assert!(std::mem::size_of::<GossipMsg>() <= 8);

/// Shard-local timer events.
enum GossipLocal {
    /// Global node `node` joins the overlay (drawn from the scenario's arrival process). A
    /// shard's arrivals are a ranked series: each arms the next.
    Arrive { node: u32 },
    /// Global node `node`'s first gossip round, at once when it hears the rumor. `left` counts
    /// remaining rounds when the spec caps them (`0` = uncapped, tick forever).
    FirstRound { node: u32, left: u32 },
    /// The round of the node at the front of the shard's periodic series of rounds.
    Round,
}

/// The head event of a [`GossipShard`]'s periodic series of rounds.
const ROUND: ShardEvent<GossipShard> = ShardEvent::Local(GossipLocal::Round);

/// A topology group's link parameters.
#[derive(Clone, Copy)]
struct NodeLink {
    latency: SimDuration,
    up_bps: u64,
}

// A round member as the periodic series stores it: due time, rank and `(node, left)`.
const _: () = assert!(std::mem::size_of::<(SimTime, u64, (u32, u32))>() <= 24);

/// One shard's slice of the gossip overlay.
struct GossipShard {
    /// Global ids of the nodes this shard owns ([`block_of`]).
    block: std::ops::Range<usize>,
    shards: usize,
    nodes: usize,
    fanout: usize,
    /// The spec's per-node round cap (`0` = unlimited).
    rounds: u32,
    /// Link parameters for **all** nodes, one `(end, link)` entry per topology group in group
    /// order: node ids are assigned consecutively per group, so group `g` holds the ids below
    /// its `end` and at or above the previous one. Senders need the receiver's latency to
    /// compute the delivery delay.
    links: Vec<(usize, NodeLink)>,
    /// The arrival instants of the block's nodes, non-decreasing.
    arrivals: Vec<SimTime>,
    /// The rank reserved for the block's first arrival; the `k`-th's is `arrival_rank + k`.
    arrival_rank: u64,
    /// Every armed gossip round after a node's first, as `(node, left)`: one pending event.
    round_series: PeriodicSeries<(u32, u32)>,
    // Block-local state, indexed by `node - block.start`.
    online: Vec<bool>,
    informed_at: Vec<Option<SimTime>>,
    /// Per-node peer-selection RNG streams, split off the scenario seed by node id (partition-
    /// invariant, unlike the shard simulation's own RNG).
    rng: Vec<SimRng>,
    /// Per-node uplink busy horizon for egress serialization.
    busy_until: Vec<SimTime>,
    /// Per-node forwarding suppression (byzantine `suppress_forward` members; all false on
    /// honest runs).
    suppress: Vec<bool>,
    /// The folded wire tampering byzantine members apply to their own pushes.
    tamper: TamperSpec,
    /// Per-node tamper RNG streams, `Some` only for byzantine members — split off the scenario
    /// seed by node id, so tamper draws are partition-invariant like peer selection. Boxed:
    /// every push reads its sender's slot, and an honest one is a null pointer.
    tamper_rng: Vec<Option<Box<SimRng>>>,
    informed: u64,
    rumors_sent: u64,
    duplicate_receipts: u64,
    missed_receipts: u64,
    byzantine_msgs_sent: u64,
}

impl GossipShard {
    fn new(
        shard: usize,
        shards: usize,
        spec: &GossipShardedSpec,
        seed: u64,
        links: Vec<(usize, NodeLink)>,
        arrivals: &ArrivalSchedule,
        roster: Option<&AdversaryRoster>,
    ) -> GossipShard {
        let block = block_of(shard, shards, spec.nodes);
        let len = block.len();
        let node_rng = SimRng::new(seed).split("gossip-node");
        GossipShard {
            rng: block
                .clone()
                .map(|n| node_rng.split_u64(n as u64))
                .collect(),
            suppress: block
                .clone()
                .map(|n| roster.is_some_and(|r| r.flags.suppress_forward && r.contains(n)))
                .collect(),
            tamper: roster.map(|r| r.tamper).unwrap_or_else(TamperSpec::none),
            tamper_rng: block
                .clone()
                .map(|n| {
                    roster
                        .filter(|r| r.contains(n))
                        .map(|r| Box::new(r.wire_rng(n)))
                })
                .collect(),
            arrivals: arrivals.times()[block.clone()].to_vec(),
            arrival_rank: 0,
            round_series: PeriodicSeries::new(ROUND_INTERVAL),
            block,
            shards,
            nodes: spec.nodes,
            fanout: spec.fanout,
            rounds: spec.rounds,
            links,
            online: vec![false; len],
            informed_at: vec![None; len],
            busy_until: vec![SimTime::ZERO; len],
            informed: 0,
            rumors_sent: 0,
            duplicate_receipts: 0,
            missed_receipts: 0,
            byzantine_msgs_sent: 0,
        }
    }

    fn local(&self, node: usize) -> usize {
        debug_assert!(self.block.contains(&node));
        node - self.block.start
    }

    /// The link parameters of global node `node`'s group.
    fn link(&self, node: usize) -> NodeLink {
        let g = self.links.partition_point(|&(end, _)| end <= node);
        self.links[g].1
    }
}

/// Schedules the arrival of the block's `k`-th node, if the block has one, at its instant and
/// its reserved rank: the arrivals are one pending event at a time, in the order scheduling
/// every one up front would give.
fn arm_arrival(sim: &mut ShardSim<GossipShard>, k: usize) {
    let world = sim.model();
    let Some(&at) = world.arrivals.get(k) else {
        return;
    };
    let rank = world.arrival_rank + k as u64;
    let node = (world.block.start + k) as u32;
    sim.schedule_event_ranked(at, rank, ShardEvent::Local(GossipLocal::Arrive { node }));
}

/// Marks `node` informed and schedules its first gossip round (immediately, like the classic
/// workload's first round).
fn become_informed(sim: &mut ShardSim<GossipShard>, node: usize) {
    let now = sim.now();
    let world = sim.model();
    let l = world.local(node);
    if world.informed_at[l].is_some() {
        return;
    }
    world.informed_at[l] = Some(now);
    world.informed += 1;
    if world.suppress[l] {
        // A forward-suppressing byzantine node hears the rumor but never runs a round.
        return;
    }
    let (node, left) = (node as u32, world.rounds);
    sim.schedule_local_in(SimDuration::ZERO, GossipLocal::FirstRound { node, left });
}

impl ShardWorld for GossipShard {
    type Msg = GossipMsg;
    type Local = GossipLocal;

    fn on_message(sim: &mut ShardSim<Self>, _src: u64, msg: GossipMsg) {
        let node = msg.dest as usize;
        let world = sim.model();
        let l = world.local(node);
        if !world.online[l] {
            // Not yet arrived: the rumor is missed and a later round must re-push it.
            world.missed_receipts += 1;
        } else if world.informed_at[l].is_some() {
            world.duplicate_receipts += 1;
        } else {
            become_informed(sim, node);
        }
    }

    fn on_local(sim: &mut ShardSim<Self>, ev: GossipLocal) {
        match ev {
            GossipLocal::Arrive { node } => {
                let world = sim.model();
                let k = world.local(node as usize);
                world.online[k] = true;
                arm_arrival(sim, k + 1);
                // The first participant to arrive carries the rumor (node 0: the schedule is
                // sorted, so id 0 holds the earliest instant).
                if node == 0 {
                    become_informed(sim, 0);
                }
            }
            GossipLocal::FirstRound { node, left } => gossip_round(sim, node, left),
            GossipLocal::Round => {
                let (node, left) = sim.pop_periodic(|h| &mut h.world_mut().round_series, ROUND);
                gossip_round(sim, node, left);
            }
        }
    }

    fn progress(&self) -> u64 {
        self.informed
    }
}

/// One gossip round of `node`; it re-arms one interval later, into the shard's periodic series,
/// unless its capped rounds are spent (`left == 1`).
fn gossip_round(sim: &mut ShardSim<GossipShard>, node: u32, left: u32) {
    let now = sim.now();
    push_rumors(sim, now, node as usize);
    // Uncapped rounds tick until the runtime's summed progress target stops the run at a
    // window boundary — per-shard state cannot see global informedness. Capped rounds count
    // down and go quiet, letting the queues drain.
    if left == 1 {
        return;
    }
    let member = (node, left.saturating_sub(1));
    sim.push_periodic(|h| &mut h.world_mut().round_series, member, ROUND);
}

/// Pushes the rumor from `node` to `fanout` random peers. The delivery delay is derived from
/// sender-local state only: each datagram serializes on the sender's uplink (FIFO behind the
/// node's previous sends), then travels both endpoints' access latencies — always at least the
/// run's conservative lookahead of twice the minimum access latency.
fn push_rumors(sim: &mut ShardSim<GossipShard>, now: SimTime, node: usize) {
    let world = sim.model();
    let n = world.nodes;
    let fanout = world.fanout;
    let shards = world.shards;
    let l = world.local(node);
    let link = world.link(node);
    let ser = serialization_delay(RUMOR_BYTES, link.up_bps);
    for _ in 0..fanout {
        let world = sim.model();
        let mut target = world.rng[l].gen_range(0..n - 1);
        if target >= node {
            target += 1;
        }
        world.rumors_sent += 1;
        // A byzantine sender runs its pushes through the same tamper semantics as the socket
        // stack's sender-side tamper point, drawing only from its own split stream.
        let mut extra_delay = SimDuration::ZERO;
        let mut copies = 1;
        if let Some(rng) = world.tamper_rng[l].as_mut() {
            world.byzantine_msgs_sent += 1;
            let tamper = world.tamper;
            if rng.chance(tamper.drop_rate) {
                continue;
            }
            if rng.chance(tamper.duplicate_rate) {
                copies = 2;
            }
            extra_delay = tamper.delay;
        }
        let leave = world.busy_until[l].max(now) + ser;
        world.busy_until[l] = leave;
        let arrive = leave + link.latency + world.link(target).latency + extra_delay;
        let delay = arrive - now;
        for _ in 0..copies {
            sim.send_message(
                node as u64,
                shard_of(target, shards, n),
                delay,
                GossipMsg {
                    dest: target as u32,
                },
            );
        }
    }
}

/// Time to clock `bytes` out of a `bps` uplink, rounded up to a whole nanosecond so the delay
/// never collapses to zero.
fn serialization_delay(bytes: u64, bps: u64) -> SimDuration {
    let nanos = (bytes as u128 * 8 * 1_000_000_000).div_ceil(bps.max(1) as u128);
    SimDuration::from_nanos(nanos as u64)
}

/// The merged global state [`Workload::run_sharded`] hands back: per-node outcomes plus the
/// protocol counters, all shard-count-invariant.
pub struct GossipShardedWorld {
    /// When each node first heard the rumor, indexed by global node id.
    pub informed_at: Vec<Option<SimTime>>,
    /// Number of informed nodes.
    pub informed: usize,
    /// Rumor datagrams pushed.
    pub rumors_sent: u64,
    /// Rumors that reached an already-informed node.
    pub duplicate_receipts: u64,
    /// Rumors that reached a node that had not arrived yet.
    pub missed_receipts: u64,
    /// Synchronization windows the runtime executed.
    pub windows: u64,
    /// Total messages sent (same-shard included).
    pub messages: u64,
    /// Messages that crossed a shard boundary.
    pub cross_messages: u64,
    /// Rumor pushes attempted by byzantine nodes (zero on honest runs).
    pub byzantine_msgs_sent: u64,
}

/// Metric handles registered by [`GossipShardedWorkload::setup_metrics`], filled in after the
/// sharded run from the merged (shard-count-invariant) aggregates.
#[derive(Debug, Clone, Copy)]
struct GossipShardedMetrics {
    rumors_sent: Counter,
    duplicate_receipts: Counter,
    missed_receipts: Counter,
    online_nodes: Gauge,
}

/// The shard-native epidemic-broadcast workload.
#[derive(Debug, Clone)]
pub struct GossipShardedWorkload {
    spec: GossipShardedSpec,
    metrics: Option<GossipShardedMetrics>,
    /// Byzantine node assignment (roster member indices are gossip node ids), installed by the
    /// scenario runner before execution.
    roster: Option<AdversaryRoster>,
}

impl GossipShardedWorkload {
    /// Wraps a sharded gossip description as a workload.
    pub fn new(spec: GossipShardedSpec) -> GossipShardedWorkload {
        GossipShardedWorkload {
            spec,
            metrics: None,
            roster: None,
        }
    }

    /// The gossip description this workload runs.
    pub fn config(&self) -> &GossipShardedSpec {
        &self.spec
    }
}

impl Workload for GossipShardedWorkload {
    type World = GossipShardedWorld;
    type Event = NoEvent;

    const KIND: &'static str = "gossip-sharded";

    fn vnodes_required(&self) -> usize {
        self.spec.nodes
    }

    fn participants(&self) -> usize {
        self.spec.nodes
    }

    fn default_arrivals(&self) -> ArrivalSpec {
        ArrivalSpec::ramp(SimDuration::ZERO, SimDuration::from_secs(1))
    }

    // The classic deploy/run phases are never reached: `run_sharded` below returns `Some` for
    // every shard count, so the runner takes the shard-native path unconditionally.
    fn build_world(&mut self, _deployment: crate::deploy::Deployment) -> GossipShardedWorld {
        unreachable!("gossip-sharded always takes the run_sharded path")
    }

    fn on_deployed(&mut self, _sim: &mut p2plab_sim::Simulation<GossipShardedWorld, NoEvent>) {
        unreachable!("gossip-sharded always takes the run_sharded path")
    }

    fn schedule_arrivals(
        &mut self,
        _sim: &mut p2plab_sim::Simulation<GossipShardedWorld, NoEvent>,
        _arrivals: &ArrivalSchedule,
    ) {
        unreachable!("gossip-sharded always takes the run_sharded path")
    }

    fn network(_world: &GossipShardedWorld) -> &Network {
        unreachable!("gossip-sharded has no emulated network (shard-native message model)")
    }

    fn setup_metrics(&mut self, rec: &mut Recorder) {
        self.metrics = Some(GossipShardedMetrics {
            rumors_sent: rec.counter("rumors_sent"),
            duplicate_receipts: rec.counter("duplicate_receipts"),
            missed_receipts: rec.counter("missed_receipts"),
            online_nodes: rec.gauge("online_nodes"),
        });
    }

    fn sample(
        &mut self,
        _now: SimTime,
        world: &mut GossipShardedWorld,
        _rec: &mut Recorder,
    ) -> f64 {
        world.informed as f64
    }

    fn is_complete(&self, world: &GossipShardedWorld) -> bool {
        world.informed >= self.spec.nodes
    }

    fn set_adversary(&mut self, roster: &AdversaryRoster) -> Result<(), String> {
        self.roster = Some(roster.clone());
        Ok(())
    }

    fn check_invariants(
        &self,
        world: &GossipShardedWorld,
        _stop: &ShardedOutcome,
    ) -> InvariantReport {
        let mut inv = InvariantReport::new();
        inv.byzantine_msgs_sent = world.byzantine_msgs_sent;
        let roster = self.roster.as_ref();
        // Whether the run stopped at its progress target or drained under a round cap, a
        // finished run (everyone counted informed) must be backed by a receipt timestamp at
        // every honest node — the tally cannot run ahead of per-node evidence. An unfinished
        // run (deadline, budget, or rounds exhausted) is a clean failure.
        if world.informed >= self.spec.nodes {
            for k in (0..self.spec.nodes).filter(|&k| roster.is_none_or(|r| !r.contains(k))) {
                inv.check(world.informed_at[k].is_some(), || {
                    format!("honest node {k} has no receipt in a fully-informed run")
                });
            }
        }
        let evidenced = world.informed_at.iter().filter(|t| t.is_some()).count();
        inv.check(evidenced == world.informed, || {
            format!(
                "informed tally {} disagrees with {} per-node receipt timestamps",
                world.informed, evidenced
            )
        });
        inv
    }

    /// Any shard count runs; churn, zero-latency links and link conditioners do not.
    fn check_execution(&self, spec: &ScenarioSpec) -> Result<(), ScenarioError> {
        let unsupported = |reason: &str| {
            let reason = reason.to_string();
            Err(ScenarioError::ShardingUnsupported { reason })
        };
        if spec.sessions.is_some() {
            return unsupported(
                "gossip-sharded does not support churn (a session process needs same-instant \
                 global visibility)",
            );
        }
        if spec.topology.conservative_lookahead().is_none() {
            return unsupported("zero-latency access links leave no conservative lookahead");
        }
        if spec
            .topology
            .groups()
            .iter()
            .any(|g| g.link.condition.is_some())
        {
            return unsupported(
                "gossip-sharded models its own wire delays and would silently ignore link \
                 conditioners",
            );
        }
        Ok(())
    }

    /// The sharded execution: derive the lookahead, run the windowed runtime, merge the
    /// per-shard worlds and reconstruct the metrics shard-count-invariantly.
    fn run_sharded(
        &mut self,
        spec: &ScenarioSpec,
        arrivals: &ArrivalSchedule,
        rec: &mut Recorder,
        progress: TimeSeriesId,
    ) -> Option<Result<(GossipShardedWorld, ShardedOutcome), ScenarioError>> {
        let lookahead = (spec.topology.conservative_lookahead())
            .expect("the runner's check_execution rejects a topology without lookahead");

        // One entry per group: node ids are assigned consecutively per group, in group order
        // (the same numbering the DSL's single-group topologies trivially satisfy).
        let mut end = 0;
        let links: Vec<(usize, NodeLink)> = (spec.topology.groups().iter())
            .map(|group| {
                end += group.node_count;
                let link = NodeLink {
                    latency: group.link.latency,
                    up_bps: group.link.up_bps,
                };
                (end, link)
            })
            .collect();

        let mut cfg = ShardConfig::new(spec.shards, lookahead, spec.seed);
        cfg.deadline = SimTime::ZERO + spec.deadline;
        cfg.event_budget = spec.event_budget.unwrap_or(u64::MAX);
        // Uncapped rounds never stop on their own, so the summed dissemination count is the
        // stop condition; with a round cap the queues drain and the target must stay out of
        // the way (a capped run can finish dissemination and still drain afterwards).
        cfg.progress_target = if self.spec.rounds == 0 {
            self.spec.nodes as u64
        } else {
            u64::MAX
        };

        let workload_spec = &self.spec;
        let seed = spec.seed;
        let roster = self.roster.as_ref();
        let run = run_sharded(
            &cfg,
            |shard| {
                let links = links.clone();
                GossipShard::new(
                    shard,
                    cfg.shards,
                    workload_spec,
                    seed,
                    links,
                    arrivals,
                    roster,
                )
            },
            |sim| {
                // The block's arrivals are non-decreasing (the schedule is sorted), so each
                // can arm the next under the ranks reserved here.
                let len = sim.model().arrivals.len() as u64;
                sim.model().arrival_rank = sim.reserve_ranks(len);
                arm_arrival(sim, 0);
            },
        );

        // Merge the per-shard worlds into the global view. Every aggregate below is a function
        // of the partition-invariant event history, so the merged world (and the report built
        // from it) is byte-identical across shard counts. Each shard gives up its informed
        // times and is dropped (its round series and per-node streams with it) before the next
        // is read, and the global vectors are built only once every shard is gone.
        let mut world = GossipShardedWorld {
            informed_at: Vec::new(),
            informed: 0,
            rumors_sent: 0,
            duplicate_receipts: 0,
            missed_receipts: 0,
            windows: run.windows,
            messages: run.messages,
            cross_messages: run.cross_messages,
            byzantine_msgs_sent: 0,
        };
        let mut blocks = Vec::with_capacity(run.worlds.len());
        for shard in run.worlds {
            world.informed += shard.informed as usize;
            world.rumors_sent += shard.rumors_sent;
            world.duplicate_receipts += shard.duplicate_receipts;
            world.missed_receipts += shard.missed_receipts;
            world.byzantine_msgs_sent += shard.byzantine_msgs_sent;
            blocks.push(shard.informed_at);
        }
        world.informed_at = blocks.concat();
        drop(blocks);

        let stopped_at = run.end_time;

        // Reconstruct the progress (dissemination) curve on the scenario's sampling grid from
        // the per-node informed times — never from per-shard interleaving. One final sample at
        // the stop time matches the classic runner's closing sample.
        let mut informed_times: Vec<SimTime> =
            world.informed_at.iter().filter_map(|&t| t).collect();
        informed_times.sort_unstable();
        let step = spec.sample_interval.as_nanos();
        let mut grid = SimTime::ZERO;
        loop {
            let count = informed_times.partition_point(|&t| t <= grid);
            rec.push(progress, grid, count as f64);
            if grid >= stopped_at {
                break;
            }
            grid = SimTime::from_nanos(stopped_at.as_nanos().min(grid.as_nanos() + step));
        }
        if let Some(m) = self.metrics {
            rec.set_total(m.rumors_sent, world.rumors_sent);
            rec.set_total(m.duplicate_receipts, world.duplicate_receipts);
            rec.set_total(m.missed_receipts, world.missed_receipts);
            let online = arrivals
                .times()
                .iter()
                .filter(|&&t| t <= stopped_at)
                .count();
            rec.set(m.online_nodes, online as f64);
        }

        Some(Ok((
            world,
            ShardedOutcome {
                stopped_at,
                events_executed: run.executed_events,
                outcome: run.outcome.as_run_outcome(),
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeploymentSpec;
    use crate::report::RunReport;
    use crate::scenario::{run_scenario, SessionProcess};
    use p2plab_net::{AccessLinkClass, TopologySpec};
    use p2plab_sim::RunOutcome;

    fn lan(n: usize) -> TopologySpec {
        TopologySpec::uniform(
            "lan",
            n,
            AccessLinkClass::symmetric(100_000_000, SimDuration::from_micros(500)),
        )
    }

    fn scenario(name: &str, n: usize, shards: usize) -> ScenarioSpec {
        ScenarioSpec {
            deployment: DeploymentSpec::new(4),
            deadline: SimDuration::from_secs(600),
            sample_interval: SimDuration::from_secs(1),
            seed: 11,
            shards,
            ..ScenarioSpec::new(name, lan(n))
        }
    }

    fn run(n: usize, shards: usize) -> (GossipShardedWorld, RunReport) {
        let spec = GossipShardedSpec::new(n);
        let s = scenario("gossip-sharded", n, shards);
        run_scenario(&s, GossipShardedWorkload::new(spec)).unwrap()
    }

    /// The report with its wall-clock fields zeroed, as JSON.
    fn canon(mut report: RunReport) -> String {
        report.wall_secs = 0.0;
        report.events_per_sec = 0.0;
        report.to_json()
    }

    #[test]
    fn block_partition_is_a_bijection() {
        for &(nodes, shards) in &[(10, 1), (10, 3), (7, 4), (12, 4), (5, 5)] {
            let mut seen = vec![false; nodes];
            for s in 0..shards {
                for n in block_of(s, shards, nodes) {
                    assert!(!seen[n], "node {n} owned twice");
                    seen[n] = true;
                    assert_eq!(shard_of(n, shards, nodes), s);
                }
            }
            assert!(seen.iter().all(|&s| s), "every node owned once");
        }
    }

    #[test]
    fn rumor_reaches_every_node() {
        let (w, report) = run(64, 1);
        assert_eq!(w.informed, 64, "{:?}", report.outcome);
        let origin = w.informed_at[0].unwrap();
        assert!(w
            .informed_at
            .iter()
            .all(|&t| (origin..=report.stopped_at).contains(&t.unwrap())));
        assert!(w.rumors_sent > 0);
        let samples = report.progress().samples();
        assert!(samples.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(samples.last().unwrap().1, 64.0);
    }

    #[test]
    fn reports_are_byte_identical_across_shard_counts() {
        let (reference, report1) = run(64, 1);
        for shards in [2, 3, 4] {
            let (w, report) = run(64, shards);
            assert_eq!(
                reference.informed_at, w.informed_at,
                "informed times diverged at {shards} shards"
            );
            assert_eq!(reference.rumors_sent, w.rumors_sent);
            assert_eq!(reference.duplicate_receipts, w.duplicate_receipts);
            assert_eq!(reference.missed_receipts, w.missed_receipts);
            assert!(w.cross_messages > 0, "sharded run never crossed shards");
            // The full report artifact (event count and stop time included) matches modulo
            // wall-clock fields.
            assert_eq!(
                canon(report1.clone()),
                canon(report),
                "RunReport diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn capped_rounds_drain_instead_of_stopping_at_the_target() {
        // With a round cap every node eventually goes quiet, so the run reaches
        // `RunOutcome::Drained` — the stop strict campaign cells require — rather than being
        // cut at the dissemination target, and the result is still shard-count-invariant.
        let run_capped = |shards: usize| {
            // The cap must outlast the arrival ramp (one node per second): a node that has
            // exhausted its rounds never re-pushes to late arrivals.
            let mut spec = GossipShardedSpec::new(48);
            spec.rounds = 60;
            let s = scenario("gossip-capped", 48, shards);
            run_scenario(&s, GossipShardedWorkload::new(spec)).unwrap()
        };
        let (reference, report1) = run_capped(1);
        assert_eq!(report1.outcome, RunOutcome::Drained);
        assert_eq!(reference.informed, 48, "{}/48 informed", reference.informed);
        for shards in [2, 4] {
            let (w, report) = run_capped(shards);
            assert_eq!(report.outcome, RunOutcome::Drained);
            assert_eq!(reference.informed_at, w.informed_at);
            assert_eq!(
                canon(report1.clone()),
                canon(report),
                "capped RunReport diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn adversarial_reports_are_byte_identical_across_shard_counts() {
        // Byzantine tampering draws only from per-node streams, so the partition must not
        // steer a single coin flip: the same seed yields the same report at any shard count.
        use crate::adversary::{AdversaryPlan, Selection};
        let run_byz = |shards: usize| {
            let spec = GossipShardedSpec::new(48);
            let mut plan = AdversaryPlan::new(0.0, &["reply-delay", "amplify"]);
            plan.selection = Selection::Trace(vec![5, 17, 29]);
            let s = ScenarioSpec {
                adversary: Some(plan),
                ..scenario("gossip-byz", 48, shards)
            };
            run_scenario(&s, GossipShardedWorkload::new(spec)).unwrap()
        };
        let (reference, report1) = run_byz(1);
        assert_eq!(reference.informed, 48, "{}/48 informed", reference.informed);
        assert!(report1.metrics.counter("byzantine_msgs_sent").unwrap() > 0);
        assert_eq!(report1.metrics.counter("invariant_violations"), Some(0));
        for shards in [2, 4] {
            let (w, report) = run_byz(shards);
            assert_eq!(
                reference.informed_at, w.informed_at,
                "informed times diverged at {shards} shards"
            );
            assert_eq!(reference.duplicate_receipts, w.duplicate_receipts);
            assert_eq!(
                canon(report1.clone()),
                canon(report),
                "adversarial RunReport diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn churn_is_rejected_under_sharding() {
        let spec = GossipShardedSpec::new(8);
        let s = ScenarioSpec {
            sessions: Some(SessionProcess::Exponential {
                mean_session: SimDuration::from_secs(20),
                mean_downtime: SimDuration::from_secs(10),
            }),
            ..scenario("gossip-churn", 8, 2)
        };
        let err = run_scenario(&s, GossipShardedWorkload::new(spec)).err();
        assert!(matches!(
            err,
            Some(ScenarioError::ShardingUnsupported { .. })
        ));
    }

    #[test]
    fn conditioned_links_are_rejected() {
        let spec = GossipShardedSpec::new(8);
        let link = AccessLinkClass::symmetric(100_000_000, SimDuration::from_millis(5))
            .with_condition(Some(
                p2plab_net::LinkCondition::none().with_jitter(SimDuration::from_millis(3)),
            ));
        let topo = TopologySpec::uniform("cond", 8, link);
        let s = ScenarioSpec {
            deadline: SimDuration::from_secs(600),
            ..ScenarioSpec::new("gossip-cond", topo)
        };
        let err = run_scenario(&s, GossipShardedWorkload::new(spec)).err();
        assert!(matches!(
            err,
            Some(ScenarioError::ShardingUnsupported { .. })
        ));
    }

    #[test]
    fn zero_latency_topology_is_rejected() {
        let spec = GossipShardedSpec::new(8);
        let topo = TopologySpec::uniform(
            "zero",
            8,
            AccessLinkClass::symmetric(100_000_000, SimDuration::ZERO),
        );
        let s = ScenarioSpec {
            deadline: SimDuration::from_secs(600),
            ..ScenarioSpec::new("gossip-zero", topo)
        };
        let err = run_scenario(&s, GossipShardedWorkload::new(spec)).err();
        assert!(matches!(
            err,
            Some(ScenarioError::ShardingUnsupported { .. })
        ));
    }
}
