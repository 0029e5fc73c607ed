//! Deterministic multi-core execution: the sharded event-loop runtime.
//!
//! This module is the **sanctioned home of real OS threads** in the simulation path
//! (`clippy.toml` disallows `std::thread::scope` everywhere else). It runs K independent [`Simulation`]s — one per shard,
//! each with its own timer-wheel queue — synchronized Chandy–Misra style by a **conservative
//! lookahead window**: every cross-shard interaction is a time-stamped message with a delivery
//! delay of at least the lookahead `L`, so a shard can execute a whole window of virtual time
//! `[k·L, (k+1)·L)` without observing its neighbours. At each window boundary the shards
//! exchange envelopes, merge them into their queues in deterministic `(time, tag, send order)`
//! order, and jointly pick the next window (fast-forwarding over globally empty ones).
//!
//! # One pending event per inbound window
//!
//! The envelopes a shard merges at a boundary form one ranked series (see
//! [`reserve_ranks`](Simulation::reserve_ranks)): the merge stable-sorts them on
//! `(deliver_at, tag)`, reserves one rank per envelope — the sequence numbers one push per
//! envelope would have drawn there — and keeps the sorted batch in the shard's host. Only the
//! batch's front sits in the queue, as [`ShardEvent::Deliver`]; when it fires it hands out its
//! envelope and arms the next under the rank after its own. A batch may still be delivering
//! when later boundaries merge theirs (a delay may span several windows), so the host keeps the
//! live batches in a small slab and reuses a slot once its batch is spent. The order is the
//! one a per-tag sequence number would give: all of a tag's envelopes come from its owner
//! shard's outbox, in send order, and a stable sort keeps that order among equal keys.
//!
//! # The determinism contract
//!
//! Execution is **bit-reproducible for a fixed seed regardless of shard count** provided the
//! workload honours the shard-safety rules:
//!
//! * **Disjoint state** — an entity (a vnode, usually) lives in exactly one shard and handlers
//!   only touch entities of their own shard. All other interaction goes through
//!   [`send_message`](Simulation::send_message).
//! * **Tagged sends** — every message carries the sending entity's globally unique `tag`
//!   (node id). The tag, each tag's send order and the window grid give every envelope a
//!   total order that does not depend on the partition.
//! * **Lookahead respected** — every message delay is at least the configured lookahead
//!   (asserted). In a network simulation the natural lookahead is the minimum cross-node
//!   pipe latency.
//! * **Per-entity randomness** — model decisions draw from per-entity RNG streams
//!   (`SimRng::split_u64(node_id)`), never from the shard simulation's own RNG (whose
//!   interleave depends on the partition).
//!
//! The window grid is aligned to absolute multiples of `L`, so the barrier instants — and
//! therefore the queue-insertion order of merged envelopes relative to locally scheduled
//! events — are identical for every partition of the same scenario. `shards = 1` runs the
//! very same windowed algorithm inline on the calling thread (no threads spawned) and is the
//! reference semantics the multi-shard runs are compared against.

use crate::engine::{RunOutcome, Simulation, TypedEvent};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};

/// The world type a shard-native workload plugs into the runtime.
///
/// Implementors hold the state of *one shard's* entities. Cross-entity interaction happens via
/// [`send_message`](Simulation::send_message) (delivered to [`on_message`](ShardWorld::on_message))
/// and entity-local timers via [`schedule_local_in`](Simulation::schedule_local_in)
/// (delivered to [`on_local`](ShardWorld::on_local)).
pub trait ShardWorld: Sized + Send + 'static {
    /// The cross-shard message payload. Crosses thread boundaries, hence `Send`.
    type Msg: Send + 'static;
    /// The shard-local timer/event payload (never crosses threads).
    type Local: 'static;

    /// Handles a delivered message. `src` is the sending entity's tag.
    fn on_message(sim: &mut ShardSim<Self>, src: u64, msg: Self::Msg);

    /// Handles a shard-local event.
    fn on_local(sim: &mut ShardSim<Self>, ev: Self::Local);

    /// Monotone completion measure for this shard (e.g. "entities finished"). Summed across
    /// shards at every window boundary and compared against
    /// [`ShardConfig::progress_target`]; the run stops once the sum reaches the target.
    fn progress(&self) -> u64 {
        0
    }
}

/// The simulation type a shard-native workload runs on.
pub type ShardSim<W> = Simulation<ShardHost<W>, ShardEvent<W>>;

/// The pooled typed-event class of a shard simulation: merged message deliveries plus the
/// workload's own local events.
pub enum ShardEvent<W: ShardWorld> {
    /// The front message of an inbound batch is due for delivery now (the runtime schedules
    /// this; a workload schedules only [`Local`](ShardEvent::Local) events).
    Deliver {
        /// The batch's slot in the shard's host.
        batch: u32,
    },
    /// A workload-defined shard-local event.
    Local(W::Local),
}

impl<W: ShardWorld> TypedEvent<ShardHost<W>> for ShardEvent<W> {
    fn fire(self, sim: &mut ShardSim<W>) {
        match self {
            ShardEvent::Deliver { batch } => {
                let (envelope, next) = sim.world_mut().take_front(batch);
                if let Some(at) = next {
                    let rank = sim.firing_rank() + 1;
                    sim.schedule_event_ranked(at, rank, ShardEvent::Deliver { batch });
                }
                W::on_message(sim, envelope.tag, envelope.msg);
            }
            ShardEvent::Local(ev) => W::on_local(sim, ev),
        }
    }
}

/// A time-stamped cross-shard message with its merge key `(deliver_at, tag)`.
struct Envelope<M> {
    deliver_at: SimTime,
    tag: u64,
    msg: M,
}

// Every message in flight is one: 24 bytes for a payload of up to 8 (the sharded gossip's
// push is 4).
const _: () = assert!(std::mem::size_of::<Envelope<u64>>() <= 24);

/// The per-shard wrapper the runtime owns: the workload's world plus routing state (outboxes,
/// inbound batches, shard identity).
pub struct ShardHost<W: ShardWorld> {
    world: W,
    shard: usize,
    shards: usize,
    lookahead: SimDuration,
    outbox: Vec<Vec<Envelope<W::Msg>>>,
    /// The inbound batches by slot, each a boundary's merged envelopes still to deliver, in
    /// merge order: a live batch has its front in the queue.
    batches: Vec<VecDeque<Envelope<W::Msg>>>,
    /// The slots of spent batches, free for the next merge.
    free_batches: Vec<u32>,
    messages: u64,
    cross_messages: u64,
}

impl<W: ShardWorld> ShardHost<W> {
    fn new(world: W, shard: usize, shards: usize, lookahead: SimDuration) -> Self {
        ShardHost {
            world,
            shard,
            shards,
            lookahead,
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            batches: Vec::new(),
            free_batches: Vec::new(),
            messages: 0,
            cross_messages: 0,
        }
    }

    /// Stores a merged, sorted, non-empty inbound batch and returns its slot.
    fn store_batch(&mut self, envelopes: Vec<Envelope<W::Msg>>) -> u32 {
        let batch = VecDeque::from(envelopes);
        match self.free_batches.pop() {
            Some(slot) => {
                self.batches[slot as usize] = batch;
                slot
            }
            None => {
                self.batches.push(batch);
                u32::try_from(self.batches.len() - 1).expect("fewer than 2^32 live batches")
            }
        }
    }

    /// Takes the front envelope of batch `slot` and returns it with the delivery time of the
    /// next, if any; a spent batch's slot is freed.
    fn take_front(&mut self, slot: u32) -> (Envelope<W::Msg>, Option<SimTime>) {
        let batch = &mut self.batches[slot as usize];
        let envelope = batch
            .pop_front()
            .expect("a delivery fired for a spent batch");
        let next = batch.front().map(|e| e.deliver_at);
        if next.is_none() {
            *batch = VecDeque::new();
            self.free_batches.push(slot);
        }
        (envelope, next)
    }

    /// The workload's world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the workload's world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// This shard's index in `0..shards()`.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total number of shards in the run.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The conservative lookahead: the minimum legal message delay.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }
}

impl<W: ShardWorld> ShardSim<W> {
    /// Sends `msg` from entity `tag` to `dest_shard`, delivered after `delay`.
    ///
    /// All entity interaction — same-shard included — goes through this call: envelopes are
    /// buffered and merged at window boundaries in `(time, tag, send order)` order, which is
    /// what makes execution independent of the partition. `delay` must be at least the lookahead.
    ///
    /// # Panics
    ///
    /// Panics when `delay` is below the lookahead or `dest_shard` is out of range — either
    /// would let a message violate the conservative window and silently break determinism.
    pub fn send_message(&mut self, tag: u64, dest_shard: usize, delay: SimDuration, msg: W::Msg) {
        let now = self.now();
        let host = self.world_mut();
        assert!(
            delay >= host.lookahead,
            "message delay {delay} below the conservative lookahead {} — the sharded runtime \
             cannot deliver it deterministically",
            host.lookahead
        );
        assert!(
            dest_shard < host.shards,
            "destination shard {dest_shard} out of range (shards = {})",
            host.shards
        );
        let envelope = Envelope {
            deliver_at: now + delay,
            tag,
            msg,
        };
        host.messages += 1;
        if dest_shard != host.shard {
            host.cross_messages += 1;
        }
        host.outbox[dest_shard].push(envelope);
    }

    /// Schedules a workload-local event after `delay` (sugar over
    /// [`schedule_event_in`](Simulation::schedule_event_in)).
    pub fn schedule_local_in(&mut self, delay: SimDuration, ev: W::Local) {
        self.schedule_event_in(delay, ShardEvent::Local(ev));
    }

    /// Shorthand for the workload's world (`self.world_mut().world_mut()`).
    pub fn model(&mut self) -> &mut W {
        self.world_mut().world_mut()
    }
}

/// Configuration of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (worker threads). `1` runs the windowed algorithm inline.
    pub shards: usize,
    /// The conservative lookahead `L`: windows span `[k·L, (k+1)·L)` and every message delay
    /// must be at least `L`. Must be positive.
    pub lookahead: SimDuration,
    /// Root seed; shard simulations are seeded with deterministic splits of it.
    pub seed: u64,
    /// Virtual-time deadline (inclusive, like [`Simulation::run_until`]). `SimTime::MAX`
    /// means "run to drain".
    pub deadline: SimTime,
    /// Global event budget, checked at window boundaries (a run may overshoot by at most one
    /// window per shard). `u64::MAX` disables it.
    pub event_budget: u64,
    /// Stop once the summed [`ShardWorld::progress`] reaches this value (checked at window
    /// boundaries). `u64::MAX` disables it.
    pub progress_target: u64,
}

impl ShardConfig {
    /// A config with the given shard count, lookahead and seed; no deadline, budget or target.
    pub fn new(shards: usize, lookahead: SimDuration, seed: u64) -> Self {
        ShardConfig {
            shards,
            lookahead,
            seed,
            deadline: SimTime::MAX,
            event_budget: u64::MAX,
            progress_target: u64::MAX,
        }
    }
}

/// Why a sharded run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Every shard's queue drained with no envelopes in flight.
    Drained,
    /// The next pending event lies beyond the deadline.
    DeadlineReached,
    /// The summed event count reached the budget (checked at window boundaries).
    EventBudgetExhausted,
    /// The summed progress reached [`ShardConfig::progress_target`].
    TargetReached,
}

impl ShardOutcome {
    /// The equivalent single-simulation [`RunOutcome`] (target-reached maps to a deadline
    /// stop: the run was cut short with events still pending, by design).
    pub fn as_run_outcome(self) -> RunOutcome {
        match self {
            ShardOutcome::Drained => RunOutcome::Drained,
            ShardOutcome::DeadlineReached | ShardOutcome::TargetReached => {
                RunOutcome::DeadlineReached
            }
            ShardOutcome::EventBudgetExhausted => RunOutcome::EventBudgetExhausted,
        }
    }
}

/// The result of [`run_sharded`]: the final worlds (in shard order) plus run-wide aggregates,
/// all of which are shard-count-invariant (no wall-clock fields).
pub struct ShardRun<W> {
    /// The final per-shard worlds, in shard order.
    pub worlds: Vec<W>,
    /// Total events executed across all shards.
    pub executed_events: u64,
    /// Where virtual time stopped: the deadline on [`ShardOutcome::DeadlineReached`], the
    /// latest executed event time otherwise.
    pub end_time: SimTime,
    /// Why the run stopped.
    pub outcome: ShardOutcome,
    /// Number of synchronization windows executed (empty windows are skipped, not counted).
    pub windows: u64,
    /// Total messages sent (same-shard included).
    pub messages: u64,
    /// Messages whose destination shard differed from the source shard.
    pub cross_messages: u64,
}

/// What every thread independently (and identically) concludes at a window boundary.
enum Decision {
    Stop(ShardOutcome),
    Window { end: SimTime },
}

/// Per-shard state published at each boundary, read by every thread to reach the same
/// [`Decision`].
#[derive(Clone, Copy)]
struct Status {
    next: Option<SimTime>,
    executed: u64,
    progress: u64,
    /// The shard panicked.
    failed: bool,
}

/// The state shared between shard threads for one run.
struct Shared<M> {
    mailboxes: Vec<Mutex<Vec<Envelope<M>>>>,
    statuses: Vec<Mutex<Status>>,
    barrier: Barrier,
}

/// Computes the boundary decision from the published statuses. Pure integer function of
/// identical inputs, so every thread reaches the same conclusion without a coordinator.
fn decide(statuses: &[Status], cfg: &ShardConfig) -> Decision {
    let executed = statuses
        .iter()
        .fold(0u64, |a, s| a.saturating_add(s.executed));
    if executed >= cfg.event_budget {
        return Decision::Stop(ShardOutcome::EventBudgetExhausted);
    }
    let progress = statuses
        .iter()
        .fold(0u64, |a, s| a.saturating_add(s.progress));
    if progress >= cfg.progress_target {
        return Decision::Stop(ShardOutcome::TargetReached);
    }
    let global_next = statuses.iter().filter_map(|s| s.next).min();
    let Some(next) = global_next else {
        return Decision::Stop(ShardOutcome::Drained);
    };
    if next > cfg.deadline {
        return Decision::Stop(ShardOutcome::DeadlineReached);
    }
    // The window containing the globally earliest event, on the absolute grid of multiples of
    // the lookahead — fast-forwarding over empty windows without ever crossing an occupied one.
    let l = cfg.lookahead.as_nanos();
    let window_end = (next.as_nanos() - next.as_nanos() % l).saturating_add(l);
    // The deadline is inclusive (`run_until` semantics): events at exactly `deadline` execute,
    // so the last window's exclusive end is deadline + 1.
    let end = window_end.min(cfg.deadline.as_nanos().saturating_add(1));
    Decision::Window {
        end: SimTime::from_nanos(end),
    }
}

/// What one shard's thread hands back when the run stops.
struct ShardExit<W> {
    world: W,
    executed: u64,
    now: SimTime,
    outcome: ShardOutcome,
    windows: u64,
    messages: u64,
    cross_messages: u64,
}

/// A panic caught in a shard's thread, carried to the end of the run.
type Failure = Option<Box<dyn std::any::Any + Send>>;

/// Runs one shard's stretch of work between two barriers, unless the shard has failed, and
/// keeps a panic in `failure`. The shard then publishes that it failed, and every shard stops
/// at that boundary: a shard that left the window loop early would leave the others waiting
/// at a barrier.
fn guarded(failure: &mut Failure, work: impl FnOnce()) {
    if failure.is_some() {
        return;
    }
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(work)) {
        *failure = Some(payload);
    }
}

/// One shard's thread body: the window loop between barriers.
fn run_shard<W: ShardWorld>(
    idx: usize,
    cfg: &ShardConfig,
    shared: &Shared<W::Msg>,
    build: &(impl Fn(usize) -> W + Sync),
    init: &(impl Fn(&mut ShardSim<W>) + Sync),
) -> ShardExit<W> {
    let shard_seed = SimRng::new(cfg.seed).split_u64(idx as u64).seed();
    let host = ShardHost::new(build(idx), idx, cfg.shards, cfg.lookahead);
    let mut sim: ShardSim<W> = Simulation::new(host, shard_seed);
    let mut failure: Failure = None;

    let mut windows = 0u64;
    let publish = |sim: &mut ShardSim<W>| {
        let status = Status {
            next: sim.next_event_time(),
            executed: sim.executed_events(),
            progress: sim.world().world().progress(),
            failed: false,
        };
        *shared.statuses[idx].lock().unwrap() = status;
    };
    let publish_failure = |failure: &Failure| {
        if failure.is_some() {
            shared.statuses[idx].lock().unwrap().failed = true;
        }
    };

    // Initial boundary: seeds may already be in the queue; nothing to merge yet.
    guarded(&mut failure, || {
        init(&mut sim);
        publish(&mut sim);
    });
    publish_failure(&failure);
    shared.barrier.wait();

    let outcome = loop {
        let statuses: Vec<Status> = shared.statuses.iter().map(|s| *s.lock().unwrap()).collect();
        if statuses.iter().any(|s| s.failed) {
            // A shard panicked; its thread carries the panic on below.
            break ShardOutcome::Drained;
        }
        let end = match decide(&statuses, cfg) {
            Decision::Stop(outcome) => break outcome,
            Decision::Window { end } => end,
        };
        windows += 1;
        guarded(&mut failure, || {
            if cfg.event_budget != u64::MAX {
                // Runaway protection inside the window: a shard may spend at most the
                // remaining global budget (the authoritative check is the summed one at the
                // boundary).
                let global = statuses
                    .iter()
                    .fold(0u64, |a, s| a.saturating_add(s.executed));
                let remaining = cfg.event_budget - global;
                sim.set_event_budget(sim.executed_events().saturating_add(remaining));
            }
            sim.run_before(end);

            // Flush this window's envelopes to the destination mailboxes. Append order across
            // source shards is racy; the sort at the merge restores the canonical order.
            let host = sim.world_mut();
            for dest in 0..cfg.shards {
                if host.outbox[dest].is_empty() {
                    continue;
                }
                let mut batch = std::mem::take(&mut host.outbox[dest]);
                shared.mailboxes[dest].lock().unwrap().append(&mut batch);
            }
        });
        shared.barrier.wait();

        // Merge inbound envelopes in deterministic (time, tag, send order) order into one
        // ranked series, then publish this shard's horizon for the joint decision.
        guarded(&mut failure, || {
            let mut inbound = std::mem::take(&mut *shared.mailboxes[idx].lock().unwrap());
            if !inbound.is_empty() {
                // Stable: equal keys are one tag's envelopes, appended in send order.
                inbound.sort_by_key(|e| (e.deliver_at, e.tag));
                let at = inbound[0].deliver_at;
                debug_assert!(
                    at >= end,
                    "envelope at {at} arrived inside the closed window ending at {end}"
                );
                let rank = sim.reserve_ranks(inbound.len() as u64);
                let batch = sim.world_mut().store_batch(inbound);
                sim.schedule_event_ranked(at, rank, ShardEvent::Deliver { batch });
            }
            publish(&mut sim);
        });
        publish_failure(&failure);
        shared.barrier.wait();
    };
    if let Some(payload) = failure {
        panic::resume_unwind(payload);
    }

    let executed = sim.executed_events();
    let now = sim.now();
    let host = sim.into_world();
    ShardExit {
        world: host.world,
        executed,
        now,
        outcome,
        windows,
        messages: host.messages,
        cross_messages: host.cross_messages,
    }
}

/// Runs a shard-native workload to completion under the conservative-window protocol.
///
/// `build(idx)` constructs shard `idx`'s world; `init(sim)` seeds its initial events (the
/// shard index is available as `sim.world().shard()`). With `cfg.shards == 1` everything runs
/// inline on the calling thread — the same algorithm, no threads — which is the reference
/// semantics. Results are bit-identical across shard counts for workloads honouring the
/// module-level contract.
///
/// # Panics
///
/// Panics on zero shards or a zero lookahead (a zero window never advances virtual time), and
/// when a shard's `init` or handler panics: every shard stops at the next window boundary and
/// the panic reaches the caller.
pub fn run_sharded<W: ShardWorld>(
    cfg: &ShardConfig,
    build: impl Fn(usize) -> W + Sync,
    init: impl Fn(&mut ShardSim<W>) + Sync,
) -> ShardRun<W> {
    assert!(cfg.shards >= 1, "need at least one shard");
    assert!(
        !cfg.lookahead.is_zero(),
        "conservative lookahead must be positive — with zero lookahead no window can ever \
         advance virtual time (derive it from the minimum cross-node latency)"
    );
    let shared: Shared<W::Msg> = Shared {
        mailboxes: (0..cfg.shards).map(|_| Mutex::new(Vec::new())).collect(),
        statuses: (0..cfg.shards)
            .map(|_| {
                Mutex::new(Status {
                    next: None,
                    executed: 0,
                    progress: 0,
                    failed: false,
                })
            })
            .collect(),
        barrier: Barrier::new(cfg.shards),
    };

    let mut results = Vec::with_capacity(cfg.shards);
    if cfg.shards == 1 {
        results.push(run_shard(0, cfg, &shared, &build, &init));
    } else {
        let shared_ref = &shared;
        let build_ref = &build;
        let init_ref = &init;
        #[expect(
            clippy::disallowed_methods,
            reason = "the sharded runtime is where sim-path OS threads live"
        )]
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.shards)
                .map(|idx| {
                    scope.spawn(move || run_shard(idx, cfg, shared_ref, build_ref, init_ref))
                })
                .collect();
            for handle in handles {
                results.push(handle.join().expect("shard thread panicked"));
            }
        });
    }

    let outcome = results[0].outcome;
    let last_event = results.iter().map(|r| r.now).max().unwrap_or(SimTime::ZERO);
    let end_time = if outcome == ShardOutcome::DeadlineReached {
        cfg.deadline
    } else {
        last_event
    };
    ShardRun {
        executed_events: results.iter().map(|r| r.executed).sum(),
        end_time,
        outcome,
        windows: results[0].windows,
        messages: results.iter().map(|r| r.messages).sum(),
        cross_messages: results.iter().map(|r| r.cross_messages).sum(),
        worlds: results.into_iter().map(|r| r.world).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy shard-safe workload: `nodes` counters arranged in a ring, each forwarding a token
    /// `hops` times with a fixed per-hop delay. Entity `i` lives in shard `i % shards`.
    struct Ring {
        shards: usize,
        nodes: u64,
        hop: SimDuration,
        /// Per-local-entity receive counts, keyed by node id (only this shard's nodes).
        received: Vec<(u64, u64)>,
        log: Vec<(SimTime, u64)>,
    }

    enum RingLocal {
        Kick { node: u64, hops: u32 },
    }

    struct RingMsg {
        hops_left: u32,
    }

    impl Ring {
        fn shard_of(&self, node: u64) -> usize {
            (node % self.shards as u64) as usize
        }
    }

    impl ShardWorld for Ring {
        type Msg = RingMsg;
        type Local = RingLocal;

        fn on_message(sim: &mut ShardSim<Self>, src: u64, msg: RingMsg) {
            let now = sim.now();
            let world = sim.model();
            let dest = (src + 1) % world.nodes;
            if let Some(entry) = world.received.iter_mut().find(|(n, _)| *n == dest) {
                entry.1 += 1;
            }
            world.log.push((now, dest));
            if msg.hops_left > 0 {
                let hop = world.hop;
                let next_shard = world.shard_of((dest + 1) % world.nodes);
                sim.send_message(
                    dest,
                    next_shard,
                    hop,
                    RingMsg {
                        hops_left: msg.hops_left - 1,
                    },
                );
            }
        }

        fn on_local(sim: &mut ShardSim<Self>, ev: RingLocal) {
            let RingLocal::Kick { node, hops } = ev;
            let world = sim.model();
            let hop = world.hop;
            let next_shard = world.shard_of((node + 1) % world.nodes);
            sim.send_message(node, next_shard, hop, RingMsg { hops_left: hops });
        }

        fn progress(&self) -> u64 {
            self.received.iter().map(|(_, c)| c).sum()
        }
    }

    fn run_ring(
        shards: usize,
        nodes: u64,
        hops: u32,
        cfg_mut: impl Fn(&mut ShardConfig),
    ) -> ShardRun<Ring> {
        let hop = SimDuration::from_millis(5);
        let mut cfg = ShardConfig::new(shards, hop, 42);
        cfg_mut(&mut cfg);
        run_sharded(
            &cfg,
            |idx| Ring {
                shards,
                nodes,
                hop,
                received: (0..nodes)
                    .filter(|n| (n % shards as u64) as usize == idx)
                    .map(|n| (n, 0))
                    .collect(),
                log: Vec::new(),
            },
            |sim| {
                let idx = sim.world().shard();
                let nodes = sim.world().world().nodes;
                for node in (0..nodes).filter(|n| (n % shards as u64) as usize == idx) {
                    sim.schedule_local_in(
                        SimDuration::from_millis(1 + node),
                        RingLocal::Kick { node, hops },
                    );
                }
            },
        )
    }

    /// A partition-independent observation: every (time, node) receipt plus per-node totals,
    /// sorted canonically, and the run's executed-event count.
    type Observation = (Vec<(SimTime, u64)>, Vec<(u64, u64)>, u64);

    /// Collapses a run into an [`Observation`].
    fn observe(run: &ShardRun<Ring>) -> Observation {
        let mut log: Vec<(SimTime, u64)> = run.worlds.iter().flat_map(|w| w.log.clone()).collect();
        log.sort_unstable();
        let mut recv: Vec<(u64, u64)> =
            run.worlds.iter().flat_map(|w| w.received.clone()).collect();
        recv.sort_unstable();
        (log, recv, run.executed_events)
    }

    #[test]
    fn shard_counts_agree_exactly() {
        let reference = run_ring(1, 12, 20, |_| {});
        assert_eq!(reference.outcome, ShardOutcome::Drained);
        for shards in [2, 3, 4] {
            let run = run_ring(shards, 12, 20, |_| {});
            assert_eq!(run.outcome, ShardOutcome::Drained, "shards={shards}");
            assert_eq!(observe(&run), observe(&reference), "shards={shards}");
            assert_eq!(run.end_time, reference.end_time, "shards={shards}");
            assert_eq!(run.windows, reference.windows, "shards={shards}");
            assert_eq!(run.messages, reference.messages, "shards={shards}");
        }
    }

    #[test]
    fn cross_messages_are_counted() {
        let run = run_ring(4, 8, 3, |_| {});
        // Ring neighbours always land in the next shard under the modulo partition.
        assert_eq!(run.cross_messages, run.messages);
        let solo = run_ring(1, 8, 3, |_| {});
        assert_eq!(solo.cross_messages, 0);
        assert_eq!(solo.messages, run.messages);
    }

    #[test]
    fn deadline_stops_identically_across_shard_counts() {
        let deadline = SimTime::from_millis(40);
        let reference = run_ring(1, 12, 1000, |c| c.deadline = deadline);
        assert_eq!(reference.outcome, ShardOutcome::DeadlineReached);
        assert_eq!(reference.end_time, deadline);
        for shards in [2, 4] {
            let run = run_ring(shards, 12, 1000, |c| c.deadline = deadline);
            assert_eq!(run.outcome, ShardOutcome::DeadlineReached);
            assert_eq!(observe(&run), observe(&reference), "shards={shards}");
        }
    }

    #[test]
    fn progress_target_stops_the_run() {
        let run = run_ring(2, 12, 1000, |c| c.progress_target = 50);
        assert_eq!(run.outcome, ShardOutcome::TargetReached);
        let (_, recv, _) = observe(&run);
        let total: u64 = recv.iter().map(|(_, c)| c).sum();
        // The target is detected at a window boundary, so the run may overshoot slightly but
        // never stop short.
        assert!(total >= 50, "stopped before the target: {total}");
    }

    #[test]
    fn event_budget_stops_the_run() {
        let run = run_ring(2, 12, 1000, |c| c.event_budget = 100);
        assert_eq!(run.outcome, ShardOutcome::EventBudgetExhausted);
        assert!(run.executed_events >= 100);
    }

    #[test]
    fn empty_windows_are_skipped() {
        // Two kicks a minute of virtual time apart: the run must not grind through the
        // ~12000 empty 5 ms windows in between.
        let hop = SimDuration::from_millis(5);
        let cfg = ShardConfig::new(2, hop, 1);
        let run = run_sharded(
            &cfg,
            |_| Ring {
                shards: 2,
                nodes: 2,
                hop,
                received: Vec::new(),
                log: Vec::new(),
            },
            |sim| {
                if sim.world().shard() == 0 {
                    sim.schedule_local_in(
                        SimDuration::from_millis(1),
                        RingLocal::Kick { node: 0, hops: 0 },
                    );
                    sim.schedule_local_in(
                        SimDuration::from_secs(60),
                        RingLocal::Kick { node: 0, hops: 0 },
                    );
                }
            },
        );
        assert_eq!(run.outcome, ShardOutcome::Drained);
        assert!(
            run.windows < 10,
            "expected fast-forward over empty windows, got {} windows",
            run.windows
        );
    }

    #[test]
    #[should_panic(expected = "below the conservative lookahead")]
    fn undershooting_the_lookahead_panics() {
        let cfg = ShardConfig::new(1, SimDuration::from_millis(5), 1);
        run_sharded(
            &cfg,
            |_| Ring {
                shards: 1,
                nodes: 2,
                hop: SimDuration::from_millis(1),
                received: vec![(0, 0), (1, 0)],
                log: Vec::new(),
            },
            |sim| {
                sim.schedule_local_in(
                    SimDuration::from_millis(1),
                    RingLocal::Kick { node: 0, hops: 1 },
                );
            },
        );
    }

    #[test]
    #[should_panic(expected = "shard thread panicked")]
    fn a_handler_panic_on_one_shard_reaches_the_caller() {
        // Shard 0's kick undershoots the lookahead; shard 1 must not wait for it for ever.
        let cfg = ShardConfig::new(2, SimDuration::from_millis(5), 1);
        run_sharded(
            &cfg,
            |_| Ring {
                shards: 2,
                nodes: 2,
                hop: SimDuration::from_millis(1),
                received: Vec::new(),
                log: Vec::new(),
            },
            |sim| {
                if sim.world().shard() == 0 {
                    let kick = RingLocal::Kick { node: 0, hops: 1 };
                    sim.schedule_local_in(SimDuration::from_millis(1), kick);
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "lookahead must be positive")]
    fn zero_lookahead_is_rejected() {
        let cfg = ShardConfig::new(1, SimDuration::ZERO, 1);
        run_sharded(
            &cfg,
            |_| Ring {
                shards: 1,
                nodes: 1,
                hop: SimDuration::ZERO,
                received: Vec::new(),
                log: Vec::new(),
            },
            |_sim| {},
        );
    }
}
