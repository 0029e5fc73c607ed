//! Property-based tests of the discrete-event engine and the measurement types.

#![allow(
    clippy::disallowed_types,
    reason = "std collections model the implementation under test"
)]

use p2plab_sim::{
    Cdf, EventId, EventQueue, PeriodicSeries, SimDuration, SimTime, Simulation, Summary,
    TimeSeries, TypedEvent,
};
use proptest::prelude::*;

/// Logs the clock; with `Some(delay)` it also schedules a nested stamp `delay` ns later.
struct Stamp(Option<u64>);

impl TypedEvent<Vec<SimTime>> for Stamp {
    fn fire(self, sim: &mut Simulation<Vec<SimTime>, Stamp>) {
        let now = sim.now();
        sim.world_mut().push(now);
        if let Some(delay) = self.0 {
            sim.schedule_event_in(SimDuration::from_nanos(delay), Stamp(None));
        }
    }
}

/// A trivially-correct reference queue: a vector scanned for the minimum `(time, seq)` on
/// every pop. The timer wheel must be observation-equivalent to it under any interleaving of
/// schedules, cancellations and pops.
#[derive(Default)]
struct ModelQueue {
    entries: Vec<(SimTime, u64, usize)>, // (time, seq, payload)
    next_seq: u64,
}

impl ModelQueue {
    fn push(&mut self, time: SimTime, payload: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((time, seq, payload));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.entries.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Index of the entry with the least `(time, seq)`.
    fn min_index(&self) -> Option<usize> {
        let min = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))?;
        Some(min.0)
    }

    fn peek(&self) -> Option<SimTime> {
        self.min_index().map(|i| self.entries[i].0)
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        self.pop_entry().map(|(t, _, p)| (t, p))
    }

    /// Removes and returns the entry with the least `(time, seq)`.
    fn pop_entry(&mut self) -> Option<(SimTime, u64, usize)> {
        Some(self.entries.remove(self.min_index()?))
    }

    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, usize)> {
        if self.peek()? > deadline {
            return None;
        }
        self.pop()
    }
}

/// One step of a random queue workload.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule at the given (raw-nanosecond) time.
    Push(u64),
    /// Cancel the i-th still-uncancelled, unpopped id (modulo the live count).
    Cancel(usize),
    /// Pop the next due event.
    Pop,
    /// Pop the next event if it is due at or before the given (raw-nanosecond) deadline.
    PopDue(u64),
    /// Look at the next event's time.
    Peek,
}

/// Length of one wheel tick in nanoseconds (`TICK_SHIFT` in `event.rs`).
const TICK_NS: u64 = 1 << 16;
/// Ticks the bunched push arm crowds: one per wheel level 0, 1 and 2 as seen from cursor 0.
const BUNCHED_TICKS: [u64; 3] = [3, 70, 5_000];

/// Weighted op generator (the vendored proptest stub has no `prop_oneof!`). Push times mix
/// sub-tick deltas, mid-range delays, beyond-horizon outliers and many instants crowded into
/// one tick in random order, and `Peek` / `PopDue` move the cursor without consuming, so every
/// path is exercised: each wheel level, the overflow heap, a sorted batch of any size, and
/// pushes that land behind the cursor on either side of the batch's head.
struct QueueOpStrategy;

impl Strategy for QueueOpStrategy {
    type Value = QueueOp;
    fn sample(&self, rng: &mut proptest::TestRng) -> QueueOp {
        match rng.gen_range(0u32..30) {
            0..=4 => QueueOp::Push(rng.gen_range(0u64..2_000)),
            5..=9 => QueueOp::Push(rng.gen_range(0u64..10_000_000_000)),
            10 => QueueOp::Push(rng.gen_range(0u64..u64::MAX)),
            11..=18 => {
                let tick = BUNCHED_TICKS[rng.gen_range(0usize..BUNCHED_TICKS.len())];
                // A coarse grid inside the tick, so instants repeat and FIFO ties are hit.
                QueueOp::Push(tick * TICK_NS + rng.gen_range(0u64..64) * (TICK_NS / 64))
            }
            19..=21 => QueueOp::Cancel(rng.gen_range(0usize..64)),
            22 | 23 => QueueOp::Peek,
            24 => QueueOp::PopDue(rng.gen_range(0u64..2_000)),
            25 => QueueOp::PopDue(rng.gen_range(0u64..10_000_000_000)),
            _ => QueueOp::Pop,
        }
    }
}

/// One step of a random workload with reserved blocks of ranks.
#[derive(Debug, Clone)]
enum RankedOp {
    /// An ordinary queue step.
    Queue(QueueOp),
    /// Reserve `len` ranks for events at the non-decreasing raw-nanosecond times `start`,
    /// `start + gap`, …: the model pushes them all now, the wheel one at a time, each when
    /// its predecessor pops.
    Series { start: u64, len: u64, gap: u64 },
}

/// Mostly [`QueueOpStrategy`]'s steps, with blocks that start on the bunched ticks' grid and
/// step by zero, one grid cell, one tick or a random delay, so their members collide with
/// ordinary pushes and with each other.
struct RankedOpStrategy;

impl Strategy for RankedOpStrategy {
    type Value = RankedOp;
    fn sample(&self, rng: &mut proptest::TestRng) -> RankedOp {
        if rng.gen_range(0u32..5) != 0 {
            return RankedOp::Queue(QueueOpStrategy.sample(rng));
        }
        let tick = BUNCHED_TICKS[rng.gen_range(0usize..BUNCHED_TICKS.len())];
        let start = tick * TICK_NS + rng.gen_range(0u64..64) * (TICK_NS / 64);
        let gap = match rng.gen_range(0u32..4) {
            0 => 0,
            1 => TICK_NS / 64,
            2 => TICK_NS,
            _ => rng.gen_range(0u64..2_000_000_000),
        };
        RankedOp::Series {
            start,
            len: rng.gen_range(1u64..20),
            gap,
        }
    }
}

/// A reserved block as the wheel sees it: the member pending in the queue, and the times of
/// the ones still to push.
struct Block {
    first: u64,
    times: Vec<SimTime>,
    /// Index of the pending member, and its id.
    pending: (usize, EventId),
    /// Payload of member 0; member `k` carries `payload + k`.
    payload: usize,
}

impl Block {
    /// The member after the one carrying payload `p`, as `(index, time, rank, payload)`.
    fn successor(&self, p: usize) -> Option<(usize, SimTime, u64, usize)> {
        let k = p - self.payload + 1;
        let &time = self.times.get(k)?;
        Some((k, time, self.first + k as u64, p + 1))
    }
}

/// A cancellable handle of the ranked test: an ordinary event, or a block (its pending member).
#[derive(Clone, Copy)]
enum Handle {
    One(EventId, u64),
    Block(usize),
}

/// The periodic-series property's time grid: every instant and period is a multiple of it, so
/// rounds of different classes, ordinary events and first rounds collide at one instant.
const GRID_NS: u64 = 1_000;
/// Nodes of the periodic-series property.
const NODES: usize = 6;

/// A round of the periodic-series property: node `node`'s round of class `class`, armed under
/// the node's timer generation `generation` and logged as `label`.
#[derive(Debug, Clone, Copy)]
struct Member {
    class: usize,
    node: usize,
    generation: u32,
    label: usize,
}

/// The periodic-series property's events.
#[derive(Debug, Clone, Copy)]
enum Tick {
    /// An ordinary event, logged as `label`.
    Once(usize),
    /// A round as its own event: every round in the reference run, a first round at once in
    /// both runs.
    Round(Member),
    /// The head of class `c`'s series (the series run only).
    Head(usize),
    /// Node `node` (re)starts under a new generation, which leaves its armed rounds stale. Its
    /// first round of class `class` runs at once or is armed one period out.
    Restart {
        node: usize,
        class: usize,
        at_once: bool,
        label: usize,
    },
}

/// The periodic-series property's world: round classes of different periods, each node's
/// timer generation, and the log of what fired.
struct Rounds {
    /// Re-arms join `classes`; otherwise each is scheduled as its own event.
    series: bool,
    periods: Vec<SimDuration>,
    classes: Vec<PeriodicSeries<Member>>,
    generation: [u32; NODES],
    /// The sequence number each label's push drew or was reserved.
    seqs: Vec<u64>,
    /// `(time, label, sequence number)` of every event that fired.
    log: Vec<(SimTime, usize, u64)>,
    /// Pushes left before the run winds down.
    budget: u32,
}

impl TypedEvent<Rounds> for Tick {
    fn fire(self, sim: &mut Simulation<Rounds, Tick>) {
        match self {
            Tick::Once(label) => log(sim, label),
            Tick::Round(member) => round(sim, member),
            Tick::Head(c) => {
                let member = sim.pop_periodic(|w| &mut w.classes[c], Tick::Head(c));
                round(sim, member);
            }
            Tick::Restart {
                node,
                class,
                at_once,
                label,
            } => {
                log(sim, label);
                sim.world_mut().generation[node] += 1;
                let generation = sim.world().generation[node];
                match at_once {
                    true => {
                        let now = sim.now();
                        schedule(sim, now, |label| {
                            Tick::Round(Member {
                                class,
                                node,
                                generation,
                                label,
                            })
                        });
                    }
                    false => arm(sim, class, node, generation),
                }
            }
        }
    }
}

fn log(sim: &mut Simulation<Rounds, Tick>, label: usize) {
    let now = sim.now();
    let world = sim.world_mut();
    let seq = world.seqs[label];
    world.log.push((now, label, seq));
}

/// Takes one push from the budget, or false once it is spent.
fn spend(sim: &mut Simulation<Rounds, Tick>) -> bool {
    let world = sim.world_mut();
    world.budget = world.budget.saturating_sub(1);
    world.budget > 0
}

/// Schedules `event(label)` at `at` as an ordinary event under a fresh label.
fn schedule(sim: &mut Simulation<Rounds, Tick>, at: SimTime, event: impl FnOnce(usize) -> Tick) {
    if !spend(sim) {
        return;
    }
    let label = sim.world().seqs.len();
    let id = sim.schedule_event_at(at, event(label));
    sim.world_mut().seqs.push(id.raw());
}

/// Arms node `node`'s round of class `class` one period out: into the class's series, or as
/// its own event.
fn arm(sim: &mut Simulation<Rounds, Tick>, class: usize, node: usize, generation: u32) {
    if !spend(sim) {
        return;
    }
    let label = sim.world().seqs.len();
    let member = Member {
        class,
        node,
        generation,
        label,
    };
    let seq = match sim.world().series {
        true => sim.push_periodic(|w| &mut w.classes[class], member, Tick::Head(class)),
        false => {
            let period = sim.world().periods[class];
            sim.schedule_event_in(period, Tick::Round(member)).raw()
        }
    };
    sim.world_mut().seqs.push(seq);
}

/// A round: a stale member fires and stops; a live one pushes up to two ordinary events (at
/// once, on the grid, or one period of some class out), now and then restarts a node, and
/// re-arms after its body, as the workloads' rounds do.
fn round(sim: &mut Simulation<Rounds, Tick>, member: Member) {
    log(sim, member.label);
    if sim.world().generation[member.node] != member.generation {
        return;
    }
    let now = sim.now();
    let classes = sim.world().periods.len();
    for _ in 0..sim.rng().gen_range(0u32..3) {
        let delay = match sim.rng().gen_range(0u32..3) {
            0 => SimDuration::ZERO,
            1 => SimDuration::from_nanos(GRID_NS * sim.rng().gen_range(1u64..4)),
            _ => {
                let class = sim.rng().gen_range(0..classes);
                sim.world().periods[class]
            }
        };
        schedule(sim, now + delay, Tick::Once);
    }
    if sim.rng().gen_range(0u32..6) == 0 {
        let node = sim.rng().gen_range(0..NODES);
        let class = sim.rng().gen_range(0..classes);
        let at_once = sim.rng().gen_range(0u32..2) == 0;
        schedule(sim, now, |label| Tick::Restart {
            node,
            class,
            at_once,
            label,
        });
    }
    arm(sim, member.class, member.node, member.generation);
}

/// Runs the periodic-series property's script with re-arms as series members or as events of
/// their own, and returns the log and the executed-event count.
fn run_rounds(
    series: bool,
    periods: &[u64],
    script: &[(u64, u32, usize, usize)],
    seed: u64,
) -> (Vec<(SimTime, usize, u64)>, u64) {
    let periods: Vec<SimDuration> = (periods.iter())
        .map(|&p| SimDuration::from_nanos(p * GRID_NS))
        .collect();
    let world = Rounds {
        series,
        classes: periods.iter().map(|&p| PeriodicSeries::new(p)).collect(),
        periods,
        generation: [0; NODES],
        seqs: Vec::new(),
        log: Vec::new(),
        budget: 400,
    };
    let classes = world.periods.len();
    let mut sim: Simulation<Rounds, Tick> = Simulation::new(world, seed);
    for &(cell, kind, class, node) in script {
        let at = SimTime::from_nanos(cell * GRID_NS);
        let (class, node) = (class % classes, node % NODES);
        match kind {
            0 => schedule(&mut sim, at, Tick::Once),
            _ => schedule(&mut sim, at, |label| Tick::Restart {
                node,
                class,
                at_once: kind == 1,
                label,
            }),
        }
    }
    sim.run();
    let executed = sim.executed_events();
    (sim.into_world().log, executed)
}

proptest! {
    /// A periodic series keeps the order of pushing every member: with several classes of
    /// different (or equal) periods, ordinary events at the rounds' instants, first rounds at
    /// once, re-arms straight into a series and stale members of restarted nodes, the series
    /// run fires the same events at the same times under the same sequence numbers as the run
    /// that schedules every round as its own event.
    #[test]
    fn periodic_series_pop_as_if_every_member_were_pushed(
        periods in prop::collection::vec(1u64..5, 1..4),
        script in prop::collection::vec((0u64..6, 0u32..3, 0usize..4, 0usize..NODES), 1..16),
        seed in any::<u64>(),
    ) {
        let (want, want_events) = run_rounds(false, &periods, &script, seed);
        let (got, got_events) = run_rounds(true, &periods, &script, seed);
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_events, want_events);
    }

    /// Whatever the insertion order, events pop in non-decreasing time order, and equal times
    /// pop in insertion order.
    #[test]
    fn queue_pops_in_time_then_insertion_order(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, _, payload)) = q.pop() {
            popped.push((t, payload));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "ties must preserve insertion order");
            }
        }
    }

    /// The timer wheel is observation-equivalent to the reference model queue: any random
    /// interleaving of schedules, cancellations, peeks and (deadline-bounded) pops yields the
    /// same sequence of `(time, payload)` observations, the same cancellation outcomes and
    /// the same length after every step.
    #[test]
    fn wheel_is_observation_equivalent_to_reference_heap(
        ops in prop::collection::vec(QueueOpStrategy, 1..400),
    ) {
        let mut wheel: EventQueue<usize> = EventQueue::new();
        let mut model = ModelQueue::default();
        // Live ids in scheduling order, kept aligned between the two queues.
        let mut live: Vec<(EventId, u64)> = Vec::new();
        let mut payload = 0usize;
        for op in &ops {
            match op {
                QueueOp::Push(t) => {
                    let time = SimTime::from_nanos(*t);
                    let id = wheel.push(time, payload);
                    let seq = model.push(time, payload);
                    live.push((id, seq));
                    payload += 1;
                }
                QueueOp::Cancel(i) => {
                    if !live.is_empty() {
                        let (id, seq) = live.remove(i % live.len());
                        prop_assert_eq!(wheel.cancel(id), model.cancel(seq));
                        // A second cancel of the same id must be a no-op.
                        prop_assert!(!wheel.cancel(id));
                    }
                }
                QueueOp::Peek => prop_assert_eq!(wheel.peek_time(), model.peek()),
                QueueOp::Pop | QueueOp::PopDue(_) => {
                    let (got, want) = match op {
                        QueueOp::PopDue(deadline) => {
                            let deadline = SimTime::from_nanos(*deadline);
                            (wheel.pop_due(deadline), model.pop_due(deadline))
                        }
                        _ => (wheel.pop(), model.pop()),
                    };
                    let got = got.map(|(t, _, p)| (t, p));
                    prop_assert_eq!(got, want);
                    if let Some((_, p)) = got {
                        live.retain(|&(_, seq)| {
                            // The model's seq equals the payload's scheduling index here.
                            seq != p as u64
                        });
                    }
                }
            }
            prop_assert_eq!(wheel.len(), model.entries.len());
        }
        // Drain both queues; the tails must agree too.
        loop {
            let got = wheel.pop().map(|(t, _, p)| (t, p));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    /// Reserved ranks keep the up-front order: a block pushed lazily into the wheel, each member
    /// when its predecessor pops, pops in the same `(time, sequence)` order, under the same
    /// sequence numbers, as the model that pushes the whole block when it is reserved — mixed
    /// with ordinary pushes, cancels (of a block: its pending member and so the rest of it),
    /// peeks and deadline-bounded pops at colliding instants.
    #[test]
    fn lazily_pushed_ranks_pop_as_if_pushed_at_reservation(
        ops in prop::collection::vec(RankedOpStrategy, 1..300),
    ) {
        let mut wheel: EventQueue<usize> = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut blocks: Vec<Block> = Vec::new();
        // Payload -> block index, for block members.
        let mut member_of: Vec<Option<usize>> = Vec::new();
        let mut live: Vec<Handle> = Vec::new();
        // Block members the model holds and the wheel has not been handed yet.
        let mut unpushed = 0usize;
        for op in &ops {
            match *op {
                RankedOp::Series { start, len, gap } => {
                    let times: Vec<SimTime> =
                        (0..len).map(|k| SimTime::from_nanos(start + k * gap)).collect();
                    let first = wheel.reserve_seqs(len);
                    let payload = member_of.len();
                    for (k, &t) in times.iter().enumerate() {
                        prop_assert_eq!(model.push(t, payload + k), first + k as u64);
                        member_of.push(Some(blocks.len()));
                    }
                    let id = wheel.push_ranked(times[0], first, payload);
                    unpushed += times.len() - 1;
                    live.push(Handle::Block(blocks.len()));
                    blocks.push(Block { first, times, pending: (0, id), payload });
                }
                RankedOp::Queue(QueueOp::Push(t)) => {
                    let time = SimTime::from_nanos(t);
                    let payload = member_of.len();
                    member_of.push(None);
                    let id = wheel.push(time, payload);
                    prop_assert_eq!(id.raw(), model.push(time, payload));
                    live.push(Handle::One(id, id.raw()));
                }
                RankedOp::Queue(QueueOp::Cancel(i)) => {
                    if !live.is_empty() {
                        match live.remove(i % live.len()) {
                            Handle::One(id, seq) => {
                                prop_assert_eq!(wheel.cancel(id), model.cancel(seq));
                            }
                            Handle::Block(b) => {
                                let block = &blocks[b];
                                let (k, id) = block.pending;
                                prop_assert!(wheel.cancel(id));
                                for rest in k..block.times.len() {
                                    prop_assert!(model.cancel(block.first + rest as u64));
                                }
                                unpushed -= block.times.len() - 1 - k;
                            }
                        }
                    }
                }
                RankedOp::Queue(QueueOp::Peek) => {
                    prop_assert_eq!(wheel.peek_time(), model.peek());
                }
                RankedOp::Queue(ref pop) => {
                    let (got, want) = match *pop {
                        QueueOp::PopDue(deadline) => {
                            let deadline = SimTime::from_nanos(deadline);
                            let want = match model.peek() {
                                Some(t) if t <= deadline => model.pop_entry(),
                                _ => None,
                            };
                            (wheel.pop_due(deadline), want)
                        }
                        _ => (wheel.pop(), model.pop_entry()),
                    };
                    let got = got.map(|(t, id, p)| (t, id.raw(), p));
                    prop_assert_eq!(got, want);
                    let Some((_, seq, p)) = got else { continue };
                    match member_of[p] {
                        None => live.retain(|h| !matches!(*h, Handle::One(_, s) if s == seq)),
                        // The popped member arms its successor, as a handler would.
                        Some(b) => match blocks[b].successor(p) {
                            Some((k, time, rank, next)) => {
                                blocks[b].pending = (k, wheel.push_ranked(time, rank, next));
                                unpushed -= 1;
                            }
                            None => live.retain(|h| !matches!(*h, Handle::Block(x) if x == b)),
                        },
                    }
                }
            }
            prop_assert_eq!(wheel.len() + unpushed, model.entries.len());
        }
        // Drain both queues, re-arming blocks as they go; the tails must agree too.
        loop {
            let got = wheel.pop().map(|(t, id, p)| (t, id.raw(), p));
            prop_assert_eq!(got, model.pop_entry());
            let Some((_, _, p)) = got else { break };
            if let Some((_, time, rank, next)) = member_of[p].and_then(|b| blocks[b].successor(p)) {
                wheel.push_ranked(time, rank, next);
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn queue_cancellation_removes_exactly_the_cancelled(
        times in prop::collection::vec(0u64..1_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times.iter().enumerate().map(|(i, &t)| (i, q.push(SimTime::from_micros(t), i))).collect();
        let mut cancelled = std::collections::HashSet::new();
        for (i, id) in &ids {
            if *cancel_mask.get(*i % cancel_mask.len()).unwrap_or(&false) {
                q.cancel(*id);
                cancelled.insert(*i);
            }
        }
        let mut seen = std::collections::HashSet::new();
        while let Some((_, _, payload)) = q.pop() {
            seen.insert(payload);
        }
        prop_assert_eq!(seen.len() + cancelled.len(), times.len());
        prop_assert!(seen.is_disjoint(&cancelled));
    }

    /// Same-instant FIFO survives cancellation: events at one instant run in scheduling order
    /// even when an arbitrary subset of that instant's events is cancelled first.
    #[test]
    fn same_instant_fifo_survives_cancellation(
        cancel_mask in prop::collection::vec(any::<bool>(), 20..21),
    ) {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        let ids: Vec<_> = (0..cancel_mask.len()).map(|i| q.push(t, i)).collect();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                q.cancel(*id);
            }
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        let expected: Vec<usize> = (0..cancel_mask.len()).filter(|&i| !cancel_mask[i]).collect();
        prop_assert_eq!(popped, expected, "survivors must run in scheduling order");
    }

    /// The simulation clock never goes backwards, no matter how events are scheduled.
    #[test]
    fn simulation_time_is_monotonic(delays in prop::collection::vec(0u64..5_000_000u64, 1..100)) {
        let mut sim: Simulation<Vec<SimTime>, Stamp> = Simulation::new(Vec::new(), 1);
        for &d in &delays {
            sim.schedule_event_in(SimDuration::from_nanos(d), Stamp(Some(d / 2 + 1)));
        }
        sim.run();
        let observed = sim.world();
        prop_assert_eq!(observed.len(), delays.len() * 2);
        for w in observed.windows(2) {
            prop_assert!(w[0] <= w[1], "time went backwards: {} then {}", w[0], w[1]);
        }
    }

    /// Time arithmetic: (t + d) - t == d for any representable values.
    #[test]
    fn time_addition_roundtrips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((t0 + dur) - t0, dur);
        prop_assert!(t0 + dur >= t0);
    }

    /// Transmission delay is monotone in size and antitone in bandwidth.
    #[test]
    fn transmission_delay_monotonicity(bytes in 1u64..10_000_000, bps in 1u64..10_000_000_000) {
        let d = SimDuration::transmission(bytes, bps);
        prop_assert!(d >= SimDuration::transmission(bytes / 2, bps));
        prop_assert!(d >= SimDuration::transmission(bytes, bps * 2));
        prop_assert!(d > SimDuration::ZERO);
    }

    /// A CDF built from any sample set is a valid distribution function: monotone, 0 below the
    /// minimum, 1 at and above the maximum, and quantiles are actual samples.
    #[test]
    fn cdf_is_a_distribution_function(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(samples.clone());
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(cdf.fraction_at(min - 1.0), 0.0);
        prop_assert_eq!(cdf.fraction_at(max), 1.0);
        let mut last = 0.0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let x = cdf.quantile(q).unwrap();
            prop_assert!(samples.contains(&x));
            let f = cdf.fraction_at(x);
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
    }

    /// Summary statistics are internally consistent.
    #[test]
    fn summary_is_consistent(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&samples).unwrap();
        prop_assert_eq!(s.count, samples.len());
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert!(s.std_dev <= (s.max - s.min) + 1e-9);
    }

    /// Step interpolation of a time series always returns either the default or one of the
    /// recorded values, and `time_to_reach` is consistent with the samples.
    #[test]
    fn time_series_step_interpolation(values in prop::collection::vec(0f64..100.0, 1..50)) {
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut ts = TimeSeries::new();
        for (i, v) in sorted.iter().enumerate() {
            ts.push(SimTime::from_secs(i as u64 + 1), *v);
        }
        prop_assert_eq!(ts.value_at(SimTime::ZERO, -1.0), -1.0);
        for (i, v) in sorted.iter().enumerate() {
            prop_assert_eq!(ts.value_at(SimTime::from_secs(i as u64 + 1), -1.0), *v);
        }
        if let Some(t) = ts.time_to_reach(sorted[sorted.len() - 1]) {
            prop_assert!(t <= SimTime::from_secs(sorted.len() as u64));
        }
    }
}
