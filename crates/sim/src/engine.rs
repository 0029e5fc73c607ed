//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a user-defined *world* `W` (the mutable state of the whole experiment:
//! physical nodes, network, applications), a virtual clock, a deterministic RNG and an event
//! queue. Every event is a plain value of the simulation's event class `E` — an enum
//! implementing [`TypedEvent`] — fired by a `match`. The value is stored inline in the queue's
//! slab slot, so scheduling an event performs no allocation, and a simulation holds nothing
//! but data.
//!
//! ```
//! use p2plab_sim::{SimDuration, SimTime, Simulation, TypedEvent};
//!
//! enum Tick {
//!     Add(u32),
//!     AddTwice(u32),
//! }
//! impl TypedEvent<u32> for Tick {
//!     fn fire(self, sim: &mut Simulation<u32, Tick>) {
//!         match self {
//!             Tick::Add(n) => *sim.world_mut() += n,
//!             Tick::AddTwice(n) => {
//!                 *sim.world_mut() += n;
//!                 sim.schedule_event_in(SimDuration::from_secs(1), Tick::Add(n));
//!             }
//!         }
//!     }
//! }
//! let mut sim: Simulation<u32, Tick> = Simulation::new(0, 7);
//! sim.schedule_event_at(SimTime::from_secs(1), Tick::AddTwice(5));
//! sim.run();
//! assert_eq!(*sim.world(), 10);
//! assert_eq!(sim.now(), SimTime::from_secs(2));
//! ```
//!
//! A fixed series of events — a probe stream, a list of arrivals — need not sit in the queue
//! all at once. [`reserve_ranks`](Simulation::reserve_ranks) sets aside the sequence numbers
//! the series would have drawn had it been scheduled up front, and each member is scheduled
//! under its own rank by [`schedule_event_ranked`](Simulation::schedule_event_ranked), usually
//! from the handler of the one before it, which reads its own rank from
//! [`firing_rank`](Simulation::firing_rank). Every push draws or was reserved a sequence number,
//! so the series holds one queue slot and still runs in exactly the up-front order, ties at
//! an instant included.
//!
//! ```
//! use p2plab_sim::{SimDuration, SimTime, Simulation, TypedEvent};
//!
//! /// Log `n`; while `left > 0`, re-arm one second later at the next rank.
//! struct Series {
//!     n: u32,
//!     left: u32,
//! }
//! impl TypedEvent<Vec<u32>> for Series {
//!     fn fire(self, sim: &mut Simulation<Vec<u32>, Series>) {
//!         sim.world_mut().push(self.n);
//!         if self.left > 0 {
//!             let next = Series { left: self.left - 1, ..self };
//!             let at = sim.now() + SimDuration::from_secs(1);
//!             sim.schedule_event_ranked(at, sim.firing_rank() + 1, next);
//!         }
//!     }
//! }
//! let mut sim: Simulation<Vec<u32>, Series> = Simulation::new(Vec::new(), 7);
//! // Two three-event series, the second starting at t = 1 s: up front, the first series'
//! // second event (rank 1) runs before the second series' first (rank 3).
//! let rank = sim.reserve_ranks(6);
//! sim.schedule_event_ranked(SimTime::ZERO, rank, Series { n: 1, left: 2 });
//! sim.schedule_event_ranked(SimTime::from_secs(1), rank + 3, Series { n: 2, left: 2 });
//! sim.run();
//! assert_eq!(sim.world(), &vec![1, 1, 2, 1, 2, 2]);
//! ```
//!
//! A **periodic series** is the same idea for rounds that are not known up front: a class of
//! equal-period rounds — one member per node, each re-arming one period after it fires. A round
//! re-arms at `now + period`, no earlier than every member already armed, since each of those
//! was armed at or before now with the same period; so members join the class in the order
//! they come due, and the class is a FIFO sorted by `(time, rank)`. The world keeps it as a
//! [`PeriodicSeries`], and only its head sits in the queue, as one ranked event of the caller's
//! choosing. [`push_periodic`](Simulation::push_periodic) arms a member, reserving its rank at
//! the moment its own event would have drawn one, and [`pop_periodic`](Simulation::pop_periodic)
//! — called by the head event when it fires — takes the member off the front and schedules the
//! head again for the next one. Pops come in exactly the order pushing every member would give.
//!
//! ```
//! use p2plab_sim::{PeriodicSeries, SimDuration, SimTime, Simulation, TypedEvent};
//!
//! struct World {
//!     rounds: PeriodicSeries<u32>,
//!     log: Vec<(u64, u32)>,
//! }
//! enum Ev {
//!     /// Node `n`'s first round, at once.
//!     First(u32),
//!     /// The round of the node at the front of `rounds`.
//!     Round,
//! }
//! fn round(sim: &mut Simulation<World, Ev>, n: u32) {
//!     let secs = sim.now().as_nanos() / 1_000_000_000;
//!     sim.world_mut().log.push((secs, n));
//!     if secs < 2 {
//!         sim.push_periodic(|w| &mut w.rounds, n, Ev::Round);
//!     }
//! }
//! impl TypedEvent<World> for Ev {
//!     fn fire(self, sim: &mut Simulation<World, Ev>) {
//!         match self {
//!             Ev::First(n) => round(sim, n),
//!             Ev::Round => {
//!                 let n = sim.pop_periodic(|w| &mut w.rounds, Ev::Round);
//!                 round(sim, n);
//!             }
//!         }
//!     }
//! }
//! let world = World { rounds: PeriodicSeries::new(SimDuration::from_secs(1)), log: Vec::new() };
//! let mut sim: Simulation<World, Ev> = Simulation::new(world, 7);
//! sim.schedule_event_at(SimTime::ZERO, Ev::First(1));
//! sim.schedule_event_at(SimTime::from_millis(500), Ev::First(2));
//! sim.run();
//! // Two nodes' rounds, a second apart each, through one pending event.
//! assert_eq!(sim.world().log, vec![(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]);
//! ```
//!
//! Besides events the queue holds **wakes**: entries that carry a small token instead of an
//! event and hand control back to whoever drives the loop through
//! [`run_until_wake`](Simulation::run_until_wake). A caller with state of its own — the
//! scenario runner's sampler and churn chains — keeps that state outside the world and
//! schedules wakes for it. A wake is ordered, counted and budgeted exactly like an event; a
//! loop run by [`run_until`](Simulation::run_until) or [`run_before`](Simulation::run_before)
//! passes over a wake as an event that does nothing.
//!
//! ```
//! use p2plab_sim::{Halt, NoEvent, RunOutcome, SimTime, Simulation};
//!
//! let mut sim: Simulation<(), NoEvent> = Simulation::new((), 1);
//! sim.schedule_wake_at(SimTime::from_secs(3), 7);
//! assert_eq!(sim.run_until_wake(SimTime::MAX), Halt::Wake(7));
//! assert_eq!(sim.now(), SimTime::from_secs(3));
//! assert_eq!(sim.run_until_wake(SimTime::MAX), Halt::Stopped(RunOutcome::Drained));
//! ```

use crate::event::{EventId, EventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A simulation's event class: a plain value stored inline in the event queue (no per-event
/// allocation) and dispatched by [`fire`](TypedEvent::fire) when due.
pub trait TypedEvent<W>: Sized + 'static {
    /// Executes the event, with `self` carrying the event's data.
    fn fire(self, sim: &mut Simulation<W, Self>);
}

/// The uninhabited event class, for a simulation (or a timer slot) that never holds a value.
pub enum NoEvent {}

impl<W> TypedEvent<W> for NoEvent {
    fn fire(self, _sim: &mut Simulation<W, Self>) {
        match self {}
    }
}

/// A class of equal-period rounds kept as one pending event (see the module docs): the armed
/// members as `(time, rank, member)` in the order they come due. Only the head is in the event
/// queue; [`Simulation::push_periodic`] and [`Simulation::pop_periodic`] keep it there.
pub struct PeriodicSeries<M> {
    period: SimDuration,
    members: VecDeque<(SimTime, u64, M)>,
}

impl<M> PeriodicSeries<M> {
    /// An empty series whose members come due one `period` after they are armed.
    pub fn new(period: SimDuration) -> Self {
        PeriodicSeries {
            period,
            members: VecDeque::new(),
        }
    }

    /// Appends `member`, due at `at` under `rank`; true if it is the head, so nothing in the
    /// queue stands for it yet.
    fn push(&mut self, at: SimTime, rank: u64, member: M) -> bool {
        debug_assert!(
            self.members.back().is_none_or(|&(tail, ..)| tail <= at),
            "a periodic member due at {at:?} would come before the series' tail"
        );
        self.members.push_back((at, rank, member));
        self.members.len() == 1
    }
}

/// A queue slot: an event of the simulation's class, or a wake for the loop's caller.
enum Slot<E> {
    Event(E),
    Wake(usize),
}

/// Outcome of [`Simulation::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunOutcome {
    /// The event queue drained before the deadline.
    #[default]
    Drained,
    /// The deadline was reached with events still pending.
    DeadlineReached,
    /// The configured event budget was exhausted (runaway protection).
    EventBudgetExhausted,
}

/// Why [`Simulation::run_until_wake`] handed control back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// The run stopped, as [`run_until`](Simulation::run_until) would have.
    Stopped(RunOutcome),
    /// The wake with this token came due; the clock stands at its time. Calling
    /// `run_until_wake` again resumes the run.
    Wake(usize),
}

/// A deterministic discrete-event simulation over a world `W`, with events of class `E`.
pub struct Simulation<W, E> {
    now: SimTime,
    queue: EventQueue<Slot<E>>,
    world: W,
    rng: SimRng,
    executed_events: u64,
    event_budget: u64,
    firing_rank: u64,
}

impl<W, E: TypedEvent<W>> Simulation<W, E> {
    /// Creates a simulation at time zero with the given world and RNG seed (pick the event
    /// class through an annotation or turbofish: `Simulation::<World, MyEvent>::new(..)`).
    pub fn new(world: W, seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            world,
            rng: SimRng::new(seed),
            executed_events: 0,
            event_budget: u64::MAX,
            firing_rank: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The engine's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Simultaneous mutable access to the world and the RNG (common in handlers that both
    /// mutate state and draw random numbers).
    pub fn world_and_rng(&mut self) -> (&mut W, &mut SimRng) {
        (&mut self.world, &mut self.rng)
    }

    /// The rank (sequence number) of the event now firing, or of the last one fired: a member
    /// of a series re-arms its successor under `firing_rank() + 1`.
    pub fn firing_rank(&self) -> u64 {
        self.firing_rank
    }

    /// Number of events (wakes included) executed so far.
    pub fn executed_events(&self) -> u64 {
        self.executed_events
    }

    /// Limits the total number of events the run loop will execute (runaway protection for
    /// property tests and CI). Default is unlimited.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Schedules `event` at absolute time `at`. Times in the past are clamped to "now" (the
    /// event still runs, after everything already queued for this instant).
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) -> EventId {
        self.queue.push(at.max(self.now), Slot::Event(event))
    }

    /// Reserves `n` consecutive ranks for [`schedule_event_ranked`](Simulation::schedule_event_ranked)
    /// and returns the first: the sequence numbers `n` pushes made here would have drawn.
    pub fn reserve_ranks(&mut self, n: u64) -> u64 {
        self.queue.reserve_seqs(n)
    }

    /// Schedules `event` at absolute time `at` (clamped to "now" like
    /// [`schedule_event_at`](Simulation::schedule_event_at)) under a rank
    /// [`reserve_ranks`](Simulation::reserve_ranks) handed out. Each rank is scheduled at most
    /// once, before its `(time, rank)` comes due; the event then runs exactly where it would
    /// have had it been scheduled when the rank was reserved.
    ///
    /// # Panics
    /// If `rank` is the [`firing_rank`](Simulation::firing_rank): that rank has come due
    /// already. A series member re-arms its successor under the rank after its own.
    pub fn schedule_event_ranked(&mut self, at: SimTime, rank: u64, event: E) -> EventId {
        assert!(
            self.executed_events == 0 || rank != self.firing_rank,
            "rank {rank} was scheduled again after it fired"
        );
        self.queue
            .push_ranked(at.max(self.now), rank, Slot::Event(event))
    }

    /// Arms `member` of the periodic series `series` picks out of the world, one period from
    /// now, under a rank reserved here — the sequence number its own event would have drawn
    /// had it been scheduled at this point — and returns that rank. If the series was idle,
    /// `head` is scheduled for the member; otherwise the member waits behind the ones armed
    /// before it.
    pub fn push_periodic<M>(
        &mut self,
        series: impl FnOnce(&mut W) -> &mut PeriodicSeries<M>,
        member: M,
        head: E,
    ) -> u64 {
        let rank = self.queue.reserve_seqs(1);
        let series = series(&mut self.world);
        let at = self.now + series.period;
        if series.push(at, rank, member) {
            self.queue.push_ranked(at, rank, Slot::Event(head));
        }
        rank
    }

    /// Takes the member at the front of `series`, whose `head` event is firing, and schedules
    /// `head` again for the next member, if any.
    ///
    /// # Panics
    /// If the series is empty: a head event fired for no member.
    pub fn pop_periodic<M>(
        &mut self,
        series: impl FnOnce(&mut W) -> &mut PeriodicSeries<M>,
        head: E,
    ) -> M {
        let series = series(&mut self.world);
        let (at, _, member) = (series.members.pop_front())
            .expect("a periodic series' head fired with no member armed");
        debug_assert_eq!(at, self.now, "a periodic member fired off its time");
        if let Some(&(at, rank, _)) = series.members.front() {
            self.queue.push_ranked(at, rank, Slot::Event(head));
        }
        member
    }

    /// Schedules `event` after `delay`.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_event_at(self.now + delay, event)
    }

    /// Schedules a wake carrying `token` at absolute time `at` (clamped to "now" like an
    /// event): [`run_until_wake`](Simulation::run_until_wake) returns
    /// [`Halt::Wake(token)`](Halt::Wake) when it comes due.
    pub fn schedule_wake_at(&mut self, at: SimTime, token: usize) -> EventId {
        self.queue.push(at.max(self.now), Slot::Wake(token))
    }

    /// Cancels a scheduled event or wake. Returns true if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs every event due at or before `last` until a wake comes due; the clock stays at the
    /// last executed event.
    fn run_through(&mut self, last: SimTime) -> Halt {
        loop {
            if self.executed_events >= self.event_budget {
                return Halt::Stopped(RunOutcome::EventBudgetExhausted);
            }
            let Some((time, id, slot)) = self.queue.pop_due(last) else {
                return Halt::Stopped(if self.queue.is_empty() {
                    RunOutcome::Drained
                } else {
                    RunOutcome::DeadlineReached
                });
            };
            debug_assert!(time >= self.now, "time must be monotonic");
            self.now = time;
            self.firing_rank = id.raw();
            self.executed_events += 1;
            match slot {
                Slot::Event(event) => event.fire(self),
                Slot::Wake(token) => return Halt::Wake(token),
            }
        }
    }

    /// Runs like [`run_until`](Simulation::run_until), but hands control back as soon as a
    /// wake comes due.
    pub fn run_until_wake(&mut self, deadline: SimTime) -> Halt {
        let halt = self.run_through(deadline);
        if halt == Halt::Stopped(RunOutcome::DeadlineReached) {
            self.now = deadline.max(self.now);
        }
        halt
    }

    /// Runs until the queue drains or virtual time would pass `deadline`.
    ///
    /// Events scheduled exactly at `deadline` are executed. On return with
    /// [`RunOutcome::DeadlineReached`] the clock is advanced to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        loop {
            if let Halt::Stopped(outcome) = self.run_until_wake(deadline) {
                return outcome;
            }
        }
    }

    /// Runs every event strictly **before** `end` (a half-open window `[now, end)`).
    ///
    /// Unlike [`run_until`](Simulation::run_until), events at exactly `end` stay queued and the
    /// clock is *not* advanced to `end` — it stays at the last executed event. This is the
    /// primitive the sharded runtime's conservative windows are built on: work injected at the
    /// window boundary (time `end`) must still be "in the future" when the window closes.
    pub fn run_before(&mut self, end: SimTime) -> RunOutcome {
        if end == SimTime::ZERO {
            return if self.queue.is_empty() {
                RunOutcome::Drained
            } else {
                RunOutcome::DeadlineReached
            };
        }
        let last = SimTime::from_nanos(end.as_nanos() - 1);
        loop {
            if let Halt::Stopped(outcome) = self.run_through(last) {
                return outcome;
            }
        }
    }

    /// The timestamp of the earliest pending event, if any. Used by the sharded runtime's
    /// coordinator to fast-forward over globally empty windows.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Consumes the simulation and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine tests' event class over a log of observations.
    enum Ev {
        /// Log `n`.
        Push(u32),
        /// Log the clock.
        Stamp,
        /// Log `n`, then schedule `Push(n * 10)` one second later.
        Nest(u32),
        /// Schedule `Stamp` at an absolute time that may lie in the past.
        StampAt(SimTime),
        /// Reschedule itself one nanosecond later, for ever.
        Forever,
        /// Log `n`, then push a wake with token `n` and a `Push(n + 1)` at the current instant.
        WakeAndPush(u32),
        /// A periodic round: log `100 + n`, push `Push(n)` onto the next tick, then re-arm
        /// itself there while `n < 3`.
        Round(u32),
        /// Log the rank the event fires under.
        Rank,
        /// Schedule `Push(0)` under the rank this event fires under, which is not to be done.
        SameRank,
    }

    /// What the test events log.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Seen {
        N(u32),
        At(SimTime),
    }

    type Sim = Simulation<Vec<Seen>, Ev>;

    impl TypedEvent<Vec<Seen>> for Ev {
        fn fire(self, sim: &mut Sim) {
            match self {
                Ev::Push(n) => sim.world_mut().push(Seen::N(n)),
                Ev::Stamp => {
                    let now = sim.now();
                    sim.world_mut().push(Seen::At(now));
                }
                Ev::Nest(n) => {
                    sim.world_mut().push(Seen::N(n));
                    sim.schedule_event_in(SimDuration::from_secs(1), Ev::Push(n * 10));
                }
                Ev::StampAt(at) => {
                    sim.schedule_event_at(at, Ev::Stamp);
                }
                Ev::Forever => {
                    sim.schedule_event_in(SimDuration::from_nanos(1), Ev::Forever);
                }
                Ev::WakeAndPush(n) => {
                    sim.world_mut().push(Seen::N(n));
                    let now = sim.now();
                    sim.schedule_wake_at(now, n as usize);
                    sim.schedule_event_at(now, Ev::Push(n + 1));
                }
                Ev::Round(n) => {
                    sim.world_mut().push(Seen::N(100 + n));
                    let period = SimDuration::from_secs(1);
                    sim.schedule_event_in(period, Ev::Push(n));
                    if n < 3 {
                        sim.schedule_event_in(period, Ev::Round(n + 1));
                    }
                }
                Ev::Rank => {
                    let rank = sim.firing_rank();
                    sim.world_mut().push(Seen::N(rank as u32));
                }
                Ev::SameRank => {
                    let (now, rank) = (sim.now(), sim.firing_rank());
                    sim.schedule_event_ranked(now, rank, Ev::Push(0));
                }
            }
        }
    }

    fn sim() -> Sim {
        Simulation::new(Vec::new(), 1)
    }

    fn ns(seen: &[Seen]) -> Vec<u32> {
        seen.iter()
            .filter_map(|s| match s {
                Seen::N(n) => Some(*n),
                Seen::At(_) => None,
            })
            .collect()
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = sim();
        for n in [3, 1, 2] {
            sim.schedule_event_in(SimDuration::from_secs(n as u64), Ev::Push(n));
        }
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(ns(sim.world()), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.executed_events(), 3);
    }

    #[test]
    fn firing_rank_is_the_sequence_number_of_the_event_firing() {
        let mut sim = sim();
        let drawn = sim.schedule_event_at(SimTime::from_secs(2), Ev::Rank).raw();
        let reserved = sim.reserve_ranks(3);
        sim.schedule_event_ranked(SimTime::from_secs(1), reserved + 2, Ev::Rank);
        sim.run();
        assert_eq!(ns(sim.world()), vec![reserved as u32 + 2, drawn as u32]);
    }

    #[test]
    #[should_panic(expected = "was scheduled again after it fired")]
    fn a_rank_is_not_scheduled_again_after_it_fired() {
        let mut sim = sim();
        sim.schedule_event_at(SimTime::ZERO, Ev::SameRank);
        sim.run();
    }

    #[test]
    fn nested_scheduling() {
        let mut sim = sim();
        sim.schedule_event_in(SimDuration::from_secs(1), Ev::Nest(1));
        sim.run();
        assert_eq!(ns(sim.world()), vec![1, 10]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.executed_events(), 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = sim();
        for i in 1..=10 {
            sim.schedule_event_in(SimDuration::from_secs(i), Ev::Push(i as u32));
        }
        let outcome = sim.run_until(SimTime::from_secs(5));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(ns(sim.world()), vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // Remaining events still runnable.
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.world().len(), 10);
    }

    #[test]
    fn run_before_is_exclusive_and_keeps_clock() {
        let mut sim = sim();
        for i in 1..=10 {
            sim.schedule_event_in(SimDuration::from_secs(i), Ev::Push(i as u32));
        }
        let outcome = sim.run_before(SimTime::from_secs(5));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        // Events at exactly t=5 did NOT run, and the clock sits at the last executed event.
        assert_eq!(sim.world().len(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.next_event_time(), Some(SimTime::from_secs(5)));
        // A window that opens at the frontier still executes the boundary event.
        assert_eq!(
            sim.run_before(SimTime::from_secs(6)),
            RunOutcome::DeadlineReached
        );
        assert_eq!(sim.world().len(), 5);
        assert_eq!(sim.run_before(SimTime::MAX), RunOutcome::Drained);
        assert_eq!(sim.world().len(), 10);
        assert_eq!(sim.next_event_time(), None);
    }

    #[test]
    fn run_before_zero_window_runs_nothing() {
        let mut sim = sim();
        sim.schedule_event_at(SimTime::ZERO, Ev::Push(1));
        assert_eq!(sim.run_before(SimTime::ZERO), RunOutcome::DeadlineReached);
        assert!(sim.world().is_empty());
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(ns(sim.world()), vec![1]);
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut sim = sim();
        // Scheduling "in the past" must not move time backwards.
        sim.schedule_event_in(
            SimDuration::from_secs(5),
            Ev::StampAt(SimTime::from_secs(1)),
        );
        sim.run();
        assert_eq!(sim.world(), &vec![Seen::At(SimTime::from_secs(5))]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = sim();
        let id = sim.schedule_event_in(SimDuration::from_secs(1), Ev::Push(1));
        sim.schedule_event_in(SimDuration::from_secs(2), Ev::Push(10));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "a cancelled event stays cancelled");
        sim.run();
        assert_eq!(ns(sim.world()), vec![10]);
    }

    #[test]
    fn event_budget_stops_runaway() {
        let mut sim = sim();
        sim.schedule_event_at(SimTime::ZERO, Ev::Forever);
        sim.set_event_budget(1000);
        assert_eq!(sim.run(), RunOutcome::EventBudgetExhausted);
        assert_eq!(sim.executed_events(), 1000);
    }

    #[test]
    fn same_instant_fifo() {
        let mut sim = sim();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            sim.schedule_event_at(t, Ev::Push(i));
        }
        sim.run();
        assert_eq!(ns(sim.world()), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn determinism_same_seed_same_draws() {
        let run = |seed| {
            let mut sim: Sim = Simulation::new(Vec::new(), seed);
            for _ in 0..100 {
                let d = SimDuration::from_nanos(sim.rng().gen_range(1..1_000_000));
                sim.schedule_event_in(d, Ev::Stamp);
            }
            sim.run();
            sim.into_world()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn a_periodic_round_rearms_after_the_events_its_body_pushes() {
        // The workloads' rounds (gossip, choker, tracker, sampler) re-arm themselves once
        // their body has run, so whatever a body schedules onto the next tick runs before
        // that tick's round.
        let mut sim = sim();
        sim.schedule_event_at(SimTime::ZERO, Ev::Round(0));
        sim.run();
        assert_eq!(ns(sim.world()), vec![100, 0, 101, 1, 102, 2, 103, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(4));
    }

    #[test]
    fn a_wake_keeps_push_order_and_counts_as_an_event() {
        let mut sim = sim();
        let t = SimTime::from_secs(1);
        sim.schedule_event_at(t, Ev::Push(1));
        sim.schedule_wake_at(t, 42);
        sim.schedule_event_at(t, Ev::Push(2));
        // The wake surfaces between the two events pushed around it, at their instant, and is
        // counted as the second executed event.
        assert_eq!(sim.run_until_wake(SimTime::MAX), Halt::Wake(42));
        assert_eq!(sim.now(), t);
        assert_eq!(ns(sim.world()), vec![1]);
        assert_eq!(sim.executed_events(), 2);
        assert_eq!(
            sim.run_until_wake(SimTime::MAX),
            Halt::Stopped(RunOutcome::Drained)
        );
        assert_eq!(ns(sim.world()), vec![1, 2]);
        assert_eq!(sim.executed_events(), 3);
    }

    #[test]
    fn a_wake_pushed_by_an_event_runs_after_it_and_before_later_pushes() {
        let mut sim = sim();
        sim.schedule_event_at(SimTime::from_secs(2), Ev::WakeAndPush(5));
        assert_eq!(sim.run_until_wake(SimTime::MAX), Halt::Wake(5));
        assert_eq!(ns(sim.world()), vec![5]);
        assert_eq!(
            sim.run_until_wake(SimTime::MAX),
            Halt::Stopped(RunOutcome::Drained)
        );
        assert_eq!(ns(sim.world()), vec![5, 6]);
    }

    #[test]
    fn wakes_stop_on_the_event_budget_like_events() {
        let mut sim = sim();
        for i in 0..5 {
            sim.schedule_wake_at(SimTime::from_secs(i), i as usize);
        }
        sim.set_event_budget(3);
        for i in 0..3 {
            assert_eq!(sim.run_until_wake(SimTime::MAX), Halt::Wake(i));
        }
        assert_eq!(
            sim.run_until_wake(SimTime::MAX),
            Halt::Stopped(RunOutcome::EventBudgetExhausted)
        );
        assert_eq!(sim.executed_events(), 3);
    }

    #[test]
    fn run_until_wake_advances_to_the_deadline_and_run_until_passes_over_wakes() {
        let mut sim = sim();
        sim.schedule_wake_at(SimTime::from_secs(1), 0);
        sim.schedule_event_at(SimTime::from_secs(2), Ev::Push(1));
        sim.schedule_wake_at(SimTime::from_secs(9), 1);
        assert_eq!(sim.run_until_wake(SimTime::from_secs(5)), Halt::Wake(0));
        assert_eq!(
            sim.run_until_wake(SimTime::from_secs(5)),
            Halt::Stopped(RunOutcome::DeadlineReached)
        );
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // A cancelled wake never surfaces; `run_until` counts the remaining one and goes on.
        let id = sim.schedule_wake_at(SimTime::from_secs(6), 2);
        assert!(sim.cancel(id));
        sim.schedule_event_at(SimTime::from_secs(10), Ev::Push(2));
        assert_eq!(sim.run_until(SimTime::MAX), RunOutcome::Drained);
        assert_eq!(ns(sim.world()), vec![1, 2]);
        assert_eq!(sim.executed_events(), 4);
    }
}
