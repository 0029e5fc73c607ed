//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a user-defined *world* `W` (the mutable state of the whole experiment:
//! physical nodes, network, applications), a virtual clock, a deterministic RNG and an event
//! queue. Events come in two representations:
//!
//! * **Closure events** — `Box<dyn FnOnce(&mut Simulation<W, E>)>`, scheduled with
//!   [`schedule_at`](Simulation::schedule_at) and friends. Fully general, one heap allocation
//!   per event. This is the fallback arm every simulation supports.
//! * **Pooled typed events** — a value of the simulation's typed-event class `E` (implementing
//!   [`TypedEvent`]), scheduled with [`schedule_event_at`](Simulation::schedule_event_at).
//!   The value is stored inline in the queue's slab slot, so the dominant event classes of a
//!   hot loop (the network substrate's packet hops, see `p2plab-net`) run **allocation-free**.
//!
//! `E` defaults to the uninhabited [`NoEvent`], so `Simulation<W>` keeps its historical
//! closure-only shape and none of the existing call sites change.
//!
//! ```
//! use p2plab_sim::{Simulation, SimDuration};
//!
//! let mut sim = Simulation::new(0u64, 42);
//! sim.schedule_in(SimDuration::from_secs(1), |sim| {
//!     *sim.world_mut() += 1;
//!     sim.schedule_in(SimDuration::from_secs(1), |sim| *sim.world_mut() += 10);
//! });
//! sim.run();
//! assert_eq!(*sim.world(), 11);
//! assert_eq!(sim.now().as_secs_f64(), 2.0);
//! ```
//!
//! A typed-event class is an enum plus a dispatch function:
//!
//! ```
//! use p2plab_sim::{Simulation, SimTime, TypedEvent};
//!
//! enum Tick { Add(u32) }
//! impl TypedEvent<u32> for Tick {
//!     fn fire(self, sim: &mut Simulation<u32, Tick>) {
//!         match self { Tick::Add(n) => *sim.world_mut() += n }
//!     }
//! }
//! let mut sim: Simulation<u32, Tick> = Simulation::with_events(0, 7);
//! sim.schedule_event_at(SimTime::from_secs(1), Tick::Add(5));
//! sim.run();
//! assert_eq!(*sim.world(), 5);
//! ```

use crate::event::{EventId, EventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// An event handler: a one-shot closure run when its scheduled time is reached.
pub type EventFn<W, E = NoEvent> = Box<dyn FnOnce(&mut Simulation<W, E>)>;

/// A simulation's pooled typed-event class: a plain value stored inline in the event queue
/// (no per-event allocation) and dispatched by [`fire`](TypedEvent::fire) when due.
pub trait TypedEvent<W>: Sized + 'static {
    /// Executes the event. Equivalent to a scheduled closure's body, with `self` carrying the
    /// event's data.
    fn fire(self, sim: &mut Simulation<W, Self>);
}

/// The default, uninhabited typed-event class: a `Simulation<W>` carries closure events only.
pub enum NoEvent {}

impl<W> TypedEvent<W> for NoEvent {
    fn fire(self, _sim: &mut Simulation<W, Self>) {
        match self {}
    }
}

/// A queued event: the generic closure fallback, or an inline value of the typed class.
enum Payload<W, E> {
    Closure(EventFn<W, E>),
    Typed(E),
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

/// A deterministic discrete-event simulation over a world `W`, with pooled typed events `E`.
pub struct Simulation<W, E = NoEvent> {
    now: SimTime,
    queue: EventQueue<Payload<W, E>>,
    world: W,
    rng: SimRng,
    executed_events: u64,
    event_budget: u64,
}

impl<W> Simulation<W> {
    /// Creates a closure-only simulation at time zero with the given world and RNG seed.
    /// For a simulation with a pooled typed-event class, use
    /// [`with_events`](Simulation::with_events).
    pub fn new(world: W, seed: u64) -> Self {
        Simulation::with_events(world, seed)
    }
}

impl<W, E: TypedEvent<W>> Simulation<W, E> {
    /// Creates a simulation at time zero whose pooled typed-event class is `E` (pick the class
    /// through an annotation or turbofish: `Simulation::<World, MyEvent>::with_events(..)`).
    pub fn with_events(world: W, seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            world,
            rng: SimRng::new(seed),
            executed_events: 0,
            event_budget: u64::MAX,
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

    /// Number of events executed so far.
    pub fn executed_events(&self) -> u64 {
        self.executed_events
    }

    /// Limits the total number of events the run loop will execute (runaway protection for
    /// property tests and CI). Default is unlimited.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Pre-sizes the event queue for `events` concurrently pending events (arrival bursts in
    /// large scenarios would otherwise regrow the queue slab mid-run).
    pub fn reserve_events(&mut self, events: usize) {
        self.queue.reserve(events);
    }

    /// Schedules `f` to run at absolute time `at`. Times in the past are clamped to "now"
    /// (the event still runs, immediately after the current one).
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut Simulation<W, E>) + 'static,
    {
        let at = at.max(self.now);
        self.queue.push(at, Payload::Closure(Box::new(f)))
    }

    /// Schedules `f` to run after `delay`.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F) -> EventId
    where
        F: FnOnce(&mut Simulation<W, E>) + 'static,
    {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedules `f` to run at the current instant, after all handlers already queued for this
    /// instant.
    pub fn schedule_now<F>(&mut self, f: F) -> EventId
    where
        F: FnOnce(&mut Simulation<W, E>) + 'static,
    {
        self.schedule_at(self.now, f)
    }

    /// Schedules a pooled typed event at absolute time `at` (clamped to "now" like
    /// [`schedule_at`](Simulation::schedule_at)). The value is stored inline in the queue —
    /// no per-event allocation.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) -> EventId {
        let at = at.max(self.now);
        self.queue.push(at, Payload::Typed(event))
    }

    /// Schedules a pooled typed event after `delay`.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_event_at(self.now + delay, event)
    }

    /// Cancels a scheduled event. Returns true if the event had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Executes one popped event: the clock jumps to its time, then its handler runs.
    #[inline]
    fn fire(&mut self, (time, _id, payload): (SimTime, EventId, Payload<W, E>)) {
        debug_assert!(time >= self.now, "time must be monotonic");
        self.now = time;
        self.executed_events += 1;
        match payload {
            Payload::Closure(f) => f(self),
            Payload::Typed(e) => e.fire(self),
        }
    }

    /// Runs a single event, if any, and returns whether one was executed.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(event) => {
                self.fire(event);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs every event due at or before `last`; the clock stays at the last executed event.
    fn run_through(&mut self, last: SimTime) -> RunOutcome {
        loop {
            if self.executed_events >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            match self.queue.pop_due(last) {
                Some(event) => self.fire(event),
                None if self.queue.is_empty() => return RunOutcome::Drained,
                None => return RunOutcome::DeadlineReached,
            }
        }
    }

    /// Runs until the queue drains or virtual time would pass `deadline`.
    ///
    /// Events scheduled exactly at `deadline` are executed. On return with
    /// [`RunOutcome::DeadlineReached`] the clock is advanced to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        let outcome = self.run_through(deadline);
        if outcome == RunOutcome::DeadlineReached {
            self.now = deadline.max(self.now);
        }
        outcome
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
        self.run_through(SimTime::from_nanos(end.as_nanos() - 1))
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

/// Schedules `f` every `period`, starting at `start`, until `f` returns `false`.
///
/// This is the building block for the periodic timers used all over the substrates
/// (choker rounds, tracker re-announces, rate estimators).
///
/// # Panics
///
/// Panics on a zero `period`: the timer would reschedule itself at the current instant
/// forever, livelocking the run loop without ever advancing virtual time.
pub fn schedule_periodic<W, E, F>(
    sim: &mut Simulation<W, E>,
    start: SimTime,
    period: SimDuration,
    f: F,
) where
    W: 'static,
    E: TypedEvent<W>,
    F: FnMut(&mut Simulation<W, E>) -> bool + 'static,
{
    assert!(
        !period.is_zero(),
        "schedule_periodic needs a non-zero period (a zero period livelocks the event loop)"
    );
    struct Periodic<W, F> {
        period: SimDuration,
        f: F,
        _marker: std::marker::PhantomData<fn(&mut W)>,
    }

    fn tick<W, E, F>(mut state: Periodic<W, F>, sim: &mut Simulation<W, E>)
    where
        W: 'static,
        E: TypedEvent<W>,
        F: FnMut(&mut Simulation<W, E>) -> bool + 'static,
    {
        if (state.f)(sim) {
            let period = state.period;
            sim.schedule_in(period, move |sim| tick(state, sim));
        }
    }

    let state = Periodic {
        period,
        f,
        _marker: std::marker::PhantomData,
    };
    sim.schedule_at(start, move |sim| tick(state, sim));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulation::new(Vec::<u32>::new(), 1);
        sim.schedule_in(SimDuration::from_secs(3), |s| s.world_mut().push(3));
        sim.schedule_in(SimDuration::from_secs(1), |s| s.world_mut().push(1));
        sim.schedule_in(SimDuration::from_secs(2), |s| s.world_mut().push(2));
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.world(), &vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.executed_events(), 3);
    }

    #[test]
    fn nested_scheduling() {
        let mut sim = Simulation::new(0u32, 1);
        sim.schedule_in(SimDuration::from_secs(1), |s| {
            *s.world_mut() += 1;
            s.schedule_in(SimDuration::from_secs(1), |s| *s.world_mut() += 100);
        });
        sim.run();
        assert_eq!(*sim.world(), 101);
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(0u32, 1);
        for i in 1..=10 {
            sim.schedule_in(SimDuration::from_secs(i), |s| *s.world_mut() += 1);
        }
        let outcome = sim.run_until(SimTime::from_secs(5));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // Remaining events still runnable.
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*sim.world(), 10);
    }

    #[test]
    fn run_before_is_exclusive_and_keeps_clock() {
        let mut sim = Simulation::new(0u32, 1);
        for i in 1..=10 {
            sim.schedule_in(SimDuration::from_secs(i), |s| *s.world_mut() += 1);
        }
        let outcome = sim.run_before(SimTime::from_secs(5));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        // Events at exactly t=5 did NOT run, and the clock sits at the last executed event.
        assert_eq!(*sim.world(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.next_event_time(), Some(SimTime::from_secs(5)));
        // A window that opens at the frontier still executes the boundary event.
        assert_eq!(
            sim.run_before(SimTime::from_secs(6)),
            RunOutcome::DeadlineReached
        );
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.run_before(SimTime::MAX), RunOutcome::Drained);
        assert_eq!(*sim.world(), 10);
        assert_eq!(sim.next_event_time(), None);
    }

    #[test]
    fn run_before_zero_window_runs_nothing() {
        let mut sim = Simulation::new(0u32, 1);
        sim.schedule_at(SimTime::ZERO, |s| *s.world_mut() += 1);
        assert_eq!(sim.run_before(SimTime::ZERO), RunOutcome::DeadlineReached);
        assert_eq!(*sim.world(), 0);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*sim.world(), 1);
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut sim = Simulation::new(Vec::new(), 1);
        sim.schedule_in(SimDuration::from_secs(5), |s| {
            // Scheduling "in the past" must not move time backwards.
            s.schedule_at(SimTime::from_secs(1), |s| {
                let now = s.now();
                s.world_mut().push(now);
            });
        });
        sim.run();
        assert_eq!(sim.world(), &vec![SimTime::from_secs(5)]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulation::new(0u32, 1);
        let id = sim.schedule_in(SimDuration::from_secs(1), |s| *s.world_mut() += 1);
        sim.schedule_in(SimDuration::from_secs(2), |s| *s.world_mut() += 10);
        assert!(sim.cancel(id));
        sim.run();
        assert_eq!(*sim.world(), 10);
    }

    #[test]
    fn event_budget_stops_runaway() {
        let mut sim = Simulation::new((), 1);
        fn forever(sim: &mut Simulation<()>) {
            sim.schedule_in(SimDuration::from_nanos(1), forever);
        }
        sim.schedule_now(forever);
        sim.set_event_budget(1000);
        assert_eq!(sim.run(), RunOutcome::EventBudgetExhausted);
        assert_eq!(sim.executed_events(), 1000);
    }

    #[test]
    fn periodic_runs_until_false() {
        let counter = Rc::new(RefCell::new(0));
        let c2 = counter.clone();
        let mut sim = Simulation::new((), 1);
        schedule_periodic(
            &mut sim,
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            move |_sim| {
                *c2.borrow_mut() += 1;
                *c2.borrow() < 5
            },
        );
        sim.run();
        assert_eq!(*counter.borrow(), 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "non-zero period")]
    fn periodic_rejects_zero_period() {
        // A zero period would reschedule the timer at the same instant until the event budget
        // (or the operator's patience) runs out; it must be refused up front.
        let mut sim = Simulation::new((), 1);
        schedule_periodic(&mut sim, SimTime::ZERO, SimDuration::ZERO, |_| true);
    }

    #[test]
    fn same_instant_fifo() {
        let mut sim = Simulation::new(Vec::new(), 1);
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            sim.schedule_at(t, move |s| s.world_mut().push(i));
        }
        sim.run();
        assert_eq!(sim.world(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn determinism_same_seed_same_draws() {
        let run = |seed| {
            let mut sim = Simulation::new(Vec::new(), seed);
            for _ in 0..100 {
                let d = SimDuration::from_nanos(sim.rng().gen_range(1..1_000_000));
                sim.schedule_in(d, move |s| {
                    let now = s.now();
                    s.world_mut().push(now);
                });
            }
            sim.run();
            sim.into_world()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// A minimal typed-event class for engine-level tests.
    enum TestEvent {
        Add(u32),
        Spawn,
    }

    impl TypedEvent<Vec<u32>> for TestEvent {
        fn fire(self, sim: &mut Simulation<Vec<u32>, TestEvent>) {
            match self {
                TestEvent::Add(n) => sim.world_mut().push(n),
                TestEvent::Spawn => {
                    // Typed handlers can schedule both typed and closure events.
                    sim.schedule_event_in(SimDuration::from_secs(1), TestEvent::Add(99));
                    sim.schedule_now(|s| s.world_mut().push(1));
                }
            }
        }
    }

    #[test]
    fn typed_and_closure_events_interleave_in_seq_order() {
        let mut sim: Simulation<Vec<u32>, TestEvent> = Simulation::with_events(Vec::new(), 1);
        let t = SimTime::from_secs(1);
        sim.schedule_event_at(t, TestEvent::Add(10));
        sim.schedule_at(t, |s| s.world_mut().push(20));
        sim.schedule_event_at(t, TestEvent::Add(30));
        sim.run();
        assert_eq!(sim.world(), &vec![10, 20, 30]);
    }

    #[test]
    fn typed_events_can_spawn_more_work() {
        let mut sim: Simulation<Vec<u32>, TestEvent> = Simulation::with_events(Vec::new(), 1);
        sim.schedule_event_at(SimTime::from_secs(1), TestEvent::Spawn);
        sim.run();
        assert_eq!(sim.world(), &vec![1, 99]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.executed_events(), 3);
    }

    #[test]
    fn typed_events_are_cancellable() {
        let mut sim: Simulation<Vec<u32>, TestEvent> = Simulation::with_events(Vec::new(), 1);
        let id = sim.schedule_event_at(SimTime::from_secs(1), TestEvent::Add(1));
        sim.schedule_event_at(SimTime::from_secs(2), TestEvent::Add(2));
        assert!(sim.cancel(id));
        sim.run();
        assert_eq!(sim.world(), &vec![2]);
    }
}
