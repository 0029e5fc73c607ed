//! Dummynet-style pipes.
//!
//! Dummynet (the FreeBSD traffic shaper P2PLab relies on) shapes traffic through *pipes*: a
//! packet entering a pipe is queued behind earlier packets, drained at the pipe's configured
//! bandwidth, then held for the pipe's propagation delay before being released. Pipes can also
//! drop packets, either randomly (packet loss rate) or because the bounded queue overflows.
//!
//! The model here is exact for FIFO fixed-rate queues: the departure time of a packet is
//! `max(arrival, previous departure) + size/bandwidth`, so the state of a pipe is just the time
//! its queue becomes idle. Only a pipe with a queue bound also keeps a short window of recent
//! departures, which is what its overflow check counts occupancy from. A pipe counts its drops,
//! not its forwarded traffic: the NIC bytes the resource monitor reads are counted by the
//! machine (`MachineNet::nic_bytes`).
//!
//! A [`Pipe`] holds its whole configuration. A virtual node's two access-link pipes do not:
//! every pipe of a group is built from the group's access-link class, so the network keeps that
//! class once per group and direction as a [`Shaping`], and each node keeps only what a packet
//! changes — each direction's drain clock and Gilbert–Elliott bit — in its record. Both kinds
//! take a packet through one function, in one draw order.

use crate::proto::LinkCondition;
use p2plab_sim::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Names a pipe of the network: one of its arena's [`Pipe`]s, or one direction of a virtual
/// node's access link (see [`Network`](crate::Network) for the numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PipeId(pub usize);

/// Configuration of a dummynet pipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipeConfig {
    /// Drain rate in bits per second. `None` means unlimited (a pure-delay pipe, as used for
    /// inter-group latency rules).
    pub bandwidth_bps: Option<u64>,
    /// Propagation delay added after the packet leaves the queue. Also the minimum time any
    /// forwarded packet spends in the pipe — queueing, serialization and conditioners (jitter,
    /// reordering) only add hold-back, never deliver early — which is the floor the sharded
    /// runtime's conservative lookahead is derived from.
    pub delay: SimDuration,
    /// Random packet loss rate in `[0, 1]`.
    pub loss_rate: f64,
    /// Queue bound in bytes; arrivals that would push occupancy beyond this are dropped.
    /// `None` means unbounded.
    pub queue_limit_bytes: Option<u64>,
    /// Optional link conditioner (jitter, reordering, duplication, burst loss) stacked on the
    /// base model. `None` keeps the pipe byte-identical to the pre-conditioner behaviour.
    pub condition: Option<LinkCondition>,
}

impl PipeConfig {
    /// A pipe that only rate-limits and delays, with dummynet's default 50-slot (~75 KB) queue.
    pub fn shaped(bandwidth_bps: u64, delay: SimDuration) -> PipeConfig {
        PipeConfig {
            bandwidth_bps: Some(bandwidth_bps),
            delay,
            loss_rate: 0.0,
            queue_limit_bytes: Some(75_000),
            condition: None,
        }
    }

    /// A pure-delay pipe (used for inter-group latency).
    pub fn delay_only(delay: SimDuration) -> PipeConfig {
        PipeConfig {
            bandwidth_bps: None,
            delay,
            loss_rate: 0.0,
            queue_limit_bytes: None,
            condition: None,
        }
    }

    /// Adds a random loss rate.
    pub fn with_loss(mut self, loss_rate: f64) -> PipeConfig {
        assert!(
            (0.0..=1.0).contains(&loss_rate),
            "loss rate must be in [0,1]"
        );
        self.loss_rate = loss_rate;
        self
    }

    /// Overrides the queue bound.
    pub fn with_queue_limit(mut self, bytes: Option<u64>) -> PipeConfig {
        self.queue_limit_bytes = bytes;
        self
    }

    /// Stacks a link conditioner on the pipe. Inert conditioners are normalized to `None`, so
    /// the hot path's "no conditioner" check stays a plain `Option` test.
    pub fn with_condition(mut self, condition: Option<LinkCondition>) -> PipeConfig {
        self.condition = condition.filter(|c| !c.is_noop());
        self
    }
}

/// Why a packet was dropped by a pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss (the pipe's configured packet loss rate).
    RandomLoss,
    /// The bounded queue was full.
    QueueOverflow,
    /// The conditioner's Gilbert–Elliott chain was in its bad state (burst loss).
    BurstLoss,
}

/// Result of offering a packet to a pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The packet will be released at the given time (queueing + transmission + delay).
    Forwarded {
        /// Time the packet leaves the pipe (including propagation delay).
        exit: SimTime,
        /// Release time of a conditioner-duplicated copy, when the conditioner emitted one
        /// (always strictly after `exit` — the copy is charged its own serialization).
        dup: Option<SimTime>,
    },
    /// The packet was dropped.
    Dropped(DropReason),
}

/// Drop counters of a pipe. A pipe counts no forwarded traffic: the only such count read is
/// a machine's NIC bytes, which its [`MachineNet`](crate::MachineNet) keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeStats {
    /// Packets dropped by random loss.
    pub dropped_loss: u64,
    /// Packets dropped by queue overflow.
    pub dropped_overflow: u64,
    /// Packets dropped by the conditioner's burst-loss chain.
    pub dropped_burst: u64,
}

/// A dummynet pipe instance.
///
/// 32 bytes, aligned to 32, so no pipe straddles two cache lines: the drain clock, the rate
/// and delay the serialization arithmetic reads, and the pointer to whatever only *some* pipes
/// are configured with — loss, a queue bound, a conditioner, and the drop counters only such a
/// pipe can bump. The NIC and inter-group pipes of an unconditioned deployment allocate
/// nothing and write nothing but the clock per packet.
#[derive(Debug, Clone)]
#[repr(align(32))]
pub struct Pipe {
    /// Time at which the transmission queue becomes idle.
    busy_until: SimTime,
    /// Drain rate in bits per second, or [`UNSHAPED`] for a pipe that only delays
    /// ([`PipeConfig::bandwidth_bps`] `None`).
    bps: u64,
    /// Propagation delay ([`PipeConfig::delay`]).
    delay: SimDuration,
    /// `None` for a pipe that only rate-limits and delays.
    extras: Option<Box<PipeExtras>>,
}

// Every cross-machine packet crosses two NIC pipes, and most cross a latency pipe: a field added
// to `Pipe` moves each of them onto a cache line of its own. It belongs in `PipeExtras`.
const _: () = assert!(std::mem::size_of::<Pipe>() == 32);
const _: () = assert!(std::mem::align_of::<Pipe>() == 32);

/// [`Pipe::bps`] of a pure-delay pipe. A configured rate of 0 bit/s is no such pipe: it never
/// drains, so it is stored as a rate whose queue is busy until the end of time (see [`rate`]).
const UNSHAPED: u64 = 0;

/// The drain clock and rate a pipe of `bandwidth_bps` starts with.
fn rate(bandwidth_bps: Option<u64>) -> (SimTime, u64) {
    // A 0 bit/s queue's first packet leaves it busy until `SimTime::MAX` (the end of time,
    // where every later departure saturates too); starting it there is the same pipe.
    match bandwidth_bps {
        None => (SimTime::ZERO, UNSHAPED),
        Some(0) => (SimTime::MAX, 1),
        Some(bps) => (SimTime::ZERO, bps),
    }
}

/// Random loss and a conditioner: what a pipe may be configured with beyond its rate, delay
/// and queue bound.
#[derive(Debug, Clone, PartialEq)]
struct Impairments {
    loss_rate: f64,
    condition: Option<LinkCondition>,
}

/// What a pipe configured with loss, a queue bound or a conditioner keeps beyond [`Pipe`]'s
/// own fields, with the counters of the drops only such a pipe can produce.
#[derive(Debug, Clone)]
struct PipeExtras {
    /// Loss rate 0 and no conditioner when only the bound put the pipe here.
    impairments: Impairments,
    bound: Option<QueueBound>,
    /// Gilbert–Elliott chain state of the conditioner (`true` = bad state).
    bad: bool,
    dropped_loss: u64,
    dropped_overflow: u64,
    dropped_burst: u64,
}

/// Occupancy accounting of a bounded transmission queue.
#[derive(Debug, Clone)]
struct QueueBound {
    limit_bytes: u64,
    /// Departures `(queue exit time, size)` not yet known to lie in the past.
    window: VecDeque<(SimTime, u64)>,
    /// Running sum of the sizes in `window`, so the overflow check is O(1) per packet (the
    /// scan only happens implicitly, as the prune pops expired departures).
    queued: u64,
}

impl QueueBound {
    /// Forgets the departures that have left the queue by `now`.
    fn prune(&mut self, now: SimTime) {
        while let Some(&(exit, size)) = self.window.front() {
            if exit > now {
                break;
            }
            self.window.pop_front();
            self.queued -= size;
        }
    }

    /// Whether `size` more bytes overflow the queue as of the last prune (an empty queue
    /// always takes one packet, however large).
    fn overflows(&self, size: u64) -> bool {
        self.queued + size > self.limit_bytes && !self.window.is_empty()
    }
}

/// What serialization writes: a pipe's drain clock, and the departure window a bounded pipe's
/// overflow check counts from.
struct Queue<'a> {
    busy_until: &'a mut SimTime,
    bound: Option<&'a mut QueueBound>,
}

impl Queue<'_> {
    /// Charges one serialization slot at `bps` and returns its queue exit time.
    fn serialize(&mut self, bps: u64, now: SimTime, size: u64) -> SimTime {
        if bps == UNSHAPED {
            return now;
        }
        let start = (*self.busy_until).max(now);
        let exit = start + SimDuration::transmission(size, bps);
        *self.busy_until = exit;
        if let Some(bound) = self.bound.as_deref_mut() {
            bound.window.push_back((exit, size));
            bound.queued += size;
        }
        exit
    }
}

/// Offers a packet of `size` bytes at `now` to a pipe of rate `bps` and delay `delay`: the one
/// packet model of every pipe, in the one draw order — random loss, the burst chain, the queue
/// bound, serialization, jitter and reordering, duplication. `impaired` is the pipe's loss and
/// conditioner with its Gilbert–Elliott state; a pipe without (`None`) draws no randomness.
///
/// A conditioner-duplicated copy is serialized behind the original and released strictly
/// after it. It is dropped silently when the queue is full (a duplicate never evicts real
/// traffic, and its loss is invisible by construction).
#[inline(always)]
fn pass(
    bps: u64,
    delay: SimDuration,
    impaired: Option<(&Impairments, &mut bool)>,
    mut queue: Queue<'_>,
    now: SimTime,
    size: u64,
    rng: &mut SimRng,
) -> EnqueueOutcome {
    let mut condition = None;
    if let Some((x, bad)) = impaired {
        if rng.chance(x.loss_rate) {
            return EnqueueOutcome::Dropped(DropReason::RandomLoss);
        }
        condition = x.condition.as_ref();
        if let Some(burst) = condition.and_then(|c| c.burst) {
            if burst.step(bad, rng) {
                return EnqueueOutcome::Dropped(DropReason::BurstLoss);
            }
        }
    }
    if let Some(bound) = queue.bound.as_deref_mut() {
        bound.prune(now);
        if bound.overflows(size) {
            return EnqueueOutcome::Dropped(DropReason::QueueOverflow);
        }
    }
    let queue_exit = queue.serialize(bps, now, size);
    let mut latency = delay;
    if let Some(c) = condition {
        latency += c.extra_latency(rng);
    }
    let exit = queue_exit + latency;
    let dup = match condition {
        Some(c) if c.duplicates(rng) => {
            let full = queue.bound.as_deref().is_some_and(|b| b.overflows(size));
            (!full).then(|| {
                let dup_exit = queue.serialize(bps, now, size) + delay;
                dup_exit.max(exit + SimDuration::from_nanos(1))
            })
        }
        _ => None,
    };
    EnqueueOutcome::Forwarded { exit, dup }
}

impl Pipe {
    /// Creates a pipe from its configuration.
    pub fn new(config: PipeConfig) -> Pipe {
        let plain = config.loss_rate == 0.0
            && config.queue_limit_bytes.is_none()
            && config.condition.is_none();
        let extras = (!plain).then(|| {
            Box::new(PipeExtras {
                impairments: Impairments {
                    loss_rate: config.loss_rate,
                    condition: config.condition,
                },
                bound: config.queue_limit_bytes.map(|limit_bytes| QueueBound {
                    limit_bytes,
                    window: VecDeque::new(),
                    queued: 0,
                }),
                bad: false,
                dropped_loss: 0,
                dropped_overflow: 0,
                dropped_burst: 0,
            })
        });
        let (busy_until, bps) = rate(config.bandwidth_bps);
        Pipe {
            busy_until,
            bps,
            delay: config.delay,
            extras,
        }
    }

    /// Drop counters.
    pub fn stats(&self) -> PipeStats {
        let x = self.extras.as_deref();
        PipeStats {
            dropped_loss: x.map_or(0, |x| x.dropped_loss),
            dropped_overflow: x.map_or(0, |x| x.dropped_overflow),
            dropped_burst: x.map_or(0, |x| x.dropped_burst),
        }
    }

    /// Offers a packet of `size` bytes to the pipe at time `now`.
    pub fn enqueue(&mut self, now: SimTime, size: u64, rng: &mut SimRng) -> EnqueueOutcome {
        let busy_until = &mut self.busy_until;
        let Some(x) = self.extras.as_deref_mut() else {
            let queue = Queue {
                busy_until,
                bound: None,
            };
            return pass(self.bps, self.delay, None, queue, now, size, rng);
        };
        let queue = Queue {
            busy_until,
            bound: x.bound.as_mut(),
        };
        let impaired = Some((&x.impairments, &mut x.bad));
        let outcome = pass(self.bps, self.delay, impaired, queue, now, size, rng);
        if let EnqueueOutcome::Dropped(reason) = outcome {
            *match reason {
                DropReason::RandomLoss => &mut x.dropped_loss,
                DropReason::QueueOverflow => &mut x.dropped_overflow,
                DropReason::BurstLoss => &mut x.dropped_burst,
            } += 1;
        }
        outcome
    }
}

/// What an unbounded pipe does to a packet, apart from the state the packet changes: rate,
/// delay, loss and conditioner. Every access pipe of a group in one direction is built from the
/// group's access-link class, so the network keeps one `Shaping` per group and direction, and
/// each node keeps the state of its two pipes — a drain clock and a Gilbert–Elliott bit each —
/// in its [`VNodeNet`](crate::VNodeNet) record.
///
/// [`enqueue`](Shaping::enqueue) on that state is [`Pipe::enqueue`] on `Pipe::new(config)`:
/// the same exits, drops and draws, with no drop counters kept.
#[derive(Debug, Clone, PartialEq)]
pub struct Shaping {
    /// As [`Pipe::bps`].
    bps: u64,
    delay: SimDuration,
    /// The drain clock of a pipe no packet has crossed yet.
    idle: SimTime,
    impairments: Option<Impairments>,
}

impl Shaping {
    /// The shaping of the pipe `config` describes, which has no queue bound: a bounded pipe
    /// keeps a departure window, so it is a [`Pipe`].
    pub fn new(config: PipeConfig) -> Shaping {
        assert!(
            config.queue_limit_bytes.is_none(),
            "a shared shaping keeps no departure window"
        );
        let (idle, bps) = rate(config.bandwidth_bps);
        let impaired = config.loss_rate != 0.0 || config.condition.is_some();
        Shaping {
            bps,
            delay: config.delay,
            idle,
            impairments: impaired.then_some(Impairments {
                loss_rate: config.loss_rate,
                condition: config.condition,
            }),
        }
    }

    /// The drain clock a pipe starts with: the end of time for a 0 bit/s pipe, which never
    /// drains.
    pub fn idle(&self) -> SimTime {
        self.idle
    }

    /// Offers a packet of `size` bytes at `now` to the pipe whose drain clock is `busy_until`
    /// and whose burst-loss chain is in its bad state when `bad` is.
    #[inline]
    pub fn enqueue(
        &self,
        busy_until: &mut SimTime,
        bad: &mut bool,
        now: SimTime,
        size: u64,
        rng: &mut SimRng,
    ) -> EnqueueOutcome {
        let impaired = self.impairments.as_ref().map(|x| (x, bad));
        let queue = Queue {
            busy_until,
            bound: None,
        };
        pass(self.bps, self.delay, impaired, queue, now, size, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(99)
    }

    #[test]
    fn delay_only_pipe_adds_latency() {
        let mut p = Pipe::new(PipeConfig::delay_only(SimDuration::from_millis(400)));
        let mut r = rng();
        match p.enqueue(SimTime::from_secs(1), 1500, &mut r) {
            EnqueueOutcome::Forwarded { exit, .. } => {
                assert_eq!(exit, SimTime::from_secs(1) + SimDuration::from_millis(400));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn bandwidth_serialization_delay() {
        // 128 kbps uplink, 16 KiB block: ~1.024 s of serialization plus 30 ms of delay.
        let mut p = Pipe::new(PipeConfig::shaped(128_000, SimDuration::from_millis(30)));
        let mut r = rng();
        let out = p.enqueue(SimTime::ZERO, 16 * 1024, &mut r);
        match out {
            EnqueueOutcome::Forwarded { exit, .. } => {
                let secs = exit.as_secs_f64();
                assert!((secs - 1.054).abs() < 0.001, "exit={secs}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut p =
            Pipe::new(PipeConfig::shaped(1_000_000, SimDuration::ZERO).with_queue_limit(None));
        let mut r = rng();
        // Each 1250-byte packet takes 10 ms at 1 Mbps.
        let exits: Vec<SimTime> = (0..3)
            .map(|_| match p.enqueue(SimTime::ZERO, 1250, &mut r) {
                EnqueueOutcome::Forwarded { exit, .. } => exit,
                other => panic!("unexpected: {other:?}"),
            })
            .collect();
        assert_eq!(exits[0], SimTime::from_millis(10));
        assert_eq!(exits[1], SimTime::from_millis(20));
        assert_eq!(exits[2], SimTime::from_millis(30));
        // After the queue drains, a later packet is not delayed by history.
        match p.enqueue(SimTime::from_secs(1), 1250, &mut r) {
            EnqueueOutcome::Forwarded { exit, .. } => {
                assert_eq!(exit, SimTime::from_secs(1) + SimDuration::from_millis(10));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn queue_limit_drops_excess() {
        let mut p =
            Pipe::new(PipeConfig::shaped(8_000, SimDuration::ZERO).with_queue_limit(Some(3000)));
        let mut r = rng();
        // 1000-byte packets take 1 s each at 8 kbps; the 4th arrival exceeds the 3000-byte bound.
        let mut outcomes = Vec::new();
        for _ in 0..4 {
            outcomes.push(p.enqueue(SimTime::ZERO, 1000, &mut r));
        }
        assert!(matches!(outcomes[0], EnqueueOutcome::Forwarded { .. }));
        assert!(matches!(outcomes[1], EnqueueOutcome::Forwarded { .. }));
        assert!(matches!(outcomes[2], EnqueueOutcome::Forwarded { .. }));
        assert_eq!(
            outcomes[3],
            EnqueueOutcome::Dropped(DropReason::QueueOverflow)
        );
        assert_eq!(p.stats().dropped_overflow, 1);
        let forwarded = outcomes
            .iter()
            .filter(|o| matches!(o, EnqueueOutcome::Forwarded { .. }))
            .count();
        assert_eq!(forwarded, 3);
    }

    #[test]
    fn full_loss_rate_drops_everything() {
        let mut p = Pipe::new(PipeConfig::delay_only(SimDuration::ZERO).with_loss(1.0));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                p.enqueue(SimTime::ZERO, 100, &mut r),
                EnqueueOutcome::Dropped(DropReason::RandomLoss)
            );
        }
        assert_eq!(p.stats().dropped_loss, 10);
    }

    #[test]
    fn partial_loss_rate_is_statistically_plausible() {
        let mut p = Pipe::new(PipeConfig::delay_only(SimDuration::ZERO).with_loss(0.2));
        let mut r = rng();
        let dropped = (0..10_000)
            .filter(|_| {
                matches!(
                    p.enqueue(SimTime::ZERO, 100, &mut r),
                    EnqueueOutcome::Dropped(_)
                )
            })
            .count();
        assert!((1700..2300).contains(&dropped), "dropped={dropped}");
    }

    #[test]
    fn queued_bytes_tracks_occupancy() {
        // What `queue_limit_drops_excess`'s overflow check reads: prune, then the running sum.
        let mut p =
            Pipe::new(PipeConfig::shaped(8_000, SimDuration::ZERO).with_queue_limit(Some(3000)));
        let mut r = rng();
        p.enqueue(SimTime::ZERO, 1000, &mut r); // drains at t=1s
        p.enqueue(SimTime::ZERO, 1000, &mut r); // drains at t=2s
        let mut queued_bytes = |now| {
            let extras = p.extras.as_deref_mut().expect("the pipe is bounded");
            let bound = extras.bound.as_mut().expect("the pipe is bounded");
            bound.prune(now);
            bound.queued
        };
        assert_eq!(queued_bytes(SimTime::from_millis(500)), 2000);
        assert_eq!(queued_bytes(SimTime::from_millis(1500)), 1000);
        assert_eq!(queued_bytes(SimTime::from_secs(3)), 0);
    }

    #[test]
    fn plain_pipe_keeps_no_extras() {
        // Every pipe `Network` deploys for an unconditioned topology is one of these.
        let plain = [
            PipeConfig::delay_only(SimDuration::from_millis(5)),
            PipeConfig::shaped(1_000_000, SimDuration::ZERO).with_queue_limit(None),
            PipeConfig::shaped(1_000_000, SimDuration::ZERO)
                .with_loss(0.0)
                .with_queue_limit(None)
                .with_condition(Some(LinkCondition::none())),
        ];
        for config in plain {
            assert!(Pipe::new(config).extras.is_none(), "{config:?}");
        }
        let unbounded = PipeConfig::shaped(1_000_000, SimDuration::ZERO).with_queue_limit(None);
        let not_plain = [
            PipeConfig::shaped(1_000_000, SimDuration::ZERO),
            unbounded.with_loss(0.1),
            unbounded.with_condition(Some(LinkCondition {
                duplicate_rate: 0.5,
                ..LinkCondition::none()
            })),
        ];
        for config in not_plain {
            let pipe = Pipe::new(config);
            let extras = pipe
                .extras
                .as_deref()
                .expect("configured beyond rate and delay");
            // The departure window exists only where a bound can read it.
            assert_eq!(extras.bound.is_some(), config.queue_limit_bytes.is_some());
        }
    }

    #[test]
    fn burst_loss_drops_in_runs() {
        use crate::proto::{BurstLoss, LinkCondition};
        let cfg = PipeConfig::delay_only(SimDuration::ZERO).with_condition(Some(
            LinkCondition::none().with_burst(BurstLoss::new(0.05, 0.25, 1.0)),
        ));
        let mut p = Pipe::new(cfg);
        let mut r = SimRng::new(2006);
        let dropped = (0..10_000)
            .filter(|_| {
                matches!(
                    p.enqueue(SimTime::ZERO, 100, &mut r),
                    EnqueueOutcome::Dropped(DropReason::BurstLoss)
                )
            })
            .count();
        assert_eq!(p.stats().dropped_burst as usize, dropped);
        // Stationary bad-state share is 1/6; allow a wide statistical band.
        assert!((1000..2500).contains(&dropped), "dropped={dropped}");
    }

    #[test]
    fn jitter_widens_exit_times() {
        use crate::proto::LinkCondition;
        let jitter = SimDuration::from_millis(5);
        let cfg = PipeConfig::delay_only(SimDuration::from_millis(10))
            .with_condition(Some(LinkCondition::none().with_jitter(jitter)));
        let mut p = Pipe::new(cfg);
        let mut r = rng();
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..100 {
            match p.enqueue(SimTime::ZERO, 100, &mut r) {
                EnqueueOutcome::Forwarded { exit, .. } => {
                    assert!(exit >= SimTime::from_millis(10));
                    assert!(exit <= SimTime::from_millis(15));
                    distinct.insert(exit);
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(
            distinct.len() > 10,
            "jitter produced {} values",
            distinct.len()
        );
    }

    #[test]
    fn duplication_emits_strictly_later_copy() {
        use crate::proto::LinkCondition;
        let cfg = PipeConfig::shaped(1_000_000, SimDuration::from_millis(10))
            .with_queue_limit(None)
            .with_condition(Some(LinkCondition {
                duplicate_rate: 1.0,
                ..LinkCondition::none()
            }));
        let mut p = Pipe::new(cfg);
        let mut r = rng();
        match p.enqueue(SimTime::ZERO, 1250, &mut r) {
            EnqueueOutcome::Forwarded { exit, dup } => {
                let dup = dup.expect("rate-1.0 duplication must emit a copy");
                assert!(dup > exit, "dup {dup:?} must be strictly after {exit:?}");
                // The copy was charged its own 10 ms serialization slot.
                assert_eq!(dup, exit + SimDuration::from_millis(10));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Both copies were serialized: the queue is busy for two 10 ms slots.
        assert_eq!(p.busy_until, SimTime::from_millis(20));
    }

    #[test]
    fn zero_rate_pipe_never_drains() {
        // 0 bit/s: every packet's serialization takes `SimDuration::MAX`, so each one leaves
        // at the end of time, and a bounded queue fills as the departures never come.
        let mut p = Pipe::new(PipeConfig::shaped(0, SimDuration::from_millis(5)));
        let mut r = rng();
        let end = EnqueueOutcome::Forwarded {
            exit: SimTime::MAX,
            dup: None,
        };
        assert_eq!(p.enqueue(SimTime::from_secs(1), 50_000, &mut r), end);
        assert_eq!(p.enqueue(SimTime::from_secs(9), 20_000, &mut r), end);
        assert_eq!(
            p.enqueue(SimTime::from_secs(9), 10_000, &mut r),
            EnqueueOutcome::Dropped(DropReason::QueueOverflow)
        );
        // The fastest finite rate still charges its nanosecond; only an unshaped pipe does not.
        let mut fastest = Pipe::new(PipeConfig::shaped(u64::MAX, SimDuration::ZERO));
        let mut unshaped = Pipe::new(PipeConfig::delay_only(SimDuration::ZERO));
        let now = SimTime::from_secs(1);
        let exit = |outcome| match outcome {
            EnqueueOutcome::Forwarded { exit, .. } => exit,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(
            exit(fastest.enqueue(now, 1500, &mut r)),
            now + SimDuration::from_nanos(1)
        );
        assert_eq!(exit(unshaped.enqueue(now, 1500, &mut r)), now);
    }

    #[test]
    fn inert_conditioner_is_normalized_away() {
        use crate::proto::LinkCondition;
        let cfg = PipeConfig::shaped(1_000_000, SimDuration::ZERO)
            .with_condition(Some(LinkCondition::none()));
        assert_eq!(cfg.condition, None);
    }
}
