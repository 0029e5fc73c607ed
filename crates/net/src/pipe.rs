//! Dummynet-style pipes.
//!
//! Dummynet (the FreeBSD traffic shaper P2PLab relies on) shapes traffic through *pipes*: a
//! packet entering a pipe is queued behind earlier packets, drained at the pipe's configured
//! bandwidth, then held for the pipe's propagation delay before being released. A pipe can also
//! drop packets at random (its packet loss rate) or in bursts (its conditioner's Gilbert–Elliott
//! chain).
//!
//! The model here is exact for unbounded FIFO fixed-rate queues: the departure time of a packet
//! is `max(arrival, previous departure) + size/bandwidth`, so the state of a pipe is just the
//! time its queue becomes idle, plus the bad-state bit of a burst-loss chain.
//!
//! **A pipe is a class and a clock.** What a pipe does to a packet — rate, delay, loss and
//! conditioner — is a [`Shaping`], and many pipes share one: the network keeps one per group
//! and direction for the access links and one per direction for every machine's NIC, and each
//! node's record or machine keeps only what a packet changes, the drain clock and the
//! Gilbert–Elliott bit. Every pipe takes a packet through [`Shaping::enqueue`], in one draw
//! order. A [`Pipe`] is a `Shaping` with the clock and bit it owns, for a pipe on its own; the
//! network stores none.

use crate::proto::LinkCondition;
use p2plab_sim::{SimDuration, SimRng, SimTime};

/// Names a pipe of the network: one direction of a virtual node's access link, or a group
/// pair's latency (see [`Network`](crate::Network) for the numbering).
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
    /// Optional link conditioner (jitter, reordering, duplication, burst loss) stacked on the
    /// base model. `None` keeps the pipe byte-identical to the pre-conditioner behaviour.
    pub condition: Option<LinkCondition>,
}

impl PipeConfig {
    /// A pipe that only rate-limits and delays.
    pub fn shaped(bandwidth_bps: u64, delay: SimDuration) -> PipeConfig {
        PipeConfig {
            bandwidth_bps: Some(bandwidth_bps),
            delay,
            loss_rate: 0.0,
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

    /// Sets the queue bound, which must be `None`: a pipe's queue is unbounded. Panics on `Some`.
    pub fn with_queue_limit(self, bytes: Option<u64>) -> PipeConfig {
        assert_eq!(bytes, None, "a pipe's queue is unbounded");
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

/// [`Shaping::bps`] of a pure-delay pipe. A configured rate of 0 bit/s is no such pipe: it never
/// drains, so it is stored as a rate whose queue is busy until the end of time (see
/// [`Shaping::idle`]).
const UNSHAPED: u64 = 0;

/// Random loss and a conditioner: what a pipe may be configured with beyond its rate and delay.
#[derive(Debug, Clone, PartialEq)]
struct Impairments {
    loss_rate: f64,
    condition: Option<LinkCondition>,
}

/// What a pipe does to a packet, apart from the state the packet changes: rate, delay, loss and
/// conditioner. Every access pipe of a group in one direction is built from the group's
/// access-link class and every NIC pipe in one direction from the network's configuration, so
/// the network keeps one `Shaping` per group and direction and one per NIC direction, and each
/// pipe's state — a drain clock and a Gilbert–Elliott bit — lives in its node's
/// [`VNodeNet`](crate::VNodeNet) record or its machine's [`MachineNet`](crate::MachineNet).
#[derive(Debug, Clone, PartialEq)]
pub struct Shaping {
    /// Drain rate in bits per second, or [`UNSHAPED`] for a pipe that only delays
    /// ([`PipeConfig::bandwidth_bps`] `None`).
    bps: u64,
    /// Propagation delay ([`PipeConfig::delay`]).
    delay: SimDuration,
    /// The drain clock of a pipe no packet has crossed yet.
    idle: SimTime,
    /// `None` for a pipe that only rate-limits and delays, which draws no randomness.
    impairments: Option<Impairments>,
}

impl Shaping {
    /// The shaping of the pipe `config` describes.
    pub fn new(config: PipeConfig) -> Shaping {
        // A 0 bit/s queue's first packet leaves it busy until `SimTime::MAX` (the end of time,
        // where every later departure saturates too); starting it there is the same pipe.
        let (idle, bps) = match config.bandwidth_bps {
            None => (SimTime::ZERO, UNSHAPED),
            Some(0) => (SimTime::MAX, 1),
            Some(bps) => (SimTime::ZERO, bps),
        };
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

    /// Charges one serialization slot of `size` bytes at `now` to the queue whose drain clock
    /// is `busy_until`, and returns its queue exit time.
    fn serialize(&self, busy_until: &mut SimTime, now: SimTime, size: u64) -> SimTime {
        if self.bps == UNSHAPED {
            return now;
        }
        let exit = (*busy_until).max(now) + SimDuration::transmission(size, self.bps);
        *busy_until = exit;
        exit
    }

    /// Offers a packet of `size` bytes at `now` to the pipe whose drain clock is `busy_until`
    /// and whose burst-loss chain is in its bad state when `bad` is: the one packet model of
    /// every pipe, in the one draw order — random loss, the burst chain, serialization, jitter
    /// and reordering, duplication.
    ///
    /// A conditioner-duplicated copy is serialized behind the original and released strictly
    /// after it.
    #[inline]
    pub fn enqueue(
        &self,
        busy_until: &mut SimTime,
        bad: &mut bool,
        now: SimTime,
        size: u64,
        rng: &mut SimRng,
    ) -> EnqueueOutcome {
        let mut condition = None;
        if let Some(x) = &self.impairments {
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
        let queue_exit = self.serialize(busy_until, now, size);
        let mut latency = self.delay;
        if let Some(c) = condition {
            latency += c.extra_latency(rng);
        }
        let exit = queue_exit + latency;
        let dup = match condition {
            Some(c) if c.duplicates(rng) => {
                let dup_exit = self.serialize(busy_until, now, size) + self.delay;
                Some(dup_exit.max(exit + SimDuration::from_nanos(1)))
            }
            _ => None,
        };
        EnqueueOutcome::Forwarded { exit, dup }
    }
}

/// A pipe on its own: a [`Shaping`] with the drain clock and Gilbert–Elliott bit it owns.
#[derive(Debug, Clone)]
pub struct Pipe {
    shaping: Shaping,
    busy_until: SimTime,
    bad: bool,
}

impl Pipe {
    /// Creates a pipe from its configuration.
    pub fn new(config: PipeConfig) -> Pipe {
        let shaping = Shaping::new(config);
        Pipe {
            busy_until: shaping.idle,
            shaping,
            bad: false,
        }
    }

    /// Offers a packet of `size` bytes to the pipe at time `now`.
    pub fn enqueue(&mut self, now: SimTime, size: u64, rng: &mut SimRng) -> EnqueueOutcome {
        (self.shaping).enqueue(&mut self.busy_until, &mut self.bad, now, size, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(99)
    }

    /// A pipe that only delays, as every inter-group latency pipe is.
    fn pure_delay(delay: SimDuration) -> PipeConfig {
        PipeConfig {
            bandwidth_bps: None,
            delay,
            loss_rate: 0.0,
            condition: None,
        }
    }

    #[test]
    fn pure_delay_pipe_adds_latency() {
        let mut p = Pipe::new(pure_delay(SimDuration::from_millis(400)));
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
        let mut p = Pipe::new(PipeConfig::shaped(1_000_000, SimDuration::ZERO));
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
    fn full_loss_rate_drops_everything() {
        let mut p = Pipe::new(pure_delay(SimDuration::ZERO).with_loss(1.0));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                p.enqueue(SimTime::ZERO, 100, &mut r),
                EnqueueOutcome::Dropped(DropReason::RandomLoss)
            );
        }
    }

    #[test]
    fn partial_loss_rate_is_statistically_plausible() {
        let mut p = Pipe::new(pure_delay(SimDuration::ZERO).with_loss(0.2));
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
    fn burst_loss_drops_in_runs() {
        use crate::proto::{BurstLoss, LinkCondition};
        let cfg = pure_delay(SimDuration::ZERO).with_condition(Some(
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
        // Stationary bad-state share is 1/6; allow a wide statistical band.
        assert!((1000..2500).contains(&dropped), "dropped={dropped}");
    }

    #[test]
    fn jitter_widens_exit_times() {
        use crate::proto::LinkCondition;
        let jitter = SimDuration::from_millis(5);
        let cfg = pure_delay(SimDuration::from_millis(10))
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
        let cfg = PipeConfig::shaped(1_000_000, SimDuration::from_millis(10)).with_condition(Some(
            LinkCondition {
                duplicate_rate: 1.0,
                ..LinkCondition::none()
            },
        ));
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
        // at the end of time.
        let mut p = Pipe::new(PipeConfig::shaped(0, SimDuration::from_millis(5)));
        let mut r = rng();
        let end = EnqueueOutcome::Forwarded {
            exit: SimTime::MAX,
            dup: None,
        };
        assert_eq!(p.enqueue(SimTime::from_secs(1), 50_000, &mut r), end);
        assert_eq!(p.enqueue(SimTime::from_secs(9), 20_000, &mut r), end);
        // The fastest finite rate still charges its nanosecond; only an unshaped pipe does not.
        let mut fastest = Pipe::new(PipeConfig::shaped(u64::MAX, SimDuration::ZERO));
        let mut unshaped = Pipe::new(pure_delay(SimDuration::ZERO));
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
