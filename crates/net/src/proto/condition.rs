//! Composable link conditioners: jitter, reordering, duplication and burst loss.
//!
//! A [`LinkCondition`] describes hostile-network behaviour layered on top of a pipe's base
//! model (bandwidth, delay, uniform loss). The pipe applies it per packet, in a fixed order so
//! random-number consumption is deterministic:
//!
//! 1. **burst loss** — a two-state Gilbert–Elliott chain ([`BurstLoss`]): the link flips
//!    between a good state (only the base uniform loss applies) and a bad state where packets
//!    drop with high probability, producing the correlated loss runs real links show;
//! 2. **jitter** — a uniform random addition to the propagation delay;
//! 3. **reordering** — with the configured probability a packet is held for an extra fixed
//!    delay, letting later packets overtake it;
//! 4. **duplication** — with the configured probability the pipe emits a second copy (charged
//!    a second serialization slot, so duplicates consume bandwidth).
//!
//! A pipe with no conditioner draws no extra random numbers — the default path stays
//! byte-identical.

use p2plab_sim::{SimDuration, SimRng};

/// Two-state Gilbert–Elliott burst-loss model.
///
/// Each packet first advances the chain (good → bad with probability `enter`, bad → good with
/// probability `exit`), then, when in the bad state, drops with probability `loss`. Expected
/// bad-run length is `1 / exit` packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Probability of entering the bad state, per packet in the good state.
    pub enter: f64,
    /// Probability of leaving the bad state, per packet in the bad state.
    pub exit: f64,
    /// Packet loss probability while in the bad state.
    pub loss: f64,
}

impl BurstLoss {
    /// A burst-loss model; probabilities must be in `[0, 1]`.
    pub fn new(enter: f64, exit: f64, loss: f64) -> BurstLoss {
        for (name, p) in [("enter", enter), ("exit", exit), ("loss", loss)] {
            assert!((0.0..=1.0).contains(&p), "burst {name} must be in [0,1]");
        }
        BurstLoss { enter, exit, loss }
    }

    /// Advances the chain state (`bad`) for one packet, then samples whether that packet is
    /// lost to the burst.
    pub fn step(&self, bad: &mut bool, rng: &mut SimRng) -> bool {
        if *bad {
            if rng.chance(self.exit) {
                *bad = false;
            }
        } else if rng.chance(self.enter) {
            *bad = true;
        }
        *bad && rng.chance(self.loss)
    }
}

/// A composable link conditioner. [`LinkCondition::none`] (the `Default`) is inert: every rate
/// zero, no burst model, and — because the pipe checks before drawing — zero extra RNG draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCondition {
    /// Uniform random addition to the propagation delay, drawn per packet from
    /// `[0, jitter]`.
    pub jitter: SimDuration,
    /// Probability that a packet is held back for `reorder_delay` (letting later packets
    /// overtake it).
    pub reorder_rate: f64,
    /// Extra delay applied to reordered packets.
    pub reorder_delay: SimDuration,
    /// Probability that a packet is duplicated (the copy is charged its own serialization).
    pub duplicate_rate: f64,
    /// Gilbert–Elliott burst loss, if any.
    pub burst: Option<BurstLoss>,
}

impl LinkCondition {
    /// The inert conditioner.
    pub fn none() -> LinkCondition {
        LinkCondition {
            jitter: SimDuration::ZERO,
            reorder_rate: 0.0,
            reorder_delay: SimDuration::ZERO,
            duplicate_rate: 0.0,
            burst: None,
        }
    }

    /// Adds delay jitter.
    pub fn with_jitter(mut self, jitter: SimDuration) -> LinkCondition {
        self.jitter = jitter;
        self
    }

    /// Adds Gilbert–Elliott burst loss.
    pub fn with_burst(mut self, burst: BurstLoss) -> LinkCondition {
        self.burst = Some(burst);
        self
    }

    /// Whether the conditioner does nothing (and can be dropped entirely).
    pub fn is_noop(&self) -> bool {
        self.jitter.is_zero()
            && self.reorder_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.burst.is_none()
    }

    /// Samples the extra latency (jitter + reordering hold-back) for one packet.
    pub fn extra_latency(&self, rng: &mut SimRng) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        if !self.jitter.is_zero() {
            extra += SimDuration::from_nanos(rng.gen_range(0..=self.jitter.as_nanos()));
        }
        if self.reorder_rate > 0.0 && rng.chance(self.reorder_rate) {
            extra += self.reorder_delay;
        }
        extra
    }

    /// Samples whether one packet is duplicated.
    pub fn duplicates(&self, rng: &mut SimRng) -> bool {
        self.duplicate_rate > 0.0 && rng.chance(self.duplicate_rate)
    }
}

impl Default for LinkCondition {
    fn default() -> Self {
        LinkCondition::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_conditioner_draws_nothing() {
        let c = LinkCondition::none();
        assert!(c.is_noop());
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        assert_eq!(c.extra_latency(&mut a), SimDuration::ZERO);
        assert!(!c.duplicates(&mut a));
        // The conditioned RNG is still in lock-step with an untouched one.
        assert_eq!(a.gen_f64(), b.gen_f64());
    }

    #[test]
    fn jitter_is_bounded() {
        let c = LinkCondition::none().with_jitter(SimDuration::from_millis(5));
        let mut rng = SimRng::new(42);
        for _ in 0..1000 {
            let extra = c.extra_latency(&mut rng);
            assert!(extra <= SimDuration::from_millis(5));
        }
    }

    #[test]
    fn reorder_adds_fixed_delay() {
        let c = LinkCondition {
            reorder_rate: 1.0,
            reorder_delay: SimDuration::from_millis(40),
            ..LinkCondition::none()
        };
        let mut rng = SimRng::new(42);
        assert_eq!(c.extra_latency(&mut rng), SimDuration::from_millis(40));
    }

    #[test]
    fn burst_model_produces_runs() {
        // enter 5%, exit 25%, loss 100% in the bad state: losses come in runs of ~4.
        let b = BurstLoss::new(0.05, 0.25, 1.0);
        let mut rng = SimRng::new(2006);
        let mut bad = false;
        let losses: Vec<bool> = (0..20_000).map(|_| b.step(&mut bad, &mut rng)).collect();
        let total = losses.iter().filter(|&&l| l).count();
        // Stationary bad-state share is enter/(enter+exit) = 1/6 ≈ 16.7%.
        assert!((2000..5000).contains(&total), "losses={total}");
        // Count maximal loss runs; mean run length must exceed 2 (uniform loss would give ~1.2).
        let mut runs = 0;
        let mut prev = false;
        for &l in &losses {
            if l && !prev {
                runs += 1;
            }
            prev = l;
        }
        let mean_run = total as f64 / runs as f64;
        assert!(mean_run > 2.0, "mean run {mean_run}");
    }

    #[test]
    fn burst_state_advances_before_sampling() {
        // exit = 1: the chain leaves the bad state before sampling, so nothing drops even
        // from a bad start.
        let b = BurstLoss::new(0.0, 1.0, 1.0);
        let mut rng = SimRng::new(1);
        let mut bad = true;
        assert!(!b.step(&mut bad, &mut rng));
        assert!(!bad);
    }

    #[test]
    fn duplication_rate_respected() {
        let c = LinkCondition {
            duplicate_rate: 0.3,
            ..LinkCondition::none()
        };
        let mut rng = SimRng::new(9);
        let dups = (0..10_000).filter(|_| c.duplicates(&mut rng)).count();
        assert!((2700..3300).contains(&dups), "dups={dups}");
    }
}
