//! Sender-side wire tampering and application-level misbehavior flags.
//!
//! This module holds the *plain data* half of the adversary subsystem: what a hostile node does
//! to the frames it sends ([`TamperSpec`]) and which application-level deviations its protocol
//! logic applies ([`Misbehavior`]). The policy half — the table of named behaviors that
//! fills these structs in — lives in the core crate's `adversary` module, so hostile *code*
//! never sits inside honest protocol paths; the data plane only ever sees inert flag structs.
//!
//! Tampering is entirely sender-side and envelope-only: a tamper point may swallow, duplicate
//! or delay a fresh outbound frame, but it never forges traffic on behalf of another node and
//! never touches the receive path. With no tamper point installed the data plane draws zero
//! extra randomness and executes the exact frozen event sequence of an honest run.

use p2plab_sim::{SimDuration, SimRng};

/// What a byzantine node's tamper point does to each fresh frame it transmits.
///
/// All rates are per-frame probabilities drawn from the node's own split RNG stream (never the
/// simulation's global stream), so adversarial runs stay byte-reproducible and shard-safe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TamperSpec {
    /// Probability a fresh frame is silently swallowed before it reaches the wire.
    pub drop_rate: f64,
    /// Probability an extra copy of a duplicable frame is injected right behind the original.
    pub duplicate_rate: f64,
    /// Fixed extra delay added to every fresh frame (reply withholding / slowloris-style
    /// stalling). Envelope-only: the frame still crosses the wire with honest timing after the
    /// hold, so conservative-lookahead sharding stays sound.
    pub delay: SimDuration,
}

impl TamperSpec {
    /// A spec that changes nothing.
    pub const fn none() -> TamperSpec {
        TamperSpec {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay: SimDuration::ZERO,
        }
    }

    /// True if this spec would never alter any frame.
    pub fn is_noop(&self) -> bool {
        self.drop_rate <= 0.0 && self.duplicate_rate <= 0.0 && self.delay.is_zero()
    }

    /// Folds another spec into this one (rates saturate at 1, delays add).
    pub fn stack(&mut self, other: TamperSpec) {
        self.drop_rate = (self.drop_rate + other.drop_rate).min(1.0);
        self.duplicate_rate = (self.duplicate_rate + other.duplicate_rate).min(1.0);
        self.delay += other.delay;
    }
}

impl Default for TamperSpec {
    fn default() -> Self {
        TamperSpec::none()
    }
}

/// Application-level deviations a byzantine node's protocol logic applies.
///
/// Each flag is consulted by the workload's protocol code at a single decision point; honest
/// nodes carry the all-`false` default and take the exact honest code path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Misbehavior {
    /// Never answer data requests (ack/serve withholding — a free-rider).
    pub withhold_serves: bool,
    /// Advertise a garbage (all-set) bitfield / inflated inventory instead of real holdings.
    pub garbage_advertise: bool,
    /// Serve corrupted payloads: data that fails the receiver's integrity check.
    pub corrupt_data: bool,
    /// Give different (rotated / fabricated) answers to different askers.
    pub equivocate: bool,
    /// Receive protocol traffic normally but never forward it on (gossip suppression).
    pub suppress_forward: bool,
}

impl Misbehavior {
    /// Folds another set of flags into this one.
    pub fn stack(&mut self, other: Misbehavior) {
        self.withhold_serves |= other.withhold_serves;
        self.garbage_advertise |= other.garbage_advertise;
        self.corrupt_data |= other.corrupt_data;
        self.equivocate |= other.equivocate;
        self.suppress_forward |= other.suppress_forward;
    }
}

/// Per-node tamper state installed on the network: the spec plus the node's own RNG stream.
#[derive(Debug, Clone)]
pub struct TamperState {
    /// What to do to each fresh frame.
    pub spec: TamperSpec,
    /// The node's private randomness (split off the adversary seed, never the global stream).
    pub rng: SimRng,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_detection() {
        assert!(TamperSpec::none().is_noop());
        assert!(TamperSpec::default().is_noop());
        let mut s = TamperSpec::none();
        s.drop_rate = 0.1;
        assert!(!s.is_noop());
        let mut s = TamperSpec::none();
        s.delay = SimDuration::from_millis(5);
        assert!(!s.is_noop());
    }

    #[test]
    fn stacking_saturates_rates_and_adds_delays() {
        let mut a = TamperSpec {
            drop_rate: 0.7,
            duplicate_rate: 0.2,
            delay: SimDuration::from_millis(10),
        };
        a.stack(TamperSpec {
            drop_rate: 0.6,
            duplicate_rate: 0.1,
            delay: SimDuration::from_millis(5),
        });
        assert_eq!(a.drop_rate, 1.0);
        assert!((a.duplicate_rate - 0.3).abs() < 1e-12);
        assert_eq!(a.delay, SimDuration::from_millis(15));
    }

    #[test]
    fn misbehavior_defaults_honest_and_stacks() {
        let mut m = Misbehavior::default();
        assert_eq!(m, Misbehavior::default());
        m.stack(Misbehavior {
            withhold_serves: true,
            ..Misbehavior::default()
        });
        assert_ne!(m, Misbehavior::default());
        assert!(m.withhold_serves && !m.corrupt_data);
    }
}
