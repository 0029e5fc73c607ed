//! The composable per-node misbehavior catalog.
//!
//! A behavior is a name and the constants it contributes to the two inert flag structs the
//! substrates consume: the wire-level [`TamperSpec`] (sender-side frame drop / duplicate /
//! delay, applied by the data plane's tamper point) and the application-level [`Misbehavior`]
//! flags (consulted by workload protocol code at single decision points). Behaviors compose:
//! an [`AdversaryPlan`](crate::adversary::AdversaryPlan) lists any subset by name and the
//! roster folds their contributions together — rates saturate, delays add, flags or.
//!
//! The catalog is this one table, so hostile policy never sits inside honest protocol paths.
//! The randomness the rates imply (per-frame coin flips) is drawn from each byzantine node's
//! own split RNG stream, never the simulation's global stream, so adversarial runs stay
//! byte-reproducible and shard-safe.

use p2plab_net::{Misbehavior, TamperSpec};
use p2plab_sim::SimDuration;

const QUIET: TamperSpec = TamperSpec::none();
const HONEST: Misbehavior = Misbehavior {
    withhold_serves: false,
    garbage_advertise: false,
    corrupt_data: false,
    equivocate: false,
    suppress_forward: false,
};

/// Every built-in behavior, sorted by name — the vocabulary of the DSL's
/// `[adversary] behaviors = [...]` list — with what it does to the wire and to the protocol.
#[rustfmt::skip]
pub const BEHAVIORS: [(&str, TamperSpec, Misbehavior); 7] = [
    // Never answer data requests: a free-rider that takes and gives nothing back.
    ("ack-withhold", QUIET, Misbehavior { withhold_serves: true, ..HONEST }),
    // Send a quarter of the duplicable outbound frames twice. Reliability layers must
    // deduplicate; the copies still burn bandwidth.
    ("amplify", TamperSpec { duplicate_rate: 0.25, ..QUIET }, HONEST),
    // Serve payloads that fail the receiver's integrity check and must be re-fetched elsewhere.
    ("corrupt-replies", QUIET, Misbehavior { corrupt_data: true, ..HONEST }),
    // Give different answers to different askers: the canonical byzantine fault for
    // lookup/consensus protocols.
    ("equivocate", QUIET, Misbehavior { equivocate: true, ..HONEST }),
    // Advertise an all-set inventory bitfield, attracting requests that can never be served
    // honestly.
    ("garbage-bitfield", QUIET, Misbehavior { garbage_advertise: true, ..HONEST }),
    // Hold every outbound frame for a fixed stall (slowloris-style). Envelope-only: the frame
    // still crosses the wire with honest timing after the hold.
    ("reply-delay", TamperSpec { delay: SimDuration::from_millis(100), ..QUIET }, HONEST),
    // Swallow a quarter of the outbound frames before they reach the wire and suppress
    // application-level forwarding (gossip): the node hears everything and passes on nothing.
    ("silent-drop", TamperSpec { drop_rate: 0.25, ..QUIET },
        Misbehavior { suppress_forward: true, ..HONEST }),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryPlan;

    #[test]
    fn names_are_sorted_and_unique() {
        assert!(BEHAVIORS.windows(2).all(|pair| pair[0].0 < pair[1].0));
    }

    #[test]
    fn behaviors_compose_into_the_flag_structs() {
        let plan = AdversaryPlan::new(
            1.0,
            &["silent-drop", "reply-delay", "amplify", "ack-withhold"],
        );
        let roster = plan.resolve(1, 4).unwrap().unwrap();
        assert_eq!(roster.tamper.drop_rate, 0.25);
        assert_eq!(roster.tamper.duplicate_rate, 0.25);
        assert_eq!(roster.tamper.delay, SimDuration::from_millis(100));
        let flags = roster.flags;
        assert!(flags.withhold_serves && flags.suppress_forward);
        assert!(!flags.corrupt_data && !flags.equivocate && !flags.garbage_advertise);
    }

    #[test]
    fn pure_app_level_behaviors_leave_the_wire_alone() {
        for name in [
            "ack-withhold",
            "garbage-bitfield",
            "corrupt-replies",
            "equivocate",
        ] {
            let (_, wire, app) = BEHAVIORS.iter().find(|b| b.0 == name).expect(name);
            assert!(wire.is_noop(), "{name} must not touch the wire");
            assert_ne!(*app, Misbehavior::default(), "{name} must do something");
        }
    }
}
