//! The adversary subsystem: byzantine peers, wire-level fault injection and invariant
//! monitors.
//!
//! Real deployments of the paper's framework are only as trustworthy as their worst
//! participant, so the scenario layer can mark a subset of a workload's population byzantine
//! and assert that honest nodes still get what the protocol promises them. The subsystem has
//! three parts:
//!
//! * [`BEHAVIORS`] — the table of composable, named misbehavior policies ([`behaviors`]): ack
//!   withholding, garbage bitfields, corrupted replies, silent frame dropping, reply delay,
//!   duplicate amplification and equivocation. Behaviors fold into two inert flag structs — the
//!   wire-level [`TamperSpec`] consumed by the data plane's sender-side tamper point and the
//!   application-level [`Misbehavior`] flags consumed by workload protocol code.
//! * [`AdversaryPlan`] — the scenario-level assignment: which fraction (or explicit set) of
//!   the population misbehaves, and how. Surfaced in the DSL as `[adversary]` and sweepable as
//!   a campaign matrix axis. [`AdversaryPlan::resolve`] turns a plan into an
//!   [`AdversaryRoster`] deterministically from the scenario seed.
//! * [`InvariantReport`] — what a workload's invariant monitor hands back after an adversarial
//!   run: honest-node safety checks (completion, delivery, convergence — never magic values)
//!   plus the `byzantine_msgs_sent` tally, recorded into the run's metric set by the runner.
//!
//! Determinism contract: roster selection draws only from
//! `SimRng::new(seed).split("scenario-adversary")`; each byzantine node's wire tampering draws
//! only from its own [`AdversaryRoster::wire_rng`] stream. An honest run (no plan, or an
//! all-noop plan) installs nothing and draws zero extra randomness — the frozen event
//! sequences of the paper's figure pins are untouched.

pub mod behaviors;

pub use behaviors::BEHAVIORS;

use crate::scenario::dsl::{DslError, Keys, Named};
use p2plab_net::{Misbehavior, TamperSpec};
use p2plab_sim::SimRng;

/// How an [`AdversaryPlan`] picks which participants misbehave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// A deterministic shuffle of the population keyed by the scenario seed (the default).
    Random,
    /// The first `round(fraction * population)` indices — handy for hand-reasoned tests.
    First,
    /// An explicit list of participant indices; `fraction` is ignored.
    Trace(Vec<usize>),
}

impl Selection {
    /// The DSL keyword for this selection mode.
    pub fn keyword(&self) -> &'static str {
        match self {
            Selection::Random => "random",
            Selection::First => "first",
            Selection::Trace(_) => "trace",
        }
    }
}

/// The names a scenario file spells the modes by. `"trace"` names the mode only; its indices
/// are the `trace` key's.
impl Named for Selection {
    const WHAT: &'static str = "selection mode";
    fn names() -> Vec<(&'static str, Selection)> {
        [
            Selection::Random,
            Selection::First,
            Selection::Trace(Vec::new()),
        ]
        .map(|mode| (mode.keyword(), mode))
        .into()
    }
}

/// The scenario-level adversary assignment: who misbehaves, and how.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryPlan {
    /// Fraction of the workload's adversary population to mark byzantine (rounded to the
    /// nearest whole participant). Ignored by [`Selection::Trace`].
    pub fraction: f64,
    /// Names of the [`BEHAVIORS`] every byzantine node runs, folded together.
    pub behaviors: Vec<String>,
    /// How the byzantine subset is chosen.
    pub selection: Selection,
}

impl AdversaryPlan {
    /// A plan marking a random `fraction` of the population with the given behaviors.
    pub fn new(fraction: f64, behaviors: &[&str]) -> AdversaryPlan {
        AdversaryPlan {
            fraction,
            behaviors: behaviors.iter().map(|s| s.to_string()).collect(),
            selection: Selection::Random,
        }
    }

    /// The `[adversary]` keys of a scenario file; absent ones keep [`AdversaryPlan::new`]'s
    /// defaults. `trace` exists under `selection = "trace"` only.
    pub(crate) fn keys(k: &mut Keys, plan: &mut AdversaryPlan) -> Result<(), DslError> {
        k.opt("fraction", &mut plan.fraction)?;
        k.req("behaviors", &mut plan.behaviors)?;
        k.opt("selection", &mut plan.selection)?;
        if let Selection::Trace(picks) = &mut plan.selection {
            k.req("trace", picks)?;
        }
        plan.validate().map_err(|reason| k.error("", reason))
    }

    /// Checks the plan is well-formed: a finite fraction in `[0, 1]` and a non-empty list of
    /// known behavior names.
    pub fn validate(&self) -> Result<(), String> {
        if !self.fraction.is_finite() || !(0.0..=1.0).contains(&self.fraction) {
            return Err(format!(
                "adversary fraction must be in [0, 1], got {}",
                self.fraction
            ));
        }
        if self.behaviors.is_empty() {
            return Err("adversary plan lists no behaviors".to_string());
        }
        self.folded()?;
        if let Selection::Trace(indices) = &self.selection {
            if indices.is_empty() {
                return Err("adversary trace selection lists no indices".to_string());
            }
        }
        Ok(())
    }

    /// Folds the listed behaviors' contributions together; an unknown name is the error.
    fn folded(&self) -> Result<(TamperSpec, Misbehavior), String> {
        let mut folded = (TamperSpec::none(), Misbehavior::default());
        for name in &self.behaviors {
            let Some((_, wire, app)) = BEHAVIORS.iter().find(|(known, ..)| known == name) else {
                let known: Vec<&str> = BEHAVIORS.iter().map(|b| b.0).collect();
                return Err(format!(
                    "unknown adversary behavior {name:?} (known: {})",
                    known.join(", ")
                ));
            };
            folded.0.stack(*wire);
            folded.1.stack(*app);
        }
        Ok(folded)
    }

    /// Resolves the plan against a concrete population, deterministically from the scenario
    /// seed. Returns `Ok(None)` when the plan selects nobody (fraction rounds to zero) — the
    /// run is then exactly an honest run.
    pub fn resolve(&self, seed: u64, population: usize) -> Result<Option<AdversaryRoster>, String> {
        self.validate()?;
        let (tamper, flags) = self.folded()?;
        let members = match &self.selection {
            Selection::Trace(indices) => {
                let mut members = indices.clone();
                members.sort_unstable();
                members.dedup();
                if let Some(&bad) = members.iter().find(|&&i| i >= population) {
                    return Err(format!(
                        "adversary trace index {bad} out of range (population {population})"
                    ));
                }
                members
            }
            selection => {
                let count = ((self.fraction * population as f64).round() as usize).min(population);
                match selection {
                    Selection::First => (0..count).collect(),
                    Selection::Random => {
                        let mut all: Vec<usize> = (0..population).collect();
                        SimRng::new(seed)
                            .split("scenario-adversary")
                            .shuffle(&mut all);
                        all.truncate(count);
                        all.sort_unstable();
                        all
                    }
                    Selection::Trace(_) => unreachable!("handled above"),
                }
            }
        };
        if members.is_empty() {
            return Ok(None);
        }
        Ok(Some(AdversaryRoster {
            seed,
            members,
            tamper,
            flags,
        }))
    }
}

/// A plan resolved against a concrete population: the byzantine member set plus the folded
/// flag structs every member runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryRoster {
    seed: u64,
    /// Byzantine participant indices, sorted ascending.
    members: Vec<usize>,
    /// The folded wire-level tampering every member applies.
    pub tamper: TamperSpec,
    /// The folded application-level deviations every member applies.
    pub flags: Misbehavior,
}

impl AdversaryRoster {
    /// The byzantine participant indices, sorted ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of byzantine participants.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if nobody is byzantine (never constructed by [`AdversaryPlan::resolve`], which
    /// returns `None` instead, but callers may build empty rosters in tests).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether participant `idx` is byzantine.
    pub fn contains(&self, idx: usize) -> bool {
        self.members.binary_search(&idx).is_ok()
    }

    /// The private wire-tampering RNG stream of member `idx`: split off the scenario seed by
    /// member index, so adversarial draws never perturb (and are never perturbed by) the
    /// simulation's global stream.
    pub fn wire_rng(&self, idx: usize) -> SimRng {
        SimRng::new(self.seed)
            .split("adversary-wire")
            .split_u64(idx as u64)
    }
}

/// What an invariant monitor observed over one adversarial run: per-check pass/fail plus the
/// byzantine traffic tally. The runner records `invariants_checked`, `invariant_violations`
/// and `byzantine_msgs_sent` from this into the run's metric set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Number of individual invariant checks performed.
    pub checked: u64,
    /// Human-readable description of each violated invariant (empty on a clean run).
    pub violations: Vec<String>,
    /// Messages sent by byzantine participants (frames for socket-stack workloads, protocol
    /// messages for shard-native ones).
    pub byzantine_msgs_sent: u64,
}

impl InvariantReport {
    /// An empty report (nothing checked yet).
    pub fn new() -> InvariantReport {
        InvariantReport::default()
    }

    /// Performs one invariant check: counts it, and records `describe()` when `ok` is false.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.violations.push(describe());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(fraction: f64) -> AdversaryPlan {
        AdversaryPlan::new(fraction, &["silent-drop", "ack-withhold"])
    }

    #[test]
    fn resolve_is_deterministic_and_sorted() {
        let a = plan(0.25).resolve(42, 100).unwrap().unwrap();
        let b = plan(0.25).resolve(42, 100).unwrap().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        assert!(a.members().windows(2).all(|w| w[0] < w[1]));
        let c = plan(0.25).resolve(43, 100).unwrap().unwrap();
        assert_ne!(a.members(), c.members(), "seed must steer selection");
    }

    #[test]
    fn fraction_zero_resolves_to_nobody() {
        assert!(plan(0.0).resolve(42, 100).unwrap().is_none());
        // A fraction that rounds to zero members is also an honest run.
        assert!(plan(0.004).resolve(42, 100).unwrap().is_none());
    }

    #[test]
    fn first_selection_takes_a_prefix() {
        let mut p = plan(0.5);
        p.selection = Selection::First;
        let r = p.resolve(7, 8).unwrap().unwrap();
        assert_eq!(r.members(), &[0, 1, 2, 3]);
    }

    #[test]
    fn trace_selection_is_explicit_and_bounds_checked() {
        let mut p = plan(0.0);
        p.selection = Selection::Trace(vec![5, 2, 5]);
        let r = p.resolve(7, 8).unwrap().unwrap();
        assert_eq!(r.members(), &[2, 5]);
        p.selection = Selection::Trace(vec![8]);
        assert!(p.resolve(7, 8).is_err());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(plan(1.5).validate().is_err());
        assert!(plan(f64::NAN).validate().is_err());
        assert!(AdversaryPlan::new(0.2, &[]).validate().is_err());
        assert!(AdversaryPlan::new(0.2, &["nonsense"]).validate().is_err());
        assert!(plan(1.0).validate().is_ok());
    }

    #[test]
    fn roster_folds_behaviors_and_splits_wire_streams() {
        let r = plan(0.5).resolve(3, 10).unwrap().unwrap();
        assert!(r.flags.withhold_serves && r.flags.suppress_forward);
        assert!(r.tamper.drop_rate > 0.0);
        let mut a = r.wire_rng(0);
        let mut b = r.wire_rng(1);
        assert_ne!(
            a.gen_range(0..u64::MAX),
            b.gen_range(0..u64::MAX),
            "members own independent streams"
        );
        let mut a2 = r.wire_rng(0);
        assert_eq!(
            r.wire_rng(0).gen_range(0..u64::MAX),
            a2.gen_range(0..u64::MAX)
        );
    }

    #[test]
    fn invariant_report_counts_and_records() {
        let mut rep = InvariantReport::new();
        rep.check(true, || unreachable!("passing checks never describe"));
        rep.check(false, || "leecher 3 incomplete".to_string());
        assert_eq!(rep.checked, 2);
        assert!(!rep.violations.is_empty());
        assert_eq!(rep.violations, vec!["leecher 3 incomplete".to_string()]);
    }
}
