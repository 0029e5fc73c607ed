//! Generic arrival and session (churn) processes for the scenario layer.
//!
//! The paper's methodology stands or falls with the dynamics an experiment can reproduce: how
//! participants *arrive* (a steady trickle, a flash crowd hitting a tracker, a measured trace)
//! and how they *stay* (exponential sessions, heavy-tailed Pareto sessions, replayed on/off
//! traces). Before this module every workload re-derived both by hand; now the scenario layer
//! owns them and hands each workload a concrete schedule:
//!
//! * [`ArrivalSpec`] is the serializable description stored in a
//!   [`ScenarioSpec`](crate::scenario::ScenarioSpec) — Poisson, uniform ramp, flash crowd or a
//!   replayed trace — turned into a concrete, sorted [`ArrivalSchedule`] by
//!   [`run_scenario`](crate::scenario::run_scenario) (one arrival per participant, drawn from
//!   a dedicated RNG stream so arrival sampling never perturbs the simulation's other draws);
//! * [`SessionProcess`] describes churn: exponential on/off sessions, Pareto heavy-tailed
//!   sessions, or a trace of `(session, downtime)` pairs replayed cyclically.
//!
//! **Convention:** arrival and churn schedules come from the scenario layer; workloads consume
//! them through [`Workload::schedule_arrivals`](crate::scenario::Workload::schedule_arrivals)
//! and the runner's depart/rejoin chain ([`Workload::depart`](crate::scenario::Workload::depart),
//! [`Workload::rejoin`](crate::scenario::Workload::rejoin)) — they do not re-derive them.

use crate::scenario::dsl::{DslError, Keys, Kinds};
use p2plab_sim::{SimDuration, SimRng, SimTime};

/// Serializable description of an arrival process, stored in a
/// [`ScenarioSpec`](crate::scenario::ScenarioSpec) and turned into a concrete
/// [`ArrivalSchedule`] by the runner.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Poisson arrivals: independent exponential inter-arrival gaps at `rate` arrivals/second
    /// from time zero — the memoryless steady-state arrival model.
    Poisson {
        /// Arrivals per second.
        rate: f64,
    },
    /// Uniform ramp: first arrival at `start`, one more every `interval` (deterministic) — the
    /// staggered start of the paper's BitTorrent experiments (one client every 10 s in Figure 8).
    UniformRamp {
        /// When the first participant arrives.
        start: SimDuration,
        /// Spacing between consecutive arrivals.
        interval: SimDuration,
    },
    /// Flash crowd: a Poisson trickle until `trigger` (the moment the torrent site posts the
    /// link), then a Poisson burst at the much higher `burst_rate`.
    FlashCrowd {
        /// Arrivals per second before the trigger.
        trickle_rate: f64,
        /// The instant the crowd hits.
        trigger: SimDuration,
        /// Arrivals per second after the trigger.
        burst_rate: f64,
    },
    /// Trace-driven: replay these arrival offsets exactly. The trace must provide at least as
    /// many entries as the workload has participants.
    Trace {
        /// Arrival offsets from scenario start, non-decreasing.
        times: Vec<SimDuration>,
    },
}

impl ArrivalSpec {
    /// The `arrivals.kind` names of a scenario file. Every key is required, so the blanks'
    /// zeros are never seen; the ramp's `start` is no key, so a file's ramp starts at time zero
    /// (the swarm's default ramp sets it from Rust).
    pub(crate) const KINDS: &'static Kinds<ArrivalSpec> = &[
        ("poisson", || ArrivalSpec::poisson(0.0)),
        ("ramp", || {
            ArrivalSpec::ramp(SimDuration::ZERO, SimDuration::ZERO)
        }),
        ("flash-crowd", || {
            ArrivalSpec::flash_crowd(0.0, SimDuration::ZERO, 0.0)
        }),
        ("trace", || ArrivalSpec::trace(Vec::new())),
    ];

    /// `[arrivals]`: `kind`, and next to it the selected kind's keys.
    pub(crate) fn section(k: &mut Keys, arrivals: &mut ArrivalSpec) -> Result<(), DslError> {
        k.tagged("arrival", arrivals, Self::KINDS, false, Self::keys)
    }

    /// The `[arrivals]` keys of whichever kind this is.
    fn keys(k: &mut Keys, arrivals: &mut ArrivalSpec) -> Result<(), DslError> {
        match arrivals {
            ArrivalSpec::Poisson { rate } => k.req("rate", rate)?,
            ArrivalSpec::UniformRamp { interval, .. } => k.req("interval", interval)?,
            ArrivalSpec::FlashCrowd {
                trickle_rate,
                trigger,
                burst_rate,
            } => {
                k.req("trickle_rate", trickle_rate)?;
                k.req("trigger", trigger)?;
                k.req("burst_rate", burst_rate)?
            }
            ArrivalSpec::Trace { times } => k.req("times", times)?,
        };
        Ok(())
    }

    /// Poisson arrivals at `rate` arrivals/second.
    pub fn poisson(rate: f64) -> ArrivalSpec {
        ArrivalSpec::Poisson { rate }
    }

    /// A deterministic ramp starting at `start` with one arrival per `interval`.
    pub fn ramp(start: SimDuration, interval: SimDuration) -> ArrivalSpec {
        ArrivalSpec::UniformRamp { start, interval }
    }

    /// A flash crowd: `trickle_rate`/s before `trigger`, `burst_rate`/s after.
    pub fn flash_crowd(trickle_rate: f64, trigger: SimDuration, burst_rate: f64) -> ArrivalSpec {
        ArrivalSpec::FlashCrowd {
            trickle_rate,
            trigger,
            burst_rate,
        }
    }

    /// Trace-driven arrivals replaying `times` exactly.
    pub fn trace(times: Vec<SimDuration>) -> ArrivalSpec {
        ArrivalSpec::Trace { times }
    }

    /// Checks the description's internal consistency (finite positive rates, sorted traces).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ArrivalSpec::Poisson { rate } => {
                if !(rate.is_finite() && *rate > 0.0) {
                    return Err(format!(
                        "Poisson arrival rate must be finite and positive, got {rate}"
                    ));
                }
            }
            ArrivalSpec::UniformRamp { .. } => {}
            ArrivalSpec::FlashCrowd {
                trickle_rate,
                burst_rate,
                ..
            } => {
                if !(trickle_rate.is_finite() && *trickle_rate > 0.0) {
                    return Err(format!(
                        "flash-crowd trickle rate must be finite and positive, got {trickle_rate}"
                    ));
                }
                if !(burst_rate.is_finite() && *burst_rate > 0.0) {
                    return Err(format!(
                        "flash-crowd burst rate must be finite and positive, got {burst_rate}"
                    ));
                }
            }
            ArrivalSpec::Trace { times } => {
                if times.windows(2).any(|w| w[0] > w[1]) {
                    return Err("arrival trace must be sorted in non-decreasing order".into());
                }
            }
        }
        Ok(())
    }

    /// Draws a concrete schedule of exactly `participants` arrivals, in non-decreasing order;
    /// the same seed replays the same crowd. Fails when a trace is shorter than the participant
    /// count — arrival processes conserve participants, they never invent or drop them.
    pub fn schedule(
        &self,
        participants: usize,
        rng: &mut SimRng,
    ) -> Result<ArrivalSchedule, String> {
        self.validate()?;
        // One exponential inter-arrival gap at `rate` arrivals per second.
        let gap =
            |rng: &mut SimRng, rate: f64| SimDuration::from_secs_f64(rng.exponential(1.0 / rate));
        let mut clock = SimTime::ZERO;
        let times = match self {
            ArrivalSpec::Poisson { rate } => (0..participants)
                .map(|_| {
                    clock += gap(rng, *rate);
                    clock
                })
                .collect(),
            // Deterministic: draws nothing from the RNG.
            ArrivalSpec::UniformRamp { start, interval } => {
                clock += *start;
                (0..participants)
                    .map(|_| {
                        let at = clock;
                        clock += *interval;
                        at
                    })
                    .collect()
            }
            // Every participant still arrives exactly once — the burst changes *when*, not
            // *how many*.
            ArrivalSpec::FlashCrowd {
                trickle_rate,
                trigger,
                burst_rate,
            } => {
                let trigger = SimTime::ZERO + *trigger;
                let mut bursting = false;
                (0..participants)
                    .map(|_| {
                        if !bursting {
                            let candidate = clock + gap(rng, *trickle_rate);
                            if candidate < trigger {
                                clock = candidate;
                                return candidate;
                            }
                            // The trickle draw crossed the trigger; by memorylessness the
                            // remainder can be discarded and the burst clock starts at the
                            // trigger itself.
                            bursting = true;
                            clock = trigger;
                        }
                        clock += gap(rng, *burst_rate);
                        clock
                    })
                    .collect()
            }
            ArrivalSpec::Trace { times } => {
                let drawn = times.len();
                if drawn < participants {
                    return Err(format!(
                        "arrival process is exhausted after {drawn} arrivals but the workload has {participants} participants"
                    ));
                }
                let replayed = times[..participants].iter();
                replayed.map(|&offset| SimTime::ZERO + offset).collect()
            }
        };
        Ok(ArrivalSchedule { times })
    }
}

/// A concrete, non-decreasing list of arrival instants — one per participant — produced from an
/// [`ArrivalSpec`] and handed to the workload by the runner.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSchedule {
    times: Vec<SimTime>,
}

impl ArrivalSchedule {
    /// The arrival instants, in non-decreasing order; participant `k` arrives at `times()[k]`.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no arrivals are scheduled.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Arrival instant of participant `k`, if scheduled.
    pub fn get(&self, k: usize) -> Option<SimTime> {
        self.times.get(k).copied()
    }

    /// The last arrival instant, if any.
    pub fn last(&self) -> Option<SimTime> {
        self.times.last().copied()
    }

    /// How long the arrival ramp lasts: the offset of the last arrival from scenario start.
    pub fn ramp(&self) -> SimDuration {
        self.last().map_or(SimDuration::ZERO, |t| t - SimTime::ZERO)
    }
}

/// On/off session process: how long a participant stays online before departing, and how long
/// it stays away before rejoining.
///
/// Draws are indexed by the participant's session number `k` so that trace-driven processes
/// can replay deterministically per node while the randomized variants simply ignore `k`.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionProcess {
    /// Exponential sessions and downtimes — the memoryless model.
    Exponential {
        /// Mean online-session duration.
        mean_session: SimDuration,
        /// Mean offline duration between sessions.
        mean_downtime: SimDuration,
    },
    /// Pareto heavy-tailed sessions (most sessions short, a few very long — the shape measured
    /// in real P2P deployments) with exponential downtimes.
    Pareto {
        /// Minimum session length (the Pareto scale parameter).
        scale_session: SimDuration,
        /// Pareto tail index; must exceed 1 so the mean session is finite.
        shape: f64,
        /// Mean offline duration between sessions.
        mean_downtime: SimDuration,
    },
    /// Trace-driven on/off sessions: `(session, downtime)` pairs replayed cyclically — a
    /// node's `k`-th session uses entry `k % len`.
    Trace {
        /// The replayed `(session, downtime)` pairs.
        pairs: Vec<(SimDuration, SimDuration)>,
    },
}

impl SessionProcess {
    /// The `sessions.kind` names of a scenario file. Every key is required, so the blanks'
    /// zeros are never seen.
    pub(crate) const KINDS: &'static Kinds<SessionProcess> = &[
        ("exponential", || SessionProcess::Exponential {
            mean_session: SimDuration::ZERO,
            mean_downtime: SimDuration::ZERO,
        }),
        ("pareto", || SessionProcess::Pareto {
            scale_session: SimDuration::ZERO,
            shape: 0.0,
            mean_downtime: SimDuration::ZERO,
        }),
        ("trace", || SessionProcess::Trace { pairs: Vec::new() }),
    ];

    /// `[sessions]`: `kind`, and next to it the selected kind's keys.
    pub(crate) fn section(k: &mut Keys, sessions: &mut SessionProcess) -> Result<(), DslError> {
        k.tagged("session", sessions, Self::KINDS, false, Self::keys)
    }

    /// The `[sessions]` keys of whichever kind this is.
    fn keys(k: &mut Keys, sessions: &mut SessionProcess) -> Result<(), DslError> {
        match sessions {
            SessionProcess::Exponential {
                mean_session,
                mean_downtime,
            } => {
                k.req("mean_session", mean_session)?;
                k.req("mean_downtime", mean_downtime)?
            }
            SessionProcess::Pareto {
                scale_session,
                shape,
                mean_downtime,
            } => {
                k.req("scale_session", scale_session)?;
                k.req("shape", shape)?;
                k.req("mean_downtime", mean_downtime)?
            }
            SessionProcess::Trace { pairs } => k.req("pairs", pairs)?,
        };
        Ok(())
    }

    /// Checks the description's internal consistency. Degenerate inputs — zero means, a
    /// non-finite or sub-critical Pareto shape, zero-length trace entries — are exactly the
    /// configurations that livelock the simulator by spinning depart/rejoin events at a single
    /// instant, so they are rejected here rather than discovered at run time.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SessionProcess::Exponential {
                mean_session,
                mean_downtime,
            } => {
                if mean_session.is_zero() {
                    return Err("mean session duration must be positive".into());
                }
                if mean_downtime.is_zero() {
                    return Err("mean downtime must be positive".into());
                }
            }
            SessionProcess::Pareto {
                scale_session,
                shape,
                mean_downtime,
            } => {
                if scale_session.is_zero() {
                    return Err("Pareto session scale must be positive".into());
                }
                if !(shape.is_finite() && *shape > 1.0) {
                    return Err(format!(
                        "Pareto shape must be finite and > 1 for a finite mean session, got {shape}"
                    ));
                }
                if mean_downtime.is_zero() {
                    return Err("mean downtime must be positive".into());
                }
            }
            SessionProcess::Trace { pairs } => {
                if pairs.is_empty() {
                    return Err("session trace must not be empty".into());
                }
                if pairs.iter().any(|(s, d)| s.is_zero() || d.is_zero()) {
                    return Err("session trace entries must all be positive".into());
                }
            }
        }
        Ok(())
    }

    /// The expected online-session duration of this process.
    pub fn mean_session(&self) -> SimDuration {
        match self {
            SessionProcess::Exponential { mean_session, .. } => *mean_session,
            SessionProcess::Pareto {
                scale_session,
                shape,
                ..
            } => scale_session.mul_f64(shape / (shape - 1.0)),
            SessionProcess::Trace { pairs } => {
                let total: u64 = pairs.iter().map(|(s, _)| s.as_nanos()).sum();
                SimDuration::from_nanos(total / pairs.len().max(1) as u64)
            }
        }
    }

    /// Length of a participant's `k`-th online session.
    pub fn session_at(&self, k: usize, rng: &mut SimRng) -> SimDuration {
        match self {
            SessionProcess::Exponential { mean_session, .. } => {
                SimDuration::from_secs_f64(rng.exponential(mean_session.as_secs_f64()))
            }
            SessionProcess::Pareto {
                scale_session,
                shape,
                ..
            } => SimDuration::from_secs_f64(rng.pareto(scale_session.as_secs_f64(), *shape)),
            SessionProcess::Trace { pairs } => pairs[k % pairs.len()].0,
        }
    }

    /// Length of the offline period after a participant's `k`-th session.
    pub fn downtime_at(&self, k: usize, rng: &mut SimRng) -> SimDuration {
        match self {
            SessionProcess::Exponential { mean_downtime, .. }
            | SessionProcess::Pareto { mean_downtime, .. } => {
                SimDuration::from_secs_f64(rng.exponential(mean_downtime.as_secs_f64()))
            }
            SessionProcess::Trace { pairs } => pairs[k % pairs.len()].1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    #[test]
    fn ramp_is_exact_and_deterministic() {
        let spec = ArrivalSpec::ramp(SimDuration::from_secs(5), SimDuration::from_secs(2));
        let s = spec.schedule(4, &mut rng()).unwrap();
        let expect: Vec<SimTime> = (0..4).map(|k| SimTime::from_secs(5 + 2 * k)).collect();
        assert_eq!(s.times(), expect.as_slice());
        assert_eq!(s.ramp(), SimDuration::from_secs(11));
        assert_eq!(s.get(2), Some(SimTime::from_secs(9)));
    }

    #[test]
    fn poisson_gaps_have_the_configured_mean() {
        let spec = ArrivalSpec::poisson(2.0); // 2 arrivals per second
        let n = 20_000;
        let s = spec.schedule(n, &mut rng()).unwrap();
        assert_eq!(s.len(), n);
        assert!(s.times().windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = s.last().unwrap().as_secs_f64() / n as f64;
        assert!((mean_gap - 0.5).abs() < 0.02, "mean gap {mean_gap}");
    }

    #[test]
    fn flash_crowd_bursts_after_the_trigger() {
        let trigger = SimDuration::from_secs(100);
        let spec = ArrivalSpec::flash_crowd(0.1, trigger, 100.0);
        let n = 500;
        let s = spec.schedule(n, &mut rng()).unwrap();
        assert_eq!(s.len(), n, "the crowd conserves the participant count");
        let before = s
            .times()
            .iter()
            .filter(|&&t| t < SimTime::ZERO + trigger)
            .count();
        // The trickle contributes ~10 arrivals in 100 s; the other ~490 land in the burst,
        // which at 100/s is over within a handful of seconds.
        assert!(before < 50, "only the trickle arrives early, got {before}");
        assert!(s.ramp() < SimDuration::from_secs(130), "burst drains fast");
    }

    #[test]
    fn trace_replays_exactly_and_rejects_shortfall() {
        let offsets = vec![
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            SimDuration::from_secs(7),
        ];
        let spec = ArrivalSpec::trace(offsets.clone());
        let s = spec.schedule(3, &mut rng()).unwrap();
        let expect: Vec<SimTime> = offsets.iter().map(|&d| SimTime::ZERO + d).collect();
        assert_eq!(s.times(), expect.as_slice());
        // Asking for more participants than the trace holds is an error, not an invention.
        assert!(spec.schedule(4, &mut rng()).is_err());
        // Unsorted traces are rejected up front.
        let bad = ArrivalSpec::trace(vec![SimDuration::from_secs(2), SimDuration::from_secs(1)]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn arrival_validation_rejects_degenerate_rates() {
        assert!(ArrivalSpec::poisson(0.0).validate().is_err());
        assert!(ArrivalSpec::poisson(f64::NAN).validate().is_err());
        assert!(
            ArrivalSpec::flash_crowd(0.0, SimDuration::from_secs(1), 1.0)
                .validate()
                .is_err()
        );
        assert!(
            ArrivalSpec::flash_crowd(1.0, SimDuration::from_secs(1), f64::INFINITY)
                .validate()
                .is_err()
        );
    }

    #[test]
    fn exponential_sessions_draw_one_exponential_each() {
        let (mean_session, mean_downtime) =
            (SimDuration::from_secs(90), SimDuration::from_secs(45));
        let sessions = SessionProcess::Exponential {
            mean_session,
            mean_downtime,
        };
        assert_eq!(sessions.mean_session(), mean_session);
        // Byte-identity guard: the process draws exactly what the original inline churn code
        // drew (one rng.exponential per session/downtime, in the same order).
        let mut a = rng();
        let mut b = rng();
        let s = sessions.session_at(0, &mut a);
        let d = sessions.downtime_at(0, &mut a);
        assert_eq!(
            s,
            SimDuration::from_secs_f64(b.exponential(mean_session.as_secs_f64()))
        );
        assert_eq!(
            d,
            SimDuration::from_secs_f64(b.exponential(mean_downtime.as_secs_f64()))
        );
    }

    #[test]
    fn session_trace_replays_cyclically() {
        let pairs = vec![
            (SimDuration::from_secs(10), SimDuration::from_secs(1)),
            (SimDuration::from_secs(20), SimDuration::from_secs(2)),
        ];
        let sessions = SessionProcess::Trace {
            pairs: pairs.clone(),
        };
        let mut r = rng();
        for k in 0..5 {
            assert_eq!(sessions.session_at(k, &mut r), pairs[k % 2].0);
            assert_eq!(sessions.downtime_at(k, &mut r), pairs[k % 2].1);
        }
    }

    #[test]
    fn session_validation_rejects_degenerate_processes() {
        let zero = SessionProcess::Exponential {
            mean_session: SimDuration::ZERO,
            mean_downtime: SimDuration::from_secs(1),
        };
        assert!(zero.validate().is_err());
        let zero_down = SessionProcess::Exponential {
            mean_session: SimDuration::from_secs(1),
            mean_downtime: SimDuration::ZERO,
        };
        assert!(zero_down.validate().is_err());
        let flat_tail = SessionProcess::Pareto {
            scale_session: SimDuration::from_secs(10),
            shape: 1.0,
            mean_downtime: SimDuration::from_secs(1),
        };
        assert!(flat_tail.validate().is_err());
        let nan_tail = SessionProcess::Pareto {
            scale_session: SimDuration::from_secs(10),
            shape: f64::NAN,
            mean_downtime: SimDuration::from_secs(1),
        };
        assert!(nan_tail.validate().is_err());
        assert!(SessionProcess::Trace { pairs: vec![] }.validate().is_err());
        let zero_pair = SessionProcess::Trace {
            pairs: vec![(SimDuration::ZERO, SimDuration::from_secs(1))],
        };
        assert!(zero_pair.validate().is_err());
    }

    #[test]
    fn pareto_sessions_have_the_configured_mean() {
        let sessions = SessionProcess::Pareto {
            scale_session: SimDuration::from_secs(10),
            shape: 3.0,
            mean_downtime: SimDuration::from_secs(5),
        };
        let mut r = rng();
        let n = 30_000;
        let total: f64 = (0..n)
            .map(|k| sessions.session_at(k, &mut r).as_secs_f64())
            .sum();
        let mean = total / n as f64;
        let expected = sessions.mean_session().as_secs_f64();
        assert!((mean - expected).abs() / expected < 0.05, "mean={mean}");
    }

    #[test]
    fn schedules_are_reproducible_from_the_seed() {
        let spec = ArrivalSpec::flash_crowd(1.0, SimDuration::from_secs(30), 50.0);
        let a = spec.schedule(100, &mut SimRng::new(7)).unwrap();
        let b = spec.schedule(100, &mut SimRng::new(7)).unwrap();
        let c = spec.schedule(100, &mut SimRng::new(8)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
