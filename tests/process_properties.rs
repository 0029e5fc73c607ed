//! Property-based tests of the scenario layer's arrival and session process library
//! (`p2plab::core::scenario::processes`): randomized processes converge to their configured
//! means, trace-driven processes replay their traces exactly, and every arrival process
//! conserves the participant count.

use p2plab::core::{ArrivalSpec, SessionProcess};
use p2plab::sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Exponential sessions drawn from the generalized process have the configured mean.
    #[test]
    fn exponential_sessions_converge_to_the_mean(mean_secs in 1u64..500, seed in any::<u64>()) {
        let sessions = SessionProcess::Exponential {
            mean_session: SimDuration::from_secs(mean_secs),
            mean_downtime: SimDuration::from_secs(1),
        };
        let mut rng = SimRng::new(seed);
        let n = 4000;
        let total: f64 = (0..n).map(|k| sessions.session_at(k, &mut rng).as_secs_f64()).sum();
        let mean = total / n as f64;
        let expected = mean_secs as f64;
        prop_assert!(
            (mean - expected).abs() / expected < 0.15,
            "empirical mean {mean} vs configured {expected}"
        );
    }

    /// Pareto sessions have the analytic mean scale * shape / (shape - 1) and never undershoot
    /// the scale.
    #[test]
    fn pareto_sessions_converge_to_the_mean(
        scale_secs in 1u64..100,
        shape_tenths in 25u64..60,
        seed in any::<u64>(),
    ) {
        let shape = shape_tenths as f64 / 10.0; // 2.5 .. 6.0: finite mean and variance
        let sessions = SessionProcess::Pareto {
            scale_session: SimDuration::from_secs(scale_secs),
            shape,
            mean_downtime: SimDuration::from_secs(1),
        };
        let mut rng = SimRng::new(seed);
        let n = 6000;
        let draws: Vec<f64> = (0..n).map(|k| sessions.session_at(k, &mut rng).as_secs_f64()).collect();
        prop_assert!(draws.iter().all(|&d| d >= scale_secs as f64 * 0.999));
        let mean = draws.iter().sum::<f64>() / n as f64;
        let expected = scale_secs as f64 * shape / (shape - 1.0);
        prop_assert!(
            (mean - expected).abs() / expected < 0.2,
            "empirical mean {mean} vs analytic {expected} (shape {shape})"
        );
    }

    /// A trace-driven arrival process replays its trace exactly — no reordering, no invention.
    #[test]
    fn arrival_trace_replays_exactly(raw_offsets in prop::collection::vec(0u64..100_000, 1..100)) {
        let mut offsets = raw_offsets;
        offsets.sort_unstable();
        let trace: Vec<SimDuration> = offsets.iter().map(|&ms| SimDuration::from_millis(ms)).collect();
        let spec = ArrivalSpec::trace(trace.clone());
        let schedule = spec.schedule(trace.len(), &mut SimRng::new(1)).unwrap();
        let expected: Vec<SimTime> = trace.iter().map(|&d| SimTime::ZERO + d).collect();
        prop_assert_eq!(schedule.times(), expected.as_slice());
        // Asking for one participant more than the trace holds must fail, not invent arrivals.
        prop_assert!(spec.schedule(trace.len() + 1, &mut SimRng::new(1)).is_err());
    }

    /// A session trace replays cyclically: node session k uses trace entry k mod len.
    #[test]
    fn session_trace_replays_cyclically(
        pairs_ms in prop::collection::vec((1u64..10_000, 1u64..10_000), 1..20),
        k in 0usize..100,
    ) {
        let pairs: Vec<(SimDuration, SimDuration)> = pairs_ms
            .iter()
            .map(|&(s, d)| (SimDuration::from_millis(s), SimDuration::from_millis(d)))
            .collect();
        let sessions = SessionProcess::Trace { pairs: pairs.clone() };
        prop_assert!(sessions.validate().is_ok());
        let mut rng = SimRng::new(3);
        prop_assert_eq!(sessions.session_at(k, &mut rng), pairs[k % pairs.len()].0);
        prop_assert_eq!(sessions.downtime_at(k, &mut rng), pairs[k % pairs.len()].1);
    }

    /// Flash-crowd arrivals conserve the participant count and stay in non-decreasing order,
    /// whatever the rates and trigger.
    #[test]
    fn flash_crowd_conserves_participants(
        n in 1usize..400,
        trigger_secs in 0u64..1000,
        trickle_milli in 1u64..5_000,
        burst_milli in 1u64..100_000,
        seed in any::<u64>(),
    ) {
        let spec = ArrivalSpec::flash_crowd(
            trickle_milli as f64 / 1000.0,
            SimDuration::from_secs(trigger_secs),
            burst_milli as f64 / 1000.0,
        );
        let schedule = spec.schedule(n, &mut SimRng::new(seed)).unwrap();
        prop_assert_eq!(schedule.len(), n);
        prop_assert!(schedule.times().windows(2).all(|w| w[0] <= w[1]));
    }

    /// Poisson arrivals conserve the participant count and their gaps average 1/rate.
    #[test]
    fn poisson_arrivals_have_the_configured_rate(rate_deci in 1u64..100, seed in any::<u64>()) {
        let rate = rate_deci as f64 / 10.0; // 0.1 .. 10 arrivals/s
        let n = 5000;
        let schedule = ArrivalSpec::poisson(rate).schedule(n, &mut SimRng::new(seed)).unwrap();
        prop_assert_eq!(schedule.len(), n);
        prop_assert!(schedule.times().windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = schedule.last().unwrap().as_secs_f64() / n as f64;
        let expected = 1.0 / rate;
        prop_assert!(
            (mean_gap - expected).abs() / expected < 0.15,
            "mean gap {mean_gap} vs expected {expected}"
        );
    }

    /// The uniform ramp is exact: participant k arrives at start + k * interval.
    #[test]
    fn uniform_ramp_is_exact(
        start_ms in 0u64..10_000,
        interval_ms in 0u64..10_000,
        n in 1usize..200,
    ) {
        let spec = ArrivalSpec::ramp(
            SimDuration::from_millis(start_ms),
            SimDuration::from_millis(interval_ms),
        );
        let schedule = spec.schedule(n, &mut SimRng::new(1)).unwrap();
        for (k, &at) in schedule.times().iter().enumerate() {
            let expected = SimTime::ZERO
                + SimDuration::from_millis(start_ms)
                + SimDuration::from_millis(interval_ms) * k as u64;
            prop_assert_eq!(at, expected);
        }
    }
}
