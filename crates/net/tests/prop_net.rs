//! Property-based tests of the network substrate: addressing, pipes and firewalls.

#![allow(
    clippy::disallowed_types,
    reason = "std collections model the implementation under test"
)]

use p2plab_net::{
    BurstLoss, Direction, DropReason, EnqueueOutcome, Firewall, LinkCondition, Pipe, PipeConfig,
    PipeId, Rule, Subnet, VirtAddr,
};
use p2plab_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// The pipe model written out in full, independent of how [`Pipe`] lays its state out: the
/// whole [`PipeConfig`] consulted on every packet.
struct ReferencePipe {
    config: PipeConfig,
    busy_until: SimTime,
    bad: bool,
}

impl ReferencePipe {
    /// Forwards one packet (or duplicated copy) and returns when it leaves the queue.
    fn serialize(&mut self, now: SimTime, size: u64) -> SimTime {
        let Some(bps) = self.config.bandwidth_bps else {
            return now;
        };
        self.busy_until = self.busy_until.max(now) + SimDuration::transmission(size, bps);
        self.busy_until
    }

    fn enqueue(&mut self, now: SimTime, size: u64, rng: &mut SimRng) -> EnqueueOutcome {
        if rng.chance(self.config.loss_rate) {
            return EnqueueOutcome::Dropped(DropReason::RandomLoss);
        }
        let condition = self.config.condition.unwrap_or_default();
        if condition.burst.is_some_and(|b| b.step(&mut self.bad, rng)) {
            return EnqueueOutcome::Dropped(DropReason::BurstLoss);
        }
        let exit = self.serialize(now, size) + self.config.delay + condition.extra_latency(rng);
        let dup = condition.duplicates(rng).then(|| {
            let copy = self.serialize(now, size) + self.config.delay;
            copy.max(exit + SimDuration::from_nanos(1))
        });
        EnqueueOutcome::Forwarded { exit, dup }
    }
}

/// A pipe configuration with each optional part present about half the time, so plain,
/// lossy, conditioned pipes and every mix of them are drawn.
fn random_pipe_config(rng: &mut SimRng) -> PipeConfig {
    let delay = SimDuration::from_micros(rng.gen_range(0..200_000u64));
    let bandwidth_bps = (!rng.chance(0.2)).then(|| rng.gen_range(56_000..10_000_000u64));
    let mut config = PipeConfig {
        bandwidth_bps,
        delay,
        loss_rate: 0.0,
        condition: None,
    };
    if rng.chance(0.5) {
        config = config.with_loss(rng.gen_range(0.0..0.3));
    }
    let mut condition = LinkCondition::none();
    if rng.chance(0.3) {
        let (enter, exit) = (rng.gen_range(0.0..0.3), rng.gen_range(0.05..1.0));
        condition = condition.with_burst(BurstLoss::new(enter, exit, rng.gen_range(0.0..=1.0)));
    }
    if rng.chance(0.3) {
        condition = condition.with_jitter(SimDuration::from_micros(rng.gen_range(1..20_000u64)));
    }
    if rng.chance(0.3) {
        let hold = SimDuration::from_micros(rng.gen_range(0..50_000u64));
        condition.reorder_rate = rng.gen_range(0.0..=1.0);
        condition.reorder_delay = hold;
    }
    if rng.chance(0.3) {
        condition.duplicate_rate = rng.gen_range(0.0..=1.0);
    }
    config.with_condition(Some(condition))
}

/// 300 random arrivals `(time, size)`: bursts at one instant, gaps that let the queue drain,
/// and empty packets (whose departure coincides with their arrival on an idle pipe).
fn random_arrivals(input: &mut SimRng) -> Vec<(SimTime, u64)> {
    let mut now = SimTime::ZERO;
    (0..300)
        .map(|_| {
            if input.chance(0.7) {
                now += SimDuration::from_micros(input.gen_range(0..30_000u64));
            }
            let size = if input.chance(0.05) {
                0
            } else {
                input.gen_range(1..=16_384u64)
            };
            (now, size)
        })
        .collect()
}

/// Runs [`Pipe`] and [`ReferencePipe`] side by side on a random configuration drawn from
/// `seed` — with its rate replaced by `rate`, if given — and 300 random arrivals.
fn equals_the_reference_model(seed: u64, rate: Option<Option<u64>>) {
    let mut input = SimRng::new(seed);
    let mut config = random_pipe_config(&mut input);
    if let Some(bps) = rate {
        config.bandwidth_bps = bps;
    }
    let mut pipe = Pipe::new(config);
    let mut reference = ReferencePipe {
        config,
        busy_until: SimTime::ZERO,
        bad: false,
    };
    let (mut rng, mut reference_rng) = (SimRng::new(seed ^ 1), SimRng::new(seed ^ 1));
    for (now, size) in random_arrivals(&mut input) {
        let got = pipe.enqueue(now, size, &mut rng);
        let want = reference.enqueue(now, size, &mut reference_rng);
        assert_eq!(got, want, "{config:?} at {now:?}, {size} bytes");
    }
    assert_eq!(
        rng.gen_f64().to_bits(),
        reference_rng.gen_f64().to_bits(),
        "{config:?}"
    );
}

proptest! {
    /// Address parsing and display round-trip for every possible address.
    #[test]
    fn addr_display_parse_roundtrip(a in any::<u8>(), b in any::<u8>(), c in any::<u8>(), d in any::<u8>()) {
        let addr = VirtAddr::new(a, b, c, d);
        let parsed: VirtAddr = addr.to_string().parse().unwrap();
        prop_assert_eq!(parsed, addr);
    }

    /// Every host generated from a subnet is contained in it, and host addresses are distinct.
    #[test]
    fn subnet_hosts_are_members(base in any::<u32>(), prefix in 8u8..=30, count in 1u32..100) {
        let subnet = Subnet::new(VirtAddr(base), prefix);
        let count = count.min(subnet.size().saturating_sub(1) as u32);
        let mut seen = std::collections::HashSet::new();
        for i in 0..count {
            let h = subnet.host_at(i);
            prop_assert!(subnet.contains(h), "{h} not in {subnet}");
            prop_assert!(seen.insert(h), "duplicate host {h}");
        }
    }

    /// A lossless FIFO pipe preserves packet order and never forwards faster than its
    /// configured bandwidth allows.
    #[test]
    fn pipe_is_fifo_and_rate_limited(
        sizes in prop::collection::vec(64u64..16_384, 1..100),
        bps in 56_000u64..10_000_000,
        delay_ms in 0u64..200,
        gap_us in prop::collection::vec(0u64..100_000, 1..100),
    ) {
        let mut pipe = Pipe::new(PipeConfig::shaped(bps, SimDuration::from_millis(delay_ms)));
        let mut rng = SimRng::new(1);
        let mut now = SimTime::ZERO;
        let mut exits = Vec::new();
        let mut total_bytes = 0u64;
        for (i, &size) in sizes.iter().enumerate() {
            now += SimDuration::from_micros(gap_us[i % gap_us.len()]);
            match pipe.enqueue(now, size, &mut rng) {
                EnqueueOutcome::Forwarded { exit, .. } => {
                    // Never earlier than arrival + own serialization + delay.
                    let earliest = now
                        + SimDuration::transmission(size, bps)
                        + SimDuration::from_millis(delay_ms);
                    prop_assert!(exit >= earliest);
                    exits.push(exit);
                    total_bytes += size;
                }
                other => prop_assert!(false, "unexpected drop: {other:?}"),
            }
        }
        // FIFO: exits are non-decreasing.
        for w in exits.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Aggregate rate limit: the last packet cannot leave before all bytes have been
        // serialized at the pipe's rate (plus its propagation delay).
        let last_exit = *exits.last().unwrap();
        let min_finish = SimTime::ZERO
            + SimDuration::transmission(total_bytes, bps)
            + SimDuration::from_millis(delay_ms);
        prop_assert!(
            last_exit + SimDuration::from_nanos(1) >= min_finish,
            "forwarded {total_bytes} bytes faster than {bps} bps allows"
        );
    }

    /// [`Pipe`] against the model above under random configurations and arrivals: the same
    /// outcome for every packet, and both RNGs left in the same state — which is what shows
    /// that the draws happened in the same order.
    #[test]
    fn pipe_equals_the_reference_model(seed in any::<u64>()) {
        equals_the_reference_model(seed, None);
    }

    /// The same at the rates a pipe stores specially: 0 bit/s (never drains, so its clock
    /// starts at the end of time), the fastest ones, which still charge a nanosecond a packet,
    /// and none (a pure delay).
    #[test]
    fn pipe_at_extreme_rates_equals_the_reference_model(seed in any::<u64>(), pick in 0usize..4) {
        equals_the_reference_model(seed, Some([Some(0), Some(1), Some(u64::MAX), None][pick]));
    }

    /// Firewall classification: the number of rules examined never exceeds the rule count, the
    /// evaluation cost is proportional to it, and matching pipes appear in rule order.
    #[test]
    fn firewall_examination_is_bounded_and_ordered(
        dummy_before in 0usize..500,
        dummy_after in 0usize..500,
        n_pipes in 1usize..5,
    ) {
        let mut fw = Firewall::new(SimDuration::from_nanos(50));
        fw.add_dummy_rules(dummy_before);
        for i in 0..n_pipes {
            fw.add_rule(Rule::pipe(Subnet::any(), Subnet::any(), Direction::Out, PipeId(i)));
        }
        fw.add_dummy_rules(dummy_after);
        let c = fw.classify(VirtAddr::new(10, 0, 0, 1), VirtAddr::new(10, 0, 0, 2), Direction::Out);
        prop_assert!(c.accepted);
        prop_assert_eq!(c.rules_examined, fw.rule_count());
        prop_assert_eq!(c.evaluation_cost, SimDuration::from_nanos(50) * fw.rule_count() as u64);
        let expected: Vec<PipeId> = (0..n_pipes).map(PipeId).collect();
        prop_assert_eq!(&c.pipes[..], expected.as_slice());
        // Incoming traffic does not match Out rules.
        let c_in = fw.classify(VirtAddr::new(10, 0, 0, 1), VirtAddr::new(10, 0, 0, 2), Direction::In);
        prop_assert!(c_in.pipes.is_empty());
    }

    /// Random loss drops roughly the configured fraction of packets over many trials.
    #[test]
    fn pipe_loss_rate_is_calibrated(loss_pct in 1u32..99) {
        let loss = loss_pct as f64 / 100.0;
        let pure_delay = PipeConfig {
            bandwidth_bps: None,
            delay: SimDuration::ZERO,
            loss_rate: 0.0,
            condition: None,
        };
        let mut pipe = Pipe::new(pure_delay.with_loss(loss));
        let mut rng = SimRng::new(7);
        let n = 4_000;
        let dropped = (0..n)
            .filter(|_| {
                matches!(
                    pipe.enqueue(SimTime::ZERO, 100, &mut rng),
                    EnqueueOutcome::Dropped(_)
                )
            })
            .count();
        let observed = dropped as f64 / n as f64;
        prop_assert!((observed - loss).abs() < 0.05, "loss {loss} observed {observed}");
    }
}
