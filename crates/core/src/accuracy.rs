//! Emulation-accuracy experiments: rule-count scaling (Figure 6), the Figure 7 latency
//! decomposition, and the libc-interception overhead microbenchmark.

use crate::deploy::{deploy, DeploymentSpec};
use p2plab_net::ping::{ping_series, PingWorld};
use p2plab_net::{
    AccessLinkClass, InterceptConfig, MachineId, NetworkConfig, TopologySpec, VirtAddr,
};
use p2plab_os::SyscallCostModel;
use p2plab_sim::SimDuration;

/// One point of the Figure 6 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleScalingPoint {
    /// Number of extra rules the outgoing packets must scan.
    pub rules: usize,
    /// Average measured round-trip time.
    pub avg_rtt: SimDuration,
    /// Minimum measured round-trip time.
    pub min_rtt: SimDuration,
    /// Maximum measured round-trip time.
    pub max_rtt: SimDuration,
}

/// Reproduces Figure 6: round-trip time between two nodes as the number of firewall rules on
/// the first node varies. The paper sweeps 0 to 50 000 rules and observes linear growth because
/// IPFW evaluates rules linearly.
pub fn rule_scaling_experiment(
    rule_counts: &[usize],
    pings_per_point: usize,
) -> Vec<RuleScalingPoint> {
    rule_counts
        .iter()
        .map(|&rules| {
            // Two physical machines, one virtual node each, on a fast LAN-like link so the
            // rule-evaluation cost is visible over the base latency.
            let topo = TopologySpec::uniform(
                "rule-scaling",
                2,
                AccessLinkClass::symmetric(1_000_000_000, SimDuration::from_micros(100)),
            );
            let mut d = deploy(&topo, DeploymentSpec::new(2), NetworkConfig::default())
                .expect("two-node deployment");
            d.net.add_dummy_rules(MachineId(0), rules);
            let world = PingWorld::new(d.net);
            let (world, rtts) = ping_series(
                world,
                d.vnodes[0],
                d.vnodes[1],
                pings_per_point,
                SimDuration::from_millis(100),
                1,
            );
            let (min, max) = world.min_max_rtt().expect("pings completed");
            let avg = world.average_rtt().expect("pings completed");
            let _ = rtts;
            RuleScalingPoint {
                rules,
                avg_rtt: avg,
                min_rtt: min,
                max_rtt: max,
            }
        })
        .collect()
}

/// The latency decomposition of the paper's Figure 7 example measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyDecomposition {
    /// Delay added when the packet leaves the source node (its access-link latency).
    pub src_access: SimDuration,
    /// Inter-group delay on the forward path.
    pub group: SimDuration,
    /// Delay added when the packet arrives at the destination node.
    pub dst_access: SimDuration,
    /// The expected round-trip time from the configured delays alone (twice the one-way sum).
    pub expected_rtt: SimDuration,
    /// The measured round-trip time.
    pub measured_rtt: SimDuration,
}

impl LatencyDecomposition {
    /// The part of the measured RTT not explained by the configured delays: serialization on
    /// the access links, the cluster network, and firewall rule evaluation. The paper measures
    /// 3 ms for this on GridExplorer.
    pub fn overhead(&self) -> SimDuration {
        self.measured_rtt.saturating_sub(self.expected_rtt)
    }
}

/// Reproduces the Figure 7 check: deploy the paper's example topology, ping from `10.1.3.207`
/// to `10.2.2.117`, and decompose the measured latency (the paper reports 853 ms, of which
/// 850 ms are configured delays and ~3 ms overhead).
pub fn figure7_latency_experiment(machines: usize, pings: usize) -> LatencyDecomposition {
    let topo = TopologySpec::paper_figure7();
    let d = deploy(
        &topo,
        DeploymentSpec::new(machines),
        NetworkConfig::default(),
    )
    .expect("figure 7 deployment");
    let src_addr: VirtAddr = "10.1.3.207".parse().expect("valid address");
    let dst_addr: VirtAddr = "10.2.2.117".parse().expect("valid address");
    let src = d.net.resolve(src_addr).expect("10.1.3.207 deployed");
    let dst = d.net.resolve(dst_addr).expect("10.2.2.117 deployed");
    let src_group = topo.group_of(src_addr).expect("source group");
    let dst_group = topo.group_of(dst_addr).expect("destination group");
    let src_access = topo.groups[src_group.0].link.latency;
    let dst_access = topo.groups[dst_group.0].link.latency;
    let group = topo.group_latency(src_group, dst_group);

    let world = PingWorld::new(d.net);
    let (world, _) = ping_series(world, src, dst, pings, SimDuration::from_secs(1), 1);
    let measured = world.average_rtt().expect("pings completed");
    LatencyDecomposition {
        src_access,
        group,
        dst_access,
        expected_rtt: (src_access + group + dst_access) * 2,
        measured_rtt: measured,
    }
}

/// The libc-interception overhead microbenchmark (the in-text table of the paper:
/// 10.22 µs per connect/disconnect cycle without the modified libc, 10.79 µs with it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterceptionOverhead {
    /// Cycle duration with the stock libc.
    pub plain: SimDuration,
    /// Cycle duration with the BINDIP interception shim.
    pub intercepted: SimDuration,
}

impl InterceptionOverhead {
    /// Relative overhead of the interception (fraction of the plain cycle).
    pub fn relative(&self) -> f64 {
        (self.intercepted.as_nanos() as f64 - self.plain.as_nanos() as f64)
            / self.plain.as_nanos() as f64
    }
}

/// Computes the interception-overhead table from the syscall cost model.
pub fn interception_overhead() -> InterceptionOverhead {
    let model = SyscallCostModel::freebsd_opteron();
    InterceptionOverhead {
        plain: InterceptConfig::disabled().connect_cycle_cost(&model),
        intercepted: InterceptConfig::enabled().connect_cycle_cost(&model),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2plab_os::Syscall;

    #[test]
    fn rule_scaling_is_linear() {
        let points = rule_scaling_experiment(&[0, 10_000, 20_000, 40_000], 3);
        assert_eq!(points.len(), 4);
        let base = points[0].avg_rtt.as_nanos() as f64;
        let d1 = points[1].avg_rtt.as_nanos() as f64 - base;
        let d2 = points[2].avg_rtt.as_nanos() as f64 - base;
        let d4 = points[3].avg_rtt.as_nanos() as f64 - base;
        assert!(d1 > 0.0);
        assert!((d2 / d1 - 2.0).abs() < 0.25, "d2/d1={}", d2 / d1);
        assert!((d4 / d1 - 4.0).abs() < 0.5, "d4/d1={}", d4 / d1);
        // At 50 000 rules the paper measures ~5 ms; check the same order of magnitude.
        let p50k = rule_scaling_experiment(&[50_000], 3);
        let ms = p50k[0].avg_rtt.as_secs_f64() * 1000.0;
        assert!((2.0..10.0).contains(&ms), "rtt at 50k rules = {ms} ms");
        assert!(p50k[0].min_rtt <= p50k[0].avg_rtt && p50k[0].avg_rtt <= p50k[0].max_rtt);
    }

    #[test]
    fn figure7_latency_close_to_853ms() {
        let d = figure7_latency_experiment(30, 3);
        let ms = d.measured_rtt.as_secs_f64() * 1000.0;
        // Configured delays: (20 + 400 + 5) x 2 = 850 ms; the paper measures 853 ms. Accept a
        // few ms of modelled overhead either way.
        assert_eq!(d.expected_rtt, SimDuration::from_millis(850));
        assert!((850.0..860.0).contains(&ms), "measured {ms} ms");
        assert!(d.overhead() < SimDuration::from_millis(10));
        assert_eq!(d.src_access, SimDuration::from_millis(20));
        assert_eq!(d.group, SimDuration::from_millis(400));
        assert_eq!(d.dst_access, SimDuration::from_millis(5));
    }

    #[test]
    fn interception_overhead_is_one_bind_per_connect() {
        // The mechanism, not the calibration: under any cost model the shim adds exactly one
        // `bind` to the connect/disconnect cycle (the calibrated values are pinned once, in
        // `p2plab_os::syscall`).
        let paper = SyscallCostModel::freebsd_opteron();
        let models = [
            paper,
            SyscallCostModel {
                bind_ns: 5_000,
                ..paper
            },
            SyscallCostModel {
                trap_ns: 0,
                socket_ns: 10,
                bind_ns: 20,
                connect_ns: 30,
                listen_ns: 40,
                accept_ns: 50,
                close_ns: 60,
                sendrecv_ns: 70,
            },
        ];
        for model in models {
            let o = InterceptionOverhead {
                plain: InterceptConfig::disabled().connect_cycle_cost(&model),
                intercepted: InterceptConfig::enabled().connect_cycle_cost(&model),
            };
            assert_eq!(
                o.intercepted - o.plain,
                model.cost(Syscall::Bind),
                "{model:?}"
            );
        }
        // The paper's table is what `interception_overhead` reports, and its overhead is "very
        // low": positive, under a tenth of the cycle.
        let o = interception_overhead();
        assert_eq!(
            o.plain,
            InterceptConfig::disabled().connect_cycle_cost(&paper)
        );
        assert!(o.relative() > 0.0 && o.relative() < 0.1, "{}", o.relative());
    }
}
