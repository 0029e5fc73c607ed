//! Cross-crate integration tests for the emulation-accuracy results: Figure 6 (rule-count
//! scaling) and Figure 7 (latency decomposition). The libc-interception overhead table is
//! checked where it is computed: its calibrated values in `p2plab_os::syscall`, the shim's
//! one extra `bind` and its "very low" overhead in `p2plab_core::accuracy`.

use p2plab::core::{deploy, figure7_latency_experiment, rule_scaling_experiment, DeploymentSpec};
use p2plab::net::{NetworkConfig, TopologySpec};
use p2plab::sim::SimDuration;

#[test]
fn figure6_rtt_grows_linearly_with_rule_count() {
    let points = rule_scaling_experiment(&[0, 12_500, 25_000, 50_000], 5);
    let base = points[0].avg_rtt.as_secs_f64();
    let deltas: Vec<f64> = points[1..]
        .iter()
        .map(|p| p.avg_rtt.as_secs_f64() - base)
        .collect();
    // Doubling the rule count doubles the added latency (within 25%).
    assert!(deltas[0] > 0.0);
    assert!((deltas[1] / deltas[0] - 2.0).abs() < 0.5, "{deltas:?}");
    assert!((deltas[2] / deltas[0] - 4.0).abs() < 1.0, "{deltas:?}");
    // Order of magnitude at 50 000 rules matches the paper's ~5 ms.
    let ms = points[3].avg_rtt.as_secs_f64() * 1000.0;
    assert!((1.0..12.0).contains(&ms), "RTT at 50k rules: {ms} ms");
}

#[test]
fn figure7_measured_latency_decomposes_as_configured() {
    let lat = figure7_latency_experiment(50, 5);
    // Configured delays account for 850 ms of round trip; the paper measures 853 ms.
    assert_eq!(lat.expected_rtt, SimDuration::from_millis(850));
    let measured_ms = lat.measured_rtt.as_secs_f64() * 1000.0;
    assert!(
        (850.0..862.0).contains(&measured_ms),
        "measured {measured_ms} ms, paper reports 853 ms"
    );
    // The unexplained overhead stays within a few milliseconds, as in the paper.
    assert!(lat.overhead() <= SimDuration::from_millis(10));
}

#[test]
fn figure7_topology_deploys_with_paper_rule_accounting() {
    let topo = TopologySpec::paper_figure7();
    let d = deploy(&topo, DeploymentSpec::new(180), NetworkConfig::default()).unwrap();
    assert_eq!(d.vnodes.len(), 2750);
    // The paper's example: a node hosting only 10.1.3.0/24 nodes needs 2 rules per hosted node
    // plus 4 group rules. With round-robin placement machines host a mix, so the bound is
    // 2 x hosted + 4 x (number of groups hosted).
    for m in 0..180 {
        let machine = d.net.machine(p2plab::net::MachineId(m));
        let hosted = machine.hosted();
        let rules = machine.rule_count();
        assert!(
            rules >= 2 * hosted,
            "machine {m}: {rules} rules for {hosted} nodes"
        );
        assert!(
            rules <= 2 * hosted + 4 * topo.groups.len(),
            "machine {m}: {rules} rules for {hosted} nodes"
        );
    }
}
