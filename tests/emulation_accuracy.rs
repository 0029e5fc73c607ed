//! Cross-crate integration tests for the emulation-accuracy results: Figure 6 (rule-count
//! scaling) and Figure 7 (latency decomposition). The libc-interception overhead table is
//! checked where it is computed: its calibrated values in `p2plab_os::syscall`, the shim's
//! one extra `bind` and its "very low" overhead in `p2plab_core::accuracy`.

use p2plab::core::{deploy, figure7_latency_experiment, rule_scaling_experiment, DeploymentSpec};
use p2plab::net::network::{NIC_BPS, PER_RULE_COST, SWITCH_LATENCY};
use p2plab::net::ping::ECHO_BYTES;
use p2plab::net::{
    ping_series, AccessLinkClass, GroupId, LaneKind, MachineId, Network, NetworkConfig, PingWorld,
    TopologySpec, VNodeId,
};
use p2plab::sim::SimDuration;
use std::collections::BTreeSet;

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
            rules <= 2 * hosted + 4 * topo.groups().len(),
            "machine {m}: {rules} rules for {hosted} nodes"
        );
    }
}

/// The RTT oracle: one unloaded ping takes, to the nanosecond, what the test adds up itself
/// from the configuration. Per direction: both access pipes' serialization at their groups'
/// rates and their delays, the group pair's latency, both NICs' serialization and the switch
/// latency (between machines only), and the per-rule cost of every rule on each firewall the
/// packet is classified on. The test counts those rules itself: two per hosted node, one per
/// group with a latency from each group the machine hosts, and the dummy rules. On Figure 7's
/// topology one ping crosses two machines and the other stays on one; on Figure 6's two-node
/// deployment the ping crosses machine 0's rules without and with 50,000 dummy rules.
#[test]
fn figure7_ping_rtt_equals_the_configured_path_to_the_nanosecond() {
    let config = NetworkConfig::default();
    let wire = ECHO_BYTES + LaneKind::UnreliableUnordered.header_bytes();
    let rules = |net: &Network, topo: &TopologySpec, machine: MachineId, dummies: usize| {
        let hosted: BTreeSet<usize> = (net.vnodes())
            .filter(|(_, v)| v.machine() == machine)
            .map(|(_, v)| v.group().0)
            .collect();
        let latency_rules = (hosted.iter())
            .flat_map(|&g| (0..topo.groups().len()).map(move |h| (g, h)))
            .filter(|&(g, h)| !topo.group_latency(GroupId(g), GroupId(h)).is_zero())
            .count();
        2 * net.machine(machine).hosted() + latency_rules + dummies
    };
    let one_way = |net: &Network, topo: &TopologySpec, dummies: usize, from, to| {
        let (a, b) = (net.vnode(from), net.vnode(to));
        let (up, down) = (
            topo.groups()[a.group().0].link,
            topo.groups()[b.group().0].link,
        );
        let mut path = SimDuration::transmission(wire, up.up_bps)
            + up.latency
            + topo.group_latency(a.group(), b.group())
            + SimDuration::transmission(wire, down.down_bps)
            + down.latency;
        if a.machine() != b.machine() {
            path += SimDuration::transmission(wire, NIC_BPS) * 2 + SWITCH_LATENCY;
        }
        // The dummy rules are all on machine 0.
        let dummies_on = |m: MachineId| if m == MachineId(0) { dummies } else { 0 };
        let rules = rules(net, topo, a.machine(), dummies_on(a.machine()))
            + rules(net, topo, b.machine(), dummies_on(b.machine()));
        path + PER_RULE_COST * rules as u64
    };
    let rtt = |topo: &TopologySpec,
               machines: usize,
               dummies: usize,
               pick: fn(&Network) -> (VNodeId, VNodeId)| {
        let mut d = deploy(topo, DeploymentSpec::new(machines), config).unwrap();
        d.net.add_dummy_rules(MachineId(0), dummies);
        let (from, to) = pick(&d.net);
        let expected =
            one_way(&d.net, topo, dummies, from, to) + one_way(&d.net, topo, dummies, to, from);
        let (_, rtts) = ping_series(PingWorld::new(d.net), from, to, 1, SimDuration::ZERO, 1);
        (from, to, rtts, expected)
    };
    let figure7 = TopologySpec::paper_figure7();
    // The paper's pair, 10.1.3.207 (8 Mbps / 1 Mbps, 20 ms) to 10.2.2.117 (10 Mbps, 5 ms),
    // 400 ms apart, on two machines.
    let (from, to, rtts, expected) = rtt(&figure7, 50, 0, |net| {
        let [from, to] = ["10.1.3.207", "10.2.2.117"].map(|a| net.resolve(a.parse().unwrap()));
        let (from, to) = (from.unwrap(), to.unwrap());
        assert_ne!(net.vnode(from).machine(), net.vnode(to).machine());
        (from, to)
    });
    assert_eq!(rtts, [expected], "{from:?} -> {to:?}");
    assert!(expected > SimDuration::from_millis(850));
    // Node 0 (10.1.1.1, a 56k modem) and the first 10.3.0.0/16 node (1 Mbps, 10 ms) on its
    // machine, 600 ms apart: no NIC, and each packet is classified twice on one firewall.
    let (from, to, rtts, expected) = rtt(&figure7, 50, 0, |net| {
        let from = VNodeId(0);
        let machine = net.vnode(from).machine();
        let (to, _) = (net.vnodes())
            .find(|(_, v)| v.machine() == machine && v.group().0 == 4)
            .unwrap();
        assert_eq!(machine, MachineId(0));
        (from, to)
    });
    assert_eq!(rtts, [expected], "{from:?} -> {to:?}");
    assert!(expected > SimDuration::from_millis(2 * (100 + 600 + 10)));
    // Figure 6's deployment (`rule_scaling_experiment`): two nodes on two machines over a
    // 1 Gbps, 100 us link, at both ends of its sweep.
    let lan = AccessLinkClass::symmetric(1_000_000_000, SimDuration::from_micros(100));
    let figure6 = TopologySpec::uniform("rule-scaling", 2, lan);
    let mut at = Vec::new();
    for dummies in [0, 50_000] {
        let (_, _, rtts, expected) = rtt(&figure6, 2, dummies, |_| (VNodeId(0), VNodeId(1)));
        assert_eq!(rtts, [expected], "{dummies} dummy rules");
        at.push(expected);
    }
    // Each ping crosses machine 0's rules twice: the request out, the reply in.
    assert_eq!(at[1] - at[0], PER_RULE_COST * 2 * 50_000);
}
