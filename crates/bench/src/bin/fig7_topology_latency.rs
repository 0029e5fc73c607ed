//! Figure 7: the example locality topology, its per-machine rule accounting, and the latency
//! decomposition between 10.1.3.207 and 10.2.2.117 (the paper measures 853 ms).
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin fig7_topology_latency
//! ```

use p2plab_core::{deploy, figure7_latency_experiment, render_table, DeploymentSpec};
use p2plab_net::{MachineId, NetworkConfig, TopologySpec};

fn main() {
    let machines = 100;
    let topo = TopologySpec::paper_figure7();
    let d = deploy(
        &topo,
        DeploymentSpec::new(machines),
        NetworkConfig::default(),
    )
    .expect("figure 7 deployment");
    println!(
        "Deployed the Figure 7 topology: {} virtual nodes in {} groups on {} machines ({:.1}:1)",
        d.vnodes.len(),
        topo.groups().len(),
        machines,
        d.folding_ratio()
    );
    println!(
        "largest per-machine rule list: {} rules\n",
        d.max_rules_per_machine()
    );

    let example = d.net.machine(MachineId(0));
    println!(
        "example machine '{}': {} hosted nodes, {} IPFW rules (2 per hosted node + group latency rules)\n",
        example.name,
        example.hosted(),
        example.rule_count()
    );

    let lat = figure7_latency_experiment(machines, 20);
    let rows = vec![
        vec![
            "source access-link delay (10.1.3.0/24)".into(),
            format!("{}", lat.src_access),
            "20 ms".into(),
        ],
        vec![
            "group delay 10.1.0.0/16 -> 10.2.0.0/16".into(),
            format!("{}", lat.group),
            "400 ms".into(),
        ],
        vec![
            "destination access-link delay (10.2.0.0/16)".into(),
            format!("{}", lat.dst_access),
            "5 ms".into(),
        ],
        vec![
            "expected round trip (2x one-way)".into(),
            format!("{}", lat.expected_rtt),
            "850 ms".into(),
        ],
        vec![
            "measured round trip".into(),
            format!("{}", lat.measured_rtt),
            "853 ms".into(),
        ],
        vec![
            "overhead (serialization, cluster network, rules)".into(),
            format!("{}", lat.overhead()),
            "~3 ms".into(),
        ],
    ];
    println!(
        "{}",
        render_table(
            "Figure 7 check: latency decomposition, 10.1.3.207 <-> 10.2.2.117",
            &["component", "modelled", "paper"],
            &rows
        )
    );
}
