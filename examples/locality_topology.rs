//! Locality topology walk-through (the paper's Figure 7 example).
//!
//! ```text
//! cargo run --release --example locality_topology
//! ```
//!
//! Builds the paper's example topology — three DSL/modem groups inside 10.1.0.0/16 plus two
//! /16 clouds, with 100-1000 ms inter-group latencies — deploys it on 30 emulated physical
//! machines, shows the per-machine rule accounting, and reproduces the latency-decomposition
//! measurement between 10.1.3.207 and 10.2.2.117 (853 ms in the paper).

use p2plab::core::{deploy, figure7_latency_experiment, render_table, DeploymentSpec};
use p2plab::net::{NetworkConfig, TopologySpec};

fn main() {
    let topo = TopologySpec::paper_figure7();
    println!("Topology groups:");
    for (i, g) in topo.groups().iter().enumerate() {
        println!(
            "  group {}: {:28} {} nodes, {:>9} bps down / {:>9} bps up, {} latency",
            i, g.name, g.node_count, g.link.down_bps, g.link.up_bps, g.link.latency
        );
    }
    println!("\nInter-group one-way latencies:");
    for (a, b, d) in topo.group_latencies() {
        println!(
            "  {} <-> {}: {}",
            topo.groups()[a.0].name,
            topo.groups()[b.0].name,
            d
        );
    }

    // Deploy on 30 machines and show the rule accounting the paper walks through.
    let machines = 30;
    let d = deploy(
        &topo,
        DeploymentSpec::new(machines),
        NetworkConfig::default(),
    )
    .expect("deployment");
    println!(
        "\nDeployed {} virtual nodes on {} machines (folding {:.1}:1)",
        d.vnodes.len(),
        machines,
        d.folding_ratio()
    );
    let rows: Vec<Vec<String>> = (0..3)
        .map(|m| {
            let machine = d.net.machine(p2plab::net::MachineId(m));
            vec![
                machine.name.clone(),
                machine.hosted().to_string(),
                machine.rule_count().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Per-machine configuration (first three machines)",
            &["machine", "hosted vnodes", "IPFW rules"],
            &rows
        )
    );
    println!(
        "largest rule list on any machine: {} rules",
        d.max_rules_per_machine()
    );

    // The paper's measurement: 10.1.3.207 -> 10.2.2.117 round trip.
    let lat = figure7_latency_experiment(machines, 10);
    println!("\nLatency decomposition, 10.1.3.207 <-> 10.2.2.117 (paper: 853 ms):");
    println!("  source access-link delay:        {}", lat.src_access);
    println!("  10.1.0.0/16 -> 10.2.0.0/16:      {}", lat.group);
    println!("  destination access-link delay:   {}", lat.dst_access);
    println!("  expected RTT from configuration: {}", lat.expected_rtt);
    println!("  measured RTT:                    {}", lat.measured_rtt);
    println!("  emulation overhead:              {}", lat.overhead());
}
