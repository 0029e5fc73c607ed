//! Quickstart: run a small BitTorrent swarm on an emulated network and look at the results.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This is the smallest end-to-end use of the framework: a scenario file
//! (`examples/scenarios/swarm_quick.toml`) parses into the scenario (`file.spec`: topology,
//! folding, deadline, sampling, seed) and the workload (`file.workload`: tracker, seeders,
//! downloaders, arrival ramp), and both go to the generic `run_scenario` loop, which hands back
//! the final swarm world and the run's report. Deployment, network emulation, the BitTorrent
//! protocol and the resource monitoring all happen inside the deterministic simulation.

use p2plab::core::{
    ascii_plot, completion_summary, run_scenario, ScenarioFile, SwarmWorkload, WorkloadConfig,
};

fn main() {
    // A 2 MB file shared by 2 seeders with 12 downloaders on 8 Mbps / 1 Mbps access links,
    // folded onto 4 emulated physical machines; only the name is overridden.
    let file = ScenarioFile::parse_with(
        include_str!("scenarios/swarm_quick.toml"),
        "scenario.name = \"quickstart\"",
    )
    .expect("swarm_quick.toml parses");
    let WorkloadConfig::Swarm(swarm) = &file.workload else {
        unreachable!("swarm_quick.toml is a swarm scenario");
    };

    println!(
        "Running '{}': {} downloaders + {} seeders, {:.0} MB file, {} machines (folding {:.0}:1)",
        file.spec.name,
        swarm.leechers,
        swarm.seeders,
        swarm.file_bytes as f64 / (1024.0 * 1024.0),
        file.spec.deployment.machines,
        file.spec.folding_ratio(),
    );

    let workload = SwarmWorkload::new(swarm.clone());
    let (world, report) = run_scenario(&file.spec, workload).expect("swarm runs");

    println!(
        "\n{}: {}/{} clients done, {:?} at {} after {} events",
        report.scenario,
        world.completed_count(),
        report.participants,
        report.outcome,
        report.stopped_at,
        report.events_executed,
    );
    if let Some(s) = completion_summary(&world.completion_times()) {
        println!(
            "completions: first {} / median {} / last {}  (p5-p95 spread {:.1} s)",
            s.first, s.median, s.last, s.p5_p95_spread_secs
        );
    }
    let net = world.net.stats();
    println!(
        "network: {} messages delivered, {} retransmissions, {:.1} MB of application data",
        net.messages_delivered,
        net.retransmissions,
        net.bytes_delivered as f64 / (1024.0 * 1024.0),
    );
    let reciprocated: u64 = world.downloaders().map(|c| c.stats.bytes_uploaded).sum();
    println!(
        "seeders uploaded {:.1} MB, downloaders reciprocated {:.1} MB",
        (world.total_bytes_uploaded() - reciprocated) as f64 / (1024.0 * 1024.0),
        reciprocated as f64 / (1024.0 * 1024.0),
    );

    // The per-client progress curves are the paper's Figure 8 at miniature scale.
    println!("\nPer-client completion times:");
    for (i, c) in world.downloaders().enumerate() {
        let done = c.progress.time_to_reach(100.0);
        println!(
            "  client {:2}: {}",
            i,
            done.map(|t| t.to_string())
                .unwrap_or_else(|| "did not finish".into())
        );
    }

    println!();
    println!(
        "{}",
        ascii_plot(
            "clients having completed their download (Figure 11 shape)",
            &world.completion_curve(),
            70,
            12
        )
    );
}
