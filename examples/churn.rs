//! Node churn study (an extension beyond the paper's experiments).
//!
//! ```text
//! cargo run --release --example churn
//! ```
//!
//! Real peer-to-peer deployments see constant node arrival and departure. The paper's BitTorrent
//! experiments keep every client online; this example runs the quick swarm
//! (`examples/scenarios/swarm_quick.toml`) once as it is and once with a `[sessions]` section
//! added as overrides, so downloaders alternate between online sessions and offline periods
//! (exponentially distributed), and compares completion times.

use p2plab::bittorrent::SwarmWorld;
use p2plab::core::{completion_summary, run_scenario, ScenarioFile, SwarmWorkload, WorkloadConfig};

/// Runs the quick swarm with ten downloaders under `overrides`.
fn run(overrides: &str) -> SwarmWorld {
    let overrides = format!("workload.swarm.leechers = 10\n{overrides}");
    let file = ScenarioFile::parse_with(include_str!("scenarios/swarm_quick.toml"), &overrides)
        .expect("swarm_quick.toml parses");
    println!("running '{}'...", file.spec.name);
    let WorkloadConfig::Swarm(swarm) = file.workload else {
        unreachable!("swarm_quick.toml is a swarm scenario");
    };
    let (world, _) = run_scenario(&file.spec, SwarmWorkload::new(swarm)).expect("swarm runs");
    println!(
        "  {}/{} clients done",
        world.completed_count(),
        world.downloaders().count()
    );
    world
}

fn main() {
    let a = run("scenario.name = \"no-churn\"");
    let b = run(
        "scenario.name = \"with-churn\"\nscenario.deadline = \"6000s\"\n\
         [sessions]\nkind = \"exponential\"\nmean_session = \"90s\"\nmean_downtime = \"45s\"\n",
    );
    println!(
        "  churn departures observed by the tracker: {}",
        b.tracker.stats().stopped
    );

    for (label, world) in [("no churn", &a), ("with churn", &b)] {
        if let Some(s) = completion_summary(&world.completion_times()) {
            println!(
                "{label:>12}: first {:.0}s, median {:.0}s, last {:.0}s",
                s.first.as_secs_f64(),
                s.median.as_secs_f64(),
                s.last.as_secs_f64()
            );
        }
    }
    println!(
        "\nInterrupted sessions lose their open connections (but keep downloaded pieces), so the"
    );
    println!(
        "median completion time grows with the downtime fraction, while the swarm still finishes."
    );
}
