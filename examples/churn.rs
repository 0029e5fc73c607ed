//! Node churn study (an extension beyond the paper's experiments).
//!
//! ```text
//! cargo run --release --example churn
//! ```
//!
//! Real peer-to-peer deployments see constant node arrival and departure. The paper's BitTorrent
//! experiments keep every client online; this example uses the same emulated swarm but lets
//! downloaders alternate between online sessions and offline periods (exponentially distributed)
//! and compares completion times against the churn-free baseline.

use p2plab::core::{completion_summary, run_scenario, SessionProcess, SwarmExperiment};
use p2plab::sim::SimDuration;

fn main() {
    let mut baseline = SwarmExperiment::quick();
    baseline.name = "no-churn".into();
    baseline.leechers = 10;

    let mut churny = baseline.clone();
    churny.name = "with-churn".into();
    churny.deadline = SimDuration::from_secs(6000);
    churny.churn = Some(SessionProcess::Exponential {
        mean_session: SimDuration::from_secs(90),
        mean_downtime: SimDuration::from_secs(45),
    });

    println!("running '{}'...", baseline.name);
    let (a, _) = run_scenario(&baseline.to_scenario(), baseline.workload()).expect("swarm runs");
    println!(
        "  {}/{} clients done",
        a.completed_count(),
        baseline.leechers
    );
    println!(
        "running '{}' (mean session 90 s, mean downtime 45 s)...",
        churny.name
    );
    let (b, _) = run_scenario(&churny.to_scenario(), churny.workload()).expect("swarm runs");
    println!("  {}/{} clients done", b.completed_count(), churny.leechers);
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
