//! Large-swarm scalability run (the paper's Figures 10-11, scaled by a command-line factor).
//!
//! ```text
//! # 5% of the paper's 5754 clients (fast):
//! cargo run --release --example large_swarm -- 0.05
//! # the full paper-scale run (several minutes of wall-clock time):
//! cargo run --release --example large_swarm -- 1.0
//! ```
//!
//! The paper's largest experiment folds 5760 virtual nodes (5754 clients, 4 seeders, 1 tracker)
//! onto 180 physical machines — 32 virtual nodes each — and observes that most clients finish
//! their download nearly at the same time. This example runs the same experiment at a
//! configurable scale and prints the Figure 10 progress samples and the Figure 11 completion
//! curve.

use p2plab::core::{ascii_plot, completion_summary, run_scenario, SwarmExperiment};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let cfg = SwarmExperiment::paper_figure10(scale.clamp(0.002, 1.0));
    println!(
        "Running {} : {} clients + {} seeders on {} machines ({:.0} virtual nodes per machine)",
        cfg.name,
        cfg.leechers,
        cfg.seeders,
        cfg.machines,
        cfg.folding_ratio()
    );
    println!(
        "(pass a scale factor between 0.002 and 1.0 as the first argument; 1.0 = paper scale)\n"
    );

    let (world, report) = run_scenario(&cfg.to_scenario(), cfg.workload()).expect("swarm runs");
    println!(
        "{}/{} clients done, {:?} at {}",
        world.completed_count(),
        report.participants,
        report.outcome,
        report.stopped_at
    );
    println!("simulation executed {} events", report.events_executed);

    if let Some(s) = completion_summary(&world.completion_times()) {
        println!(
            "completions: first {} / median {} / last {}  (p5-p95 spread {:.0} s)",
            s.first, s.median, s.last, s.p5_p95_spread_secs
        );
        println!(
            "most clients finish nearly at the same time: the p5-p95 spread is {:.0}% of the median",
            100.0 * s.p5_p95_spread_secs / s.median.as_secs_f64()
        );
    }

    // Figure 10: progress of a few selected clients (every 50th in the paper).
    let step = (report.participants / 8).max(1);
    println!("\nSelected client progress (Figure 10 samples):");
    for (i, c) in world.downloaders().enumerate().step_by(step) {
        let half = c.progress.time_to_reach(50.0);
        let done = c.progress.time_to_reach(100.0);
        println!(
            "  client {:5}: 50% at {} / 100% at {}",
            i,
            half.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
            done.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
        );
    }

    println!();
    println!(
        "{}",
        ascii_plot(
            "clients having completed the download (Figure 11 shape)",
            &world.completion_curve(),
            70,
            14
        )
    );
}
