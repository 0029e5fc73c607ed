//! Figure 10: download progress of selected clients in the 5760-node scalability run
//! (5754 clients + 4 seeders + tracker on 180 machines, clients started every 0.25 s).
//!
//! ```text
//! # paper scale (5754 clients, 137.5 M events; 140 s and 641 MiB peak RSS on a 2-core host):
//! cargo run --release -p p2plab-bench --bin fig10_large_swarm -- 1.0
//! # default: 10% scale
//! cargo run --release -p p2plab-bench --bin fig10_large_swarm
//! ```

use p2plab_bench::{arg_scale, run_summary, write_results_file, write_run_report};
use p2plab_core::{completion_summary, run_scenario, series_to_csv, SwarmExperiment};
use p2plab_sim::{SimDuration, SimTime, TimeSeries};

fn main() {
    let scale = arg_scale(0.1, 0.002);
    let cfg = SwarmExperiment::paper_figure10(scale);
    println!(
        "Figure 10: {} clients + {} seeders on {} machines ({:.0} virtual nodes per machine), start interval {}",
        cfg.leechers,
        cfg.seeders,
        cfg.machines,
        cfg.folding_ratio(),
        cfg.start_interval
    );
    let (world, report) = run_scenario(&cfg.to_scenario(), cfg.workload()).expect("scenario runs");
    write_run_report(&report);
    println!("{}", run_summary(&report));
    println!("simulation executed {} events\n", report.events_executed);

    if let Some(s) = completion_summary(&world.completion_times()) {
        println!(
            "completions: first {} / median {} / last {} (p5-p95 spread {:.0} s)",
            s.first, s.median, s.last, s.p5_p95_spread_secs
        );
        println!(
            "Paper observation: 'most clients finish their downloads nearly at the same time' — here the\n\
             p5-p95 spread is {:.0}% of the median completion time.\n",
            100.0 * s.p5_p95_spread_secs / s.median.as_secs_f64()
        );
    }

    // The paper plots clients 50, 100, 150, ... 5750; sample the same way, scaled.
    let progress: Vec<&TimeSeries> = world.downloaders().map(|c| &c.progress).collect();
    let stride = (progress.len() / 115).max(1);
    println!("Selected clients (the paper samples every 50th client):");
    println!(
        "{:>8}  {:>10}  {:>10}  {:>10}",
        "client", "25% at", "75% at", "done at"
    );
    for (i, p) in progress.iter().enumerate().step_by(stride * 8) {
        let fmt = |t: Option<SimTime>| {
            t.map(|t| format!("{:.0}s", t.as_secs_f64()))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>8}  {:>10}  {:>10}  {:>10}",
            i,
            fmt(p.time_to_reach(25.0)),
            fmt(p.time_to_reach(75.0)),
            fmt(p.time_to_reach(100.0))
        );
    }

    let sampled: Vec<(String, &TimeSeries)> = progress
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(i, p)| (format!("client{i}"), *p))
        .collect();
    let series: Vec<(&str, &TimeSeries)> = sampled.iter().map(|(n, p)| (n.as_str(), *p)).collect();
    write_results_file(
        "fig10_selected_progress.csv",
        &series_to_csv(&series, SimDuration::from_secs(25), report.stopped_at),
    );
}
