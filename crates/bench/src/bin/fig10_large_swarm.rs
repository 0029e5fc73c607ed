//! Figures 10 and 11 from one run of the 5760-node scalability experiment (5754 clients +
//! 4 seeders + tracker on 180 machines, clients started every 0.25 s): the download progress
//! of selected clients (Figure 10) and the number of clients having completed over time
//! (Figure 11).
//!
//! ```text
//! # paper scale (5754 clients, 137.5 M events; 75–200 s and 115 MiB peak RSS on a 2-core host):
//! cargo run --release -p p2plab-bench --bin fig10_large_swarm -- 1.0
//! # default: 10% scale
//! cargo run --release -p p2plab-bench --bin fig10_large_swarm
//! ```
//!
//! The run is `examples/scenarios/paper_fig10.toml` with `round(5754 x scale)` clients on
//! `ceil(vnodes / 32)` machines; at scale 1 that is the file as it stands.

use p2plab_bench::{arg_scale, run_swarm, write_results_file};
use p2plab_core::{ascii_plot, completion_summary, series_to_csv, ScenarioFile};
use p2plab_sim::{SimDuration, SimTime, TimeSeries};

const PAPER_FIG10: &str = include_str!("../../../../examples/scenarios/paper_fig10.toml");

fn main() {
    let scale = arg_scale(0.1, 0.002);
    let leechers = ((5754.0 * scale).round() as usize).max(10);
    // 32 virtual nodes per machine: the clients, 4 seeders and the tracker.
    let overrides = format!(
        "scenario.name = \"figure10-{leechers}-clients\"\nscenario.machines = {}\n\
         workload.swarm.leechers = {leechers}\n",
        (leechers + 5).div_ceil(32)
    );
    let file = ScenarioFile::parse_with(PAPER_FIG10, &overrides).expect("paper_fig10.toml parses");
    println!("Figures 10 and 11: the scalability run");
    let (world, report) = run_swarm(&file);
    println!();

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

    // Figure 10. The paper plots clients 50, 100, 150, ... 5750; sample the same way, scaled.
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

    // Figure 11.
    let completion_curve = world.completion_curve();
    println!();
    println!(
        "{}",
        ascii_plot(
            "clients having completed the download",
            &completion_curve,
            72,
            16
        )
    );
    println!("Paper: the curve stays near zero for a long time, then rises very steeply around ~1800-2000 s");
    println!("because most clients complete nearly simultaneously.");
    write_results_file(
        "fig11_completion_curve.csv",
        &series_to_csv(
            &[("completed_clients", &completion_curve)],
            SimDuration::from_secs(10),
            report.stopped_at,
        ),
    );
}
