//! Figure 8: evolution of the download of 160 BitTorrent clients (16 MB file, 4 seeders,
//! DSL-like links, clients started every 10 s, one client per physical node).
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin fig8_swarm_progress [scale]
//! ```
//!
//! The optional `scale` argument (0..1] shrinks the number of clients proportionally; the
//! default runs `examples/scenarios/paper_fig8.toml` as it stands: the paper's 160 clients.

use p2plab_bench::{arg_scale, run_swarm, write_results_file};
use p2plab_core::{ascii_plot, completion_summary, download_phases, series_to_csv, ScenarioFile};
use p2plab_sim::{SimDuration, SimTime, TimeSeries};

const PAPER_FIG8: &str = include_str!("../../../../examples/scenarios/paper_fig8.toml");

fn main() {
    let scale = arg_scale(1.0, 0.05);
    // One virtual node per machine: the clients, 4 seeders and the tracker.
    let leechers = ((160.0 * scale).round() as usize).max(8);
    let overrides = format!(
        "scenario.name = \"figure8-{leechers}-clients\"\nscenario.machines = {}\n\
         workload.swarm.leechers = {leechers}\n",
        leechers + 5
    );
    let file = ScenarioFile::parse_with(PAPER_FIG8, &overrides).expect("paper_fig8.toml parses");
    println!("Figure 8: 16 MB file, DSL 2 Mbps/128 kbps/30 ms");
    let (world, report) = run_swarm(&file);
    println!();

    let times = world.completion_times();
    if let Some(s) = completion_summary(&times) {
        println!(
            "completions: first {} / median {} / last {}",
            s.first, s.median, s.last
        );
    }
    if let Some(p) = download_phases(&times, report.progress()) {
        println!("download phases (as read off the curves):");
        println!(
            "  1. seeders-only uploading until about {}",
            p.seeder_only_until
        );
        println!(
            "  2. downloaders contributing to each other until {}",
            p.first_completion
        );
        println!(
            "  3. finished clients seeding the rest until {}",
            p.last_completion
        );
    }

    // The figure plots every client's progress; print a sample of clients and write all curves
    // to CSV for plotting.
    let progress: Vec<&TimeSeries> = world.downloaders().map(|c| &c.progress).collect();
    println!("\nSelected clients (percent done at 500 s / 1000 s / 1500 s, completion time):");
    let step = (progress.len() / 10).max(1);
    for (i, p) in progress.iter().enumerate().step_by(step) {
        println!(
            "  client {:3}: {:5.1}% {:6.1}% {:6.1}%   done at {}",
            i,
            p.value_at(SimTime::from_secs(500), 0.0),
            p.value_at(SimTime::from_secs(1000), 0.0),
            p.value_at(SimTime::from_secs(1500), 0.0),
            p.time_to_reach(100.0)
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }

    let names: Vec<String> = (0..progress.len()).map(|i| format!("client{i}")).collect();
    let series: Vec<(&str, &TimeSeries)> = names
        .iter()
        .map(|n| n.as_str())
        .zip(progress.iter().copied())
        .collect();
    let csv = series_to_csv(&series, SimDuration::from_secs(20), report.stopped_at);
    write_results_file("fig8_progress.csv", &csv);

    println!();
    println!(
        "{}",
        ascii_plot(
            "median client progress shape (percent)",
            &median_curve(&progress, report.stopped_at),
            70,
            12
        )
    );
    println!("Paper: all three phases of a BitTorrent download are visible, and clients finish around 1500-2000 s.");
}

/// A "median client" curve: every progress curve sampled on a 20 s grid up to `end`.
fn median_curve(progress: &[&TimeSeries], end: SimTime) -> TimeSeries {
    let mut out = TimeSeries::new();
    let step = SimDuration::from_secs(20);
    let mut t = SimTime::ZERO;
    while t <= end {
        let mut vals: Vec<f64> = progress.iter().map(|p| p.value_at(t, 0.0)).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if !vals.is_empty() {
            out.push(t, vals[vals.len() / 2]);
        }
        t += step;
    }
    out
}
