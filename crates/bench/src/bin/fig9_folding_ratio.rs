//! Figure 9: the folding-ratio experiment — the same 160-client download deployed on 160, 16,
//! 8, 4 and 2 physical machines (1 to 80 virtual nodes per machine); the total-data-received
//! curves must be nearly identical.
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin fig9_folding_ratio [scale]
//! ```
//!
//! Each run is `examples/scenarios/paper_fig8.toml` with the machine count (and, below scale
//! 1, the client count) overridden.

use p2plab_bench::{arg_scale, run_swarm, write_results_file};
use p2plab_core::{compare_folding, render_table, series_to_csv, ScenarioFile};
use p2plab_sim::{SimDuration, SimTime, TimeSeries};

const PAPER_FIG8: &str = include_str!("../../../../examples/scenarios/paper_fig8.toml");

fn main() {
    let scale = arg_scale(1.0, 0.05);
    let leechers = ((160.0 * scale).round() as usize).max(8);
    let ratios = [1usize, 10, 20, 40, 80];
    // Each run's report and the exact completion times of its downloaders.
    let mut runs = Vec::new();
    for &per_machine in &ratios {
        let mut name = format!("figure9-{per_machine}-per-machine");
        if scale < 1.0 {
            name += &format!("-{leechers}-clients");
        }
        // The clients, 4 seeders and the tracker.
        let machines = (leechers + 5).div_ceil(per_machine);
        let overrides = format!(
            "scenario.name = \"{name}\"\nscenario.machines = {machines}\n\
             workload.swarm.leechers = {leechers}\n"
        );
        let file =
            ScenarioFile::parse_with(PAPER_FIG8, &overrides).expect("paper_fig8.toml parses");
        let (world, report) = run_swarm(&file);
        runs.push((report, world.completion_times()));
    }

    let runs: Vec<_> = runs.iter().map(|(r, t)| (r, t.as_slice())).collect();
    let cmp = compare_folding(runs[0], &runs[1..]);
    let rows: Vec<Vec<String>> = cmp
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.folding_ratio),
                format!("{:.2}%", 100.0 * r.max_relative_deviation),
                format!("{:.3}", r.completion_ks_distance),
                r.median_completion
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "n/a".into()),
                format!("{:.0}%", 100.0 * r.completion_fraction),
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        render_table(
            "Figure 9: deviation of folded deployments from the 1-client-per-machine baseline",
            &[
                "clients/machine",
                "max curve deviation",
                "KS distance",
                "median completion",
                "completed"
            ],
            &rows
        )
    );
    println!(
        "worst-case deviation: {:.2}% of total data (paper: curves are 'nearly identical' up to 80:1,\n\
         limited only by the physical Gigabit network once emulated links get faster)",
        100.0 * cmp.worst_deviation()
    );

    let names: Vec<String> = runs
        .iter()
        .map(|(r, _)| format!("{:.0}_per_machine", r.folding_ratio))
        .collect();
    let series: Vec<(&str, &TimeSeries)> = names
        .iter()
        .map(|n| n.as_str())
        .zip(runs.iter().map(|(r, _)| r.progress()))
        .collect();
    let end: SimTime = runs.iter().map(|(r, _)| r.stopped_at).max().unwrap();
    write_results_file(
        "fig9_total_data.csv",
        &series_to_csv(&series, SimDuration::from_secs(20), end),
    );
}
