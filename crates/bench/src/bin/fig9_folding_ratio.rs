//! Figure 9: the folding-ratio experiment — the same 160-client download deployed on 160, 16,
//! 8, 4 and 2 physical machines (1 to 80 virtual nodes per machine); the total-data-received
//! curves must be nearly identical.
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin fig9_folding_ratio [scale]
//! ```

use p2plab_bench::{arg_scale, write_results_file, write_run_report};
use p2plab_core::{compare_folding, render_table, run_reported, series_to_csv, SwarmExperiment};
use p2plab_sim::SimDuration;

fn main() {
    let scale = arg_scale(1.0, 0.05);
    let ratios = [1usize, 10, 20, 40, 80];
    let mut results = Vec::new();
    for &per_machine in &ratios {
        let mut cfg = SwarmExperiment::paper_figure9(per_machine);
        if scale < 1.0 {
            cfg.leechers = ((cfg.leechers as f64 * scale).round() as usize).max(8);
            let total = cfg.leechers + cfg.seeders + 1;
            cfg.machines = total.div_ceil(per_machine);
            cfg.name = format!("figure9-{per_machine}-per-machine-{}-clients", cfg.leechers);
        }
        println!(
            "running {} ({} machines, folding {:.1}:1)...",
            cfg.name,
            cfg.machines,
            cfg.folding_ratio()
        );
        let (r, report) = run_reported(&cfg.to_scenario(), cfg.workload()).expect("scenario runs");
        write_run_report(&report);
        println!(
            "  {} (peak NIC utilization {:.0}%)",
            r.summary(),
            100.0 * r.peak_nic_utilization
        );
        results.push(r);
    }

    let baseline = &results[0];
    let folded: Vec<&_> = results[1..].iter().collect();
    let cmp = compare_folding(baseline, &folded);
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

    let names: Vec<String> = results
        .iter()
        .map(|r| format!("{:.0}_per_machine", r.folding_ratio))
        .collect();
    let series: Vec<(&str, &p2plab_sim::TimeSeries)> = names
        .iter()
        .map(|n| n.as_str())
        .zip(results.iter().map(|r| &r.total_downloaded))
        .collect();
    let end = results.iter().map(|r| r.stopped_at).max().unwrap();
    write_results_file(
        "fig9_total_data.csv",
        &series_to_csv(&series, SimDuration::from_secs(20), end),
    );
}
