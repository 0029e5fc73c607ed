//! Figure 11: number of clients having completed their download over time, for the large
//! scalability run of Figure 10.
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin fig11_completion_curve [scale]
//! ```

use p2plab_bench::{arg_scale, run_summary, write_results_file, write_run_report};
use p2plab_core::{ascii_plot, run_scenario, series_to_csv, SwarmExperiment};
use p2plab_sim::SimDuration;

fn main() {
    let scale = arg_scale(0.1, 0.002);
    let cfg = SwarmExperiment::paper_figure10(scale);
    println!(
        "Figure 11: completion curve of {} clients on {} machines",
        cfg.leechers, cfg.machines
    );
    let (world, report) = run_scenario(&cfg.to_scenario(), cfg.workload()).expect("scenario runs");
    write_run_report(&report);
    println!("{}\n", run_summary(&report));

    let completion_curve = world.completion_curve();
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
