//! Folding-ratio study (the paper's Figure 9 at example scale).
//!
//! ```text
//! cargo run --release --example folding_ratio
//! ```
//!
//! P2PLab's key scalability claim is that running many virtual nodes per physical node does not
//! change application-level results. This example runs the same small swarm deployed on a
//! decreasing number of emulated physical machines and compares the "total data received by the
//! nodes" curves and the completion-time distributions against the unfolded baseline. Each run
//! is its `RunReport` — here after a JSON round-trip, the way external tooling would load it —
//! plus the exact completion times read off the final swarm world.

use p2plab::core::{compare_folding, render_table, run_scenario, RunReport, SwarmExperiment};

fn main() {
    let base = SwarmExperiment::quick();
    let total_vnodes = base.total_vnodes();

    // Deploy the same swarm with 1, 5, 8 and 15 virtual nodes per machine.
    let ratios = [1usize, 5, 8, 15];
    let mut runs = Vec::new();
    for &per_machine in &ratios {
        let mut cfg = base.clone();
        cfg.machines = total_vnodes.div_ceil(per_machine);
        cfg.name = format!("folding-{per_machine}-per-machine");
        println!(
            "running {} ({} machines, folding {:.1}:1)...",
            cfg.name,
            cfg.machines,
            cfg.folding_ratio()
        );
        let (world, report) =
            run_scenario(&cfg.to_scenario(), cfg.workload()).expect("scenario runs");
        // The serialized report carries everything the comparison reads from it.
        let reloaded = RunReport::from_json(&report.to_json()).expect("report round-trips");
        runs.push((reloaded, world.completion_times()));
    }

    let runs: Vec<_> = runs.iter().map(|(r, t)| (r, t.as_slice())).collect();
    let cmp = compare_folding(runs[0], &runs[1..]);

    let rows: Vec<Vec<String>> = cmp
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.folding_ratio),
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
            &format!(
                "Folding invariance vs baseline ({:.1} virtual nodes per machine)",
                cmp.baseline_ratio
            ),
            &[
                "folding",
                "max curve deviation",
                "KS distance",
                "median completion",
                "completed"
            ],
            &rows,
        )
    );
    println!(
        "worst-case deviation over all folding ratios: {:.2}% of the total transferred data",
        100.0 * cmp.worst_deviation()
    );
    println!("(the paper reports 'nearly identical' curves up to 80 virtual nodes per machine)");
}
