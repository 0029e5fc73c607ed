//! Folding-ratio study (the paper's Figure 9 at example scale).
//!
//! ```text
//! cargo run --release --example folding_ratio
//! ```
//!
//! P2PLab's key scalability claim is that running many virtual nodes per physical node does not
//! change application-level results. This example runs the same small swarm deployed on a
//! decreasing number of emulated physical machines and compares the "total data received by the
//! nodes" curves and the completion-time distributions against the unfolded baseline — twice:
//! once over the rich in-process `SwarmResult`s, and once over the workload-agnostic
//! `RunReport` artifacts alone, the way external tooling would after loading them from JSON.

use p2plab::core::{
    compare_folding, compare_folding_reports, render_table, run_reported, RunReport,
    SwarmExperiment,
};

fn main() {
    let base = SwarmExperiment::quick();
    let total_vnodes = base.total_vnodes();

    // Deploy the same swarm with 1, 5, 8 and 15 virtual nodes per machine.
    let ratios = [1usize, 5, 8, 15];
    let mut results = Vec::new();
    let mut reports: Vec<RunReport> = Vec::new();
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
        let (result, report) =
            run_reported(&cfg.to_scenario(), cfg.workload()).expect("scenario runs");
        results.push(result);
        reports.push(report);
    }

    let baseline = &results[0];
    let folded: Vec<&_> = results[1..].iter().collect();
    let cmp = compare_folding(baseline, &folded);

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

    // The same comparison from the run-report artifacts alone (after a JSON round-trip, to
    // prove the serialized form carries everything the analysis needs).
    let reloaded: Vec<RunReport> = reports
        .iter()
        .map(|r| RunReport::from_json(&r.to_json()).expect("report round-trips"))
        .collect();
    let folded_reports: Vec<&RunReport> = reloaded[1..].iter().collect();
    let by_reports = compare_folding_reports(
        &reloaded[0],
        &folded_reports,
        "progress",
        "completion_time_secs",
    )
    .expect("reports carry the folding metrics");
    println!(
        "same comparison from the serialized RunReports: worst-case deviation {:.2}%",
        100.0 * by_reports.worst_deviation()
    );
    assert!((by_reports.worst_deviation() - cmp.worst_deviation()).abs() < 1e-9);
}
