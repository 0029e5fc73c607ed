//! Ablation: pushing the folding ratio beyond the paper's 80:1 until the emulation's own
//! resources (the physical Gigabit NIC shared by the folded nodes) start to distort results.
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin ablation_folding_limit [scale]
//! ```
//!
//! The paper notes that the first limiting factor of the folding experiment was the platform's
//! Gigabit network, which saturates when the emulated links get faster. Here the access links
//! of `examples/scenarios/paper_fig8.toml` are made 10x faster than the paper's DSL profile
//! and the folding ratio is raised until the aggregate demand exceeds one machine's NIC, so the
//! deviation from the baseline becomes visible — the boundary of the approach.

use p2plab_bench::{arg_scale, run_swarm};
use p2plab_core::{compare_folding, render_table, ScenarioFile};

const PAPER_FIG8: &str = include_str!("../../../../examples/scenarios/paper_fig8.toml");

fn main() {
    let scale = arg_scale(0.25, 0.05);
    let leechers = ((160.0 * scale).round() as usize).max(16);
    // The clients, 4 seeders and the tracker.
    let total = leechers + 5;
    let ratios = [1usize, 10, 40, total];
    // Each run's report and the exact completion times of its downloaders.
    let mut runs = Vec::new();
    for &per_machine in &ratios {
        // 80 Mbps symmetric links: a few dozen folded nodes can demand several Gbps from one
        // NIC.
        let overrides = format!(
            "scenario.name = \"fast-links-{per_machine}-per-machine\"\n\
             scenario.machines = {}\n\
             topology.down_bps = 80_000_000\ntopology.up_bps = 80_000_000\n\
             topology.latency = \"15ms\"\n\
             workload.swarm.leechers = {leechers}\nworkload.swarm.file_bytes = 8_388_608\n\
             workload.swarm.start_interval = \"2s\"\n",
            total.div_ceil(per_machine)
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
                r.median_completion
                    .map(|t| format!("{:.0}s", t.as_secs_f64()))
                    .unwrap_or_else(|| "-".into()),
                format!("{:.0}%", 100.0 * r.completion_fraction),
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        render_table(
            "Folding beyond the paper: fast emulated links vs the shared physical Gigabit NIC",
            &[
                "clients/machine",
                "max curve deviation",
                "median completion",
                "completed"
            ],
            &rows
        )
    );
    println!("With faster emulated links, extreme folding makes the shared physical NIC the bottleneck and");
    println!(
        "the curves drift from the baseline — exactly the limit the paper reports hitting first."
    );
}
