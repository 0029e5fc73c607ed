//! Ablation: tit-for-tat choking vs no choking (every interested peer unchoked).
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin ablation_choking [scale]
//! ```
//!
//! The paper motivates emulation by noting that BitTorrent's reciprocation machinery is too
//! complex to model faithfully. This ablation shows the machinery matters: removing choking
//! changes how upload capacity is partitioned (every interested peer competes for each uploader's
//! access link at once) and with it the per-client completion profile. Both runs are
//! `examples/scenarios/paper_fig8.toml` at the given scale; the second swaps the swarm's
//! `SwarmSpec::choke` policy, which is not a scenario key.

use p2plab_bench::{arg_scale, run_swarm};
use p2plab_bittorrent::{no_choking, SwarmWorld};
use p2plab_core::{completion_summary, render_table, RunReport, ScenarioFile, WorkloadConfig};

const PAPER_FIG8: &str = include_str!("../../../../examples/scenarios/paper_fig8.toml");

fn main() {
    let scale = arg_scale(0.25, 0.05);
    let leechers = ((160.0 * scale).round() as usize).max(10);
    // One virtual node per machine: the clients, 4 seeders and the tracker.
    let file = |name: &str| {
        let overrides = format!(
            "scenario.name = \"{name}\"\nscenario.machines = {}\n\
             workload.swarm.leechers = {leechers}\n",
            leechers + 5
        );
        ScenarioFile::parse_with(PAPER_FIG8, &overrides).expect("paper_fig8.toml parses")
    };
    let with_choking = file("tit-for-tat");
    let mut without_choking = file("no-choking");
    if let WorkloadConfig::Swarm(swarm) = &mut without_choking.workload {
        swarm.choke = no_choking();
    }

    let a = run_swarm(&with_choking);
    let b = run_swarm(&without_choking);
    println!();

    let row = |(world, report): &(SwarmWorld, RunReport)| {
        let s = completion_summary(&world.completion_times());
        let peer_up: u64 = world.downloaders().map(|c| c.stats.bytes_uploaded).sum();
        let seeder_up = world.total_bytes_uploaded() - peer_up;
        vec![
            report.scenario.clone(),
            format!("{}/{}", world.completed_count(), report.participants),
            s.map(|s| format!("{:.0}", s.first.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            s.map(|s| format!("{:.0}", s.median.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            s.map(|s| format!("{:.0}", s.last.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            s.map(|s| format!("{:.0}", s.p5_p95_spread_secs))
                .unwrap_or_else(|| "-".into()),
            format!("{:.1}", seeder_up as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", peer_up as f64 / (1024.0 * 1024.0)),
        ]
    };
    println!(
        "{}",
        render_table(
            "Choking ablation",
            &[
                "policy",
                "completed",
                "first (s)",
                "median (s)",
                "last (s)",
                "p5-p95 (s)",
                "seeder up (MB)",
                "peer up (MB)"
            ],
            &[row(&a), row(&b)]
        )
    );
    println!(
        "Tit-for-tat concentrates each uploader's narrow 128 kbps uplink on a few peers at a time;"
    );
    println!("disabling it spreads the same capacity over every interested peer, changing the completion profile.");
}
