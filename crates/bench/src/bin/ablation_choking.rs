//! Ablation: tit-for-tat choking vs no choking (every interested peer unchoked).
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin ablation_choking [scale]
//! ```
//!
//! The paper motivates emulation by noting that BitTorrent's reciprocation machinery is too
//! complex to model faithfully. This ablation shows the machinery matters: removing choking
//! changes how upload capacity is partitioned (every interested peer competes for each uploader's
//! access link at once) and with it the per-client completion profile.

use p2plab_bench::{arg_scale, run_summary, write_run_report};
use p2plab_bittorrent::{no_choking, SwarmWorld};
use p2plab_core::{completion_summary, render_table, run_scenario, RunReport, SwarmExperiment};

fn main() {
    let scale = arg_scale(0.25, 0.05);
    let mut base = SwarmExperiment::paper_figure8();
    base.leechers = ((base.leechers as f64 * scale).round() as usize).max(10);
    base.machines = base.leechers + base.seeders + 1;

    let mut with_choking = base.clone();
    with_choking.name = "tit-for-tat".into();
    let mut without_choking = base.clone();
    without_choking.name = "no-choking".into();
    without_choking.client_config.choke = no_choking();

    println!(
        "running {} clients with tit-for-tat choking...",
        base.leechers
    );
    let a =
        run_scenario(&with_choking.to_scenario(), with_choking.workload()).expect("scenario runs");
    write_run_report(&a.1);
    println!("  {}", run_summary(&a.1));
    println!("running {} clients with choking disabled...", base.leechers);
    let b = run_scenario(&without_choking.to_scenario(), without_choking.workload())
        .expect("scenario runs");
    write_run_report(&b.1);
    println!("  {}\n", run_summary(&b.1));

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
