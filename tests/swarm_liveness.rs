//! Seed sweep of the swarm's liveness: at test scale, on every seed, every leecher finishes and
//! the run drains well before the deadline. A single seed samples the property; the request
//! ledger's drift bugs wedged one leecher one block short on 35 of these 1000 seeds, which only
//! a sweep sees.

use p2plab::core::{run_scenario, SwarmExperiment};
use p2plab::sim::RunOutcome;

/// The paper's DSL swarm (Figure 8's profile) at test scale: 24 downloaders of a 2 MiB file
/// folded onto 4 machines.
fn test_scale_swarm(seed: u64) -> SwarmExperiment {
    let mut cfg = SwarmExperiment::paper_figure8();
    cfg.name = format!("liveness-{seed}");
    cfg.leechers = 24;
    cfg.machines = 4;
    cfg.file_bytes = 2 * 1024 * 1024;
    cfg.seed = seed;
    cfg
}

fn assert_all_complete(seeds: std::ops::Range<u64>) {
    let stuck: Vec<String> = seeds
        .filter_map(|seed| {
            let cfg = test_scale_swarm(seed);
            let (world, report) =
                run_scenario(&cfg.to_scenario(), cfg.workload()).expect("swarm runs");
            let ok = world.swarm_finished() && report.outcome == RunOutcome::Drained;
            (!ok).then(|| {
                format!(
                    "seed {seed}: {:?} at {}, {}/{} leechers done",
                    report.outcome,
                    report.stopped_at,
                    world.completed_count(),
                    report.participants
                )
            })
        })
        .collect();
    assert!(
        stuck.is_empty(),
        "{} seeds wedged:\n{}",
        stuck.len(),
        stuck.join("\n")
    );
}

#[test]
fn swarm_liveness_holds_on_200_seeds() {
    assert_all_complete(0..200);
}

/// The CI variant (`cargo test --release -- --ignored swarm_liveness`).
#[test]
#[ignore = "1000 seeds: run in release"]
fn swarm_liveness_holds_on_1000_seeds() {
    assert_all_complete(0..1000);
}
