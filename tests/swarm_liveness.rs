//! Seed sweep of the swarm's liveness: at test scale, on every seed, every leecher finishes and
//! the run drains well before the deadline. A single seed samples the property; the request
//! ledger's drift bugs wedged one leecher one block short on 35 of these 1000 seeds, which only
//! a sweep sees.

use p2plab::core::{run_scenario, ScenarioFile, SwarmWorkload, WorkloadConfig};
use p2plab::sim::RunOutcome;

/// The paper's DSL swarm (`examples/scenarios/paper_fig8.toml`) at test scale: 24 downloaders
/// of a 2 MiB file folded onto 4 machines.
fn test_scale_swarm(seed: u64) -> ScenarioFile {
    let overrides = format!(
        "scenario.name = \"liveness-{seed}\"\nscenario.machines = 4\nscenario.seed = {seed}\n\
         workload.swarm.leechers = 24\nworkload.swarm.file_bytes = 2_097_152\n"
    );
    let text = include_str!("../examples/scenarios/paper_fig8.toml");
    ScenarioFile::parse_with(text, &overrides).expect("paper_fig8.toml parses")
}

fn assert_all_complete(seeds: std::ops::Range<u64>) {
    let stuck: Vec<String> = seeds
        .filter_map(|seed| {
            let file = test_scale_swarm(seed);
            let WorkloadConfig::Swarm(swarm) = file.workload else {
                panic!("paper_fig8.toml is a swarm scenario");
            };
            let (world, report) =
                run_scenario(&file.spec, SwarmWorkload::new(swarm)).expect("swarm runs");
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
