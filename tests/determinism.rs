//! Runtime determinism smoke: the dynamic complement of the `clippy.toml` bans.
//!
//! Clippy proves the *absence of known nondeterminism sources* (process-seeded hash maps,
//! wall-clock reads); this test checks the property those rules protect on a real run: the
//! same scenario cell with the same seed, executed twice in one process, produces
//! byte-identical `RunReport` metric output. Wall-clock fields (`wall_secs`,
//! `events_per_sec`) are the two sanctioned nondeterministic fields — they are zeroed before
//! comparison, exactly as the campaign summary excludes them.

use p2plab::core::{CampaignSpec, RunReport, ScenarioError};
use std::path::PathBuf;

fn ci_smoke() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/campaigns/ci_smoke.toml");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Zeroes the two wall-clock-derived fields; everything else must match to the byte.
fn canonical_bytes(mut report: RunReport) -> String {
    report.wall_secs = 0.0;
    report.events_per_sec = 0.0;
    report.to_json()
}

/// Runs the first cell of the CI smoke campaign twice in-process with the same seed: event
/// counts, stop time, outcome and the full metric set must serialize identically.
#[test]
fn same_seed_same_cell_yields_identical_report_bytes() {
    let campaign = CampaignSpec::parse(&ci_smoke()).expect("ci_smoke parses");
    let cells = campaign.expand().expect("ci_smoke expands");
    let cell = &cells[0];

    let first = cell.file.run().expect("first run");
    let second = cell.file.run().expect("second run");

    assert!(first.events_executed > 0, "smoke cell must execute events");
    let a = canonical_bytes(first);
    let b = canonical_bytes(second);
    assert!(
        a == b,
        "two same-seed runs of cell `{}` diverged — a nondeterminism source escaped the lint",
        cell.label
    );
}

/// The adversarial complement of the same-seed pin: byzantine behaviors draw from their own
/// split RNG streams, so an adversarial cell is exactly as reproducible as an honest one.
/// The CI smoke campaign's explicit `cell-byzantine` runs twice in-process and must
/// serialize identically — including the adversary counters and invariant tallies.
#[test]
fn same_seed_adversarial_cell_yields_identical_report_bytes() {
    let campaign = CampaignSpec::parse(&ci_smoke()).expect("ci_smoke parses");
    let cells = campaign.expand().expect("ci_smoke expands");
    let cell = cells
        .iter()
        .find(|c| c.label == "cell-byzantine")
        .expect("ci_smoke carries a byzantine cell");
    assert!(cell.file.spec.adversary.is_some());

    let first = cell.file.run().expect("first adversarial run");
    let second = cell.file.run().expect("second adversarial run");

    assert!(
        first.metrics.counter("byzantine_msgs_sent").unwrap() > 0,
        "the adversary must actually act for this pin to mean anything"
    );
    assert_eq!(first.metrics.counter("invariant_violations"), Some(0));
    let a = canonical_bytes(first);
    let b = canonical_bytes(second);
    assert!(
        a == b,
        "two same-seed adversarial runs of `{}` diverged — a behavior drew outside its split stream",
        cell.label
    );
}

/// `shards` is an execution knob of shard-native workloads. The CI smoke's first cell is the
/// swarm, which has no sharded mode, so `shards = 4` there is rejected instead of silently
/// running on one thread; `tests/campaign.rs` pins shard-count invariance on the shard-native
/// byzantine cell.
#[test]
fn shards_on_a_workload_without_a_sharded_mode_are_rejected() {
    let campaign = CampaignSpec::parse(&ci_smoke()).expect("ci_smoke parses");
    let cells = campaign.expand().expect("ci_smoke expands");
    let cell = &cells[0];
    assert_eq!(cell.file.workload.kind(), "swarm");

    let mut sharded = cell.file.clone();
    sharded.spec.shards = 4;
    let err = sharded.run().expect_err("shards = 4 on the swarm cell");
    assert!(
        matches!(err, ScenarioError::ShardingUnsupported { .. }),
        "{err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("\"swarm\"") && msg.contains("shards = 4"),
        "{msg}"
    );
}
