//! Integration tests of the declarative scenario language (`p2plab::core::scenario::dsl`):
//! every checked-in example file parses and validates, error paths report a line and a key
//! path, and a property test pins the spec → TOML → spec round-trip.

use p2plab::core::{
    fmt_duration, parse_duration, ArrivalSpec, ScenarioFile, SessionProcess, WorkloadConfig,
    WORKLOAD_KINDS,
};
use p2plab::sim::SimDuration;
use proptest::prelude::*;
use std::path::PathBuf;

fn example(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every checked-in scenario example parses, validates, and together they cover the whole
/// workload registry — each workload kind is constructible from a file on disk.
#[test]
fn checked_in_examples_cover_every_workload_kind() {
    let files = [
        ("scenarios/swarm_quick.toml", "swarm"),
        ("scenarios/ping_mesh_ring.toml", "ping-mesh"),
        ("scenarios/gossip_flash_crowd.toml", "gossip"),
        ("scenarios/gossip_sharded.toml", "gossip-sharded"),
        ("scenarios/dht_lookup.toml", "dht-lookup"),
    ];
    let mut kinds: Vec<&str> = Vec::new();
    for (rel, expected_kind) in files {
        let file = ScenarioFile::parse(&example(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        file.validate().unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert_eq!(file.workload.kind(), expected_kind, "{rel}");
        kinds.push(file.workload.kind());
    }
    let mut registry = WORKLOAD_KINDS.to_vec();
    registry.sort_unstable();
    kinds.sort_unstable();
    assert_eq!(kinds, registry);
}

/// The golden examples pin their load-bearing fields, not just "parses".
#[test]
fn golden_example_fields() {
    let swarm = ScenarioFile::parse(&example("scenarios/swarm_quick.toml")).unwrap();
    assert_eq!(swarm.spec.deployment.machines, 4);
    assert_eq!(swarm.spec.seed, 7);
    // 12 leechers + 2 seeders + 1 tracker.
    assert_eq!(swarm.spec.topology.total_nodes(), 15);
    assert_eq!(swarm.spec.topology.groups[0].link.down_bps, 8_000_000);
    match &swarm.workload {
        WorkloadConfig::Swarm(cfg) => {
            assert_eq!(cfg.leechers, 12);
            assert_eq!(cfg.file_bytes, 2 * 1024 * 1024);
        }
        other => panic!("{other:?}"),
    }

    let gossip = ScenarioFile::parse(&example("scenarios/gossip_flash_crowd.toml")).unwrap();
    assert_eq!(gossip.spec.topology.groups[0].link.loss_rate, 0.01);
    assert!(matches!(
        gossip.spec.arrivals,
        Some(ArrivalSpec::FlashCrowd { .. })
    ));
    assert!(matches!(
        gossip.spec.sessions,
        Some(SessionProcess::Exponential { .. })
    ));
}

/// A swarm file's `[sessions]` block reaches the run: the scenario spec is the only place churn
/// lives, so the downloaders really depart, and the block survives the TOML round trip.
#[test]
fn swarm_file_sessions_churn_the_run_and_round_trip() {
    let text = example("scenarios/swarm_quick.toml")
        + "\n[sessions]\nkind = \"exponential\"\nmean_session = \"15s\"\nmean_downtime = \"30s\"\n";
    let file = ScenarioFile::parse(&text).unwrap();
    let report = file.run().unwrap();
    assert!(report.metrics.counter("churn_departures").unwrap() > 0);
    assert_eq!(ScenarioFile::parse(&file.to_toml()).unwrap(), file);
}

#[test]
fn unknown_keys_report_line_and_key_path() {
    let text = example("scenarios/dht_lookup.toml") + "surprise = 1\n";
    let lines = text.lines().count();
    let err = ScenarioFile::parse(&text).unwrap_err();
    assert_eq!(err.line, lines, "{err}");
    assert_eq!(err.path, "workload.dht-lookup.surprise", "{err}");
    assert!(err.message.contains("unknown key"), "{err}");
}

#[test]
fn bad_types_report_line_and_key_path() {
    let text = example("scenarios/ping_mesh_ring.toml").replace("nodes = 16", "nodes = \"lots\"");
    let err = ScenarioFile::parse(&text).unwrap_err();
    assert_eq!(err.path, "workload.ping-mesh.nodes", "{err}");
    assert!(err.line > 0, "{err}");
    assert!(err.message.contains("string"), "{err}");
}

#[test]
fn missing_required_fields_report_key_path() {
    let text =
        example("scenarios/gossip_flash_crowd.toml").replace("name = \"gossip-flash-crowd\"\n", "");
    let err = ScenarioFile::parse(&text).unwrap_err();
    assert_eq!(err.path, "scenario.name", "{err}");
    assert!(err.message.contains("missing"), "{err}");
}

proptest! {
    /// Durations survive format → parse for any nanosecond count.
    #[test]
    fn durations_round_trip(nanos in 0u64..u64::MAX / 2) {
        let d = SimDuration::from_nanos(nanos);
        prop_assert_eq!(parse_duration(&fmt_duration(d)).unwrap(), d);
    }

    /// spec → TOML → spec is the identity over a randomized slice of the scenario space:
    /// every workload kind, custom vs named links, loss, arrivals and sessions included.
    #[test]
    fn scenario_files_round_trip_through_toml(
        kind_ix in 0usize..5,
        nodes in 4u64..64,
        // TOML integers are i64, so file-expressible seeds top out at i64::MAX.
        seed in 0u64..i64::MAX as u64,
        deadline_secs in 10u64..5000,
        loss_pct in 0u64..20,
        flavor in 0u64..3,
    ) {
        let kind = WORKLOAD_KINDS[kind_ix];
        let loss = loss_pct as f64 / 100.0;
        let mut text = format!(
            "[scenario]\nname = \"prop-{kind}\"\nseed = {seed}\ndeadline = \"{deadline_secs}s\"\n"
        );
        // Flavor 1 adds arrivals, flavor 2 adds arrivals + sessions.
        if flavor >= 1 {
            text.push_str("[arrivals]\nkind = \"poisson\"\nrate = 2.5\n");
        }
        if flavor == 2 {
            text.push_str(
                "[sessions]\nkind = \"pareto\"\nscale_session = \"60s\"\nshape = 2.5\nmean_downtime = \"10s\"\n",
            );
        }
        text.push_str("[topology]\n");
        if loss_pct % 2 == 0 {
            text.push_str("link = \"dsl-8m\"\n");
        } else {
            text.push_str("down_bps = 9_000_000\nup_bps = 900_000\nlatency = \"7ms\"\n");
        }
        if loss > 0.0 {
            text.push_str(&format!("loss = {loss}\n"));
        }
        text.push_str(&format!("[workload]\nkind = \"{kind}\"\n[workload.{kind}]\n"));
        match kind {
            "swarm" => text.push_str(&format!("leechers = {nodes}\n")),
            _ => text.push_str(&format!("nodes = {nodes}\n")),
        }
        let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        let emitted = file.to_toml();
        let reparsed = ScenarioFile::parse(&emitted)
            .unwrap_or_else(|e| panic!("emitted TOML must re-parse: {e}\n---\n{emitted}"));
        prop_assert_eq!(&reparsed, &file, "round-trip drift\n---\n{}", emitted);
    }
}
