//! Integration tests of the declarative scenario language (`p2plab::core::scenario::dsl`):
//! every checked-in example file parses and validates, error paths report a line and a key
//! path, and a property test pins the spec → TOML → spec round-trip.

use p2plab::core::{
    fmt_duration, parse_duration, parse_toml, ArrivalSpec, CampaignSpec, ScenarioFile,
    SessionProcess, WorkloadConfig, WORKLOAD_KINDS,
};
use p2plab::net::AccessLinkClass;
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

/// Every `.toml` file the repo ships — the example scenarios, the example campaigns (every
/// expanded cell) and the benchmark's workload files — parses and validates, so a DSL
/// regression fails here before it fails CI's `campaign validate` or the benchmark.
#[test]
fn every_checked_in_file_parses_and_validates() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for dir in [
        "examples/scenarios",
        "examples/campaigns",
        "benchmark/workloads",
    ] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("read {dir}: {e}"))
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "{dir} holds no .toml files");
        for path in paths {
            let text = std::fs::read_to_string(&path).unwrap();
            let table = parse_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            if CampaignSpec::is_campaign(&table) {
                let campaign = CampaignSpec::from_table(&table)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                let cells = campaign
                    .expand()
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert_eq!(cells.len(), campaign.cell_count(), "{}", path.display());
            } else {
                let file = ScenarioFile::from_table(&table)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                file.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            }
        }
    }
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

/// The paper's experiments are scenario files: Figure 8's (and Figure 9's baseline) and the
/// Figures 10-11 scalability run carry the paper's parameters.
#[test]
fn paper_scenario_files_carry_the_papers_parameters() {
    let swarm = |file: &ScenarioFile| match &file.workload {
        WorkloadConfig::Swarm(swarm) => swarm.clone(),
        other => panic!("{other:?}"),
    };
    let fig8 = ScenarioFile::parse(&example("scenarios/paper_fig8.toml")).unwrap();
    fig8.validate().unwrap();
    let s = swarm(&fig8);
    assert_eq!((s.leechers, s.seeders), (160, 4));
    assert_eq!(s.file_bytes, 16 * 1024 * 1024);
    assert_eq!(s.start_interval, SimDuration::from_secs(10));
    // One virtual node — client, seeder or tracker — per physical machine.
    assert_eq!(fig8.spec.topology.total_nodes(), s.total_vnodes());
    assert_eq!(fig8.spec.deployment.machines, s.total_vnodes());
    assert_eq!(fig8.spec.folding_ratio(), 1.0);
    // The DSL link of the paper, spelled as rates so an override can change them.
    let link = fig8.spec.topology.groups[0].link;
    assert_eq!(link, AccessLinkClass::bittorrent_dsl());

    let fig10 = ScenarioFile::parse(&example("scenarios/paper_fig10.toml")).unwrap();
    fig10.validate().unwrap();
    let s = swarm(&fig10);
    assert_eq!(s.total_vnodes(), 5759);
    assert_eq!(fig10.spec.topology.total_nodes(), 5759);
    assert_eq!(fig10.spec.deployment.machines, 180);
    assert!(fig10.spec.folding_ratio() <= 32.0);
    assert_eq!(s.start_interval, SimDuration::from_millis(250));
    assert_eq!(fig10.spec.topology.groups[0].link, link);
    assert_eq!(s.file_bytes, swarm(&fig8).file_bytes);
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

    /// spec → TOML → spec is the identity with a non-default value under every scalar key of
    /// every section: each workload kind, named vs explicit links, symmetric and directional
    /// conditioners, transport, every arrival and session kind (traces included) and every
    /// adversary selection mode.
    #[test]
    fn scenario_files_round_trip_through_toml(
        kind_ix in 0usize..5,
        nodes in 4u64..64,
        // TOML integers are i64, so file-expressible seeds top out at i64::MAX.
        seed in 0u64..i64::MAX as u64,
        // Every other value is derived from `n`, offset so none lands on its key's default.
        n in 1u64..1000,
        arrivals_ix in 0usize..5,
        sessions_ix in 0usize..4,
        selection_ix in 0usize..4,
        explicit_link in 0u64..2,
    ) {
        let kind = WORKLOAD_KINDS[kind_ix];
        let rate = n as f64 / 1000.0;
        let mut text = format!(
            "[scenario]\nname = \"prop-{kind}\"\nseed = {seed}\nmachines = {}\n\
             deadline = \"{}s\"\nsample_interval = \"{}ms\"\nmonitor_resources = false\n\
             event_budget = {}\nshards = {}\n",
            n % 7 + 2, n + 5000, n + 1, n + 3000, n % 3 + 2,
        );
        text.push_str(match arrivals_ix {
            0 => "",
            1 => "[arrivals]\nkind = \"poisson\"\nrate = 2.5\n",
            2 => "[arrivals]\nkind = \"ramp\"\nstart = \"3s\"\ninterval = \"250ms\"\n",
            3 => "[arrivals]\nkind = \"flash-crowd\"\ntrickle_rate = 0.5\ntrigger = \"30s\"\nburst_rate = 50.0\n",
            _ => "[arrivals]\nkind = \"trace\"\ntimes = [\"1s\", \"1500ms\", \"7us\"]\n",
        });
        text.push_str(match sessions_ix {
            0 => "",
            1 => "[sessions]\nkind = \"exponential\"\nmean_session = \"90s\"\nmean_downtime = \"45s\"\n",
            2 => "[sessions]\nkind = \"pareto\"\nscale_session = \"60s\"\nshape = 2.5\nmean_downtime = \"10s\"\n",
            _ => "[sessions]\nkind = \"trace\"\npairs = [[\"10s\", \"1s\"], [\"20500ms\", \"2s\"]]\n",
        });
        text.push_str(match selection_ix {
            0 => "",
            1 => "[adversary]\nfraction = 0.25\nbehaviors = [\"silent-drop\", \"equivocate\"]\n",
            2 => "[adversary]\nfraction = 0.5\nbehaviors = [\"amplify\"]\nselection = \"first\"\n",
            _ => "[adversary]\nbehaviors = [\"reply-delay\"]\nselection = \"trace\"\ntrace = [3, 1]\n",
        });
        text.push_str(&format!("[topology]\nnodes = {}\nloss = {rate}\n", nodes + 70));
        if explicit_link == 0 {
            text.push_str("link = \"wan-1m\"\n");
        } else {
            text.push_str(&format!("down_bps = {}\nup_bps = {}\nlatency = \"{n}us\"\n", 9_000_000 + n, 900_000 + n));
        }
        let r = (n + 1) as f64 / 2000.0;
        text.push_str(&format!(
            "[topology.condition]\njitter = \"{}us\"\nreorder_rate = {r}\nreorder_delay = \"{}ms\"\n\
             duplicate_rate = {}\nburst_enter = {}\nburst_exit = {}\nburst_loss = {}\n",
            n + 1, n + 2, r / 2.0, r / 4.0, r / 8.0 + 0.25, 1.0 - r,
        ));
        text.push_str(&format!(
            "[transport]\nmtu = {}\ncongestion = \"aimd\"\nreassembly_timeout = \"{}ms\"\n",
            n + 64, n + 1,
        ));
        text.push_str(&format!("[workload]\nkind = \"{kind}\"\n[workload.{kind}]\n"));
        text.push_str(&match kind {
            "swarm" => format!(
                "leechers = {nodes}\nseeders = {}\nfile_bytes = {}\nstart_interval = \"{}ms\"\n\
                 seeder_head_start = \"{}ms\"\n",
                n % 4 + 2, n + 1_000_000, n + 1, n + 7,
            ),
            "ping-mesh" => format!(
                "nodes = {nodes}\npattern = \"ring\"\npings_per_pair = {}\ninterval = \"{}ms\"\n\
                 settle = \"{}s\"\n",
                n + 6, n + 1, n,
            ),
            "gossip" | "gossip-sharded" => {
                let rounds = if kind == "gossip" { String::new() } else { format!("rounds = {n}\n") };
                format!(
                    "nodes = {nodes}\nfanout = {}\nround_interval = \"{}ms\"\nrumor_bytes = {}\n{rounds}",
                    n + 4, n + 1001, n + 257,
                )
            }
            _ => format!(
                "nodes = {nodes}\nlookups = {}\nalpha = {}\nk = {}\nrpc_timeout = \"{}ms\"\n\
                 lookup_interval = \"{}ms\"\n",
                nodes + n, n + 4, n + 9, n + 2001, n + 101,
            ),
        });
        let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        let emitted = file.to_toml();
        let reparsed = ScenarioFile::parse(&emitted)
            .unwrap_or_else(|e| panic!("emitted TOML must re-parse: {e}\n---\n{emitted}"));
        prop_assert_eq!(&reparsed, &file, "round-trip drift\n---\n{}", emitted);
        // Nothing above sits at its default, so a key the writer dropped (or the reader
        // ignored) would show here as a value that fell back.
        prop_assert_eq!(file.spec.seed, seed);
        prop_assert_eq!(file.spec.shards as u64, n % 3 + 2);
        prop_assert_eq!(file.spec.topology.total_nodes() as u64, nodes + 70);
        prop_assert_eq!(file.spec.network.transport.mtu, Some(n + 64));
        let link = file.spec.topology.groups[0].link;
        prop_assert_eq!(link.loss_rate, rate);
        prop_assert!(link.condition.is_some());
        prop_assert_eq!(file.spec.arrivals.is_some(), arrivals_ix > 0);
        prop_assert_eq!(file.spec.sessions.is_some(), sessions_ix > 0);
        prop_assert_eq!(file.spec.adversary.is_some(), selection_ix > 0);
    }
}
