//! Integration tests of the declarative scenario language (`p2plab::core::scenario::dsl`):
//! every checked-in example file parses and validates, `validate` refuses what a run refuses,
//! error paths report a line and a key path, and a property test pins every key to its place.

use p2plab::core::{
    parse_toml, AdversaryPlan, ArrivalSpec, CampaignSpec, DeploymentSpec, DhtLookupSpec,
    GossipShardedSpec, GossipSpec, MeshPattern, PingMeshSpec, ScenarioError, ScenarioFile,
    ScenarioSpec, Selection, SessionProcess, SwarmSpec, WorkloadConfig,
};
use p2plab::net::{
    AccessLinkClass, BurstLoss, CcKind, LinkCondition, NetworkConfig, TopologySpec, TransportConfig,
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
    let mut registry: Vec<&str> = WorkloadConfig::KINDS.iter().map(|&(k, _)| k).collect();
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
    assert_eq!(swarm.spec.topology.groups()[0].link.down_bps, 8_000_000);
    match &swarm.workload {
        WorkloadConfig::Swarm(cfg) => {
            assert_eq!(cfg.leechers, 12);
            assert_eq!(cfg.file_bytes, 2 * 1024 * 1024);
        }
        other => panic!("{other:?}"),
    }

    let gossip = ScenarioFile::parse(&example("scenarios/gossip_flash_crowd.toml")).unwrap();
    assert_eq!(gossip.spec.topology.groups()[0].link.loss_rate, 0.01);
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
    let link = fig8.spec.topology.groups()[0].link;
    assert_eq!(link, AccessLinkClass::bittorrent_dsl());

    let fig10 = ScenarioFile::parse(&example("scenarios/paper_fig10.toml")).unwrap();
    fig10.validate().unwrap();
    let s = swarm(&fig10);
    assert_eq!(s.total_vnodes(), 5759);
    assert_eq!(fig10.spec.topology.total_nodes(), 5759);
    assert_eq!(fig10.spec.deployment.machines, 180);
    assert!(fig10.spec.folding_ratio() <= 32.0);
    assert_eq!(s.start_interval, SimDuration::from_millis(250));
    assert_eq!(fig10.spec.topology.groups()[0].link, link);
    assert_eq!(s.file_bytes, swarm(&fig8).file_bytes);
}

/// A swarm file's `[sessions]` block reaches the run: the scenario spec is the only place churn
/// lives, so the downloaders really depart.
#[test]
fn swarm_file_sessions_churn_the_run() {
    let text = example("scenarios/swarm_quick.toml")
        + "\n[sessions]\nkind = \"exponential\"\nmean_session = \"15s\"\nmean_downtime = \"30s\"\n";
    let file = ScenarioFile::parse(&text).unwrap();
    let report = file.run().unwrap();
    assert!(report.metrics.counter("churn_departures").unwrap() > 0);
}

/// `validate` makes every check the run makes before it deploys anything: each shipped file
/// below, with one change, is refused by both with the same error.
#[test]
fn validate_rejects_what_run_rejects() {
    let sessions = "sessions.kind = \"exponential\"\nsessions.mean_session = \"60s\"\n\
                    sessions.mean_downtime = \"10s\"\n";
    let cases = [
        (
            "swarm_quick.toml",
            "scenario.shards = 2",
            "ShardingUnsupported",
        ),
        ("dht_lookup.toml", sessions, "ChurnUnsupported"),
        (
            "swarm_quick.toml",
            "scenario.deadline = \"5s\"",
            "DeadlineBeforeArrivalRamp",
        ),
        (
            "ping_mesh_ring.toml",
            "adversary.fraction = 0.25\nadversary.behaviors = [\"silent-drop\"]",
            "AdversaryUnsupported",
        ),
        (
            "gossip_sharded.toml",
            "topology.condition.jitter = \"1ms\"",
            "ShardingUnsupported",
        ),
    ];
    for (name, overrides, variant) in cases {
        let text = example(&format!("scenarios/{name}"));
        let file = ScenarioFile::parse_with(&text, overrides).unwrap();
        let refused = file.validate().expect_err(name);
        assert!(
            format!("{refused:?}").starts_with(variant),
            "{name}: {refused}"
        );
        assert_eq!(file.run().map(drop), Err(refused), "{name}");
    }
    let swarm = ScenarioFile::parse_with(
        &example("scenarios/swarm_quick.toml"),
        "scenario.deadline = \"5s\"",
    )
    .unwrap();
    // 5 s of seeder head start, then 11 more leechers 2 s apart.
    let (ramp, deadline) = (SimDuration::from_secs(27), SimDuration::from_secs(5));
    let refused = ScenarioError::DeadlineBeforeArrivalRamp { ramp, deadline };
    assert_eq!(swarm.validate(), Err(refused));
}

/// The swarm's seeders start a second apart, outside the arrival process: a deadline that
/// ends before the last of them is refused like one that ends before the last downloader.
#[test]
fn validate_holds_the_deadline_to_the_seeder_stagger() {
    let edit = |seeders: usize| {
        let overrides = format!(
            "workload.swarm.seeders = {seeders}\nworkload.swarm.leechers = 2\n\
             scenario.deadline = \"40s\""
        );
        ScenarioFile::parse_with(&example("scenarios/swarm_quick.toml"), &overrides).unwrap()
    };
    // Seeder 59 would start at 59 s; the downloaders' ramp ends at 7 s.
    let sixty = edit(60);
    let (ramp, deadline) = (SimDuration::from_secs(59), SimDuration::from_secs(40));
    let refused = ScenarioError::DeadlineBeforeArrivalRamp { ramp, deadline };
    assert_eq!(sixty.validate(), Err(refused.clone()));
    assert_eq!(sixty.run().map(drop), Err(refused));
    // Seeder 40 starts at the deadline, as late as a downloader may.
    assert_eq!(edit(41).validate(), Ok(()));
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
    /// The reader fills every place a key names: with a non-default value under every scalar
    /// key of every section, the parse equals the `ScenarioFile` built in Rust from the same
    /// drawn values. Covered: each workload kind, named vs explicit links, the conditioner,
    /// transport, every arrival and session kind (traces included) and every adversary
    /// selection mode.
    #[test]
    fn scenario_files_parse_to_their_model(
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
        let (us, ms, secs) = (SimDuration::from_micros, SimDuration::from_millis, SimDuration::from_secs);
        let kind = WorkloadConfig::KINDS[kind_ix].0;
        let name = format!("prop-{kind}");
        let rate = n as f64 / 1000.0;
        let mut text = format!(
            "[scenario]\nname = \"{name}\"\nseed = {seed}\nmachines = {}\n\
             deadline = \"{}s\"\nsample_interval = \"{}ms\"\nmonitor_resources = false\n\
             event_budget = {}\nshards = {}\n",
            n % 7 + 2, n + 5000, n + 1, n + 3000, n % 3 + 2,
        );
        let (arrivals_toml, arrivals) = match arrivals_ix {
            0 => ("", None),
            1 => ("[arrivals]\nkind = \"poisson\"\nrate = 2.5\n", Some(ArrivalSpec::poisson(2.5))),
            2 => (
                "[arrivals]\nkind = \"ramp\"\ninterval = \"250ms\"\n",
                Some(ArrivalSpec::ramp(SimDuration::ZERO, ms(250))),
            ),
            3 => (
                "[arrivals]\nkind = \"flash-crowd\"\ntrickle_rate = 0.5\ntrigger = \"30s\"\nburst_rate = 50.0\n",
                Some(ArrivalSpec::flash_crowd(0.5, secs(30), 50.0)),
            ),
            _ => (
                "[arrivals]\nkind = \"trace\"\ntimes = [\"1s\", \"1500ms\", \"7us\"]\n",
                Some(ArrivalSpec::trace(vec![secs(1), ms(1500), us(7)])),
            ),
        };
        text.push_str(arrivals_toml);
        let (sessions_toml, sessions) = match sessions_ix {
            0 => ("", None),
            1 => (
                "[sessions]\nkind = \"exponential\"\nmean_session = \"90s\"\nmean_downtime = \"45s\"\n",
                Some(SessionProcess::Exponential { mean_session: secs(90), mean_downtime: secs(45) }),
            ),
            2 => (
                "[sessions]\nkind = \"pareto\"\nscale_session = \"60s\"\nshape = 2.5\nmean_downtime = \"10s\"\n",
                Some(SessionProcess::Pareto { scale_session: secs(60), shape: 2.5, mean_downtime: secs(10) }),
            ),
            _ => (
                "[sessions]\nkind = \"trace\"\npairs = [[\"10s\", \"1s\"], [\"20500ms\", \"2s\"]]\n",
                Some(SessionProcess::Trace { pairs: vec![(secs(10), secs(1)), (ms(20500), secs(2))] }),
            ),
        };
        text.push_str(sessions_toml);
        let (adversary_toml, adversary) = match selection_ix {
            0 => ("", None),
            1 => (
                "[adversary]\nfraction = 0.25\nbehaviors = [\"silent-drop\", \"equivocate\"]\n",
                Some(AdversaryPlan::new(0.25, &["silent-drop", "equivocate"])),
            ),
            2 => (
                "[adversary]\nfraction = 0.5\nbehaviors = [\"amplify\"]\nselection = \"first\"\n",
                Some(AdversaryPlan { selection: Selection::First, ..AdversaryPlan::new(0.5, &["amplify"]) }),
            ),
            _ => (
                "[adversary]\nbehaviors = [\"reply-delay\"]\nselection = \"trace\"\ntrace = [3, 1]\n",
                Some(AdversaryPlan { selection: Selection::Trace(vec![3, 1]), ..AdversaryPlan::new(0.0, &["reply-delay"]) }),
            ),
        };
        text.push_str(adversary_toml);
        text.push_str(&format!("[topology]\nnodes = {}\nloss = {rate}\n", nodes + 70));
        let link = if explicit_link == 0 {
            text.push_str("link = \"wan-1m\"\n");
            AccessLinkClass::wan_1m()
        } else {
            text.push_str(&format!("down_bps = {}\nup_bps = {}\nlatency = \"{n}us\"\n", 9_000_000 + n, 900_000 + n));
            AccessLinkClass::new(9_000_000 + n, 900_000 + n, us(n))
        };
        let r = (n + 1) as f64 / 2000.0;
        text.push_str(&format!(
            "[topology.condition]\njitter = \"{}us\"\nreorder_rate = {r}\nreorder_delay = \"{}ms\"\n\
             duplicate_rate = {}\nburst_enter = {}\nburst_exit = {}\nburst_loss = {}\n",
            n + 1, n + 2, r / 2.0, r / 4.0, r / 8.0 + 0.25, 1.0 - r,
        ));
        let condition = LinkCondition {
            jitter: us(n + 1),
            reorder_rate: r,
            reorder_delay: ms(n + 2),
            duplicate_rate: r / 2.0,
            burst: Some(BurstLoss { enter: r / 4.0, exit: r / 8.0 + 0.25, loss: 1.0 - r }),
        };
        let link = AccessLinkClass { loss_rate: rate, condition: Some(condition), ..link };
        text.push_str(&format!("[transport]\nmtu = {}\ncongestion = \"aimd\"\n", n + 64));
        let transport = TransportConfig {
            mtu: Some(n + 64),
            congestion: CcKind::Aimd,
        };
        text.push_str(&format!("[workload]\nkind = \"{kind}\"\n[workload.{kind}]\n"));
        let size = nodes as usize;
        let (workload_toml, workload) = match kind {
            "swarm" => (
                format!(
                    "leechers = {nodes}\nseeders = {}\nfile_bytes = {}\nstart_interval = \"{}ms\"\n\
                     seeder_head_start = \"{}ms\"\n",
                    n % 4 + 2, n + 1_000_000, n + 1, n + 7,
                ),
                WorkloadConfig::Swarm(SwarmSpec {
                    seeders: (n % 4 + 2) as usize,
                    file_bytes: n + 1_000_000,
                    start_interval: ms(n + 1),
                    seeder_head_start: ms(n + 7),
                    ..SwarmSpec::new(size)
                }),
            ),
            "ping-mesh" => (
                format!(
                    "nodes = {nodes}\npattern = \"ring\"\npings_per_pair = {}\ninterval = \"{}ms\"\n\
                     settle = \"{}s\"\n",
                    n + 6, n + 1, n,
                ),
                WorkloadConfig::PingMesh(PingMeshSpec {
                    pings_per_pair: (n + 6) as usize,
                    interval: ms(n + 1),
                    settle: Some(secs(n)),
                    pattern: MeshPattern::Ring,
                    ..PingMeshSpec::full(size)
                }),
            ),
            "gossip" => (
                format!("nodes = {nodes}\nfanout = {}\n", n + 4),
                WorkloadConfig::Gossip(GossipSpec {
                    fanout: (n + 4) as usize,
                    ..GossipSpec::new(size)
                }),
            ),
            "gossip-sharded" => (
                format!("nodes = {nodes}\nfanout = {}\nrounds = {n}\n", n + 4),
                WorkloadConfig::GossipSharded(GossipShardedSpec {
                    fanout: (n + 4) as usize,
                    rounds: n as u32,
                    ..GossipShardedSpec::new(size)
                }),
            ),
            _ => (
                format!(
                    "nodes = {nodes}\nlookups = {}\nlookup_interval = \"{}ms\"\n",
                    nodes + n, n + 101,
                ),
                WorkloadConfig::DhtLookup(DhtLookupSpec {
                    lookups: (nodes + n) as usize,
                    lookup_interval: ms(n + 101),
                    ..DhtLookupSpec::new(size)
                }),
            ),
        };
        text.push_str(&workload_toml);
        let topology = TopologySpec::uniform(&name, (nodes + 70) as usize, link);
        let model = ScenarioFile {
            spec: ScenarioSpec {
                deployment: DeploymentSpec::new((n % 7 + 2) as usize),
                network: NetworkConfig { transport, ..NetworkConfig::default() },
                arrivals,
                sessions,
                adversary,
                deadline: secs(n + 5000),
                sample_interval: ms(n + 1),
                monitor_resources: false,
                event_budget: Some(n + 3000),
                shards: (n % 3 + 2) as usize,
                seed,
                ..ScenarioSpec::new(name, topology)
            },
            workload,
        };
        let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        prop_assert_eq!(file, model, "\n---\n{}", text);
    }
}
