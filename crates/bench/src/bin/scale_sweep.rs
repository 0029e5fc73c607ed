//! The standing scale/performance baseline: swarm, ping-mesh and gossip scenarios at
//! 10^3–10^5 virtual nodes (gossip also as one synchronised fan-out-16 burst) — plus the
//! protocol-depth A/B (`figure10-proto-*`: the fig10 swarm under burst loss with
//! fragmentation active, legacy vs AIMD congestion control) and the shard axis (the 50k
//! sharded-gossip configuration on 1 vs 2 event-loop threads and — full sweep only — a
//! 10^6-vnode sharded gossip on 4 threads) — each emitting
//! its `RunReport` under `results/` and summarized as `results/scale_sweep.csv` (which
//! carries a `shards` column).
//!
//! ```text
//! # full sweep (1k/10k/50k gossip, 1k/10k mesh and swarm, fig10 throughput pin):
//! cargo run --release -p p2plab-bench --bin scale_sweep
//! # CI smoke: same scenarios under per-scenario event budgets and a global wall-clock cap,
//! # exits non-zero if a scenario exhausts its budget or the cap is blown (a queue or
//! # livelock regression fails CI instead of hanging it):
//! cargo run --release -p p2plab-bench --bin scale_sweep -- --smoke
//! ```
//!
//! The fig10-configuration run doubles as the **throughput pin**: when the baseline report
//! (`results/scale_sweep/fig10-1439-clients.baseline.report.json`) is present, the sweep
//! prints the events/sec speedup against it and asserts the event counts are equal. The pin
//! restarts at PR 16, which corrected the BitTorrent client's request bookkeeping and so moved
//! every swarm's event order (34,059,056 → 34,655,558 events): the baseline is that commit's
//! own run, and speedups are relative to it. Perf-relevant changes are expected to include a
//! before/after `scale_sweep` report in the PR.

use p2plab_bench::{write_results_file, write_run_report};
use p2plab_core::{
    render_table, run_reported, ArrivalSpec, DhtLookupSpec, DhtLookupWorkload, GossipShardedSpec,
    GossipShardedWorkload, GossipSpec, GossipWorkload, PingMeshSpec, PingMeshWorkload, RunReport,
    ScenarioBuilder, SwarmExperiment,
};
use p2plab_net::{AccessLinkClass, BurstLoss, CcKind, LinkCondition, TopologySpec};
use p2plab_sim::{RunOutcome, SimDuration};
use std::time::Instant;

/// Global wall-clock cap for the smoke sweep. CI fails rather than hangs.
const SMOKE_WALL_CAP_SECS: u64 = 1200;

struct SweepRow {
    scenario: String,
    workload: &'static str,
    vnodes: usize,
    shards: usize,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    outcome: RunOutcome,
}

fn record(
    rows: &mut Vec<SweepRow>,
    workload: &'static str,
    vnodes: usize,
    shards: usize,
    report: &RunReport,
) {
    write_run_report("scale", report);
    println!(
        "[{}] {}: {} events in {:.1}s = {:.0} events/sec on {} shard(s) ({:?})",
        workload,
        report.scenario,
        report.events_executed,
        report.wall_secs,
        report.events_per_sec,
        shards,
        report.outcome
    );
    rows.push(SweepRow {
        scenario: report.scenario.clone(),
        workload,
        vnodes,
        shards,
        events: report.events_executed,
        wall_secs: report.wall_secs,
        events_per_sec: report.events_per_sec,
        outcome: report.outcome,
    });
}

/// Gossip at `nodes` vnodes joining `spacing` apart, then epidemic broadcast to completion.
fn gossip(name: &str, nodes: usize, fanout: usize, spacing: SimDuration, smoke: bool) -> RunReport {
    let machines = (nodes / 64).max(1);
    let mut spec = GossipSpec::new(nodes);
    spec.fanout = fanout;
    let ramp = spacing * nodes.saturating_sub(1) as u64;
    let mut b = ScenarioBuilder::new(
        name,
        TopologySpec::uniform(
            name,
            nodes,
            AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(5)),
        ),
    )
    .machines(machines)
    .arrivals(ArrivalSpec::ramp(SimDuration::ZERO, spacing))
    .deadline(ramp + SimDuration::from_secs(900))
    .sample_interval(SimDuration::from_secs(10))
    .monitor_resources(false)
    .seed(2006);
    if smoke {
        b = b.event_budget(150_000_000);
    }
    let scenario = b.build().expect("valid gossip scenario");
    let (result, report) = run_reported(&scenario, GossipWorkload::new(spec)).expect("gossip runs");
    assert!(
        result.finished,
        "gossip at {nodes} vnodes did not fully disseminate: {}",
        result.summary()
    );
    report
}

/// Sharded gossip at `nodes` vnodes across `shards` event-loop threads: the shard-native
/// epidemic broadcast over the conservative-lookahead runtime. The same configuration is run
/// at several shard counts — event counts must match exactly (the runtime is
/// partition-invariant), while events/sec is the standing multi-core scaling evidence.
fn gossip_sharded(nodes: usize, shards: usize, smoke: bool) -> RunReport {
    let name = format!("scale-gossip-sharded-{nodes}x{shards}");
    let machines = (nodes / 64).max(1);
    let mut spec = GossipShardedSpec::new(nodes);
    spec.fanout = 2;
    // Tighter arrival spacing at the million-node scale: a 2 ms ramp would stretch the join
    // phase to half an hour of virtual time and drown the dissemination in offline pushes.
    let spacing = if nodes >= 1_000_000 {
        SimDuration::from_micros(10)
    } else {
        SimDuration::from_millis(2)
    };
    let ramp = spacing * nodes.saturating_sub(1) as u64;
    let mut b = ScenarioBuilder::new(
        &name,
        TopologySpec::uniform(
            &name,
            nodes,
            AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(5)),
        ),
    )
    .machines(machines)
    .arrivals(ArrivalSpec::ramp(SimDuration::ZERO, spacing))
    .deadline(ramp + SimDuration::from_secs(900))
    .sample_interval(SimDuration::from_secs(10))
    .monitor_resources(false)
    .seed(2006)
    .shards(shards);
    if smoke {
        b = b.event_budget(150_000_000);
    }
    let scenario = b.build().expect("valid sharded gossip scenario");
    let (result, report) =
        run_reported(&scenario, GossipShardedWorkload::new(spec)).expect("sharded gossip runs");
    assert!(
        result.time_to_full.is_some(),
        "sharded gossip at {nodes} vnodes x {shards} shard(s) did not fully disseminate \
         ({} informed)",
        result.informed
    );
    report
}

/// Ping mesh (ring pattern) at `nodes` vnodes.
fn ping_mesh(nodes: usize, smoke: bool) -> RunReport {
    let name = format!("scale-mesh-{nodes}");
    let machines = (nodes / 64).max(1);
    let mesh = PingMeshSpec::ring(nodes);
    let mut b = ScenarioBuilder::new(
        &name,
        TopologySpec::uniform(
            &name,
            nodes,
            AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(5)),
        ),
    )
    .machines(machines)
    .deadline(mesh.arrival_ramp() + SimDuration::from_secs(120))
    .sample_interval(SimDuration::from_secs(10))
    .monitor_resources(false)
    .seed(2006);
    if smoke {
        b = b.event_budget(20_000_000);
    }
    let scenario = b.build().expect("valid mesh scenario");
    let (result, report) = run_reported(&scenario, PingMeshWorkload::new(mesh)).expect("mesh runs");
    assert!(
        result.finished,
        "ping mesh at {nodes} vnodes incomplete: {}",
        result.summary()
    );
    report
}

/// DHT lookups at `nodes` vnodes: one Kademlia-style iterative lookup per node, over the typed
/// RPC layer (the session/lane API's hot path at scale).
fn dht(nodes: usize, smoke: bool) -> RunReport {
    let name = format!("scale-dht-{nodes}");
    let machines = (nodes / 64).max(1);
    let spec = DhtLookupSpec::new(nodes);
    let ramp = spec.arrival_ramp();
    let mut b = ScenarioBuilder::new(
        &name,
        TopologySpec::uniform(
            &name,
            nodes,
            AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(5)),
        ),
    )
    .machines(machines)
    .deadline(ramp + SimDuration::from_secs(300))
    .sample_interval(SimDuration::from_secs(10))
    .monitor_resources(false)
    .seed(2006);
    if smoke {
        b = b.event_budget(50_000_000);
    }
    let scenario = b.build().expect("valid dht scenario");
    let (result, report) = run_reported(&scenario, DhtLookupWorkload::new(spec)).expect("dht runs");
    assert!(
        result.finished,
        "dht at {nodes} vnodes incomplete: {}",
        result.summary()
    );
    assert_eq!(
        result.found_closest,
        result.completed,
        "loss-free iterative lookups must all converge: {}",
        result.summary()
    );
    report
}

/// BitTorrent swarm with `clients` downloaders sharing a 1 MiB file (small on purpose: the
/// sweep measures the emulation hot path at client scale, not BitTorrent's long tail).
fn swarm(clients: usize, smoke: bool) -> RunReport {
    let name = format!("scale-swarm-{clients}");
    let mut cfg = SwarmExperiment::paper_figure10(1.0);
    cfg.name = name.clone();
    cfg.leechers = clients;
    cfg.seeders = (clients / 200).max(4);
    cfg.machines = ((clients + cfg.seeders + 1) as f64 / 32.0).ceil() as usize;
    cfg.file_bytes = 1024 * 1024;
    cfg.start_interval = SimDuration::from_millis(50);
    cfg.deadline = SimDuration::from_secs(1500);
    let mut scenario = cfg.to_scenario();
    if smoke {
        scenario.event_budget = Some(100_000_000);
    }
    let (result, report) = run_reported(&scenario, cfg.workload()).expect("swarm runs");
    // At 10^4 clients a handful of late joiners can stay starved of unchoke slots past the
    // deadline — protocol tail behaviour, not an emulation failure. The sweep demands
    // near-total completion; anything below that points at a real regression.
    let fraction = result.completed as f64 / clients as f64;
    assert!(
        fraction >= 0.995,
        "swarm with {clients} clients only {:.2}% complete: {}",
        fraction * 100.0,
        result.summary()
    );
    report
}

/// The fig10 throughput pin: the paper's Figure 10 swarm at quarter scale (1439 clients,
/// 16 MiB file) — the configuration whose events/sec is compared against the committed
/// baseline report.
fn fig10_pin(smoke: bool) -> RunReport {
    let cfg = SwarmExperiment::paper_figure10(0.25);
    let mut scenario = cfg.to_scenario();
    if smoke {
        scenario.event_budget = Some(120_000_000);
    }
    let (result, report) = run_reported(&scenario, cfg.workload()).expect("fig10 runs");
    assert!(
        result.finished,
        "fig10 pin did not finish: {}",
        result.summary()
    );
    report
}

/// The protocol-depth A/B on the fig10 configuration: the same swarm at 1/50 scale with the
/// transport layer active (1500-byte MTU fragmentation, ack bitfields) over burst-conditioned
/// access links, run once per congestion controller. Rides next to the untouched fig10 pin in
/// the same sweep — proof that the legacy wire path the pin depends on and the protocol-depth
/// path coexist, and a standing record of what each controller costs under burst loss.
fn fig10_proto(kind: CcKind, smoke: bool) -> RunReport {
    let mut cfg = SwarmExperiment::paper_figure10(0.02);
    cfg.name = format!("figure10-proto-{}", kind.name());
    // A 2 MiB file keeps the A/B affordable: AIMD reads the Gilbert–Elliott bursts as
    // congestion and throttles to a small window, so full-size fig10 transfers would dominate
    // the sweep's wall time without changing the comparison.
    cfg.file_bytes = 2 * 1024 * 1024;
    cfg.deadline = SimDuration::from_secs(20_000);
    cfg.link = cfg.link.with_condition(Some(
        LinkCondition::none().with_burst(BurstLoss::new(0.02, 0.25, 0.9)),
    ));
    let mut scenario = cfg.to_scenario();
    scenario.network.transport.mtu = Some(1500);
    scenario.network.transport.congestion = kind;
    if smoke {
        scenario.event_budget = Some(120_000_000);
    }
    let leechers = cfg.leechers;
    let (result, report) = run_reported(&scenario, cfg.workload()).expect("proto runs");
    let fraction = result.completed as f64 / leechers as f64;
    assert!(
        fraction >= 0.99,
        "fig10-proto-{} swarm only {:.2}% complete: {}",
        kind.name(),
        fraction * 100.0,
        result.summary()
    );
    report
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    #[expect(
        clippy::disallowed_methods,
        reason = "the sweep's wall cap is real time by definition"
    )]
    let sweep_start = Instant::now();
    let mut rows: Vec<SweepRow> = Vec::new();

    for nodes in [1_000, 10_000] {
        let report = ping_mesh(nodes, smoke);
        record(&mut rows, "ping-mesh", nodes, 1, &report);
    }
    for nodes in [1_000, 10_000, 50_000] {
        // Fanout 2, not the default 3: dissemination still completes at scale, with fewer
        // duplicate rumors clogging the sweep.
        let name = format!("scale-gossip-{nodes}");
        let report = gossip(&name, nodes, 2, SimDuration::from_millis(2), smoke);
        record(&mut rows, "gossip", nodes, 1, &report);
    }
    // The burst row: everyone present within 50 ms and pushing to 16 peers, so each round's
    // rumors land bunched in a few wheel ticks — thousands of events due at once. A due set
    // that costs more than O(log n) per event shows here (and in the smoke wall cap) first.
    let burst = SimDuration::from_micros(1);
    let report = gossip("scale-gossip-burst-50000", 50_000, 16, burst, smoke);
    record(&mut rows, "gossip", 50_000, 1, &report);
    // The shard axis: the same 50k-vnode sharded-gossip configuration on 1 vs 2 event-loop
    // threads. Event counts must agree exactly (partition invariance); the events/sec pair is
    // the standing multi-core scaling evidence.
    let mut sharded_pair = Vec::new();
    for shards in [1usize, 2] {
        let report = gossip_sharded(50_000, shards, smoke);
        record(&mut rows, "gossip-sharded", 50_000, shards, &report);
        sharded_pair.push(report);
    }
    assert_eq!(
        sharded_pair[0].events_executed, sharded_pair[1].events_executed,
        "sharded gossip event count depends on the shard count — partition invariance broke"
    );
    println!(
        "sharded gossip 50k: {:.0} events/s at 1 shard vs {:.0} events/s at 2 shards = {:.2}x",
        sharded_pair[0].events_per_sec,
        sharded_pair[1].events_per_sec,
        sharded_pair[1].events_per_sec / sharded_pair[0].events_per_sec.max(1e-9)
    );
    // The million-vnode demonstrator is full-sweep only: it clears the smoke budget with room
    // to spare, but its wall time has no place in a CI gate.
    if !smoke {
        let report = gossip_sharded(1_000_000, 4, smoke);
        record(&mut rows, "gossip-sharded", 1_000_000, 4, &report);
    }
    for nodes in [1_000, 10_000] {
        let report = dht(nodes, smoke);
        record(&mut rows, "dht-lookup", nodes, 1, &report);
    }
    for clients in [1_000, 10_000] {
        let report = swarm(clients, smoke);
        record(&mut rows, "swarm", clients, 1, &report);
    }
    let fig10 = fig10_pin(smoke);
    record(&mut rows, "swarm", fig10.vnodes, 1, &fig10);
    for kind in [CcKind::Legacy, CcKind::Aimd] {
        let report = fig10_proto(kind, smoke);
        record(&mut rows, "swarm-proto", report.vnodes, 1, &report);
    }

    // Summary table + CSV artifact.
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.workload.to_string(),
                r.vnodes.to_string(),
                r.shards.to_string(),
                r.events.to_string(),
                format!("{:.1}", r.wall_secs),
                format!("{:.0}", r.events_per_sec),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            "Scale sweep",
            &["scenario", "workload", "vnodes", "shards", "events", "wall_s", "events/s"],
            &table_rows,
        )
    );
    let mut csv = String::from("scenario,workload,vnodes,shards,events,wall_secs,events_per_sec\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{:.3},{:.0}\n",
            r.scenario, r.workload, r.vnodes, r.shards, r.events, r.wall_secs, r.events_per_sec
        ));
    }
    write_results_file("scale_sweep.csv", &csv);

    // Throughput pin against the committed baseline, when present.
    let baseline_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/scale_sweep/fig10-1439-clients.baseline.report.json");
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match RunReport::from_json(&text) {
            Ok(baseline) => {
                let speedup = fig10.events_per_sec / baseline.events_per_sec.max(1e-9);
                println!(
                    "fig10 throughput pin: {:.0} events/s vs baseline {:.0} events/s = {speedup:.2}x",
                    fig10.events_per_sec, baseline.events_per_sec
                );
                assert_eq!(
                    baseline.events_executed, fig10.events_executed,
                    "fig10 event count drifted from the baseline — the runs are no longer \
                     comparable (determinism regression?)"
                );
            }
            Err(e) => println!("[warn] baseline report unreadable: {e}"),
        },
        Err(_) => println!(
            "[note] no baseline report at {}; skipping the throughput comparison",
            baseline_path.display()
        ),
    }

    // Smoke-mode gate: every scenario must have completed within its event budget, and the
    // whole sweep under the wall cap.
    let wall = sweep_start.elapsed().as_secs();
    println!("sweep wall time: {wall}s");
    if smoke {
        let exhausted: Vec<&str> = rows
            .iter()
            .filter(|r| r.outcome == RunOutcome::EventBudgetExhausted)
            .map(|r| r.scenario.as_str())
            .collect();
        assert!(
            exhausted.is_empty(),
            "scenarios exhausted their event budget: {exhausted:?}"
        );
        assert!(
            wall < SMOKE_WALL_CAP_SECS,
            "smoke sweep took {wall}s (cap {SMOKE_WALL_CAP_SECS}s) — hot-path regression?"
        );
    }
    println!("scale sweep complete: {} scenarios", rows.len());
}
