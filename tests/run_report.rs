//! Integration tests of the unified metrics & run-report pipeline through the public facade:
//! every shipped workload must emit a `RunReport` whose JSON round-trips through the loader,
//! and the recorded metrics must agree with the final world the run hands back.

use p2plab::bittorrent::SwarmWorld;
use p2plab::core::{
    run_scenario, DeploymentSpec, DhtLookupSpec, DhtLookupWorkload, GossipSpec, GossipWorkload,
    PingMeshSpec, PingMeshWorkload, RunReport, ScenarioFile, ScenarioSpec, SwarmSpec,
    SwarmWorkload, WorkloadConfig,
};
use p2plab::net::{AccessLinkClass, TopologySpec};
use p2plab::sim::{MetricValue, RunOutcome, SimDuration};

/// `examples/scenarios/swarm_quick.toml` under `overrides`: the scenario and its swarm.
fn quick(overrides: &str) -> (ScenarioSpec, SwarmSpec) {
    let text = include_str!("../examples/scenarios/swarm_quick.toml");
    let file = ScenarioFile::parse_with(text, overrides).expect("swarm_quick.toml parses");
    let WorkloadConfig::Swarm(swarm) = file.workload else {
        panic!("swarm_quick.toml is a swarm scenario");
    };
    (file.spec, swarm)
}

/// `nodes` nodes on 50 Mbps / 2 ms links folded onto `machines`, sampled every second.
fn lan(
    name: &str,
    nodes: usize,
    machines: usize,
    deadline: SimDuration,
    seed: u64,
) -> ScenarioSpec {
    let link = AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(2));
    ScenarioSpec {
        deployment: DeploymentSpec::new(machines),
        deadline,
        sample_interval: SimDuration::from_secs(1),
        seed,
        ..ScenarioSpec::new(name, TopologySpec::uniform(name, nodes, link))
    }
}

/// Runs the quick swarm under `overrides`.
fn quick_swarm(overrides: &str) -> (SwarmWorld, RunReport) {
    let (spec, swarm) = quick(overrides);
    run_scenario(&spec, SwarmWorkload::new(swarm)).expect("swarm runs")
}

fn round_trip(report: &RunReport) -> RunReport {
    let json = report.to_json();
    let loaded = RunReport::from_json(&json).expect("report JSON parses back");
    assert_eq!(&loaded, report, "report must survive the JSON round-trip");
    loaded
}

#[test]
fn swarm_report_round_trips_and_matches_result() {
    let (spec, swarm) = quick("scenario.name = \"report-swarm\"\nworkload.swarm.leechers = 6");
    let (world, report) = run_scenario(&spec, SwarmWorkload::new(swarm.clone())).unwrap();
    let loaded = round_trip(&report);
    let machines = spec.deployment.machines;

    assert_eq!(loaded.workload, "swarm");
    assert_eq!(loaded.scenario, "report-swarm");
    assert_eq!(loaded.seed, spec.seed);
    assert_eq!(loaded.machines, machines);
    assert_eq!(loaded.participants, swarm.leechers);
    assert_eq!(loaded.vnodes, swarm.total_vnodes());
    assert_eq!(loaded.outcome, RunOutcome::Drained);
    assert!(loaded.wall_secs > 0.0);

    // The progress curve ends at the bytes the world's clients downloaded.
    assert_eq!(
        loaded.progress().last().unwrap().1,
        world.total_bytes_downloaded() as f64
    );
    // The completed-clients step curve ends at the downloader count.
    let completed = loaded.metrics.series("completed_clients").unwrap();
    assert_eq!(completed.last().unwrap().1, swarm.leechers as f64);
    // Every finished download landed in the completion-time histogram.
    let hist = loaded.metrics.histogram("completion_time_secs").unwrap();
    assert_eq!(hist.count, world.completion_times().len() as u64);
    assert_eq!(
        loaded.metrics.counter("churn_departures"),
        Some(world.tracker.stats().stopped)
    );
    // The monitor recorded one NIC-utilization series per machine plus the peak gauge.
    for m in 0..machines {
        assert!(
            loaded
                .metrics
                .series(&format!("nic_utilization.machine{m}"))
                .is_some(),
            "machine {m} has no utilization series"
        );
    }
    // The peak gauge is the highest point of any machine's utilization series.
    let peak = (0..machines)
        .flat_map(|m| {
            let series = loaded
                .metrics
                .series(&format!("nic_utilization.machine{m}"));
            series.unwrap().samples().iter().map(|&(_, u)| u)
        })
        .fold(0.0, f64::max);
    assert!(peak > 0.0);
    assert_eq!(loaded.metrics.gauge("peak_nic_utilization"), Some(peak));
}

#[test]
fn ping_mesh_report_round_trips_and_matches_result() {
    let mesh = PingMeshSpec::full(4);
    let spec = lan("report-mesh", 4, 2, SimDuration::from_secs(120), 3);
    let probes = mesh.expected_probes() as u64;
    let (world, report) = run_scenario(&spec, PingMeshWorkload::new(mesh)).unwrap();
    let loaded = round_trip(&report);

    assert_eq!(loaded.workload, "ping-mesh");
    assert_eq!(world.replies as u64, probes, "every probe answered");
    assert_eq!(loaded.metrics.counter("probes_scheduled"), Some(probes));
    let rtt = loaded.metrics.histogram("rtt_secs").unwrap();
    assert_eq!(rtt.count, world.replies as u64);
    // 2 ms links, two hops each way: every RTT at least 8 ms, and the histogram knows it.
    assert!(rtt.min.unwrap() >= 0.008);
    assert!(rtt.p50.is_some() && rtt.p90.is_some() && rtt.p99.is_some());
}

#[test]
fn gossip_report_round_trips_and_matches_result() {
    let spec = lan("report-gossip", 16, 4, SimDuration::from_secs(600), 9);
    let (world, report) = run_scenario(&spec, GossipWorkload::new(GossipSpec::new(16))).unwrap();
    let loaded = round_trip(&report);

    assert_eq!(loaded.workload, "gossip");
    assert!(world.fully_informed(), "{:?}", loaded.outcome);
    assert_eq!(
        loaded.metrics.counter("rumors_sent"),
        Some(world.rumors_sent)
    );
    assert_eq!(
        loaded.metrics.counter("duplicate_receipts"),
        Some(world.duplicate_receipts)
    );
    // The progress series is the dissemination curve: it first counts every node at a sample
    // no earlier than the last one heard the rumor, and counts them all at the stop.
    let progress = loaded.progress();
    let last_heard = *world.informed_at.iter().flatten().max().unwrap();
    assert!(progress.time_to_reach(16.0).unwrap() >= last_heard);
    assert_eq!(progress.last().unwrap().1, world.informed as f64);
    assert_eq!(loaded.metrics.gauge("online_nodes"), Some(16.0));
}

#[test]
fn dht_report_round_trips_and_matches_result() {
    let dht = DhtLookupSpec::new(24);
    // The last lookup starts `lookups - 1` intervals in.
    let deadline = dht.lookup_interval * (dht.lookups as u64 - 1) + SimDuration::from_secs(120);
    let spec = lan("report-dht", 24, 3, deadline, 3);
    let lookups = dht.lookups as u64;
    let (world, report) = run_scenario(&spec, DhtLookupWorkload::new(dht)).unwrap();
    let loaded = round_trip(&report);

    assert_eq!(loaded.workload, "dht-lookup");
    // Every lookup settled, converged on the closest node and left its hop count in the
    // histogram.
    let settled = loaded.progress().last().unwrap().1;
    assert_eq!(settled, lookups as f64, "{:?}", loaded.outcome);
    assert_eq!(
        loaded.metrics.counter("lookups_found_closest"),
        Some(lookups)
    );
    assert_eq!(loaded.metrics.counter("lookups_missed"), Some(0));
    assert_eq!(
        loaded.metrics.histogram("lookup_hops").unwrap().count,
        lookups
    );
    assert_eq!(
        loaded.metrics.counter("rpc_calls"),
        Some(world.rpc_stats().calls)
    );
    assert!(world.rpc_stats().calls > 0);
}

#[test]
fn reports_are_deterministic_given_seed_apart_from_wall_time() {
    let run = || quick_swarm("scenario.name = \"report-det\"\nworkload.swarm.leechers = 5").1;
    let mut a = run();
    let mut b = run();
    // Wall-clock time (and the throughput derived from it) are the only legitimately
    // non-deterministic fields.
    a.wall_secs = 0.0;
    b.wall_secs = 0.0;
    a.events_per_sec = 0.0;
    b.events_per_sec = 0.0;
    assert_eq!(a, b);
}

#[test]
fn run_scenario_returns_the_final_world_with_the_report() {
    // One entry point: the report carries the run facts, the world the workload state they
    // were recorded from.
    let (world, report) = quick_swarm("workload.swarm.leechers = 4");
    assert!(world.swarm_finished());
    assert_eq!(report.outcome, RunOutcome::Drained);
    assert_eq!(world.downloaders().count(), report.participants);
    assert!(world.completion_times().last().unwrap() <= &report.stopped_at);
}

#[test]
fn metric_order_is_stable_and_progress_comes_first() {
    // Registration order is the serialization order: the runner registers the progress curve
    // before the workload and monitor register theirs, so tooling can rely on `progress`
    // leading every report, and on series metrics actually being series.
    let (_, report) = quick_swarm("workload.swarm.leechers = 4");
    let first = report.metrics.iter().next().unwrap();
    assert_eq!(first.name, "progress");
    assert!(matches!(first.value, MetricValue::Series(_)));
    assert!(report.metrics.len() >= 4);
}
