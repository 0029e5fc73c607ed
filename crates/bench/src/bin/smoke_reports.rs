//! CI smoke check of the run-report pipeline: one small scenario per workload, each writing
//! its `RunReport` JSON under `results/` and re-loading it through the parser.
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin smoke_reports
//! ```
//!
//! Exits non-zero (panics) on any schema or round-trip drift: a report that serializes but no
//! longer parses back identically means the JSON writer and loader have diverged and every
//! artifact the bench bins leave behind is unreadable.

use p2plab_bench::write_run_report;
use p2plab_core::{
    run_reported, DhtLookupSpec, DhtLookupWorkload, GossipSpec, GossipWorkload, PingMeshSpec,
    PingMeshWorkload, RunReport, ScenarioBuilder, SwarmExperiment,
};
use p2plab_net::{AccessLinkClass, TopologySpec};
use p2plab_sim::SimDuration;

fn check(name: &str, report: &RunReport) {
    let path = write_run_report("smoke", report);
    let text = std::fs::read_to_string(&path).expect("report file readable");
    let loaded = RunReport::from_json(&text).expect("report JSON parses back");
    assert_eq!(
        &loaded, report,
        "{name}: report drifted through the JSON round-trip"
    );
    assert!(
        !report.metrics.is_empty(),
        "{name}: run recorded no metrics"
    );
    assert!(
        report.metrics.series("progress").is_some(),
        "{name}: run has no progress curve"
    );
    println!(
        "[ok] {name}: {} metrics, {} events executed ({:.0} events/sec wall), wrote {}",
        report.metrics.len(),
        report.events_executed,
        report.events_per_sec,
        path.display()
    );
}

fn main() {
    // Swarm: the quick preset, shrunk further for smoke speed.
    let mut cfg = SwarmExperiment::quick();
    cfg.name = "smoke-swarm".into();
    cfg.leechers = 6;
    let (result, report) = run_reported(&cfg.to_scenario(), cfg.workload()).expect("swarm runs");
    assert!(result.finished, "{}", result.summary());
    assert_eq!(
        report
            .metrics
            .histogram("completion_time_secs")
            .unwrap()
            .count,
        cfg.leechers as u64
    );
    check("swarm", &report);

    // Ping mesh: a small full mesh.
    let mesh = PingMeshSpec::full(4);
    let spec = ScenarioBuilder::new(
        "smoke-ping-mesh",
        TopologySpec::uniform(
            "smoke-ping-mesh",
            4,
            AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(2)),
        ),
    )
    .machines(2)
    .arrival_ramp(mesh.arrival_ramp())
    .deadline(SimDuration::from_secs(60))
    .sample_interval(SimDuration::from_secs(1))
    .seed(1)
    .build()
    .expect("valid scenario");
    let expected = mesh.expected_probes() as u64;
    let (result, report) = run_reported(&spec, PingMeshWorkload::new(mesh)).expect("mesh runs");
    assert!(result.finished, "{}", result.summary());
    assert_eq!(
        report.metrics.histogram("rtt_secs").unwrap().count,
        expected
    );
    check("ping-mesh", &report);

    // Gossip: a small epidemic broadcast.
    let spec = ScenarioBuilder::new(
        "smoke-gossip",
        TopologySpec::uniform(
            "smoke-gossip",
            12,
            AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(2)),
        ),
    )
    .machines(3)
    .deadline(SimDuration::from_secs(600))
    .sample_interval(SimDuration::from_secs(1))
    .seed(2)
    .build()
    .expect("valid scenario");
    let (result, report) =
        run_reported(&spec, GossipWorkload::new(GossipSpec::new(12))).expect("gossip runs");
    assert!(result.finished, "{}", result.summary());
    assert!(report.metrics.counter("rumors_sent").unwrap() > 0);
    check("gossip", &report);

    // DHT lookups: a small overlay, every lookup must converge and fill the hop histogram.
    let dht = DhtLookupSpec::new(24);
    let spec = ScenarioBuilder::new(
        "smoke-dht",
        TopologySpec::uniform(
            "smoke-dht",
            24,
            AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(2)),
        ),
    )
    .machines(3)
    .arrival_ramp(dht.arrival_ramp())
    .deadline(dht.arrival_ramp() + SimDuration::from_secs(120))
    .sample_interval(SimDuration::from_secs(1))
    .seed(3)
    .build()
    .expect("valid scenario");
    let (result, report) = run_reported(&spec, DhtLookupWorkload::new(dht)).expect("dht runs");
    assert!(result.finished, "{}", result.summary());
    assert_eq!(
        result.found_closest,
        result.completed,
        "{}",
        result.summary()
    );
    assert_eq!(report.metrics.histogram("lookup_hops").unwrap().count, 24);
    assert!(report.metrics.counter("rpc_calls").unwrap() > 0);
    check("dht-lookup", &report);

    println!("all run reports round-tripped cleanly");
}
