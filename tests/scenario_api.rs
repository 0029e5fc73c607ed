//! Integration tests of the workload-agnostic scenario API through the public facade:
//! the generic `run_scenario` loop must carry every shipped workload under every arrival and
//! session process, and spec validation must hold.

use p2plab::core::{
    run_scenario, ArrivalSpec, DeploymentSpec, GossipSpec, GossipWorkload, MeshPattern,
    PingMeshSpec, PingMeshWorkload, ScenarioError, ScenarioFile, ScenarioSpec, SessionProcess,
    SwarmSpec, SwarmWorkload, WorkloadConfig,
};
use p2plab::net::{AccessLinkClass, TopologySpec};
use p2plab::sim::SimDuration;

/// `examples/scenarios/swarm_quick.toml` under `overrides`: the scenario and its swarm.
fn quick(overrides: &str) -> (ScenarioSpec, SwarmSpec) {
    let text = include_str!("../examples/scenarios/swarm_quick.toml");
    let file = ScenarioFile::parse_with(text, overrides).expect("swarm_quick.toml parses");
    let WorkloadConfig::Swarm(swarm) = file.workload else {
        panic!("swarm_quick.toml is a swarm scenario");
    };
    (file.spec, swarm)
}

#[test]
fn both_workloads_run_through_the_same_generic_loop() {
    // One scenario layer, two applications: the swarm and a ping mesh both run via
    // `run_scenario` with nothing BitTorrent-specific in between.
    let (spec, swarm) = quick("scenario.name = \"generic-swarm\"\nworkload.swarm.leechers = 4");
    let (swarm, _) = run_scenario(&spec, SwarmWorkload::new(swarm)).unwrap();
    assert!(swarm.swarm_finished());

    let mesh = PingMeshSpec::full(5);
    let link = AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(5));
    let spec = ScenarioSpec {
        deployment: DeploymentSpec::new(2),
        deadline: SimDuration::from_secs(120),
        sample_interval: SimDuration::from_secs(1),
        seed: 3,
        ..ScenarioSpec::new(
            "generic-mesh",
            TopologySpec::uniform("generic-mesh", 5, link),
        )
    };
    let probes = mesh.expected_probes();
    let (mesh, report) = run_scenario(&spec, PingMeshWorkload::new(mesh)).unwrap();
    assert_eq!(mesh.replies, probes, "{:?}", report.outcome);
    // 5 ms links, two hops each way: at least 20 ms per round trip. The report's histogram
    // holds every RTT (the workload drains them from the world as it records them).
    let rtt = report.metrics.histogram("rtt_secs").unwrap();
    assert_eq!(rtt.count, probes as u64);
    assert!(rtt.min.unwrap() >= 0.020);
}

#[test]
fn gossip_runs_under_multiple_arrival_processes() {
    // The arrival library is scenario-level, not workload-level: the same gossip workload runs
    // unchanged under a deterministic ramp, a Poisson crowd and a flash crowd, only the
    // spec's `arrivals` field differs.
    let nodes = 16;
    let topo = || {
        TopologySpec::uniform(
            "gossip",
            nodes,
            AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(2)),
        )
    };
    let processes = [
        ("ramp", None),
        ("poisson", Some(ArrivalSpec::poisson(0.5))),
        (
            "flash-crowd",
            Some(ArrivalSpec::flash_crowd(
                0.2,
                SimDuration::from_secs(20),
                25.0,
            )),
        ),
    ];
    for (label, arrivals) in processes {
        let spec = ScenarioSpec {
            deployment: DeploymentSpec::new(4),
            arrivals,
            deadline: SimDuration::from_secs(600),
            sample_interval: SimDuration::from_secs(1),
            seed: 9,
            ..ScenarioSpec::new(format!("gossip-{label}"), topo())
        };
        let (world, report) =
            run_scenario(&spec, GossipWorkload::new(GossipSpec::new(nodes))).expect("gossip runs");
        assert_eq!(world.informed, nodes, "{label}: {:?}", report.outcome);
        assert!(world.informed_at.iter().all(Option::is_some), "{label}");
    }
}

#[test]
fn degenerate_churn_is_rejected_not_livelocked() {
    // Regression for the churn livelock: a zero mean used to make schedule_departure draw
    // zero-length exponential delays and spin depart/rejoin at one instant until the event
    // budget died. It must now be rejected by validation before the run starts.
    let (spec, swarm) = quick("");
    let spec = ScenarioSpec {
        sessions: Some(SessionProcess::Exponential {
            mean_session: SimDuration::ZERO,
            mean_downtime: SimDuration::ZERO,
        }),
        ..spec
    };
    let err = spec.validate().unwrap_err();
    assert!(matches!(err, ScenarioError::InvalidChurn { .. }), "{err}");
    let err = run_scenario(&spec, SwarmWorkload::new(swarm)).err();
    assert!(
        matches!(err, Some(ScenarioError::InvalidChurn { .. })),
        "{err:?}"
    );
}

#[test]
fn swarm_completes_under_pareto_sessions() {
    // The swarm workload runs on the generalized session process too: heavy-tailed Pareto
    // sessions interrupt downloads but the swarm still finishes.
    let (spec, swarm) = quick(
        "scenario.name = \"pareto-churn\"\nscenario.deadline = \"6000s\"\n\
         workload.swarm.leechers = 6\n\
         [sessions]\nkind = \"pareto\"\nscale_session = \"10s\"\nshape = 1.5\n\
         mean_downtime = \"20s\"\n",
    );
    assert_eq!(
        spec.sessions,
        Some(SessionProcess::Pareto {
            scale_session: SimDuration::from_secs(10),
            shape: 1.5,
            mean_downtime: SimDuration::from_secs(20),
        })
    );
    let (world, report) = run_scenario(&spec, SwarmWorkload::new(swarm)).unwrap();
    assert!(world.swarm_finished(), "{:?}", report.outcome);
    assert!(
        report.metrics.counter("churn_departures").unwrap() > 0,
        "Pareto churn must actually fire"
    );
}

#[test]
fn spec_validation_is_enforced_through_the_facade() {
    let topo = TopologySpec::uniform(
        "v",
        4,
        AccessLinkClass::symmetric(1_000_000, SimDuration::from_millis(1)),
    );
    let no_machines = ScenarioSpec {
        deployment: DeploymentSpec::new(0),
        ..ScenarioSpec::new("v", topo.clone())
    };
    assert_eq!(no_machines.validate(), Err(ScenarioError::NoMachines));
    let zero_deadline = ScenarioSpec {
        deadline: SimDuration::ZERO,
        ..ScenarioSpec::new("v", topo)
    };
    assert_eq!(zero_deadline.validate(), Err(ScenarioError::ZeroDeadline));
    // The runner applies the same gate before anything is built.
    let mesh = PingMeshWorkload::new(PingMeshSpec {
        pattern: MeshPattern::Ring,
        ..PingMeshSpec::full(4)
    });
    let err = run_scenario(&zero_deadline, mesh).err();
    assert_eq!(err, Some(ScenarioError::ZeroDeadline));
}
