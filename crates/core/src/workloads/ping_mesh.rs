//! A ping-mesh latency probe as a [`Workload`].
//!
//! The paper validates P2PLab's network emulation with `ping` (Figures 6-7). This workload
//! turns that probe into a first-class scenario: every virtual node runs the echo responder of
//! [`p2plab_net::ping`](mod@p2plab_net::ping), and a configurable probe pattern (all ordered
//! pairs, or a ring) sends
//! repeated echo requests across the emulated topology. The result is the RTT distribution of
//! the mesh — the quantity the accuracy experiments compare against the configured latencies —
//! now obtainable on any topology, any folding and any network config the scenario layer can
//! express, proving the [`Workload`] abstraction carries more than BitTorrent.

use crate::deploy::Deployment;
use crate::scenario::dsl::{DslError, Keys, Named};
use crate::scenario::{ArrivalSchedule, ArrivalSpec, Workload};
use p2plab_net::ping::{PingPayload, PingTimer, PingWorld};
use p2plab_net::{NetEvent, NetSim, Network, VNodeId};
use p2plab_sim::{HistogramId, Recorder, SimDuration, SimTime};

/// Which ordered pairs of nodes probe each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshPattern {
    /// Every ordered pair `(i, j)`, `i != j` — `n * (n-1)` probe streams.
    Full,
    /// Each node probes its successor `(i, i+1 mod n)` — `n` probe streams, usable at large
    /// scale where the full mesh would be quadratic.
    Ring,
}

/// The names a scenario file spells the patterns by.
impl Named for MeshPattern {
    const WHAT: &'static str = "mesh pattern";
    fn names() -> Vec<(&'static str, MeshPattern)> {
        vec![("full", MeshPattern::Full), ("ring", MeshPattern::Ring)]
    }
}

/// Offset between distinct pairs' schedules under the default arrivals (avoids every probe
/// firing on the same instant).
const STAGGER: SimDuration = SimDuration::from_millis(1);

/// Description of a ping-mesh experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PingMeshSpec {
    /// Number of virtual nodes in the mesh.
    pub nodes: usize,
    /// Which pairs probe each other.
    pub pattern: MeshPattern,
    /// Echo requests sent per probe pair.
    pub pings_per_pair: usize,
    /// Spacing between a pair's consecutive echo requests.
    pub interval: SimDuration,
    /// Give up on unanswered probes this long after the last scheduled request, letting the
    /// run drain instead of waiting out the deadline. `None` (the default) keeps the original
    /// semantics: the run completes only when every probe is answered. Set it on lossy or
    /// burst-conditioned links, where some echoes never come back.
    pub settle: Option<SimDuration>,
}

impl PingMeshSpec {
    /// A full mesh over `nodes` nodes: 5 pings per ordered pair, 1 s apart.
    pub fn full(nodes: usize) -> PingMeshSpec {
        assert!(nodes >= 2, "a ping mesh needs at least two nodes");
        PingMeshSpec {
            nodes,
            pattern: MeshPattern::Full,
            pings_per_pair: 5,
            interval: SimDuration::from_secs(1),
            settle: None,
        }
    }

    /// The `[workload.ping-mesh]` keys of a scenario file; absent ones keep
    /// [`PingMeshSpec::full`]'s defaults. A value that would leave the mesh without a probe —
    /// the run then "drains" after one event — is rejected at its key.
    pub(crate) fn keys(k: &mut Keys, spec: &mut PingMeshSpec) -> Result<(), DslError> {
        k.req_checked("nodes", &mut spec.nodes, |&n| match n {
            0 | 1 => Err(format!("a ping mesh needs at least two nodes, got {n}")),
            _ => Ok(()),
        })?;
        k.opt("pattern", &mut spec.pattern)?;
        k.checked("pings_per_pair", &mut spec.pings_per_pair, |&n| match n {
            0 => Err("a probe pair must send at least one ping, got 0".to_string()),
            _ => Ok(()),
        })?;
        k.opt("interval", &mut spec.interval)?;
        k.opt("settle", &mut spec.settle)?;
        Ok(())
    }

    /// The ordered probe pairs of the configured pattern.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        match self.pattern {
            MeshPattern::Full => (0..self.nodes)
                .flat_map(|i| {
                    (0..self.nodes)
                        .filter(move |&j| j != i)
                        .map(move |j| (i, j))
                })
                .collect(),
            MeshPattern::Ring => (0..self.nodes).map(|i| (i, (i + 1) % self.nodes)).collect(),
        }
    }

    /// Number of probe pairs, without materializing them (checked on every sampling tick).
    pub fn pair_count(&self) -> usize {
        match self.pattern {
            MeshPattern::Full => self.nodes * self.nodes.saturating_sub(1),
            MeshPattern::Ring => self.nodes,
        }
    }

    /// Total number of echo requests the mesh schedules.
    pub fn expected_probes(&self) -> usize {
        self.pair_count() * self.pings_per_pair
    }
}

/// The ping-mesh workload over the scenario's topology.
#[derive(Debug, Clone)]
pub struct PingMeshWorkload {
    spec: PingMeshSpec,
    rtt_hist: Option<HistogramId>,
    /// When the last echo request fires (known once arrivals are scheduled) — the anchor for
    /// the optional settle grace.
    last_probe_at: SimTime,
    /// Set by `sample` once the settle grace has elapsed; unanswered probes are then lost.
    settled: bool,
}

impl PingMeshWorkload {
    /// Wraps a ping-mesh description as a workload.
    pub fn new(spec: PingMeshSpec) -> PingMeshWorkload {
        PingMeshWorkload {
            spec,
            rtt_hist: None,
            last_probe_at: SimTime::ZERO,
            settled: false,
        }
    }

    /// The mesh description this workload runs.
    pub fn config(&self) -> &PingMeshSpec {
        &self.spec
    }
}

impl Workload for PingMeshWorkload {
    type World = PingWorld;
    type Event = NetEvent<PingPayload, PingTimer>;

    const KIND: &'static str = "ping-mesh";

    fn vnodes_required(&self) -> usize {
        self.spec.nodes
    }

    fn participants(&self) -> usize {
        self.spec.pair_count()
    }

    fn default_arrivals(&self) -> ArrivalSpec {
        // One probe stream per pair, staggered so distinct pairs never all fire on the same
        // instant.
        ArrivalSpec::ramp(SimDuration::ZERO, STAGGER)
    }

    fn build_world(&mut self, deployment: Deployment) -> PingWorld {
        PingWorld::new(deployment.net)
    }

    fn on_deployed(&mut self, _sim: &mut NetSim<PingWorld>) {
        // The echo responders are passive: they answer whatever arrives, no warm-up needed.
    }

    fn schedule_arrivals(&mut self, sim: &mut NetSim<PingWorld>, arrivals: &ArrivalSchedule) {
        // Each probe pair starts at the instant the scenario's arrival process drew for it and
        // then sends its pings at the configured interval, as one probe series. Its ranks are
        // the sequence numbers its probes would draw if every probe were scheduled here, pair
        // by pair, so the series run in that order.
        let Some(left) = self.spec.pings_per_pair.checked_sub(1) else {
            return;
        };
        let left = u32::try_from(left).expect("a probe pair's pings fit in u32");
        let per_pair = self.spec.pings_per_pair as u64;
        let interval = self.spec.interval;
        let pairs = self.spec.pairs();
        let first = sim.reserve_ranks(pairs.len() as u64 * per_pair);
        for (pair_idx, (i, j)) in pairs.into_iter().enumerate() {
            let start = arrivals.get(pair_idx).unwrap_or(SimTime::ZERO);
            self.last_probe_at = self.last_probe_at.max(start + interval * u64::from(left));
            let rank = first + pair_idx as u64 * per_pair;
            // Mesh node `i` runs on `VNodeId(i)` (the deployment's identity rule).
            let probe = PingTimer::Probe {
                from: VNodeId(i),
                to: VNodeId(j),
                left,
                interval,
            };
            sim.schedule_event_ranked(start, rank, NetEvent::Timer(probe));
        }
    }

    fn network(world: &PingWorld) -> &Network {
        &world.net
    }

    fn setup_metrics(&mut self, rec: &mut Recorder) {
        let probes = rec.counter("probes_scheduled");
        rec.add(probes, self.spec.expected_probes() as u64);
        self.rtt_hist = Some(rec.histogram("rtt_secs"));
    }

    fn sample(&mut self, now: SimTime, world: &mut PingWorld, rec: &mut Recorder) -> f64 {
        // The histogram is the run's copy of the RTTs: the world keeps none once recorded.
        if let Some(h) = self.rtt_hist {
            for (_, rtt) in world.rtts.drain(..) {
                rec.record(h, rtt.as_secs_f64());
            }
        }
        if let Some(grace) = self.spec.settle {
            self.settled |= now >= self.last_probe_at + grace;
        }
        world.replies as f64
    }

    fn is_complete(&self, world: &PingWorld) -> bool {
        world.replies >= self.spec.expected_probes() || self.settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeploymentSpec;
    use crate::report::RunReport;
    use crate::scenario::{run_scenario, ScenarioError, ScenarioSpec};
    use p2plab_net::{AccessLinkClass, TopologySpec};
    use p2plab_sim::FxHashSet;

    /// A mesh workload whose world keeps every RTT, so a test can read them all after the
    /// run: the inner workload's `sample` sees and drains only the RTTs that arrived since the
    /// last sample, then this hands back the whole list.
    struct Keeping<W> {
        inner: W,
        /// RTTs handed back so far: the front of `world.rtts` at the next sample.
        kept: usize,
    }

    impl<W> Workload for Keeping<W>
    where
        W: Workload<World = PingWorld, Event = NetEvent<PingPayload, PingTimer>>,
    {
        type World = PingWorld;
        type Event = NetEvent<PingPayload, PingTimer>;

        const KIND: &'static str = W::KIND;
        fn vnodes_required(&self) -> usize {
            self.inner.vnodes_required()
        }
        fn participants(&self) -> usize {
            self.inner.participants()
        }
        fn default_arrivals(&self) -> ArrivalSpec {
            self.inner.default_arrivals()
        }
        fn build_world(&mut self, deployment: Deployment) -> PingWorld {
            self.inner.build_world(deployment)
        }
        fn on_deployed(&mut self, sim: &mut NetSim<PingWorld>) {
            self.inner.on_deployed(sim);
        }
        fn schedule_arrivals(&mut self, sim: &mut NetSim<PingWorld>, arrivals: &ArrivalSchedule) {
            self.inner.schedule_arrivals(sim, arrivals);
        }
        fn network(world: &PingWorld) -> &Network {
            &world.net
        }
        fn setup_metrics(&mut self, rec: &mut Recorder) {
            self.inner.setup_metrics(rec);
        }
        fn sample(&mut self, now: SimTime, world: &mut PingWorld, rec: &mut Recorder) -> f64 {
            let mut kept = std::mem::take(&mut world.rtts);
            world.rtts = kept.split_off(self.kept);
            kept.extend_from_slice(&world.rtts);
            let progress = self.inner.sample(now, world, rec);
            assert!(world.rtts.is_empty(), "the mesh drains what it recorded");
            self.kept = kept.len();
            world.rtts = kept;
            progress
        }
        fn is_complete(&self, world: &PingWorld) -> bool {
            self.inner.is_complete(world)
        }
    }

    /// Runs `workload` wrapped in [`Keeping`].
    fn run_keeping<W>(scenario: &ScenarioSpec, workload: W) -> (PingWorld, RunReport)
    where
        W: Workload<World = PingWorld, Event = NetEvent<PingPayload, PingTimer>> + 'static,
    {
        let keeping = Keeping {
            inner: workload,
            kept: 0,
        };
        run_scenario(scenario, keeping).unwrap()
    }

    fn lan(n: usize) -> TopologySpec {
        TopologySpec::uniform(
            "lan",
            n,
            AccessLinkClass::symmetric(100_000_000, SimDuration::from_micros(100)),
        )
    }

    #[test]
    fn full_mesh_measures_every_pair() {
        let spec = PingMeshSpec::full(4);
        let scenario = ScenarioSpec {
            deployment: DeploymentSpec::new(2),
            deadline: SimDuration::from_secs(60),
            sample_interval: SimDuration::from_secs(1),
            seed: 1,
            ..ScenarioSpec::new("mesh4", lan(4))
        };
        let (world, report) = run_keeping(&scenario, PingMeshWorkload::new(spec));
        assert_eq!(report.metrics.counter("probes_scheduled"), Some(4 * 3 * 5));
        assert_eq!(world.rtts.len(), 4 * 3 * 5, "{:?}", report.outcome);
        // The histogram took every RTT, and the replies counted them.
        let histogram = report.metrics.histogram("rtt_secs").unwrap();
        assert_eq!(histogram.count, 4 * 3 * 5);
        assert_eq!(world.replies, 4 * 3 * 5);
        // Two 100 us links each way: every RTT at least 400 us.
        assert!(world
            .rtts
            .iter()
            .all(|&(_, d)| d >= SimDuration::from_micros(400)));
        // Every node probed and heard back.
        assert!((0..4).all(|n| world.rtts.iter().any(|(from, _)| from.0 == n)));
        // Cross-machine probes show up on the cluster NICs.
        assert!(report.metrics.gauge("peak_nic_utilization").unwrap() > 0.0);
        let (min, max) = world.min_max_rtt().unwrap();
        let mean = world.average_rtt().unwrap();
        assert!(min <= mean && mean <= max);
    }

    #[test]
    fn ring_scales_linearly_in_probe_count() {
        let spec = PingMeshSpec {
            pattern: MeshPattern::Ring,
            ..PingMeshSpec::full(8)
        };
        assert_eq!(spec.pairs().len(), 8);
        let scenario = ScenarioSpec {
            deployment: DeploymentSpec::new(4),
            deadline: SimDuration::from_secs(60),
            seed: 2,
            ..ScenarioSpec::new("ring8", lan(8))
        };
        let (world, report) = run_scenario(&scenario, PingMeshWorkload::new(spec)).unwrap();
        assert_eq!(report.metrics.counter("probes_scheduled"), Some(8 * 5));
        assert_eq!(world.replies, 8 * 5);
        // The histogram is the run's copy of the RTTs: the world keeps none.
        assert!(world.rtts.is_empty());
    }

    /// The up-front schedule the probe series replace: one single probe per (pair, round),
    /// pair-major, each under the sequence number it draws when scheduled. Everything else is
    /// the mesh workload's.
    struct UpFront(PingMeshWorkload);

    impl Workload for UpFront {
        type World = PingWorld;
        type Event = NetEvent<PingPayload, PingTimer>;

        const KIND: &'static str = PingMeshWorkload::KIND;
        fn vnodes_required(&self) -> usize {
            self.0.vnodes_required()
        }
        fn participants(&self) -> usize {
            self.0.participants()
        }
        fn default_arrivals(&self) -> ArrivalSpec {
            self.0.default_arrivals()
        }
        fn build_world(&mut self, deployment: Deployment) -> PingWorld {
            self.0.build_world(deployment)
        }
        fn on_deployed(&mut self, _sim: &mut NetSim<PingWorld>) {}
        fn schedule_arrivals(&mut self, sim: &mut NetSim<PingWorld>, arrivals: &ArrivalSchedule) {
            let spec = &self.0.spec;
            for (pair_idx, (i, j)) in spec.pairs().into_iter().enumerate() {
                let start = arrivals.get(pair_idx).unwrap_or(SimTime::ZERO);
                for round in 0..spec.pings_per_pair {
                    let probe = PingTimer::Probe {
                        from: VNodeId(i),
                        to: VNodeId(j),
                        left: 0,
                        interval: SimDuration::ZERO,
                    };
                    let at = start + spec.interval * round as u64;
                    sim.schedule_event_at(at, NetEvent::Timer(probe));
                }
            }
        }
        fn network(world: &PingWorld) -> &Network {
            &world.net
        }
        fn setup_metrics(&mut self, rec: &mut Recorder) {
            self.0.setup_metrics(rec);
        }
        fn sample(&mut self, now: SimTime, world: &mut PingWorld, rec: &mut Recorder) -> f64 {
            self.0.sample(now, world, rec)
        }
        fn is_complete(&self, world: &PingWorld) -> bool {
            self.0.is_complete(world)
        }
    }

    #[test]
    fn probe_series_run_in_the_up_front_order() {
        // A full mesh whose pairs start a stagger apart and probe every three staggers, so
        // pair p's round r + 1 falls on the instant of pair p + 3's round r: up front the
        // earlier pair's probe goes first, and a series re-armed under a fresh sequence number
        // would go last. Under Poisson arrivals the pairs' series interleave instead.
        let spec = PingMeshSpec {
            pings_per_pair: 6,
            interval: STAGGER * 3,
            ..PingMeshSpec::full(5)
        };
        let ramp = ArrivalSpec::ramp(SimDuration::ZERO, STAGGER);
        let (pairs, rounds) = (spec.pair_count() as u64, spec.pings_per_pair as u64);
        let instants: FxHashSet<u64> = (0..pairs)
            .flat_map(|p| (0..rounds).map(move |r| (STAGGER * p + STAGGER * 3 * r).as_nanos()))
            .collect();
        assert!(
            instants.len() < spec.expected_probes(),
            "probe instants collide"
        );
        for arrivals in [ramp, ArrivalSpec::poisson(400.0)] {
            let scenario = ScenarioSpec {
                deployment: DeploymentSpec::new(2),
                deadline: SimDuration::from_secs(60),
                arrivals: Some(arrivals.clone()),
                seed: 11,
                ..ScenarioSpec::new("series", lan(5))
            };
            let chained = run_keeping(&scenario, PingMeshWorkload::new(spec.clone()));
            let up_front = run_keeping(&scenario, UpFront(PingMeshWorkload::new(spec.clone())));
            assert_eq!(chained.0.rtts.len(), spec.expected_probes(), "{arrivals:?}");
            assert_eq!(chained.0.rtts, up_front.0.rtts, "{arrivals:?}");
            assert_eq!(
                chained.1.events_executed, up_front.1.events_executed,
                "{arrivals:?}"
            );
        }
    }

    #[test]
    fn hand_built_spec_is_validated_by_run_scenario() {
        // A spec with a zero sample interval must be rejected rather than hang the periodic
        // sampler.
        let spec = ScenarioSpec {
            sample_interval: SimDuration::ZERO,
            ..ScenarioSpec::new("hand", lan(2))
        };
        let err = run_scenario(
            &spec,
            PingMeshWorkload::new(PingMeshSpec {
                pattern: MeshPattern::Ring,
                ..PingMeshSpec::full(2)
            }),
        )
        .err();
        assert_eq!(err, Some(ScenarioError::ZeroSampleInterval));
    }

    #[test]
    fn mesh_rejects_too_small_topology() {
        let spec = PingMeshSpec::full(10);
        let scenario = ScenarioSpec::new("big", lan(4));
        let err = run_scenario(&scenario, PingMeshWorkload::new(spec)).err();
        assert_eq!(
            err,
            Some(ScenarioError::TopologyTooSmall {
                needed: 10,
                available: 4
            })
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let spec = PingMeshSpec::full(3);
            let scenario = ScenarioSpec {
                deadline: SimDuration::from_secs(30),
                seed,
                ..ScenarioSpec::new("det", lan(3))
            };
            run_keeping(&scenario, PingMeshWorkload::new(spec))
        };
        let (a, report_a) = run(7);
        let (b, report_b) = run(7);
        assert_eq!(a.rtts, b.rtts);
        assert_eq!(report_a.events_executed, report_b.events_executed);
    }
}
