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
use crate::scenario::{ArrivalSchedule, ArrivalSpec, ScenarioRun, Workload};
use p2plab_net::ping::{PingPayload, PingTimer, PingWorld};
use p2plab_net::{NetEvent, NetSim, NetStats, Network, VNodeId};
use p2plab_sim::{HistogramId, Recorder, RunOutcome, SimDuration, SimTime, Summary, TimeSeries};
use serde::{Deserialize, Serialize};

/// Which ordered pairs of nodes probe each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    fn is(&self, named: &MeshPattern) -> bool {
        self == named
    }
}

/// Description of a ping-mesh experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PingMeshSpec {
    /// Number of virtual nodes in the mesh.
    pub nodes: usize,
    /// Which pairs probe each other.
    pub pattern: MeshPattern,
    /// Echo requests sent per probe pair.
    pub pings_per_pair: usize,
    /// Spacing between a pair's consecutive echo requests.
    pub interval: SimDuration,
    /// Offset between distinct pairs' schedules (avoids every probe firing on the same
    /// instant).
    pub stagger: SimDuration,
    /// Echo payload size in bytes (a standard ping carries 56).
    pub packet_bytes: u64,
    /// Give up on unanswered probes this long after the last scheduled request, letting the
    /// run drain instead of waiting out the deadline. `None` (the default) keeps the original
    /// semantics: the run completes only when every probe is answered. Set it on lossy or
    /// burst-conditioned links, where some echoes never come back.
    pub settle: Option<SimDuration>,
}

impl PingMeshSpec {
    /// A full mesh over `nodes` nodes: 5 pings per ordered pair, 1 s apart, 1 ms stagger,
    /// 56-byte payload.
    pub fn full(nodes: usize) -> PingMeshSpec {
        assert!(nodes >= 2, "a ping mesh needs at least two nodes");
        PingMeshSpec {
            nodes,
            pattern: MeshPattern::Full,
            pings_per_pair: 5,
            interval: SimDuration::from_secs(1),
            stagger: SimDuration::from_millis(1),
            packet_bytes: 56,
            settle: None,
        }
    }

    /// A ring over `nodes` nodes (each node probes its successor), otherwise like
    /// [`PingMeshSpec::full`].
    pub fn ring(nodes: usize) -> PingMeshSpec {
        PingMeshSpec {
            pattern: MeshPattern::Ring,
            ..PingMeshSpec::full(nodes)
        }
    }

    /// The `[workload.ping-mesh]` keys of a scenario file; absent ones keep
    /// [`PingMeshSpec::full`]'s defaults.
    pub(crate) fn keys(k: &mut Keys, spec: &mut PingMeshSpec) -> Result<(), DslError> {
        k.req("nodes", &mut spec.nodes)?;
        k.opt("pattern", &mut spec.pattern)?;
        k.opt("pings_per_pair", &mut spec.pings_per_pair)?;
        k.opt("interval", &mut spec.interval)?;
        k.opt("stagger", &mut spec.stagger)?;
        k.opt("packet_bytes", &mut spec.packet_bytes)?;
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

    /// When the last echo request is scheduled — what callers size deadlines from.
    pub fn arrival_ramp(&self) -> SimDuration {
        let pairs = self.pair_count().max(1) as u64;
        self.interval * self.pings_per_pair.saturating_sub(1) as u64 + self.stagger * (pairs - 1)
    }
}

/// Everything a ping-mesh run produces.
#[derive(Debug, Clone)]
pub struct PingMeshResult {
    /// The experiment name.
    pub name: String,
    /// Folding ratio of the deployment.
    pub folding_ratio: f64,
    /// Echo requests scheduled.
    pub probes_scheduled: usize,
    /// Echo replies received before the run stopped.
    pub replies_received: usize,
    /// All measured round-trip times, in completion order.
    pub rtts: Vec<SimDuration>,
    /// Mean RTT per probing node (`None` for nodes whose replies were all lost), indexed like
    /// the topology's virtual nodes.
    pub per_node_mean_rtt: Vec<Option<SimDuration>>,
    /// Replies-received curve over time (the scenario progress metric).
    pub progress: TimeSeries,
    /// Whether every scheduled probe was answered before the deadline.
    pub finished: bool,
    /// Virtual time when the run stopped.
    pub stopped_at: SimTime,
    /// Number of simulation events executed.
    pub events_executed: u64,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Data-plane counters of the emulated network.
    pub net_stats: NetStats,
    /// Highest NIC utilization reached by any physical machine.
    pub peak_nic_utilization: f64,
}

impl PingMeshResult {
    /// Echo requests that went unanswered.
    pub fn lost(&self) -> usize {
        self.probes_scheduled - self.replies_received
    }

    /// Summary statistics (seconds) over all measured RTTs.
    pub fn rtt_summary(&self) -> Option<Summary> {
        let secs: Vec<f64> = self.rtts.iter().map(|d| d.as_secs_f64()).collect();
        Summary::of(&secs)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let rtt = self
            .rtt_summary()
            .map(|s| {
                format!(
                    "rtt min/avg/max {:.2}/{:.2}/{:.2} ms",
                    s.min * 1e3,
                    s.mean * 1e3,
                    s.max * 1e3
                )
            })
            .unwrap_or_else(|| "no replies".into());
        format!(
            "{}: {}/{} probes answered, {}, folding {:.0}:1",
            self.name, self.replies_received, self.probes_scheduled, rtt, self.folding_ratio,
        )
    }
}

/// The ping-mesh workload over the scenario's topology.
#[derive(Debug, Clone)]
pub struct PingMeshWorkload {
    spec: PingMeshSpec,
    rtt_hist: Option<HistogramId>,
    /// RTTs already recorded into the histogram (`world.rtts` is append-only, so this is a
    /// high-water mark).
    rtts_recorded: usize,
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
            rtts_recorded: 0,
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
    type Output = PingMeshResult;

    fn kind(&self) -> &'static str {
        "ping-mesh"
    }

    fn vnodes_required(&self) -> usize {
        self.spec.nodes
    }

    fn participants(&self) -> usize {
        self.spec.pair_count()
    }

    fn default_arrivals(&self) -> ArrivalSpec {
        // One probe stream per pair, offset by the configured stagger so distinct pairs never
        // all fire on the same instant.
        ArrivalSpec::ramp(SimDuration::ZERO, self.spec.stagger)
    }

    fn build_world(&mut self, deployment: Deployment) -> PingWorld {
        PingWorld::new(deployment.net, self.spec.packet_bytes)
    }

    fn on_deployed(&mut self, _sim: &mut NetSim<PingWorld>) {
        // The echo responders are passive: they answer whatever arrives, no warm-up needed.
    }

    fn schedule_arrivals(&mut self, sim: &mut NetSim<PingWorld>, arrivals: &ArrivalSchedule) {
        // Each probe pair starts at the instant the scenario's arrival process drew for it and
        // then sends its pings at the configured interval.
        for (pair_idx, (i, j)) in self.spec.pairs().into_iter().enumerate() {
            // Mesh node `i` runs on `VNodeId(i)` (the deployment's identity rule).
            let (from, to) = (VNodeId(i), VNodeId(j));
            let start = arrivals.get(pair_idx).unwrap_or(SimTime::ZERO);
            for round in 0..self.spec.pings_per_pair {
                let at = start + self.spec.interval * round as u64;
                self.last_probe_at = self.last_probe_at.max(at);
                sim.schedule_event_at(at, NetEvent::Timer(PingTimer::Probe { from, to }));
            }
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

    fn sample(&mut self, now: SimTime, world: &PingWorld, rec: &mut Recorder) -> f64 {
        if let Some(h) = self.rtt_hist {
            for &(_, rtt) in &world.rtts[self.rtts_recorded..] {
                rec.record(h, rtt.as_secs_f64());
            }
            self.rtts_recorded = world.rtts.len();
        }
        if let Some(grace) = self.spec.settle {
            self.settled |= now >= self.last_probe_at + grace;
        }
        world.rtts.len() as f64
    }

    fn is_complete(&self, world: &PingWorld) -> bool {
        world.rtts.len() >= self.spec.expected_probes() || self.settled
    }

    fn finalize(self, world: PingWorld, run: ScenarioRun) -> PingMeshResult {
        let probes_scheduled = self.spec.expected_probes();
        let mut per_node_sum = vec![(0u64, 0u64); self.spec.nodes];
        for &(origin, rtt) in &world.rtts {
            if let Some(sum) = per_node_sum.get_mut(origin.0) {
                sum.0 += rtt.as_nanos();
                sum.1 += 1;
            }
        }
        let per_node_mean_rtt = per_node_sum
            .into_iter()
            .map(|(total, n)| (n > 0).then(|| SimDuration::from_nanos(total / n)))
            .collect();
        let replies_received = world.rtts.len();
        PingMeshResult {
            name: run.name,
            folding_ratio: run.folding_ratio,
            probes_scheduled,
            replies_received,
            rtts: world.rtts.iter().map(|&(_, d)| d).collect(),
            per_node_mean_rtt,
            progress: run.samples,
            finished: replies_received >= probes_scheduled,
            stopped_at: run.stopped_at,
            events_executed: run.events_executed,
            outcome: run.outcome,
            net_stats: world.net.stats(),
            peak_nic_utilization: run.peak_nic_utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario, ScenarioBuilder, ScenarioError};
    use p2plab_net::{AccessLinkClass, TopologySpec};

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
        let scenario = ScenarioBuilder::new("mesh4", lan(4))
            .machines(2)
            .deadline(SimDuration::from_secs(60))
            .sample_interval(SimDuration::from_secs(1))
            .seed(1)
            .build()
            .unwrap();
        let r = run_scenario(&scenario, PingMeshWorkload::new(spec)).unwrap();
        assert!(r.finished, "{}", r.summary());
        assert_eq!(r.probes_scheduled, 4 * 3 * 5);
        assert_eq!(r.replies_received, r.probes_scheduled);
        assert_eq!(r.lost(), 0);
        // Two 100 us links each way: every RTT at least 400 us.
        assert!(r.rtts.iter().all(|d| d.as_micros() >= 400));
        assert!(r.per_node_mean_rtt.iter().all(|m| m.is_some()));
        // Cross-machine probes show up on the cluster NICs.
        assert!(r.peak_nic_utilization > 0.0);
        let s = r.rtt_summary().unwrap();
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn ring_scales_linearly_in_probe_count() {
        let spec = PingMeshSpec::ring(8);
        assert_eq!(spec.pairs().len(), 8);
        let scenario = ScenarioBuilder::new("ring8", lan(8))
            .machines(4)
            .deadline(SimDuration::from_secs(60))
            .seed(2)
            .build()
            .unwrap();
        let r = run_scenario(&scenario, PingMeshWorkload::new(spec)).unwrap();
        assert!(r.finished);
        assert_eq!(r.probes_scheduled, 8 * 5);
    }

    #[test]
    fn hand_built_spec_is_validated_by_run_scenario() {
        // ScenarioSpec fields are public; a literal spec that bypasses the builder must still
        // be rejected rather than hanging the periodic sampler on a zero interval.
        let mut spec = ScenarioBuilder::new("hand", lan(2)).build().unwrap();
        spec.sample_interval = SimDuration::ZERO;
        let err = run_scenario(&spec, PingMeshWorkload::new(PingMeshSpec::ring(2))).unwrap_err();
        assert_eq!(err, ScenarioError::ZeroSampleInterval);
    }

    #[test]
    fn mesh_rejects_too_small_topology() {
        let spec = PingMeshSpec::full(10);
        let scenario = ScenarioBuilder::new("big", lan(4)).build().unwrap();
        let err = run_scenario(&scenario, PingMeshWorkload::new(spec)).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::TopologyTooSmall {
                needed: 10,
                available: 4
            }
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let spec = PingMeshSpec::full(3);
            let scenario = ScenarioBuilder::new("det", lan(3))
                .deadline(SimDuration::from_secs(30))
                .seed(seed)
                .build()
                .unwrap();
            run_scenario(&scenario, PingMeshWorkload::new(spec)).unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.rtts, b.rtts);
        assert_eq!(a.events_executed, b.events_executed);
    }
}
