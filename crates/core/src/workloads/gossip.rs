//! Epidemic broadcast (gossip) as a [`Workload`].
//!
//! The third first-class workload of the scenario layer, and the one that exercises the arrival
//! library hardest: a rumor starts at the first node to arrive and spreads by periodic push
//! gossip — every informed, online node picks `fanout` random peers each round and sends them
//! the rumor. Nodes join the overlay at the instants the scenario's arrival process draws
//! (steady ramp, Poisson, flash crowd, replayed trace), may churn offline and back via the
//! session process, and the measured quantity is the dissemination curve: how fast the rumor
//! reaches everyone under each arrival and churn regime. The round spacing
//! ([`ROUND_INTERVAL`], 1 s) and the rumor's size ([`RUMOR_BYTES`], 256 bytes) are constants
//! of both gossip workloads, this one and the sharded one: no shipped scenario varies them.

use crate::adversary::{AdversaryRoster, InvariantReport};
use crate::deploy::Deployment;
use crate::scenario::dsl::{DslError, Keys};
use crate::scenario::{ArrivalSchedule, ArrivalSpec, ShardedOutcome, Workload};
use p2plab_net::{
    Endpoint, NetEvent, NetHost, NetSim, Network, SocketAddr, TransportEvent, VNodeId,
};
use p2plab_sim::{Counter, Gauge, PeriodicSeries, Recorder, RunOutcome, SimDuration, SimTime};

/// The UDP-like port the gossip protocol runs on.
pub const GOSSIP_PORT: u16 = 4100;

/// Spacing between a node's gossip rounds (both gossip workloads).
pub const ROUND_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Rumor payload size in bytes (both gossip workloads).
pub const RUMOR_BYTES: u64 = 256;

/// Description of a gossip experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipSpec {
    /// Number of gossiping nodes.
    pub nodes: usize,
    /// How many random peers each informed node pushes the rumor to per round.
    pub fanout: usize,
}

impl GossipSpec {
    /// A gossip experiment over `nodes` nodes with fanout 3.
    pub fn new(nodes: usize) -> GossipSpec {
        assert!(nodes >= 2, "gossip needs at least two nodes");
        GossipSpec { nodes, fanout: 3 }
    }

    /// The `[workload.gossip]` keys of a scenario file; absent ones keep [`GossipSpec::new`]'s
    /// defaults. A value that would stall a run is rejected at its key.
    pub(crate) fn keys(k: &mut Keys, spec: &mut GossipSpec) -> Result<(), DslError> {
        k.req("nodes", &mut spec.nodes)?;
        k.checked("fanout", &mut spec.fanout, check_fanout)?;
        Ok(())
    }
}

/// A node that pushes to nobody never spreads the rumor: the run would idle to its deadline.
pub(crate) fn check_fanout(&fanout: &usize) -> Result<(), String> {
    match fanout {
        0 => Err("a round must push to at least one peer, got 0".to_string()),
        _ => Ok(()),
    }
}

/// Payload of the gossip protocol: the rumor, tagged with how many hops it has travelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rumor {
    /// Number of forwarding hops since the origin.
    pub hops: u32,
}

/// [`GossipWorld::flags`] bit: the node is online (arrived and not churned away).
const ONLINE: u8 = 1;
/// [`GossipWorld::flags`] bit: the node heard the rumor (its `informed_at` is set).
const INFORMED: u8 = 2;
/// [`GossipWorld::flags`] bit: a byzantine node with the `suppress_forward` flag, which hears
/// the rumor but never pushes it on (never set on honest runs).
const SUPPRESSED: u8 = 4;

/// The gossip world: the emulated network plus per-node arrival/infection state. Gossip node
/// `k` runs on `VNodeId(k)` (the deployment's identity rule, see [`mod@crate::deploy`]).
pub struct GossipWorld {
    /// The emulated network.
    pub net: Network,
    /// Per node, the [`ONLINE`], [`INFORMED`] and [`SUPPRESSED`] bits: the one byte a receipt
    /// and a round read, at random over the overlay.
    flags: Vec<u8>,
    /// When each node first heard the rumor: the record the report and the invariants read.
    pub informed_at: Vec<Option<SimTime>>,
    /// Number of informed nodes.
    pub informed: usize,
    /// Rumor datagrams pushed so far.
    pub rumors_sent: u64,
    /// Rumor datagrams that reached an already-informed node.
    pub duplicate_receipts: u64,
    /// Rumor datagrams that reached a node that was offline (not yet arrived or churned away).
    pub missed_receipts: u64,
    fanout: usize,
    /// Every armed gossip round after a node's first, as `(idx, hops)`: one pending event. A
    /// node's id is a `u32` here, as in the network's records (24 bytes a member, not 32).
    rounds: PeriodicSeries<(u32, u32)>,
    /// The arrival instants, non-decreasing: node `k` joins at `arrivals[k]`.
    arrivals: Vec<SimTime>,
    /// The rank reserved for node 0's arrival; node `k`'s is `arrival_rank + k`.
    arrival_rank: u64,
}

impl GossipWorld {
    fn new(net: Network, spec: &GossipSpec) -> GossipWorld {
        let n = spec.nodes;
        GossipWorld {
            net,
            flags: vec![0; n],
            informed_at: vec![None; n],
            informed: 0,
            rumors_sent: 0,
            duplicate_receipts: 0,
            missed_receipts: 0,
            fanout: spec.fanout,
            rounds: PeriodicSeries::new(ROUND_INTERVAL),
            arrivals: Vec::new(),
            arrival_rank: 0,
        }
    }

    /// Number of gossiping nodes.
    pub fn nodes(&self) -> usize {
        self.flags.len()
    }

    /// True once every node has heard the rumor.
    pub fn fully_informed(&self) -> bool {
        self.informed >= self.nodes()
    }

    /// The gossip node on `vnode`, if it takes part (the topology may be larger).
    fn index_of(&self, vnode: VNodeId) -> Option<usize> {
        (vnode.0 < self.nodes()).then_some(vnode.0)
    }
}

/// The timers of a [`GossipWorld`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipTimer {
    /// Node `k` joins the overlay; the first to arrive carries the rumor. The arrivals are a
    /// ranked series: each arms the next.
    Arrive(usize),
    /// Node `idx`'s first gossip round, at once when it hears the rumor, pushing the rumor it
    /// heard at hop depth `hops`.
    FirstRound {
        /// The gossiping node.
        idx: usize,
        /// Hops the rumor had travelled when the node heard it.
        hops: u32,
    },
    /// The gossip round of the node at the front of the world's periodic series of rounds.
    Round,
}

impl NetHost for GossipWorld {
    type Payload = Rumor;
    type Timer = GossipTimer;

    fn network(&mut self) -> &mut Network {
        &mut self.net
    }

    fn on_transport_event(sim: &mut NetSim<Self>, node: VNodeId, event: TransportEvent<Rumor>) {
        if let TransportEvent::Datagram {
            payload: Rumor { hops },
            ..
        } = event
        {
            let Some(idx) = sim.world().index_of(node) else {
                return;
            };
            let world = sim.world_mut();
            let flags = world.flags[idx];
            if flags & ONLINE == 0 {
                // The node has not arrived yet (or is churned away): it misses the rumor and
                // must be re-infected by a later round once it is back online.
                world.missed_receipts += 1;
            } else if flags & INFORMED != 0 {
                world.duplicate_receipts += 1;
            } else {
                start_gossip(sim, idx, hops + 1);
            }
        }
    }

    fn on_timer(sim: &mut NetSim<Self>, timer: GossipTimer) {
        match timer {
            GossipTimer::Arrive(k) => {
                arm_arrival(sim, k + 1);
                sim.world_mut().flags[k] |= ONLINE;
                // The first participant to arrive carries the rumor.
                if k == 0 {
                    start_gossip(sim, k, 0);
                }
            }
            GossipTimer::FirstRound { idx, hops } => gossip_round(sim, idx, hops),
            GossipTimer::Round => {
                let (idx, hops) = sim.pop_periodic(|w| &mut w.rounds, ROUND);
                gossip_round(sim, idx as usize, hops);
            }
        }
    }
}

/// The head event of a [`GossipWorld`]'s periodic series of rounds.
const ROUND: NetEvent<Rumor, GossipTimer> = NetEvent::Timer(GossipTimer::Round);

/// Schedules node `k`'s arrival, if the schedule has one, at its instant and its reserved
/// rank: the arrivals are one pending event at a time, in the order scheduling every one up
/// front would give.
fn arm_arrival(sim: &mut NetSim<GossipWorld>, k: usize) {
    let world = sim.world();
    let Some(&at) = world.arrivals.get(k) else {
        return;
    };
    let rank = world.arrival_rank + k as u64;
    sim.schedule_event_ranked(at, rank, NetEvent::Timer(GossipTimer::Arrive(k)));
}

/// Marks node `idx` informed (hop count `hops`) and starts its periodic gossip rounds, the
/// first one at once.
fn start_gossip(sim: &mut NetSim<GossipWorld>, idx: usize, hops: u32) {
    let now = sim.now();
    {
        let world = sim.world_mut();
        if world.flags[idx] & INFORMED != 0 {
            return;
        }
        world.flags[idx] |= INFORMED;
        world.informed_at[idx] = Some(now);
        world.informed += 1;
        if world.fully_informed() {
            return;
        }
    }
    sim.schedule_event_at(now, NetEvent::Timer(GossipTimer::FirstRound { idx, hops }));
}

/// One gossip round of node `idx`; it re-arms one interval later, into the world's periodic
/// series. The rounds stop on their own once the whole overlay is informed, so the event queue
/// drains instead of ticking until the deadline.
fn gossip_round(sim: &mut NetSim<GossipWorld>, idx: usize, hops: u32) {
    let world = sim.world();
    // A forward-suppressing byzantine node hears everything and passes on nothing; its rounds
    // stop outright instead of ticking until the overlay is informed.
    let flags = world.flags[idx];
    if world.fully_informed() || flags & SUPPRESSED != 0 {
        return;
    }
    if flags & ONLINE != 0 {
        push_rumor(sim, idx, hops);
    }
    sim.push_periodic(|w| &mut w.rounds, (idx as u32, hops), ROUND);
}

/// Pushes the rumor from `idx` to `fanout` random peers (sampled with replacement, self
/// excluded — the classic blind-push peer selection; pushes to offline peers are simply
/// missed).
fn push_rumor(sim: &mut NetSim<GossipWorld>, idx: usize, hops: u32) {
    let n = sim.world().nodes();
    let fanout = sim.world().fanout;
    for _ in 0..fanout {
        let mut target = sim.rng().gen_range(0..n - 1);
        if target >= idx {
            target += 1;
        }
        let world = sim.world_mut();
        let to_addr = world.net.addr_of(VNodeId(target));
        world.rumors_sent += 1;
        let _ = Endpoint::new(VNodeId(idx)).send_datagram(
            sim,
            GOSSIP_PORT,
            SocketAddr::new(to_addr, GOSSIP_PORT),
            RUMOR_BYTES,
            Rumor { hops },
        );
    }
}

/// Metric handles registered by [`GossipWorkload::setup_metrics`]. The world keeps the
/// authoritative counts (the recorder is not reachable from socket-event handlers); the
/// sampling tick syncs them into the recorder.
#[derive(Debug, Clone, Copy)]
struct GossipMetrics {
    rumors_sent: Counter,
    duplicate_receipts: Counter,
    missed_receipts: Counter,
    online_nodes: Gauge,
}

/// The epidemic-broadcast workload over the scenario's topology.
#[derive(Debug, Clone)]
pub struct GossipWorkload {
    spec: GossipSpec,
    metrics: Option<GossipMetrics>,
    /// Byzantine node assignment (roster member indices are gossip node ids), installed by the
    /// scenario runner before deployment.
    roster: Option<AdversaryRoster>,
}

impl GossipWorkload {
    /// Wraps a gossip description as a workload.
    pub fn new(spec: GossipSpec) -> GossipWorkload {
        GossipWorkload {
            spec,
            metrics: None,
            roster: None,
        }
    }

    /// The gossip description this workload runs.
    pub fn config(&self) -> &GossipSpec {
        &self.spec
    }
}

impl Workload for GossipWorkload {
    type World = GossipWorld;
    type Event = NetEvent<Rumor, GossipTimer>;

    const KIND: &'static str = "gossip";

    fn vnodes_required(&self) -> usize {
        self.spec.nodes
    }

    fn participants(&self) -> usize {
        self.spec.nodes
    }

    fn default_arrivals(&self) -> ArrivalSpec {
        // A steady one-node-per-second join ramp; scenarios interested in crowd dynamics
        // override this with Poisson / flash-crowd / trace arrivals.
        ArrivalSpec::ramp(SimDuration::ZERO, SimDuration::from_secs(1))
    }

    fn build_world(&mut self, deployment: Deployment) -> GossipWorld {
        let mut world = GossipWorld::new(deployment.net, &self.spec);
        if let Some(roster) = &self.roster {
            for &k in roster.members() {
                if roster.flags.suppress_forward {
                    world.flags[k] |= SUPPRESSED;
                }
                let vnode = VNodeId(k);
                world
                    .net
                    .set_tamper(vnode, roster.tamper, roster.wire_rng(k));
                world.net.mark_byzantine(vnode);
            }
        }
        world
    }

    fn set_adversary(&mut self, roster: &AdversaryRoster) -> Result<(), String> {
        self.roster = Some(roster.clone());
        Ok(())
    }

    fn check_invariants(&self, world: &GossipWorld, stop: &ShardedOutcome) -> InvariantReport {
        let mut inv = InvariantReport::new();
        inv.byzantine_msgs_sent = world.net.stats().byzantine_msgs_sent;
        let roster = self.roster.as_ref();
        let honest = |k: usize| roster.is_none_or(|r| !r.contains(k));
        // Liveness: rumor delivery is all-or-nothing among honest nodes — once any honest node
        // holds the rumor its rounds keep ticking until the overlay is informed, so a drained
        // run where one honest node heard it means every honest node must have. A rumor that
        // died inside a byzantine origin (no honest node ever informed) is a clean failure,
        // as are deadline/budget cut-offs.
        let any_honest_informed =
            (0..world.nodes()).any(|k| honest(k) && world.informed_at[k].is_some());
        if stop.outcome == RunOutcome::Drained && any_honest_informed {
            for k in (0..world.nodes()).filter(|&k| honest(k)) {
                inv.check(world.informed_at[k].is_some(), || {
                    format!("honest node {k} never heard the rumor in a drained run")
                });
            }
        }
        let evidenced = world.informed_at.iter().filter(|t| t.is_some()).count();
        inv.check(evidenced == world.informed, || {
            format!(
                "informed tally {} disagrees with {} per-node receipt timestamps",
                world.informed, evidenced
            )
        });
        inv
    }

    fn on_deployed(&mut self, _sim: &mut NetSim<GossipWorld>) {
        // Nothing exists before the first arrival: the origin is the first node to join.
    }

    fn schedule_arrivals(&mut self, sim: &mut NetSim<GossipWorld>, arrivals: &ArrivalSchedule) {
        // The schedule is non-decreasing, so each arrival can arm the next.
        let arrival_rank = sim.reserve_ranks(arrivals.len() as u64);
        let world = sim.world_mut();
        world.arrivals = arrivals.times().to_vec();
        world.arrival_rank = arrival_rank;
        arm_arrival(sim, 0);
    }

    // Every node alternates online sessions and offline periods; offline nodes miss rumors and
    // are re-infected by later rounds after they rejoin. The chain ends once the overlay is
    // fully informed.
    fn churns(&self) -> bool {
        true
    }

    fn depart(&mut self, sim: &mut NetSim<GossipWorld>, k: usize) -> bool {
        let world = sim.world_mut();
        if world.fully_informed() || world.flags[k] & ONLINE == 0 {
            return false;
        }
        world.flags[k] &= !ONLINE;
        true
    }

    fn rejoin(&mut self, sim: &mut NetSim<GossipWorld>, k: usize) -> bool {
        let world = sim.world_mut();
        world.flags[k] |= ONLINE;
        !world.fully_informed()
    }

    fn network(world: &GossipWorld) -> &Network {
        &world.net
    }

    fn setup_metrics(&mut self, rec: &mut Recorder) {
        self.metrics = Some(GossipMetrics {
            rumors_sent: rec.counter("rumors_sent"),
            duplicate_receipts: rec.counter("duplicate_receipts"),
            missed_receipts: rec.counter("missed_receipts"),
            online_nodes: rec.gauge("online_nodes"),
        });
    }

    fn sample(&mut self, _now: SimTime, world: &mut GossipWorld, rec: &mut Recorder) -> f64 {
        if let Some(m) = self.metrics {
            rec.set_total(m.rumors_sent, world.rumors_sent);
            rec.set_total(m.duplicate_receipts, world.duplicate_receipts);
            rec.set_total(m.missed_receipts, world.missed_receipts);
            rec.set(
                m.online_nodes,
                world.flags.iter().filter(|&&f| f & ONLINE != 0).count() as f64,
            );
        }
        world.informed as f64
    }

    fn is_complete(&self, world: &GossipWorld) -> bool {
        world.fully_informed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryPlan, Selection};
    use crate::deploy::DeploymentSpec;
    use crate::report::RunReport;
    use crate::scenario::{run_scenario, ScenarioSpec, SessionProcess};
    use p2plab_net::{AccessLinkClass, TopologySpec};

    fn lan(n: usize) -> TopologySpec {
        TopologySpec::uniform(
            "lan",
            n,
            AccessLinkClass::symmetric(100_000_000, SimDuration::from_micros(500)),
        )
    }

    fn scenario(name: &str, n: usize) -> ScenarioSpec {
        ScenarioSpec {
            deployment: DeploymentSpec::new(4),
            deadline: SimDuration::from_secs(600),
            sample_interval: SimDuration::from_secs(1),
            seed: 11,
            ..ScenarioSpec::new(name, lan(n))
        }
    }

    /// Runs `n` gossiping nodes under `s` and asserts the rumor reached all of them.
    fn disseminate(s: &ScenarioSpec, n: usize) -> (GossipWorld, RunReport) {
        let (world, report) = run_scenario(s, GossipWorkload::new(GossipSpec::new(n))).unwrap();
        assert!(world.fully_informed(), "{:?}", report.outcome);
        assert_eq!(world.informed, n);
        (world, report)
    }

    #[test]
    fn rumor_reaches_every_node() {
        let s = scenario("gossip16", 16);
        let (world, report) = disseminate(&s, 16);
        assert!(world.informed_at.iter().all(|t| t.is_some()));
        assert!(world.flags.iter().all(|&f| f & INFORMED != 0));
        let full = *world.informed_at.iter().flatten().max().unwrap();
        // The origin is informed first, the last node at the time to full.
        let origin = world.informed_at[0].unwrap();
        assert!(world
            .informed_at
            .iter()
            .all(|&t| (origin..=full).contains(&t.unwrap())));
        assert!(world.rumors_sent > 0);
        // Dissemination curve is non-decreasing and ends at the node count.
        let samples = report.progress().samples();
        assert!(samples.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(samples.last().unwrap().1, 16.0);
    }

    #[test]
    fn flash_crowd_arrivals_disseminate() {
        let s = ScenarioSpec {
            arrivals: Some(ArrivalSpec::flash_crowd(
                0.2,
                SimDuration::from_secs(30),
                20.0,
            )),
            ..scenario("gossip-flash", 24)
        };
        disseminate(&s, 24);
    }

    #[test]
    fn gossip_survives_churn() {
        let s = ScenarioSpec {
            sessions: Some(SessionProcess::Exponential {
                mean_session: SimDuration::from_secs(20),
                mean_downtime: SimDuration::from_secs(10),
            }),
            ..scenario("gossip-churn", 12)
        };
        disseminate(&s, 12);
    }

    #[test]
    fn byzantine_suppressors_leave_honest_dissemination_intact() {
        // Silent-drop nodes hear the rumor and never pass it on (and swallow a quarter of
        // their outbound frames). With the origin honest, the remaining honest nodes keep
        // gossiping until everyone — suppressors included — is informed, and the invariant
        // monitor stays clean.
        let mut plan = AdversaryPlan::new(0.0, &["silent-drop"]);
        plan.selection = Selection::Trace(vec![3, 7, 11]);
        let s = ScenarioSpec {
            adversary: Some(plan),
            ..scenario("gossip-byz", 16)
        };
        let (_, report) = disseminate(&s, 16);
        assert_eq!(report.metrics.counter("invariant_violations"), Some(0));
        assert!(report.metrics.counter("invariants_checked").unwrap() > 0);
    }

    #[test]
    fn adversarial_gossip_is_deterministic_given_seed() {
        let run = |seed: u64| {
            let spec = GossipSpec::new(12);
            let s = ScenarioSpec {
                seed,
                adversary: Some(AdversaryPlan::new(0.25, &["silent-drop", "reply-delay"])),
                ..scenario("gossip-byz-det", 12)
            };
            run_scenario(&s, GossipWorkload::new(spec)).unwrap()
        };
        let (a, report_a) = run(5);
        let (b, report_b) = run(5);
        assert_eq!(a.informed_at, b.informed_at);
        assert_eq!(report_a.events_executed, report_b.events_executed);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let spec = GossipSpec::new(10);
            let s = ScenarioSpec {
                seed,
                ..scenario("gossip-det", 10)
            };
            run_scenario(&s, GossipWorkload::new(spec)).unwrap()
        };
        let (a, report_a) = run(5);
        let (b, report_b) = run(5);
        let (c, _) = run(6);
        assert_eq!(a.informed_at, b.informed_at);
        assert_eq!(report_a.events_executed, report_b.events_executed);
        assert_ne!(a.informed_at, c.informed_at);
    }
}
