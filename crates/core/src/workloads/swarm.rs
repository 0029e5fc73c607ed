//! The BitTorrent swarm as a [`Workload`].
//!
//! This is the paper's evaluation application on the generic scenario loop: tracker on virtual
//! node 0, seeders next, downloaders after, staggered starts, optional churn. [`SwarmSpec`]
//! holds only what the swarm itself needs; machines, links, deadline, sessions and seed belong
//! to the [`ScenarioSpec`](crate::scenario::ScenarioSpec) the workload runs under.

use crate::adversary::{AdversaryRoster, InvariantReport};
use crate::deploy::Deployment;
use crate::scenario::dsl::{DslError, Keys};
use crate::scenario::{ArrivalSchedule, ArrivalSpec, ShardedOutcome, Workload};
use p2plab_bittorrent::client::{CHOKE_INTERVAL, REQUEST_TIMEOUT};
use p2plab_bittorrent::{
    schedule_client_start, schedule_client_starts, start_client, stop_client, BtPayload,
    ChokeConfig, SwarmSim, SwarmTimer, SwarmWorld, Torrent,
};
use p2plab_net::{NetEvent, Network};
use p2plab_sim::{Counter, HistogramId, Recorder, RunOutcome, SimDuration, SimTime, TimeSeriesId};

/// Description of a BitTorrent swarm: what is shared, by whom, and how downloaders join.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmSpec {
    /// Size of the distributed file in bytes.
    pub file_bytes: u64,
    /// Number of initial seeders.
    pub seeders: usize,
    /// Number of downloaders.
    pub leechers: usize,
    /// Interval between consecutive client starts.
    pub start_interval: SimDuration,
    /// How long before the first client the seeders (and tracker) come online.
    pub seeder_head_start: SimDuration,
    /// The clients' choking policy (the rest of the client policy is mainline's constants).
    pub choke: ChokeConfig,
}

impl SwarmSpec {
    /// A swarm of `leechers` downloaders fetching a 2 MiB file from one seeder: clients start
    /// 2 s apart, 5 s after the seeder, with mainline's choking policy.
    pub fn new(leechers: usize) -> SwarmSpec {
        SwarmSpec {
            file_bytes: 2 * 1024 * 1024,
            seeders: 1,
            leechers,
            start_interval: SimDuration::from_secs(2),
            seeder_head_start: SimDuration::from_secs(5),
            choke: ChokeConfig::default(),
        }
    }

    /// Total number of virtual nodes (clients + seeders + tracker).
    pub fn total_vnodes(&self) -> usize {
        self.leechers + self.seeders + 1
    }

    /// The `[workload.swarm]` keys of a scenario file; absent ones keep [`SwarmSpec::new`]'s
    /// defaults.
    pub(crate) fn keys(k: &mut Keys, spec: &mut SwarmSpec) -> Result<(), DslError> {
        // An empty file has no pieces to ask for: nobody ever completes and the run idles to
        // its deadline.
        k.checked("file_bytes", &mut spec.file_bytes, |&n| match n {
            0 => Err("a swarm needs a file of at least one byte, got 0".to_string()),
            _ => Ok(()),
        })?;
        k.opt("seeders", &mut spec.seeders)?;
        k.req("leechers", &mut spec.leechers)?;
        k.opt("start_interval", &mut spec.start_interval)?;
        k.opt("seeder_head_start", &mut spec.seeder_head_start)?;
        Ok(())
    }
}

/// Metric handles registered by [`SwarmWorkload::setup_metrics`].
#[derive(Debug, Clone, Copy)]
struct SwarmMetrics {
    /// `completed_clients` step curve (Figure 11's quantity).
    completed: TimeSeriesId,
    /// `completion_time_secs` distribution of finished downloads.
    completion_hist: HistogramId,
    /// `churn_departures` observed by the tracker.
    departures: Counter,
    /// `honest_completion_time_secs`, registered **only on adversarial runs** (honest report
    /// schemas carry no adversary keys): the distribution byzantine-fraction sweeps compare.
    honest_completion: Option<HistogramId>,
}

/// The BitTorrent swarm workload: one tracker, `cfg.seeders` initial seeders and
/// `cfg.leechers` downloaders joining at `cfg.start_interval`.
#[derive(Debug, Clone)]
pub struct SwarmWorkload {
    cfg: SwarmSpec,
    metrics: Option<SwarmMetrics>,
    /// Byzantine leecher assignment, installed by the scenario runner before deployment.
    /// Roster member indices are leecher indices (`0..leechers`).
    roster: Option<AdversaryRoster>,
    /// Completion times already recorded into the histogram (completion times are recorded in
    /// sorted order, so this is a high-water mark).
    completions_recorded: usize,
    /// Scratch buffer for the sampling tick (reused so sampling allocates nothing at
    /// steady state).
    completion_scratch: Vec<SimTime>,
    /// High-water mark and scratch for the honest-only completion histogram (adversarial
    /// runs only).
    honest_recorded: usize,
    honest_scratch: Vec<SimTime>,
}

impl SwarmWorkload {
    /// Wraps a swarm description as a workload.
    pub fn new(cfg: SwarmSpec) -> SwarmWorkload {
        SwarmWorkload {
            cfg,
            metrics: None,
            roster: None,
            completions_recorded: 0,
            completion_scratch: Vec::new(),
            honest_recorded: 0,
            honest_scratch: Vec::new(),
        }
    }

    /// Whether leecher `l` is honest under the installed roster (trivially true without one).
    fn leecher_is_honest(&self, l: usize) -> bool {
        self.roster.as_ref().is_none_or(|r| !r.contains(l))
    }

    /// The swarm description this workload runs.
    pub fn config(&self) -> &SwarmSpec {
        &self.cfg
    }
}

/// When seeder `s` comes online: the seeders start a second apart from time zero.
fn seeder_start(s: usize) -> SimDuration {
    SimDuration::from_secs(s as u64)
}

impl Workload for SwarmWorkload {
    type World = SwarmWorld;
    type Event = NetEvent<BtPayload, SwarmTimer>;

    const KIND: &'static str = "swarm";

    fn vnodes_required(&self) -> usize {
        self.cfg.total_vnodes()
    }

    fn participants(&self) -> usize {
        self.cfg.leechers
    }

    fn default_arrivals(&self) -> ArrivalSpec {
        // The paper's staggered start: the first downloader joins after the seeder head start,
        // one more every start_interval.
        ArrivalSpec::ramp(self.cfg.seeder_head_start, self.cfg.start_interval)
    }

    fn build_world(&mut self, deployment: Deployment) -> SwarmWorld {
        let cfg = &self.cfg;
        let torrent = Torrent::new(Self::KIND, cfg.file_bytes);
        // Virtual node 0 hosts the tracker; seeders follow; downloaders after that.
        let mut world = SwarmWorld::new(deployment.net, deployment.vnodes[0]);
        for s in 0..cfg.seeders {
            world.add_client(deployment.vnodes[1 + s], torrent.clone(), true, cfg.choke);
        }
        for l in 0..cfg.leechers {
            world.add_client(
                deployment.vnodes[1 + cfg.seeders + l],
                torrent.clone(),
                false,
                cfg.choke,
            );
        }
        if let Some(roster) = &self.roster {
            // Byzantine leechers get the folded application-level flags plus the sender-side
            // wire tamper point, each drawing from its own split RNG stream.
            for &l in roster.members() {
                let vnode = deployment.vnodes[1 + cfg.seeders + l];
                world.clients[cfg.seeders + l].misbehavior = roster.flags;
                world
                    .net
                    .set_tamper(vnode, roster.tamper, roster.wire_rng(l));
                world.net.mark_byzantine(vnode);
            }
        }
        world
    }

    fn set_adversary(&mut self, roster: &AdversaryRoster) -> Result<(), String> {
        self.roster = Some(roster.clone());
        Ok(())
    }

    /// The swarm's monitor. Safety: completion implies the full verified piece set. Liveness
    /// of a drained run: every honest leecher finished. And, for every honest leecher still
    /// online and incomplete when the run stopped — however it stopped — the request ledger
    /// must be *coherent and live*:
    ///
    /// 1. each block's request count equals the number of peers holding a request for it;
    /// 2. no request is older than `request_timeout + choke_interval` (the choker round's
    ///    sweep forgets them);
    /// 3. a leecher that some peer is unchoking, while that peer has a piece it lacks, has
    ///    requests outstanding.
    ///
    /// A deadline or budget stop that leaves leechers incomplete is still a clean failure
    /// *of the swarm* (too little time, too many free-riders) — but not when (3) fails: a
    /// leecher that could ask and is not asking will never finish, and that is a violation.
    fn check_invariants(&self, world: &SwarmWorld, stop: &ShardedOutcome) -> InvariantReport {
        let mut inv = InvariantReport::new();
        inv.byzantine_msgs_sent = world.net.stats().byzantine_msgs_sent;
        for (l, client) in world.downloaders().enumerate() {
            if !self.leecher_is_honest(l) {
                continue;
            }
            // Safety: an honest leecher never accepts a corrupted block — acceptance would
            // show up as a complete download whose rejection counter understates the corrupt
            // serves it saw, so the structural check is that completion implies a verified
            // full piece set.
            inv.check(
                client.completed_at.is_none() || client.pieces.is_complete(),
                || {
                    format!(
                        "honest leecher {l} marked complete without the full verified piece set"
                    )
                },
            );
            // Liveness: when the run drained (nothing left to do), every honest leecher must
            // have finished its download despite the byzantine peers.
            if stop.outcome == RunOutcome::Drained {
                inv.check(client.completed_at.is_some(), || {
                    format!("honest leecher {l} never completed in a drained run")
                });
            }
            if !client.online || client.pieces.is_complete() {
                continue;
            }
            inv.check(client.ledger_is_coherent(), || {
                format!("honest leecher {l}: block request counts disagree with the peers' lists")
            });
            let max_age = REQUEST_TIMEOUT + CHOKE_INTERVAL;
            let oldest = client
                .peers
                .iter()
                .flat_map(|p| p.inflight.iter().map(|r| r.1))
                .min();
            inv.check(
                oldest.is_none_or(|sent_at| stop.stopped_at.saturating_since(sent_at) <= max_age),
                || format!("honest leecher {l} holds a request sent at {oldest:?}, never swept"),
            );
            let served = client.peers.iter().any(|p| {
                p.handshaken
                    && !p.peer_choking
                    && client.pieces.have().is_interested_in(&p.bitfield)
            });
            let asking = client.peers.iter().any(|p| !p.inflight.is_empty());
            inv.check(!served || asking, || {
                format!("honest leecher {l} is served by a peer it needs and requests nothing")
            });
        }
        inv
    }

    fn own_ramp(&self) -> SimDuration {
        seeder_start(self.cfg.seeders.saturating_sub(1))
    }

    fn on_deployed(&mut self, sim: &mut SwarmSim) {
        // Seeders (and the tracker, which is passive) come online first.
        for s in 0..self.cfg.seeders {
            schedule_client_start(sim, s, SimTime::ZERO + seeder_start(s));
        }
    }

    fn schedule_arrivals(&mut self, sim: &mut SwarmSim, arrivals: &ArrivalSchedule) {
        // Downloaders join at the instants the scenario's arrival process drew.
        schedule_client_starts(sim, self.cfg.seeders, arrivals.times());
    }

    // Each downloader alternates online sessions and offline periods until its download
    // completes (finished clients stay online and seed, as in the paper's experiments).
    fn churns(&self) -> bool {
        true
    }

    fn depart(&mut self, sim: &mut SwarmSim, l: usize) -> bool {
        let idx = self.cfg.seeders + l;
        let client = &sim.world().clients[idx];
        if client.completed_at.is_some() || !client.online {
            // Finished clients stay online and seed; offline clients are between sessions.
            return false;
        }
        stop_client(sim, idx);
        true
    }

    fn rejoin(&mut self, sim: &mut SwarmSim, l: usize) -> bool {
        let idx = self.cfg.seeders + l;
        if sim.world().clients[idx].completed_at.is_some() {
            return false;
        }
        start_client(sim, idx);
        true
    }

    fn network(world: &SwarmWorld) -> &Network {
        &world.net
    }

    fn setup_metrics(&mut self, rec: &mut Recorder) {
        self.metrics = Some(SwarmMetrics {
            completed: rec.time_series("completed_clients"),
            completion_hist: rec.histogram("completion_time_secs"),
            departures: rec.counter("churn_departures"),
            honest_completion: self
                .roster
                .as_ref()
                .map(|_| rec.histogram("honest_completion_time_secs")),
        });
    }

    fn sample(&mut self, now: SimTime, world: &mut SwarmWorld, rec: &mut Recorder) -> f64 {
        world.check_completed_count();
        if let Some(m) = self.metrics {
            let completed = world.completed_count();
            rec.push(m.completed, now, completed as f64);
            if completed > self.completions_recorded {
                // Gather into the reused scratch (sorted), so everything past the high-water
                // mark is new; the periodic sampler stays allocation-free at steady state.
                self.completion_scratch.clear();
                self.completion_scratch
                    .extend(world.downloaders().filter_map(|c| c.completed_at));
                self.completion_scratch.sort_unstable();
                for t in &self.completion_scratch[self.completions_recorded..] {
                    rec.record(m.completion_hist, t.as_secs_f64());
                }
                self.completions_recorded = completed;
            }
            if let Some(hist) = m.honest_completion {
                let roster = self.roster.as_ref().expect("registered only with a roster");
                self.honest_scratch.clear();
                self.honest_scratch.extend(
                    world
                        .downloaders()
                        .enumerate()
                        .filter(|(l, _)| !roster.contains(*l))
                        .filter_map(|(_, c)| c.completed_at),
                );
                self.honest_scratch.sort_unstable();
                for t in &self.honest_scratch[self.honest_recorded..] {
                    rec.record(hist, t.as_secs_f64());
                }
                self.honest_recorded = self.honest_scratch.len();
            }
            rec.set_total(m.departures, world.tracker.stats().stopped);
        }
        world.total_bytes_downloaded() as f64
    }

    fn is_complete(&self, world: &SwarmWorld) -> bool {
        world.swarm_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryPlan;
    use crate::analysis::completion_summary;
    use crate::deploy::deploy;
    use crate::report::RunReport;
    use crate::scenario::dsl::ScenarioFile;
    use crate::scenario::{run_scenario, ScenarioSpec, SessionProcess};
    use crate::workloads::WorkloadConfig;
    use p2plab_bittorrent::{Bitfield, PeerConn};
    use p2plab_net::{ConnId, NetworkConfig, SocketAddr};
    use p2plab_sim::SimRng;

    /// `examples/scenarios/swarm_quick.toml` under `overrides`: its scenario and its swarm.
    fn quick(overrides: &str) -> (ScenarioSpec, SwarmSpec) {
        let text = include_str!("../../../../examples/scenarios/swarm_quick.toml");
        let file = ScenarioFile::parse_with(text, overrides).unwrap();
        match file.workload {
            WorkloadConfig::Swarm(swarm) => (file.spec, swarm),
            other => panic!("{other:?}"),
        }
    }

    fn run(spec: &ScenarioSpec, swarm: &SwarmSpec) -> (SwarmWorld, RunReport) {
        run_scenario(spec, SwarmWorkload::new(swarm.clone())).expect("deployment must succeed")
    }

    #[test]
    fn quick_swarm_completes() {
        let (spec, swarm) = quick("");
        let (world, report) = run(&spec, &swarm);
        assert!(world.swarm_finished(), "{:?}", report.outcome);
        assert_eq!(report.scenario, "swarm-quick");
        assert_eq!(world.completed_count(), swarm.leechers);
        assert_eq!(world.downloaders().count(), swarm.leechers);
        // Every progress curve ends at 100%.
        for c in world.downloaders() {
            assert_eq!(c.progress.last().unwrap().1, 100.0);
        }
        // The total-downloaded curve is non-decreasing and ends at >= leechers x file size.
        let total = report.progress();
        assert!(total.samples().windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(total.last().unwrap().1 >= (swarm.leechers as u64 * swarm.file_bytes) as f64);
        // Completion curve ends at the number of downloaders.
        assert_eq!(
            world.completion_curve().last().unwrap().1,
            swarm.leechers as f64
        );
        let s = completion_summary(&world.completion_times()).unwrap();
        assert_eq!(s.completed, swarm.leechers);
        assert!(s.first <= s.median && s.median <= s.last);
    }

    #[test]
    fn leechers_reciprocate_in_the_quick_swarm() {
        let (spec, swarm) = quick("");
        let (world, _) = run(&spec, &swarm);
        assert!(
            world.downloaders().any(|c| c.stats.bytes_uploaded > 0),
            "downloaders must upload to each other (tit-for-tat)"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let small = "workload.swarm.leechers = 5\nworkload.swarm.seeders = 1\n\
                     workload.swarm.file_bytes = 524_288\n";
        let (spec, swarm) = quick(small);
        let (a, report_a) = run(&spec, &swarm);
        let (b, report_b) = run(&spec, &swarm);
        assert_eq!(a.completion_times(), b.completion_times());
        assert_eq!(report_a.events_executed, report_b.events_executed);
        let (spec, swarm) = quick(&format!("{small}scenario.seed = 99\n"));
        let (c, _) = run(&spec, &swarm);
        assert_ne!(a.completion_times(), c.completion_times());
    }

    #[test]
    fn churn_slows_but_does_not_prevent_completion() {
        let eight = "workload.swarm.leechers = 8\n";
        let (steady, swarm) = quick(&format!("{eight}scenario.name = \"churn-baseline\"\n"));
        // Sessions must be shorter than the ~37 s undisturbed download time, otherwise most
        // clients finish before their first departure and the comparison is pure noise.
        let (churny, _) = quick(&format!(
            "{eight}scenario.name = \"churn-on\"\nscenario.deadline = \"6000s\"\n\
             sessions.kind = \"exponential\"\nsessions.mean_session = \"15s\"\n\
             sessions.mean_downtime = \"30s\"\n"
        ));
        assert!(matches!(
            churny.sessions,
            Some(SessionProcess::Exponential { .. })
        ));
        let (a, report_a) = run(&steady, &swarm);
        let (b, report_b) = run(&churny, &swarm);
        assert!(
            a.swarm_finished() && b.swarm_finished(),
            "a={:?} b={:?}",
            report_a.outcome,
            report_b.outcome
        );
        assert_eq!(report_a.metrics.counter("churn_departures"), Some(0));
        assert!(
            report_b.metrics.counter("churn_departures").unwrap() > 0,
            "churn must actually interrupt sessions"
        );
        let median = |w: &SwarmWorld| completion_summary(&w.completion_times()).unwrap().median;
        assert!(
            median(&b) > median(&a),
            "interrupted downloads should take longer"
        );
    }

    #[test]
    fn nic_utilization_is_monitored_and_bounded() {
        let (spec, swarm) = quick("");
        let (_, report) = run(&spec, &swarm);
        let peak = report.metrics.gauge("peak_nic_utilization").unwrap();
        assert!(peak > 0.0, "cross-machine traffic must show up");
        assert!(peak <= 1.0);
    }

    #[test]
    fn byzantine_leechers_slow_but_never_corrupt_honest_downloads() {
        // A quarter of the downloaders free-ride (never serve) and corrupt what they do
        // upload. Honest leechers re-fetch rejected blocks elsewhere and still finish; the
        // invariant monitor confirms no honest node accepted corruption.
        let (mut spec, swarm) = quick("workload.swarm.leechers = 8\nscenario.name = \"swarm-byz\"");
        let (honest, _) = run(&spec, &swarm);
        spec.adversary = Some(AdversaryPlan::new(
            0.25,
            &["ack-withhold", "corrupt-replies"],
        ));
        let (byz, report) = run(&spec, &swarm);
        assert!(honest.swarm_finished(), "honest baseline must finish");
        assert!(
            byz.swarm_finished(),
            "honest leechers must still finish under byzantine peers"
        );
        assert_eq!(report.metrics.counter("invariant_violations"), Some(0));
        assert!(report.metrics.counter("invariants_checked").unwrap() > 0);
        assert!(report.metrics.counter("byzantine_msgs_sent").unwrap() > 0);
        // The honest-only completion histogram exists exactly on adversarial runs and holds
        // one sample per honest leecher (8 leechers, a quarter byzantine).
        let h = report
            .metrics
            .histogram("honest_completion_time_secs")
            .unwrap();
        assert_eq!(h.count, 6);
        // Free-riding costs the swarm time: the last completion is no earlier than the
        // honest baseline's (the byzantine_sweep campaign shows the monotone curve).
        assert!(byz.completion_times().last() >= honest.completion_times().last());
    }

    #[test]
    fn request_ledger_stays_coherent_and_live_under_silent_drop_and_withholding() {
        // Byzantine peers that accept requests and never answer are the choke-drop path made
        // permanent. Cut the run short at several instants, so honest leechers are caught
        // mid-download: each contributes the three ledger checks on top of the two it always
        // gets, and none of them fires.
        let (base, swarm) = quick("workload.swarm.leechers = 8");
        for (deadline, behaviors) in [
            (21, ["silent-drop", "ack-withhold"]),
            (25, ["silent-drop", "ack-withhold"]),
            (29, ["ack-withhold", "corrupt-replies"]),
        ] {
            let mut spec = base.clone();
            spec.deadline = SimDuration::from_secs(deadline);
            spec.adversary = Some(AdversaryPlan::new(0.25, &behaviors));
            let (world, report) = run(&spec, &swarm);
            assert!(
                !world.swarm_finished(),
                "the deadline must cut the download short"
            );
            assert_eq!(report.outcome, RunOutcome::DeadlineReached);
            assert_eq!(report.metrics.counter("invariant_violations"), Some(0));
            let honest_incomplete = 6 - world.completed_count() as u64;
            assert!(
                report.metrics.counter("invariants_checked").unwrap() >= 6 + 3 * honest_incomplete,
                "ledger checks must have run on the incomplete honest leechers"
            );
        }
    }

    #[test]
    fn a_wedged_leecher_is_a_violation_even_at_a_deadline_stop() {
        let (spec, swarm) = quick("");
        let mut w = SwarmWorkload::new(swarm.clone());
        let deployment = deploy(&spec.topology, spec.deployment, NetworkConfig::default()).unwrap();
        let mut world = w.build_world(deployment);
        let stop = ShardedOutcome {
            stopped_at: SimTime::from_secs(500),
            events_executed: 0,
            outcome: RunOutcome::DeadlineReached,
        };
        assert!(w.check_invariants(&world, &stop).violations.is_empty());
        // A leecher that a seeder is unchoking, asking for nothing...
        let seeder_addr = SocketAddr::new(world.net.addr_of(world.clients[0].vnode), 6881);
        let leecher = &mut world.clients[swarm.seeders];
        leecher.online = true;
        let mut p = PeerConn::new(ConnId(1), seeder_addr, true, 8);
        p.bitfield = Bitfield::full(8);
        (p.handshaken, p.am_interested, p.peer_choking) = (true, true, false);
        leecher.peers.insert(p);
        let inv = w.check_invariants(&world, &stop);
        assert_eq!(inv.violations.len(), 1, "{:?}", inv.violations);
        // ...or holding a request nobody counted and no sweep ever forgot: two more.
        let leecher = &mut world.clients[swarm.seeders];
        leecher.peers[0]
            .inflight
            .push(((0, 0), SimTime::from_secs(100)));
        let inv = w.check_invariants(&world, &stop);
        assert_eq!(inv.violations.len(), 2, "{:?}", inv.violations);
    }

    #[test]
    fn arrival_ramp_matches_last_scheduled_arrival() {
        // The ramp `preflight` holds the deadline to: that of the drawn default arrivals.
        let ramp = |swarm: &SwarmSpec| {
            let w = SwarmWorkload::new(swarm.clone());
            let arrivals = w.default_arrivals();
            arrivals
                .schedule(w.participants(), &mut SimRng::new(1))
                .unwrap()
                .ramp()
        };
        let (_, mut swarm) = quick("workload.swarm.leechers = 5");
        // First downloader starts at the head start, so the ramp spans leechers - 1 intervals.
        assert_eq!(
            ramp(&swarm),
            swarm.seeder_head_start + swarm.start_interval * 4
        );
        // Many slow-staggered seeders can arrive after the last downloader: seeder `s` starts
        // at `s` seconds.
        let seeder_heavy = SwarmSpec {
            seeders: 100,
            leechers: 1,
            ..swarm.clone()
        };
        let last_seeder = SimDuration::from_secs(seeder_heavy.seeders as u64 - 1);
        assert_eq!(ramp(&seeder_heavy), seeder_heavy.seeder_head_start);
        assert!(last_seeder > ramp(&seeder_heavy));
        // No downloader, no ramp.
        swarm.leechers = 0;
        assert_eq!(ramp(&swarm), SimDuration::ZERO);
    }

    #[test]
    fn report_names_the_scenario_deployment() {
        // The name and folding ratio of the report come from the scenario the workload ran
        // under — here a different name and machine count than the file's own.
        let (spec, swarm) = quick(
            "workload.swarm.leechers = 4\nscenario.name = \"actual-name\"\nscenario.machines = 7",
        );
        let (_, report) = run(&spec, &swarm);
        assert_eq!(report.scenario, "actual-name");
        let total = swarm.total_vnodes();
        assert!((report.folding_ratio - total as f64 / 7.0).abs() < 1e-9);
    }
}
