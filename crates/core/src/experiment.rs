//! The paper's BitTorrent experiments as presets.
//!
//! These are the experiment descriptions of the paper's evaluation section, expressed as data:
//! how many clients and seeders, which access-link profile, how many physical machines the
//! virtual nodes are folded onto, how clients are started over time, and what gets sampled.
//!
//! A [`SwarmExperiment`] is run by splitting it into its two halves and handing them to the
//! generic loop: [`run_scenario`](crate::scenario::run_scenario)`(&cfg.to_scenario(),
//! cfg.workload())` returns the final [`SwarmWorld`](p2plab_bittorrent::SwarmWorld) — per-client
//! progress curves, completion times, upload counters — and the run's
//! [`RunReport`](crate::report::RunReport), whose `progress` series is the total-data curve of
//! Figure 9.

use crate::scenario::{ScenarioBuilder, ScenarioSpec, SessionProcess};
use crate::workloads::{SwarmSpec, SwarmWorkload};
use p2plab_bittorrent::ClientConfig;
use p2plab_net::{AccessLinkClass, TopologySpec};
use p2plab_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Description of one BitTorrent swarm experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwarmExperiment {
    /// Name used in reports.
    pub name: String,
    /// Size of the distributed file in bytes.
    pub file_bytes: u64,
    /// Number of initial seeders.
    pub seeders: usize,
    /// Number of downloaders.
    pub leechers: usize,
    /// Number of physical machines the virtual nodes are folded onto.
    pub machines: usize,
    /// Access link of every node (the paper uses a uniform DSL profile).
    pub link: AccessLinkClass,
    /// Interval between consecutive client starts.
    pub start_interval: SimDuration,
    /// How long before the first client the seeders (and tracker) come online.
    pub seeder_head_start: SimDuration,
    /// Client policy parameters.
    pub client_config: ClientConfig,
    /// Hard stop for the experiment (virtual time).
    pub deadline: SimDuration,
    /// Sampling period of the global "total data received" curve (Figure 9).
    pub sample_interval: SimDuration,
    /// Optional node-churn model applied to the downloaders (an extension beyond the paper's
    /// experiments, where clients stay online).
    pub churn: Option<SessionProcess>,
    /// RNG seed.
    pub seed: u64,
}

impl SwarmExperiment {
    /// The Figure 8 experiment: 160 clients and 4 seeders download a 16 MB file over DSL-like
    /// links (2 Mbps down, 128 kbps up, 30 ms), one client per physical node, clients started
    /// every 10 s.
    pub fn paper_figure8() -> SwarmExperiment {
        SwarmExperiment {
            name: "figure8-160-clients".into(),
            file_bytes: 16 * 1024 * 1024,
            seeders: 4,
            leechers: 160,
            machines: 165,
            link: AccessLinkClass::bittorrent_dsl(),
            start_interval: SimDuration::from_secs(10),
            seeder_head_start: SimDuration::from_secs(30),
            client_config: ClientConfig::default(),
            deadline: SimDuration::from_secs(6000),
            sample_interval: SimDuration::from_secs(10),
            churn: None,
            seed: 2006,
        }
    }

    /// The Figure 9 folding-ratio experiment: the same swarm as Figure 8 deployed on fewer
    /// physical machines (`clients_per_machine` in {1, 10, 20, 40, 80}).
    pub fn paper_figure9(clients_per_machine: usize) -> SwarmExperiment {
        assert!(clients_per_machine >= 1);
        let mut e = SwarmExperiment::paper_figure8();
        let total_vnodes = e.leechers + e.seeders + 1;
        e.machines = total_vnodes.div_ceil(clients_per_machine);
        e.name = format!("figure9-{clients_per_machine}-per-machine");
        e
    }

    /// The Figures 10-11 scalability experiment: 5754 clients, 4 seeders and one tracker on 180
    /// physical machines (32 virtual nodes each), clients started every 0.25 s. `scale` shrinks
    /// the experiment proportionally (1.0 = the paper's size) so it can also run as a test.
    pub fn paper_figure10(scale: f64) -> SwarmExperiment {
        assert!(scale > 0.0 && scale <= 1.0);
        let leechers = ((5754.0 * scale).round() as usize).max(10);
        let machines = (((leechers + 5) as f64) / 32.0).ceil() as usize;
        SwarmExperiment {
            name: format!("figure10-{leechers}-clients"),
            file_bytes: 16 * 1024 * 1024,
            seeders: 4,
            leechers,
            machines,
            link: AccessLinkClass::bittorrent_dsl(),
            start_interval: SimDuration::from_millis(250),
            seeder_head_start: SimDuration::from_secs(30),
            client_config: ClientConfig::default(),
            deadline: SimDuration::from_secs(8000),
            sample_interval: SimDuration::from_secs(10),
            churn: None,
            seed: 2006,
        }
    }

    /// A small, fast configuration for tests and the quickstart example.
    pub fn quick() -> SwarmExperiment {
        SwarmExperiment {
            name: "quick".into(),
            file_bytes: 2 * 1024 * 1024,
            seeders: 2,
            leechers: 12,
            machines: 4,
            link: AccessLinkClass::new(8_000_000, 1_000_000, SimDuration::from_millis(10)),
            start_interval: SimDuration::from_secs(2),
            seeder_head_start: SimDuration::from_secs(5),
            client_config: ClientConfig::default(),
            deadline: SimDuration::from_secs(2000),
            sample_interval: SimDuration::from_secs(5),
            churn: None,
            seed: 7,
        }
    }

    /// Total number of virtual nodes (clients + seeders + tracker).
    pub fn total_vnodes(&self) -> usize {
        self.leechers + self.seeders + 1
    }

    /// The folding ratio of the deployment.
    pub fn folding_ratio(&self) -> f64 {
        self.total_vnodes() as f64 / self.machines as f64
    }

    /// The scenario half of the experiment: topology, machines, churn, deadline, sampling
    /// period and seed.
    ///
    /// # Panics
    ///
    /// Panics when the config describes an invalid scenario (zero machines, zero deadline,
    /// zero sample interval, degenerate churn).
    pub fn to_scenario(&self) -> ScenarioSpec {
        let mut builder = ScenarioBuilder::new(
            &self.name,
            TopologySpec::uniform(&self.name, self.total_vnodes(), self.link),
        )
        .machines(self.machines)
        .deadline(self.deadline)
        .sample_interval(self.sample_interval)
        .seed(self.seed);
        if let Some(churn) = &self.churn {
            builder = builder.sessions(churn.clone());
        }
        builder
            .build()
            .expect("swarm experiment config describes an invalid scenario")
    }

    /// The workload half of the experiment: the swarm to run under
    /// [`to_scenario`](SwarmExperiment::to_scenario).
    pub fn workload(&self) -> SwarmWorkload {
        SwarmWorkload::new(SwarmSpec {
            file_bytes: self.file_bytes,
            seeders: self.seeders,
            leechers: self.leechers,
            start_interval: self.start_interval,
            seeder_head_start: self.seeder_head_start,
            client_config: self.client_config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::completion_summary;
    use crate::report::RunReport;
    use crate::scenario::run_scenario;
    use p2plab_bittorrent::SwarmWorld;

    fn run(cfg: &SwarmExperiment) -> (SwarmWorld, RunReport) {
        run_scenario(&cfg.to_scenario(), cfg.workload()).expect("deployment must succeed")
    }

    #[test]
    fn quick_experiment_completes() {
        let cfg = SwarmExperiment::quick();
        let (world, report) = run(&cfg);
        assert!(world.swarm_finished(), "{:?}", report.outcome);
        assert_eq!(report.scenario, "quick");
        assert_eq!(world.completed_count(), cfg.leechers);
        assert_eq!(world.downloaders().count(), cfg.leechers);
        // Every progress curve ends at 100%.
        for c in world.downloaders() {
            assert_eq!(c.progress.last().unwrap().1, 100.0);
        }
        // The total-downloaded curve is non-decreasing and ends at >= leechers x file size.
        let total = report.progress();
        assert!(total.samples().windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(total.last().unwrap().1 >= (cfg.leechers as u64 * cfg.file_bytes) as f64);
        // Completion curve ends at the number of downloaders.
        assert_eq!(
            world.completion_curve().last().unwrap().1,
            cfg.leechers as f64
        );
        let s = completion_summary(&world.completion_times()).unwrap();
        assert_eq!(s.completed, cfg.leechers);
        assert!(s.first <= s.median && s.median <= s.last);
    }

    #[test]
    fn leechers_reciprocate_in_quick_experiment() {
        let (world, _) = run(&SwarmExperiment::quick());
        assert!(
            world.downloaders().any(|c| c.stats.bytes_uploaded > 0),
            "downloaders must upload to each other (tit-for-tat)"
        );
    }

    #[test]
    fn experiment_presets_match_paper_parameters() {
        let f8 = SwarmExperiment::paper_figure8();
        assert_eq!(f8.leechers, 160);
        assert_eq!(f8.seeders, 4);
        assert_eq!(f8.file_bytes, 16 * 1024 * 1024);
        assert_eq!(f8.start_interval, SimDuration::from_secs(10));
        assert!((f8.folding_ratio() - 1.0).abs() < 1e-9);

        let f9 = SwarmExperiment::paper_figure9(80);
        assert!((f9.folding_ratio() - 55.0).abs() < 30.0);
        assert!(f9.machines < f8.machines);

        let f10 = SwarmExperiment::paper_figure10(1.0);
        assert_eq!(f10.leechers, 5754);
        assert_eq!(f10.machines, 180);
        assert_eq!(f10.start_interval, SimDuration::from_millis(250));

        let f10_small = SwarmExperiment::paper_figure10(0.02);
        assert!(f10_small.leechers >= 10 && f10_small.leechers < 200);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SwarmExperiment {
            leechers: 5,
            seeders: 1,
            file_bytes: 512 * 1024,
            ..SwarmExperiment::quick()
        };
        let (a, report_a) = run(&cfg);
        let (b, report_b) = run(&cfg);
        assert_eq!(a.completion_times(), b.completion_times());
        assert_eq!(report_a.events_executed, report_b.events_executed);
        let mut cfg2 = cfg.clone();
        cfg2.seed = 99;
        let (c, _) = run(&cfg2);
        assert_ne!(a.completion_times(), c.completion_times());
    }

    #[test]
    fn churn_slows_but_does_not_prevent_completion() {
        let mut steady = SwarmExperiment::quick();
        steady.leechers = 8;
        steady.name = "churn-baseline".into();
        let mut churny = steady.clone();
        churny.name = "churn-on".into();
        // Sessions must be shorter than the ~37 s undisturbed download time, otherwise most
        // clients finish before their first departure and the comparison is pure noise.
        churny.churn = Some(SessionProcess::Exponential {
            mean_session: SimDuration::from_secs(15),
            mean_downtime: SimDuration::from_secs(30),
        });
        churny.deadline = SimDuration::from_secs(6000);
        let (a, report_a) = run(&steady);
        let (b, report_b) = run(&churny);
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
        let (_, report) = run(&SwarmExperiment::quick());
        let peak = report.metrics.gauge("peak_nic_utilization").unwrap();
        assert!(peak > 0.0, "cross-machine traffic must show up");
        assert!(peak <= 1.0);
    }
}
