//! Cross-crate integration tests: a full BitTorrent experiment through the public facade —
//! deployment, network emulation, protocol dynamics, analysis.

use p2plab::bittorrent::SwarmWorld;
use p2plab::core::{
    compare_folding, completion_summary, download_phases, run_scenario, RunReport, ScenarioFile,
    SwarmWorkload, WorkloadConfig,
};

const FILE_BYTES: u64 = 2 * 1024 * 1024;

/// A scaled-down Figure 8 (`examples/scenarios/paper_fig8.toml`): the paper's DSL profile, but a
/// 2 MB file, a 5 s start interval and a handful of clients so the test stays fast; `extra`
/// overrides go on top.
fn small_paper_swarm(leechers: usize, machines: usize, seed: u64, extra: &str) -> ScenarioFile {
    let overrides = format!(
        "scenario.name = \"it-swarm-{leechers}x{machines}-{seed}\"\nscenario.machines = {machines}\n\
         scenario.seed = {seed}\nworkload.swarm.leechers = {leechers}\n\
         workload.swarm.file_bytes = {FILE_BYTES}\nworkload.swarm.start_interval = \"5s\"\n{extra}"
    );
    let text = include_str!("../examples/scenarios/paper_fig8.toml");
    ScenarioFile::parse_with(text, &overrides).expect("paper_fig8.toml parses")
}

/// Runs the swarm and asserts every downloader finished.
fn run(file: &ScenarioFile) -> (SwarmWorld, RunReport) {
    let WorkloadConfig::Swarm(swarm) = &file.workload else {
        panic!("not a swarm: {:?}", file.workload);
    };
    let workload = SwarmWorkload::new(swarm.clone());
    let (world, report) = run_scenario(&file.spec, workload).expect("swarm runs");
    assert!(
        world.swarm_finished(),
        "{}: {:?}",
        report.scenario,
        report.outcome
    );
    (world, report)
}

#[test]
fn paper_style_swarm_completes_with_consistent_accounting() {
    let (world, report) = run(&small_paper_swarm(16, 21, 1, ""));
    assert_eq!(world.completed_count(), 16);

    // Byte conservation across the whole system: uploads equal downloads, and every client
    // received at least the file. Endgame mode may fetch the last blocks twice; with a 2 MB
    // file that waste is proportionally larger than in the paper's 16 MB experiments (where it
    // stays below ~3%), so allow up to 12% here.
    let total_down: f64 = report.progress().last().unwrap().1;
    assert!(total_down >= (16 * FILE_BYTES) as f64);
    assert!(
        total_down <= 1.12 * (16 * FILE_BYTES) as f64,
        "wasted transfer too high: {total_down} vs {} useful",
        16 * FILE_BYTES
    );
    assert_eq!(world.total_bytes_uploaded(), total_down as u64);

    // Downloaders reciprocated (tit-for-tat) rather than leaving all work to the seeders.
    assert!(world.downloaders().any(|c| c.stats.bytes_uploaded > 0));

    // The three phases of Figure 8 are identifiable and ordered.
    let times = world.completion_times();
    let phases = download_phases(&times, report.progress()).expect("phases");
    assert!(phases.seeder_only_until <= phases.first_completion);
    assert!(phases.first_completion < phases.last_completion);

    // Completion statistics are coherent.
    let s = completion_summary(&times).expect("summary");
    assert_eq!(s.completed, 16);
    assert!(s.first <= s.median && s.median <= s.last);
}

#[test]
fn folding_invariance_holds_at_test_scale() {
    // The Figure 9 claim: deploying the same swarm on fewer machines does not change the
    // aggregate results. Compare 1-ish clients per machine against everything on one machine.
    let (spread, spread_report) = run(&small_paper_swarm(12, 17, 3, ""));
    let (folded, folded_report) = run(&small_paper_swarm(12, 1, 3, ""));
    let cmp = compare_folding(
        (&spread_report, &spread.completion_times()),
        &[(&folded_report, &folded.completion_times())],
    );
    assert!(
        cmp.worst_deviation() < 0.10,
        "folding changed the aggregate curve by {:.1}%",
        100.0 * cmp.worst_deviation()
    );
    assert!(cmp.rows[0].completion_ks_distance < 0.5);
    assert_eq!(cmp.rows[0].completion_fraction, 1.0);
}

#[test]
fn runs_are_reproducible_from_the_seed() {
    let (a, report_a) = run(&small_paper_swarm(8, 5, 11, ""));
    let (b, report_b) = run(&small_paper_swarm(8, 5, 11, ""));
    assert_eq!(a.completion_times(), b.completion_times());
    assert_eq!(report_a.events_executed, report_b.events_executed);
    assert_eq!(a.net.stats(), b.net.stats());
    let (c, _) = run(&small_paper_swarm(8, 5, 12, ""));
    assert_ne!(
        a.completion_times(),
        c.completion_times(),
        "different seeds should give different runs"
    );
}

#[test]
fn slower_access_links_slow_the_swarm_down() {
    // Sanity of the network emulation as seen from the application: halving the upload
    // bandwidth must increase completion times (the swarm is upload-bound).
    let fast = small_paper_swarm(8, 11, 5, "topology.up_bps = 256_000\n");
    let slow = small_paper_swarm(8, 11, 5, "topology.up_bps = 128_000\n");
    let median = |file: &ScenarioFile| {
        let (world, _) = run(file);
        let times = world.completion_times();
        completion_summary(&times).unwrap().median.as_secs_f64()
    };
    let f = median(&fast);
    let s = median(&slow);
    assert!(
        s > 1.3 * f,
        "halving upload bandwidth should visibly slow completion: fast={f:.0}s slow={s:.0}s"
    );
}
