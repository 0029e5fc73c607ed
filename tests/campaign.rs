//! Integration tests of the campaign layer: the checked-in campaign files expand to their
//! documented grids, and — the load-bearing determinism claim — running a ≥12-cell grid over
//! multiple workloads produces **byte-identical** aggregate artifacts whatever the thread
//! count. The committed scale-sweep aggregate is re-checked on its cheap cells, so behaviour
//! drift shows in seconds here and not only in CI's full regeneration.

use p2plab::core::{
    run_campaign, CampaignCell, CampaignSpec, CampaignSummary, RunReport, WorkloadConfig,
};
use p2plab::sim::RunOutcome;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn example(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The CI smoke campaign covers the whole workload registry through the DSL: the matrix grid
/// crosses every classic kind with the link conditioners, and `gossip-sharded` — whose
/// runtime rejects conditioned links (it models its own wire delays) — rides along as the
/// explicit byzantine `[cells.byzantine]` cell on a clean link, rounds-capped so it drains
/// under `--strict`.
#[test]
fn ci_smoke_campaign_covers_the_registry() {
    let campaign = CampaignSpec::parse(&example("campaigns/ci_smoke.toml")).unwrap();
    let cells = campaign.expand().unwrap();
    assert_eq!(campaign.name, "ci-smoke");
    let kinds: BTreeSet<&str> = cells.iter().map(|c| c.file.workload.kind()).collect();
    let expected: BTreeSet<&str> = WorkloadConfig::KINDS.iter().map(|&(k, _)| k).collect();
    assert_eq!(kinds, expected);

    let byz = cells.last().expect("non-empty campaign");
    assert_eq!(byz.label, "cell-byzantine");
    assert_eq!(byz.file.workload.kind(), "gossip-sharded");
    assert_eq!(byz.file.spec.shards, 2);
    assert!(byz.file.spec.adversary.is_some(), "the cell carries a plan");
    // Only the byzantine cell is adversarial: the honest grid's reports keep their schema.
    assert!(cells[..cells.len() - 1]
        .iter()
        .all(|c| c.file.spec.adversary.is_none()));
}

/// The ci_smoke byzantine cell is shard-count-invariant: the same cell forced to `shards = 1`
/// and `shards = 4` produces byte-identical `RunReport`s (modulo wall-clock fields), drains —
/// the property `--strict` enforces in CI — and keeps every honest-node invariant clean.
#[test]
fn ci_smoke_byzantine_cell_is_shard_count_invariant() {
    let campaign = CampaignSpec::parse(&example("campaigns/ci_smoke.toml")).unwrap();
    let cells = campaign.expand().unwrap();
    let cell = cells
        .iter()
        .find(|c| c.label == "cell-byzantine")
        .expect("byzantine cell");

    let run_at = |shards: usize| {
        let mut cell = cell.clone();
        cell.file.spec.shards = shards;
        cell.file.run().expect("byzantine cell runs")
    };
    let canon = |mut rep: RunReport| {
        rep.wall_secs = 0.0;
        rep.events_per_sec = 0.0;
        rep
    };
    let one = run_at(1);
    assert_eq!(one.outcome, RunOutcome::Drained, "--strict needs a drain");
    assert!(one.metrics.counter("byzantine_msgs_sent").unwrap() > 0);
    assert_eq!(one.metrics.counter("invariant_violations"), Some(0));
    assert!(one.metrics.counter("invariants_checked").unwrap() > 0);
    let four = run_at(4);
    assert_eq!(
        canon(one).to_json(),
        canon(four).to_json(),
        "byzantine RunReport diverged between 1 and 4 shards"
    );
}

/// The checked-in grid campaign expands to its documented 12 cells over two workload kinds,
/// and running it on 1 thread vs several produces byte-identical CSV and JSON aggregates.
#[test]
fn grid_campaign_aggregate_is_thread_count_invariant() {
    let campaign = CampaignSpec::parse(&example("campaigns/loss_arrival_grid.toml")).unwrap();
    let cells = campaign.expand().unwrap();
    assert_eq!(cells.len(), 12, "the documented 2x2x3 grid");
    let kinds: BTreeSet<&str> = cells.iter().map(|c| c.file.workload.kind()).collect();
    assert!(kinds.len() >= 2, "grid must span multiple workloads");

    let single: Vec<RunReport> = run_campaign(&cells, 1)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every cell runs");
    let parallel: Vec<RunReport> = run_campaign(&cells, 4)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every cell runs");

    let a = CampaignSummary::new(&campaign.name, &cells, &single);
    let b = CampaignSummary::new(&campaign.name, &cells, &parallel);
    assert_eq!(
        a.to_csv(),
        b.to_csv(),
        "CSV aggregate must be byte-identical"
    );
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "JSON aggregate must be byte-identical"
    );

    // The grid is not degenerate: seeds actually vary outcomes within a kind group, yet the
    // first cell of each kind compares against itself with zero deviation.
    assert_eq!(a.rows.len(), 12);
    assert_eq!(a.rows[0].progress_dev_vs_first, 0.0);
    let seeds: BTreeSet<u64> = a.rows.iter().map(|r| r.seed).collect();
    assert_eq!(seeds, [1u64, 2, 3].into_iter().collect());
}

/// The checked-in byzantine sweep validates end to end (every cell passes the strict DSL
/// re-parse `expand` performs) and its swarm curve shows what the sweep exists to show:
/// honest completion time degrades monotonically with the byzantine fraction, while every
/// honest-node invariant stays clean — adversaries slow the swarm down, they never corrupt it.
#[test]
fn byzantine_sweep_swarm_curve_degrades_monotonically() {
    let campaign = CampaignSpec::parse(&example("campaigns/byzantine_sweep.toml")).unwrap();
    let cells = campaign.expand().unwrap();
    assert_eq!(campaign.name, "byzantine-sweep");
    assert_eq!(
        cells.len(),
        24,
        "3 kinds x 2 behavior families x 4 fractions"
    );
    let kinds: BTreeSet<&str> = cells.iter().map(|c| c.file.workload.kind()).collect();
    assert_eq!(kinds.len(), 3, "every adversarial workload kind is swept");

    // The fraction axis is last (fastest), so the first four cells are the swarm curve for
    // the application-protocol behavior family, fractions 0.0 → 0.4.
    let curve: Vec<&CampaignCell> = cells[..4].iter().collect();
    for c in &curve {
        assert_eq!(c.file.workload.kind(), "swarm");
    }
    let fractions: Vec<f64> = curve
        .iter()
        .map(|c| match &c.file.spec.adversary {
            Some(plan) => plan.fraction,
            None => unreachable!("every sweep cell carries a plan"),
        })
        .collect();
    assert_eq!(fractions, [0.0, 0.15, 0.25, 0.4]);

    let reports: Vec<RunReport> = run_campaign(&cells[..4], 2)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every curve cell runs");
    let mut last_times: Vec<f64> = Vec::new();
    for (report, fraction) in reports.iter().zip(&fractions) {
        assert_eq!(report.outcome, RunOutcome::Drained);
        if *fraction > 0.0 {
            assert_eq!(report.metrics.counter("invariant_violations"), Some(0));
            assert!(report.metrics.counter("byzantine_msgs_sent").unwrap() > 0);
        } else {
            // A plan that resolves to nobody is exactly an honest run — no adversary
            // counters, no schema drift.
            assert_eq!(report.metrics.counter("invariant_violations"), None);
        }
        // `honest_completion_time_secs` exists only when the plan resolved to somebody; the
        // fraction-0 anchor's honest population is everybody.
        let hist = report
            .metrics
            .histogram("honest_completion_time_secs")
            .or_else(|| report.metrics.histogram("completion_time_secs"))
            .expect("completion histogram");
        assert!(hist.count > 0, "honest leechers completed");
        last_times.push(hist.max.expect("non-empty histogram has a max"));
    }
    assert!(
        last_times.windows(2).all(|w| w[0] <= w[1]),
        "honest completion must degrade monotonically with the byzantine fraction: {last_times:?}"
    );
    assert!(
        last_times[3] > last_times[0],
        "a 0.4 byzantine fraction must visibly slow the honest swarm: {last_times:?}"
    );
}

/// The rows of a committed `results/campaign/<name>/summary.csv`, each as column → cell.
/// Quotes are dropped, which is all the comparisons below need.
fn committed_rows(campaign: &str) -> Vec<BTreeMap<String, String>> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results/campaign")
        .join(campaign)
        .join("summary.csv");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let split = |line: &str| {
        let mut fields = vec![String::new()];
        let mut quoted = false;
        for c in line.chars() {
            match c {
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(String::new()),
                c => fields.last_mut().expect("starts non-empty").push(c),
            }
        }
        fields
    };
    let mut lines = text.lines();
    let header = split(lines.next().expect("header line"));
    lines
        .map(|line| header.iter().cloned().zip(split(line)).collect())
        .collect()
}

/// Runs `cells` and asserts each reproduces its committed row: outcome, stop time, event count
/// and final progress. Returns the reports.
fn rerun_against_committed(
    campaign: &str,
    cells: &[CampaignCell],
    committed: &[BTreeMap<String, String>],
) -> Vec<RunReport> {
    let reports: Vec<RunReport> = run_campaign(cells, 1)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every cell runs");
    for row in CampaignSummary::new(campaign, cells, &reports).rows {
        let was = &committed[row.index];
        let now = (
            row.outcome.as_str(),
            row.stopped_at_ns,
            row.events_executed,
            row.final_progress,
        );
        let then = (
            was["outcome"].as_str(),
            was["stopped_at_ns"].parse().unwrap(),
            was["events_executed"].parse().unwrap(),
            was["final_progress"].parse().unwrap(),
        );
        assert_eq!(now, then, "{} drifted from its committed row", row.scenario);
    }
    reports
}

/// The churn campaign is cheap enough to re-run whole: every cell reproduces its committed
/// row, and in every cell the session process really acted — the swarm's tracker saw
/// departures, and each gossip run differs from the same overlay without sessions.
#[test]
fn churn_campaign_reproduces_its_committed_aggregate() {
    let campaign = CampaignSpec::parse(&example("campaigns/churn.toml")).unwrap();
    let cells = campaign.expand().unwrap();
    let committed = committed_rows(&campaign.name);
    assert_eq!(cells.len(), committed.len(), "one committed row per cell");
    let mut calm = cells[0].file.clone();
    calm.spec.sessions = None;
    let calm = calm.run().expect("the base runs without sessions");
    for report in rerun_against_committed(&campaign.name, &cells, &committed) {
        match report.workload.as_str() {
            "gossip" => assert_ne!(report.events_executed, calm.events_executed),
            _ => assert!(report.metrics.counter("churn_departures") > Some(0)),
        }
    }
}

/// The scale sweep's committed aggregate is the tree's behaviour ledger; CI regenerates all of
/// it. Here: every cell of the file expands and validates and has its committed row; the
/// cells cheap enough for tier-1 are re-run and must reproduce their rows; and the committed
/// rows of the shard axis agree (the sharded runtime is partition-invariant).
#[test]
fn scale_sweep_reproduces_its_committed_aggregate_on_the_cheap_cells() {
    let campaign = CampaignSpec::parse(&example("campaigns/scale_sweep.toml")).unwrap();
    let cells = campaign.expand().unwrap();
    let committed = committed_rows(&campaign.name);
    assert_eq!(cells.len(), committed.len(), "one committed row per cell");
    for (cell, row) in cells.iter().zip(&committed) {
        assert_eq!(cell.label, row["cell"]);
        assert_eq!(cell.file.spec.name, row["scenario"]);
    }

    let cheap: Vec<CampaignCell> = (cells.iter().zip(&committed))
        .filter(|(_, row)| row["events_executed"].parse::<u64>().unwrap() < 100_000)
        .map(|(cell, _)| cell.clone())
        .collect();
    let names: Vec<&str> = cheap.iter().map(|c| c.file.spec.name.as_str()).collect();
    assert_eq!(
        names,
        ["scale-mesh-1000", "scale-gossip-1000", "scale-dht-1000"]
    );
    rerun_against_committed(&campaign.name, &cheap, &committed);

    let sharded: Vec<_> = committed
        .iter()
        .filter(|row| row["workload"] == "gossip-sharded")
        .collect();
    assert_eq!(sharded.len(), 2, "the shard axis: 1 and 2 threads");
    for (column, one) in sharded[0] {
        if !["cell", "overrides", "scenario"].contains(&column.as_str()) {
            assert_eq!(
                one, &sharded[1][column],
                "{column} depends on the shard count"
            );
        }
    }
}
