//! Scenario/campaign runner: executes declarative `.toml` scenario files and parameter-grid
//! campaigns from the command line.
//!
//! ```text
//! cargo run --release -p p2plab-bench --bin campaign -- run examples/campaigns/ci_smoke.toml
//! cargo run --release -p p2plab-bench --bin campaign -- validate examples/scenarios/*.toml
//! ```
//!
//! Subcommands:
//!
//! * `validate <file>...` — parse and validate each file (scenario or campaign, detected by
//!   the presence of a `[campaign]` section), expanding campaign grids so every cell is
//!   checked, without running anything.
//! * `run <file> [--threads N] [--strict] [--cell <label>]` — run the file. A plain scenario
//!   writes one `RunReport` under `results/`; a campaign runs its grid across worker threads
//!   and writes one report per cell under `results/campaign/<name>/<cell>/` plus the
//!   cross-run `summary.csv` / `summary.json` aggregate. `--strict` additionally fails the
//!   process if any cell ends in an outcome other than `drained`. `--cell cell-03` re-runs a
//!   single grid cell (refreshing its per-cell report but leaving the full-grid summary
//!   untouched) — the fast loop when one cell of a large sweep needs another look.
//!
//! `--threads` composes with the scenarios' `shards` knob: each worker runs one cell at a
//! time, and a shard-native cell spawns `shards` event-loop threads of its own, so the OS
//! thread demand is their product. When that exceeds the machine's parallelism the runner
//! prints a warning and continues — results are deterministic regardless of scheduling, only
//! wall-clock speedup suffers.
//!
//! Exit codes: `0` success, `1` a run failed (or `--strict` outcome check), `2` usage, parse
//! or validation error.

use p2plab_bench::{results_path, write_results_file, write_run_report, write_run_report_in};
use p2plab_core::{
    default_threads, oversubscription_warning, parse_toml, render_table, run_campaign,
    CampaignCell, CampaignSpec, CampaignSummary, ScenarioFile,
};
use std::process::ExitCode;

struct Args {
    command: String,
    files: Vec<String>,
    threads: Option<usize>,
    strict: bool,
    cell: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: campaign validate <file.toml>...\n       campaign run <file.toml> [--threads N] [--strict] [--cell <label>]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return Err(usage());
    };
    let mut parsed = Args {
        command,
        files: Vec::new(),
        threads: None,
        strict: false,
        cell: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let value = args.next().and_then(|v| v.parse::<usize>().ok());
                match value {
                    Some(n) if n > 0 => parsed.threads = Some(n),
                    _ => {
                        eprintln!("error: --threads expects a positive integer");
                        return Err(usage());
                    }
                }
            }
            "--strict" => parsed.strict = true,
            "--cell" => match args.next() {
                Some(label) => parsed.cell = Some(label),
                None => {
                    eprintln!("error: --cell expects a cell label (e.g. cell-03)");
                    return Err(usage());
                }
            },
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other}");
                return Err(usage());
            }
            file => parsed.files.push(file.to_string()),
        }
    }
    if parsed.files.is_empty() {
        eprintln!("error: no scenario file given");
        return Err(usage());
    }
    Ok(parsed)
}

/// What a file holds, parsed and validated — what `run` then executes, so the file is read once.
enum Loaded {
    Scenario(Box<ScenarioFile>),
    Campaign(CampaignSpec, Vec<CampaignCell>),
}

/// Parses + validates one file (a campaign's cells all expanded); prints what it found.
fn load(path: &str) -> Result<Loaded, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    let root = parse_toml(&text).map_err(|e| {
        eprintln!("error: {path}: {e}");
        ExitCode::from(2)
    })?;
    if CampaignSpec::is_campaign(&root) {
        let campaign = CampaignSpec::from_table(&root).map_err(|e| {
            eprintln!("error: {path}: {e}");
            ExitCode::from(2)
        })?;
        let cells = campaign.expand().map_err(|e| {
            eprintln!("error: {path}: {e}");
            ExitCode::from(2)
        })?;
        println!(
            "[{path}] campaign {:?}: {} cell(s) over {} matrix ax(es), all valid",
            campaign.name,
            cells.len(),
            campaign.axes.len()
        );
        Ok(Loaded::Campaign(campaign, cells))
    } else {
        let file = ScenarioFile::from_table(&root).map_err(|e| {
            eprintln!("error: {path}: {e}");
            ExitCode::from(2)
        })?;
        file.validate().map_err(|e| {
            eprintln!("error: {path}: invalid scenario: {e}");
            ExitCode::from(2)
        })?;
        println!(
            "[{path}] scenario {:?}: workload {}, {} vnode(s) on {} machine(s), valid",
            file.spec.name,
            file.workload.kind(),
            file.spec.topology.total_nodes(),
            file.spec.deployment.machines
        );
        Ok(Loaded::Scenario(Box::new(file)))
    }
}

fn run_one(path: &str, args: &Args) -> Result<(), ExitCode> {
    match load(path)? {
        Loaded::Scenario(file) => {
            if args.cell.is_some() {
                eprintln!("error: {path}: --cell only applies to campaign files");
                return Err(ExitCode::from(2));
            }
            // Plain scenario: one run, one report under results/.
            let report = file.workload.run(&file.spec).map_err(|e| {
                eprintln!("error: {path}: run failed: {e}");
                ExitCode::from(1)
            })?;
            if args.strict && report.outcome != p2plab_sim::RunOutcome::Drained {
                eprintln!(
                    "error: {path}: strict mode: outcome was not drained ({:?})",
                    report.outcome
                );
                return Err(ExitCode::from(1));
            }
            print!(
                "{}",
                render_table(
                    &format!("scenario {:?}", report.scenario),
                    &["workload", "outcome", "stopped_at", "events", "vnodes"],
                    &[vec![
                        report.workload.clone(),
                        format!("{:?}", report.outcome),
                        format!("{:.1}s", report.stopped_at.as_secs_f64()),
                        format!("{}", report.events_executed),
                        format!("{}", report.vnodes),
                    ]],
                )
            );
            write_run_report(&report);
            Ok(())
        }
        Loaded::Campaign(campaign, cells) => {
            // --cell: re-run just the named grid cell, refreshing its per-cell report without
            // touching the full-grid summary artifacts.
            let cells = match &args.cell {
                None => cells,
                Some(label) => {
                    let selected: Vec<CampaignCell> = cells
                        .iter()
                        .filter(|c| &c.label == label)
                        .cloned()
                        .collect();
                    if selected.is_empty() {
                        let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
                        eprintln!(
                            "error: {path}: no cell labeled {label:?} (cells: {})",
                            labels.join(", ")
                        );
                        return Err(ExitCode::from(2));
                    }
                    selected
                }
            };
            let threads = args.threads.unwrap_or_else(default_threads);
            println!(
                "[{path}] running {} cell(s) on {} thread(s)",
                cells.len(),
                threads
            );
            // Worker threads and per-cell event-loop shards multiply; warn (results are
            // unaffected — determinism never depends on scheduling) instead of erroring.
            if let Some(warning) = oversubscription_warning(&cells, threads) {
                eprintln!("warning: {path}: {warning}");
            }
            let results = run_campaign(&cells, threads);
            let mut reports = Vec::with_capacity(cells.len());
            let mut failed = false;
            for (cell, result) in cells.iter().zip(results) {
                match result {
                    Ok(report) => {
                        write_run_report_in(&["campaign", &campaign.name, &cell.label], &report);
                        reports.push(report);
                    }
                    Err(e) => {
                        eprintln!("error: {path}: {}: run failed: {e}", cell.label);
                        failed = true;
                    }
                }
            }
            if failed {
                return Err(ExitCode::from(1));
            }
            let summary = CampaignSummary::new(&campaign.name, &cells, &reports);
            let rows: Vec<Vec<String>> = summary
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.label.clone(),
                        r.overrides
                            .iter()
                            .map(|(k, v)| format!("{k}={v}"))
                            .collect::<Vec<_>>()
                            .join(" "),
                        r.workload.clone(),
                        r.outcome.clone(),
                        format!("{}", r.events_executed),
                        format!("{:.4}", r.final_progress),
                        format!("{:.4}", r.progress_dev_vs_first),
                    ]
                })
                .collect();
            print!(
                "{}",
                render_table(
                    &format!("campaign {:?}", campaign.name),
                    &[
                        "cell",
                        "overrides",
                        "workload",
                        "outcome",
                        "events",
                        "progress",
                        "dev-vs-first",
                    ],
                    &rows,
                )
            );
            if args.cell.is_none() {
                let stem = results_path(&["campaign", &campaign.name, "summary"]);
                write_results_file(&format!("{stem}.csv"), &summary.to_csv());
                write_results_file(&format!("{stem}.json"), &summary.to_json());
            } else {
                println!(
                    "(--cell run: per-cell report refreshed, full-grid summary left untouched)"
                );
            }
            if args.strict {
                let undrained: Vec<&str> = summary
                    .rows
                    .iter()
                    .filter(|r| r.outcome != "drained")
                    .map(|r| r.label.as_str())
                    .collect();
                if !undrained.is_empty() {
                    eprintln!(
                        "error: {path}: strict mode: cell(s) did not drain: {}",
                        undrained.join(", ")
                    );
                    return Err(ExitCode::from(1));
                }
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    match args.command.as_str() {
        "validate" => {
            for path in &args.files {
                if let Err(code) = load(path) {
                    return code;
                }
            }
            println!("all {} file(s) valid", args.files.len());
            ExitCode::SUCCESS
        }
        "run" => {
            if args.files.len() != 1 {
                eprintln!("error: `run` expects exactly one file");
                return usage();
            }
            match run_one(&args.files[0], &args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(code) => code,
            }
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            usage()
        }
    }
}
