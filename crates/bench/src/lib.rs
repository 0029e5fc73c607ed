//! Shared helpers for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a **binary**
//! (`cargo run --release -p p2plab-bench --bin fig8_swarm_progress`) that runs the experiment
//! at paper scale (or a scale given on the command line) and prints the same rows/series the
//! figure plots. The swarm figures run the paper's scenario files
//! (`examples/scenarios/paper_fig{8,10}.toml`) with their scale applied as overrides.

#![warn(missing_docs)]

use p2plab_bittorrent::SwarmWorld;
use p2plab_core::{run_scenario, RunReport, ScenarioFile, SwarmWorkload, WorkloadConfig};
use std::io::Write;
use std::path::PathBuf;

/// Scale factor passed on the command line (first argument), clamped to `[min, 1.0]`.
/// Defaults to `default` when absent or unparsable.
pub fn arg_scale(default: f64, min: f64) -> f64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(default)
        .clamp(min, 1.0)
}

/// One line naming a run: scenario, outcome, stop time, event count and folding ratio.
pub fn run_summary(report: &RunReport) -> String {
    format!(
        "{}: {:?} at {} after {} events, folding {:.0}:1",
        report.scenario,
        report.outcome,
        report.stopped_at,
        report.events_executed,
        report.folding_ratio
    )
}

/// Runs a swarm scenario file, writes its report under `results/` and prints what ran and its
/// [`run_summary`]. Returns the final swarm world and the report.
///
/// # Panics
///
/// Panics when the file is not a swarm scenario or the run fails to start.
pub fn run_swarm(file: &ScenarioFile) -> (SwarmWorld, RunReport) {
    let WorkloadConfig::Swarm(swarm) = &file.workload else {
        panic!("{}: not a swarm scenario", file.spec.name);
    };
    println!(
        "running {}: {} clients + {} seeders on {} machines (folding {:.1}:1), start interval {}",
        file.spec.name,
        swarm.leechers,
        swarm.seeders,
        file.spec.deployment.machines,
        file.spec.folding_ratio(),
        swarm.start_interval
    );
    let workload = SwarmWorkload::new(swarm.clone());
    let (world, report) = run_scenario(&file.spec, workload).expect("scenario runs");
    write_run_report(&report);
    println!(
        "  {} (peak NIC utilization {:.0}%)",
        run_summary(&report),
        100.0 * report.metrics.gauge("peak_nic_utilization").unwrap_or(0.0)
    );
    (world, report)
}

/// Writes a run's [`RunReport`] as JSON (plus its scalar-metrics CSV) under `results/`,
/// verifying on the way out that the JSON round-trips through the loader — a bench binary can
/// never leave behind an artifact the tooling cannot read back. The files are named after the
/// report's scenario. Returns the JSON path.
pub fn write_run_report(report: &RunReport) -> PathBuf {
    write_run_report_in(&[], report)
}

/// Like [`write_run_report`], but places the artifacts under `results/<dirs[0]>/<dirs[1]>/...`
/// (see [`results_path`]; the whole chain of directories is created). Campaign cells use this
/// to keep each grid cell's report in its own directory.
pub fn write_run_report_in(dirs: &[&str], report: &RunReport) -> PathBuf {
    let json = report.to_json();
    let loaded = RunReport::from_json(&json).expect("run report JSON must parse back");
    assert_eq!(
        &loaded, report,
        "run report drifted through JSON round-trip"
    );
    let stem = results_path(&[dirs, &[&report.scenario]].concat());
    write_results_file(&format!("{stem}.metrics.csv"), &report.scalars_csv());
    write_results_file(&format!("{stem}.report.json"), &json)
}

/// The `/`-joined path, relative to `results/`, whose segments may each be named by a scenario
/// or campaign file: every segment is sanitised on its own, so no name — `../../x`, `..`, an
/// empty string — can leave the results directory or fold two levels into one.
pub fn results_path(segments: &[&str]) -> String {
    let segments: Vec<String> = segments.iter().map(|s| sanitize_stem(s)).collect();
    segments.join("/")
}

/// Keeps `[A-Za-z0-9._-]` and replaces everything else (a `/` included) with `_`; a name that
/// is empty or all dots (`.`, `..`) is spelled in `_` as well. What comes back is one plain
/// file or directory name.
fn sanitize_stem(raw: &str) -> String {
    if raw.chars().all(|c| c == '.') {
        return "_".repeat(raw.len().max(1));
    }
    raw.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes `contents` into `results/<name>` at the workspace root and reports where it went.
/// `name` may contain `/`-separated subdirectories; every missing parent is created. Figure
/// binaries use this to leave CSV files behind for plotting.
pub fn write_results_file(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    let path = dir.join(name);
    let parent = path.parent().expect("results path has a parent");
    std::fs::create_dir_all(parent).expect("create results directory");
    let mut f = std::fs::File::create(&path).expect("create results file");
    f.write_all(contents.as_bytes())
        .expect("write results file");
    println!("[results written to {}]", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_scale_defaults_and_clamps() {
        // No meaningful CLI args in the test harness: the default must come back clamped.
        assert_eq!(arg_scale(0.5, 0.1), 0.5);
        assert_eq!(arg_scale(2.0, 0.1), 1.0);
        assert_eq!(arg_scale(0.01, 0.1), 0.1);
    }

    #[test]
    fn results_files_land_in_results_dir() {
        let path = write_results_file("bench_selftest.csv", "a,b\n1,2\n");
        assert!(path.exists());
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("a,b"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn results_files_create_missing_parent_dirs() {
        // Regression: writing into a not-yet-existing subdirectory chain must succeed rather
        // than panic on File::create.
        let path = write_results_file("bench_selftest_nested/deeper/file.csv", "a,b\n3,4\n");
        assert!(path.exists());
        let root = path.parent().unwrap().parent().unwrap();
        assert!(root.ends_with("bench_selftest_nested"));
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn run_reports_land_in_results_dir_and_parse_back() {
        use p2plab_sim::{Recorder, RunOutcome, SimTime};
        let mut rec = Recorder::new();
        let c = rec.counter("events");
        rec.add(c, 3);
        let report = RunReport {
            workload: "selftest".into(),
            scenario: "bench selftest/report".into(), // exercises filename sanitization
            seed: 1,
            machines: 1,
            vnodes: 2,
            participants: 2,
            folding_ratio: 2.0,
            wall_secs: 0.0,
            stopped_at: SimTime::from_secs(1),
            events_executed: 9,
            events_per_sec: 0.0,
            outcome: RunOutcome::Drained,
            spec: vec![("name".into(), "selftest".into())],
            metrics: rec.finish(),
        };
        let path = write_run_report(&report);
        assert!(path.ends_with("results/bench_selftest_report.report.json"));
        let loaded = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(loaded, report);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("").with_extension("metrics.csv")).ok();

        // Names taken from a campaign file cannot climb out of `results/`: every segment is
        // sanitised on its own and none comes back as `.`, `..` or empty.
        let hostile = ["bench_selftest_campaign", "../../escaped", "..", ""];
        let path = write_run_report_in(&hostile, &report);
        assert!(path.ends_with(
            "results/bench_selftest_campaign/.._.._escaped/__/_/bench_selftest_report.report.json"
        ));
        assert!(path.exists());
        assert_eq!(
            results_path(&["campaign", "a/../b", ".", "summary"]),
            "campaign/a_.._b/_/summary"
        );
        let root = path.ancestors().nth(4).unwrap();
        assert!(root.ends_with("results/bench_selftest_campaign"));
        std::fs::remove_dir_all(root).ok();
    }
}
