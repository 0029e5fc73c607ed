//! The benchmark driver. Std-only: it runs each workload as a child process
//! `campaign run <generated scenario file>`, reads the `p2plab.run-report.v2` JSON the CLI
//! leaves under `results/`, checks it, and reports wall time, CPU time, peak RSS and set-up
//! time. Per-layer numbers come from a separate traced pass of the `probe` binary.
//!
//! ```text
//! bench run [--seed N] [--repeats R] [--quick] [--out DIR]                     whole suite
//! bench run --workload W --seed N --seconds S --trace 0|1                       one workload
//! bench check                                                                  self-check
//! bench compare <a/bench.json> <b/bench.json>                                  two result sets
//! ```
//!
//! Common flags: `--root DIR` (repo checkout, default `.`) and `--bin-dir DIR` (where the
//! `campaign` and `probe` executables are, default `target/release`). `run.sh` builds
//! everything and passes both.

use p2plab_benchmark::catalog::{
    self, Better, EndToEnd, MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS,
};
use p2plab_benchmark::compare::{judge, relative_worsening, Verdict};
use p2plab_benchmark::json::Json;
use p2plab_benchmark::report::{Ops, RunFacts};
use p2plab_benchmark::scenario::set_scenario_key;
use p2plab_benchmark::stats::{median, Summary};
use p2plab_benchmark::sys::{run_child, ChildUsage};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Seed used when none is given. `benchmark/README.md` names 1998 as the seed to hold out.
const DEFAULT_SEED: u64 = 2006;
/// Length of the measuring window of a single-workload run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-up-only runs per workload (`--quick`: [`QUICK_SETUP_RUNS`]); `setup_s` is their median.
const SETUP_RUNS: usize = 15;
const QUICK_SETUP_RUNS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| cmd_run(&f)),
        Some("check") => Flags::parse(&args[1..]).and_then(|f| cmd_check(&f)),
        Some("compare") => Flags::parse(&args[1..]).and_then(|f| cmd_compare(&f)),
        _ => Err("usage: bench run|check|compare ... (see benchmark/README.md)".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Command-line flags (`--key value`, the boolean `--quick`) and positional arguments.
struct Flags {
    pairs: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        const KEYS: [&str; 8] = [
            "workload", "seed", "seconds", "trace", "repeats", "out", "root", "bin-dir",
        ];
        let mut flags = Flags {
            pairs: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("quick") => flags.quick = true,
                Some(key) if KEYS.contains(&key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    flags.pairs.push((key.to_string(), value.clone()));
                }
                Some(key) => return Err(format!("unknown flag --{key}")),
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: {v:?} is not a valid number")),
        }
    }

    fn root(&self) -> PathBuf {
        PathBuf::from(self.get("root").unwrap_or("."))
    }

    fn bin_dir(&self) -> PathBuf {
        match self.get("bin-dir") {
            Some(dir) => PathBuf::from(dir),
            None => self.root().join("target/release"),
        }
    }
}

/// Where things are for one invocation.
struct Ctx {
    root: PathBuf,
    campaign: PathBuf,
    probe: PathBuf,
    out: PathBuf,
    seed: u64,
}

impl Ctx {
    fn workload_file(&self, w: &Workload) -> PathBuf {
        self.root
            .join("benchmark/workloads")
            .join(format!("{}.toml", w.name))
    }

    /// The two files `campaign run` writes for a `bench-<name>` scenario.
    fn result_files(&self, w: &Workload) -> [PathBuf; 2] {
        let results = self.root.join("results");
        [
            results.join(format!("bench-{}.report.json", w.name)),
            results.join(format!("bench-{}.metrics.csv", w.name)),
        ]
    }

    /// Runs `campaign run <file>` and returns the child's usage plus the text of the report it
    /// wrote. The CLI's result files are removed again.
    fn campaign_run(&self, w: &Workload, file: &Path) -> Result<(ChildUsage, String), String> {
        let [report, csv] = self.result_files(w);
        let _ = fs::remove_file(&report);
        let usage = run_child(
            Command::new(&self.campaign)
                .arg("run")
                .arg(file)
                .current_dir(&self.root)
                .stdout(Stdio::null()),
        )
        .map_err(|e| format!("cannot run {}: {e}", self.campaign.display()))?;
        if usage.exit_code != Some(0) {
            return Err(format!(
                "{}: `campaign run {}` exited with {:?}",
                w.name,
                file.display(),
                usage.exit_code
            ));
        }
        let text = fs::read_to_string(&report)
            .map_err(|e| format!("{}: no report at {}: {e}", w.name, report.display()))?;
        let _ = fs::remove_file(&report);
        let _ = fs::remove_file(&csv);
        Ok((usage, text))
    }
}

/// A candidate scenario seed that was passed over because its run left operations incomplete.
struct Rejected {
    scenario_seed: u64,
    outcome: String,
    ops: Ops,
}

/// One workload's measurements within one invocation.
struct Run {
    w: &'static Workload,
    scenario_seed: u64,
    rejected: Vec<Rejected>,
    file: PathBuf,
    setup_file: PathBuf,
    /// Facts of the first measured run; every later run must reproduce them exactly.
    reference: RunFacts,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    setup_s: Vec<f64>,
    ops_attempted: u64,
    ops_failed: u64,
    problems: Vec<String>,
}

impl Run {
    /// Generates the workload's input files and takes the first sample. The scenario seed is
    /// the first of [`catalog::scenario_seeds`] whose run completes every operation; the last
    /// candidate is measured whatever it does, so a program that leaves operations incomplete
    /// on all of them reports them as failed.
    fn prepare(ctx: &Ctx, w: &'static Workload) -> Result<Run, String> {
        let source = ctx.workload_file(w);
        let text = fs::read_to_string(&source)
            .map_err(|e| format!("cannot read {}: {e}", source.display()))?;
        let gen = ctx.out.join("gen");
        fs::create_dir_all(&gen).map_err(|e| format!("cannot create {}: {e}", gen.display()))?;
        let file = gen.join(format!("{}.toml", w.name));
        let setup_file = gen.join(format!("{}.setup.toml", w.name));
        let mut rejected = Vec::new();
        let mut candidates = catalog::scenario_seeds(ctx.seed).into_iter().peekable();
        while let Some(candidate) = candidates.next() {
            let seeded = set_scenario_key(&text, "seed", &candidate.to_string())?;
            write(&file, &seeded)?;
            let (usage, report) = ctx.campaign_run(w, &file)?;
            let facts = RunFacts::parse(&report)?;
            let ops = facts.ops()?;
            let complete = facts.outcome == "drained" && ops.failed() == 0;
            if !complete && candidates.peek().is_some() {
                eprintln!(
                    "bench: {}: scenario seed {candidate} passed over: outcome {}, {} of {} operations incomplete",
                    w.name,
                    facts.outcome,
                    ops.failed(),
                    ops.attempted
                );
                rejected.push(Rejected {
                    scenario_seed: candidate,
                    outcome: facts.outcome,
                    ops,
                });
                continue;
            }
            write(
                &setup_file,
                &set_scenario_key(&seeded, "event_budget", "1")?,
            )?;
            write(&ctx.out.join(format!("{}.report.json", w.name)), &report)?;
            let mut run = Run {
                w,
                scenario_seed: candidate,
                rejected,
                file,
                setup_file,
                reference: facts.clone(),
                wall_s: Vec::new(),
                cpu_s: Vec::new(),
                peak_rss_mb: Vec::new(),
                setup_s: Vec::new(),
                ops_attempted: 0,
                ops_failed: 0,
                problems: Vec::new(),
            };
            if facts.outcome != "drained" {
                run.problems
                    .push(format!("outcome {}, expected drained", facts.outcome));
            }
            run.record(usage, &facts)?;
            return Ok(run);
        }
        unreachable!("scenario_seeds is never empty")
    }

    /// Checks one finished run against the reference and keeps its measurements.
    fn record(&mut self, usage: ChildUsage, facts: &RunFacts) -> Result<(), String> {
        let ops = facts.ops()?;
        self.ops_attempted += ops.attempted;
        self.ops_failed += ops.failed();
        // The digest covers the whole report — outcome, event count and stop time included.
        if facts.digest != self.reference.digest {
            self.problems.push(format!(
                "run is not reproducible: digest {:016x} / {} events, first run had {:016x} / {}",
                facts.digest,
                facts.events_executed,
                self.reference.digest,
                self.reference.events_executed
            ));
        }
        self.wall_s.push(usage.wall_s);
        self.cpu_s.push(usage.cpu_s);
        self.peak_rss_mb.push(usage.peak_rss_mb);
        Ok(())
    }

    /// One more full run.
    fn sample(&mut self, ctx: &Ctx) -> Result<(), String> {
        let (usage, report) = ctx.campaign_run(self.w, &self.file)?;
        self.record(usage, &RunFacts::parse(&report)?)
    }

    /// `count` set-up-only runs: the same command on the `event_budget = 1` variant, which
    /// does everything except the event loop.
    fn sample_setup(&mut self, ctx: &Ctx, count: usize) -> Result<(), String> {
        for _ in 0..count {
            let (usage, _) = ctx.campaign_run(self.w, &self.setup_file)?;
            self.setup_s.push(usage.wall_s);
        }
        Ok(())
    }

    /// Samples of an end-to-end metric.
    fn samples(&self, metric: &str) -> &[f64] {
        match metric {
            "wall_s" => &self.wall_s,
            "cpu_s" => &self.cpu_s,
            "peak_rss_mb" => &self.peak_rss_mb,
            "setup_s" => &self.setup_s,
            other => unreachable!("{other} is not an end-to-end metric"),
        }
    }

    fn to_json(&self) -> Json {
        let measured = END_TO_END
            .iter()
            .map(|e| e.def.name)
            .filter(|name| !self.samples(name).is_empty());
        Json::obj([
            ("scenario_seed", Json::Num(self.scenario_seed as f64)),
            (
                "rejected",
                Json::Arr(
                    self.rejected
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("scenario_seed", Json::Num(r.scenario_seed as f64)),
                                ("outcome", Json::Str(r.outcome.clone())),
                                ("ops_attempted", Json::Num(r.ops.attempted as f64)),
                                ("ops_failed", Json::Num(r.ops.failed() as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("ops_attempted", Json::Num(self.ops_attempted as f64)),
            ("ops_failed", Json::Num(self.ops_failed as f64)),
            (
                "events_executed",
                Json::Num(self.reference.events_executed as f64),
            ),
            (
                "stopped_at_ns",
                Json::Num(self.reference.stopped_at_ns as f64),
            ),
            (
                "digest",
                Json::Str(format!("{:016x}", self.reference.digest)),
            ),
            (
                "problems",
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "samples",
                Json::obj(
                    measured
                        .clone()
                        .map(|name| (name, Json::nums(self.samples(name)))),
                ),
            ),
            (
                "summary",
                Json::obj(measured.map(|name| (name, Summary::of(self.samples(name)).to_json()))),
            ),
        ])
    }
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------------------------

fn cmd_run(flags: &Flags) -> Result<bool, String> {
    let root = flags.root();
    let bin_dir = flags.bin_dir();
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let out = match flags.get("out") {
        Some(dir) => PathBuf::from(dir),
        None => root.join(format!("benchmark/out/{stamp}-{}", std::process::id())),
    };
    fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let ctx = Ctx {
        campaign: bin_dir.join("campaign"),
        probe: bin_dir.join("probe"),
        seed: flags.number("seed", DEFAULT_SEED)?,
        root,
        out,
    };
    match flags.get("workload") {
        Some(name) => {
            let w = catalog::workload(name).ok_or(format!("unknown workload {name:?}"))?;
            let seconds = flags.number("seconds", DEFAULT_SECONDS)?;
            let trace = match flags.get("trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
            };
            run_one(&ctx, w, seconds, trace)
        }
        None => {
            let (repeats, setup_runs) = if flags.quick {
                (1, QUICK_SETUP_RUNS)
            } else {
                (5, SETUP_RUNS)
            };
            run_suite(
                &ctx,
                flags.number("repeats", repeats)?,
                setup_runs,
                !flags.quick,
            )
        }
    }
}

/// One workload, time-boxed: the mode the acceptance driver calls. Prints, as the last line of
/// standard output, `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
/// metrics (`trace == false`) or the per-layer metrics (`trace == true`).
fn run_one(ctx: &Ctx, w: &'static Workload, seconds: f64, trace: bool) -> Result<bool, String> {
    let mut run = Run::prepare(ctx, w)?;
    let mut layers = None;
    let metrics = if trace {
        // Three untraced CLI runs give the wall time the traced pass is compared against.
        while run.wall_s.len() < 3 {
            run.sample(ctx)?;
        }
        let traced = traced_pass(ctx, std::slice::from_mut(&mut run))?;
        let values = traced.get(w.name).ok_or("probe returned no metrics")?;
        let metrics = Json::obj(
            PER_LAYER
                .iter()
                .map(|m| (m.name, metric_json(m, number(values, m.name)))),
        );
        layers = Some(traced);
        metrics
    } else {
        run.sample_setup(ctx, SETUP_RUNS)?;
        let window = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        // Stop when another run would overshoot the window; never with fewer than three.
        while run.wall_s.len() < 3
            || start.elapsed() + Duration::from_secs_f64(median(&run.wall_s)) <= window
        {
            run.sample(ctx)?;
        }
        Json::obj(END_TO_END.iter().map(|e| {
            (
                e.def.name,
                metric_json(&e.def, (e.reduce)(run.samples(e.def.name))),
            )
        }))
    };
    write_results(ctx, "single", std::slice::from_ref(&run), layers.as_ref())?;
    for problem in &run.problems {
        eprintln!("bench: {}: {problem}", w.name);
    }
    let correct = run.problems.is_empty() && run.ops_failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(run.ops_attempted as f64)),
            ("failed", Json::Num(run.ops_failed as f64)),
            ("metrics", metrics),
        ])
    );
    Ok(true)
}

fn metric_json(m: &MetricDef, value: f64) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(m.unit.to_string())),
    ])
}

/// `value` with six significant digits (whole numbers in full).
fn sig(value: f64) -> String {
    if value == 0.0 || (value.fract() == 0.0 && value.abs() < 1e15) {
        return format!("{value}");
    }
    let decimals = (5 - value.abs().log10().floor() as i32).clamp(0, 12);
    format!("{value:.*}", decimals as usize)
}

fn number(object: &Json, key: &str) -> f64 {
    object.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The whole suite: `repeats` interleaved passes over all workloads (host noise is slow
/// drift, so every workload sees every phase of it), then the set-up runs, then the traced
/// pass and the isolated probes.
fn run_suite(ctx: &Ctx, repeats: usize, setup_runs: usize, probes: bool) -> Result<bool, String> {
    if !cmd_check_in(&ctx.root, &ctx.campaign)? {
        return Ok(false);
    }
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        eprintln!("bench: pass 1/{repeats}: {}", w.name);
        runs.push(Run::prepare(ctx, w)?);
    }
    for pass in 2..=repeats {
        for run in &mut runs {
            eprintln!("bench: pass {pass}/{repeats}: {}", run.w.name);
            run.sample(ctx)?;
        }
    }
    for run in &mut runs {
        eprintln!("bench: {} set-up runs: {}", setup_runs, run.w.name);
        run.sample_setup(ctx, setup_runs)?;
    }
    let layers = if probes {
        eprintln!("bench: traced pass and isolated probes");
        Some(traced_pass(ctx, &mut runs)?)
    } else {
        None
    };
    write_results(ctx, "suite", &runs, layers.as_ref())?;

    println!(
        "seed {}, {} pass(es), results in {}",
        ctx.seed,
        repeats,
        ctx.out.display()
    );
    let mut ok = true;
    for run in &runs {
        println!(
            "\n{}  (scenario seed {}, {} passed over, {} events, digest {:016x}, ops failed {}/{})",
            run.w.name,
            run.scenario_seed,
            run.rejected.len(),
            run.reference.events_executed,
            run.reference.digest,
            run.ops_failed,
            run.ops_attempted
        );
        for EndToEnd { def: m, bound, .. } in &END_TO_END {
            let s = Summary::of(run.samples(m.name));
            let tail = match s.tail {
                Some((pct, value)) => format!("p{pct:.0} {}", sig(value)),
                None => format!("max {}", sig(s.max)),
            };
            println!(
                "  {:<32} {:>12} {:<5} (n={}, min {}, q1 {}, q3 {}, {tail}; bound {:.0}%)",
                m.name,
                sig(s.median),
                m.unit,
                s.n,
                sig(s.min),
                sig(s.q1),
                sig(s.q3),
                bound * 100.0
            );
        }
        if let Some(values) = layers.as_ref().and_then(|l| l.get(run.w.name)) {
            for m in &PER_LAYER {
                println!(
                    "  {:<32} {:>12} {}",
                    m.name,
                    sig(number(values, m.name)),
                    m.unit
                );
            }
        }
        for problem in &run.problems {
            println!("  FAILED CHECK: {problem}");
        }
        ok &= run.problems.is_empty() && run.ops_failed == 0;
    }
    Ok(ok)
}

/// Runs `probe trace` once per workload (a fresh process each, like the CLI runs), merges the
/// spans into `trace.json`, adds the two metrics only the driver can compute, cross-checks the
/// in-process result against the CLI's and returns `{workload: {metric: value}}`.
fn traced_pass(ctx: &Ctx, runs: &mut [Run]) -> Result<Json, String> {
    let mut merged = Vec::new();
    let mut spans = Vec::new();
    for run in runs.iter_mut() {
        let name = run.w.name;
        let usage = run_child(
            Command::new(&ctx.probe)
                .arg("trace")
                .arg("--out")
                .arg(&ctx.out)
                .arg("--run")
                .arg(format!("{name}={}", run.file.display()))
                .current_dir(&ctx.root)
                .stdout(Stdio::null()),
        )
        .map_err(|e| format!("cannot run {}: {e}", ctx.probe.display()))?;
        if usage.exit_code != Some(0) {
            return Err(format!("probe exited with {:?} on {name}", usage.exit_code));
        }
        let take = |suffix: &str| {
            let path = ctx.out.join(format!("{name}.{suffix}.json"));
            let json = read_json(&path);
            let _ = fs::remove_file(&path);
            json
        };
        spans.push((name.to_string(), take("trace")?));
        let layers = take("layers")?;
        let traced_digest = layers.get("digest").and_then(Json::as_str).unwrap_or("");
        if traced_digest != format!("{:016x}", run.reference.digest) {
            run.problems.push(format!(
                "in-process traced run produced digest {traced_digest}, the CLI {:016x}",
                run.reference.digest
            ));
        }
        let values = layers.get("metrics").ok_or("probe wrote no metrics")?;
        let span = |name: &str| number(values, name);
        let cli_wall = median(&run.wall_s);
        // What the CLI does on top of parse + run + serialize: process start and exit,
        // validation, the report round-trip check and the two result files.
        let cli_overhead = cli_wall
            - (span("core.dsl.parse_s")
                + span("core.scenario.run_s")
                + span("core.report.to_json_s"));
        // The spans the CLI also executes, traced and in-process, against the untraced CLI.
        let traced = span("core.dsl.parse_s")
            + span("core.scenario.validate_s")
            + span("core.scenario.run_s")
            + span("core.report.to_json_s")
            + span("core.report.from_json_s");
        let mut members = values.as_obj().unwrap_or(&[]).to_vec();
        members.push(("bench.cli_overhead_s".to_string(), Json::Num(cli_overhead)));
        members.push((
            "bench.trace_overhead_share".to_string(),
            Json::Num((traced - cli_wall) / cli_wall),
        ));
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|name| !members.iter().any(|(k, _)| k == name))
            .collect();
        if !missing.is_empty() {
            return Err(format!("probe did not emit {missing:?} for {name}"));
        }
        merged.push((name.to_string(), Json::Obj(members)));
    }
    write(
        &ctx.out.join("trace.json"),
        &format!("{}\n", Json::Obj(spans)),
    )?;
    Ok(Json::Obj(merged))
}

/// Writes `bench.json`: every raw sample plus where and how they were taken.
fn write_results(ctx: &Ctx, mode: &str, runs: &[Run], layers: Option<&Json>) -> Result<(), String> {
    let git_rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&ctx.root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut members = vec![
        ("schema", Json::Str("p2plab.benchmark.v1".to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("git_rev", Json::Str(git_rev)),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(ctx.seed as f64)),
        (
            "workloads",
            Json::obj(runs.iter().map(|r| (r.w.name, r.to_json()))),
        ),
    ];
    if let Some(layers) = layers {
        members.push(("per_layer", layers.clone()));
    }
    write(
        &ctx.out.join("bench.json"),
        &format!("{}\n", Json::obj(members)),
    )
}

// ---------------------------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------------------------

fn cmd_check(flags: &Flags) -> Result<bool, String> {
    let ok = cmd_check_in(&flags.root(), &flags.bin_dir().join("campaign"))?;
    if ok {
        println!("bench check: ok");
    }
    Ok(ok)
}

/// Self-check: `BENCHMARK.json` names exactly what the binaries emit, within the contract's
/// limits, and every workload file passes `campaign validate`.
fn cmd_check_in(root: &Path, campaign: &Path) -> Result<bool, String> {
    let mut problems = manifest_problems(&read_json(&root.join("BENCHMARK.json"))?);
    let usage = run_child(
        Command::new(campaign)
            .arg("validate")
            .args(
                WORKLOADS
                    .iter()
                    .map(|w| format!("benchmark/workloads/{}.toml", w.name)),
            )
            .current_dir(root)
            .stdout(Stdio::null()),
    )
    .map_err(|e| format!("cannot run {}: {e}", campaign.display()))?;
    if usage.exit_code != Some(0) {
        problems.push("`campaign validate` rejected a workload file (see above)".to_string());
    }
    for problem in &problems {
        eprintln!("bench check: {problem}");
    }
    Ok(problems.is_empty())
}

/// The parts of `BENCHMARK.json` that must equal what the binaries are built from.
fn expected_manifest() -> Vec<(&'static str, Json)> {
    let metric = |m: &MetricDef, bound: Option<f64>| {
        let mut members = vec![
            ("name", Json::Str(m.name.to_string())),
            ("unit", Json::Str(m.unit.to_string())),
            ("better", Json::Str(m.better.as_str().to_string())),
        ];
        members.extend(bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(members)
    };
    vec![
        ("paths", Json::Arr(vec![Json::Str("benchmark".to_string())])),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.to_string())),
                            ("why", Json::Str(w.why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| metric(&e.def, Some(e.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, None)).collect()),
        ),
    ]
}

/// Differences between `BENCHMARK.json` and the catalog the binaries are built from. (That
/// the catalog's names and sizes are within the contract's limits is a unit test there.)
fn manifest_problems(manifest: &Json) -> Vec<String> {
    expected_manifest()
        .into_iter()
        .filter(|(key, expected)| manifest.get(key) != Some(expected))
        .map(|(key, expected)| {
            format!("BENCHMARK.json {key:?} differs from what the binaries emit: {expected}")
        })
        .collect()
}

// ---------------------------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------------------------

/// `bench compare <a> <b>`: per (workload, end-to-end metric) both medians and quartiles, the
/// relative difference, the bound and a verdict — never a combined score. Returns `false`
/// (exit code 1) when any pair is `worse`, when `b` fails a larger share of its operations or
/// passes over more scenario seeds, or when the two sets did not measure the same inputs.
fn cmd_compare(flags: &Flags) -> Result<bool, String> {
    let [a_path, b_path] = flags.positional.as_slice() else {
        return Err("usage: bench compare <a/bench.json> <b/bench.json>".to_string());
    };
    let (a, b) = (read_json(Path::new(a_path))?, read_json(Path::new(b_path))?);
    let manifest = read_json(&flags.root().join("BENCHMARK.json"))?;
    let bound_of = |metric: &str| {
        manifest
            .get("end_to_end")
            .and_then(Json::as_arr)
            .and_then(|list| {
                list.iter()
                    .find(|e| e.get("name").and_then(Json::as_str) == Some(metric))
            })
            .and_then(|e| e.get("bound"))
            .and_then(Json::as_f64)
            .ok_or(format!("BENCHMARK.json has no bound for {metric}"))
    };
    let field = |set: &Json, workload: &str, key: &str| -> Option<Json> {
        set.get("workloads")?.get(workload)?.get(key).cloned()
    };
    let samples = |set: &Json, workload: &str, metric: &str| -> Vec<f64> {
        field(set, workload, "samples")
            .as_ref()
            .and_then(|s| s.get(metric))
            .and_then(Json::as_arr)
            .map(|v| v.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let count = |set: &Json, workload: &str, key: &str| {
        field(set, workload, key)
            .as_ref()
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let failed_share = |set: &Json, workload: &str| {
        count(set, workload, "ops_failed") / count(set, workload, "ops_attempted").max(1.0)
    };
    let passed_over = |set: &Json, workload: &str| {
        field(set, workload, "rejected")
            .as_ref()
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len)
    };
    println!(
        "{:<18} {:<12} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "a: median [q1, q3] n", "b: median [q1, q3] n", "b vs a", "bound"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        if field(&a, w.name, "samples").is_none() || field(&b, w.name, "samples").is_none() {
            continue;
        }
        for e in &END_TO_END {
            let m = &e.def;
            let (sa, sb) = (samples(&a, w.name, m.name), samples(&b, w.name, m.name));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let bound = bound_of(m.name)?;
            let verdict = judge(&sa, &sb, m.better, bound, e.floor);
            ok &= verdict != Verdict::Worse;
            let show = |s: &[f64]| {
                let s = Summary::of(s);
                format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n)
            };
            let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
            println!(
                "{:<18} {:<12} {:>30} {:>30} {:>+7.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                show(&sa),
                show(&sb),
                sign * relative_worsening(&sa, &sb, m.better) * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
        let (fa, fb) = (failed_share(&a, w.name), failed_share(&b, w.name));
        if fb > fa {
            println!(
                "{:<18} ops_failed share rose from {fa:.6} to {fb:.6}",
                w.name
            );
            ok = false;
        }
        let (pa, pb) = (passed_over(&a, w.name), passed_over(&b, w.name));
        if pb > pa {
            println!(
                "{:<18} scenario seeds passed over as incomplete rose from {pa} to {pb}",
                w.name
            );
            ok = false;
        }
        let seed_of = |set: &Json| field(set, w.name, "scenario_seed");
        if seed_of(&a) != seed_of(&b) {
            println!(
                "{:<18} not comparable: a measured scenario seed {}, b {}",
                w.name,
                seed_of(&a).unwrap_or(Json::Null),
                seed_of(&b).unwrap_or(Json::Null)
            );
            ok = false;
        } else if field(&a, w.name, "digest") != field(&b, w.name, "digest") {
            // Legitimate for a change of behaviour; a performance-only change must not get here.
            println!(
                "{:<18} simulated results differ (report digests are not equal): not a performance-only change",
                w.name
            );
        }
    }
    Ok(ok)
}
