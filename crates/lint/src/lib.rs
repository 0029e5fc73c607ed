//! # p2plab-lint — workspace determinism & convention analyzer
//!
//! The reproduction's value rests on bit-reproducible runs (the fig10 event-count identity
//! pin, thread-count-invariant campaign summaries). This crate makes the conventions that
//! protect that reproducibility machine-checked instead of reviewer-remembered: a
//! dependency-free, hand-rolled static-analysis pass ([`lexer`] + [`rules`]) over the
//! workspace's Rust sources, wired into CI.
//!
//! The rules (see [`rules`] for scoping details):
//!
//! | rule | catches |
//! |------|---------|
//! | `nondet-hash` | `std::collections::HashMap`/`HashSet` in sim-path crate `src/` |
//! | `wall-clock` | `Instant::now`/`SystemTime` outside the waived runner/bench sites |
//! | `bare-allow` | `#[allow(…)]` without an in-place justification |
//! | `ad-hoc-bin` | new bench binaries outside the allowed fig*/ablation*/tbl*/… set |
//! | `debug-residue` | `dbg!`/`todo!`/`unimplemented!` in non-test code |
//! | `raw-thread` | `std::thread`/`std::sync::mpsc` in sim-path `src/` outside the sharded runtime |
//! | `behavior-outside-adversary` | `impl Behavior` outside `crates/core/src/adversary/` |
//!
//! Violations are silenced either inline (`// lint:allow(<rule>) — <reason>`, reason
//! mandatory) or by the checked-in [`BASELINE_FILE`] of grandfathered findings, which only
//! ever shrinks: `check` fails on anything not in the baseline, and a workspace test asserts
//! the committed baseline equals the regenerated one, so stale entries fail loudly too.

#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

pub use rules::{Diagnostic, SourceFile, BAD_WAIVER, RULE_NAMES};

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Repo-relative path of the grandfathered-violation baseline.
pub const BASELINE_FILE: &str = "lint.baseline";

/// Exit code when diagnostics from more than one rule survive.
pub const EXIT_MULTIPLE: i32 = 20;

/// The distinct exit code of one rule (10–16 in [`RULE_NAMES`] order, 17 for `bad-waiver`).
pub fn rule_exit_code(rule: &str) -> i32 {
    match RULE_NAMES.iter().position(|r| *r == rule) {
        Some(i) => 10 + i as i32,
        None => 10 + RULE_NAMES.len() as i32, // bad-waiver
    }
}

/// Exit code for a set of surviving diagnostics: 0 when clean, the rule's own code when a
/// single rule fired, [`EXIT_MULTIPLE`] otherwise.
pub fn exit_code(diags: &[Diagnostic]) -> i32 {
    let mut rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    match rules.as_slice() {
        [] => 0,
        [only] => rule_exit_code(only),
        _ => EXIT_MULTIPLE,
    }
}

/// Ascends from `start` to the workspace root (the directory whose `Cargo.toml` declares
/// `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects every analyzable `.rs` file under the workspace root (the facade's `src/` and
/// `tests/`, `examples/`, and all of `crates/`), sorted by path for deterministic output.
/// `vendor/` (offline dependency stubs) and `target/` are never scanned.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    if files.is_empty() {
        // A clean-because-empty walk is indistinguishable from a clean tree; a typo'd
        // `--root` must fail loudly instead of passing the gate.
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no Rust sources under {} — wrong --root?", root.display()),
        ));
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                path: rel,
                text: std::fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Baseline.
// ---------------------------------------------------------------------------

/// Renders diagnostics as baseline text: a header plus one sorted `rule<TAB>file<TAB>message`
/// line per finding. Line numbers are deliberately absent so unrelated edits above a
/// grandfathered site do not churn the file.
pub fn render_baseline(diags: &[Diagnostic]) -> String {
    let mut out = String::from(
        "# p2plab-lint baseline — grandfathered violations, one `rule<TAB>file<TAB>message`\n\
         # per line. Regenerate with `cargo run -p p2plab-lint -- baseline --write`; the\n\
         # `lint_baseline_is_in_sync` workspace test fails if this file drifts from the tree.\n\
         # The gate is ratchet-only: entries may be removed (fix the violation), never added.\n",
    );
    let mut lines: Vec<String> = diags
        .iter()
        .map(|d| format!("{}\t{}\t{}", d.rule, d.file, d.message))
        .collect();
    lines.sort();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Removes diagnostics covered by `baseline` text (multiset match on rule + file + message —
/// line-number independent, and a *second* occurrence of a grandfathered finding still fails).
pub fn apply_baseline(diags: Vec<Diagnostic>, baseline: &str) -> Vec<Diagnostic> {
    let mut budget: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for line in baseline.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let (Some(rule), Some(file), Some(message)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        *budget
            .entry((rule.to_string(), file.to_string(), message.to_string()))
            .or_insert(0) += 1;
    }
    diags
        .into_iter()
        .filter(|d| {
            let key = (d.rule.to_string(), d.file.clone(), d.message.clone());
            match budget.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    false
                }
                _ => true,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Entry points (shared by the binary and the workspace gate test).
// ---------------------------------------------------------------------------

/// Runs the full pass over in-memory sources and applies `baseline`: what remains fails the
/// gate.
pub fn check_sources(files: &[SourceFile], baseline: &str) -> Vec<Diagnostic> {
    apply_baseline(rules::analyze_files(files), baseline)
}

/// Walks the workspace at `root`, reads its committed baseline (absent file = empty) and
/// returns the surviving diagnostics.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let files = collect_sources(root)?;
    let baseline = std::fs::read_to_string(root.join(BASELINE_FILE)).unwrap_or_default();
    Ok(check_sources(&files, &baseline))
}

/// Walks the workspace at `root` and renders the baseline its current violations would need
/// (waived findings excluded — waivers are the preferred mechanism; the baseline only
/// grandfathers what predates the gate).
pub fn baseline_workspace(root: &Path) -> io::Result<String> {
    let files = collect_sources(root)?;
    Ok(render_baseline(&rules::analyze_files(&files)))
}

/// Renders diagnostics as a JSON array (stable field order, for `--json` consumers).
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&d.file),
            d.line,
            json_str(d.rule),
            json_str(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]\n" } else { "\n]\n" });
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
