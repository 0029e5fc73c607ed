//! The rule engine: per-crate scoping, the seven convention rules, inline waivers.
//!
//! Rules walk the non-trivia token stream produced by [`crate::lexer`]; they never see the
//! inside of strings or comments, so `r#"#[allow"#` and doc-comment examples cannot trip
//! them. Scoping is derived from the repo-relative path (crate name, `src/` vs `tests/`) plus
//! `#[cfg(test)]`-region detection on the token stream, so unit-test modules inside `src/`
//! files are exempt where a rule promises it.
//!
//! # Waivers
//!
//! A violation is silenced by a plain `//` comment on the same line or the line directly
//! above, of the form
//!
//! ```text
//! // lint:allow(<rule>) — <reason>
//! ```
//!
//! The reason is mandatory: a waiver without one (or naming an unknown rule) is itself a
//! diagnostic (`bad-waiver`), so waivers stay an audit trail rather than an off switch.

use crate::lexer::{lex, Token, TokenKind};

/// Machine name of the nondeterministic-hash rule.
pub const NONDET_HASH: &str = "nondet-hash";
/// Machine name of the wall-clock rule.
pub const WALL_CLOCK: &str = "wall-clock";
/// Machine name of the bare-allow rule.
pub const BARE_ALLOW: &str = "bare-allow";
/// Machine name of the ad-hoc-bin rule.
pub const AD_HOC_BIN: &str = "ad-hoc-bin";
/// Machine name of the debug-residue rule.
pub const DEBUG_RESIDUE: &str = "debug-residue";
/// Machine name of the raw-thread rule.
pub const RAW_THREAD: &str = "raw-thread";
/// Machine name of the behavior-outside-adversary rule.
pub const BEHAVIOR_OUTSIDE_ADVERSARY: &str = "behavior-outside-adversary";
/// Machine name of the malformed-waiver meta rule (not waivable).
pub const BAD_WAIVER: &str = "bad-waiver";

/// The waivable convention rules, in exit-code order (see [`crate::exit_code`]).
pub const RULE_NAMES: [&str; 7] = [
    NONDET_HASH,
    WALL_CLOCK,
    BARE_ALLOW,
    AD_HOC_BIN,
    DEBUG_RESIDUE,
    RAW_THREAD,
    BEHAVIOR_OUTSIDE_ADVERSARY,
];

/// Crates whose `src/` is on the deterministic simulation path: `nondet-hash` applies there.
const SIM_PATH_CRATES: [&str; 5] = ["sim", "net", "os", "bittorrent", "core"];

/// The sanctioned homes of OS threads on the sim path (`raw-thread` is silent there): the
/// sharded conservative-window runtime and the campaign runner's cell work-stealing pool.
const THREAD_SANCTIONED: [&str; 2] = [
    "crates/sim/src/shard.rs",
    "crates/core/src/scenario/campaign.rs",
];

/// The one sanctioned home of [`Behavior`] implementations (`behavior-outside-adversary` is
/// silent under it): behaviors live next to the trait, the `[adversary]` DSL name registry
/// and the split-stream seeding, so every behavior stays reachable and reproducible.
const ADVERSARY_HOME: &str = "crates/core/src/adversary/";

/// Bench-bin stems allowed by `ad-hoc-bin`: figure/ablation/table regeneration plus the two
/// standing harnesses. Everything else ships as a `.toml` scenario (ROADMAP convention).
const ALLOWED_BIN_PREFIXES: [&str; 3] = ["fig", "ablation", "tbl"];
const ALLOWED_BIN_NAMES: [&str; 2] = ["campaign", "scale_sweep"];

/// One finding, pointing at a repo-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (one of [`RULE_NAMES`] or [`BAD_WAIVER`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Renders the diagnostic in the pinned `file:line: rule[name]: message` shape.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: rule[{}]: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One source file handed to the engine: repo-relative path plus contents. Tests feed
/// synthetic files; the binary feeds the walked workspace.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (scoping is derived from it).
    pub path: String,
    /// Full file text.
    pub text: String,
}

impl SourceFile {
    /// Convenience constructor.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        SourceFile {
            path: path.into(),
            text: text.into(),
        }
    }
}

/// Runs every rule over every file, applies inline waivers, and returns the surviving
/// diagnostics sorted by file, line and rule. Baseline filtering happens in the caller
/// ([`crate::check_sources`]), not here.
pub fn analyze_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        analyze_file(file, &mut out);
    }
    out.sort();
    out
}

// ---------------------------------------------------------------------------
// Path scoping.
// ---------------------------------------------------------------------------

/// The crate a repo-relative path belongs to (`crates/net/…` → `net`; the facade crate's own
/// `src/`/`tests/` → `p2plab`).
fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("")
    } else {
        "p2plab"
    }
}

/// Whether the path is library/binary source (under a `src/` directory).
fn in_src(path: &str) -> bool {
    path.split('/').any(|seg| seg == "src")
}

/// Whether the path is test-only code (under a `tests/` directory).
fn in_test_dir(path: &str) -> bool {
    path.split('/').any(|seg| seg == "tests")
}

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

// ---------------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------------

fn is_punct(code: &[Token], i: usize, src: &str, c: char) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text(src).starts_with(c))
}

fn ident_text<'a>(code: &[Token], i: usize, src: &'a str) -> Option<&'a str> {
    code.get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(src))
}

/// `::` — two adjacent `:` punctuation tokens at `i`, `i + 1`.
fn is_path_sep(code: &[Token], i: usize, src: &str) -> bool {
    is_punct(code, i, src, ':') && is_punct(code, i + 1, src, ':')
}

/// Index of the bracket matching `open` at `open_idx` (depth-counting); `code.len() - 1` when
/// unbalanced, so callers always stay in bounds.
fn match_bracket(code: &[Token], open_idx: usize, src: &str, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open_idx) {
        if t.kind == TokenKind::Punct {
            let c = t.text(src).chars().next().unwrap_or(' ');
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    code.len().saturating_sub(1)
}

// ---------------------------------------------------------------------------
// `#[cfg(test)]` regions.
// ---------------------------------------------------------------------------

/// Token-index ranges (inclusive) covered by a `#[cfg(test)]`-attributed item: the attribute,
/// any stacked attributes after it, and the item's brace block (or up to `;` for `mod x;`).
fn cfg_test_regions(code: &[Token], src: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let Some((attr_close, is_cfg_test)) = attribute_at(code, i, src) else {
            i += 1;
            continue;
        };
        if !is_cfg_test {
            i = attr_close + 1;
            continue;
        }
        // Skip any further stacked attributes between `#[cfg(test)]` and the item.
        let mut k = attr_close + 1;
        while let Some((close, _)) = attribute_at(code, k, src) {
            k = close + 1;
        }
        // The item body: first `{` (to its matching `}`) or a `;` for declaration-only items.
        while k < code.len() && !is_punct(code, k, src, '{') && !is_punct(code, k, src, ';') {
            k += 1;
        }
        let end = if is_punct(code, k, src, '{') {
            match_bracket(code, k, src, '{', '}')
        } else {
            k.min(code.len().saturating_sub(1))
        };
        regions.push((i, end));
        i = end + 1;
    }
    regions
}

/// If an attribute (`#[…]` or `#![…]`) starts at `i`, returns `(index of closing ']', whether
/// it is a cfg attribute naming `test`)`.
fn attribute_at(code: &[Token], i: usize, src: &str) -> Option<(usize, bool)> {
    if !is_punct(code, i, src, '#') {
        return None;
    }
    let mut j = i + 1;
    if is_punct(code, j, src, '!') {
        j += 1;
    }
    if !is_punct(code, j, src, '[') {
        return None;
    }
    let close = match_bracket(code, j, src, '[', ']');
    let is_cfg = ident_text(code, j + 1, src) == Some("cfg");
    let names_test = is_cfg
        && code[j + 1..close]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text(src) == "test");
    Some((close, names_test))
}

fn in_regions(regions: &[(usize, usize)], i: usize) -> bool {
    regions.iter().any(|&(s, e)| s <= i && i <= e)
}

// ---------------------------------------------------------------------------
// Waivers.
// ---------------------------------------------------------------------------

struct Waiver {
    line: usize,
    rule: String,
}

/// Scans plain line comments for `lint:allow(…)` waivers. Malformed waivers (missing reason,
/// unknown rule, unclosed parenthesis) become `bad-waiver` diagnostics instead of waivers.
fn collect_waivers(
    path: &str,
    src: &str,
    tokens: &[Token],
    out: &mut Vec<Diagnostic>,
) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let text = t.text(src);
        let Some(at) = text.find("lint:allow(") else {
            continue;
        };
        let after = &text[at + "lint:allow(".len()..];
        let Some(close) = after.find(')') else {
            out.push(Diagnostic {
                file: path.to_string(),
                line: t.line,
                rule: BAD_WAIVER,
                message: "unclosed `lint:allow(` waiver".to_string(),
            });
            continue;
        };
        let rule = after[..close].trim().to_string();
        if !RULE_NAMES.contains(&rule.as_str()) {
            out.push(Diagnostic {
                file: path.to_string(),
                line: t.line,
                rule: BAD_WAIVER,
                message: format!(
                    "waiver names unknown rule `{rule}` (known: {})",
                    RULE_NAMES.join(", ")
                ),
            });
            continue;
        }
        let reason = after[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':'])
            .trim();
        if reason.is_empty() {
            out.push(Diagnostic {
                file: path.to_string(),
                line: t.line,
                rule: BAD_WAIVER,
                message: format!(
                    "waiver for `{rule}` has no reason — write `// lint:allow({rule}) — <why>`"
                ),
            });
            continue;
        }
        waivers.push(Waiver { line: t.line, rule });
    }
    waivers
}

fn waived(waivers: &[Waiver], rule: &str, line: usize) -> bool {
    waivers
        .iter()
        .any(|w| w.rule == rule && (w.line == line || w.line + 1 == line))
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

fn analyze_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let path = file.path.as_str();
    let src = file.text.as_str();
    let tokens = lex(src);
    let code: Vec<Token> = tokens
        .iter()
        .filter(|t| !t.kind.is_trivia())
        .copied()
        .collect();
    let waivers = collect_waivers(path, src, &tokens, out);
    let regions = cfg_test_regions(&code, src);

    let mut raw: Vec<Diagnostic> = Vec::new();
    let push = |raw: &mut Vec<Diagnostic>, line: usize, rule: &'static str, message: String| {
        raw.push(Diagnostic {
            file: path.to_string(),
            line,
            rule,
            message,
        });
    };

    let krate = crate_of(path);
    let test_dir = in_test_dir(path);

    // nondet-hash: sim-path crate `src/` only; `hash.rs` (the deterministic hasher itself)
    // and test code are exempt.
    if SIM_PATH_CRATES.contains(&krate) && in_src(path) && !test_dir && file_name(path) != "hash.rs"
    {
        for (line, name) in qualified_uses(
            &code,
            src,
            &regions,
            "std",
            Some("collections"),
            &["HashMap", "HashSet"],
        ) {
            push(
                &mut raw,
                line,
                NONDET_HASH,
                format!(
                    "`std::collections::{name}` iterates in a process-seeded order; use \
                     `p2plab_sim::Fx{name}` (or `BTree{}` where iterated)",
                    if name == "HashMap" { "Map" } else { "Set" }
                ),
            );
        }
    }

    // wall-clock: everywhere outside test code — the simulator has its own clock; real time
    // in a sim path breaks reproducibility silently.
    if !test_dir {
        for (i, t) in code.iter().enumerate() {
            if in_regions(&regions, i) || t.kind != TokenKind::Ident {
                continue;
            }
            let text = t.text(src);
            if text == "Instant"
                && is_path_sep(&code, i + 1, src)
                && ident_text(&code, i + 3, src) == Some("now")
            {
                push(
                    &mut raw,
                    t.line,
                    WALL_CLOCK,
                    "`Instant::now` reads the wall clock; simulation code must use `SimTime` \
                     (wall-clock timing is confined to the runner/bench report sites)"
                        .to_string(),
                );
            } else if text == "SystemTime" {
                push(
                    &mut raw,
                    t.line,
                    WALL_CLOCK,
                    "`SystemTime` reads the wall clock; simulation code must use `SimTime`"
                        .to_string(),
                );
            }
        }
    }

    // bare-allow: every `#[allow(…)]` in non-test code must justify itself with a same-line
    // `// lint:allow(bare-allow) — <reason>` waiver (the waiver *is* the justification).
    if !test_dir {
        let mut i = 0;
        while i < code.len() {
            if let Some((close, _)) = attribute_at(&code, i, src) {
                let name_idx = if is_punct(&code, i + 1, src, '!') {
                    i + 2
                } else {
                    i + 1
                };
                if !in_regions(&regions, i) && ident_text(&code, name_idx + 1, src) == Some("allow")
                {
                    push(
                        &mut raw,
                        code[i].line,
                        BARE_ALLOW,
                        "bare `#[allow(…)]`; justify it in place: \
                         `#[allow(…)] // lint:allow(bare-allow) — <reason>`"
                            .to_string(),
                    );
                }
                i = close + 1;
            } else {
                i += 1;
            }
        }
    }

    // ad-hoc-bin: bench binaries outside the allowed set — new scenarios are `.toml` files
    // run through the `campaign` bin, not new binaries.
    if let Some(rest) = path.strip_prefix("crates/bench/src/bin/") {
        let stem = rest.strip_suffix(".rs").unwrap_or(rest);
        let allowed = ALLOWED_BIN_PREFIXES.iter().any(|p| stem.starts_with(p))
            || ALLOWED_BIN_NAMES.contains(&stem);
        if !allowed {
            push(
                &mut raw,
                1,
                AD_HOC_BIN,
                format!(
                    "ad-hoc bench bin `{stem}`: new scenarios ship as `.toml` campaign files; \
                     allowed bins are fig*/ablation*/tbl* and {}",
                    ALLOWED_BIN_NAMES.join("/")
                ),
            );
        }
    }

    // raw-thread: no ad-hoc threading in sim-path `src/` — OS threads outside the sharded
    // runtime (and the campaign pool) can observe simulation state in scheduler order, which
    // silently breaks bit-reproducibility. Cross-shard communication goes through the
    // runtime's windowed envelope merge, never raw channels.
    if SIM_PATH_CRATES.contains(&krate)
        && in_src(path)
        && !test_dir
        && !THREAD_SANCTIONED.contains(&path)
    {
        for (line, _) in qualified_uses(&code, src, &regions, "std", None, &["thread"]) {
            push(
                &mut raw,
                line,
                RAW_THREAD,
                "`std::thread` in sim-path code; deterministic parallelism lives in the \
                 sharded runtime (`p2plab_sim::shard`) — run on it instead of spawning threads"
                    .to_string(),
            );
        }
        for (line, _) in qualified_uses(&code, src, &regions, "std", Some("sync"), &["mpsc"]) {
            push(
                &mut raw,
                line,
                RAW_THREAD,
                "`std::sync::mpsc` delivers in scheduler order; cross-shard messages go \
                 through the sharded runtime's deterministic `(time, tag, seq)` merge"
                    .to_string(),
            );
        }
    }

    // behavior-outside-adversary: `impl Behavior for …` belongs under the adversary module,
    // next to the trait, the `[adversary]` DSL name registry and the split-RNG seeding — a
    // behavior implemented elsewhere is unreachable from scenario files and easy to seed from
    // the wrong stream, which silently breaks adversarial reproducibility.
    if !test_dir && !path.starts_with(ADVERSARY_HOME) {
        let mut i = 0;
        while i < code.len() {
            if in_regions(&regions, i) || ident_text(&code, i, src) != Some("impl") {
                i += 1;
                continue;
            }
            // Scan the impl header (up to its body `{` or a declaration `;`) for the trait
            // position `Behavior for`.
            let mut j = i + 1;
            while j < code.len() && !is_punct(&code, j, src, '{') && !is_punct(&code, j, src, ';') {
                if ident_text(&code, j, src) == Some("Behavior")
                    && ident_text(&code, j + 1, src) == Some("for")
                {
                    push(
                        &mut raw,
                        code[i].line,
                        BEHAVIOR_OUTSIDE_ADVERSARY,
                        "`impl Behavior` outside `crates/core/src/adversary/`; byzantine \
                         behaviors live in the adversary module so the `[adversary]` DSL \
                         registry and the split-stream seeding cover them"
                            .to_string(),
                    );
                    break;
                }
                j += 1;
            }
            i = j + 1;
        }
    }

    // debug-residue: leftover debug/stub macros in non-test code.
    if !test_dir {
        for (i, t) in code.iter().enumerate() {
            if in_regions(&regions, i) || t.kind != TokenKind::Ident {
                continue;
            }
            let text = t.text(src);
            if matches!(text, "dbg" | "todo" | "unimplemented") && is_punct(&code, i + 1, src, '!')
            {
                push(
                    &mut raw,
                    t.line,
                    DEBUG_RESIDUE,
                    format!("`{text}!` left in non-test code"),
                );
            }
        }
    }

    out.extend(
        raw.into_iter()
            .filter(|d| !waived(&waivers, d.rule, d.line)),
    );
}

/// Finds qualified uses `prefix::[mid::]name` where `name` is one of `targets`, including the
/// use-list form `prefix::[mid::]{…, name, …}` (each match reported at its own line). Token
/// indices inside `regions` are skipped.
fn qualified_uses(
    code: &[Token],
    src: &str,
    regions: &[(usize, usize)],
    prefix: &str,
    mid: Option<&str>,
    targets: &[&str],
) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for i in 0..code.len() {
        if in_regions(regions, i) || ident_text(code, i, src) != Some(prefix) {
            continue;
        }
        if !is_path_sep(code, i + 1, src) {
            continue;
        }
        let mut j = i + 3;
        if let Some(m) = mid {
            if ident_text(code, j, src) != Some(m) || !is_path_sep(code, j + 1, src) {
                continue;
            }
            j += 3;
        }
        if let Some(name) = ident_text(code, j, src) {
            if targets.contains(&name) {
                found.push((code[j].line, name.to_string()));
            }
        } else if is_punct(code, j, src, '{') {
            let close = match_bracket(code, j, src, '{', '}');
            for t in &code[j + 1..close] {
                if t.kind == TokenKind::Ident && targets.contains(&t.text(src)) {
                    found.push((t.line, t.text(src).to_string()));
                }
            }
        }
    }
    found
}
