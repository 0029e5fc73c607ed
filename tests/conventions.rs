//! Five conventions `cargo clippy` cannot state (the rest are `clippy.toml` and
//! `[workspace.lints]`): which bench binaries may exist, that no crate drops out of the gate,
//! that no crate source holds a `dyn Fn`, that nothing comes from outside the workspace, and
//! that every scenario key and every public item has a caller.

use p2plab::core::{parse_toml, CampaignCell, CampaignSpec, DslError, ScenarioFile};
use std::collections::BTreeSet;
use std::path::Path;

fn entries(dir: &str) -> Vec<std::path::PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let listed = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    listed.map(|entry| entry.unwrap().path()).collect()
}

/// The root manifest and every `crates/*` manifest.
fn manifests() -> Vec<std::path::PathBuf> {
    let mut manifests = vec![Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml")];
    manifests.extend(entries("crates").iter().map(|c| c.join("Cargo.toml")));
    assert!(manifests.len() > 1);
    manifests
}

/// Every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    files(dir, "rs", out);
}

/// Every file with extension `ext` under `dir`, recursively.
fn files(dir: &Path, ext: &str, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files(&path, ext, out);
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

/// `file`'s non-test code: the text above its trailing `#[cfg(test)] mod tests`, without `//`
/// comments (a doc mention is not a caller, a doc example not a declaration). The cut must be
/// that trailing module, so a mid-file `#[cfg(test)]` item cannot hide the rest of a file.
fn non_test_code(file: &Path) -> String {
    let text = std::fs::read_to_string(file).unwrap();
    let cut = text.find("#[cfg(test)]").unwrap_or(text.len());
    assert!(
        cut == text.len() || is_trailing_tests_module(&text[cut..]),
        "{}: the first `#[cfg(test)]` must be the file's trailing `mod tests`",
        file.display()
    );
    lex(&text[..cut], false)
}

/// Whether `rest` is attributes, then `mod tests { .. }`, then nothing.
fn is_trailing_tests_module(rest: &str) -> bool {
    let code = lex(rest, true);
    let tokens = tokens(&code);
    let mut at = 0;
    while tokens.get(at) == Some(&"#") {
        let mut depth = 0;
        at += 1 + tokens[at + 1..]
            .iter()
            .position(|t| {
                depth += i32::from(*t == "[") - i32::from(*t == "]");
                depth == 0
            })
            .unwrap();
        at += 1;
    }
    let mut depth = 0;
    let body = &tokens[at..];
    body.starts_with(&["mod", "tests", "{"])
        && body.iter().position(|t| {
            depth += i32::from(*t == "{") - i32::from(*t == "}");
            depth == 0 && *t == "}"
        }) == Some(body.len() - 1)
}

/// `code` without its `//` comments; with `blank`, every string and char literal is also
/// emptied to `""`, so what remains is identifiers, punctuation and balanced braces.
fn lex(code: &str, blank: bool) -> String {
    let mut out = String::with_capacity(code.len());
    let mut rest = code;
    while let Some(c) = rest.chars().next() {
        let len = if rest.starts_with("//") {
            rest.find('\n').unwrap_or(rest.len())
        } else if let Some(len) = literal_len(rest, out.chars().last()) {
            out.push_str(if blank { "\"\"" } else { &rest[..len] });
            len
        } else {
            out.push(c);
            c.len_utf8()
        };
        rest = &rest[len..];
    }
    out
}

/// The byte length of the string, raw string or char literal `rest` starts with, if it starts
/// with one (`before` is the character in front of it: `r"` inside an identifier is no prefix).
fn literal_len(rest: &str, before: Option<char>) -> Option<usize> {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    if let Some(raw) = rest.strip_prefix('r').filter(|_| !ident(before)) {
        let hashes = raw.len() - raw.trim_start_matches('#').len();
        if raw[hashes..].starts_with('"') {
            let close = format!("\"{}", "#".repeat(hashes));
            return Some(1 + hashes + 1 + raw[hashes + 1..].find(&close).unwrap() + close.len());
        }
    }
    let mut chars = rest.char_indices();
    match chars.next()?.1 {
        '"' => {
            let mut escaped = false;
            let close = chars.find(|&(_, c)| {
                let closes = !escaped && c == '"';
                escaped = !escaped && c == '\\';
                closes
            });
            close.map(|(i, _)| i + 1)
        }
        '\'' => match chars.next()? {
            (_, '\\') => rest[3..].find('\'').map(|i| i + 4),
            (i, c) => rest[i + c.len_utf8()..]
                .starts_with('\'')
                .then_some(i + c.len_utf8() + 1),
        },
        _ => None,
    }
}

/// Identifiers and single punctuation characters, in order.
fn tokens(code: &str) -> Vec<&str> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut rest = code.trim_start();
    while let Some(c) = rest.chars().next() {
        let len = if word(c) {
            rest.find(|c| !word(c)).unwrap_or(rest.len())
        } else {
            c.len_utf8()
        };
        out.push(&rest[..len]);
        rest = rest[len..].trim_start();
    }
    out
}

/// New scenarios ship as `.toml` files run by `campaign`, not as new binaries.
#[test]
fn bench_bins_are_figure_regenerators_or_the_campaign_runner() {
    let bins = entries("crates/bench/src/bin");
    assert!(!bins.is_empty());
    for bin in bins {
        let stem = bin.file_stem().unwrap().to_str().unwrap();
        assert!(
            ["fig", "ablation", "tbl"]
                .iter()
                .any(|p| stem.starts_with(p))
                || stem == "campaign",
            "ad-hoc bench bin `{stem}`: ship the scenario as a .toml campaign file"
        );
    }
}

#[test]
fn every_crate_opts_into_the_workspace_lints() {
    for manifest in manifests() {
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} must opt into [workspace.lints]",
            manifest.display()
        );
    }
}

/// Every scheduled event is a value of its world's event enum: no crate source stores a
/// closure behind `dyn Fn`, `dyn FnMut` or `dyn FnOnce` (a simulation is plain data).
#[test]
fn no_crate_source_holds_a_dyn_closure() {
    let mut files = Vec::new();
    for krate in entries("crates") {
        sources(&krate.join("src"), &mut files);
    }
    assert!(files.len() > 10);
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        assert!(
            !text.contains("dyn Fn"),
            "{}: a `dyn Fn*` closure; make it a variant of the world's event enum",
            file.display()
        );
    }
}

/// The crates depend only on each other: randomness is `SimRng`'s own stream and reports and
/// scenarios have their own readers and writers. `[dependencies]` tables name only `p2plab-*`
/// crates, `[dev-dependencies]` only the `proptest` stub, `vendor/` holds only that stub, and no
/// source names a serialization crate, derives its traits or reaches for `rand::`.
#[test]
fn no_crate_comes_from_outside_the_workspace() {
    for manifest in manifests() {
        let text = std::fs::read_to_string(&manifest).unwrap();
        let mut section = "";
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if !line.is_empty() && !line.starts_with('#') {
                let name = line.split(['.', '=']).next().unwrap().trim();
                let allowed = match section {
                    "[dependencies]" => name.starts_with("p2plab-"),
                    "[dev-dependencies]" => name == "proptest",
                    "[workspace.dependencies]" => name.starts_with("p2plab-") || name == "proptest",
                    _ => true,
                };
                assert!(allowed, "{}: `{name}` in {section}", manifest.display());
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_eq!(entries("vendor"), [root.join("vendor/proptest")]);

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        sources(&root.join(dir), &mut files);
    }
    files.retain(|f| !f.ends_with(file!()));
    assert!(files.len() > 10);
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let named = ["serde", "rand::"].into_iter().find(|b| text.contains(b));
        assert_eq!(named, None, "{}", file.display());
        for (at, _) in text.match_indices("#[derive(") {
            let list = &text[at..at + text[at..].find(')').unwrap()];
            assert!(
                !list.contains("Serialize") && !list.contains("Deserialize"),
                "{}: derives a serialization trait",
                file.display()
            );
        }
    }
}

/// Scenario keys no shipped file sets, each with why it stays a key.
const UNSET_KEYS: [(&str, &str); 4] = [
    (
        "jitter",
        "tests turn the conditioner on, and the conditioner presets set it",
    ),
    (
        "reorder_rate",
        "tests turn reordering on, and the oracles work needs it",
    ),
    (
        "reorder_delay",
        "tests turn reordering on, and the oracles work needs it",
    ),
    ("duplicate_rate", "tests turn duplication on"),
];

/// What a shipped file loads to: a scenario file's [`ScenarioFile`], or a campaign's expanded
/// cells.
#[derive(Debug, PartialEq)]
enum Loaded {
    Scenario(Box<ScenarioFile>),
    Campaign(Vec<CampaignCell>),
}

fn load(text: &str, campaign: bool) -> Result<Loaded, DslError> {
    Ok(match campaign {
        true => Loaded::Campaign(CampaignSpec::parse(text)?.expand()?),
        false => Loaded::Scenario(Box::new(ScenarioFile::parse(text)?)),
    })
}

/// A setting with one value in use is a constant: every literal key that `crates/core`
/// declares (a `k.opt` / `k.req` / `k.checked` / `k.req_checked` call outside its tests) is set
/// by some scenario or campaign file under `examples/` or `benchmark/workloads/`, or is listed
/// in [`UNSET_KEYS`] with its reason; some setting of it moves what its file loads to (deleting
/// the line changes the parsed scenario or the expanded campaign, or makes it fail to load), so
/// no key is set only to its default; and every section it declares (a `k.table` /
/// `k.optional` call) is opened by some shipped file, in a `[section]` header or a dotted key.
#[test]
fn every_scenario_key_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // The literal first argument of every call to one of `calls` in `crates/core`'s non-test code.
    let declared_by = |calls: &[&str]| {
        let mut declared = Vec::new();
        let mut rust = Vec::new();
        sources(&root.join("crates/core/src"), &mut rust);
        for file in rust {
            let code = non_test_code(&file);
            for call in calls {
                for (at, _) in code.match_indices(call) {
                    let arg = code[at + call.len()..].trim_start();
                    if let Some(literal) = arg.strip_prefix('"') {
                        declared.push(literal[..literal.find('"').unwrap()].to_string());
                    }
                }
            }
        }
        declared
    };
    let declared = declared_by(&["k.opt(", "k.req(", "k.checked(", "k.req_checked("]);
    assert!(declared.len() > 40, "found only {declared:?}");
    let sections = declared_by(&["k.table(", "k.optional("]);
    assert!(sections.len() > 5, "found only {sections:?}");

    // The last segment of every assignment's (possibly dotted) key, in every shipped file, and
    // every segment of those keys and of every `[section]` header. `moved` keeps the last
    // segment of each assignment whose deletion changes what its file loads to.
    let mut tomls = Vec::new();
    files(&root.join("examples"), "toml", &mut tomls);
    files(&root.join("benchmark/workloads"), "toml", &mut tomls);
    assert!(tomls.len() > 10, "found only {tomls:?}");
    let (mut set, mut moved, mut opened) = (Vec::new(), BTreeSet::new(), Vec::new());
    let plain = |path: &str| {
        !path.is_empty() && (path.chars()).all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c))
    };
    for file in tomls {
        let text = std::fs::read_to_string(&file).unwrap();
        let campaign = CampaignSpec::is_campaign(&parse_toml(&text).unwrap());
        let loaded = load(&text, campaign);
        assert!(loaded.is_ok(), "{}: {loaded:?}", file.display());
        let lines: Vec<&str> = text.lines().collect();
        for (at, line) in lines.iter().map(|l| l.trim()).enumerate() {
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                opened.extend(header.split('.').map(str::to_string));
                continue;
            }
            let Some((lhs, _)) = line.split_once('=') else {
                continue;
            };
            let path = lhs.trim();
            if plain(path) {
                let key = path.rsplit('.').next().unwrap().to_string();
                opened.extend(path.split('.').map(str::to_string));
                let without: Vec<&str> = (lines.iter().enumerate())
                    .filter(|&(i, _)| i != at)
                    .map(|(_, l)| *l)
                    .collect();
                if load(&without.join("\n"), campaign) != loaded {
                    moved.insert(key.clone());
                }
                set.push(key);
            }
        }
    }
    let mut unopened: Vec<&str> = sections
        .iter()
        .map(String::as_str)
        .filter(|section| !opened.iter().any(|s| s == section))
        .collect();
    unopened.sort_unstable();
    unopened.dedup();
    assert!(
        unopened.is_empty(),
        "sections no shipped file opens: {unopened:?}. Delete each, or open it in a file"
    );

    let allowed = |key: &str| UNSET_KEYS.iter().any(|(k, _)| *k == key);
    let mut uncalled: Vec<&str> = declared
        .iter()
        .map(String::as_str)
        .filter(|key| !set.iter().any(|s| s == key) && !allowed(key))
        .collect();
    uncalled.sort_unstable();
    uncalled.dedup();
    assert!(
        uncalled.is_empty(),
        "keys no shipped file sets: {uncalled:?}. Make each a constant, or set it in a file, or \
         list it in UNSET_KEYS with its reason"
    );
    let mut unmoved: Vec<&str> = declared
        .iter()
        .map(String::as_str)
        .filter(|key| set.iter().any(|s| s == key) && !moved.contains(*key))
        .collect();
    unmoved.sort_unstable();
    unmoved.dedup();
    assert!(
        unmoved.is_empty(),
        "keys every shipped file sets to their default: {unmoved:?}. Make each a constant, or \
         set it off its default in a file"
    );
    for (key, _) in UNSET_KEYS {
        assert!(
            declared.iter().any(|k| k == key),
            "`{key}` is no longer a key"
        );
        let stale = set.iter().any(|s| s == key);
        assert!(
            !stale,
            "a shipped file sets `{key}`: drop it from UNSET_KEYS"
        );
    }
}

/// Public items that only tests call, each with why it stays.
const UNCALLED_ITEMS: [(&str, &str); 0] = [];

/// Public items that nothing calls but the benchmark probe (`benchmark/src`, which links the
/// public API) and tests, each with why it stays. The probe is changed only with the benchmark,
/// so each goes when the probe stops naming it.
const PROBE_ONLY_ITEMS: [(&str, &str); 5] = [
    (
        "crates/bittorrent/src/piece.rs::pick_blocks",
        "the probe times the block picker through it",
    ),
    (
        "crates/bittorrent/src/torrent.rs::paper_16mb",
        "the probe builds its torrent with it",
    ),
    (
        "crates/net/src/firewall.rs::add_rule",
        "the probe builds the rule list whose linear walk it times; the network is a rule \
         count, so only the tests' twin firewalls call it besides",
    ),
    (
        "crates/net/src/pipe.rs::with_queue_limit",
        "the probe switches the queue bound off with it; only `None` is accepted",
    ),
    (
        "crates/net/src/proto/ack.rs::encode",
        "the probe times an ack bitfield's round trip through `encode` and `decode`",
    ),
];

/// The keywords that introduce a definition of the name after them.
const DEFINES: [&str; 7] = ["fn", "const", "static", "struct", "enum", "type", "trait"];

/// `rustc`'s dead-code lint never flags a `pub` item, so this does: every `pub fn` and every
/// `pub const|static|struct|enum|type|trait` in the non-test code of `crates/*/src` is named as
/// a word by the non-test code of `crates/*/src`, `src/` or `examples/` outside every
/// definition of that name, every `use` declaration and the body of every function of that
/// name (a relay to a namesake is no caller); or it is listed in [`UNCALLED_ITEMS`] with its
/// reason. An item that only `benchmark/src` names that way is listed in [`PROBE_ONLY_ITEMS`]
/// instead, so what the probe alone keeps is counted. `pub(crate)` items are `rustc`'s to check.
#[test]
fn every_public_item_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates = Vec::new();
    for krate in entries("crates") {
        sources(&krate.join("src"), &mut crates);
    }
    let mut callers = crates.clone();
    for dir in ["src", "examples", "benchmark/src"] {
        sources(&root.join(dir), &mut callers);
    }
    let word = |t: &str| t.starts_with(|c: char| c.is_alphanumeric() || c == '_');

    // (`path::name`, name) of every public item, every name something calls, and every name
    // the probe calls.
    let (mut items, mut called, mut probed) = (Vec::new(), BTreeSet::new(), BTreeSet::new());
    for file in &callers {
        let calls = match file.starts_with(root.join("benchmark")) {
            true => &mut probed,
            false => &mut called,
        };
        let code = lex(&non_test_code(file), true);
        let tokens = tokens(&code);
        if crates.contains(file) {
            let path = file.strip_prefix(root).unwrap().display();
            for at in (0..tokens.len()).filter(|&at| tokens[at] == "pub") {
                let mut next = &tokens[at + 1..];
                if next.starts_with(&["const", "fn"]) {
                    next = &next[1..];
                }
                if let [keyword, name, ..] = next {
                    if DEFINES.contains(keyword) {
                        items.push((format!("{path}::{name}"), name.to_string()));
                    }
                }
            }
        }
        // (name, brace depth) of each function body the scan is in.
        let mut bodies: Vec<(&str, i32)> = Vec::new();
        let (mut depth, mut pending, mut in_use) = (0, None, false);
        for (at, &token) in tokens.iter().enumerate() {
            let defines = at > 0 && DEFINES.contains(&tokens[at - 1]) && word(token);
            match token {
                "{" => {
                    bodies.extend(pending.take().map(|name| (name, depth)));
                    depth += 1;
                }
                "}" => {
                    depth -= 1;
                    if bodies.last().is_some_and(|&(_, d)| d == depth) {
                        bodies.pop();
                    }
                }
                ";" => (pending, in_use) = (None, false),
                "use" => in_use = true,
                name if defines => pending = (tokens[at - 1] == "fn").then_some(name),
                name if word(name) && !in_use && !bodies.iter().any(|&(n, _)| n == name) => {
                    calls.insert(name.to_string());
                }
                _ => {}
            }
        }
    }
    assert!(items.len() > 500, "found only {} public items", items.len());

    let listed = |list: &[(&str, &str)], item: &str| list.iter().any(|(i, _)| *i == item);
    let unlisted = |probe: bool, list: &[(&str, &str)]| {
        let mut unlisted: Vec<&str> = (items.iter())
            .filter(|(_, name)| !called.contains(name) && probed.contains(name) == probe)
            .map(|(item, _)| item.as_str())
            .filter(|item| !listed(list, item))
            .collect();
        unlisted.sort_unstable();
        unlisted
    };
    let uncalled = unlisted(false, &UNCALLED_ITEMS);
    assert!(
        uncalled.is_empty(),
        "public items only tests call: {uncalled:?}. Delete each (a test that needs the value \
         computes it), or list it in UNCALLED_ITEMS with its reason"
    );
    let probe_only = unlisted(true, &PROBE_ONLY_ITEMS);
    assert!(
        probe_only.is_empty(),
        "public items only the benchmark probe calls: {probe_only:?}. List each in \
         PROBE_ONLY_ITEMS with its reason"
    );
    let name_of = |item: &str| {
        let declared = items.iter().find(|(i, _)| i == item);
        let (_, name) = declared.unwrap_or_else(|| panic!("`{item}` is no longer a public item"));
        name
    };
    for (item, _) in UNCALLED_ITEMS {
        let name = name_of(item);
        assert!(
            !called.contains(name) && !probed.contains(name),
            "`{item}` has a caller: drop it from UNCALLED_ITEMS"
        );
    }
    for (item, _) in PROBE_ONLY_ITEMS {
        let name = name_of(item);
        assert!(
            !called.contains(name),
            "`{item}` has a caller beside the probe: drop it from PROBE_ONLY_ITEMS"
        );
        assert!(
            probed.contains(name),
            "the probe no longer calls `{item}`: move it to UNCALLED_ITEMS or delete it"
        );
    }
}
