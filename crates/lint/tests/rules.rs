//! Positive and negative tests for every rule, the waiver syntax, the baseline ratchet and
//! the pinned diagnostic format. All sources are synthetic in-memory files — the engine takes
//! `(path, text)` pairs, so scoping (crate, `src/` vs `tests/`, `#[cfg(test)]`) is exercised
//! exactly as the binary exercises it.

use p2plab_lint::rules::analyze_files;
use p2plab_lint::{apply_baseline, check_sources, exit_code, render_baseline, SourceFile};

fn diags_for(path: &str, text: &str) -> Vec<(usize, String)> {
    analyze_files(&[SourceFile::new(path, text)])
        .into_iter()
        .map(|d| (d.line, d.rule.to_string()))
        .collect()
}

fn rules_for(path: &str, text: &str) -> Vec<String> {
    diags_for(path, text).into_iter().map(|(_, r)| r).collect()
}

// ---------------------------------------------------------------------------
// nondet-hash
// ---------------------------------------------------------------------------

#[test]
fn nondet_hash_flags_import_in_sim_path_src() {
    let d = diags_for("crates/net/src/foo.rs", "use std::collections::HashMap;\n");
    assert_eq!(d, vec![(1, "nondet-hash".to_string())]);
}

#[test]
fn nondet_hash_flags_brace_group_and_inline_qualified_uses() {
    let src = "use std::collections::{BTreeMap, HashMap, HashSet};\n\
               fn f() { let m: std::collections::HashMap<u8, u8> = Default::default(); }\n";
    let d = diags_for("crates/core/src/foo.rs", src);
    assert_eq!(
        d,
        vec![
            (1, "nondet-hash".to_string()), // HashMap in the group
            (1, "nondet-hash".to_string()), // HashSet in the group
            (2, "nondet-hash".to_string()), // inline qualified use
        ]
    );
}

#[test]
fn nondet_hash_ignores_non_sim_crates_tests_and_hash_rs() {
    // The lint crate itself is not on the sim path.
    assert!(rules_for("crates/lint/src/foo.rs", "use std::collections::HashMap;\n").is_empty());
    // Integration tests are exempt.
    assert!(rules_for(
        "crates/net/tests/foo.rs",
        "use std::collections::HashMap;\n"
    )
    .is_empty());
    // The deterministic hasher's own file is exempt (it tests against std).
    assert!(rules_for("crates/sim/src/hash.rs", "use std::collections::HashSet;\n").is_empty());
    // BTreeMap is always fine.
    assert!(rules_for("crates/net/src/foo.rs", "use std::collections::BTreeMap;\n").is_empty());
}

#[test]
fn nondet_hash_ignores_cfg_test_modules_inside_src() {
    let src = "pub fn f() {}\n\
               #[cfg(test)]\n\
               mod tests {\n    use std::collections::HashMap;\n}\n";
    assert!(rules_for("crates/os/src/foo.rs", src).is_empty());
}

#[test]
fn nondet_hash_still_fires_after_a_cfg_test_module() {
    let src = "#[cfg(test)]\nmod tests {}\nuse std::collections::HashMap;\n";
    assert_eq!(rules_for("crates/os/src/foo.rs", src), vec!["nondet-hash"]);
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

#[test]
fn wall_clock_flags_instant_now_and_system_time() {
    let src = "fn f() { let t = Instant::now(); }\nfn g() -> SystemTime { todo() }\n";
    let d = diags_for("crates/core/src/foo.rs", src);
    assert_eq!(
        d,
        vec![(1, "wall-clock".to_string()), (2, "wall-clock".to_string())]
    );
}

#[test]
fn wall_clock_ignores_tests_sim_time_and_waived_sites() {
    assert!(rules_for("tests/foo.rs", "fn f() { Instant::now(); }\n").is_empty());
    assert!(rules_for("crates/core/src/foo.rs", "fn f() { sim.now(); }\n").is_empty());
    let waived =
        "fn f() {\n    let t = Instant::now(); // lint:allow(wall-clock) — report timing\n}\n";
    assert!(rules_for("crates/core/src/foo.rs", waived).is_empty());
}

// ---------------------------------------------------------------------------
// bare-allow
// ---------------------------------------------------------------------------

#[test]
fn bare_allow_flags_unjustified_allow_attributes() {
    let src = "#[allow(dead_code)]\nfn f() {}\n";
    assert_eq!(
        diags_for("crates/net/src/foo.rs", src),
        vec![(1, "bare-allow".to_string())]
    );
    // Inner form too.
    let inner = "#![allow(dead_code)]\nfn f() {}\n";
    assert_eq!(
        rules_for("crates/net/src/foo.rs", inner),
        vec!["bare-allow"]
    );
}

#[test]
fn bare_allow_accepts_justified_allows_and_test_code() {
    let ok = "#[allow(dead_code)] // lint:allow(bare-allow) — kept for the frozen compat pin\nfn f() {}\n";
    assert!(rules_for("crates/net/src/foo.rs", ok).is_empty());
    let test_mod = "#[cfg(test)]\nmod tests {\n    #![allow(deprecated)]\n}\n";
    assert!(rules_for("crates/net/src/foo.rs", test_mod).is_empty());
    assert!(rules_for(
        "crates/net/tests/foo.rs",
        "#[allow(dead_code)]\nfn f() {}\n"
    )
    .is_empty());
    // Other attributes never trip it.
    assert!(rules_for("crates/net/src/foo.rs", "#[derive(Debug)]\nstruct S;\n").is_empty());
}

// ---------------------------------------------------------------------------
// ad-hoc-bin
// ---------------------------------------------------------------------------

#[test]
fn ad_hoc_bin_flags_new_bins_outside_the_allowed_set() {
    let d = diags_for("crates/bench/src/bin/my_quick_smoke.rs", "fn main() {}\n");
    assert_eq!(d, vec![(1, "ad-hoc-bin".to_string())]);
}

#[test]
fn ad_hoc_bin_accepts_the_allowed_families() {
    for name in [
        "fig10_large_swarm",
        "fig99_new",
        "ablation_choking",
        "tbl_intercept_overhead",
        "campaign",
        "scale_sweep",
    ] {
        let path = format!("crates/bench/src/bin/{name}.rs");
        assert!(rules_for(&path, "fn main() {}\n").is_empty(), "{name}");
    }
    // Non-bin bench sources are out of scope.
    assert!(rules_for("crates/bench/src/lib.rs", "fn f() {}\n").is_empty());
}

// ---------------------------------------------------------------------------
// debug-residue
// ---------------------------------------------------------------------------

#[test]
fn debug_residue_flags_debug_macros_in_non_test_code() {
    let src = "fn f() { dbg!(x); }\nfn g() { todo!() }\nfn h() { unimplemented!() }\n";
    let d = diags_for("crates/sim/src/foo.rs", src);
    let rules: Vec<&str> = d.iter().map(|(_, r)| r.as_str()).collect();
    assert_eq!(rules, vec!["debug-residue"; 3]);
}

#[test]
fn debug_residue_ignores_tests_strings_and_plain_idents() {
    let test_mod = "#[cfg(test)]\nmod tests {\n    fn f() { dbg!(1); todo!() }\n}\n";
    assert!(rules_for("crates/sim/src/foo.rs", test_mod).is_empty());
    // Inside a string or raw string it is text, not a macro.
    let in_str = "fn f() { let s = \"dbg!(x)\"; let r = r#\"todo!()\"#; }\n";
    assert!(rules_for("crates/sim/src/foo.rs", in_str).is_empty());
    // A plain identifier without `!` is someone's function name.
    assert!(rules_for("crates/sim/src/foo.rs", "fn f() { todo(); }\n").is_empty());
}

// ---------------------------------------------------------------------------
// raw-thread
// ---------------------------------------------------------------------------

#[test]
fn raw_thread_flags_threads_and_channels_in_sim_path_src() {
    let src = "use std::thread;\n\
               fn f() { std::thread::spawn(|| {}); }\n\
               fn g() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n";
    let d = diags_for("crates/sim/src/foo.rs", src);
    assert_eq!(
        d,
        vec![
            (1, "raw-thread".to_string()),
            (2, "raw-thread".to_string()),
            (3, "raw-thread".to_string()),
        ]
    );
    // The use-list form is caught too.
    let grouped = "use std::{thread, io};\n";
    assert_eq!(
        rules_for("crates/core/src/foo.rs", grouped),
        vec!["raw-thread"]
    );
}

#[test]
fn raw_thread_exempts_the_sanctioned_runtime_and_non_sim_code() {
    // The sharded runtime and the campaign pool are the sanctioned homes of OS threads.
    let src = "fn f() { std::thread::scope(|s| {}); }\n";
    assert!(rules_for("crates/sim/src/shard.rs", src).is_empty());
    assert!(rules_for("crates/core/src/scenario/campaign.rs", src).is_empty());
    // Bench/lint crates are off the sim path; integration tests and cfg(test) are exempt.
    assert!(rules_for("crates/bench/src/lib.rs", src).is_empty());
    assert!(rules_for("crates/sim/tests/foo.rs", src).is_empty());
    let test_mod = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| {}); }\n}\n";
    assert!(rules_for("crates/sim/src/foo.rs", test_mod).is_empty());
    // `std::sync::{Mutex, Barrier, atomic}` are fine — only mpsc channels are flagged.
    let sync_ok = "use std::sync::{Mutex, Barrier};\nuse std::sync::atomic::AtomicUsize;\n";
    assert!(rules_for("crates/sim/src/foo.rs", sync_ok).is_empty());
}

#[test]
fn raw_thread_is_waivable_like_any_rule() {
    let src = "use std::thread; // lint:allow(raw-thread) — bounded helper, joined before any sim state is read\n";
    assert!(rules_for("crates/sim/src/foo.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// behavior-outside-adversary
// ---------------------------------------------------------------------------

#[test]
fn behavior_outside_adversary_flags_strays_including_generic_and_qualified_headers() {
    let src = "impl Behavior for EvilPeer {\n    fn boo() {}\n}\n";
    assert_eq!(
        diags_for("crates/core/src/workloads/foo.rs", src),
        vec![(1, "behavior-outside-adversary".to_string())]
    );
    // A qualified trait path still puts `Behavior` right before `for`.
    let qualified = "impl adversary::Behavior for EvilPeer {}\n";
    assert_eq!(
        rules_for("crates/net/src/foo.rs", qualified),
        vec!["behavior-outside-adversary"]
    );
    // Impl-level generics keep the `Behavior for` shape too.
    let generic = "impl<T: Clone> Behavior for Wrapper<T> {}\n";
    assert_eq!(
        rules_for("crates/core/src/foo.rs", generic),
        vec!["behavior-outside-adversary"]
    );
}

#[test]
fn behavior_outside_adversary_exempts_the_adversary_module_and_test_code() {
    let src = "impl Behavior for SilentDrop {}\n";
    assert!(rules_for("crates/core/src/adversary/behaviors.rs", src).is_empty());
    assert!(rules_for("crates/core/src/adversary/mod.rs", src).is_empty());
    assert!(rules_for("crates/core/tests/foo.rs", src).is_empty());
    let test_mod = "#[cfg(test)]\nmod tests {\n    impl Behavior for Stub {}\n}\n";
    assert!(rules_for("crates/core/src/workloads/foo.rs", test_mod).is_empty());
}

#[test]
fn behavior_outside_adversary_ignores_other_impls_and_mere_mentions() {
    // Inherent impls, other traits, and `Behavior` outside an impl header are all fine.
    let src = "impl EvilPeer {}\n\
               impl Display for Behavior {}\n\
               fn f(b: &dyn Behavior) {}\n\
               struct S { behavior: u8 }\n";
    assert!(rules_for("crates/core/src/workloads/foo.rs", src).is_empty());
    // Waivable like any rule.
    let waived = "// lint:allow(behavior-outside-adversary) — migration shim, next PR moves it\n\
                  impl Behavior for Legacy {}\n";
    assert!(rules_for("crates/core/src/workloads/foo.rs", waived).is_empty());
}

// ---------------------------------------------------------------------------
// Waivers: mandatory reasons, placement, bad waivers.
// ---------------------------------------------------------------------------

#[test]
fn waiver_on_previous_line_works_too() {
    let src =
        "// lint:allow(nondet-hash) — keyed by a fixed hasher\nuse std::collections::HashMap;\n";
    assert!(rules_for("crates/net/src/foo.rs", src).is_empty());
}

#[test]
fn waiver_without_reason_is_rejected_and_does_not_waive() {
    let src = "use std::collections::HashMap; // lint:allow(nondet-hash)\n";
    let rules = rules_for("crates/net/src/foo.rs", src);
    assert!(rules.contains(&"nondet-hash".to_string()), "{rules:?}");
    assert!(rules.contains(&"bad-waiver".to_string()), "{rules:?}");
}

#[test]
fn waiver_with_unknown_rule_is_rejected() {
    let src = "fn f() {} // lint:allow(no-such-rule) — whatever\n";
    assert_eq!(rules_for("crates/net/src/foo.rs", src), vec!["bad-waiver"]);
}

#[test]
fn waiver_for_a_different_rule_does_not_waive() {
    let src = "use std::collections::HashMap; // lint:allow(wall-clock) — wrong rule\n";
    assert_eq!(rules_for("crates/net/src/foo.rs", src), vec!["nondet-hash"]);
}

#[test]
fn waiver_in_doc_comment_or_string_is_inert() {
    // Doc comments document the syntax without activating it; the violation still fires.
    let src = "/// Write `// lint:allow(nondet-hash) — reason` to waive.\nuse std::collections::HashMap;\n";
    assert_eq!(rules_for("crates/net/src/foo.rs", src), vec!["nondet-hash"]);
}

// ---------------------------------------------------------------------------
// Baseline ratchet.
// ---------------------------------------------------------------------------

#[test]
fn baseline_suppresses_exactly_the_grandfathered_occurrences() {
    let files = [
        SourceFile::new("crates/bench/src/bin/oldy.rs", "fn main() {}\n"),
        SourceFile::new("crates/bench/src/bin/newy.rs", "fn main() {}\n"),
    ];
    let all = analyze_files(&files);
    assert_eq!(all.len(), 2);
    // Baseline only grandfathers `oldy`; `newy` must still fail.
    let oldy: Vec<_> = all
        .iter()
        .filter(|d| d.file.contains("oldy"))
        .cloned()
        .collect();
    let baseline = render_baseline(&oldy);
    let remaining = check_sources(&files, &baseline);
    assert_eq!(remaining.len(), 1);
    assert_eq!(remaining[0].file, "crates/bench/src/bin/newy.rs");
}

#[test]
fn baseline_is_a_multiset_not_a_blanket_waiver() {
    // One grandfathered import; a second identical one on another line must still fail.
    let one = SourceFile::new("crates/net/src/foo.rs", "use std::collections::HashMap;\n");
    let baseline = render_baseline(&analyze_files(std::slice::from_ref(&one)));
    let two = SourceFile::new(
        "crates/net/src/foo.rs",
        "use std::collections::HashMap;\nmod a { use std::collections::HashMap; }\n",
    );
    let remaining = apply_baseline(analyze_files(std::slice::from_ref(&two)), &baseline);
    assert_eq!(
        remaining.len(),
        1,
        "the second occurrence is new, not grandfathered"
    );
}

#[test]
fn baseline_round_trips_through_render() {
    let files = [SourceFile::new(
        "crates/bench/src/bin/oldy.rs",
        "fn main() {}\n",
    )];
    let baseline = render_baseline(&analyze_files(&files));
    assert!(check_sources(&files, &baseline).is_empty());
    // Comments and blank lines in the baseline are tolerated.
    let padded = format!("# comment\n\n{baseline}\n");
    assert!(check_sources(&files, &padded).is_empty());
}

// ---------------------------------------------------------------------------
// Diagnostic format + exit codes.
// ---------------------------------------------------------------------------

/// Golden test: the `file:line: rule[name]: message` diagnostic shape is an interface (CI log
/// scraping, editors) and must not drift.
#[test]
fn diagnostic_format_is_pinned() {
    let d = analyze_files(&[SourceFile::new(
        "crates/net/src/foo.rs",
        "\n\nuse std::collections::HashMap;\n",
    )]);
    assert_eq!(d.len(), 1);
    assert_eq!(
        d[0].render(),
        "crates/net/src/foo.rs:3: rule[nondet-hash]: `std::collections::HashMap` iterates in \
         a process-seeded order; use `p2plab_sim::FxHashMap` (or `BTreeMap` where iterated)"
    );
}

#[test]
fn each_rule_has_a_distinct_exit_code() {
    let cases = [
        (
            "nondet-hash",
            "crates/net/src/a.rs",
            "use std::collections::HashMap;\n",
            10,
        ),
        (
            "wall-clock",
            "crates/net/src/a.rs",
            "fn f() { Instant::now(); }\n",
            11,
        ),
        (
            "bare-allow",
            "crates/net/src/a.rs",
            "#[allow(dead_code)]\nfn f() {}\n",
            12,
        ),
        (
            "ad-hoc-bin",
            "crates/bench/src/bin/oops.rs",
            "fn main() {}\n",
            13,
        ),
        (
            "debug-residue",
            "crates/net/src/a.rs",
            "fn f() { dbg!(1); }\n",
            14,
        ),
        (
            "raw-thread",
            "crates/net/src/a.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
            15,
        ),
        (
            "behavior-outside-adversary",
            "crates/core/src/a.rs",
            "impl Behavior for Evil {}\n",
            16,
        ),
        (
            "bad-waiver",
            "crates/net/src/a.rs",
            "fn f() {} // lint:allow(nope) — x\n",
            17,
        ),
    ];
    for (rule, path, text, code) in cases {
        let d = analyze_files(&[SourceFile::new(path, text)]);
        assert!(d.iter().all(|x| x.rule == rule), "{rule}: {d:?}");
        assert_eq!(exit_code(&d), code, "{rule}");
    }
    assert_eq!(exit_code(&[]), 0);
    // Two different rules → the combined code.
    let mixed = analyze_files(&[SourceFile::new(
        "crates/net/src/a.rs",
        "use std::collections::HashMap;\nfn f() { dbg!(1); }\n",
    )]);
    assert_eq!(exit_code(&mixed), p2plab_lint::EXIT_MULTIPLE);
}

#[test]
fn json_output_is_well_formed() {
    let d = analyze_files(&[SourceFile::new(
        "crates/net/src/a.rs",
        "use std::collections::HashMap;\n",
    )]);
    let json = p2plab_lint::render_json(&d);
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    assert!(json.contains("\"rule\": \"nondet-hash\""));
    assert!(json.contains("\"line\": 1"));
    assert_eq!(p2plab_lint::render_json(&[]), "[]\n");
}

// ---------------------------------------------------------------------------
// Lexer-driven hard cases at the rule level: the satellite's "hidden syntax" set.
// ---------------------------------------------------------------------------

#[test]
fn raw_strings_and_comments_hide_violations_from_the_rules() {
    let src = "fn f() {\n\
               let a = r#\"use std::collections::HashMap; #[allow(x)] // dbg!(1)\"#;\n\
               // use std::collections::HashMap;\n\
               /* Instant::now() /* nested */ still comment */\n\
               }\n";
    assert!(rules_for("crates/net/src/foo.rs", src).is_empty());
}

#[test]
fn lifetimes_do_not_confuse_the_token_rules() {
    let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'a'; x }\n";
    assert!(rules_for("crates/net/src/foo.rs", src).is_empty());
}
