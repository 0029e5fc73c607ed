//! The two conventions `cargo clippy` cannot state (the rest are `clippy.toml` and
//! `[workspace.lints]`): which bench binaries may exist, and that no crate drops out of the gate.

use std::path::Path;

fn entries(dir: &str) -> Vec<std::path::PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let listed = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    listed.map(|entry| entry.unwrap().path()).collect()
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
    let mut manifests = vec![Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml")];
    manifests.extend(entries("crates").iter().map(|c| c.join("Cargo.toml")));
    assert!(manifests.len() > 1);
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} must opt into [workspace.lints]",
            manifest.display()
        );
    }
}
