//! The benchmark must measure the code as the root workspace builds it:
//! its `[profile.release]` is a copy of the root manifest's, and this test
//! fails when the two drift. It also pins what the benchmark may depend
//! on: crates under `../crates/` only, and never `clash-bench` (which
//! carries a global allocator of its own).

use std::collections::BTreeMap;

/// `key = value` lines of one TOML table, comments and blanks dropped.
fn table(manifest: &str, header: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn read(relative: &str) -> String {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn release_profile_matches_the_root_workspace() {
    let root = table(&read("../Cargo.toml"), "[profile.release]");
    let ours = table(&read("Cargo.toml"), "[profile.release]");
    assert!(!root.is_empty(), "root manifest has no [profile.release]");
    assert_eq!(ours, root, "benchmark/Cargo.toml [profile.release] drifted");
}

#[test]
fn dependencies_stay_inside_crates() {
    let deps = table(&read("Cargo.toml"), "[dependencies]");
    assert!(!deps.is_empty());
    for (name, spec) in &deps {
        assert_ne!(name, "clash-bench", "clash-bench carries its own allocator");
        assert!(
            spec.contains("path = \"../crates/"),
            "{name} = {spec}: only path dependencies on ../crates/ are allowed"
        );
    }
}
