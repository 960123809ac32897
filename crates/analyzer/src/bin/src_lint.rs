//! Repository source lint, run in CI next to clippy.
//!
//! Textual checks that clippy cannot express because they encode *project*
//! conventions rather than language rules:
//!
//! 1. **No SipHash in hot crates** — `crates/common` and `crates/runtime`
//!    sit on the per-tuple path; `std::collections::HashMap`/`HashSet`
//!    default to SipHash, which an earlier perf PR deliberately replaced
//!    with `FxHashMap`/`FxHashSet`. New code must not regress this.
//! 2. **No panics on the tuple hot path** — `store.rs`, `tuple.rs` and
//!    `shard.rs` process every stored/probed tuple of both engines
//!    (`shard.rs` is the one rule kernel); an `unwrap()`,
//!    `expect(..)` or `panic!` there takes the engine or a worker thread
//!    down mid-stream.
//! 3. **No wall clock off the stream clock** — event time comes from tuple
//!    timestamps and the trace clock; `SystemTime::now` anywhere in
//!    `crates/` silently mixes wall time into windowing or telemetry.
//! 4. **No `parking_lot` or `serde`** — nothing in `crates/` uses either
//!    crate; both are offline stubs under `vendor/`. Their manifest
//!    entries stay only while `benchmark/Cargo.lock` lists them, and this
//!    rule keeps their removal a manifest-only edit. It matches a path
//!    (`serde::…`) or an `extern crate`, so prose naming the crates passes.
//!
//! Test code is exempt from rules 1–3: by repo convention the
//! `#[cfg(test)]` module is the trailing item of a file, so everything
//! from the first `#[cfg(test)]` line to EOF is skipped. Rule 4 reads test
//! modules too. Comment lines are skipped by every rule.
//!
//! Deliberately dependency-free (std only) so it stays runnable even when
//! the workspace itself fails to build.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose non-test code must not use SipHash maps.
const HOT_CRATES: &[&str] = &["common", "runtime"];

/// File names (within any hot crate) whose non-test code must not panic.
const HOT_PATH_FILES: &[&str] = &["store.rs", "tuple.rs", "shard.rs"];

/// Crates no file under `crates/` may use (rule 4).
const FORBIDDEN_CRATES: &[&str] = &["parking_lot", "serde"];

/// Files allowed to keep `std::collections` maps in non-test code, as
/// `crate/relative/path.rs` relative to `crates/`. Add entries only with
/// a comment explaining why SipHash is acceptable there.
const STD_COLLECTIONS_ALLOWLIST: &[&str] = &[
    // Defines FxHashMap/FxHashSet as std's map with the Fx hasher; the
    // std import IS the implementation.
    "common/src/fxhash.rs",
];

struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.excerpt.trim()
        )
    }
}

fn main() -> ExitCode {
    // The binary lives at crates/analyzer; the repo root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolvable");
    let crates = root.join("crates");

    let mut files = Vec::new();
    collect_rs_files(&crates, &mut files);
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        let Ok(text) = fs::read_to_string(file) else {
            continue;
        };
        let rel = file.strip_prefix(&crates).unwrap_or(file);
        lint_file(rel, &text, &mut findings);
    }

    if findings.is_empty() {
        println!("src_lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("src_lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Index of the first line of the trailing `#[cfg(test)]` region, or
/// `usize::MAX` when the file has none.
fn test_region_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(usize::MAX)
}

fn crate_of(rel: &Path) -> &str {
    rel.components()
        .next()
        .and_then(|c| c.as_os_str().to_str())
        .unwrap_or("")
}

fn lint_file(rel: &Path, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    let test_start = test_region_start(&lines);
    let krate = crate_of(rel);
    let hot_crate = HOT_CRATES.contains(&krate);
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let allowlisted = STD_COLLECTIONS_ALLOWLIST.contains(&rel_str.as_str());
    let file_name = rel.file_name().and_then(|n| n.to_str()).unwrap_or_default();
    let hot_path = hot_crate && HOT_PATH_FILES.contains(&file_name);
    let is_bin = rel_str.contains("/bin/");

    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        let lineno = i + 1;

        if FORBIDDEN_CRATES.iter().any(|krate| uses_crate(line, krate)) {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: "no-parking-lot-or-serde",
                excerpt: line.to_string(),
            });
        }

        if i >= test_start {
            continue; // trailing test module: exempt from rules 1-3
        }

        // Catches both direct paths (`std::collections::HashMap<..>`) and
        // brace imports (`use std::collections::{HashMap, HashSet};`).
        let siphash = line.contains("std::collections::HashMap")
            || line.contains("std::collections::HashSet")
            || (line.contains("std::collections::{")
                && (line.contains("HashMap") || line.contains("HashSet")));
        if hot_crate && !allowlisted && siphash {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: "no-siphash-in-hot-crates",
                excerpt: line.to_string(),
            });
        }

        let panics =
            line.contains(".unwrap()") || line.contains(".expect(") || line.contains("panic!");
        if hot_path && panics {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: "no-panic-on-hot-path",
                excerpt: line.to_string(),
            });
        }

        // The wall clock is fine in offline binaries (benches, lints) but
        // never in library code, where event time must come from tuple
        // timestamps and the monotonic trace clock.
        if !is_bin && line.contains("SystemTime::now") {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: "no-wall-clock",
                excerpt: line.to_string(),
            });
        }
    }
}

/// `true` when `line` names `krate` as a path root (`krate::`, also after
/// `::` or inside a `use` group) or as an `extern crate`.
fn uses_crate(line: &str, krate: &str) -> bool {
    line.contains(&format!("extern crate {krate}"))
        || line.match_indices(&format!("{krate}::")).any(|(at, _)| {
            !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::uses_crate;

    /// Built with `format!` so this module, which rule 4 reads, names no
    /// forbidden crate itself.
    const K: &str = "serde";

    #[test]
    fn rule_4_matches_paths_and_extern_crates_only() {
        assert!(uses_crate(&format!("use {K}::Serialize;"), K));
        assert!(uses_crate(&format!("#[derive(::{K}::Serialize)]"), K));
        assert!(uses_crate(&format!("use std::{{io, {K}::de}};"), K));
        assert!(uses_crate(&format!("extern crate {K};"), K));
        assert!(!uses_crate(&format!("let not_{K}::x = 1;"), K));
        assert!(!uses_crate(&format!("let s = \"{K} stands in\";"), K));
    }
}
