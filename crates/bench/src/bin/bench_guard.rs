//! Bench regression guard: fails when `BENCH_hotpath.json` reports a
//! closed-probe speedup below its checked-in floor
//! (`ci/bench_floors.json`), an ingest or rule-kernel allocation count
//! above its ceiling, a ten-query ILP solve whose propagation examines more
//! constraints per node than its ceiling, a telemetry throughput ratio
//! below the overhead floor, or a ten-query ILP solve rate below its
//! nodes-per-second floor.
//!
//! Usage:
//!   cargo run -p clash-bench --bin bench_guard -- \
//!       [report.json] [floors.json] [--allocs-only]
//!
//! Defaults: `BENCH_hotpath.json` and `ci/bench_floors.json` in the
//! current directory. `--allocs-only` skips the timing floors — CI uses
//! it on the freshly generated report of the (noisy, single-core) runner,
//! where only the deterministic allocation and work-count metrics are
//! assertable, while the full floors run against the committed report.
//!
//! Parsing is hand-rolled key scanning (the workspace's serde is an
//! offline stub): both files are written by tooling in this repository,
//! so the format is fixed and a strict scanner is sufficient — any
//! missing key is itself an error.

use std::process::ExitCode;

/// Extracts the f64 following `"key":` after position `from`. Returns the
/// value and the position right after it.
fn number_after(text: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let needle = format!("\"{key}\":");
    let at = text[from..].find(&needle)? + from + needle.len();
    let rest = text[at..].trim_start();
    let consumed = text[at..].len() - rest.len();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    let value: f64 = rest[..end].parse().ok()?;
    Some((value, at + consumed + end))
}

/// Extracts the `speedup` of the named `micro` (closed-probe) row.
fn micro_speedup(report: &str, name: &str) -> Option<f64> {
    let marker = format!("\"name\": \"{name}\"");
    let at = report.find(&marker)?;
    number_after(report, "speedup", at).map(|(v, _)| v)
}

/// Parses the `"micro_speedup_floors"` object into `(name, floor)` pairs.
fn parse_floors(floors: &str) -> Option<Vec<(String, f64)>> {
    let start = floors.find("\"micro_speedup_floors\"")?;
    let open = floors[start..].find('{')? + start;
    let close = floors[open..].find('}')? + open;
    let body = &floors[open + 1..close];
    let mut out = Vec::new();
    for entry in body.split(',') {
        let mut parts = entry.splitn(2, ':');
        let key = parts.next()?.trim().trim_matches('"').to_string();
        let value: f64 = parts.next()?.trim().parse().ok()?;
        out.push((key, value));
    }
    Some(out)
}

fn main() -> ExitCode {
    let mut report_path = String::from("BENCH_hotpath.json");
    let mut floors_path = String::from("ci/bench_floors.json");
    let mut allocs_only = false;
    let mut positional = 0usize;
    for arg in std::env::args().skip(1) {
        if arg == "--allocs-only" {
            allocs_only = true;
        } else {
            match positional {
                0 => report_path = arg,
                _ => floors_path = arg,
            }
            positional += 1;
        }
    }

    let report = match std::fs::read_to_string(&report_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_guard: cannot read report {report_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let floors = match std::fs::read_to_string(&floors_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_guard: cannot read floors {floors_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut violations: Vec<String> = Vec::new();
    let mut checks = 0usize;

    // Allocation ceilings: deterministic, so they also hold on CI-fresh
    // reports. The ingest path's `allocs_per_tuple` is the first after
    // `"allocs"`; the kernel's sits in the nested `"kernel_allocs"` entry.
    for (label, section, ceiling_key) in [
        ("ingest path", "\"allocs\"", "max_allocs_per_tuple"),
        (
            "rule kernel",
            "\"kernel_allocs\"",
            "max_kernel_allocs_per_tuple",
        ),
    ] {
        let got = report
            .find(section)
            .and_then(|at| number_after(&report, "allocs_per_tuple", at).map(|(v, _)| v));
        let ceiling = number_after(&floors, ceiling_key, 0).map(|(v, _)| v);
        match (got, ceiling) {
            (Some(got), Some(ceiling)) => {
                checks += 1;
                if got <= ceiling {
                    println!("ok    {label} allocs/tuple: {got:.3} <= ceiling {ceiling:.3}");
                } else {
                    violations.push(format!(
                        "{label} allocates {got:.3}/tuple, above the {ceiling:.3} ceiling"
                    ));
                }
            }
            _ => violations.push(format!(
                "{label} allocs-per-tuple metric or {ceiling_key} missing"
            )),
        }
    }

    // ILP propagation work: constraint examinations per branch-and-bound
    // node of the ten-query solve. Deterministic like the allocation
    // counts, so it holds on CI-fresh reports too.
    let examined = report
        .find("\"queries\": 10,")
        .and_then(|at| number_after(&report, "examined_per_node", at).map(|(v, _)| v));
    let ceiling = number_after(&floors, "max_ilp_examined_per_node", 0).map(|(v, _)| v);
    match (examined, ceiling) {
        (Some(got), Some(ceiling)) => {
            checks += 1;
            if got <= ceiling {
                println!("ok    ten-query ILP examined/node: {got:.3} <= ceiling {ceiling:.3}");
            } else {
                violations.push(format!(
                    "ten-query ILP examines {got:.3} constraints/node, above the \
                     {ceiling:.3} ceiling"
                ));
            }
        }
        _ => violations.push(
            "ten-query ILP examined_per_node or max_ilp_examined_per_node missing".to_string(),
        ),
    }

    // Timing floors: held against the committed report only, not the
    // noisy CI-fresh one.
    if !allocs_only {
        let Some(pairs) = parse_floors(&floors) else {
            eprintln!("bench_guard: malformed micro_speedup_floors in {floors_path}");
            return ExitCode::FAILURE;
        };
        for (name, floor) in pairs {
            checks += 1;
            match micro_speedup(&report, &name) {
                Some(speedup) if speedup >= floor => {
                    println!("ok    {name}: speedup {speedup:.3} >= floor {floor:.3}");
                }
                Some(speedup) => violations.push(format!(
                    "{name}: speedup {speedup:.3} fell below the floor {floor:.3}"
                )),
                None => violations.push(format!("{name}: micro row missing from {report_path}")),
            }
        }

        // Telemetry overhead: always-on tracing must keep the
        // traced/untraced throughput ratio above the floor (0.93 = at most
        // a 7% hot-path tax; the floors file lists the readings it sits
        // under).
        let ratio = report
            .find("\"telemetry\"")
            .and_then(|at| number_after(&report, "throughput_ratio", at).map(|(v, _)| v));
        let floor = number_after(&floors, "min_telemetry_throughput_ratio", 0).map(|(v, _)| v);
        match (ratio, floor) {
            (Some(got), Some(floor)) => {
                checks += 1;
                if got >= floor {
                    println!("ok    telemetry overhead: ratio {got:.3} >= floor {floor:.3}");
                } else {
                    violations.push(format!(
                        "telemetry throughput ratio {got:.3} fell below the {floor:.3} floor \
                         (tracing costs more than {:.1}%)",
                        (1.0 - floor) * 100.0
                    ));
                }
            }
            _ => violations.push("telemetry throughput ratio or floor missing".to_string()),
        }

        // ILP solve rate: the ten-query model's branch-and-bound nodes per
        // second, the per-node cost every deployment's plan pays for.
        let rate = report
            .find("\"queries\": 10,")
            .and_then(|at| number_after(&report, "nodes_per_sec", at).map(|(v, _)| v));
        let floor = number_after(&floors, "min_ilp_nodes_per_sec", 0).map(|(v, _)| v);
        match (rate, floor) {
            (Some(got), Some(floor)) => {
                checks += 1;
                if got >= floor {
                    println!("ok    ten-query ILP: {got:.0} nodes/s >= floor {floor:.0}");
                } else {
                    violations.push(format!(
                        "ten-query ILP solves {got:.0} nodes/s, below the {floor:.0} floor"
                    ));
                }
            }
            _ => violations.push("ten-query ILP nodes_per_sec or floor missing".to_string()),
        }
    }

    if violations.is_empty() {
        println!("bench_guard: {checks} checks passed ({report_path})");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("bench_guard VIOLATION: {v}");
        }
        ExitCode::FAILURE
    }
}
