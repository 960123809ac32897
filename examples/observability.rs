//! Runtime observability demo: the Fig. 7 multi-query TPC-H workload
//! streamed through the sharded `ParallelEngine`, then inspected through
//! the two telemetry surfaces this crate exposes:
//!
//! 1. `telemetry_snapshot()` — a Prometheus-style text page with engine
//!    counters, per-query result counts, per-query and per-shard latency
//!    quantiles (p50/p90/p99/p999), per-store gauges and arena counters.
//! 2. `trace_json()` — the per-thread trace rings drained into Chrome
//!    trace-event JSON (load it at `chrome://tracing` or
//!    <https://ui.perfetto.dev>).
//!
//! The demo asserts the page and the trace are well-formed (nonzero
//! result counters, quantile lines present, balanced JSON, nonzero event
//! count), so it doubles as an end-to-end smoke test for the telemetry
//! layer.
//!
//! Run with: `cargo run --release --example observability`

use clash_common::Window;
use clash_datagen::{TpchGenerator, TpchWorkload};
use clash_optimizer::{Planner, PlannerConfig, Strategy};
use clash_runtime::{EngineConfig, ParallelEngine};

const NUM_TUPLES: usize = 20_000;
const WORKERS: usize = 2;

/// Minimal structural check that `text` is one JSON value with balanced
/// braces and brackets (string-aware, so `"}"` inside an event name does
/// not miscount).
fn json_is_balanced(text: &str) -> bool {
    let (mut braces, mut brackets) = (0i64, 0i64);
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_string = false,
                _ => escaped = false,
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => braces += 1,
            '}' => braces -= 1,
            '[' => brackets += 1,
            ']' => brackets -= 1,
            _ => {}
        }
        if braces < 0 || brackets < 0 {
            return false;
        }
    }
    braces == 0 && brackets == 0 && !in_string
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Fig. 7 five-query workload on the shared CMQO plan.
    let workload = TpchWorkload::new(WORKERS, Window::secs(3600))?;
    let queries = workload.five_queries()?;
    let planner = Planner::new(&workload.catalog, &workload.stats, PlannerConfig::default());
    let report = planner.plan(&queries, Strategy::GlobalIlp)?;
    let mut engine = ParallelEngine::new(
        workload.catalog.clone(),
        report.plan,
        EngineConfig::default(),
        WORKERS,
    );

    let mut generator = TpchGenerator::new(0.002, 42);
    let stream = generator.mixed_stream(&workload, NUM_TUPLES)?;
    println!(
        "streaming {NUM_TUPLES} TPC-H tuples through {} queries on {WORKERS} workers...\n",
        queries.len()
    );
    for (relation, tuple) in stream {
        engine.ingest(relation, tuple)?;
    }

    // --- Surface 1: the metrics exposition page. ---
    let page = engine.telemetry_snapshot();
    println!("================ telemetry_snapshot() ================");
    print!("{page}");
    println!("======================================================\n");

    // The page must carry nonzero per-query result counters...
    let results: u64 = page
        .lines()
        .filter(|l| l.starts_with("clash_results_total{query="))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0) as u64
        })
        .sum();
    assert!(results > 0, "no results reported on the exposition page");
    // ...per-query latency quantiles (Fig. 7d's tail, not just the mean)...
    assert!(
        page.contains("clash_result_latency_us{query=")
            && page.contains("quantile=\"0.99\"")
            && page.contains("quantile=\"0.999\""),
        "per-query latency quantiles missing"
    );
    // ...per-shard ingest-to-emit latency and worker gauges...
    assert!(
        page.contains("clash_shard_latency_us{worker=")
            && page.contains("clash_worker_busy_seconds{worker="),
        "per-shard telemetry missing"
    );
    // ...and the store/arena gauge sections.
    assert!(
        page.contains("clash_store_tuples{store=") && page.contains("clash_arena_reused_total"),
        "store/arena sections missing"
    );
    // Every micro-batch flush is attributed to what released it.
    let flushes: f64 = ["size", "idle", "barrier"]
        .iter()
        .map(|trigger| {
            let sample = format!("clash_flushes_total{{trigger=\"{trigger}\"}} ");
            page.lines()
                .find_map(|l| l.strip_prefix(&sample)?.parse::<f64>().ok())
                .unwrap_or_else(|| panic!("flush trigger {trigger} missing"))
        })
        .sum();
    assert!(flushes > 0.0, "no flush was attributed to a trigger");
    // The install gate must surface its rejection counter (zero here:
    // every installed plan verified clean).
    assert!(
        page.contains("clash_plan_rejections_total"),
        "plan-rejection counter missing"
    );
    // Every sample line must parse: `name{labels} value` or `name value`.
    for line in page
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let value = line.rsplit(' ').next().unwrap_or("");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable exposition line: {line}"
        );
    }

    // --- Surface 2: the Chrome trace. ---
    let trace = engine.trace_json();
    assert!(
        trace.starts_with("{\"traceEvents\":["),
        "unexpected trace envelope"
    );
    assert!(json_is_balanced(&trace), "trace JSON is unbalanced");
    let events = trace.matches("\"ph\":").count();
    assert!(events > 0, "trace ring captured no events");

    let out = std::path::Path::new("target").join("observability_trace.json");
    std::fs::create_dir_all("target")?;
    std::fs::write(&out, &trace)?;
    println!(
        "wrote {events} trace events to {} ({} bytes)",
        out.display(),
        trace.len()
    );
    println!("load it at chrome://tracing or https://ui.perfetto.dev");
    println!("\nok: exposition page parsed, {results} results, {events} trace events");
    Ok(())
}
