//! Shared rendering of the engines' `telemetry_snapshot` pages.
//!
//! Both runtimes expose the same Prometheus-style text surface; the
//! sections they have in common (engine counters, per-query results and
//! latency quantiles, micro-batch flush age, per-store gauges, arena
//! counters) are rendered by [`shared_sections`] so the two pages cannot
//! drift apart. The parallel engine appends its own sections (per-worker
//! gauges, in-flight roots, plan installs) to the page it returns.

use crate::metrics::{EngineMetrics, StoreDetail};
use crate::parallel::router::FlushTrigger;
use clash_common::{ArenaStats, Exposition};

/// Starts a page with every section both engines expose, from aggregated
/// metrics, one detail per store and the arena counters per thread lane.
pub(crate) fn shared_sections(
    metrics: &EngineMetrics,
    stores: &[StoreDetail],
    arena_lanes: impl IntoIterator<Item = (String, ArenaStats)>,
) -> Exposition {
    let mut page = Exposition::new();
    engine_sections(&mut page, metrics);
    store_sections(&mut page, stores);
    arena_sections(&mut page, arena_lanes);
    page
}

/// Engine counters, per-query result counts and per-query latency
/// quantiles plus the merged latency histogram — the page's core.
fn engine_sections(page: &mut Exposition, metrics: &EngineMetrics) {
    page.declare(
        "clash_tuples_ingested_total",
        "Input tuples ingested.",
        "counter",
    );
    page.sample(
        "clash_tuples_ingested_total",
        &[],
        metrics.tuples_ingested as f64,
    );
    page.declare(
        "clash_tuples_sent_total",
        "Tuple copies sent between stores (probe cost, Eq. 1).",
        "counter",
    );
    page.sample("clash_tuples_sent_total", &[], metrics.tuples_sent as f64);
    page.declare(
        "clash_broadcasts_total",
        "Deliveries broadcast to every partition of a store.",
        "counter",
    );
    page.sample("clash_broadcasts_total", &[], metrics.broadcasts as f64);
    page.declare("clash_probes_total", "Probe lookups performed.", "counter");
    page.sample("clash_probes_total", &[], metrics.probes as f64);
    page.declare(
        "clash_busy_seconds",
        "Wall-clock time spent processing ingested tuples.",
        "gauge",
    );
    page.sample("clash_busy_seconds", &[], metrics.busy.as_secs_f64());

    page.declare(
        "clash_results_total",
        "Join results emitted per query.",
        "counter",
    );
    let mut results: Vec<(u32, u64)> = metrics.results.iter().map(|(q, n)| (q.0, *n)).collect();
    results.sort_unstable();
    for (query, n) in results {
        page.sample(
            "clash_results_total",
            &[("query", &query.to_string())],
            n as f64,
        );
    }

    page.declare(
        "clash_result_latency_us",
        "Ingest-to-emit latency per emitted result, per query (µs).",
        "summary",
    );
    let mut per_query: Vec<_> = metrics.latency_histograms().collect();
    per_query.sort_unstable_by_key(|(q, _)| q.0);
    for (query, hist) in per_query {
        page.quantiles(
            "clash_result_latency_us",
            &[("query", &query.0.to_string())],
            hist,
        );
    }
    page.declare(
        "clash_result_latency_all_us",
        "Ingest-to-emit latency over all queries (µs).",
        "histogram",
    );
    page.histogram(
        "clash_result_latency_all_us",
        &[],
        &metrics.combined_latency(),
    );

    page.declare(
        "clash_flush_age_us",
        "Age of micro-batch buffers when flushed (µs).",
        "summary",
    );
    page.quantiles("clash_flush_age_us", &[], &metrics.flush_age);
    page.declare(
        "clash_flushes_total",
        "Micro-batch flushes by what triggered them.",
        "counter",
    );
    for trigger in FlushTrigger::ALL {
        page.sample(
            "clash_flushes_total",
            &[("trigger", trigger.label())],
            metrics.flushes[trigger as usize] as f64,
        );
    }

    page.declare(
        "clash_plan_rejections_total",
        "Candidate plans rejected by the static analyzer at install time.",
        "counter",
    );
    page.sample(
        "clash_plan_rejections_total",
        &[],
        metrics.plan_rejections as f64,
    );
}

/// Per-store gauges: size and index shape, one sample set per store.
fn store_sections(page: &mut Exposition, details: &[StoreDetail]) {
    page.declare("clash_store_tuples", "Tuples held per store.", "gauge");
    page.declare(
        "clash_store_bytes",
        "Approximate bytes held per store.",
        "gauge",
    );
    page.declare(
        "clash_store_posting_lists",
        "Distinct (attribute, value) posting lists per store.",
        "gauge",
    );
    page.declare(
        "clash_store_spilled_postings",
        "Posting lists spilled past the inline capacity per store.",
        "gauge",
    );
    for d in details {
        let store = d.store.0.to_string();
        let labels: &[(&str, &str)] = &[("store", &store)];
        page.sample("clash_store_tuples", labels, d.tuples as f64);
        page.sample("clash_store_bytes", labels, d.bytes as f64);
        page.sample("clash_store_posting_lists", labels, d.posting_lists as f64);
        page.sample(
            "clash_store_spilled_postings",
            labels,
            d.spilled_postings as f64,
        );
    }
}

/// Leaf-arena counters, one sample set per thread lane (`coordinator`,
/// `worker-<i>`, or `engine` for the sequential runtime).
fn arena_sections(page: &mut Exposition, lanes: impl IntoIterator<Item = (String, ArenaStats)>) {
    page.declare(
        "clash_arena_reused_total",
        "Leaf-arena blocks reused from the thread-local pool.",
        "counter",
    );
    page.declare(
        "clash_arena_allocated_total",
        "Leaf-arena blocks freshly allocated.",
        "counter",
    );
    page.declare(
        "clash_arena_recycled_total",
        "Leaf-arena blocks returned to the pool.",
        "counter",
    );
    page.declare(
        "clash_arena_discarded_total",
        "Leaf-arena blocks dropped because the pool was full.",
        "counter",
    );
    for (lane, stats) in lanes {
        let labels: &[(&str, &str)] = &[("thread", &lane)];
        page.sample("clash_arena_reused_total", labels, stats.reused as f64);
        page.sample(
            "clash_arena_allocated_total",
            labels,
            stats.allocated as f64,
        );
        page.sample("clash_arena_recycled_total", labels, stats.recycled as f64);
        page.sample(
            "clash_arena_discarded_total",
            labels,
            stats.discarded as f64,
        );
    }
}
