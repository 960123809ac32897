//! Fig. 7: multi-query performance on the TPC-H-shaped workload.
//!
//! For each strategy (Independent ≈ FI/SI, Shared ≈ FS/SS, CMQO) the
//! driver plans the 5- or 10-query workload, streams the same generated
//! tuple mix through the resulting topology and reports throughput
//! (Fig. 7b), store memory (Fig. 7c) and mean result latency (Fig. 7d).

use clash_common::Window;
use clash_datagen::{TpchGenerator, TpchWorkload};
use clash_optimizer::{Planner, PlannerConfig, Strategy};
use clash_runtime::{EngineConfig, LocalEngine, ParallelEngine};
use std::time::Instant;

/// One row of the Fig. 7 result table.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Number of queries in the workload (5 or 10).
    pub num_queries: usize,
    /// Strategy label (Independent / Shared / CMQO).
    pub strategy: String,
    /// Throughput in tuples per second (Fig. 7b).
    pub throughput_tps: f64,
    /// Store memory in megabytes (Fig. 7c).
    pub memory_mb: f64,
    /// Mean end-to-end result latency in milliseconds (Fig. 7d).
    pub latency_ms: f64,
    /// Median end-to-end result latency in milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile end-to-end result latency in milliseconds — the
    /// tail Fig. 7d actually argues about, from the mergeable histogram.
    pub latency_p99_ms: f64,
    /// Total join results produced (sanity check: equal across strategies).
    pub results: u64,
    /// Tuple copies sent between stores (the optimized probe cost).
    pub tuples_sent: u64,
}

/// Runs the Fig. 7 experiment.
///
/// * `num_queries`: 5 (Fig. 7a workload) or 10 (extended workload).
/// * `num_tuples`: length of the generated input stream.
/// * `scale`: key-domain scale factor of the generator.
pub fn run_fig7(num_queries: usize, num_tuples: usize, scale: f64, seed: u64) -> Vec<Fig7Row> {
    let workload = TpchWorkload::new(2, Window::secs(3600)).expect("workload");
    let queries = if num_queries <= 5 {
        workload.five_queries().expect("queries")
    } else {
        workload.ten_queries().expect("queries")
    };
    let planner_config = PlannerConfig::default();
    let planner = Planner::new(&workload.catalog, &workload.stats, planner_config);

    let mut rows = Vec::new();
    for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
        let report = planner.plan(&queries, strategy).expect("plan");
        let mut engine = LocalEngine::new(
            workload.catalog.clone(),
            report.plan,
            EngineConfig::default(),
        );
        // Identical input stream for every strategy.
        let mut generator = TpchGenerator::new(scale, seed);
        let stream = generator
            .mixed_stream(&workload, num_tuples)
            .expect("stream");
        for (relation, tuple) in stream {
            engine.ingest(relation, tuple).expect("ingest");
        }
        let snap = engine.snapshot();
        rows.push(Fig7Row {
            num_queries: queries.len(),
            strategy: strategy.label().to_string(),
            throughput_tps: snap.throughput_tps,
            memory_mb: snap.store_bytes as f64 / (1024.0 * 1024.0),
            latency_ms: snap.latency.mean_us / 1000.0,
            latency_p50_ms: snap.latency.p50_us / 1000.0,
            latency_p99_ms: snap.latency.p99_us / 1000.0,
            results: snap.total_results(),
            tuples_sent: snap.tuples_sent,
        });
    }
    rows
}

/// One row of the sharded-runtime throughput comparison: the same CMQO
/// plan executed by `LocalEngine` and by `ParallelEngine` at increasing
/// worker counts, measured in end-to-end wall-clock tuples per second.
#[derive(Debug, Clone)]
pub struct Fig7ParallelRow {
    /// Number of queries in the workload.
    pub num_queries: usize,
    /// Engine label (`Local` or `Parallel-N`).
    pub engine: String,
    /// Worker threads (1 for the local engine).
    pub workers: usize,
    /// End-to-end wall-clock throughput in tuples per second.
    pub wall_tps: f64,
    /// Speedup over the local engine on the same plan and stream. On a
    /// single-core host this caps at ~1.0; the sharding win shows in
    /// `busy_balance` instead.
    pub speedup: f64,
    /// Total processing seconds summed over all workers.
    pub busy_secs: f64,
    /// Largest single worker's share of the total busy time (0.25 is a
    /// perfect 4-way split; 1.0 means one shard did everything). The
    /// multi-core wall-clock speedup is bounded by `1 / busy_balance`.
    pub busy_balance: f64,
    /// Total join results produced (sanity: equal across engines).
    pub results: u64,
}

/// Runs the multi-query workload through `LocalEngine` and through
/// `ParallelEngine` at each worker count, on identical plans and input
/// streams, reporting wall-clock throughput. The catalog parallelism is
/// set to the worker count so every store partition gets a dedicated
/// thread.
pub fn run_fig7_parallel(
    num_queries: usize,
    num_tuples: usize,
    scale: f64,
    seed: u64,
    worker_counts: &[usize],
) -> Vec<Fig7ParallelRow> {
    let mut rows = Vec::new();
    let mut local_tps = 0.0;
    for &workers in worker_counts {
        let workload = TpchWorkload::new(workers.max(1), Window::secs(3600)).expect("workload");
        let queries = if num_queries <= 5 {
            workload.five_queries().expect("queries")
        } else {
            workload.ten_queries().expect("queries")
        };
        let planner = Planner::new(&workload.catalog, &workload.stats, PlannerConfig::default());
        let report = planner.plan(&queries, Strategy::GlobalIlp).expect("plan");
        let mut generator = TpchGenerator::new(scale, seed);
        let stream = generator
            .mixed_stream(&workload, num_tuples)
            .expect("stream");

        // Local baseline on this plan (first worker count only: the plan
        // only differs in partition counts, which the local engine
        // simulates within one thread anyway).
        if rows.is_empty() {
            let mut engine = LocalEngine::new(
                workload.catalog.clone(),
                report.plan.clone(),
                EngineConfig::default(),
            );
            let started = Instant::now();
            for (relation, tuple) in &stream {
                engine.ingest(*relation, tuple.clone()).expect("ingest");
            }
            let elapsed = started.elapsed().as_secs_f64();
            let snap = engine.snapshot();
            local_tps = num_tuples as f64 / elapsed;
            rows.push(Fig7ParallelRow {
                num_queries: queries.len(),
                engine: "Local".into(),
                workers: 1,
                wall_tps: local_tps,
                speedup: 1.0,
                busy_secs: snap.busy_secs,
                busy_balance: 1.0,
                results: snap.total_results(),
            });
        }

        let mut engine = ParallelEngine::new(
            workload.catalog.clone(),
            report.plan,
            EngineConfig::default(),
            workers,
        );
        let started = Instant::now();
        for (relation, tuple) in &stream {
            engine.ingest(*relation, tuple.clone()).expect("ingest");
        }
        engine.flush();
        let elapsed = started.elapsed().as_secs_f64();
        let snap = engine.snapshot();
        let wall_tps = num_tuples as f64 / elapsed;
        let busy: Vec<f64> = engine
            .worker_busy()
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();
        let busy_total: f64 = busy.iter().sum();
        let busy_max = busy.iter().cloned().fold(0.0f64, f64::max);
        rows.push(Fig7ParallelRow {
            num_queries: queries.len(),
            engine: format!("Parallel-{workers}"),
            workers,
            wall_tps,
            speedup: if local_tps > 0.0 {
                wall_tps / local_tps
            } else {
                0.0
            },
            busy_secs: busy_total,
            busy_balance: if busy_total > 0.0 {
                busy_max / busy_total
            } else {
                1.0
            },
            results: snap.total_results(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shapes_hold_on_a_small_stream() {
        let rows = run_fig7(5, 3_000, 0.002, 42);
        assert_eq!(rows.len(), 3);
        let get = |label: &str| rows.iter().find(|r| r.strategy == label).unwrap();
        let independent = get("Independent");
        let shared = get("Shared");
        let cmqo = get("CMQO");
        // Correctness: every strategy produces the same results.
        assert_eq!(independent.results, shared.results);
        assert_eq!(shared.results, cmqo.results);
        // Shape of Fig. 7c: the independent plan needs the most memory.
        assert!(independent.memory_mb > shared.memory_mb);
        assert!(independent.memory_mb > cmqo.memory_mb);
        // Shape of Fig. 7b: sharing does not send more tuple copies than
        // independent execution.
        assert!(cmqo.tuples_sent <= independent.tuples_sent);
        // The latency quantiles come from the histogram and are ordered.
        for row in &rows {
            assert!(row.latency_p50_ms > 0.0, "{}: p50 missing", row.strategy);
            assert!(
                row.latency_p99_ms >= row.latency_p50_ms,
                "{}: p99 below p50",
                row.strategy
            );
        }
    }

    #[test]
    fn parallel_rows_agree_with_local_results() {
        let rows = run_fig7_parallel(5, 2_000, 0.002, 42, &[1, 2]);
        assert_eq!(rows.len(), 3, "local + one row per worker count");
        let local = &rows[0];
        assert_eq!(local.engine, "Local");
        assert!(local.results > 0);
        for row in &rows[1..] {
            assert_eq!(row.results, local.results, "{} results differ", row.engine);
            assert!(row.wall_tps > 0.0);
        }
        // The 2-worker run actually distributes the processing: no single
        // shard holds (almost) all of the busy time.
        let two = rows.iter().find(|r| r.workers == 2).unwrap();
        assert!(
            two.busy_balance < 0.95,
            "work not distributed: balance {}",
            two.busy_balance
        );
    }
}
