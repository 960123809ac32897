//! Hot-path report: one-epoch vs. spread store probes, allocations per
//! ingested tuple, the Fig. 7 five-query replay, the multi-source and
//! reconfiguration scenarios, the trace-ring overhead and the ILP solve
//! rate (see `clash_bench::hotpath`). Writes the machine-readable report
//! to `BENCH_hotpath.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p clash-bench --bin hotpath [iters] [fig7_tuples] [out.json]
//! ```
//!
//! Defaults: 300000 iterations, 30000-tuple Fig. 7 stream,
//! `BENCH_hotpath.json` in the current directory. CI runs a smoke pass
//! with small counts and validates the JSON plus the deterministic
//! allocation ceiling (the single-core runner makes timing assertions
//! meaningless there).

use clash_bench::hotpath::{report_to_json, run_hotpath, BEST_OF};

fn main() {
    let mut args = std::env::args().skip(1);
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(300_000);
    let fig7_tuples: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(30_000);
    let out_path = args.next().unwrap_or_else(|| "BENCH_hotpath.json".into());

    println!(
        "# Hot-path report — {iters} iterations, best of {BEST_OF}, \
         Fig. 7 stream of {fig7_tuples} tuples\n"
    );
    let report = run_hotpath(iters, fig7_tuples);

    println!(
        "{:<20} {:>18} {:>18} {:>9}",
        "suite", "one[probes/s]", "spread[probes/s]", "speedup"
    );
    for row in &report.micro {
        println!(
            "{:<20} {:>18.0} {:>18.0} {:>8.2}x",
            row.name,
            row.one_epoch_probes_per_sec,
            row.spread_probes_per_sec,
            row.speedup()
        );
    }
    println!(
        "\n# Ingest allocations: {:.3} per tuple over {} tuples (counting allocator)",
        report.allocs.allocs_per_tuple, report.allocs.tuples
    );
    println!(
        "# Rule-kernel allocations: {:.3} per input tuple over {} tuples",
        report.kernel_allocs.allocs_per_tuple, report.kernel_allocs.tuples
    );
    println!("\n# Fig. 7 end-to-end (5 queries)\n");
    println!(
        "{:<12} {:>16} {:>12} {:>12} {:>10}",
        "strategy", "throughput[t/s]", "memory[MB]", "latency[ms]", "results"
    );
    for r in &report.fig7 {
        println!(
            "{:<12} {:>16.0} {:>12.2} {:>12.3} {:>10}",
            r.strategy, r.throughput_tps, r.memory_mb, r.latency_ms, r.results
        );
    }
    println!("\n# Multi-source ingestion (2 queries, parallel engine, 4 workers)\n");
    println!(
        "{:<14} {:>8} {:>8} {:>16} {:>10} {:>13}",
        "mode", "sources", "threads", "wall_tps[t/s]", "results", "busy_balance"
    );
    for r in &report.multi_source {
        println!(
            "{:<14} {:>8} {:>8} {:>16.0} {:>10} {:>13.3}",
            r.mode, r.sources, r.producer_threads, r.wall_tps, r.results, r.busy_balance
        );
    }
    println!("\n# Reconfiguration under load (quiesced installs, 2 sources)\n");
    println!(
        "{:<16} {:>10} {:>16} {:>10}",
        "installs_every", "installs", "wall_tps[t/s]", "results"
    );
    for r in &report.reconfig {
        println!(
            "{:<16} {:>10} {:>16.0} {:>10}",
            r.installs_every, r.installs, r.wall_tps, r.results
        );
    }
    println!("\n# ILP solves (Fig. 7 models, default node limit, no time limit)\n");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12} {:>12} {:>14} {:>10} {:>12}",
        "queries",
        "variables",
        "nodes",
        "solve[ms]",
        "nodes/s",
        "examined/node",
        "objective",
        "incumbent",
        "root bound"
    );
    for r in &report.ilp {
        println!(
            "{:<8} {:>10} {:>10} {:>10.1} {:>12.0} {:>12.3} {:>14.3} {:>10} {:>12.3}",
            r.queries,
            r.variables,
            r.nodes,
            r.solve_ms,
            r.nodes_per_sec(),
            r.examined_per_node(),
            r.objective,
            r.incumbent_node,
            r.bound
        );
    }

    let json = report_to_json(&report);
    std::fs::write(&out_path, &json).expect("write report");
    println!("\nwrote {out_path}");
}
