//! # clash-bench
//!
//! Experiment drivers that regenerate every figure of the paper's
//! evaluation (Section VII). Each driver returns plain data rows; the
//! binaries in `src/bin/` print them as tables and `Debug` lines.
//!
//! | Paper figure | Driver |
//! |---|---|
//! | Fig. 7b/7c/7d (throughput / memory / latency, 5 & 10 queries) | [`fig7::run_fig7`] |
//! | Fig. 8a/8b (adaptive vs. static execution) | [`fig8::run_fig8`] |
//! | Fig. 9a–9d (probe cost & problem size vs. nQ) | [`fig9::run_probe_cost_sweep`] |
//! | Fig. 9e (optimization runtime vs. nQ) | [`fig9::run_probe_cost_sweep`] (runtime column) |
//! | Fig. 9f (optimization runtime vs. query size) | [`fig9::run_query_size_sweep`] |
//! | Ablations (DESIGN.md) | [`ablation`] |
//! | Hot-path report, `BENCH_hotpath.json` (not a paper figure) | [`hotpath::run_hotpath`] |
//!
//! [`exactness`] is not a figure: it drives a plan over a stream on every
//! engine path for the engine-equivalence tests.

pub mod ablation;
pub mod allocs;
pub mod exactness;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hotpath;

/// Every binary and test of this crate counts allocations (one relaxed
/// atomic per allocation), so the hotpath bench can report allocations
/// per ingested tuple — see [`allocs`].
#[global_allocator]
static GLOBAL_ALLOCATOR: allocs::CountingAllocator = allocs::CountingAllocator;

/// Prints a titled block of rows, one `Debug` line per row.
pub fn print_rows<T: std::fmt::Debug>(title: &str, rows: &[T]) {
    println!("== {title} ==");
    for row in rows {
        println!("{row:?}");
    }
    println!();
}
