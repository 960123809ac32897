//! Steady-state end-to-end benchmark of the CLASH stream-join runtime.
//!
//! A package of its own: it depends on the workspace's crates by path and
//! measures every layer from outside, through public functions and public
//! counters. See `README.md` for the workloads, the metrics and how they
//! interact, and `../BENCHMARK.json` for the contract the names follow.

pub mod alloc;
pub mod harness;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod run;
pub mod spans;
pub mod stats;
pub mod verify;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Errors of the benchmark: the workspace's `ClashError` or an I/O error.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;
