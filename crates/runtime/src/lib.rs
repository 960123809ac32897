//! # clash-runtime
//!
//! Execution substrate for the topologies produced by `clash-optimizer`.
//!
//! The paper deploys its plans as Apache Storm topologies on a cluster;
//! this crate substitutes a self-contained runtime that executes the same
//! stores, rule sets and routing decisions (the substitution is documented
//! in DESIGN.md):
//!
//! * [`StoreInstance`] — a partitioned, window-expiring relation store:
//!   per partition, one arrival-order log whose entries keep the epoch
//!   they were stored with respect to, and one hash index per indexed
//!   attribute over the whole log,
//! * one rule kernel (`parallel::shard`) that walks the routing rules of a
//!   [`clash_optimizer::TopologyPlan`] (Algorithm 3 / 4 of the paper),
//!   maintains intermediate-result stores, emits join results and tracks
//!   the metrics the evaluation reports (tuples sent, store memory,
//!   per-result latency, throughput), driven by two engines:
//! * [`LocalEngine`] — a deterministic, single-process executor: one shard
//!   holding every partition, each ingested tuple run to completion,
//! * [`ParallelEngine`] — the sharded counterpart: one worker thread per
//!   store shard, `partition_hash` routing over channels, and epoch
//!   barriers that aggregate per-worker metrics/statistics while keeping
//!   the result set identical to `LocalEngine` (see [`parallel`]),
//! * [`SourceHandle`] — concurrent multi-source ingestion for the
//!   parallel engine: N producer threads push straight to the worker
//!   shards through per-source micro-batching routers with bounded
//!   in-flight backpressure, while results stream to subscribers between
//!   barriers; plan installs quiesce producers (no push is ever dropped
//!   by a reconfiguration) and a control-plane epoch driver re-optimizes
//!   source-fed streams off the stream clock (see [`ingest`] and
//!   [`parallel`]),
//! * [`StatsCollector`] — per-epoch sampling of arrival rates and
//!   predicate selectivities (the "statistics gathering" of Fig. 5),
//! * [`AdaptiveController`] — epoch-based re-optimization: statistics from
//!   epoch `i` are evaluated in epoch `i+1` and the new configuration
//!   becomes active in epoch `i+2` (Section VI-A), with store state
//!   carried over across reconfigurations and store reference counting on
//!   query removal (Section VI-B).

pub mod adaptive;
pub mod engine;
mod exposition;
pub mod ingest;
pub mod metrics;
pub mod parallel;
mod plan;
pub mod stats_collector;
pub mod store;
#[cfg(test)]
mod test_fixture;

pub use adaptive::{AdaptiveConfig, AdaptiveController, ControllerDecision};
pub use engine::{EngineConfig, EngineControl, LocalEngine, ResultSink};
pub use ingest::SourceHandle;
pub use metrics::{EngineMetrics, LatencyStats, MetricsSnapshot};
pub use parallel::ParallelEngine;
pub use stats_collector::StatsCollector;
pub use store::StoreInstance;
