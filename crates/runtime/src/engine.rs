//! The sequential engine: engine configuration, the control trait shared
//! with the sharded runtime, and [`LocalEngine`].
//!
//! The engine is a deterministic, single-process substitute for the Apache
//! Storm cluster of the paper (see DESIGN.md): stores, partitions, rule
//! sets keyed by incoming edge labels, epoch-scoped state and the
//! iterative probing of Algorithm 3/4 are all executed faithfully; only
//! the physical distribution (threads/processes per worker) is collapsed
//! into one process so that experiments are reproducible on a laptop.
//! Probe cost (tuple copies sent), store memory and per-result latency —
//! the quantities the paper's evaluation reports — are tracked exactly as
//! a distributed deployment would observe them.
//!
//! The rules themselves are executed by the one kernel both engines share,
//! `parallel/shard.rs`; `LocalEngine` is its single-shard driver.

use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::parallel::shard::ShardState;
use crate::parallel::worker::Delivery;
use crate::plan::prepare;
use crate::stats_collector::StatsCollector;
use clash_catalog::Catalog;
use clash_common::{
    arena_stats, chrome_trace_json, trace_clock_us, ClashError, EpochConfig, QueryId, Result,
    Timestamp, TraceEvent, TraceEventKind, Tuple,
};
use clash_optimizer::TopologyPlan;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Epoch length used for epoch-scoped state and statistics.
    pub epoch: EpochConfig,
    /// Run window expiry every N ingested tuples (`0` disables expiry).
    pub expire_every: u64,
    /// Parallel runtime only: the most deliveries a producer's
    /// micro-batch gathers before it ships (the size trigger). Every
    /// producer coalesces per-root `Batch` messages up to this size while
    /// the workers they are for are busy; a batch ships earlier the
    /// moment one of them is idle (as seen by the push, or by the worker
    /// itself when it runs dry), and barriers always flush. `1` restores
    /// send-per-ingest.
    pub micro_batch: usize,
    /// Parallel runtime only: bound on in-flight roots (ingested input
    /// tuples whose deliveries have not all been processed yet). Both the
    /// coordinator's `ingest` and every [`crate::ingest::SourceHandle`]
    /// block once the bound is reached until workers catch up, so a slow
    /// consumer backpressures producers instead of growing the worker
    /// queues without limit. Admission precedes sequence allocation, so
    /// concurrent producers can overshoot the bound by at most one root
    /// each. `0` disables the bound.
    pub max_inflight_roots: usize,
    /// Capacity of each thread's trace-event ring (ingest/probe/insert/
    /// barrier/... events drainable as Chrome trace JSON). A full ring
    /// overwrites its oldest events, so tracing can stay on permanently;
    /// `0` disables tracing entirely (record calls reduce to one branch).
    pub trace_capacity: usize,
    /// Epochs of lag behind the stream clock before an epoch of every
    /// store closes: its containers stay as they are, and their index
    /// keys join the partition's union bloom, which lets a probe skip all
    /// closed epochs at once when it rejects the probe's key (closing runs
    /// with the expiry sweeps). `0` = never: probes walk every epoch.
    pub freeze_after_epochs: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            epoch: EpochConfig::default(),
            expire_every: 1024,
            micro_batch: 64,
            max_inflight_roots: 1 << 16,
            trace_capacity: 4096,
            freeze_after_epochs: 1,
        }
    }
}

/// What both engines' constructors panic with on an invalid first plan.
pub(crate) const INVALID_INITIAL_PLAN: &str = "initial plan failed static verification";

/// Callback invoked for every emitted join result.
pub type ResultSink = Box<dyn FnMut(QueryId, &Tuple) + Send>;

/// A sink that sends a clone of every result to `tx`: what `subscribe()`
/// registers on either engine. It stops cloning once the receiver hung
/// up, which leaves every other sink connected.
pub(crate) fn channel_sink(tx: Sender<(QueryId, Tuple)>) -> ResultSink {
    let mut tx = Some(tx);
    Box::new(move |query, tuple| {
        if let Some(live) = &tx {
            if live.send((query, tuple.clone())).is_err() {
                tx = None;
            }
        }
    })
}

/// The control surface the adaptive controller needs from an engine:
/// swapping topology plans and reading the gathered statistics. The
/// sequential [`LocalEngine`] implements it directly; the sharded
/// runtime implements it on its engine core, which both the owning
/// thread and the control-plane epoch driver can lock — so epoch-based
/// re-optimization (Section VI) works unchanged on either runtime.
pub trait EngineControl {
    /// Installs (or replaces) the running plan, carrying over the state of
    /// stores whose descriptor the new plan keeps. No pushed tuple is
    /// dropped, but a result that needs a pre-install tuple from a store
    /// the new plan adds is lost: that store starts empty. Errors instead of panicking when the runtime cannot
    /// complete the reconfiguration (engine shut down, worker thread
    /// dead); the controller keeps its pending plan in that case.
    fn install_plan(&mut self, plan: TopologyPlan) -> Result<()>;

    /// The currently installed plan.
    fn plan(&self) -> &TopologyPlan;

    /// The statistics gathered since the last pruning.
    fn stats_collector(&self) -> &StatsCollector;

    /// Mutable access to the statistics collector (pruning).
    fn stats_collector_mut(&mut self) -> &mut StatsCollector;
}

/// Deterministic local execution engine for a [`TopologyPlan`]: a
/// sequential driver over **one** `ShardState` that owns every partition
/// of every store (`workers = 1`). Each ingested tuple is run to
/// completion before the next — the kernel's `Forward` outputs land in an
/// inline work queue instead of worker channels — so
/// the arrival position is the sequence guard, nothing is ever in flight
/// between calls, and no probe ever registers as a pending prober (the
/// watermark is always the previous arrival).
pub struct LocalEngine {
    catalog: Catalog,
    config: EngineConfig,
    /// The rule kernel and all store state (trace lane 0).
    shard: ShardState,
    /// Inline work queue of the tuple being ingested (empty between calls).
    queue: Vec<Delivery>,
    /// Arrival position of the last ingested tuple: its sequence guard.
    seq: u64,
    max_ts: Timestamp,
    since_expiry: u64,
}

impl std::fmt::Debug for LocalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalEngine")
            .field("stores", &self.shard.stores().count())
            .field("queries", &self.plan().queries.len())
            .field("ingested", &self.shard.metrics.tuples_ingested)
            .finish()
    }
}

impl LocalEngine {
    /// Creates an engine executing the given plan. Panics when the plan
    /// fails static verification.
    pub fn new(catalog: Catalog, plan: TopologyPlan, config: EngineConfig) -> Self {
        let installed = prepare(&catalog, plan).expect(INVALID_INITIAL_PLAN);
        let shard = ShardState::new(1, installed, &config, 0);
        LocalEngine {
            catalog,
            config,
            shard,
            queue: Vec::new(),
            seq: 0,
            max_ts: Timestamp::ZERO,
            since_expiry: 0,
        }
    }

    /// Adds a sink invoked for every result emitted from now on, during
    /// the `ingest` that emits it. It borrows each result: a sink that
    /// only reads what it is handed lets the next result reuse its join
    /// node. Earlier sinks and subscriptions stay connected.
    pub fn set_sink(&mut self, sink: ResultSink) {
        self.shard.sinks.push(sink);
    }

    /// Subscribes to the result stream: every result emitted from now on
    /// is sent on the returned channel during the `ingest` that emits it.
    /// Subscriptions are independent, as on `ParallelEngine`: each call
    /// adds a receiver that gets every result, and dropping one leaves the
    /// others connected. The channel disconnects when the engine drops.
    pub fn subscribe(&mut self) -> Receiver<(QueryId, Tuple)> {
        let (tx, rx) = channel();
        self.set_sink(channel_sink(tx));
        rx
    }

    /// Installs (or replaces) the plan. Stores whose descriptor matches an
    /// existing store keep their state (Section VI-A's rewiring); stores
    /// that no longer appear are dropped (reference-count reaching zero in
    /// Section VI-B). A store the new plan adds starts empty, so a result
    /// that needs a pre-install tuple from it is lost.
    ///
    /// The plan is statically verified first: an error-level finding
    /// rejects it with [`ClashError::InvalidPlan`] before any engine state
    /// is touched, so the previously installed plan keeps running.
    pub fn install_plan(&mut self, plan: TopologyPlan) -> Result<()> {
        let installed = prepare(&self.catalog, plan)
            .inspect_err(|_| self.shard.metrics.plan_rejections += 1)?;
        self.shard.install(installed);
        Ok(())
    }

    /// The currently installed plan.
    pub fn plan(&self) -> &TopologyPlan {
        self.shard.plan()
    }

    /// The statistics collector (read by the adaptive controller).
    pub fn stats_collector(&self) -> &StatsCollector {
        &self.shard.stats
    }

    /// Mutable access to the statistics collector (pruning).
    pub fn stats_collector_mut(&mut self) -> &mut StatsCollector {
        &mut self.shard.stats
    }

    /// Epoch configuration in use.
    pub fn epoch_config(&self) -> EpochConfig {
        self.config.epoch
    }

    /// Ingests one input tuple of the given relation, running all routing,
    /// storing and probing it triggers. Returns the number of join results
    /// emitted for this tuple.
    pub fn ingest(&mut self, relation: clash_common::RelationId, tuple: Tuple) -> Result<u64> {
        let started = Instant::now();
        if self.catalog.relation(relation).is_err() {
            return Err(ClashError::unknown(format!("relation {relation}")));
        }
        let trace_started = if self.shard.trace.enabled() {
            trace_clock_us()
        } else {
            0
        };
        self.shard.metrics.tuples_ingested += 1;
        self.seq += 1;
        self.max_ts = self.max_ts.max(tuple.ts);
        let epoch = self.config.epoch.epoch_of(tuple.ts);
        self.shard.stats.record_arrival(epoch, relation);

        self.shard
            .route(relation, &tuple, self.seq, started, |_, d| {
                self.queue.push(d)
            });
        // Tuples run to completion one at a time: every earlier root has
        // completed, which is this engine's completion watermark.
        let watermark = self.seq - 1;
        let mut emitted = 0u64;
        while let Some(delivery) = self.queue.pop() {
            emitted += self
                .shard
                .process(&delivery, watermark, &mut |_, forwarded| {
                    self.queue.push(forwarded)
                });
        }

        self.shard.metrics.busy += started.elapsed();
        self.shard.trace.record_span(
            TraceEventKind::Ingest,
            trace_started,
            u64::from(relation.0),
            emitted,
        );
        self.since_expiry += 1;
        if self.config.expire_every > 0 && self.since_expiry >= self.config.expire_every {
            self.expire_stores();
            self.since_expiry = 0;
        }
        Ok(emitted)
    }

    /// Expires out-of-window tuples from every store, then closes the
    /// epochs that have fallen [`EngineConfig::freeze_after_epochs`]
    /// behind the stream clock. Returns the number of expired tuples.
    pub fn expire_stores(&mut self) -> usize {
        self.shard.expire(self.max_ts)
    }

    /// Total bytes held across all stores (Fig. 7c).
    pub fn store_bytes(&self) -> usize {
        self.shard.stores().map(|s| s.bytes()).sum()
    }

    /// Total tuples held across all stores.
    pub fn store_tuples(&self) -> usize {
        self.shard.stores().map(|s| s.len()).sum()
    }

    /// Metrics snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = &self.shard.metrics;
        MetricsSnapshot::assemble(metrics, &self.shard.store_detail(), metrics.busy)
    }

    /// Resets metrics (between experiment phases) without touching store
    /// state.
    pub fn reset_metrics(&mut self) {
        self.shard.metrics = EngineMetrics::default();
    }

    /// Takes every buffered trace event (record order), leaving the ring
    /// empty. Empty when `EngineConfig::trace_capacity` is `0`.
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        self.shard.trace.drain()
    }

    /// Drains the trace ring rendered as Chrome trace-event JSON
    /// (loadable in `chrome://tracing` / Perfetto).
    pub fn trace_json(&mut self) -> String {
        chrome_trace_json(&self.drain_trace())
    }

    /// Renders the engine's current state as a Prometheus-style text
    /// exposition page: counters, per-query result counts and latency
    /// quantiles, the merged latency histogram, per-store size and index
    /// gauges, and this thread's arena counters.
    pub fn telemetry_snapshot(&self) -> String {
        crate::exposition::shared_sections(
            &self.shard.metrics,
            &self.shard.store_detail(),
            [("engine".to_string(), arena_stats())],
        )
        .finish()
    }
}

impl EngineControl for LocalEngine {
    fn install_plan(&mut self, plan: TopologyPlan) -> Result<()> {
        LocalEngine::install_plan(self, plan)
    }

    fn plan(&self) -> &TopologyPlan {
        LocalEngine::plan(self)
    }

    fn stats_collector(&self) -> &StatsCollector {
        LocalEngine::stats_collector(self)
    }

    fn stats_collector_mut(&mut self) -> &mut StatsCollector {
        LocalEngine::stats_collector_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixture::{planned, setup, tuple, workload, workload_in};
    use clash_common::{QueryId, Window};
    use clash_optimizer::{Planner, Strategy};

    fn engine_for(strategy: Strategy, parallelism: usize) -> (LocalEngine, Catalog) {
        let (catalog, plan) = planned(parallelism, strategy);
        (
            LocalEngine::new(catalog.clone(), plan, EngineConfig::default()),
            catalog,
        )
    }

    /// Ingests the fixture's workload; returns the result counts it has
    /// for q1 and q2.
    fn ingest_workload(engine: &mut LocalEngine, catalog: &Catalog) -> (u64, u64) {
        for (relation, t) in workload(catalog) {
            engine.ingest(relation, t).unwrap();
        }
        (3, 3)
    }

    #[test]
    fn shared_plan_produces_correct_join_results() {
        let (mut engine, catalog) = engine_for(Strategy::Shared, 1);
        let (exp_q1, exp_q2) = ingest_workload(&mut engine, &catalog);
        let snap = engine.snapshot();
        assert_eq!(snap.results_for(QueryId::new(0)), exp_q1, "q1 results");
        assert_eq!(snap.results_for(QueryId::new(1)), exp_q2, "q2 results");
        assert!(snap.tuples_sent > 0);
        assert!(snap.store_bytes > 0);
        assert!(snap.latency.count > 0);
        assert!(snap.throughput_tps > 0.0);
    }

    #[test]
    fn all_strategies_agree_on_results() {
        for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
            let (mut engine, catalog) = engine_for(strategy, 1);
            let (exp_q1, exp_q2) = ingest_workload(&mut engine, &catalog);
            let snap = engine.snapshot();
            assert_eq!(
                snap.results_for(QueryId::new(0)),
                exp_q1,
                "{strategy:?} q1 results"
            );
            assert_eq!(
                snap.results_for(QueryId::new(1)),
                exp_q2,
                "{strategy:?} q2 results"
            );
        }
    }

    #[test]
    fn partitioned_stores_agree_with_unpartitioned_results() {
        let (mut single, catalog1) = engine_for(Strategy::GlobalIlp, 1);
        let (mut parallel, catalog4) = engine_for(Strategy::GlobalIlp, 4);
        ingest_workload(&mut single, &catalog1);
        ingest_workload(&mut parallel, &catalog4);
        let a = single.snapshot();
        let b = parallel.snapshot();
        assert_eq!(
            a.results_for(QueryId::new(0)),
            b.results_for(QueryId::new(0))
        );
        assert_eq!(
            a.results_for(QueryId::new(1)),
            b.results_for(QueryId::new(1))
        );
    }

    #[test]
    fn independent_plan_uses_more_memory_than_shared() {
        let (mut shared, catalog) = engine_for(Strategy::Shared, 1);
        let (mut independent, catalog_i) = engine_for(Strategy::Independent, 1);
        ingest_workload(&mut shared, &catalog);
        ingest_workload(&mut independent, &catalog_i);
        assert!(
            independent.store_bytes() > shared.store_bytes(),
            "independent {} vs shared {}",
            independent.store_bytes(),
            shared.store_bytes()
        );
    }

    #[test]
    fn results_are_deduplicated_by_arrival_order_semantics() {
        // Ingest the same logical workload twice with fresh engines and
        // permuted arrival order of the last relations: result counts stay
        // identical because every result is produced exactly once, by the
        // probe order of its latest tuple.
        let (mut engine, catalog) = engine_for(Strategy::Shared, 1);
        ingest_workload(&mut engine, &catalog);
        let baseline = engine.snapshot().total_results();

        let (mut engine2, catalog2) = engine_for(Strategy::Shared, 1);
        // Same tuples, different interleaving (T before S).
        for (relation, t) in workload_in(&catalog2, ["T", "R", "U", "S"]) {
            engine2.ingest(relation, t).unwrap();
        }
        assert_eq!(engine2.snapshot().total_results(), baseline);
    }

    #[test]
    fn expiry_removes_out_of_window_state() {
        let (catalog, queries, stats) = setup(1);
        // Narrow window: 1 second.
        let mut catalog = catalog;
        for id in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            catalog.set_window(id, Window::secs(1)).unwrap();
        }
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
        let mut engine = LocalEngine::new(
            catalog.clone(),
            report.plan,
            EngineConfig {
                expire_every: 0,
                ..EngineConfig::default()
            },
        );
        let s_id = catalog.relation_id("S").unwrap();
        for i in 0..50 {
            let t = tuple(&catalog, "S", i * 100, &[("a", 1), ("b", 1)]);
            engine.ingest(s_id, t).unwrap();
        }
        let before = engine.store_tuples();
        let removed = engine.expire_stores();
        assert!(removed > 0);
        assert!(engine.store_tuples() < before);
    }

    #[test]
    fn install_plan_preserves_matching_store_state() {
        let (mut engine, catalog) = engine_for(Strategy::Shared, 1);
        ingest_workload(&mut engine, &catalog);
        let tuples_before = engine.store_tuples();
        assert!(tuples_before > 0);
        // Reinstall the same plan: state carried over.
        let plan = engine.plan().clone();
        engine.install_plan(plan).unwrap();
        assert_eq!(engine.store_tuples(), tuples_before);
        // Install an empty plan: every store dropped.
        engine.install_plan(TopologyPlan::default()).unwrap();
        assert_eq!(engine.store_tuples(), 0);
    }

    #[test]
    fn unknown_relation_is_rejected() {
        let (mut engine, catalog) = engine_for(Strategy::Shared, 1);
        let t = tuple(&catalog, "R", 10, &[("a", 1)]);
        assert!(engine.ingest(clash_common::RelationId::new(42), t).is_err());
    }

    #[test]
    fn sink_receives_emitted_results() {
        let (catalog, plan) = planned(1, Strategy::Shared);
        let mut engine = LocalEngine::new(catalog.clone(), plan, EngineConfig::default());
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c2 = counter.clone();
        engine.set_sink(Box::new(move |_, _| {
            c2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }));
        let catalog_ref = catalog;
        ingest_workload(&mut engine, &catalog_ref);
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            engine.snapshot().total_results()
        );
    }
}
