//! The [`ParallelEngine`] façade and the coordinator state behind it.
//!
//! The engine is split in two layers: [`EngineCore`] owns every piece of
//! coordinator state (installed plan, worker channels, aggregates) behind
//! one mutex, and [`ParallelEngine`] is the public façade over it. The
//! split exists so that *two* threads can act as the control plane: the
//! thread owning the `ParallelEngine` handle, and the background
//! [`crate::parallel::driver::EpochDriver`] that fires the adaptive
//! controller off the stream clock for source-fed deployments (where the
//! owning thread may never call `ingest` at all). Producer pushes through
//! [`SourceHandle`]s never touch the core lock — they only pass the
//! quiesce gate and their own slot lock — so ingestion scales
//! independently of control-plane activity.
//!
//! This file holds construction, the producer-side operations (`ingest`,
//! `open_source`, `subscribe`) and shutdown; the control plane proper is
//! `EngineCore`'s other three `impl` blocks: [`super::barrier`] (the one
//! barrier), [`super::install`] (the quiesced plan install) and
//! [`super::telemetry`] (what a report is folded into, and every view
//! rendered from it).

use crate::adaptive::AdaptiveController;
use crate::engine::{channel_sink, EngineConfig, INVALID_INITIAL_PLAN};
use crate::ingest::shared::ControlShared;
use crate::ingest::SourceHandle;
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::parallel::driver::EpochDriver;
use crate::parallel::telemetry::Lane;
use crate::parallel::worker::{run_worker, WorkerAck, WorkerCtx, WorkerMsg};
use crate::plan::{prepare, InstalledPlan};
use crate::stats_collector::StatsCollector;
use clash_catalog::{Catalog, Statistics};
use clash_common::{
    trace_clock_us, ClashError, Epoch, EpochConfig, QueryId, Result, Timestamp, TraceEvent,
    TraceEventKind, TraceRing, Tuple,
};
use clash_optimizer::TopologyPlan;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

/// Sharded, multi-threaded execution engine for a
/// [`TopologyPlan`]: the parallel counterpart of
/// [`crate::engine::LocalEngine`].
///
/// One worker thread is spawned per shard; store partitions (the
/// catalog's `parallelism` field) map onto workers round-robin, so with as
/// many workers as the widest store's parallelism every partition gets a
/// dedicated thread, as in the paper's Storm deployment. Tuples are routed
/// by [`crate::store::partition_hash`] over mpsc channels; per-worker
/// metrics and statistics deltas are merged at collection barriers
/// (`flush`/`snapshot`/`install_plan`), so the adaptive controller and the
/// ILP re-optimization pipeline observe the same aggregate state as with
/// the sequential engine.
///
/// Result-set equivalence with `LocalEngine` on identical input is
/// maintained by the sequence-number probe guard and the pending probers
/// documented in [`crate::parallel`]; plan installs drop no push under
/// concurrent producers via the quiesce protocol documented in
/// [`crate::ingest`].
pub struct ParallelEngine {
    shared: Arc<ControlShared>,
    config: EngineConfig,
    workers: usize,
    core: Arc<Mutex<EngineCore>>,
    /// Background control-plane thread firing the adaptive controller at
    /// epoch boundaries of the stream clock (see
    /// [`Self::start_epoch_driver`]).
    driver: Option<EpochDriver>,
    /// Error of an already-stopped driver, kept so
    /// [`Self::epoch_driver_error`] still answers after shutdown or a
    /// driver replacement (post-mortem inspection).
    driver_error: Option<ClashError>,
}

/// All coordinator state, owned by whichever control-plane thread holds
/// the lock (the engine handle's owner or the epoch driver).
pub(crate) struct EngineCore {
    pub(super) catalog: Arc<Catalog>,
    pub(super) config: EngineConfig,
    /// The plan every worker and every producer slot currently runs.
    pub(super) installed: Arc<InstalledPlan>,
    pub(super) senders: Vec<Sender<WorkerMsg>>,
    pub(super) ack_rx: Receiver<WorkerAck>,
    handles: Vec<JoinHandle<()>>,
    pub(super) shared: Arc<ControlShared>,
    /// The coordinator's own producer: `ingest` pushes through a source
    /// like any other, registered in the shared registry so every sweep
    /// covers its micro-batch buffer too.
    coord: SourceHandle,
    /// Aggregates of everything merged at barriers so far: the workers'
    /// reports and every producer slot's deltas, the coordinator's own
    /// included.
    pub(super) metrics: EngineMetrics,
    pub(super) stats: StatsCollector,
    /// Maximum stream timestamp pushed through any producer, as of the
    /// last barrier.
    pub(super) max_ts: Timestamp,
    since_expiry: u64,
    pub(super) token: u64,
    /// What each worker's reports folded into.
    pub(super) lanes: Vec<Lane>,
    /// Wall-clock span from first ingest after a barrier to barrier end.
    pub(super) active_since: Option<Instant>,
    pub(super) wall_busy: StdDuration,
    /// The coordinator's own trace lane (tid 0; workers take 1..=N).
    pub(super) trace: TraceRing,
    /// Worker trace events absorbed at barriers, bounded at
    /// `trace_capacity * (workers + 1)` (oldest dropped first, matching
    /// the rings' own overwrite policy).
    pub(super) trace_buf: Vec<TraceEvent>,
    /// Plan installs performed over the engine's lifetime.
    pub(super) installs: u64,
}

impl std::fmt::Debug for ParallelEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelEngine")
            .field("workers", &self.workers)
            .field("adaptive", &self.driver.is_some())
            .finish()
    }
}

impl ParallelEngine {
    /// Creates an engine executing `plan` across `workers` threads.
    /// `workers == 0` selects one worker per partition of the widest store
    /// in the plan (honoring the catalog's parallelism). Panics when the
    /// plan fails static verification, as `LocalEngine::new` does.
    pub fn new(catalog: Catalog, plan: TopologyPlan, config: EngineConfig, workers: usize) -> Self {
        let workers = if workers == 0 {
            auto_workers(&plan)
        } else {
            workers
        };
        let installed = prepare(&catalog, plan).expect(INVALID_INITIAL_PLAN);
        let shared = Arc::new(ControlShared::new(workers));
        let (ack_tx, ack_rx) = channel();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..workers).map(|_| channel()).unzip();
        let mut handles = Vec::with_capacity(workers);
        for (index, rx) in receivers.into_iter().enumerate() {
            let ctx = WorkerCtx {
                index,
                workers,
                senders: senders.clone(),
                ack_tx: ack_tx.clone(),
                shared: shared.clone(),
                installed: installed.clone(),
                config,
            };
            let handle = std::thread::Builder::new()
                .name(format!("clash-worker-{index}"))
                .spawn(move || run_worker(ctx, rx))
                .expect("spawn worker thread");
            handles.push(handle);
        }
        let catalog = Arc::new(catalog);
        let coord = SourceHandle::open(
            shared.clone(),
            senders.clone(),
            catalog.clone(),
            installed.clone(),
            &config,
        );
        let core = EngineCore {
            catalog,
            config,
            installed,
            senders,
            ack_rx,
            handles,
            shared: shared.clone(),
            coord,
            metrics: EngineMetrics::default(),
            stats: StatsCollector::new(config.epoch.length),
            max_ts: Timestamp::ZERO,
            since_expiry: 0,
            token: 0,
            lanes: vec![Lane::default(); workers],
            active_since: None,
            wall_busy: StdDuration::ZERO,
            trace: TraceRing::new(config.trace_capacity, 0),
            trace_buf: Vec::new(),
            installs: 0,
        };
        ParallelEngine {
            shared,
            config,
            workers,
            core: Arc::new(Mutex::new(core)),
            driver: None,
            driver_error: None,
        }
    }

    /// Locks the core for one control-plane operation. Poison recovery:
    /// the core's state stays usable after a panicking barrier (the
    /// shutdown path must still be able to join the workers).
    fn core(&self) -> std::sync::MutexGuard<'_, EngineCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Epoch configuration in use.
    pub fn epoch_config(&self) -> EpochConfig {
        self.config.epoch
    }

    /// Opens a concurrent ingestion source: the returned [`SourceHandle`]
    /// can be moved to a producer thread and pushed independently of this
    /// engine handle (and of every other source). Any number of producers
    /// stay exact through the pending probers (see [`crate::ingest`]).
    pub fn open_source(&mut self) -> SourceHandle {
        self.core().open_source()
    }

    /// Subscribes to the result stream: every join result emitted from
    /// now on is delivered on the returned channel *as it is produced* on
    /// the workers — between barriers, not only at epoch ends. The
    /// channel disconnects when the engine shuts down. Subscriptions are
    /// independent: each call adds a receiver that gets every result, and
    /// dropping one receiver leaves the others connected.
    ///
    /// The channel is unbounded by design: a bounded one would block
    /// workers against a stalled subscriber, and the engine thread
    /// blocking in a barrier while holding the receiver would then
    /// deadlock. The `max_inflight_roots` gate bounds *input*; the
    /// subscriber must keep pace with the *output* it asked for (join
    /// amplification means one admitted root can emit many results).
    pub fn subscribe(&mut self) -> Receiver<(QueryId, Tuple)> {
        self.core().subscribe()
    }

    /// Roots currently in flight: allocated sequence numbers not yet
    /// covered by the completion watermark (what the
    /// `max_inflight_roots` backpressure gate bounds).
    pub fn inflight(&self) -> u64 {
        self.shared.inflight()
    }

    /// Roots sequenced so far: the realized length of the engine's serial
    /// order (every `ingest` and every `SourceHandle::push` allocated one
    /// position).
    pub fn sequenced(&self) -> u64 {
        self.shared.sequenced()
    }

    /// Ingests one input tuple, routing it to the owning shards. Join
    /// results materialize asynchronously on the workers, which hand them
    /// to the subscriptions as they go; they are counted at the next
    /// barrier ([`Self::flush`] / [`Self::snapshot`]), so this always
    /// returns 0 pending results.
    pub fn ingest(&mut self, relation: clash_common::RelationId, tuple: Tuple) -> Result<u64> {
        self.core().ingest(relation, tuple)
    }

    /// Drains all in-flight work and merges every worker's deltas: the
    /// epoch barrier. After `flush` the coordinator's metrics and
    /// statistics reflect everything ingested so far, and every result of
    /// it has reached the subscriptions. Panics with a diagnostic if a
    /// worker thread died.
    pub fn flush(&mut self) {
        self.core().barrier_or_panic(false);
    }

    /// Expires out-of-window tuples from every shard (drains first so the
    /// count is deterministic). Panics with a diagnostic if a worker
    /// thread died.
    pub fn expire_stores(&mut self) -> usize {
        self.core().barrier_or_panic(true)
    }

    /// Installs (or replaces) the plan via the quiesce protocol (see
    /// [`crate::ingest`]): producer admission is paused, residual
    /// old-plan batches are flushed, the workers drain to the completion
    /// barrier, the new plan is installed on every worker and every
    /// source slot, and producers resume against it. Racing pushes block
    /// briefly at the quiesce gate instead of being dropped. Shard state
    /// with matching store descriptors is carried over, mirroring the
    /// sequential engine's rewiring (Section VI-A/B).
    ///
    /// Returns the install position: the number of roots sequenced before
    /// the new plan took effect. Every root at or below it was fully
    /// processed under the old plan; every later root routes against the
    /// new plan — replaying the realized order through `LocalEngine` with
    /// the same plans installed at the same positions reproduces the
    /// result multiset exactly. Errors (instead of panicking mid-install)
    /// when the engine has shut down or a worker thread died; after a
    /// worker-death error the engine should be shut down.
    pub fn install_plan(&mut self, plan: TopologyPlan) -> Result<u64> {
        self.core().install_plan(plan)
    }

    /// The currently installed plan.
    pub fn plan(&self) -> Arc<TopologyPlan> {
        self.core().installed.plan.clone()
    }

    /// Statistics snapshot for one epoch from the merged per-worker
    /// observations (what the adaptive controller consumes at barriers).
    pub fn stats_snapshot(&self, epoch: Epoch, prior: &Statistics) -> Statistics {
        self.core().stats.snapshot(epoch, prior)
    }

    /// Total tuples held across all shards (as of the last barrier).
    pub fn store_tuples(&self) -> usize {
        self.core().held().map(|d| d.tuples).sum()
    }

    /// Total bytes held across all shards (as of the last barrier).
    pub fn store_bytes(&self) -> usize {
        self.core().held().map(|d| d.bytes).sum()
    }

    /// Per-worker processing time accumulated so far (as of the last
    /// barrier). Shows how evenly the shards split the work — on a
    /// multi-core machine the wall-clock win tracks this distribution.
    pub fn worker_busy(&self) -> Vec<StdDuration> {
        self.core().lanes.iter().map(|lane| lane.busy).collect()
    }

    /// Runs a full barrier and returns the aggregated metrics snapshot.
    /// `busy_secs` (and thus `throughput_tps`) is wall-clock time between
    /// the first ingest and the end of the drain — the end-to-end rate an
    /// external observer sees, which is the fair comparison against the
    /// sequential engine's processing time.
    pub fn snapshot(&mut self) -> MetricsSnapshot {
        self.core().snapshot()
    }

    /// Resets metrics without touching shard state.
    pub fn reset_metrics(&mut self) {
        self.core().reset_metrics();
    }

    /// Runs a barrier and renders the engine's telemetry page
    /// (Prometheus-style text): engine counters, per-query latency
    /// quantiles, per-shard latency quantiles, per-worker busy time and
    /// queue depth, per-store size/index gauges, arena counters,
    /// in-flight roots and plan installs.
    pub fn telemetry_snapshot(&mut self) -> String {
        self.core().telemetry_snapshot()
    }

    /// Runs a barrier and drains every thread's trace-event ring (the
    /// coordinator's lane included), merged and sorted by timestamp.
    /// Empty when `EngineConfig::trace_capacity` is 0.
    pub fn drain_trace(&mut self) -> Vec<clash_common::TraceEvent> {
        self.core().drain_trace()
    }

    /// [`Self::drain_trace`] rendered as Chrome trace-event JSON (load it
    /// in `chrome://tracing` or Perfetto).
    pub fn trace_json(&mut self) -> String {
        self.core().trace_json()
    }

    /// Starts the control-plane epoch driver: a background thread that
    /// watches the stream clock (advanced by every `ingest` and every
    /// `SourceHandle::push`) and, at each epoch boundary, runs a
    /// collection barrier and fires `controller.on_epoch` — so adaptive
    /// re-optimization works for source-fed deployments with zero
    /// coordinator-thread ingests (Fig. 5/8). The controller is shared:
    /// the caller keeps its handle for query registration and
    /// reconfiguration counts. A second call replaces the previous
    /// driver. The driver stops at engine shutdown, or on the first
    /// engine error (worker death), recording it for
    /// [`Self::epoch_driver_error`].
    pub fn start_epoch_driver(&mut self, controller: Arc<Mutex<AdaptiveController>>) {
        self.stop_epoch_driver();
        self.driver = Some(EpochDriver::spawn(
            self.core.clone(),
            self.shared.clone(),
            controller,
            self.config.epoch,
        ));
    }

    /// Stops and joins the running driver, keeping the first recorded
    /// error for post-mortem inspection.
    fn stop_epoch_driver(&mut self) {
        if let Some(mut old) = self.driver.take() {
            old.stop();
            self.driver_error = self.driver_error.take().or_else(|| old.error());
        }
    }

    /// The error that stopped the epoch driver, if any. Answers both for
    /// the running driver and post-shutdown (the error outlives the
    /// driver thread, so reconfiguration failures stay diagnosable).
    pub fn epoch_driver_error(&self) -> Option<ClashError> {
        self.driver
            .as_ref()
            .and_then(|d| d.error())
            .or_else(|| self.driver_error.clone())
    }

    /// Drains all in-flight work (every outstanding result reaches the
    /// subscriptions), then stops and joins the epoch driver and every
    /// worker thread, which disconnects the subscriptions. Called
    /// automatically on drop, so results produced after the last explicit
    /// barrier are not lost; calling it explicitly makes the final
    /// metrics observable before the engine goes away. Idempotent; the
    /// engine is inert afterwards (barriers no-op, `ingest` and source
    /// pushes return [`ClashError::Shutdown`]).
    pub fn shutdown(&mut self) {
        // The driver may be mid-tick holding the core lock: stop it
        // before taking the lock ourselves.
        self.stop_epoch_driver();
        self.core().shutdown();
    }
}

impl Drop for ParallelEngine {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Unwinding: skip the drain (it could panic again and abort);
            // just stop the threads.
            self.shared
                .shutdown
                .store(true, std::sync::atomic::Ordering::Release);
            if let Some(mut driver) = self.driver.take() {
                driver.stop();
            }
            self.core().coord.flush();
            self.core().join_workers();
            return;
        }
        // Drain in-flight batches first so results produced after the
        // last explicit barrier still reach the subscriptions.
        self.shutdown();
    }
}

impl EngineCore {
    /// Whether the engine has been shut down (workers joined).
    pub(crate) fn is_shutdown(&self) -> bool {
        self.handles.is_empty()
    }

    fn open_source(&mut self) -> SourceHandle {
        SourceHandle::open(
            self.shared.clone(),
            self.senders.clone(),
            self.catalog.clone(),
            self.installed.clone(),
            &self.config,
        )
    }

    fn subscribe(&mut self) -> Receiver<(QueryId, Tuple)> {
        let (tx, rx) = channel();
        self.coord.flush();
        for s in &self.senders {
            let _ = s.send(WorkerMsg::Subscribe(channel_sink(tx.clone())));
        }
        rx
    }

    /// One push through the coordinator's own source, plus what only the
    /// coordinator does around it: its trace lane and the `expire_every`
    /// cadence.
    fn ingest(&mut self, relation: clash_common::RelationId, tuple: Tuple) -> Result<u64> {
        self.coord.admit(relation)?;
        if self.active_since.is_none() {
            self.active_since = Some(Instant::now());
        }
        let trace_started = if self.trace.enabled() {
            trace_clock_us()
        } else {
            0
        };
        let (seq, flushed) = self.coord.route(relation, &tuple)?;
        if let Some((trigger, shipped, age)) = flushed.filter(|_| self.trace.enabled()) {
            self.trace.record_span(
                TraceEventKind::Flush,
                trace_clock_us().saturating_sub(age.as_micros() as u64),
                shipped as u64,
                trigger as u64,
            );
        }
        self.trace.record_span(
            TraceEventKind::Route,
            trace_started,
            seq,
            u64::from(relation.0),
        );

        self.since_expiry += 1;
        if self.config.expire_every > 0 && self.since_expiry >= self.config.expire_every {
            // The barrier, not a message racing the batches: an expiry
            // sent ahead of in-flight worker-to-worker forwards would
            // remove state their probes still have to see.
            self.barrier(true)?;
            self.since_expiry = 0;
        }
        Ok(0)
    }

    fn shutdown(&mut self) {
        if self.is_shutdown() {
            return;
        }
        // Quiesce, then refuse new pushes: a producer racing the shutdown
        // either completes its push (covered by the barrier below) or gets
        // `ClashError::Shutdown` — never a silent drop.
        {
            let shared = self.shared.clone();
            let quiesced = shared.gate.quiesce();
            self.shared
                .shutdown
                .store(true, std::sync::atomic::Ordering::Release);
            drop(quiesced);
        }
        // Best effort: a barrier that fails (dead worker, stuck drain)
        // leaves its metrics unfolded, and the threads are joined anyway.
        let _ = self.barrier(false);
        self.join_workers();
    }

    fn join_workers(&mut self) {
        for s in &self.senders {
            let _ = s.send(WorkerMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker per partition of the widest store (minimum 1).
pub fn auto_workers(plan: &TopologyPlan) -> usize {
    plan.stores
        .iter()
        .map(|s| s.descriptor.parallelism)
        .max()
        .unwrap_or(1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LocalEngine;
    use crate::test_fixture::{planned, setup, tuple, workload};
    use clash_common::Window;
    use clash_optimizer::{Planner, Strategy};

    #[test]
    fn gathered_statistics_match_local_engine() {
        // The adaptive controller consumes StatsCollector snapshots; the
        // merged per-worker deltas must yield the same arrival rates and
        // (for broadcast-probed stores, exactly; for hashed probes, up to
        // shard-balance extrapolation) the same selectivities.
        let (catalog, plan) = planned(4, Strategy::Shared);
        let config = EngineConfig::default();
        let mut local = LocalEngine::new(catalog.clone(), plan.clone(), config);
        let mut parallel = ParallelEngine::new(catalog.clone(), plan, config, 4);
        // A few hundred tuples so the hashed-probe whole-store
        // extrapolation (shard size x sharing workers) converges; on toy
        // streams single partitions hold 0-2 tuples and the estimate is
        // dominated by sampling noise.
        let mut ts = 0u64;
        for i in 0..200i64 {
            ts += 7;
            for (name, vals) in [
                ("R", vec![("a", i % 17)]),
                ("S", vec![("a", i % 17), ("b", i % 13)]),
                ("T", vec![("b", i % 13), ("c", i % 11)]),
                ("U", vec![("c", i % 11)]),
            ] {
                let t = tuple(&catalog, name, ts, &vals);
                let id = catalog.relation_id(name).unwrap();
                local.ingest(id, t.clone()).unwrap();
                parallel.ingest(id, t).unwrap();
            }
        }
        parallel.flush();
        let prior = Statistics::new();
        let ls = local
            .stats_collector()
            .snapshot(clash_common::Epoch(0), &prior);
        let ps = parallel.stats_snapshot(clash_common::Epoch(0), &prior);
        for meta in catalog.iter() {
            assert!(
                (ls.rate(meta.id) - ps.rate(meta.id)).abs() < 1e-9,
                "rate of {} diverges",
                meta.schema.name
            );
        }
        for (l, r) in [
            (
                catalog.attr("R", "a").unwrap(),
                catalog.attr("S", "a").unwrap(),
            ),
            (
                catalog.attr("S", "b").unwrap(),
                catalog.attr("T", "b").unwrap(),
            ),
            (
                catalog.attr("T", "c").unwrap(),
                catalog.attr("U", "c").unwrap(),
            ),
        ] {
            let lsel = ls.selectivity(l, r);
            let psel = ps.selectivity(l, r);
            assert!(
                psel > lsel * 0.5 && psel < lsel * 2.0 + 1e-12,
                "selectivity {l}={r} diverges: local {lsel}, parallel {psel}"
            );
        }
    }

    /// Stops one worker behind the engine's back and waits for its thread
    /// to exit: its share of every later root is never processed.
    fn kill_worker(engine: &ParallelEngine, worker: usize) {
        engine.core().senders[worker]
            .send(WorkerMsg::Shutdown)
            .unwrap();
        while !engine.core().handles[worker].is_finished() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_dead_worker_fails_every_barrier_with_the_same_typed_error() {
        let (catalog, queries, _) = setup(2);
        let (controller, report) = AdaptiveController::new(
            catalog.clone(),
            queries,
            Statistics::new(),
            crate::adaptive::AdaptiveConfig::default(),
        )
        .unwrap();
        let mut engine = ParallelEngine::new(
            catalog.clone(),
            report.plan.clone(),
            EngineConfig::default(),
            2,
        );
        kill_worker(&engine, 1);
        // What `flush` / `snapshot` / expiry run, and a plan install's
        // quiesce phase.
        let by_barrier = engine.core().barrier(false).unwrap_err();
        let by_install = engine.install_plan(report.plan).unwrap_err();
        assert_eq!(by_barrier, by_install);
        // The epoch driver: one push across an epoch boundary makes it run
        // its barrier.
        engine.start_epoch_driver(Arc::new(Mutex::new(controller)));
        let mut source = engine.open_source();
        let (relation, _) = workload(&catalog).remove(0);
        source
            .push(relation, tuple(&catalog, "R", 5_000, &[("a", 1)]))
            .unwrap();
        let deadline = Instant::now() + StdDuration::from_secs(10);
        let by_driver = loop {
            match engine.epoch_driver_error() {
                Some(e) => break e,
                None if Instant::now() < deadline => std::thread::yield_now(),
                None => panic!("the epoch driver never ran its barrier"),
            }
        };
        for error in [by_barrier, by_driver] {
            match error {
                ClashError::Runtime(msg) => assert!(
                    msg.starts_with("parallel engine barrier failed: worker 1 died"),
                    "{msg}"
                ),
                other => panic!("expected a runtime error, got {other:?}"),
            }
        }
        // Shutdown neither panics nor hangs on the failed barrier.
        engine.shutdown();
        assert!(engine.core().is_shutdown());
    }

    #[test]
    fn ingest_past_a_dead_worker_is_a_typed_error() {
        let (catalog, plan) = planned(2, Strategy::Shared);
        let config = EngineConfig {
            max_inflight_roots: 2,
            ..EngineConfig::default()
        };
        let mut engine = ParallelEngine::new(catalog.clone(), plan, config, 2);
        kill_worker(&engine, 0);
        // Both producers stall on the same gate and name the same worker.
        let mut source = engine.open_source();
        let by_ingest = workload(&catalog)
            .into_iter()
            .map(|(relation, t)| engine.ingest(relation, t))
            .find(|r| r.is_err());
        let by_push = workload(&catalog)
            .into_iter()
            .map(|(relation, t)| source.push(relation, t))
            .find(|r| r.is_err());
        for outcome in [by_ingest, by_push] {
            match outcome {
                Some(Err(ClashError::Runtime(msg))) => {
                    assert!(msg.contains("worker 0 died"), "{msg}")
                }
                other => panic!("expected a backpressure error, got {other:?}"),
            }
        }
    }

    #[test]
    fn busy_worker_pulls_what_a_quiet_source_left_behind() {
        let (catalog, plan) = planned(2, Strategy::Shared);
        // One q1 result per T tuple and one q2 result per U tuple, over
        // enough keys that both workers emit some of each round's.
        let round = |keys: std::ops::Range<i64>| {
            let mut stream = Vec::new();
            for (name, attrs) in [
                ("R", &["a"][..]),
                ("S", &["a", "b"]),
                ("T", &["b", "c"]),
                ("U", &["c"]),
            ] {
                for k in keys.clone() {
                    let values: Vec<_> = attrs.iter().map(|attr| (*attr, k)).collect();
                    let ts = 10 * (stream.len() as u64 + 1) + 1000 * keys.start as u64;
                    stream.push((
                        catalog.relation_id(name).unwrap(),
                        tuple(&catalog, name, ts, &values),
                    ));
                }
            }
            stream
        };
        let (head, tail) = (round(0..8), round(8..12));
        let mut local = LocalEngine::new(catalog.clone(), plan.clone(), EngineConfig::default());
        for (relation, t) in head.iter().chain(&tail) {
            local.ingest(*relation, t.clone()).unwrap();
        }
        let expected = local.snapshot().total_results();
        assert_eq!(expected, 24);

        let config = EngineConfig {
            micro_batch: 1 << 20,
            ..EngineConfig::default()
        };
        let mut engine = ParallelEngine::new(catalog.clone(), plan, config, 2);
        // A subscription whose sink holds its worker inside the batch that
        // emits the worker's first result until the test lets go: the
        // worker is busy in earnest, its queue depth stays above zero.
        let (results_tx, results) = channel();
        let (blocked_tx, blocked) = channel();
        let release: Vec<Sender<()>> = engine
            .core()
            .senders
            .iter()
            .map(|to_worker| {
                let (release_tx, released) = channel();
                let (results_tx, blocked_tx) = (results_tx.clone(), blocked_tx.clone());
                to_worker
                    .send(WorkerMsg::Subscribe(Box::new(move |query, tuple| {
                        let _ = blocked_tx.send(());
                        // Returns once the test has dropped `release_tx`.
                        let _ = released.recv();
                        let _ = results_tx.send((query, tuple.clone()));
                    })))
                    .unwrap();
                release_tx
            })
            .collect();
        let mut source = engine.open_source();
        for (relation, t) in head {
            source.push(relation, t).unwrap();
        }
        // Until released a worker signals once, so two signals are both
        // workers sitting in their sinks.
        for _ in 0..2 {
            blocked
                .recv_timeout(StdDuration::from_secs(10))
                .expect("a worker never emitted a result");
        }
        // Neither the size nor the idle trigger can ship these, and the
        // source goes quiet after them.
        for (relation, t) in tail {
            source.push(relation, t).unwrap();
        }
        assert!(
            engine
                .shared
                .slots()
                .iter()
                .any(|slot| !slot.inner.lock().unwrap().buf.is_empty()),
            "the tail shipped past two busy workers"
        );
        assert!(results.try_recv().is_err(), "a sink let a result through");

        drop(release);
        // No push, no flush, no barrier: the workers finish their batches,
        // run dry and pull the tail themselves.
        for received in 0..expected {
            results
                .recv_timeout(StdDuration::from_secs(10))
                .unwrap_or_else(|_| panic!("{received}/{expected} results: the tail is stranded"));
        }
        let page = engine.telemetry_snapshot();
        assert!(
            page.contains("clash_flushes_total{trigger=\"size\"} 0\n"),
            "{page}"
        );
    }

    #[test]
    fn auto_workers_follows_catalog_parallelism() {
        let (catalog, plan) = planned(4, Strategy::Shared);
        assert_eq!(auto_workers(&plan), 4);
        let engine = ParallelEngine::new(catalog, plan, EngineConfig::default(), 0);
        assert_eq!(engine.workers(), 4);
    }

    #[test]
    fn install_plan_preserves_matching_store_state() {
        let (catalog, plan) = planned(2, Strategy::Shared);
        let mut engine =
            ParallelEngine::new(catalog.clone(), plan.clone(), EngineConfig::default(), 2);
        for (relation, t) in workload(&catalog) {
            engine.ingest(relation, t).unwrap();
        }
        engine.flush();
        let before = engine.store_tuples();
        assert!(before > 0);
        let pos = engine.install_plan(plan).unwrap();
        assert_eq!(
            pos,
            engine.sequenced(),
            "install position covers every sequenced root"
        );
        assert_eq!(engine.store_tuples(), before, "same plan keeps state");
        engine.install_plan(TopologyPlan::default()).unwrap();
        assert_eq!(engine.store_tuples(), 0, "empty plan drops all stores");
    }

    #[test]
    fn install_plan_after_shutdown_errors() {
        let (catalog, plan) = planned(2, Strategy::Shared);
        let mut engine =
            ParallelEngine::new(catalog.clone(), plan.clone(), EngineConfig::default(), 2);
        engine.shutdown();
        assert_eq!(engine.install_plan(plan).unwrap_err(), ClashError::Shutdown);
    }

    #[test]
    fn expiry_removes_out_of_window_state() {
        let (catalog, queries, stats) = setup(2);
        let mut catalog = catalog;
        for id in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            catalog.set_window(id, Window::secs(1)).unwrap();
        }
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
        let mut engine = ParallelEngine::new(
            catalog.clone(),
            report.plan,
            EngineConfig {
                expire_every: 0,
                ..EngineConfig::default()
            },
            2,
        );
        let s_id = catalog.relation_id("S").unwrap();
        for i in 0..50u64 {
            let t = tuple(&catalog, "S", i * 100, &[("a", 1), ("b", 1)]);
            engine.ingest(s_id, t).unwrap();
        }
        engine.flush();
        let before = engine.store_tuples();
        let removed = engine.expire_stores();
        assert!(removed > 0);
        assert!(engine.store_tuples() < before);
    }

    #[test]
    fn unknown_relation_is_rejected() {
        let (catalog, plan) = planned(1, Strategy::Shared);
        let mut engine = ParallelEngine::new(catalog.clone(), plan, EngineConfig::default(), 2);
        let t = tuple(&catalog, "R", 10, &[("a", 1)]);
        assert!(engine.ingest(clash_common::RelationId::new(42), t).is_err());
    }
}
