//! The [`ParallelEngine`] coordinator: ingests tuples, routes them to the
//! worker threads, runs drain/collection barriers at epoch boundaries and
//! aggregates per-worker metrics and statistics deltas.
//!
//! The engine is split in two layers: [`EngineCore`] owns every piece of
//! coordinator state (plan, worker channels, aggregates) behind one
//! mutex, and [`ParallelEngine`] is the public façade over it. The split
//! exists so that *two* threads can act as the control plane: the thread
//! owning the `ParallelEngine` handle, and the background
//! [`crate::parallel::driver::EpochDriver`] that fires the adaptive
//! controller off the stream clock for source-fed deployments (where the
//! owning thread may never call `ingest` at all). Producer pushes through
//! [`SourceHandle`]s never touch the core lock — they only pass the
//! quiesce gate and their own slot lock — so ingestion scales
//! independently of control-plane activity.

use crate::adaptive::{AdaptiveController, ControllerDecision};
use crate::engine::{EngineConfig, EngineControl, ResultSink};
use crate::ingest::shared::{ControlShared, LIVENESS_TICK};
use crate::ingest::SourceHandle;
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::parallel::driver::EpochDriver;
use crate::parallel::router::{symmetric_stores, symmetric_stores_multi, FlushTrigger};
use crate::parallel::shard::{StoreDetail, StoreLayout};
use crate::parallel::worker::{run_worker, WorkerAck, WorkerCtx, WorkerMsg};
use crate::stats_collector::StatsCollector;
use clash_catalog::{Catalog, Statistics};
use clash_common::{
    chrome_trace_json, trace_clock_us, ArenaStats, ClashError, Epoch, EpochConfig, Exposition,
    FxHashSet, LatencyHistogram, QueryId, Result, StoreId, Timestamp, TraceEvent, TraceEventKind,
    TraceRing, Tuple,
};
use clash_optimizer::TopologyPlan;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
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
/// maintained by the sequence-number probe guard and the symmetric
/// pending-prober mechanism documented in [`crate::parallel`]; plan
/// installs are lossless under concurrent producers via the quiesce
/// protocol documented in [`crate::ingest`].
pub struct ParallelEngine {
    shared: Arc<ControlShared>,
    senders: Vec<Sender<WorkerMsg>>,
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
    catalog: Arc<Catalog>,
    config: EngineConfig,
    workers: usize,
    plan: Arc<TopologyPlan>,
    symmetric: Arc<FxHashSet<StoreId>>,
    senders: Vec<Sender<WorkerMsg>>,
    ack_rx: Receiver<WorkerAck>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<ControlShared>,
    /// Sources handed out so far (drives the multi-producer widening).
    sources_opened: usize,
    /// Whether the widened multi-producer symmetric set is installed.
    multi_symmetric: bool,
    /// The coordinator's own producer: `ingest` pushes through a source
    /// like any other, registered in the shared registry so every sweep
    /// covers its micro-batch buffer too.
    coord: SourceHandle,
    /// Aggregates of everything merged at barriers so far: the workers'
    /// deltas and every producer slot's, the coordinator's own included.
    metrics: EngineMetrics,
    stats: StatsCollector,
    results: Vec<(QueryId, Tuple)>,
    sink: Option<ResultSink>,
    forward_results: bool,
    /// Maximum stream timestamp pushed through any producer, as of the
    /// last drain of the slots' deltas.
    max_ts: Timestamp,
    since_expiry: u64,
    token: u64,
    worker_store_totals: Vec<(usize, usize)>,
    worker_busy: Vec<StdDuration>,
    /// Wall-clock span from first ingest after a barrier to barrier end.
    active_since: Option<Instant>,
    wall_busy: StdDuration,
    /// The coordinator's own trace lane (tid 0; workers take 1..=N).
    trace: TraceRing,
    /// Worker trace events absorbed at barriers, bounded at
    /// `trace_capacity * (workers + 1)` (oldest dropped first, matching
    /// the rings' own overwrite policy).
    trace_buf: Vec<TraceEvent>,
    /// Per-shard ingest-to-emit latency, merged from each worker's delta
    /// at barriers (the per-query view lives in `metrics`).
    worker_latency: Vec<LatencyHistogram>,
    /// Per-worker-thread arena counters as of the last barrier.
    worker_arena: Vec<ArenaStats>,
    /// Per-store breakdown per worker as of the last barrier.
    worker_stores: Vec<Vec<StoreDetail>>,
    /// Plan installs performed over the engine's lifetime.
    installs: u64,
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
    /// in the plan (honoring the catalog's parallelism).
    pub fn new(catalog: Catalog, plan: TopologyPlan, config: EngineConfig, workers: usize) -> Self {
        let workers = if workers == 0 {
            auto_workers(&plan)
        } else {
            workers
        };
        let plan = Arc::new(plan);
        let layout = Arc::new(StoreLayout::derive(&catalog, &plan));
        let symmetric = Arc::new(symmetric_stores(&plan));
        let shared = Arc::new(ControlShared::new(workers));
        let (ack_tx, ack_rx) = channel();
        let mut senders = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let forward_results = config.collect_results;
        let mut handles = Vec::with_capacity(workers);
        for (index, rx) in receivers.into_iter().enumerate() {
            let ctx = WorkerCtx {
                index,
                workers,
                senders: senders.clone(),
                ack_tx: ack_tx.clone(),
                shared: shared.clone(),
                symmetric: symmetric.clone(),
                epoch: config.epoch,
                freeze_after: config.freeze_after_epochs,
                plan: plan.clone(),
                layout: layout.clone(),
                forward_results,
                trace_capacity: config.trace_capacity,
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
            plan.clone(),
            &config,
        );
        let core = EngineCore {
            catalog,
            config,
            workers,
            plan,
            symmetric,
            senders: senders.clone(),
            ack_rx,
            handles,
            shared: shared.clone(),
            sources_opened: 0,
            multi_symmetric: false,
            coord,
            metrics: EngineMetrics::default(),
            stats: StatsCollector::new(config.epoch.length),
            results: Vec::new(),
            sink: None,
            forward_results,
            max_ts: Timestamp::ZERO,
            since_expiry: 0,
            token: 0,
            worker_store_totals: vec![(0, 0); workers],
            worker_busy: vec![StdDuration::ZERO; workers],
            active_since: None,
            wall_busy: StdDuration::ZERO,
            trace: TraceRing::new(config.trace_capacity, 0),
            trace_buf: Vec::new(),
            worker_latency: vec![LatencyHistogram::new(); workers],
            worker_arena: vec![ArenaStats::default(); workers],
            worker_stores: vec![Vec::new(); workers],
            installs: 0,
        };
        ParallelEngine {
            shared,
            senders,
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

    /// Registers a sink invoked (at barriers) for every emitted result.
    /// Must be called before streaming for complete coverage.
    pub fn set_sink(&mut self, sink: ResultSink) {
        self.core().set_sink(sink);
    }

    /// Opens a concurrent ingestion source: the returned [`SourceHandle`]
    /// can be moved to a producer thread and pushed independently of this
    /// engine handle (and of every other source). Opening a second
    /// producer switches the workers to the widened multi-producer
    /// symmetric set (see [`crate::ingest`]); with a single source the
    /// delivery order stays serial and the narrow set suffices.
    pub fn open_source(&mut self) -> SourceHandle {
        self.core().open_source()
    }

    /// Subscribes to the result stream: every join result emitted from
    /// now on is delivered on the returned channel *as it is produced* on
    /// the workers — between barriers, not only at epoch ends. The
    /// channel disconnects when the engine shuts down. A later call
    /// replaces the subscription (the previous receiver disconnects).
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

    /// Number of ingestion sources opened over the engine's lifetime
    /// (dropped handles included).
    pub fn sources_open(&self) -> usize {
        self.core().sources_opened
    }

    /// Roots currently in flight: allocated sequence numbers not yet
    /// covered by the completion watermark (what the
    /// `max_inflight_roots` backpressure gate bounds).
    pub fn inflight(&self) -> u64 {
        self.shared
            .sequenced()
            .saturating_sub(self.shared.progress.watermark())
    }

    /// Roots sequenced so far: the realized length of the engine's serial
    /// order (every `ingest` and every `SourceHandle::push` allocated one
    /// position).
    pub fn sequenced(&self) -> u64 {
        self.shared.sequenced()
    }

    /// Ingests one input tuple, routing it to the owning shards. Join
    /// results materialize asynchronously on the workers; they are counted
    /// and collected at the next barrier ([`Self::flush`] /
    /// [`Self::snapshot`]), so this always returns 0 pending results.
    pub fn ingest(&mut self, relation: clash_common::RelationId, tuple: Tuple) -> Result<u64> {
        self.core().ingest(relation, tuple)
    }

    /// Drains all in-flight work and merges every worker's deltas: the
    /// epoch barrier. After `flush` the coordinator's metrics, statistics
    /// and collected results reflect everything ingested so far. Panics
    /// with a diagnostic if a worker thread died.
    pub fn flush(&mut self) {
        self.core().flush();
    }

    /// Expires out-of-window tuples from every shard (drains first so the
    /// count is deterministic).
    pub fn expire_stores(&mut self) -> usize {
        self.core().expire_stores()
    }

    /// Installs (or replaces) the plan via the quiesce protocol (see
    /// [`crate::ingest`]): producer admission is paused, residual
    /// old-plan batches are flushed, the workers drain to the completion
    /// barrier, the new plan is installed on every worker and every
    /// source slot, and producers resume against it. Racing pushes block
    /// briefly at the quiesce gate instead of being dropped. Shard state
    /// with matching descriptor keys is carried over, mirroring the
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
        self.core().plan.clone()
    }

    /// Statistics snapshot for one epoch from the merged per-worker
    /// observations (what the adaptive controller consumes at barriers).
    pub fn stats_snapshot(&self, epoch: Epoch, prior: &Statistics) -> Statistics {
        self.core().stats.snapshot(epoch, prior)
    }

    /// Results collected up to the last barrier (requires
    /// `collect_results`). Order across workers is nondeterministic; sort
    /// before comparing.
    pub fn results(&self) -> Vec<(QueryId, Tuple)> {
        self.core().results.clone()
    }

    /// Clears collected results (between experiment phases).
    pub fn clear_results(&mut self) {
        self.core().results.clear();
    }

    /// Total tuples held across all shards (as of the last barrier).
    pub fn store_tuples(&self) -> usize {
        self.core().store_tuples()
    }

    /// Total bytes held across all shards (as of the last barrier).
    pub fn store_bytes(&self) -> usize {
        self.core().store_bytes()
    }

    /// Per-worker processing time accumulated so far (as of the last
    /// barrier). Shows how evenly the shards split the work — on a
    /// multi-core machine the wall-clock win tracks this distribution.
    pub fn worker_busy(&self) -> Vec<StdDuration> {
        self.core().worker_busy.clone()
    }

    /// Runs a full barrier and returns the aggregated metrics snapshot.
    /// `busy_secs` (and thus `throughput_tps`) is wall-clock time between
    /// the first ingest and the end of the drain — the end-to-end rate an
    /// external observer sees, which is the fair comparison against the
    /// sequential engine's processing time.
    pub fn snapshot(&mut self) -> MetricsSnapshot {
        self.core().snapshot()
    }

    /// Resets metrics and collected results without touching shard state.
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
        if let Some(mut old) = self.driver.take() {
            old.stop();
            self.driver_error = self.driver_error.take().or_else(|| old.error());
        }
        self.driver = Some(EpochDriver::spawn(
            self.core.clone(),
            self.shared.clone(),
            controller,
            self.config.epoch,
        ));
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

    /// Drains all in-flight work (delivering outstanding results to the
    /// sink and the collected-results buffer), then stops and joins the
    /// epoch driver and every worker thread. Called
    /// automatically on drop, so results produced after the last explicit
    /// barrier are not lost; calling it explicitly makes the final
    /// collection observable before the engine goes away. Idempotent; the
    /// engine is inert afterwards (barriers no-op, `ingest` and source
    /// pushes return [`ClashError::Shutdown`]).
    pub fn shutdown(&mut self) {
        // The driver may be mid-tick holding the core lock: stop it
        // before taking the lock ourselves (keeping any recorded error
        // for post-mortem inspection).
        if let Some(mut driver) = self.driver.take() {
            driver.stop();
            self.driver_error = self.driver_error.take().or_else(|| driver.error());
        }
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
            for s in &self.senders {
                let _ = s.send(WorkerMsg::Shutdown);
            }
            for handle in self.core().handles.drain(..) {
                let _ = handle.join();
            }
            return;
        }
        // Drain in-flight batches first so results produced after the
        // last explicit barrier still reach the sink / results buffer.
        self.shutdown();
    }
}

impl EngineCore {
    /// Whether the engine has been shut down (workers joined).
    pub(crate) fn is_shutdown(&self) -> bool {
        self.handles.is_empty()
    }

    fn set_sink(&mut self, sink: ResultSink) {
        self.sink = Some(sink);
        self.forward_results = true;
        self.coord.flush();
        for s in &self.senders {
            let _ = s.send(WorkerMsg::ForwardResults(true));
        }
    }

    fn open_source(&mut self) -> SourceHandle {
        // Everything the coordinator ingested so far must be enqueued
        // before the new source's first push can be.
        self.coord.flush();
        if self.sources_opened >= 1 {
            self.widen_symmetric();
        }
        self.sources_opened += 1;
        SourceHandle::open(
            self.shared.clone(),
            self.senders.clone(),
            self.catalog.clone(),
            self.plan.clone(),
            &self.config,
        )
    }

    fn subscribe(&mut self) -> Receiver<(QueryId, Tuple)> {
        let (tx, rx) = channel();
        self.coord.flush();
        for s in &self.senders {
            // Dropping the sender on the first failed send stops the
            // per-result clone once the subscriber hung up.
            let mut tx = Some(tx.clone());
            let _ = s.send(WorkerMsg::Subscribe(Box::new(move |query, tuple| {
                if let Some(live) = &tx {
                    if live.send((query, tuple.clone())).is_err() {
                        tx = None;
                    }
                }
            })));
        }
        rx
    }

    /// Installs the widened multi-producer symmetric set on every worker.
    /// Safe mid-stream: the exactly-once pending-prober argument holds
    /// for any symmetric set, and the message is enqueued before any
    /// delivery of the producer that triggered the widening.
    fn widen_symmetric(&mut self) {
        if self.multi_symmetric {
            return;
        }
        self.multi_symmetric = true;
        self.symmetric = Arc::new(symmetric_stores_multi(&self.plan));
        self.coord.flush();
        for s in &self.senders {
            let _ = s.send(WorkerMsg::SetSymmetric(self.symmetric.clone()));
        }
    }

    /// One push through the coordinator's own source, plus what only the
    /// coordinator does around it: the symmetric-set widening, its trace
    /// lane and the `expire_every` cadence.
    fn ingest(&mut self, relation: clash_common::RelationId, tuple: Tuple) -> Result<u64> {
        if self.sources_opened > 0 && !self.multi_symmetric {
            // The coordinator becomes a second concurrent producer beside
            // the open source: widen the symmetric set before this
            // delivery can race a source's.
            self.widen_symmetric();
        }
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
            // The drain-then-collect barrier, not a message racing the
            // batches: an expiry sent ahead of in-flight worker-to-worker
            // forwards would remove state their probes still have to see.
            self.expire_stores();
            self.since_expiry = 0;
        }
        Ok(0)
    }

    /// Drains every source slot's metrics/statistics deltas into the
    /// coordinator aggregates and prunes slots whose handle was dropped
    /// and whose buffer is empty.
    fn drain_source_deltas(&mut self) {
        let slots = self.shared.slots();
        let mut any_closed = false;
        for slot in &slots {
            let mut inner = slot.inner.lock().expect("source slot");
            inner.flush(&self.senders, FlushTrigger::Barrier);
            self.metrics.merge(&std::mem::take(&mut inner.metrics));
            self.stats.merge(inner.stats.take_delta());
            self.max_ts = self.max_ts.max(inner.max_ts);
            any_closed |= inner.closed;
        }
        if any_closed {
            self.shared
                .sources
                .lock()
                .expect("source registry")
                .retain(|slot| {
                    let inner = slot.inner.lock().expect("source slot");
                    !(inner.closed && inner.buf.is_empty())
                });
        }
    }

    /// The drain behind every barrier and the shutdown path: waits for
    /// the completion watermark to cover every root sequenced before the
    /// call, after shipping every slot's buffered deliveries (the target
    /// is read first, so the sweep leaves none of those roots behind —
    /// see [`ControlShared::flush_slots`]). One sleep on that target, one
    /// wake. Returns `false` (instead of panicking) when a worker died or
    /// `deadline` elapsed.
    fn try_drain(&mut self, deadline: Option<StdDuration>) -> bool {
        let last = self.shared.sequenced();
        self.shared.flush_slots(&self.senders);
        let started = Instant::now();
        loop {
            let patience = deadline.map_or(LIVENESS_TICK, |d| {
                d.saturating_sub(started.elapsed()).min(LIVENESS_TICK)
            });
            if self.shared.progress.wait_until(last, patience) {
                return true;
            }
            if deadline.is_some_and(|d| started.elapsed() >= d)
                || self.shared.dead_worker().is_some()
            {
                return false;
            }
        }
    }

    /// Runs a collection round: every worker replies with its deltas,
    /// which are merged into the coordinator aggregates. Must only be
    /// called after a successful drain. Returns the number of tuples
    /// removed when `expire_upto` is set.
    fn collect(&mut self, expire_upto: Option<Timestamp>) -> Result<usize> {
        self.collect_inner(expire_upto, false)
    }

    fn collect_inner(&mut self, expire_upto: Option<Timestamp>, lenient: bool) -> Result<usize> {
        self.drain_source_deltas();
        self.token += 1;
        let token = self.token;
        let trace_started = if self.trace.enabled() {
            trace_clock_us()
        } else {
            0
        };
        for s in &self.senders {
            if s.send(WorkerMsg::Collect { token, expire_upto }).is_err() && !lenient {
                return Err(ClashError::Runtime(
                    "collection barrier failed: a worker thread is gone".into(),
                ));
            }
        }
        let expired = self.await_acks(token, lenient)?;
        self.trace.record_span(
            TraceEventKind::Barrier,
            trace_started,
            token,
            expired as u64,
        );
        Ok(expired)
    }

    /// Receives one ack per worker for `token`, merging all deltas. In
    /// lenient mode (shutdown path) a dead worker aborts the round
    /// without error.
    fn await_acks(&mut self, token: u64, lenient: bool) -> Result<usize> {
        let mut acked = vec![false; self.workers];
        let mut expired = 0;
        let timeout = if lenient {
            StdDuration::from_secs(5)
        } else {
            StdDuration::from_secs(30)
        };
        while acked.iter().any(|a| !a) {
            match self.ack_rx.recv_timeout(timeout) {
                Ok(ack) => {
                    assert_eq!(ack.token, token, "barrier tokens are strictly ordered");
                    acked[ack.worker] = true;
                    expired += ack.expired;
                    self.worker_busy[ack.worker] += ack.metrics.busy;
                    // Per-shard latency view: fold this worker's delta in
                    // before the per-query merge consumes the histograms.
                    self.worker_latency[ack.worker].merge(&ack.metrics.combined_latency());
                    self.metrics.merge(&ack.metrics);
                    self.stats.merge(ack.stats);
                    self.worker_store_totals[ack.worker] = (ack.store_tuples, ack.store_bytes);
                    self.worker_arena[ack.worker] = ack.arena;
                    self.worker_stores[ack.worker] = ack.per_store;
                    self.absorb_trace(ack.trace);
                    for (query, tuple) in ack.results {
                        if let Some(sink) = &mut self.sink {
                            sink(query, &tuple);
                        }
                        if self.config.collect_results {
                            self.results.push((query, tuple));
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if lenient {
                        break;
                    }
                    return Err(ClashError::Runtime(
                        "parallel engine barrier timed out: a worker thread died".into(),
                    ));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    if lenient {
                        break;
                    }
                    return Err(ClashError::Runtime(
                        "parallel engine barrier failed: all workers gone".into(),
                    ));
                }
            }
        }
        Ok(expired)
    }

    /// The fallible epoch barrier: drain + collect. `Ok(())` when the
    /// engine has already shut down (barriers are no-ops then).
    pub(crate) fn try_flush(&mut self) -> Result<()> {
        if self.handles.is_empty() {
            return Ok(());
        }
        if !self.try_drain(None) {
            return Err(ClashError::Runtime(format!(
                "parallel engine drain barrier failed: a worker thread died \
                 (watermark {})",
                self.shared.progress.watermark()
            )));
        }
        self.collect(None)?;
        if let Some(started) = self.active_since.take() {
            self.wall_busy += started.elapsed();
        }
        Ok(())
    }

    /// The panicking epoch barrier of the owning thread's API (the
    /// driver uses [`Self::try_flush`] and stops on error instead).
    pub(crate) fn flush(&mut self) {
        if let Err(e) = self.try_flush() {
            panic!("{e}");
        }
    }

    fn expire_stores(&mut self) -> usize {
        if self.handles.is_empty() {
            return 0; // already shut down
        }
        if !self.try_drain(None) {
            panic!(
                "parallel engine drain barrier failed: a worker thread died \
                 (watermark {})",
                self.shared.progress.watermark()
            );
        }
        // Fold the source slots' stream clocks in before computing the
        // horizon: on source-fed streams `self.max_ts` only advances when
        // deltas are drained, and the expiry horizon must cover
        // everything pushed so far.
        self.drain_source_deltas();
        let expired = self.collect(Some(self.max_ts)).expect("expiry barrier");
        if let Some(started) = self.active_since.take() {
            self.wall_busy += started.elapsed();
        }
        expired
    }

    /// The quiesced plan install (see `ParallelEngine::install_plan`).
    pub(crate) fn install_plan(&mut self, plan: TopologyPlan) -> Result<u64> {
        if self.handles.is_empty() {
            return Err(ClashError::Shutdown);
        }
        // Phase 0 — static verification: an invalid plan is rejected
        // before anything is quiesced, so the running plan and every
        // in-flight tuple are untouched by the failed install.
        if let Err(e) = clash_analyzer::gate(&self.catalog, &plan) {
            self.metrics.plan_rejections += 1;
            return Err(e);
        }
        // Phase 1 — quiesce: pause admission on every producer and wait
        // for in-flight pushes to finish routing. The guard resumes
        // admission when dropped, so every exit path (including errors)
        // releases blocked producers. (Local Arc clone: the guard must
        // not borrow `self` across the mutating phases below.)
        self.trace.record(TraceEventKind::QuiesceBegin, 0, 0);
        let shared = self.shared.clone();
        let quiesced = shared.gate.quiesce();
        // Phase 2 — flush residual old-plan batches and drain the workers
        // to the completion barrier: every sequenced root is now fully
        // processed under the old plan, and its results are collected.
        if !self.try_drain(None) {
            return Err(ClashError::Runtime(format!(
                "plan install aborted: a worker thread died during the quiesce \
                 drain (watermark {})",
                self.shared.progress.watermark()
            )));
        }
        self.collect(None)?;
        if let Some(started) = self.active_since.take() {
            self.wall_busy += started.elapsed();
        }
        let install_seq = self.shared.sequenced();
        self.trace
            .record(TraceEventKind::QuiesceEnd, install_seq, 0);
        // Phase 3 — install: swap the plan on the coordinator, on every
        // source slot (their buffers are empty after the drain) and on
        // every worker, then wait for the install acks.
        let plan = Arc::new(plan);
        let layout = Arc::new(StoreLayout::derive(&self.catalog, &plan));
        self.symmetric = Arc::new(if self.multi_symmetric {
            symmetric_stores_multi(&plan)
        } else {
            symmetric_stores(&plan)
        });
        self.plan = plan.clone();
        for slot in self.shared.slots() {
            let mut inner = slot.inner.lock().expect("source slot");
            debug_assert!(
                inner.buf.is_empty(),
                "source slot still buffered after quiesce drain"
            );
            inner.flush(&self.senders, FlushTrigger::Barrier);
            inner.plan = plan.clone();
        }
        self.token += 1;
        let token = self.token;
        for s in &self.senders {
            if s.send(WorkerMsg::Install {
                token,
                plan: plan.clone(),
                layout: layout.clone(),
                symmetric: self.symmetric.clone(),
            })
            .is_err()
            {
                return Err(ClashError::Runtime(
                    "plan install failed: a worker thread is gone (shut the \
                     engine down)"
                        .into(),
                ));
            }
        }
        self.await_acks(token, false).map_err(|e| {
            ClashError::Runtime(format!(
                "plan install failed mid-reconfiguration ({e}); the engine \
                 should be shut down"
            ))
        })?;
        self.installs += 1;
        self.trace.record(
            TraceEventKind::PlanInstall,
            install_seq,
            self.plan.stores.len() as u64,
        );
        // Phase 4 — resume: blocked pushes proceed against the new plan.
        drop(quiesced);
        Ok(install_seq)
    }

    fn store_tuples(&self) -> usize {
        self.worker_store_totals.iter().map(|(t, _)| t).sum()
    }

    fn store_bytes(&self) -> usize {
        self.worker_store_totals.iter().map(|(_, b)| b).sum()
    }

    fn snapshot(&mut self) -> MetricsSnapshot {
        self.flush();
        let busy = self.wall_busy.as_secs_f64();
        MetricsSnapshot {
            tuples_ingested: self.metrics.tuples_ingested,
            tuples_sent: self.metrics.tuples_sent,
            broadcasts: self.metrics.broadcasts,
            probes: self.metrics.probes,
            results: self
                .metrics
                .results
                .iter()
                .map(|(q, n)| (q.0, *n))
                .collect(),
            latency: self.metrics.latency(),
            latency_per_query: self.metrics.latency_per_query_stats(),
            store_bytes: self.store_bytes(),
            store_tuples: self.store_tuples(),
            num_stores: self.plan.num_stores(),
            busy_secs: busy,
            throughput_tps: if busy > 0.0 {
                self.metrics.tuples_ingested as f64 / busy
            } else {
                0.0
            },
        }
    }

    fn reset_metrics(&mut self) {
        self.flush();
        self.metrics = EngineMetrics::default();
        self.results.clear();
        self.wall_busy = StdDuration::ZERO;
        self.worker_busy = vec![StdDuration::ZERO; self.workers];
        self.worker_latency = vec![LatencyHistogram::new(); self.workers];
    }

    /// Absorbs one worker's trace delta, dropping the oldest buffered
    /// events once the buffer exceeds one ring's worth per thread lane.
    fn absorb_trace(&mut self, events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        self.trace_buf.extend(events);
        let cap = self.config.trace_capacity * (self.workers + 1);
        if self.trace_buf.len() > cap {
            let excess = self.trace_buf.len() - cap;
            self.trace_buf.drain(..excess);
        }
    }

    /// Records the epoch-driver's boundary observation on the
    /// coordinator's trace lane.
    pub(crate) fn record_epoch_tick(&mut self, epoch: Epoch) {
        self.trace.record(TraceEventKind::EpochTick, epoch.0, 0);
    }

    /// Records an adaptive-controller evaluation (cost-model output and
    /// whether a reconfiguration was installed) on the coordinator's lane.
    pub(crate) fn record_controller_decision(&mut self, decision: &ControllerDecision) {
        self.trace.record(
            TraceEventKind::ControllerDecision,
            (decision.shared_cost * 1000.0) as u64,
            u64::from(decision.installed),
        );
    }

    /// Runs a barrier (pulling every worker's ring) and drains all trace
    /// events accumulated so far, merged across lanes and sorted by
    /// timestamp. Returns an empty vector when tracing is disabled.
    pub(crate) fn drain_trace(&mut self) -> Vec<TraceEvent> {
        if self.config.trace_capacity > 0 && !self.handles.is_empty() {
            self.flush();
        }
        let mut events = std::mem::take(&mut self.trace_buf);
        events.extend(self.trace.drain());
        events.sort_by_key(|e| e.ts_us);
        events
    }

    /// [`Self::drain_trace`] rendered as Chrome trace-event JSON.
    pub(crate) fn trace_json(&mut self) -> String {
        let events = self.drain_trace();
        chrome_trace_json(&events)
    }

    /// Runs a barrier and renders the telemetry page: the shared engine /
    /// store / arena sections plus the parallel runtime's own gauges
    /// (per-shard latency quantiles, per-worker busy time and queue
    /// depth, in-flight roots, plan installs).
    pub(crate) fn telemetry_snapshot(&mut self) -> String {
        if !self.handles.is_empty() {
            self.flush();
        }
        let mut page = Exposition::new();
        crate::exposition::engine_sections(&mut page, &self.metrics);

        page.declare(
            "clash_shard_latency_us",
            "Ingest-to-emit latency per worker shard (µs).",
            "summary",
        );
        for (worker, hist) in self.worker_latency.iter().enumerate() {
            page.quantiles(
                "clash_shard_latency_us",
                &[("worker", &worker.to_string())],
                hist,
            );
        }
        page.declare(
            "clash_worker_busy_seconds",
            "Processing time accumulated per worker thread.",
            "gauge",
        );
        page.declare(
            "clash_worker_queue_depth",
            "Deliveries enqueued to a worker and not yet processed.",
            "gauge",
        );
        for worker in 0..self.workers {
            let label = worker.to_string();
            page.sample(
                "clash_worker_busy_seconds",
                &[("worker", &label)],
                self.worker_busy[worker].as_secs_f64(),
            );
            page.sample(
                "clash_worker_queue_depth",
                &[("worker", &label)],
                self.shared.depth.depth(worker) as f64,
            );
        }
        page.declare(
            "clash_inflight_roots",
            "Sequenced roots not yet covered by the completion watermark.",
            "gauge",
        );
        let inflight = self
            .shared
            .sequenced()
            .saturating_sub(self.shared.progress.watermark());
        page.sample("clash_inflight_roots", &[], inflight as f64);
        page.declare(
            "clash_plan_installs_total",
            "Plan installs performed (quiesced reconfigurations).",
            "counter",
        );
        page.sample("clash_plan_installs_total", &[], self.installs as f64);

        // Per-store gauges, summed across the workers' shards.
        let mut by_store: Vec<StoreDetail> = Vec::new();
        for detail in self.worker_stores.iter().flatten() {
            match by_store.iter_mut().find(|d| d.store == detail.store) {
                Some(d) => {
                    d.tuples += detail.tuples;
                    d.bytes += detail.bytes;
                    d.posting_lists += detail.posting_lists;
                    d.spilled_postings += detail.spilled_postings;
                    d.segments += detail.segments;
                    d.segment_bytes += detail.segment_bytes;
                    d.compactions += detail.compactions;
                }
                None => by_store.push(*detail),
            }
        }
        by_store.sort_unstable_by_key(|d| d.store.0);
        crate::exposition::store_sections(&mut page, &by_store);

        crate::exposition::arena_sections(
            &mut page,
            self.worker_arena
                .iter()
                .enumerate()
                .map(|(w, stats)| (format!("worker-{w}"), stats)),
        );
        page.finish()
    }

    fn shutdown(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        // Quiesce, then refuse new pushes: a producer racing the shutdown
        // either completes its push (covered by the drain below) or gets
        // `ClashError::Shutdown` — never a silent drop.
        {
            let shared = self.shared.clone();
            let quiesced = shared.gate.quiesce();
            self.shared
                .shutdown
                .store(true, std::sync::atomic::Ordering::Release);
            drop(quiesced);
        }
        if self.shared.dead_worker().is_none() && self.try_drain(Some(StdDuration::from_secs(10))) {
            let _ = self.collect_inner(None, true);
            if let Some(started) = self.active_since.take() {
                self.wall_busy += started.elapsed();
            }
        }
        for s in &self.senders {
            let _ = s.send(WorkerMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl EngineControl for EngineCore {
    fn install_plan(&mut self, plan: TopologyPlan) -> Result<()> {
        EngineCore::install_plan(self, plan).map(|_| ())
    }

    fn plan(&self) -> &TopologyPlan {
        &self.plan
    }

    fn stats_collector(&self) -> &StatsCollector {
        &self.stats
    }

    fn stats_collector_mut(&mut self) -> &mut StatsCollector {
        &mut self.stats
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
    use clash_common::{TupleBuilder, Window};
    use clash_optimizer::{Planner, Strategy};
    use clash_query::parse_query;

    /// The running example of the engine tests: R(a), S(a,b), T(b) and a
    /// second query sharing S and T.
    fn setup(parallelism: usize) -> (Catalog, Vec<clash_query::JoinQuery>, Statistics) {
        let mut catalog = Catalog::new();
        catalog.register("R", ["a"], Window::secs(3600), 1).unwrap();
        catalog
            .register("S", ["a", "b"], Window::secs(3600), parallelism)
            .unwrap();
        catalog
            .register("T", ["b", "c"], Window::secs(3600), parallelism)
            .unwrap();
        catalog.register("U", ["c"], Window::secs(3600), 1).unwrap();
        let mut stats = Statistics::new();
        for m in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            stats.set_rate(m, 100.0);
        }
        let q1 = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(b), T(b,c), U(c)").unwrap();
        (catalog, vec![q1, q2], stats)
    }

    fn tuple(catalog: &Catalog, relation: &str, ts: u64, values: &[(&str, i64)]) -> Tuple {
        let meta = catalog.relation_by_name(relation).unwrap();
        let mut b = TupleBuilder::new(&meta.schema, Timestamp::from_millis(ts));
        for (attr, v) in values {
            b = b.set(attr, *v);
        }
        b.build()
    }

    fn workload(catalog: &Catalog) -> Vec<(clash_common::RelationId, Tuple)> {
        let mut ts = 0u64;
        let mut next_ts = || {
            ts += 10;
            ts
        };
        let mut stream = Vec::new();
        for a in 1..=3i64 {
            stream.push((
                catalog.relation_id("R").unwrap(),
                tuple(catalog, "R", next_ts(), &[("a", a)]),
            ));
        }
        for (a, b) in [(1, 10), (1, 20), (2, 10), (9, 30)] {
            stream.push((
                catalog.relation_id("S").unwrap(),
                tuple(catalog, "S", next_ts(), &[("a", a), ("b", b)]),
            ));
        }
        for (b, c) in [(10, 100), (20, 100), (30, 200)] {
            stream.push((
                catalog.relation_id("T").unwrap(),
                tuple(catalog, "T", next_ts(), &[("b", b), ("c", c)]),
            ));
        }
        for c in [100i64, 300] {
            stream.push((
                catalog.relation_id("U").unwrap(),
                tuple(catalog, "U", next_ts(), &[("c", c)]),
            ));
        }
        stream
    }

    fn engines_agree(strategy: Strategy, parallelism: usize, workers: usize) {
        let (catalog, queries, stats) = setup(parallelism);
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, strategy).unwrap();
        let config = EngineConfig {
            collect_results: true,
            ..EngineConfig::default()
        };
        let mut local = LocalEngine::new(catalog.clone(), report.plan.clone(), config);
        let mut parallel = ParallelEngine::new(catalog.clone(), report.plan, config, workers);
        for (relation, t) in workload(&catalog) {
            local.ingest(relation, t.clone()).unwrap();
            parallel.ingest(relation, t).unwrap();
        }
        let ls = local.snapshot();
        let ps = parallel.snapshot();
        assert_eq!(
            ls.results_for(QueryId::new(0)),
            ps.results_for(QueryId::new(0)),
            "{strategy:?} q1 with {workers} workers"
        );
        assert_eq!(
            ls.results_for(QueryId::new(1)),
            ps.results_for(QueryId::new(1)),
            "{strategy:?} q2 with {workers} workers"
        );
        assert_eq!(ls.tuples_sent, ps.tuples_sent, "{strategy:?} probe cost");
        assert_eq!(ls.broadcasts, ps.broadcasts, "{strategy:?} broadcasts");
        assert_eq!(ls.probes, ps.probes, "{strategy:?} probe count");
        assert_eq!(ls.store_tuples, ps.store_tuples, "{strategy:?} store state");
        // The emitted result multisets are identical (order differs).
        let mut lr: Vec<String> = local
            .results()
            .iter()
            .map(|(q, t)| format!("{q}{t}"))
            .collect();
        let mut pr: Vec<String> = parallel
            .results()
            .iter()
            .map(|(q, t)| format!("{q}{t}"))
            .collect();
        lr.sort();
        pr.sort();
        assert_eq!(lr, pr, "{strategy:?} result multisets");
    }

    #[test]
    fn matches_local_engine_across_strategies_and_worker_counts() {
        for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
            for (parallelism, workers) in [(1, 1), (2, 2), (4, 4), (4, 2), (4, 8)] {
                engines_agree(strategy, parallelism, workers);
            }
        }
    }

    #[test]
    fn gathered_statistics_match_local_engine() {
        // The adaptive controller consumes StatsCollector snapshots; the
        // merged per-worker deltas must yield the same arrival rates and
        // (for broadcast-probed stores, exactly; for hashed probes, up to
        // shard-balance extrapolation) the same selectivities.
        let (catalog, queries, stats) = setup(4);
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
        let config = EngineConfig::default();
        let mut local = LocalEngine::new(catalog.clone(), report.plan.clone(), config);
        let mut parallel = ParallelEngine::new(catalog.clone(), report.plan, config, 4);
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

    #[test]
    fn micro_batch_sizes_do_not_change_results() {
        // Send-per-ingest (1), mid-stream flushes (4) and barrier-only
        // flushing (huge) must all produce the local engine's results.
        let (catalog, queries, stats) = setup(4);
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
        let base_config = EngineConfig {
            collect_results: true,
            ..EngineConfig::default()
        };
        let mut local = LocalEngine::new(catalog.clone(), report.plan.clone(), base_config);
        for (relation, t) in workload(&catalog) {
            local.ingest(relation, t).unwrap();
        }
        let mut lr: Vec<String> = local
            .results()
            .iter()
            .map(|(q, t)| format!("{q}{t}"))
            .collect();
        lr.sort();
        for micro_batch in [1usize, 4, 1 << 20] {
            let config = EngineConfig {
                micro_batch,
                ..base_config
            };
            let mut engine = ParallelEngine::new(catalog.clone(), report.plan.clone(), config, 4);
            for (relation, t) in workload(&catalog) {
                engine.ingest(relation, t).unwrap();
            }
            engine.flush();
            let mut pr: Vec<String> = engine
                .results()
                .iter()
                .map(|(q, t)| format!("{q}{t}"))
                .collect();
            pr.sort();
            assert_eq!(lr, pr, "micro_batch={micro_batch} result multisets");
        }
    }

    #[test]
    fn ingest_past_a_dead_worker_is_a_typed_error() {
        let (catalog, queries, stats) = setup(2);
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
        let config = EngineConfig {
            max_inflight_roots: 2,
            ..EngineConfig::default()
        };
        let mut engine = ParallelEngine::new(catalog.clone(), report.plan, config, 2);
        // Stop worker 0 behind the engine's back and wait for its thread
        // to exit: its share of every later root is never processed.
        engine.senders[0].send(WorkerMsg::Shutdown).unwrap();
        while !engine.core().handles[0].is_finished() {
            std::thread::yield_now();
        }
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
        let (catalog, queries, stats) = setup(2);
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
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
        let mut local = LocalEngine::new(
            catalog.clone(),
            report.plan.clone(),
            EngineConfig::default(),
        );
        for (relation, t) in head.iter().chain(&tail) {
            local.ingest(*relation, t.clone()).unwrap();
        }
        let expected = local.snapshot().total_results();
        assert_eq!(expected, 24);

        let config = EngineConfig {
            micro_batch: 1 << 20,
            ..EngineConfig::default()
        };
        let mut engine = ParallelEngine::new(catalog.clone(), report.plan, config, 2);
        // A subscription whose sink holds its worker inside the batch that
        // emits the worker's first result until the test lets go: the
        // worker is busy in earnest, its queue depth stays above zero.
        let (results_tx, results) = channel();
        let (blocked_tx, blocked) = channel();
        let release: Vec<Sender<()>> = engine
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
        let (catalog, queries, stats) = setup(4);
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
        assert_eq!(auto_workers(&report.plan), 4);
        let engine = ParallelEngine::new(catalog, report.plan, EngineConfig::default(), 0);
        assert_eq!(engine.workers(), 4);
    }

    #[test]
    fn sink_receives_all_results_at_barriers() {
        let (catalog, queries, stats) = setup(2);
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
        let mut engine =
            ParallelEngine::new(catalog.clone(), report.plan, EngineConfig::default(), 2);
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c2 = counter.clone();
        engine.set_sink(Box::new(move |_, _| {
            c2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }));
        for (relation, t) in workload(&catalog) {
            engine.ingest(relation, t).unwrap();
        }
        let snap = engine.snapshot();
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            snap.total_results()
        );
    }

    #[test]
    fn install_plan_preserves_matching_store_state() {
        let (catalog, queries, stats) = setup(2);
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
        let mut engine = ParallelEngine::new(
            catalog.clone(),
            report.plan.clone(),
            EngineConfig::default(),
            2,
        );
        for (relation, t) in workload(&catalog) {
            engine.ingest(relation, t).unwrap();
        }
        engine.flush();
        let before = engine.store_tuples();
        assert!(before > 0);
        let pos = engine.install_plan(report.plan).unwrap();
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
        let (catalog, queries, stats) = setup(2);
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
        let mut engine = ParallelEngine::new(
            catalog.clone(),
            report.plan.clone(),
            EngineConfig::default(),
            2,
        );
        engine.shutdown();
        assert_eq!(
            engine.install_plan(report.plan).unwrap_err(),
            ClashError::Shutdown
        );
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
        let (catalog, queries, stats) = setup(1);
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::Shared).unwrap();
        let mut engine =
            ParallelEngine::new(catalog.clone(), report.plan, EngineConfig::default(), 2);
        let t = tuple(&catalog, "R", 10, &[("a", 1)]);
        assert!(engine.ingest(clash_common::RelationId::new(42), t).is_err());
    }
}
