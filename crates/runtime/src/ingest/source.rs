//! The producer-side ingestion API: [`SourceHandle`] and the per-source
//! slot state the producer, the engine and the workers cooperate on.

use crate::engine::EngineConfig;
use crate::ingest::shared::ControlShared;
use crate::metrics::EngineMetrics;
use crate::parallel::router::{route_root, BatchBuffer, FlushTrigger, RootHandle};
use crate::parallel::worker::WorkerMsg;
use crate::plan::InstalledPlan;
use crate::stats_collector::StatsCollector;
use clash_catalog::Catalog;
use clash_common::{ClashError, EpochConfig, RelationId, Result, Timestamp, Tuple};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

/// What a flush shipped: the trigger, the number of deliveries and the
/// age of the oldest one.
pub(crate) type Flushed = (FlushTrigger, usize, StdDuration);

/// Per-source state shared between the producer thread (pushes), the
/// engine (barrier flush + delta collection, plan swaps) and the workers
/// (a worker that ran dry ships what the slot holds for it). Every source
/// has its own slot and lock, so producers never contend with each other
/// — only with a barrier's or an idle worker's sweep of their own slot.
#[derive(Debug)]
pub(crate) struct SourceInner {
    /// The plan this source routes against (swapped under the quiesce
    /// gate on `install_plan`).
    pub installed: Arc<InstalledPlan>,
    /// Locally micro-batched deliveries awaiting shipment.
    pub buf: BatchBuffer,
    /// Metrics delta since the engine last drained this slot.
    pub metrics: EngineMetrics,
    /// Statistics delta since the engine last drained this slot.
    pub stats: StatsCollector,
    /// Maximum stream timestamp pushed through this source.
    pub max_ts: Timestamp,
    /// Set when the producer dropped its handle; the engine prunes
    /// closed, drained slots at the next barrier.
    pub closed: bool,
}

impl SourceInner {
    /// Ships everything buffered, recording why and how long the oldest
    /// delivery waited into this slot's metrics delta, so the engine's
    /// `flushes` counters and `flush_age` histogram see every producer
    /// path. Returns the deliveries shipped and that age.
    pub fn flush(
        &mut self,
        senders: &[Sender<WorkerMsg>],
        trigger: FlushTrigger,
    ) -> Option<(usize, StdDuration)> {
        let flushed = self.buf.flush(senders)?;
        self.metrics.flushes[trigger as usize] += 1;
        self.metrics.flush_age.record(flushed.1);
        Some(flushed)
    }

    /// The end of every routed root: ships the buffer if
    /// [`BatchBuffer::due`] names a trigger.
    fn flush_if_due(&mut self, senders: &[Sender<WorkerMsg>]) -> Option<Flushed> {
        let trigger = self.buf.due()?;
        self.flush(senders, trigger)
            .map(|(shipped, age)| (trigger, shipped, age))
    }
}

/// One registered source: its slot state behind its own mutex.
#[derive(Debug)]
pub(crate) struct SourceSlot {
    /// The slot state; producers hold this lock only for the duration of
    /// one push or one flush.
    pub inner: Mutex<SourceInner>,
}

impl SourceSlot {
    /// Ships everything currently buffered in this slot (a forced flush).
    pub fn flush_to(&self, senders: &[Sender<WorkerMsg>]) {
        self.inner
            .lock()
            .expect("source slot")
            .flush(senders, FlushTrigger::Barrier);
    }
}

/// A concurrent ingestion endpoint of a
/// [`crate::parallel::ParallelEngine`], obtained from
/// `ParallelEngine::open_source` and movable to a producer thread.
///
/// Each handle is an independent ingress router: pushes hash-partition
/// the tuple, micro-batch locally and deliver straight to the worker
/// shards. The engine's own `ingest` pushes through a handle of its own,
/// so there is one producer path. Any number of handles may push
/// concurrently; the result multiset stays exactly that of sequential
/// execution (see [`crate::ingest`]).
///
/// Pushes racing a plan install block briefly on the engine's quiesce
/// gate and then route against the freshly installed plan — none is ever
/// dropped. Pushes after the engine has shut down return
/// [`ClashError::Shutdown`]; barrier operations on the engine (`flush`,
/// `snapshot`, `install_plan`) guarantee coverage of every push that
/// happened-before the call.
#[derive(Debug)]
pub struct SourceHandle {
    slot: Arc<SourceSlot>,
    /// The engine's shared control-plane state: sequence allocator,
    /// stream clock, quiesce gate, shutdown flag and the registry of
    /// every slot (for the backpressure sweep: any source's buffered
    /// roots can be what the watermark is stuck on).
    shared: Arc<ControlShared>,
    senders: Vec<Sender<WorkerMsg>>,
    catalog: Arc<Catalog>,
    epoch: EpochConfig,
    /// In-flight-roots bound (0 = unbounded).
    capacity: usize,
}

impl SourceHandle {
    /// Registers a fresh slot routing against `installed` and wires a
    /// handle to it (engine-internal).
    pub(crate) fn open(
        shared: Arc<ControlShared>,
        senders: Vec<Sender<WorkerMsg>>,
        catalog: Arc<Catalog>,
        installed: Arc<InstalledPlan>,
        config: &EngineConfig,
    ) -> Self {
        let slot = Arc::new(SourceSlot {
            inner: Mutex::new(SourceInner {
                installed,
                buf: BatchBuffer::new(senders.len(), config.micro_batch, shared.depth.clone()),
                metrics: EngineMetrics::default(),
                stats: StatsCollector::new(config.epoch.length),
                max_ts: Timestamp::ZERO,
                closed: false,
            }),
        });
        shared
            .sources
            .lock()
            .expect("source registry")
            .push(slot.clone());
        SourceHandle {
            slot,
            shared,
            senders,
            catalog,
            epoch: config.epoch,
            capacity: config.max_inflight_roots,
        }
    }

    /// Ingests one input tuple through this source, routing it straight
    /// to the owning worker shards. Join results materialize
    /// asynchronously; they stream to subscribers as produced and are
    /// counted at the engine's next barrier.
    ///
    /// Returns the root's allocated sequence number: the tuple's position
    /// in the engine's realized serial order. The engine's results are
    /// exactly those of `LocalEngine` ingesting all pushed tuples in
    /// sequence-number order (installing the same plans at the same
    /// positions of that order), so recording the returned values makes
    /// the linearization observable (see [`crate::ingest`]).
    ///
    /// Blocks while the engine's in-flight-roots bound is reached
    /// (backpressure) or while a plan install is quiescing producers;
    /// returns an error for unknown relations, after the engine has shut
    /// down ([`ClashError::Shutdown`]), or when the backpressure gate
    /// stalls because the engine died underneath the handle.
    pub fn push(&mut self, relation: RelationId, tuple: Tuple) -> Result<u64> {
        self.admit(relation)?;
        self.route(relation, &tuple).map(|(seq, _)| seq)
    }

    /// The front half of a push: rejects unknown relations, then blocks
    /// until the in-flight-roots bound admits a new root.
    pub(crate) fn admit(&self, relation: RelationId) -> Result<()> {
        if self.catalog.relation(relation).is_err() {
            return Err(ClashError::unknown(format!("relation {relation}")));
        }
        self.shared.wait_admission(self.capacity, &self.senders)
    }

    /// The back half of a push, and the one producer critical section:
    /// allocates the root's sequence number, routes it into the slot's
    /// buffer and ships the buffer if a flush trigger is due. Returns the
    /// sequence number and what was shipped.
    pub(crate) fn route(
        &self,
        relation: RelationId,
        tuple: &Tuple,
    ) -> Result<(u64, Option<Flushed>)> {
        // The quiesce gate: held across sequence allocation, routing and
        // buffering, so a plan install either happens-before this push
        // (which then routes against the new plan) or waits for it (the
        // install's drain barrier then covers its deliveries). Entered
        // after the admission gate — a push blocked on backpressure must
        // not stall an install.
        let _pass = self.shared.gate.enter();
        if self.shared.is_shutdown() {
            return Err(ClashError::Shutdown);
        }
        let started = Instant::now();
        let mut inner = self.slot.inner.lock().expect("source slot");
        let inner = &mut *inner;
        inner.metrics.tuples_ingested += 1;
        inner.max_ts = inner.max_ts.max(tuple.ts);
        self.shared.advance_clock(tuple.ts.as_millis());
        let epoch = self.epoch.epoch_of(tuple.ts);
        inner.stats.record_arrival(epoch, relation);

        // Sequence allocation happens under the slot lock, so a sweep
        // that flushed this slot has shipped every seq allocated before it
        // acquired the lock.
        let seq = self.shared.next_seq.fetch_add(1, Ordering::SeqCst);
        let root = RootHandle::new(seq, self.shared.progress.clone());
        let installed = Arc::clone(&inner.installed);
        route_root(
            &installed.plan,
            self.senders.len(),
            relation,
            tuple,
            &root,
            started,
            &mut inner.metrics,
            &mut inner.buf,
        );
        Ok((seq, inner.flush_if_due(&self.senders)))
    }

    /// Ships any locally buffered deliveries immediately instead of
    /// waiting for a flush trigger or a barrier.
    pub fn flush(&mut self) {
        self.slot.flush_to(&self.senders);
    }
}

impl Drop for SourceHandle {
    fn drop(&mut self) {
        let mut inner = self.slot.inner.lock().expect("source slot");
        inner.flush(&self.senders, FlushTrigger::Barrier);
        inner.closed = true;
    }
}
