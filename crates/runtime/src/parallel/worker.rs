//! The kernel's unit of work ([`Delivery`]) and the worker threads around
//! it: message protocol, fan-out outbox and the thread loop.
//!
//! Every worker owns one mpsc receiver; the coordinator and all other
//! workers hold senders to it. Per-sender FIFO plus the router's
//! arrival-order dispatch give each (store, partition) a delivery order
//! consistent with sequential execution; the sequence-number probe guard
//! and the symmetric pending-prober mechanism (see `shard`) close the two
//! remaining races.

use crate::engine::ResultSink;
use crate::ingest::shared::ControlShared;
use crate::metrics::EngineMetrics;
use crate::parallel::router::{DepthGauges, Partitions, RootHandle};
use crate::parallel::shard::{ShardState, StoreDetail, StoreLayout};
use crate::stats_collector::StatsCollector;
use clash_common::{
    arena_stats, ArenaStats, EpochConfig, FxHashSet, QueryId, StoreId, Timestamp, TraceEvent,
    TraceEventKind, TraceRing, Tuple,
};
use clash_optimizer::{SendTarget, TopologyPlan};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// One tuple delivery to the partitions of one store that a single worker
/// owns: everything the rule kernel (`ShardState::process`) needs.
/// `probe_partitions` drive `Probe` rules; `store_partition` (when the
/// receiving worker owns it) drives `Store` rules.
#[derive(Debug, Clone)]
pub(crate) struct Delivery {
    /// Target store and edge label (selects the rule set).
    pub target: SendTarget,
    /// The tuple or partial join result being delivered.
    pub tuple: Tuple,
    /// Owned partitions to probe (empty for store-only deliveries).
    pub probe_partitions: Partitions,
    /// Owned partition to insert into, if any.
    pub store_partition: Option<usize>,
    /// `true` when the route broadcast to every partition of the store
    /// (this worker then holds only its slice of one logical probe).
    pub broadcast: bool,
    /// Logical sequence position: probes only match state with a strictly
    /// smaller guard; inserts become visible to guards above this one. For
    /// normal deliveries this is the root's sequence number; results
    /// retro-produced by a late insert inherit the original prober's guard.
    pub guard: u64,
    /// Wall-clock ingest instant of the root (for latency metrics).
    pub started: Instant,
}

/// A delivery on its way to a worker thread, with the completion handle of
/// the root whose processing produced it (accounting only — its `seq` may
/// differ from the delivery's `guard` for retro-produced results). The
/// kernel never sees the handle: the worker loop registers and finishes it.
pub(crate) type Rooted = (Delivery, Arc<RootHandle>);

/// Messages from the coordinator (and, for `Batch`, from peer workers).
pub(crate) enum WorkerMsg {
    /// Deliveries to process in order.
    Batch(Vec<Rooted>),
    /// Collection barrier: reply with an [`WorkerAck`] carrying all deltas
    /// accumulated since the previous barrier; optionally run a counted
    /// expiry first.
    Collect {
        /// Barrier token echoed in the ack.
        token: u64,
        /// When set, expire out-of-window tuples up to this stream time.
        expire_upto: Option<Timestamp>,
    },
    /// Installs a new plan (carry-over by descriptor key), then acks.
    Install {
        /// Barrier token echoed in the ack.
        token: u64,
        /// The new plan.
        plan: Arc<TopologyPlan>,
        /// Store windows and indexed attributes for the new plan.
        layout: Arc<StoreLayout>,
        /// Forward-fed stores of the new plan (symmetric probing).
        symmetric: Arc<FxHashSet<StoreId>>,
    },
    /// Toggles retention of emitted result tuples for the coordinator.
    ForwardResults(bool),
    /// Installs a result subscription: every result emitted from here on
    /// is handed to the sink as it is produced, between barriers.
    Subscribe(ResultSink),
    /// Replaces the symmetric store set (multi-producer widening) without
    /// reinstalling the plan or touching shard state.
    SetSymmetric(Arc<FxHashSet<StoreId>>),
    /// Terminates the worker loop.
    Shutdown,
}

/// Barrier reply with the worker's accumulated deltas.
#[derive(Debug)]
pub(crate) struct WorkerAck {
    /// Index of the acking worker.
    pub worker: usize,
    /// Token of the barrier being acknowledged.
    pub token: u64,
    /// Metrics delta since the last barrier.
    pub metrics: EngineMetrics,
    /// Statistics delta since the last barrier.
    pub stats: StatsCollector,
    /// Results emitted since the last barrier (when forwarding is on).
    pub results: Vec<(QueryId, Tuple)>,
    /// Total tuples currently held by this shard.
    pub store_tuples: usize,
    /// Total bytes currently held by this shard.
    pub store_bytes: usize,
    /// Per-store breakdown of what this shard holds (telemetry surface).
    pub per_store: Vec<StoreDetail>,
    /// Tuples removed by the counted expiry of this barrier.
    pub expired: usize,
    /// Trace events accumulated since the last barrier.
    pub trace: Vec<TraceEvent>,
    /// This worker thread's arena counters (cumulative; thread-local, so
    /// they can only be read here, on the worker thread itself).
    pub arena: ArenaStats,
}

/// Collects the deliveries generated while processing one message and
/// ships them per target worker in one go.
pub(crate) struct Outbox {
    direct: Vec<Vec<Rooted>>,
    gauges: Arc<DepthGauges>,
}

impl Outbox {
    /// An empty outbox for `workers` targets.
    pub fn new(workers: usize, gauges: Arc<DepthGauges>) -> Self {
        Outbox {
            direct: (0..workers).map(|_| Vec::new()).collect(),
            gauges,
        }
    }

    /// Queues one forwarded delivery for `worker`, registered with the
    /// root whose processing produced it.
    pub fn push(&mut self, worker: usize, delivery: Delivery, root: &Arc<RootHandle>) {
        self.direct[worker].push((delivery, root.register()));
    }

    /// Ships everything to the target workers.
    pub fn flush(self, senders: &[Sender<WorkerMsg>]) {
        for (worker, batch) in self.direct.into_iter().enumerate() {
            if !batch.is_empty() {
                self.gauges.enqueued(worker, batch.len() as u64);
                // A send only fails after shutdown; deliveries are then moot.
                let _ = senders[worker].send(WorkerMsg::Batch(batch));
            }
        }
    }
}

/// Everything a worker thread needs besides its receiver.
pub(crate) struct WorkerCtx {
    /// This worker's index.
    pub index: usize,
    /// Total number of workers.
    pub workers: usize,
    /// Senders to every worker (including self) for forwards.
    pub senders: Vec<Sender<WorkerMsg>>,
    /// Barrier ack channel.
    pub ack_tx: Sender<WorkerAck>,
    /// The engine's shared control state: the completion progress (prober
    /// GC horizon), the channel-depth gauges (drain side), the slot
    /// registry this worker pulls from when it runs dry, and the record
    /// of its exit.
    pub shared: Arc<ControlShared>,
    /// Forward-fed stores of the current plan (symmetric probing).
    pub symmetric: Arc<FxHashSet<StoreId>>,
    /// Epoch configuration.
    pub epoch: EpochConfig,
    /// Epoch lag before cold epochs freeze into columnar segments
    /// (`EngineConfig::freeze_after_epochs`).
    pub freeze_after: u64,
    /// Initial plan.
    pub plan: Arc<TopologyPlan>,
    /// Initial store layout.
    pub layout: Arc<StoreLayout>,
    /// Initial result-forwarding flag.
    pub forward_results: bool,
    /// Capacity of this worker's trace-event ring (0 disables tracing).
    pub trace_capacity: usize,
}

/// Records the worker's exit in [`ControlShared`] when the thread body
/// ends — by `Shutdown`, a closed channel or a panic.
struct ExitRecord<'a> {
    shared: &'a ControlShared,
    index: usize,
}

impl Drop for ExitRecord<'_> {
    fn drop(&mut self) {
        self.shared.worker_exited(self.index);
    }
}

/// The worker thread body.
pub(crate) fn run_worker(ctx: WorkerCtx, rx: Receiver<WorkerMsg>) {
    let WorkerCtx {
        index,
        workers,
        senders,
        ack_tx,
        shared,
        symmetric,
        epoch,
        freeze_after,
        plan,
        layout,
        forward_results,
        trace_capacity,
    } = ctx;
    let _exit = ExitRecord {
        shared: &shared,
        index,
    };
    let (progress, depth) = (&shared.progress, &shared.depth);
    // Trace lane 0 is the coordinator; workers take lanes 1..=workers.
    let trace = TraceRing::new(trace_capacity, index as u32 + 1);
    let mut shard = ShardState::new(
        workers,
        plan,
        &layout,
        symmetric,
        epoch,
        freeze_after,
        forward_results,
        trace,
    );
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Batch(deliveries) => {
                let started = Instant::now();
                let mut out = Outbox::new(workers, depth.clone());
                for (delivery, root) in &deliveries {
                    shard.process(delivery, progress.watermark(), &mut |worker, forwarded| {
                        out.push(worker, forwarded, root)
                    });
                    root.finish_one();
                }
                out.flush(&senders);
                depth.processed(index, deliveries.len() as u64);
                if depth.depth(index) == 0 {
                    // Ran dry: pull what producers found this worker too
                    // busy to be sent.
                    shared.ship_held_for(index, &senders);
                }
                shard.gc_probers(progress.watermark());
                shard.metrics.busy += started.elapsed();
            }
            WorkerMsg::Collect { token, expire_upto } => {
                let expired = expire_upto.map(|upto| shard.expire(upto)).unwrap_or(0);
                shard.sweep_probers(progress.watermark());
                shard
                    .trace
                    .record(TraceEventKind::Barrier, token, expired as u64);
                if ack_tx
                    .send(drain_ack(&mut shard, index, token, expired))
                    .is_err()
                {
                    break;
                }
            }
            WorkerMsg::Install {
                token,
                plan,
                layout,
                symmetric,
            } => {
                shard.install(plan, &layout, symmetric);
                shard.trace.record(TraceEventKind::Barrier, token, 0);
                if ack_tx.send(drain_ack(&mut shard, index, token, 0)).is_err() {
                    break;
                }
            }
            WorkerMsg::ForwardResults(on) => {
                shard.forward_results = on;
            }
            WorkerMsg::Subscribe(sink) => {
                shard.sink = Some(sink);
            }
            WorkerMsg::SetSymmetric(symmetric) => {
                shard.set_symmetric(symmetric);
            }
            WorkerMsg::Shutdown => break,
        }
    }
}

/// Drains every accumulated delta of the shard into a barrier ack. Both
/// ack-producing arms (`Collect`, `Install`) go through this single point
/// so no delta can be taken in one path and forgotten in the other.
fn drain_ack(shard: &mut ShardState, worker: usize, token: u64, expired: usize) -> WorkerAck {
    let (store_tuples, store_bytes) = shard.store_totals();
    WorkerAck {
        worker,
        token,
        metrics: std::mem::take(&mut shard.metrics),
        stats: shard.stats.take_delta(),
        results: std::mem::take(&mut shard.results),
        store_tuples,
        store_bytes,
        per_store: shard.store_detail(),
        expired,
        trace: shard.trace.drain(),
        // Thread-local: meaningful only when sampled on the worker thread.
        arena: arena_stats(),
    }
}
