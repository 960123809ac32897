//! The kernel's unit of work ([`Delivery`]) and the worker threads around
//! it: message protocol, fan-out outbox and the thread loop.
//!
//! Every worker owns one mpsc receiver; the coordinator and all other
//! workers hold senders to it. Per-sender FIFO plus the router's
//! arrival-order dispatch give each (store, partition) a delivery order
//! consistent with sequential execution; the sequence-number probe guard
//! and the symmetric pending-prober mechanism (see `shard`) close the two
//! remaining races.

use crate::engine::{EngineConfig, ResultSink};
use crate::ingest::shared::ControlShared;
use crate::parallel::router::{DepthGauges, Partitions, RootHandle};
use crate::parallel::shard::{ShardReport, ShardState};
use crate::plan::{Feed, InstalledPlan};
use clash_common::{Timestamp, TraceEventKind, Tuple};
use clash_optimizer::SendTarget;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// One tuple delivery to the partitions of one store that a single worker
/// owns: everything the rule kernel (`ShardState::process`) needs. The
/// target's one rule decides what `partitions` means: the one partition
/// a `Store` rule inserts into, or the partitions a `Probe` rule probes.
#[derive(Debug, Clone)]
pub(crate) struct Delivery {
    /// Target store and edge label (selects the rule).
    pub target: SendTarget,
    /// The tuple or partial join result being delivered.
    pub tuple: Tuple,
    /// Owned partitions the rule applies to (never empty).
    pub partitions: Partitions,
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
    /// Collection barrier: reply with a [`WorkerAck`] carrying the shard's
    /// report; optionally run a counted expiry first.
    Collect {
        /// Barrier token echoed in the ack.
        token: u64,
        /// When set, expire out-of-window tuples up to this stream time.
        expire_upto: Option<Timestamp>,
    },
    /// Installs a new plan (carry-over by store descriptor), then acks.
    Install {
        /// Barrier token echoed in the ack.
        token: u64,
        /// The new plan.
        installed: Arc<InstalledPlan>,
    },
    /// Adds a result subscription: every result emitted from here on is
    /// also handed to this sink as it is produced, between barriers.
    Subscribe(ResultSink),
    /// A second producer appeared: read the installed plan's (and every
    /// later plan's) multi-producer symmetric set from here on.
    MultiProducer,
    /// Terminates the worker loop.
    Shutdown,
}

/// Barrier reply: the worker's shard report.
#[derive(Debug)]
pub(crate) struct WorkerAck {
    /// Index of the acking worker.
    pub worker: usize,
    /// Token of the barrier being acknowledged.
    pub token: u64,
    /// Everything the shard accumulated since its last reply.
    pub report: ShardReport,
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
    /// Initial plan.
    pub installed: Arc<InstalledPlan>,
    /// The engine's configuration.
    pub config: EngineConfig,
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
        installed,
        config,
    } = ctx;
    let _exit = ExitRecord {
        shared: &shared,
        index,
    };
    let (progress, depth) = (&shared.progress, &shared.depth);
    // Trace lane 0 is the coordinator; workers take lanes 1..=workers.
    let lane = index as u32 + 1;
    let mut shard = ShardState::new(workers, installed, Feed::OneProducer, &config, lane);
    // Both ack-producing arms reply with the shard's own report.
    let ack = |shard: &mut ShardState, token, expired| WorkerAck {
        worker: index,
        token,
        report: shard.report(expired),
    };
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
                if ack_tx.send(ack(&mut shard, token, expired)).is_err() {
                    break;
                }
            }
            WorkerMsg::Install { token, installed } => {
                shard.install(installed);
                shard.trace.record(TraceEventKind::Barrier, token, 0);
                if ack_tx.send(ack(&mut shard, token, 0)).is_err() {
                    break;
                }
            }
            WorkerMsg::Subscribe(sink) => shard.sinks.push(sink),
            WorkerMsg::MultiProducer => shard.feed = Feed::ManyProducers,
            WorkerMsg::Shutdown => break,
        }
    }
}
