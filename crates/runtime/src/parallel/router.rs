//! Partition routing and ordering bookkeeping.
//!
//! Routing is one decision, made in [`resolve`] / [`fan_out`] for both
//! engines, on the one rule registered for the send's `(store, edge)`: a
//! `Store` rule inserts into one partition, and a `Probe` rule either
//! hashes its routing-key attribute to one partition ([`partition_hash`])
//! or broadcasts to every partition of the target store (the χ factor of
//! Equation 1). Partitions are mapped onto worker threads round-robin
//! (`partition % workers`), so with `workers` equal to a store's catalog
//! parallelism every store partition gets its own dedicated thread;
//! `LocalEngine` routes with `workers = 1`.
//!
//! The module also owns the two pieces of machinery that make sharded
//! execution *bit-identical* to sequential execution:
//!
//! 1. **Root handles** ([`RootHandle`]) count the outstanding deliveries
//!    of each ingested input tuple (its "root"). When the count reaches
//!    zero the root is complete and the global completion
//!    [`Progress`] watermark advances: all roots up to the watermark have
//!    fully drained everywhere.
//! 2. **Pending-prober registration.** A probe may overtake an insert it
//!    should observe whenever the two ride different sender paths. The
//!    kernel registers a probe as a pending prober iff the watermark shows
//!    that a root below its guard may still be in flight, and late inserts
//!    retro-match it (see `shard`), so nothing ever waits and every
//!    (probe, insert) pair is matched exactly once.
//!
//! The watermark doubles as the garbage-collection horizon for pending
//! probers and as the drain condition for barriers.

use crate::metrics::EngineMetrics;
use crate::parallel::worker::{Delivery, Rooted, WorkerMsg};
use crate::store::partition_hash;
use clash_common::{FxHashSet, Tuple};
use clash_optimizer::{Rule, SendTarget, TopologyPlan};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a delivery maps onto the partitions of its target store.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteSpec {
    /// The one partition the routing key hashes to; `None` when the tuple
    /// does not carry the key and every partition must be probed.
    pub hashed: Option<usize>,
    /// Number of partitions of the target store.
    pub parallelism: usize,
    /// Partition a store rule inserts into.
    pub store_partition: usize,
}

impl RouteSpec {
    /// Number of partition copies this delivery sends (the probe-cost
    /// unit behind `tuples_sent`, the χ factor of Equation 1).
    pub fn copies(&self) -> u64 {
        match self.hashed {
            Some(_) => 1,
            None => self.parallelism as u64,
        }
    }

    /// `true` when the delivery is a broadcast across > 1 partitions.
    pub fn broadcast(&self) -> bool {
        self.hashed.is_none() && self.parallelism > 1
    }
}

/// Resolves the partitions of `target` that `tuple` must reach — the only
/// place a [`SendTarget`] is turned into partitions: hash the routing key
/// when the tuple carries it, otherwise broadcast (and store into the
/// partition-attribute partition).
pub(crate) fn resolve(
    plan: &TopologyPlan,
    target: &SendTarget,
    tuple: &Tuple,
) -> Option<RouteSpec> {
    let def = plan.store(target.store)?;
    let parallelism = def.descriptor.parallelism.max(1);
    let hashed = target
        .routing_key
        .and_then(|a| tuple.get(&a))
        .map(|value| partition_hash(value, parallelism));
    let store_partition = hashed.unwrap_or_else(|| {
        def.descriptor
            .partition
            .and_then(|a| tuple.get(&a))
            .map(|v| partition_hash(v, parallelism))
            .unwrap_or(0)
    });
    Some(RouteSpec {
        hashed,
        parallelism,
        store_partition,
    })
}

/// The worker thread owning a partition: round-robin assignment.
pub(crate) fn owner_of(partition: usize, workers: usize) -> usize {
    partition % workers
}

/// The partitions of one store a delivery applies its rule to on one
/// worker: the one partition a `Store` rule inserts into, or the worker's
/// share of the partitions a `Probe` rule probes. Round-robin ownership
/// makes every share an arithmetic progression (`w, w + workers, …`), so
/// a delivery carries it by value instead of an allocated list.
pub(crate) type Partitions = std::iter::StepBy<std::ops::Range<usize>>;

/// Routes one send: splits the route of `target` into one [`Delivery`] per
/// owning worker, handed to `deliver`, and accounts the send in `metrics`
/// (`tuples_sent` per partition copy, the broadcast counter). Sends the
/// plan has no rule for are ignored without accounting. A `Store` rule
/// gives one delivery, to the owner of the partition it inserts into; a
/// `Probe` rule gives one per owning worker, carrying its share of the
/// probed partitions. `guard` is the logical sequence position the
/// delivery acts at (the originating root for normal sends, the original
/// prober's position for retro-produced results). Every producer — engine
/// ingest, source pushes and the kernel's `Forward` outputs, on one worker
/// or many — routes through here, so routing and probe-cost accounting
/// cannot diverge between them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fan_out(
    plan: &TopologyPlan,
    workers: usize,
    target: SendTarget,
    tuple: &Tuple,
    guard: u64,
    started: Instant,
    metrics: &mut EngineMetrics,
    mut deliver: impl FnMut(usize, Delivery),
) {
    let Some(rule) = plan.rule(target.store, target.edge) else {
        return;
    };
    let Some(spec) = resolve(plan, &target, tuple) else {
        return;
    };
    metrics.tuples_sent += spec.copies();
    if spec.broadcast() {
        metrics.broadcasts += 1;
    }
    let delivery = |partitions| Delivery {
        target,
        tuple: tuple.clone(),
        partitions,
        broadcast: spec.broadcast(),
        guard,
        started,
    };
    let single = match rule {
        Rule::Store => Some(spec.store_partition),
        Rule::Probe { .. } => spec.hashed,
    };
    match single {
        Some(p) => deliver(owner_of(p, workers), delivery((p..p + 1).step_by(1))),
        None => {
            for worker in 0..workers.min(spec.parallelism) {
                deliver(
                    worker,
                    delivery((worker..spec.parallelism).step_by(workers)),
                );
            }
        }
    }
}

/// Routes one ingested root of the sharded runtime to every target store
/// of its relation: the shared front half of `ParallelEngine::ingest` and
/// [`crate::ingest::SourceHandle`] pushes. Registers every delivery with
/// the root's completion counter, buffers it and releases the root's
/// creator bias.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_root(
    plan: &TopologyPlan,
    workers: usize,
    relation: clash_common::RelationId,
    tuple: &Tuple,
    root: &Arc<RootHandle>,
    started: Instant,
    metrics: &mut EngineMetrics,
    buf: &mut BatchBuffer,
) {
    for target in plan.ingest_for(relation) {
        fan_out(
            plan,
            workers,
            *target,
            tuple,
            root.seq,
            started,
            metrics,
            |worker, delivery| buf.push(worker, (delivery, root.register())),
        );
    }
    root.release_bias();
}

/// Why a micro-batch buffer shipped (the label of `clash_flushes_total`
/// and the `b` word of the `Flush` trace event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushTrigger {
    /// `EngineConfig::micro_batch` deliveries were buffered.
    Size,
    /// A worker the buffer held deliveries for had an empty queue: seen
    /// by the push that buffered them, or by the worker itself when it
    /// ran dry.
    Idle,
    /// Forced: a barrier, an admission sweep, an explicit
    /// `SourceHandle::flush` or a dropped handle.
    Barrier,
}

impl FlushTrigger {
    /// Every trigger, in discriminant order (which indexes
    /// `EngineMetrics::flushes`).
    pub const ALL: [FlushTrigger; 3] = [
        FlushTrigger::Size,
        FlushTrigger::Idle,
        FlushTrigger::Barrier,
    ];

    /// The `trigger` label value.
    pub fn label(self) -> &'static str {
        match self {
            FlushTrigger::Size => "size",
            FlushTrigger::Idle => "idle",
            FlushTrigger::Barrier => "barrier",
        }
    }
}

/// Coalesces a producer's per-root deliveries into larger per-worker
/// `Batch` messages, cutting per-message channel overhead on the ingest
/// hot path.
///
/// Deliveries append in ingest order and flush in ingest order, so the
/// per-(store, partition) FIFO guarantee the correctness argument rests
/// on is unchanged — batching only delays *when* a contiguous run of
/// deliveries is handed to a worker, never reorders it. When a batch
/// ships is decided in one place, [`BatchBuffer::due`]; barriers, expiry
/// messages and admission sweeps flush unconditionally, so no delivery
/// can be stranded behind them.
#[derive(Debug)]
pub(crate) struct BatchBuffer {
    per_worker: Vec<Vec<Rooted>>,
    buffered: usize,
    /// Size trigger: the most deliveries a batch may gather (`<= 1`
    /// restores the seed's send-per-ingest behavior).
    capacity: usize,
    /// Ingest instant of the root of the oldest buffered delivery (what
    /// the flush age measures from).
    since: Option<Instant>,
    /// Shared queue-depth gauges: bumped on the enqueue side per flush,
    /// read by the idle trigger.
    gauges: Arc<DepthGauges>,
}

impl BatchBuffer {
    /// An empty buffer for `workers` targets with the given size trigger.
    pub fn new(workers: usize, capacity: usize, gauges: Arc<DepthGauges>) -> Self {
        BatchBuffer {
            per_worker: (0..workers).map(|_| Vec::new()).collect(),
            buffered: 0,
            capacity: capacity.max(1),
            since: None,
            gauges,
        }
    }

    /// Appends one delivery for `worker`.
    pub fn push(&mut self, worker: usize, delivery: Rooted) {
        self.since.get_or_insert(delivery.0.started);
        self.per_worker[worker].push(delivery);
        self.buffered += 1;
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buffered == 0
    }

    /// `true` when deliveries for `worker` are buffered.
    pub fn holds_for(&self, worker: usize) -> bool {
        !self.per_worker[worker].is_empty()
    }

    /// The flush predicate of every producer path, checked after each
    /// routed root: whether the buffer should ship, and why.
    ///
    /// * **size** — `capacity` deliveries are buffered: the cap on batch
    ///   growth, and the trigger under saturation, where no queue is ever
    ///   empty.
    /// * **idle** — a worker this buffer holds deliveries for has nothing
    ///   queued and nothing in progress (`DepthGauges::depth == 0`):
    ///   holding them back could only add latency, as there is no backlog
    ///   for a larger batch to amortize. Under light load this fires on
    ///   every root. A worker that was busy at this check applies the
    ///   same rule from its side once it runs dry
    ///   (`ControlShared::ship_held_for`), so what a push leaves behind
    ///   never waits for another push.
    pub fn due(&self) -> Option<FlushTrigger> {
        if self.buffered >= self.capacity {
            return Some(FlushTrigger::Size);
        }
        (0..self.per_worker.len())
            .any(|worker| self.holds_for(worker) && self.gauges.depth(worker) == 0)
            .then_some(FlushTrigger::Idle)
    }

    /// Ships every buffered delivery as one `Batch` message per worker.
    /// Returns the number of deliveries shipped and the age of the oldest
    /// one (how long it waited for a trigger) when anything was buffered —
    /// the sample behind the `flush_age` telemetry histogram.
    pub fn flush(&mut self, senders: &[Sender<WorkerMsg>]) -> Option<(usize, std::time::Duration)> {
        let since = self.since.take()?;
        let shipped = std::mem::take(&mut self.buffered);
        for (worker, batch) in self.per_worker.iter_mut().enumerate() {
            if !batch.is_empty() {
                self.gauges.enqueued(worker, batch.len() as u64);
                // A send only fails after shutdown; deliveries are then moot.
                let _ = senders[worker].send(WorkerMsg::Batch(std::mem::take(batch)));
            }
        }
        Some((shipped, since.elapsed()))
    }
}

/// Per-worker channel-depth gauges: producers count deliveries as they
/// enqueue `Batch` messages, workers count them as they drain, and the
/// difference is the instantaneous backlog exposed as
/// `clash_worker_queue_depth`. Two monotone counters instead of one
/// gauge keep both sides wait-free — no producer/consumer contention on
/// a shared decrement, and a momentary negative race simply clamps to 0.
#[derive(Debug, Default)]
pub(crate) struct DepthGauges {
    enqueued: Vec<AtomicU64>,
    processed: Vec<AtomicU64>,
}

impl DepthGauges {
    /// Gauges for `workers` channels.
    pub fn new(workers: usize) -> Self {
        DepthGauges {
            enqueued: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            processed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Counts `n` deliveries handed to `worker`'s channel.
    pub fn enqueued(&self, worker: usize, n: u64) {
        self.enqueued[worker].fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` deliveries drained by `worker`.
    pub fn processed(&self, worker: usize, n: u64) {
        self.processed[worker].fetch_add(n, Ordering::Relaxed);
    }

    /// Instantaneous backlog of `worker`'s channel, clamped at 0.
    pub fn depth(&self, worker: usize) -> u64 {
        let enq = self.enqueued[worker].load(Ordering::Relaxed);
        let done = self.processed[worker].load(Ordering::Relaxed);
        enq.saturating_sub(done)
    }
}

/// Number of workers holding at least one partition of a store with the
/// given parallelism (used to extrapolate shard-local store sizes for the
/// statistics collector).
pub(crate) fn workers_of_store(parallelism: usize, workers: usize) -> usize {
    parallelism.max(1).min(workers)
}

/// Global completion progress: the watermark `w` means every root with
/// sequence number `<= w` has been fully processed on every worker.
///
/// **Wake protocol.** A thread that needs the watermark to reach a value
/// (the drain barrier: every root sequenced so far; an admission gate:
/// enough roots to get back under `max_inflight_roots`) registers that
/// value as its *target* and sleeps on the condvar. [`Self::complete`]
/// runs under the same mutex, and notifies only when the watermark it
/// just stored reaches a registered target — removing every reached
/// target as it does, so one barrier costs one wake, not one per
/// completed root. Several waiters with different targets may sleep at
/// once (the notification is a broadcast, and a waiter whose target is
/// still ahead goes back to sleep with its target still registered), so
/// none can consume another's wake-up.
#[derive(Debug, Default)]
pub(crate) struct Progress {
    watermark: AtomicU64,
    state: Mutex<ProgressState>,
    condvar: Condvar,
}

#[derive(Debug, Default)]
struct ProgressState {
    /// Completed root seqs above the watermark, awaiting contiguity.
    completed: FxHashSet<u64>,
    /// Watermark values sleeping waiters are waiting for (one entry per
    /// waiter; all above the watermark).
    targets: Vec<u64>,
}

impl Progress {
    /// Current watermark (roots `<= w` fully drained).
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Marks one root complete and advances the watermark over any now
    /// contiguous prefix, waking the waiters whose target it reached.
    pub fn complete(&self, seq: u64) {
        let mut state = self.state.lock().expect("progress lock");
        state.completed.insert(seq);
        let mut w = self.watermark.load(Ordering::Acquire);
        while state.completed.remove(&(w + 1)) {
            w += 1;
        }
        self.watermark.store(w, Ordering::Release);
        if state.targets.iter().any(|target| *target <= w) {
            state.targets.retain(|target| *target > w);
            self.condvar.notify_all();
        }
    }

    /// Blocks until the watermark reaches `target` or `timeout` elapses;
    /// `true` when it was reached.
    pub fn wait_until(&self, target: u64, timeout: std::time::Duration) -> bool {
        if self.watermark() >= target {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("progress lock");
        // The watermark only moves under this lock, so from here on a
        // completion that reaches `target` finds it registered.
        if self.watermark() >= target {
            return true;
        }
        state.targets.push(target);
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                // Still registered: `complete` removes reached targets only.
                if let Some(at) = state.targets.iter().position(|t| *t == target) {
                    state.targets.swap_remove(at);
                }
                return false;
            }
            state = self
                .condvar
                .wait_timeout(state, remaining)
                .expect("progress wait")
                .0;
            if self.watermark() >= target {
                return true;
            }
        }
    }
}

/// Tracks the outstanding deliveries spawned (directly or transitively) by
/// one ingested input tuple. The creator holds a +1 bias released once all
/// initial deliveries are registered, so the root cannot complete early.
#[derive(Debug)]
pub(crate) struct RootHandle {
    /// The root's global arrival sequence number (starts at 1).
    pub seq: u64,
    remaining: AtomicU32,
    progress: Arc<Progress>,
}

impl RootHandle {
    /// New handle with the creator bias held.
    pub fn new(seq: u64, progress: Arc<Progress>) -> Arc<Self> {
        Arc::new(RootHandle {
            seq,
            remaining: AtomicU32::new(1),
            progress,
        })
    }

    /// Registers one more outstanding delivery and returns the handle
    /// that travels with it.
    pub fn register(self: &Arc<Self>) -> Arc<Self> {
        self.remaining.fetch_add(1, Ordering::AcqRel);
        Arc::clone(self)
    }

    /// Marks one delivery processed; completes the root when the count
    /// reaches zero.
    pub fn finish_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.progress.complete(self.seq);
        }
    }

    /// Releases the creator bias (all initial deliveries registered).
    pub fn release_bias(&self) {
        self.finish_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn watermark_advances_only_over_contiguous_roots() {
        let progress = Arc::new(Progress::default());
        assert_eq!(progress.watermark(), 0);
        progress.complete(2);
        assert_eq!(progress.watermark(), 0, "gap at 1 blocks");
        progress.complete(1);
        assert_eq!(progress.watermark(), 2, "contiguous prefix collapses");
        progress.complete(3);
        assert_eq!(progress.watermark(), 3);
    }

    #[test]
    fn wait_until_returns_at_once_when_reached_and_times_out_otherwise() {
        let progress = Progress::default();
        progress.complete(1);
        let started = Instant::now();
        assert!(progress.wait_until(1, Duration::from_secs(10)));
        assert!(progress.wait_until(0, Duration::from_secs(10)));
        assert!(started.elapsed() < Duration::from_secs(5), "must not sleep");
        assert!(!progress.wait_until(2, Duration::from_millis(20)));
        assert!(
            progress.state.lock().unwrap().targets.is_empty(),
            "a timed-out waiter deregisters its target"
        );
    }

    /// Spawns a thread sleeping on `target`; returns once it is registered
    /// (the interleaving under test is "waiter asleep, then completions").
    fn sleeper(progress: &Arc<Progress>, target: u64) -> std::thread::JoinHandle<(bool, u64)> {
        let registered = progress.state.lock().unwrap().targets.len() + 1;
        let p = progress.clone();
        let handle = std::thread::spawn(move || {
            let reached = p.wait_until(target, Duration::from_secs(30));
            (reached, p.watermark())
        });
        while progress.state.lock().unwrap().targets.len() < registered {
            std::thread::yield_now();
        }
        handle
    }

    #[test]
    fn wait_until_wakes_when_out_of_order_completions_close_the_gap() {
        let progress = Arc::new(Progress::default());
        let waiter = sleeper(&progress, 3);
        progress.complete(3);
        progress.complete(2);
        assert_eq!(progress.watermark(), 0, "gap at 1: nothing to wake for");
        assert_eq!(progress.state.lock().unwrap().targets, vec![3]);
        progress.complete(1);
        assert_eq!(waiter.join().unwrap(), (true, 3));
        assert!(progress.state.lock().unwrap().targets.is_empty());
    }

    #[test]
    fn concurrent_waiters_with_different_targets_each_wake_at_theirs() {
        // An admission waiter (small target) and a drain barrier (large
        // target) sleep at once: reaching the small target must neither
        // release the large one early nor swallow its later wake-up.
        let progress = Arc::new(Progress::default());
        let near = sleeper(&progress, 2);
        let far = sleeper(&progress, 5);
        progress.complete(1);
        progress.complete(2);
        assert!(near.join().unwrap().0);
        assert_eq!(
            progress.state.lock().unwrap().targets,
            vec![5],
            "the far waiter stays registered across the near one's wake"
        );
        assert!(!far.is_finished());
        for seq in 3..=5 {
            progress.complete(seq);
        }
        assert_eq!(far.join().unwrap(), (true, 5));
    }

    #[test]
    fn root_completes_when_bias_and_deliveries_finish() {
        let progress = Arc::new(Progress::default());
        let root = RootHandle::new(1, progress.clone());
        root.register();
        root.register();
        root.release_bias();
        assert_eq!(progress.watermark(), 0);
        root.finish_one();
        assert_eq!(progress.watermark(), 0);
        root.finish_one();
        assert_eq!(progress.watermark(), 1);
    }

    #[test]
    fn zero_delivery_root_completes_on_bias_release() {
        let progress = Arc::new(Progress::default());
        let root = RootHandle::new(1, progress.clone());
        root.release_bias();
        assert_eq!(progress.watermark(), 1);
    }

    #[test]
    fn owner_mapping_is_round_robin() {
        assert_eq!(owner_of(0, 4), 0);
        assert_eq!(owner_of(5, 4), 1);
        assert_eq!(owner_of(3, 1), 0);
        assert_eq!(workers_of_store(8, 4), 4);
        assert_eq!(workers_of_store(2, 4), 2);
        assert_eq!(workers_of_store(0, 4), 1);
    }
}
