//! The rule kernel: one shard's store partitions plus the only
//! interpreter of `Rule::{Store, Probe}` / `OutputAction::{Emit, Forward}`
//! (Algorithm 3/4) in this crate, with its private metrics and statistics
//! accumulators. A delivery's `(store, edge)` selects exactly one rule
//! (the analyzer's P015), which `process` matches on; stores and pending
//! probers live in `Vec`s indexed by `StoreId`.
//!
//! Both engines run it. `LocalEngine` owns a single shard holding every
//! partition (`workers = 1`) and feeds the kernel's forwards back into an
//! inline work queue; `ParallelEngine` runs one shard per worker thread,
//! restricted to the partitions assigned to that worker, and ships
//! forwards through the routed `Outbox`. Two mechanisms make the union of
//! all shards' results equal to sequential execution's result set (both
//! are vacuous in the single-shard instance, where every tuple an earlier
//! root stored already carries a smaller guard than any probe that meets
//! it, and every earlier root has completed, so no probe registers):
//!
//! * **Sequence guard** — inserts are tagged with the logical sequence
//!   position (`guard`) of the root that produced them and probes skip
//!   state at or above their own guard, so racing ahead never matches
//!   later arrivals.
//! * **Pending probers** — an insert may arrive *after* a probe that
//!   should have observed it whenever the two ride different sender paths
//!   (a worker's forward, another producer's channel, a batch still
//!   buffered). One rule covers every such case at every store: a probe
//!   registers as a pending prober next to the partition, indexed by
//!   join-key value, iff a root below its guard may still be in flight
//!   (`guard > watermark + 1`). When a late insert with a smaller guard
//!   lands, it retro-matches the registered probers locally and emits the
//!   missed results through the same outputs. Every (probe, insert) pair
//!   matches exactly once: at probe time if the insert was applied,
//!   retroactively otherwise. Probers are garbage-collected by the same
//!   rule, once the completion watermark proves no earlier root can
//!   still insert.

use crate::engine::{EngineConfig, ResultSink};
use crate::metrics::{EngineMetrics, StoreDetail};
use crate::parallel::router::{fan_out, workers_of_store, Partitions};
use crate::parallel::worker::Delivery;
use crate::plan::InstalledPlan;
use crate::stats_collector::StatsCollector;
use crate::store::{visible, StoreInstance};
use clash_common::{
    arena_stats, ArenaStats, EdgeId, Epoch, EpochConfig, FxHashMap, JoinSlot, RelationId,
    SlotAccessor, StoreId, Timestamp, TraceEvent, TraceEventKind, TraceRing, Tuple, Value,
};
use clash_optimizer::{OutputAction, Rule, TopologyPlan};
use clash_query::{EquiPredicate, StoreDescriptor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Completed roots between two sweeps of the pending probers outside
/// barriers. A sweep `retain`s every registered prober, so running one
/// after every worker message costs O(everything in flight) per `Batch`;
/// striding it keeps at most this many roots' worth of already-dead
/// probers around instead. Late collection cannot change a result: a dead
/// prober only stays a retro-probe *candidate*, and every candidate still
/// passes the guard check (`insert guard < prober guard`), which no insert
/// arriving after the watermark passed the prober can satisfy — the
/// exactly-once argument never relied on when probers are dropped.
const PROBER_GC_STRIDE: u64 = 256;

/// The shard fields dispatching a result writes, borrowed apart from the
/// stores and pending probers a probe reads: the field split that lets a
/// store's visitor join and dispatch each match the moment it is found.
struct Emitter<'s, O> {
    plan: &'s TopologyPlan,
    workers: usize,
    metrics: &'s mut EngineMetrics,
    sinks: &'s mut [ResultSink],
    out: &'s mut O,
}

impl<O: FnMut(usize, Delivery)> Emitter<'_, O> {
    /// Applies a probe rule's outputs to one join result — the only place
    /// `OutputAction`s are interpreted, for probe-time and retroactive
    /// matches alike. `Emit` hands the result to the sinks; `Forward`
    /// routes it on through `out` at the logical
    /// position `guard`. Counting and timing are the evaluation's
    /// ([`Self::account`]).
    fn dispatch(&mut self, outputs: &[OutputAction], joined: &Tuple, guard: u64, started: Instant) {
        for action in outputs {
            match action {
                OutputAction::Emit { query } => {
                    for sink in self.sinks.iter_mut() {
                        sink(*query, joined);
                    }
                }
                OutputAction::Forward(next) => {
                    fan_out(
                        self.plan,
                        self.workers,
                        *next,
                        joined,
                        guard,
                        started,
                        self.metrics,
                        &mut *self.out,
                    );
                }
            }
        }
    }

    /// Accounts the `n` results one rule evaluation dispatched, in one
    /// step per `Emit`: `n` results and `n` samples of the evaluation's one
    /// `latency` reading. The clock is read once the evaluation dispatched
    /// its last result (an evaluation without results reads none), so
    /// every result of it (≈ 400 per input tuple on fan-out-heavy plans)
    /// shares the reading, which is an upper bound on their emit instants:
    /// the engine's latency histogram resolves per evaluation, not per
    /// result. Returns the number of results emitted.
    fn account(&mut self, outputs: &[OutputAction], n: u64, latency: Duration) -> u64 {
        let mut emitted = 0;
        for action in outputs {
            if let OutputAction::Emit { query } = action {
                self.metrics.record_results(*query, n, latency);
                emitted += n;
            }
        }
        emitted
    }
}

/// A probe that ran while a root below its guard was still in flight, and
/// stays registered until the watermark proves no earlier insert is.
#[derive(Debug)]
struct PendingProber {
    /// Logical sequence position of the probe.
    guard: u64,
    /// The probing tuple.
    tuple: Tuple,
    /// Partitions (owned by this worker) the probe inspected.
    partitions: Partitions,
    /// Edge the probe arrived on: its store's rule there (predicates,
    /// outputs) applies.
    edge: EdgeId,
    /// Wall-clock ingest instant of the probe's root.
    started: Instant,
}

/// The pending probers of one store, indexed by join-key value so a late
/// insert retro-matches in O(candidate matches) instead of scanning every
/// in-flight prober.
///
/// A prober whose rule carries at least one equi-predicate is keyed
/// by `(edge, probe-side value of the first predicate)` — the same
/// predicate the store's own hash index would drive — and a late insert
/// looks up the stored-side value of that predicate. Probers without a
/// usable key (no predicates, or the probing tuple lacks the attribute)
/// fall back to the `unkeyed` list and are scanned as before. Keying is
/// purely a pre-filter: every candidate still runs the full predicate,
/// window and guard checks, so a hash hit can never create a spurious
/// match and a hash miss can never lose one (`join_eq` matches imply
/// `Value` equality, and `Null` never `join_eq`-matches anything).
#[derive(Debug, Default)]
struct PendingSet {
    /// edge -> join-key value -> probers awaiting a matching insert.
    /// (Nested rather than keyed by `(EdgeId, Value)` so the insert-side
    /// lookup can borrow the inserted tuple's value — no clone, no
    /// allocation on the store hot path. Fx-hashed: the keys are trusted
    /// join-key values, and the lookup runs once per insert.)
    keyed: FxHashMap<EdgeId, FxHashMap<Value, Vec<PendingProber>>>,
    /// Probers that could not be keyed; matched by full scan.
    unkeyed: Vec<PendingProber>,
    /// Stored-side accessor of the keying predicate per registered edge
    /// (what a late insert resolves its lookup value with).
    edge_keys: Vec<(EdgeId, SlotAccessor)>,
}

impl PendingSet {
    /// Registers a prober under its join-key value (or unkeyed).
    fn register(&mut self, prober: PendingProber, key: Option<(SlotAccessor, Value)>) {
        let edge = prober.edge;
        match key {
            Some((stored_slot, value)) if !value.is_null() => {
                if !self.edge_keys.iter().any(|(e, _)| *e == edge) {
                    self.edge_keys.push((edge, stored_slot));
                }
                self.keyed
                    .entry(edge)
                    .or_default()
                    .entry(value)
                    .or_default()
                    .push(prober);
            }
            // No usable key (predicate-less rule, missing attribute,
            // or a Null probe value): fall back to the scanned list.
            _ => self.unkeyed.push(prober),
        }
    }

    /// Visits every registered prober a just-applied insert retro-matches,
    /// with the probe rule it matches under: the retroactive half of probe
    /// processing. Only probers with a *larger* guard qualify (they
    /// logically ran after this insert); visibility is the store's own
    /// [`visible`] rule and the predicates are the store's own
    /// [`StoreInstance::predicates_hold`]. Candidates come from the
    /// join-key index (plus the unkeyed scan list), so the cost is
    /// proportional to the probers that can actually match, not to
    /// everything in flight.
    fn retro_matches<'p>(
        &'p self,
        store: &StoreInstance,
        plan: &'p TopologyPlan,
        partition: usize,
        insert: &Delivery,
        mut visit: impl FnMut(&'p PendingProber, &'p [EquiPredicate], &'p [OutputAction]),
    ) {
        let (store_id, inserted) = (insert.target.store, &insert.tuple);
        let keyed = self.edge_keys.iter().filter_map(|(edge, stored_slot)| {
            let value = stored_slot.get(inserted).filter(|v| !v.is_null())?;
            self.keyed.get(edge)?.get(value)
        });
        for prober in keyed.flatten().chain(&self.unkeyed) {
            if !visible(
                store.window,
                inserted.ts,
                insert.guard,
                prober.tuple.ts,
                Some(prober.guard),
            ) || !prober.partitions.clone().any(|p| p == partition)
            {
                continue;
            }
            let Some(Rule::Probe {
                predicates,
                outputs,
            }) = plan.rule(store_id, prober.edge)
            else {
                continue;
            };
            if store.predicates_hold(predicates, 0, &prober.tuple, |a| inserted.get(a)) {
                visit(prober, predicates, outputs);
            }
        }
    }

    /// Drops probers whose guard can no longer receive late inserts.
    fn gc(&mut self, watermark: u64) {
        self.keyed.retain(|_, by_value| {
            by_value.retain(|_, probers| {
                probers.retain(|p| p.guard > watermark + 1);
                !probers.is_empty()
            });
            !by_value.is_empty()
        });
        self.unkeyed.retain(|p| p.guard > watermark + 1);
    }
}

/// The state owned by one shard: a worker thread's, or the whole of a
/// `LocalEngine`.
pub(crate) struct ShardState {
    workers: usize,
    installed: Arc<InstalledPlan>,
    /// Store instances in `plan.stores` order: indexed by `StoreId`
    /// (P001 makes the plan's store table dense).
    stores: Vec<StoreInstance>,
    /// Pending probers per store, indexed by `StoreId` like `stores`, each
    /// keyed by join-key value.
    pending: Vec<PendingSet>,
    /// Completion watermark at the last prober sweep.
    swept_at: u64,
    epoch: EpochConfig,
    /// Epochs of lag before an epoch of every store closes
    /// (`EngineConfig::freeze_after_epochs`; `0` = never).
    freeze_after: u64,
    /// Metrics accumulated since they were last taken (a collection
    /// barrier; never, in the local instance).
    pub metrics: EngineMetrics,
    /// Statistics accumulated since they were last taken.
    pub stats: StatsCollector,
    /// Invoked for every emitted result the moment it is produced: the
    /// one way a result leaves either engine (the local engine's sinks
    /// and subscriptions, or a worker's share of every subscription).
    pub sinks: Vec<ResultSink>,
    /// This shard's trace-event ring.
    pub trace: TraceRing,
}

impl ShardState {
    /// Creates the shard with instantiated (empty) stores for `installed`,
    /// configured from `config`, tracing on `lane`.
    pub fn new(
        workers: usize,
        installed: Arc<InstalledPlan>,
        config: &EngineConfig,
        lane: u32,
    ) -> Self {
        let mut shard = ShardState {
            workers,
            installed: Arc::clone(&installed),
            stores: Vec::new(),
            pending: Vec::new(),
            swept_at: 0,
            epoch: config.epoch,
            freeze_after: config.freeze_after_epochs,
            metrics: EngineMetrics::default(),
            stats: StatsCollector::new(config.epoch.length),
            sinks: Vec::new(),
            trace: TraceRing::new(config.trace_capacity, lane),
        };
        shard.install(installed);
        shard
    }

    /// The installed plan.
    pub fn plan(&self) -> &Arc<TopologyPlan> {
        &self.installed.plan
    }

    /// The store instances of this shard.
    pub fn stores(&self) -> impl Iterator<Item = &StoreInstance> {
        self.stores.iter()
    }

    /// Installs a plan. Stores whose descriptor matches an existing store
    /// keep their state (Section VI-A's rewiring); stores that no longer
    /// appear are dropped (reference count reaching zero in Section VI-B).
    /// A store the new plan adds starts empty, so a result that needs a
    /// pre-install tuple from it is lost. Installs only happen with nothing
    /// in flight, so no probers are pending.
    pub fn install(&mut self, installed: Arc<InstalledPlan>) {
        let mut existing: FxHashMap<StoreDescriptor, StoreInstance> =
            self.stores.drain(..).map(|s| (s.descriptor, s)).collect();
        for (def, (window, indexed)) in installed.plan.stores.iter().zip(&installed.layout) {
            let instance = match existing.remove(&def.descriptor) {
                Some(mut s) => {
                    for attr in indexed {
                        s.add_indexed_attr(*attr);
                    }
                    s.window = *window;
                    s
                }
                None => StoreInstance::new(def.descriptor, *window, indexed.clone()),
            };
            self.stores.push(instance);
        }
        self.pending.clear();
        self.pending
            .resize_with(self.stores.len(), PendingSet::default);
        self.installed = installed;
        self.trace
            .record(TraceEventKind::PlanInstall, 0, self.stores.len() as u64);
    }

    /// Routes one root to every target store of `relation` through
    /// [`fan_out`], accounting the sends in this shard's metrics: the
    /// local engine's ingest.
    pub fn route(
        &mut self,
        relation: RelationId,
        tuple: &Tuple,
        guard: u64,
        started: Instant,
        mut deliver: impl FnMut(usize, Delivery),
    ) {
        let plan = &self.installed.plan;
        for target in plan.ingest_for(relation) {
            fan_out(
                plan,
                self.workers,
                *target,
                tuple,
                guard,
                started,
                &mut self.metrics,
                &mut deliver,
            );
        }
    }

    /// Delivers one tuple to one store along one edge, applying the rule
    /// registered for that edge (Algorithm 3/4) to the partitions of the
    /// delivery, all owned by this shard. Every match is joined and
    /// dispatched the moment the store finds it: `Forward` outputs are
    /// routed and handed to `out` as `(owning worker, delivery)`; emissions
    /// reach the sinks at once and are counted and timed once per rule
    /// evaluation. `watermark` is a completion watermark the driver read at
    /// any point before the call (every root at or below it has completed
    /// on every shard; it only ever grows, so an older reading is merely
    /// conservative). Returns the number of results emitted.
    pub fn process(
        &mut self,
        delivery: &Delivery,
        watermark: u64,
        out: &mut impl FnMut(usize, Delivery),
    ) -> u64 {
        let plan = &self.installed.plan;
        let target = delivery.target;
        let Some(rule) = plan.rule(target.store, target.edge) else {
            return 0;
        };
        let index = target.store.index();
        let epoch = self.epoch.epoch_of(delivery.tuple.ts);
        // The field split: probes read `stores` and `pending` while
        // results leave through the emitter's fields.
        let mut emitter = Emitter {
            plan,
            workers: self.workers,
            metrics: &mut self.metrics,
            sinks: &mut self.sinks,
            out,
        };
        let store_id = u64::from(target.store.0);
        // Every result of this delivery is built here, each in the
        // previous one's node once its consumers released it.
        let mut slot = JoinSlot::default();
        let mut emitted = 0;
        match rule {
            Rule::Store => {
                let (Some(store), Some(partition)) = (
                    self.stores.get_mut(index),
                    delivery.partitions.clone().next(),
                ) else {
                    return 0;
                };
                store.insert_seq(partition, epoch, delivery.tuple.clone(), delivery.guard);
                self.trace
                    .record(TraceEventKind::Insert, store_id, delivery.guard);
                let Some(pending) = self.pending.get(index) else {
                    return 0;
                };
                // Each retro-matched prober is one evaluation: its result
                // leaves through the prober's outputs, at its guard, on its
                // own clock read. In arrival order the match would have
                // been counted inside the original probe's observation, so
                // it adds no probe or size.
                pending.retro_matches(
                    store,
                    plan,
                    partition,
                    delivery,
                    |prober, preds, outputs| {
                        let Some(joined) = slot.join(&prober.tuple, &delivery.tuple) else {
                            return;
                        };
                        emitter.dispatch(outputs, joined, prober.guard, prober.started);
                        emitted += emitter.account(outputs, 1, prober.started.elapsed());
                        let prober_epoch = self.epoch.epoch_of(prober.tuple.ts);
                        self.stats.record_probe_obs(prober_epoch, preds, 0, 1, 0);
                    },
                );
            }
            Rule::Probe {
                predicates,
                outputs,
            } => {
                let Some(store) = self.stores.get(index) else {
                    return 0;
                };
                // Epochs that may contain partners: everything from the
                // window horizon up to the probing tuple's own epoch.
                let lo = self.epoch.epoch_of(store.window.horizon(delivery.tuple.ts));
                // Statistics record one probe observation against the
                // whole-store size per logical probe. A broadcast probe is
                // split across the sharing workers, so each contributes its
                // local store slice (the slices sum to the whole store) and
                // only the worker holding partition 0 counts the probe
                // itself. A hashed probe runs on one worker, which
                // extrapolates the whole store size from its shard. (One
                // shard holding every partition counts each probe once, at
                // its true size.)
                let counts_probe =
                    !delivery.broadcast || delivery.partitions.clone().next() == Some(0);
                let est_size = if delivery.broadcast {
                    store.len() as u64
                } else {
                    let sharing = workers_of_store(store.parallelism(), self.workers) as u64;
                    store.len() as u64 * sharing
                };
                let (guard, started) = (delivery.guard, delivery.started);
                let (mut matches, mut joined) = (0u64, 0u64);
                for p in delivery.partitions.clone() {
                    let epochs = (lo.0..=epoch.0).map(Epoch);
                    store.probe_each(p, epochs, &delivery.tuple, predicates, Some(guard), |hit| {
                        matches += 1;
                        if let Some(result) = slot.join(&delivery.tuple, hit) {
                            joined += 1;
                            emitter.dispatch(outputs, result, guard, started);
                        }
                    });
                }
                if counts_probe {
                    emitter.metrics.probes += 1;
                }
                if joined > 0 {
                    // The evaluation's one clock read, stamping its trace
                    // event too.
                    let now = Instant::now();
                    self.trace
                        .record_at(TraceEventKind::Probe, now, store_id, matches);
                    let latency = now.saturating_duration_since(started);
                    emitted += emitter.account(outputs, joined, latency);
                } else {
                    // A miss takes no clock read, traced or not.
                    let kind = TraceEventKind::Probe;
                    self.trace.record_after(kind, started, store_id, matches);
                }
                let probes = u64::from(counts_probe);
                self.stats
                    .record_probe_obs(epoch, predicates, probes, matches, est_size);
                // Register the probe for retroactive completion: a
                // later-arriving insert with a smaller guard must still
                // find it (via the join-key index when the probe carries
                // one) — if one can still arrive, on whatever path and at
                // whatever store. Every delivery is accounted to a root at
                // or below its guard (a retro-produced result carries the
                // prober's guard, which exceeds the late insert's root), so
                // once every root below `guard` has completed (`watermark
                // >= guard - 1`) nothing in flight or yet to be produced has
                // a smaller guard: the prober is already dead by the rule
                // `PendingSet::gc` drops it under, and is not registered.
                if guard > watermark + 1 {
                    // Join key: stored-side accessor and probe-side value
                    // of the first predicate.
                    let key = store.predicate_sides(predicates).next().and_then(
                        |(stored_side, probe_side)| {
                            SlotAccessor::of(&probe_side)
                                .get(&delivery.tuple)
                                .map(|v| (SlotAccessor::of(&stored_side), v.clone()))
                        },
                    );
                    let prober = PendingProber {
                        guard,
                        tuple: delivery.tuple.clone(),
                        partitions: delivery.partitions.clone(),
                        edge: target.edge,
                        started,
                    };
                    if let Some(pending) = self.pending.get_mut(index) {
                        pending.register(prober, key);
                    }
                }
            }
        }
        emitted
    }

    /// [`Self::sweep_probers`], amortized for the per-message path: skipped
    /// until [`PROBER_GC_STRIDE`] more roots have completed since the last
    /// sweep (which also covers "the watermark has not moved").
    pub fn gc_probers(&mut self, watermark: u64) {
        if watermark >= self.swept_at + PROBER_GC_STRIDE {
            self.sweep_probers(watermark);
        }
    }

    /// Drops pending probers that can no longer receive late inserts: all
    /// roots below their guard have completed (watermark >= guard - 1).
    /// Barriers call this directly, so a drained engine holds no probers.
    pub fn sweep_probers(&mut self, watermark: u64) {
        self.swept_at = watermark;
        for pending in &mut self.pending {
            pending.gc(watermark);
        }
    }

    /// Expires out-of-window tuples from every owned partition, given the
    /// maximum stream timestamp observed so far, then closes the epochs
    /// that lag `upto`'s epoch by more than `freeze_after`
    /// ([`StoreInstance::freeze_before`]), so a probe skips them all when
    /// their union bloom rejects its key.
    pub fn expire(&mut self, upto: Timestamp) -> usize {
        let clock = self.epoch.epoch_of(upto).0;
        let close_below =
            (self.freeze_after > 0).then(|| Epoch(clock.saturating_sub(self.freeze_after)));
        let mut removed = 0;
        for (id, store) in self.stores.iter_mut().enumerate() {
            removed += store.expire(store.window.horizon(upto));
            let closed = close_below.map_or(0, |horizon| store.freeze_before(horizon));
            if closed > 0 {
                self.trace
                    .record(TraceEventKind::Close, id as u64, closed as u64);
            }
        }
        self.trace.record(TraceEventKind::Expire, removed as u64, 0);
        removed
    }

    /// Takes everything the shard accumulated since the last report, plus
    /// what it holds now. Every barrier reply is one of these, so no delta
    /// can be taken on one path and forgotten on another; the local engine
    /// reads the same store walk without taking anything.
    pub fn report(&mut self, expired: usize) -> ShardReport {
        ShardReport {
            metrics: std::mem::take(&mut self.metrics),
            stats: self.stats.take_delta(),
            stores: self.store_detail(),
            expired,
            trace: self.trace.drain(),
            // Thread-local: meaningful only when sampled on the thread
            // that runs the shard.
            arena: arena_stats(),
        }
    }

    /// Per-store size and index shape of this shard, in store id order:
    /// the one walk of the stores every total and gauge is read from.
    pub fn store_detail(&self) -> Vec<StoreDetail> {
        self.stores
            .iter()
            .enumerate()
            .map(|(id, store)| {
                let (posting_lists, spilled_postings) = store.posting_stats();
                StoreDetail {
                    store: StoreId::from(id),
                    tuples: store.len(),
                    bytes: store.bytes(),
                    posting_lists,
                    spilled_postings,
                }
            })
            .collect()
    }
}

/// What a shard hands over at a barrier.
#[derive(Debug)]
pub(crate) struct ShardReport {
    /// Metrics delta since the last report.
    pub metrics: EngineMetrics,
    /// Statistics delta since the last report.
    pub stats: StatsCollector,
    /// What the shard holds of every store, in store id order.
    pub stores: Vec<StoreDetail>,
    /// Tuples removed by the counted expiry of this barrier.
    pub expired: usize,
    /// Trace events recorded since the last report.
    pub trace: Vec<TraceEvent>,
    /// The reporting thread's arena counters (cumulative).
    pub arena: ArenaStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_catalog::{Catalog, Statistics};
    use clash_common::{QueryId, RelationId, TupleBuilder, Window};
    use clash_optimizer::{Planner, Strategy};
    use clash_query::parse_query;

    /// One shard owning every partition of `R(a) ⋈ S(a)`, and the two
    /// relations.
    fn two_way_shard() -> (Catalog, ShardState, RelationId, RelationId) {
        two_way_shard_over(Window::secs(3600))
    }

    fn two_way_shard_over(window: Window) -> (Catalog, ShardState, RelationId, RelationId) {
        let mut catalog = Catalog::new();
        catalog.register("R", ["a"], window, 2).unwrap();
        catalog.register("S", ["a"], window, 2).unwrap();
        let query = parse_query(&catalog, QueryId::new(0), "q", "R(a), S(a)").unwrap();
        let stats = Statistics::new();
        let plan = Planner::with_defaults(&catalog, &stats)
            .plan(&[query], Strategy::Shared)
            .unwrap()
            .plan;
        let installed = crate::plan::prepare(&catalog, plan).unwrap();
        let shard = ShardState::new(1, installed, &EngineConfig::default(), 0);
        let r = catalog.relation_id("R").unwrap();
        let s = catalog.relation_id("S").unwrap();
        (catalog, shard, r, s)
    }

    /// Routes one root like an ingest would and runs its deliveries
    /// through the kernel at `watermark`; returns the results emitted.
    fn ingest(
        catalog: &Catalog,
        shard: &mut ShardState,
        relation: RelationId,
        ts: u64,
        guard: u64,
        watermark: u64,
    ) -> u64 {
        let schema = &catalog.relation(relation).unwrap().schema;
        let tuple = TupleBuilder::new(schema, Timestamp::from_millis(ts))
            .set("a", 7i64)
            .build();
        let mut deliveries = Vec::new();
        shard.route(relation, &tuple, guard, Instant::now(), |_, d| {
            deliveries.push(d)
        });
        deliveries
            .iter()
            .map(|d| {
                shard.process(d, watermark, &mut |_, _| {
                    panic!("two-way plans forward nothing")
                })
            })
            .sum()
    }

    fn registered(shard: &ShardState) -> usize {
        shard
            .pending
            .iter()
            .map(|p| {
                p.unkeyed.len()
                    + p.keyed
                        .values()
                        .flatten()
                        .map(|(_, v)| v.len())
                        .sum::<usize>()
            })
            .sum()
    }

    #[test]
    fn a_probe_no_late_insert_can_reach_is_not_registered() {
        // Watermark 5: every root up to 5 has completed everywhere. A
        // probe at guard 6 could only be retro-matched by an insert with
        // guard <= 5, and none can still arrive.
        let (catalog, mut shard, r, _) = two_way_shard();
        assert_eq!(ingest(&catalog, &mut shard, r, 20, 6, 5), 0);
        assert_eq!(registered(&shard), 0, "guard == watermark + 1");
    }

    #[test]
    fn a_reachable_probe_registers_and_is_retro_matched_exactly_once() {
        let (catalog, mut shard, r, s) = two_way_shard();
        // Root 6 is still in flight somewhere, so the probe of root 7
        // must wait for it.
        assert_eq!(ingest(&catalog, &mut shard, r, 20, 7, 5), 0);
        assert_eq!(registered(&shard), 1, "guard == watermark + 2");
        // Root 6's insert arrives late (older timestamp, smaller guard):
        // it finds nothing stored to probe, and retro-matches root 7.
        assert_eq!(ingest(&catalog, &mut shard, s, 10, 6, 5), 1);
        // The pair is now settled: sweeping, re-sweeping and later probes
        // see the insert in the store, never the prober again.
        shard.sweep_probers(6);
        assert_eq!(registered(&shard), 0, "dropped by the mirrored rule");
        assert_eq!(ingest(&catalog, &mut shard, s, 30, 8, 7), 1, "S@8 x R@7");
        assert_eq!(
            ingest(&catalog, &mut shard, r, 40, 9, 8),
            2,
            "R@9 x S@6, S@8"
        );
        assert_eq!(shard.metrics.total_results(), 4);
    }

    #[test]
    fn a_late_insert_records_one_retro_observation_per_matching_prober() {
        // Two R probers keyed on the one value 7 wait at the S store; a
        // late S insert retro-matches both. The statistics must be what
        // recording every hit on its own gives: the S insert's own probe
        // (nothing visible yet, two R tuples stored) plus one
        // match-without-probe per hit, in the probers' epoch.
        let (catalog, mut shard, r, s) = two_way_shard();
        assert_eq!(ingest(&catalog, &mut shard, r, 20, 7, 5), 0);
        assert_eq!(ingest(&catalog, &mut shard, r, 30, 8, 5), 0);
        assert_eq!(registered(&shard), 2);
        shard.stats.take_delta();
        assert_eq!(ingest(&catalog, &mut shard, s, 10, 6, 5), 2);
        let plan = Arc::clone(shard.plan());
        let probe_predicates = |relation| {
            plan.ingest_for(relation)
                .iter()
                .find_map(|t| match plan.rule(t.store, t.edge) {
                    Some(Rule::Probe { predicates, .. }) => Some(predicates.clone()),
                    _ => None,
                })
                .unwrap()
        };
        let config = EngineConfig::default();
        let at = |ms| config.epoch.epoch_of(Timestamp::from_millis(ms));
        let mut per_hit = StatsCollector::new(config.epoch.length);
        per_hit.record_probe_obs(at(10), &probe_predicates(s), 1, 0, 2);
        for prober_ts in [20, 30] {
            per_hit.record_probe_obs(at(prober_ts), &probe_predicates(r), 0, 1, 0);
        }
        assert_eq!(shard.stats, per_hit);
    }

    #[test]
    fn a_late_insert_retro_matches_exactly_what_the_forward_probe_would_have() {
        // One R root at (5 s, guard 10) and one S root around it, over a
        // 1 s window, delivered in both orders with no root completed: the
        // pair joins exactly once whichever arrives first, iff the
        // timestamps differ by at most the window (edge included) and the
        // newer tuple's root follows the older one's.
        let window = Window::secs(1);
        let (r_ts, r_guard) = (5_000u64, 10);
        for s_ts in [3_999u64, 4_000, 4_999, 5_000, 5_001, 6_000, 6_001] {
            for s_guard in [9, 10, 11] {
                let (older, newer) = if s_ts < r_ts {
                    (s_guard, r_guard)
                } else {
                    (r_guard, s_guard)
                };
                let expected =
                    u64::from(s_ts != r_ts && s_ts.abs_diff(r_ts) <= 1_000 && older < newer);
                let (catalog, mut forward, r, s) = two_way_shard_over(window);
                let stored_first = ingest(&catalog, &mut forward, s, s_ts, s_guard, 0)
                    + ingest(&catalog, &mut forward, r, r_ts, r_guard, 0);
                let (catalog, mut late, r, s) = two_way_shard_over(window);
                let probed_first = ingest(&catalog, &mut late, r, r_ts, r_guard, 0)
                    + ingest(&catalog, &mut late, s, s_ts, s_guard, 0);
                let case = format!("S at ({s_ts} ms, guard {s_guard})");
                assert_eq!(stored_first, expected, "{case}, stored first");
                assert_eq!(probed_first, expected, "{case}, probed first");
            }
        }
    }
}
