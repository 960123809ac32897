//! Partitioned relation stores: one arrival-order log per partition, with
//! one hash index per indexed attribute beside it.
//!
//! Algorithm 4 stores and probes "with respect to an epoch". Each stored
//! entry keeps the epoch it was stored under, and a probe names the
//! contiguous run of epochs it reads; but the epoch is a label checked per
//! candidate, not a container. A partition holds one log of `{tuple, seq,
//! epoch}` entries in arrival order (a `VecDeque` plus the absolute
//! position of its front entry) and, per indexed attribute, one map from
//! value to the ascending absolute positions holding it. A probe therefore
//! costs one map lookup however many epochs its window spans, then the
//! epoch, `visible` and predicate checks on each candidate. The probe
//! hot path allocates nothing: candidates are borrowed posting lists
//! (unindexed attributes scan the log), the driving predicate is resolved
//! once per probe on the stack, and matches are handed to the caller's
//! visitor as they are found.
//!
//! Expiry is exact (DESIGN.md, "Window state"). While a partition's log is
//! in timestamp order, the expired entries are a prefix: the sweep pops
//! it, then trims each posting list the popped entries touch once, since
//! stale positions form a prefix of every list. A log that received an
//! out-of-order insert is compacted instead when an expired entry sits
//! behind a survivor: survivors keep their order and the posting lists are
//! remapped to their new positions.
//!
//! Hashing cost is kept off the per-tuple path three ways:
//!
//! * the per-value maps hash with [`clash_common::FxHasher`] instead of
//!   SipHash (trusted keys — see the fxhash module docs),
//! * the *outer* per-attribute level is not a map at all: a store indexes
//!   a handful of attributes, so each partition keeps its value maps in a
//!   `Vec` positionally aligned with the store's `indexed_attrs`, and
//!   probes resolve their attribute to a position **once**, and
//! * posting lists are small-inline ([`PostingList`]): a distinct
//!   join-key value only costs a heap allocation once it exceeds
//!   [`clash_common::INLINE_POSTINGS`] matches.

use clash_common::{
    fx_hash, AttrRef, Epoch, FxHashMap, PostingList, SlotAccessor, Timestamp, Tuple, Value, Window,
};
use clash_query::{EquiPredicate, StoreDescriptor};
use std::collections::VecDeque;
use std::ops::RangeInclusive;

/// An attribute a store maintains a hash index over, with its precomputed
/// positional accessor (resolved once per store, reused for every insert
/// and index rebuild).
#[derive(Debug, Clone, Copy)]
struct IndexedAttr {
    attr: AttrRef,
    slot: SlotAccessor,
}

impl IndexedAttr {
    fn new(attr: AttrRef) -> IndexedAttr {
        IndexedAttr {
            attr,
            slot: SlotAccessor::of(&attr),
        }
    }
}

/// One stored tuple.
#[derive(Debug)]
struct Entry {
    tuple: Tuple,
    /// Ingest sequence number of the root tuple that caused the insertion
    /// (the rule kernel's ordering guard; `0` for direct
    /// [`StoreInstance::insert`]s).
    seq: u64,
    /// The epoch the tuple was stored with respect to: a probe sees it
    /// only when its run of epochs includes this one.
    epoch: Epoch,
}

/// One partition of a store: its entries in arrival order, and per
/// indexed attribute one value → positions map over all of them.
#[derive(Debug, Default)]
struct Partition {
    /// Entries in arrival order; `log[i]` sits at absolute position
    /// `front + i`.
    log: VecDeque<Entry>,
    /// Absolute position of the log's front entry.
    front: usize,
    /// Per-attribute value indexes, positionally aligned with the store's
    /// `indexed_attrs`; each posting list holds ascending absolute
    /// positions, none of them before `front`.
    indexes: Vec<FxHashMap<Value, PostingList>>,
    /// Approximate bytes of the stored tuples.
    bytes: usize,
    /// Whether some entry carries a smaller timestamp than one before it,
    /// so the expired entries need not be a prefix of the log.
    disordered: bool,
}

impl Partition {
    fn new(positions: usize) -> Partition {
        Partition {
            indexes: (0..positions).map(|_| FxHashMap::default()).collect(),
            ..Partition::default()
        }
    }

    fn insert(&mut self, entry: Entry, indexed_attrs: &[IndexedAttr]) {
        let pos = self.front + self.log.len();
        self.disordered |= self
            .log
            .back()
            .is_some_and(|last| entry.tuple.ts < last.tuple.ts);
        self.bytes += entry.tuple.approx_size_bytes();
        for (by_value, indexed) in self.indexes.iter_mut().zip(indexed_attrs) {
            if let Some(value) = indexed.slot.get(&entry.tuple) {
                // Index keys are cheap clones: `Value::Str` shares its
                // `Arc<str>` with the stored tuple, never reallocating the
                // string payload.
                by_value.entry(value.clone()).or_default().push(pos);
            }
        }
        self.log.push_back(entry);
    }

    /// Drops the entries older than `horizon`; returns how many.
    fn expire(&mut self, horizon: Timestamp, indexed_attrs: &[IndexedAttr]) -> usize {
        let cut = self.log.iter().take_while(|e| e.tuple.ts < horizon).count();
        if self.disordered {
            let rest = self.log.range(cut..);
            if rest.clone().any(|e| e.tuple.ts < horizon) {
                return self.compact(horizon);
            }
            self.disordered = !rest.is_sorted_by_key(|e| e.tuple.ts);
        }
        if cut == 0 {
            return 0;
        }
        // Trim before popping, while the popped entries still name the
        // lists they touch. The first visit of a list drops its whole
        // stale prefix; later visits of the same list find none, so each
        // list is trimmed once per sweep, not once per expired entry.
        let front = self.front + cut;
        for (by_value, indexed) in self.indexes.iter_mut().zip(indexed_attrs) {
            for entry in self.log.range(..cut) {
                let Some(value) = indexed.slot.get(&entry.tuple) else {
                    continue;
                };
                if let Some(postings) = by_value.get_mut(value) {
                    postings.trim_below(front);
                    if postings.is_empty() {
                        by_value.remove(value);
                    }
                }
            }
        }
        for entry in self.log.drain(..cut) {
            self.bytes -= entry.tuple.approx_size_bytes();
        }
        self.front = front;
        cut
    }

    /// Expiry of a disordered log: keeps the survivors in arrival order,
    /// renumbered from the current front, and remaps every posting list to
    /// their new positions.
    fn compact(&mut self, horizon: Timestamp) -> usize {
        const EXPIRED: usize = usize::MAX;
        let mut remap = Vec::with_capacity(self.log.len());
        let mut kept = self.front;
        for entry in &self.log {
            if entry.tuple.ts < horizon {
                self.bytes -= entry.tuple.approx_size_bytes();
                remap.push(EXPIRED);
            } else {
                remap.push(kept);
                kept += 1;
            }
        }
        let removed = self.log.len() - (kept - self.front);
        self.log.retain(|e| e.tuple.ts >= horizon);
        let front = self.front;
        for by_value in &mut self.indexes {
            by_value.retain(|_, postings| {
                postings.retain_map(|pos| {
                    let new = remap[pos - front];
                    (new != EXPIRED).then_some(new)
                });
                !postings.is_empty()
            });
        }
        self.disordered = !self.log.iter().is_sorted_by_key(|e| e.tuple.ts);
        removed
    }

    /// Builds the index of an attribute registered after entries were
    /// stored (a later-installed plan probes on a new attribute).
    fn index_attr(&mut self, indexed: &IndexedAttr) {
        let mut by_value: FxHashMap<Value, PostingList> = FxHashMap::default();
        for (i, entry) in self.log.iter().enumerate() {
            if let Some(value) = indexed.slot.get(&entry.tuple) {
                by_value
                    .entry(value.clone())
                    .or_default()
                    .push(self.front + i);
            }
        }
        self.indexes.push(by_value);
    }
}

/// Where a probe finds its candidates, resolved once on the stack before
/// it reads the partition ([`StoreInstance::probe_key`]).
#[derive(Clone, Copy)]
enum Lookup<'t> {
    /// The posting list of the driving value at this index position: the
    /// driving predicate is the first, and its stored-side attribute is
    /// indexed.
    Index(usize, &'t Value),
    /// Every entry of the partition: no predicate, or an unindexed
    /// driving attribute.
    Scan,
}

/// The one visibility rule of a probe: a stored tuple may join a probing
/// one iff it is strictly older (the prober is the newest constituent of
/// the result), inside `window` measured back from the prober (edge
/// included), and — when the prober carries an ordering guard — stored by
/// a strictly earlier root (`stored_guard < probe_guard`; timestamps alone
/// cannot express arrival order when shards race ahead of each other).
/// The probe and the parallel engine's retroactive match of a late insert
/// both decide through this function, so a late insert retro-matches
/// exactly what the forward probe would have.
#[inline]
pub(crate) fn visible(
    window: Window,
    stored_ts: Timestamp,
    stored_guard: u64,
    probe_ts: Timestamp,
    probe_guard: Option<u64>,
) -> bool {
    stored_ts < probe_ts
        && window.contains(probe_ts, stored_ts)
        && probe_guard.is_none_or(|guard| stored_guard < guard)
}

/// A store holding the tuples of one (possibly intermediate) relation,
/// split into `parallelism` partitions, each one log with its indexes;
/// every entry keeps the epoch it was stored with respect to (Algorithm 4).
#[derive(Debug)]
pub struct StoreInstance {
    /// The store's descriptor (relations, partitioning, parallelism).
    pub descriptor: StoreDescriptor,
    /// Window governing expiry of stored tuples.
    pub window: Window,
    /// Attributes indexed for probing, with precomputed slot accessors.
    indexed_attrs: Vec<IndexedAttr>,
    partitions: Vec<Partition>,
    /// Live tuples, maintained by insert and expiry, so [`Self::len`] —
    /// read once per probe for the statistics observation — never walks
    /// the partitions.
    tuples: usize,
}

/// Hash used for partition routing (stable across the process — and, with
/// the deterministic Fx hasher, across processes too). The router pays
/// this per routed tuple, so it must not cost a keyed SipHash: routing
/// keys are trusted internal values, making the fast hasher safe here.
pub fn partition_hash(value: &Value, parallelism: usize) -> usize {
    if parallelism <= 1 {
        return 0;
    }
    (fx_hash(value) as usize) % parallelism
}

impl StoreInstance {
    /// Creates an empty store.
    pub fn new(descriptor: StoreDescriptor, window: Window, indexed_attrs: Vec<AttrRef>) -> Self {
        let parallelism = descriptor.parallelism.max(1);
        let indexed_attrs: Vec<IndexedAttr> =
            indexed_attrs.into_iter().map(IndexedAttr::new).collect();
        StoreInstance {
            descriptor,
            window,
            partitions: (0..parallelism)
                .map(|_| Partition::new(indexed_attrs.len()))
                .collect(),
            indexed_attrs,
            tuples: 0,
        }
    }

    /// Closes nothing and returns 0: a partition keeps one index across
    /// all its epochs, so an epoch lagging the stream clock has nothing to
    /// close. Kept for callers that replay the engine's sweep cadence.
    pub fn freeze_before(&mut self, _horizon: Epoch) -> usize {
        0
    }

    /// Registers an additional indexed attribute (rules installed later may
    /// probe on new attributes). Only the new attribute's index is built
    /// over the stored entries; established indexes are left untouched.
    pub fn add_indexed_attr(&mut self, attr: AttrRef) {
        if self.indexed_attrs.iter().any(|i| i.attr == attr) {
            return;
        }
        let indexed = IndexedAttr::new(attr);
        self.indexed_attrs.push(indexed);
        for partition in &mut self.partitions {
            partition.index_attr(&indexed);
        }
    }

    /// Number of partitions.
    pub fn parallelism(&self) -> usize {
        self.partitions.len()
    }

    /// The partition an arriving tuple belongs to, given the routing key
    /// resolved by the optimizer (`None` = broadcast is decided by the
    /// caller; storing falls back to partition 0).
    pub fn partition_for(&self, tuple: &Tuple) -> usize {
        match self.descriptor.partition {
            Some(attr) => match tuple.get(&attr) {
                Some(v) => partition_hash(v, self.parallelism()),
                None => 0,
            },
            None => 0,
        }
    }

    /// Inserts a tuple into the given epoch and partition.
    pub fn insert(&mut self, partition: usize, epoch: Epoch, tuple: Tuple) {
        self.insert_seq(partition, epoch, tuple, 0);
    }

    /// Inserts a tuple tagged with the ingest sequence number of its root
    /// input tuple; the rule kernel uses the tag to restrict probes to
    /// strictly earlier arrivals (see [`Self::probe_each`]).
    pub fn insert_seq(&mut self, partition: usize, epoch: Epoch, tuple: Tuple, seq: u64) {
        let p = partition.min(self.partitions.len().saturating_sub(1));
        let entry = Entry { tuple, seq, epoch };
        self.partitions[p].insert(entry, &self.indexed_attrs);
        self.tuples += 1;
    }

    /// Probes one partition across the given epochs, read as the
    /// contiguous run from the smallest to the largest: returns all stored
    /// tuples that satisfy every predicate against `probe`, arrived
    /// strictly before the probing tuple and lie within the window. A
    /// collecting wrapper over [`Self::probe_each`] (without an ordering
    /// guard) for callers that want the matches as values.
    pub fn probe(
        &self,
        partition: usize,
        epochs: &[Epoch],
        probe: &Tuple,
        predicates: &[EquiPredicate],
    ) -> Vec<Tuple> {
        let mut matches = Vec::new();
        if let (Some(&lo), Some(&hi)) = (epochs.iter().min(), epochs.iter().max()) {
            self.probe_each(partition, lo..=hi, probe, predicates, None, |hit| {
                matches.push(hit.clone())
            });
        }
        matches
    }

    /// Resolves, for each predicate, which attribute lives on this store's
    /// relation set (stored side) and which on the probing tuple (probe
    /// side).
    pub fn predicate_sides<'a>(
        &self,
        predicates: &'a [EquiPredicate],
    ) -> impl Iterator<Item = (AttrRef, AttrRef)> + 'a {
        let relations = self.descriptor.relations;
        predicates.iter().map(move |pred| {
            if relations.contains(pred.left.relation) {
                (pred.left, pred.right)
            } else {
                (pred.right, pred.left)
            }
        })
    }

    /// Whether every predicate past the first `skip` holds between a
    /// stored candidate, read through `stored`, and the probing tuple. The
    /// one predicate check of the probe and the parallel runtime's
    /// retroactive match, so the two cannot drift apart.
    pub(crate) fn predicates_hold<'v>(
        &self,
        predicates: &[EquiPredicate],
        skip: usize,
        probe: &Tuple,
        stored: impl Fn(&AttrRef) -> Option<&'v Value>,
    ) -> bool {
        self.predicate_sides(predicates)
            .skip(skip)
            .all(|(stored_side, probe_side)| {
                matches!(
                    (stored(&stored_side), probe.get(&probe_side)),
                    (Some(sv), Some(pv)) if sv.join_eq(pv)
                )
            })
    }

    /// Probes one partition and hands every match to `visit` the moment
    /// it is found: each stored tuple that was stored with respect to an
    /// epoch in `epochs`, satisfies every predicate against `probe` and is
    /// [`visible`] to it — strictly older, inside the window and, under an
    /// ordering `guard`, stored by a root with a strictly smaller ingest
    /// sequence number ("probe only earlier arrivals", which holds by
    /// construction when tuples are processed one at a time and must be
    /// enforced when shards race ahead of each other).
    ///
    /// A match is lent by reference (no refcount bump), in arrival order.
    /// The probe allocates nothing: the driving predicate is resolved once
    /// on the stack ([`Self::probe_key`]) into one index lookup for the
    /// whole partition, and any further predicate is read per candidate.
    pub fn probe_each(
        &self,
        partition: usize,
        epochs: RangeInclusive<Epoch>,
        probe: &Tuple,
        predicates: &[EquiPredicate],
        guard: Option<u64>,
        mut visit: impl FnMut(&Tuple),
    ) {
        let p = partition.min(self.partitions.len().saturating_sub(1));
        let Some(lookup) = self.probe_key(probe, predicates) else {
            return;
        };
        let part = &self.partitions[p];
        // One match check for the indexed and the scan path, past the
        // `proven` leading predicates: an index *hit* already proves the
        // driving predicate (the index key equals the probe value, both
        // non-Null, and map equality coincides with `join_eq` for
        // non-Null values), so hit candidates skip it.
        let mut consider = |entry: &Entry, proven: usize| {
            let stored = &entry.tuple;
            if epochs.contains(&entry.epoch)
                && visible(self.window, stored.ts, entry.seq, probe.ts, guard)
                && self.predicates_hold(predicates, proven, probe, |attr| stored.get(attr))
            {
                visit(stored);
            }
        };
        match lookup {
            Lookup::Index(pos, value) => {
                if let Some(postings) = part.indexes[pos].get(value) {
                    for &pos in postings.as_slice() {
                        consider(&part.log[pos - part.front], 1);
                    }
                }
            }
            Lookup::Scan => part.log.iter().for_each(|entry| consider(entry, 0)),
        }
    }

    /// Resolves where a probe finds its candidates: `None` when the probe
    /// lacks some predicate's attribute or carries `Null` there (which
    /// never `join_eq`-matches anything), so it is answered empty without
    /// touching state.
    fn probe_key<'t>(&self, probe: &'t Tuple, predicates: &[EquiPredicate]) -> Option<Lookup<'t>> {
        if !self
            .predicate_sides(predicates)
            .all(|(_, probe_side)| probe.get(&probe_side).is_some_and(|v| !v.is_null()))
        {
            return None;
        }
        let lookup =
            self.predicate_sides(predicates)
                .next()
                .and_then(|(stored_side, probe_side)| {
                    let pos = self
                        .indexed_attrs
                        .iter()
                        .position(|i| i.attr == stored_side)?;
                    Some(Lookup::Index(pos, probe.get(&probe_side)?))
                });
        Some(lookup.unwrap_or(Lookup::Scan))
    }

    /// Drops tuples older than `horizon` from every partition — the
    /// expired prefix of an in-order log, every expired entry of a
    /// disordered one — with the indexes repaired in place. Returns the
    /// number of expired tuples.
    pub fn expire(&mut self, horizon: Timestamp) -> usize {
        let removed: usize = self
            .partitions
            .iter_mut()
            .map(|p| p.expire(horizon, &self.indexed_attrs))
            .sum();
        self.tuples -= removed;
        debug_assert_eq!(self.tuples, self.walked_len());
        removed
    }

    /// Number of stored tuples across partitions (a maintained count:
    /// O(1)).
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// [`Self::len`] recounted from the logs — what the maintained count
    /// is checked against in debug builds and tests.
    fn walked_len(&self) -> usize {
        self.partitions.iter().map(|p| p.log.len()).sum()
    }

    /// `true` when the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint of the stored tuples.
    pub fn bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.bytes).sum()
    }

    /// Index shape: `(posting_lists, spilled)` across every partition and
    /// indexed attribute — how many distinct (attribute, value) posting
    /// lists exist and how many have spilled past
    /// [`clash_common::INLINE_POSTINGS`] to a heap vector. Exposed for the
    /// telemetry surface; walks the indexes, so call it at barriers, not
    /// per tuple.
    pub fn posting_stats(&self) -> (usize, usize) {
        let maps = self.partitions.iter().flat_map(|p| &p.indexes);
        maps.fold((0, 0), |(lists, spilled), by_value| {
            let spilled_here = by_value.values().filter(|l| l.is_spilled()).count();
            (lists + by_value.len(), spilled + spilled_here)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::{AttrId, RelationId, RelationSet, Schema, TupleBuilder};

    fn schema_s() -> Schema {
        Schema::new(RelationId::new(1), "S", ["a", "b"])
    }

    fn s_tuple(a: i64, b: i64, ts: u64) -> Tuple {
        TupleBuilder::new(&schema_s(), Timestamp::from_millis(ts))
            .set("a", a)
            .set("b", b)
            .build()
    }

    fn s_store(parallelism: usize) -> StoreInstance {
        let attr_a = AttrRef::new(RelationId::new(1), AttrId::new(0));
        let descriptor = if parallelism > 1 {
            StoreDescriptor::partitioned(
                RelationSet::singleton(RelationId::new(1)),
                attr_a,
                parallelism,
            )
        } else {
            StoreDescriptor::unpartitioned(RelationSet::singleton(RelationId::new(1)))
        };
        StoreInstance::new(descriptor, Window::secs(10), vec![attr_a])
    }

    fn a_attr() -> AttrRef {
        AttrRef::new(RelationId::new(1), AttrId::new(0))
    }

    fn b_attr() -> AttrRef {
        AttrRef::new(RelationId::new(1), AttrId::new(1))
    }

    fn pred_ra_sa() -> EquiPredicate {
        // R.a = S.a with R = relation 0 attr 0, S = relation 1 attr 0.
        EquiPredicate::new(
            AttrRef::new(RelationId::new(0), AttrId::new(0)),
            AttrRef::new(RelationId::new(1), AttrId::new(0)),
        )
    }

    fn r_tuple(a: i64, ts: u64) -> Tuple {
        let schema = Schema::new(RelationId::new(0), "R", ["a"]);
        TupleBuilder::new(&schema, Timestamp::from_millis(ts))
            .set("a", a)
            .build()
    }

    /// A T(b) tuple and the predicate S.b = T.b: probes on the store's
    /// second attribute.
    fn t_probe(b: i64) -> (Tuple, EquiPredicate) {
        let t_schema = Schema::new(RelationId::new(2), "T", ["b"]);
        let probe = TupleBuilder::new(&t_schema, Timestamp::from_millis(900))
            .set("b", b)
            .build();
        let pred = EquiPredicate::new(
            AttrRef::new(RelationId::new(1), AttrId::new(1)),
            AttrRef::new(RelationId::new(2), AttrId::new(0)),
        );
        (probe, pred)
    }

    #[test]
    fn insert_and_probe_matches_on_predicate() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(1, 10, 100));
        store.insert(0, Epoch(0), s_tuple(2, 20, 150));
        store.insert(0, Epoch(0), s_tuple(1, 30, 200));
        assert_eq!(store.len(), 3);
        assert!(store.bytes() > 0);

        let probe = r_tuple(1, 500);
        let matches = store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]);
        assert_eq!(matches.len(), 2, "both S tuples with a=1 match");

        let probe = r_tuple(3, 500);
        assert!(store
            .probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()])
            .is_empty());
    }

    #[test]
    fn probe_only_sees_earlier_tuples_within_window() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(1, 0, 1_000));
        store.insert(0, Epoch(0), s_tuple(1, 0, 30_000));
        // Probe at t=12s: the 1s tuple is outside the 10s window, the 30s
        // tuple arrived later.
        let probe = r_tuple(1, 12_000);
        assert!(store
            .probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()])
            .is_empty());
        // Probe at t=8s sees the 1s tuple.
        let probe = r_tuple(1, 8_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            1
        );
    }

    #[test]
    fn visibility_rule_edges() {
        let window = Window::secs(1);
        let at = Timestamp::from_millis;
        let probe = at(5_000);
        // Equal timestamps never join: the prober must be the newest.
        assert!(!visible(window, probe, 1, probe, Some(10)));
        assert!(!visible(window, at(5_001), 1, probe, Some(10)));
        // The window edge is included, one tick past it is not.
        assert!(visible(window, at(4_000), 1, probe, Some(10)));
        assert!(!visible(window, at(3_999), 1, probe, Some(10)));
        // Equal guards are excluded: only strictly earlier roots count.
        assert!(visible(window, at(4_999), 9, probe, Some(10)));
        assert!(!visible(window, at(4_999), 10, probe, Some(10)));
        assert!(!visible(window, at(4_999), 11, probe, Some(10)));
        // Without a guard only time decides.
        assert!(visible(window, at(4_999), 11, probe, None));
    }

    #[test]
    fn probing_respects_epoch_scoping() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(1, 0, 100));
        store.insert(0, Epoch(1), s_tuple(1, 0, 200));
        let probe = r_tuple(1, 1_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            1
        );
        assert_eq!(
            store
                .probe(0, &[Epoch(0), Epoch(1)], &probe, &[pred_ra_sa()])
                .len(),
            2
        );
        assert!(store
            .probe(0, &[Epoch(5)], &probe, &[pred_ra_sa()])
            .is_empty());
    }

    #[test]
    fn partitioned_store_routes_by_partition_attribute() {
        let mut store = s_store(4);
        let t = s_tuple(42, 7, 100);
        let p = store.partition_for(&t);
        store.insert(p, Epoch(0), t);
        // Probing the right partition finds it, a wrong partition does not.
        let probe = r_tuple(42, 500);
        assert_eq!(
            store.probe(p, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            1
        );
        let other = (p + 1) % 4;
        assert!(store
            .probe(other, &[Epoch(0)], &probe, &[pred_ra_sa()])
            .is_empty());
    }

    #[test]
    fn expiry_removes_old_tuples_and_keeps_probes_working() {
        let mut store = s_store(1);
        for i in 0..10 {
            store.insert(0, Epoch(0), s_tuple(1, i, 100 * i as u64));
        }
        assert_eq!(store.len(), 10);
        let removed = store.expire(Timestamp::from_millis(500));
        assert_eq!(removed, 5);
        assert_eq!(store.len(), 5);
        let probe = r_tuple(1, 10_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            5
        );
        // Expiring everything empties the store.
        store.expire(Timestamp::from_millis(100_000));
        assert!(store.is_empty());
        assert_eq!(store.bytes(), 0);
    }

    /// Expiry pops the log's expired prefix across epochs: the older epoch
    /// goes whole, the boundary epoch loses its expired tuples, the newer
    /// one is untouched, and the positions left in the index all lie at or
    /// past the new front.
    #[test]
    fn expiry_drops_whole_epochs_and_trims_only_the_boundary() {
        let mut store = s_store(1);
        for e in 0..3u64 {
            for i in 0..4 {
                store.insert(0, Epoch(e), s_tuple(1, i, 1_000 * e + 200 * i as u64));
            }
        }
        // Epoch 0 (0–600 ms) lies wholly outside, epoch 1 (1 000–1 600 ms)
        // straddles 1 300 ms, epoch 2 lies wholly inside.
        assert_eq!(store.expire(Timestamp::from_millis(1_300)), 4 + 2);
        let part = &store.partitions[0];
        assert_eq!(part.front, 6);
        let kept: Vec<(Epoch, u64)> = part
            .log
            .iter()
            .map(|e| (e.epoch, e.tuple.ts.as_millis()))
            .collect();
        let expected = [(1, 1_400), (1, 1_600), (2, 2_000), (2, 2_200)];
        assert_eq!(kept[..4], expected.map(|(e, ts)| (Epoch(e), ts)));
        assert_eq!(kept.len(), 6);
        let postings = part.indexes[0].values().flat_map(|l| l.as_slice());
        assert!(postings.copied().all(|pos| pos >= part.front));
        assert_eq!(store.expire(Timestamp::from_millis(1_400)), 0);
        assert_eq!(store.len(), 6);
        let probe = r_tuple(1, 5_000);
        let all = [Epoch(0), Epoch(1), Epoch(2)];
        assert_eq!(store.probe(0, &all, &probe, &[pred_ra_sa()]).len(), 6);
    }

    #[test]
    fn incremental_index_repair_survives_interleaved_expiry_and_inserts() {
        let mut store = s_store(1);
        for i in 0..8 {
            store.insert(0, Epoch(0), s_tuple(i % 3, i, 100 * i as u64));
        }
        // Expire the first half: surviving posting lists must be remapped.
        assert_eq!(store.expire(Timestamp::from_millis(400)), 4);
        // Insert more tuples after the repair; indexes must keep working
        // for both survivors and newcomers.
        for i in 8..12 {
            store.insert(0, Epoch(0), s_tuple(i % 3, i, 100 * i as u64));
        }
        for key in 0..3i64 {
            let probe = r_tuple(key, 10_000);
            let expected = (4..12).filter(|i| i % 3 == key).count();
            assert_eq!(
                store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
                expected,
                "key {key}"
            );
        }
        // A second expiry over the repaired state stays consistent.
        assert_eq!(store.expire(Timestamp::from_millis(900)), 5);
        let probe = r_tuple(0, 10_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            (9..12).filter(|i| i % 3 == 0).count()
        );
    }

    #[test]
    fn out_of_order_expiry_uses_the_general_remap_and_stays_consistent() {
        // Timestamps deliberately interleave so the expired set is NOT a
        // prefix of the container: survivors precede expired tuples.
        let mut store = s_store(1);
        let timestamps = [9_000u64, 100, 8_500, 200, 9_500, 300, 8_800, 400];
        for (i, ts) in timestamps.iter().enumerate() {
            store.insert(0, Epoch(0), s_tuple((i % 2) as i64, i as i64, *ts));
        }
        let removed = store.expire(Timestamp::from_millis(1_000));
        assert_eq!(removed, 4, "the four small timestamps expire");
        assert_eq!(store.len(), 4);
        // Index-driven probes still find exactly the surviving tuples
        // (probe at 10s: every survivor is inside the 10s window).
        let probe = r_tuple(0, 10_000);
        let survivors_key0 = timestamps
            .iter()
            .enumerate()
            .filter(|(i, ts)| **ts >= 1_000 && i % 2 == 0)
            .count();
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            survivors_key0
        );
        // A second, again non-prefix expiry over the repaired state.
        assert_eq!(store.expire(Timestamp::from_millis(8_900)), 2);
        let probe = r_tuple(0, 10_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            2,
            "the ts=9000 and ts=9500 tuples (key 0) survive"
        );
    }

    #[test]
    fn expiry_with_nothing_to_remove_is_a_noop() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(1, 1, 5_000));
        let bytes = store.bytes();
        assert_eq!(store.expire(Timestamp::from_millis(1_000)), 0);
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), bytes);
    }

    #[test]
    fn unindexed_predicate_falls_back_to_scan() {
        // Store indexes only S.a; probe with a predicate on S.b.
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(1, 50, 100));
        store.insert(0, Epoch(0), s_tuple(2, 60, 200));
        let (probe, pred) = t_probe(50);
        let matches = store.probe(0, &[Epoch(0)], &probe, &[pred]);
        assert_eq!(matches.len(), 1, "scan fallback still finds the match");
    }

    #[test]
    fn probe_without_predicates_returns_all_earlier_tuples() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(1, 1, 100));
        store.insert(0, Epoch(0), s_tuple(2, 2, 200));
        let probe = r_tuple(9, 1_000);
        let matches = store.probe(0, &[Epoch(0)], &probe, &[]);
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn adding_indexed_attribute_rebuilds_indexes() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(5, 50, 100));
        store.add_indexed_attr(AttrRef::new(RelationId::new(1), AttrId::new(1)));
        let (probe, pred) = t_probe(50);
        assert_eq!(store.probe(0, &[Epoch(0)], &probe, &[pred]).len(), 1);
    }

    /// `len()` is a maintained count; it must equal the recount after any
    /// interleaving of inserts (late ones included) and expiries.
    #[test]
    fn maintained_len_equals_the_walk_under_random_operations() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut store = s_store(3);
        let mut clock = 0u64;
        let mut late = 0usize;
        for _ in 0..2_000 {
            match next(10) {
                0 | 1 => {
                    store.expire(Timestamp::from_millis(clock.saturating_sub(next(6_000))));
                }
                _ => {
                    clock += next(40);
                    // Up to 2 s late: the log becomes disordered.
                    let ts = clock.saturating_sub(next(2_000));
                    late += usize::from(ts < clock);
                    let t = s_tuple(next(16) as i64, 0, ts);
                    let p = store.partition_for(&t);
                    store.insert(p, Epoch(ts / 1_000), t);
                }
            }
            assert_eq!(store.len(), store.walked_len());
            assert_eq!(store.is_empty(), store.walked_len() == 0);
        }
        assert!(late > 0 && !store.is_empty(), "sequence too tame");
        store.expire(Timestamp::from_millis(u64::MAX / 2));
        assert_eq!((store.len(), store.walked_len()), (0, 0));
    }

    /// `freeze_before` closes nothing, and a tuple that arrives after it
    /// into an epoch the stream has left behind is probed like any other.
    #[test]
    fn late_insert_after_freeze_is_still_probed() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(1, 1, 100));
        store.insert(0, Epoch(1), s_tuple(1, 3, 1_100));
        assert_eq!(store.freeze_before(Epoch(1)), 0);
        store.insert(0, Epoch(0), s_tuple(1, 2, 200));
        let probe = r_tuple(1, 5_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            2
        );
        assert_eq!(store.len(), 3);
    }

    /// Expiry after a `freeze_before` call counts exactly, and the log and
    /// its index empty once the newest tuple leaves the window.
    #[test]
    fn frozen_expiry_counts_exactly_and_drops_wholesale() {
        let mut store = s_store(1);
        for i in 0..10 {
            store.insert(0, Epoch(0), s_tuple(1, i, 100 * i as u64));
        }
        assert_eq!(store.freeze_before(Epoch(1)), 0);
        assert_eq!(store.expire(Timestamp::from_millis(500)), 5);
        assert_eq!(store.len(), 5);
        let probe = r_tuple(1, 10_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            5
        );
        assert_eq!(store.expire(Timestamp::from_millis(100_000)), 5);
        assert!(store.is_empty());
        assert!(store.partitions[0].log.is_empty());
        assert_eq!(store.posting_stats(), (0, 0));
    }

    /// An attribute indexed after expiry moved the log's front indexes
    /// the survivors at their absolute positions, in every epoch.
    #[test]
    fn add_indexed_attr_after_freeze_probes_lazily() {
        let mut store = s_store(1);
        for i in 0..6 {
            store.insert(
                0,
                Epoch(i as u64 / 2),
                s_tuple(5, 50 + i % 2, 100 * i as u64),
            );
        }
        assert_eq!(store.freeze_before(Epoch(2)), 0);
        assert_eq!(store.expire(Timestamp::from_millis(150)), 2);
        store.add_indexed_attr(AttrRef::new(RelationId::new(1), AttrId::new(1)));
        let (probe, pred) = t_probe(50);
        let all = [Epoch(0), Epoch(2)];
        assert_eq!(store.probe(0, &all, &probe, &[pred]).len(), 2);
        assert_eq!(store.probe(0, &[Epoch(2)], &probe, &[pred]).len(), 1);
    }

    /// One posting list per key and partition, however many epochs hold
    /// the key: a key stored in each of 60 one-second epochs owns one
    /// list of 60 positions.
    #[test]
    fn a_key_stored_across_sixty_epochs_owns_one_posting_list() {
        let mut store = s_store(1);
        for e in 0..60u64 {
            store.insert(0, Epoch(e), s_tuple(7, e as i64, 1_000 * e));
        }
        assert_eq!(store.posting_stats(), (1, 1));
        let epochs: Vec<Epoch> = (0..60).map(Epoch).collect();
        let probe = r_tuple(7, 59_500);
        assert_eq!(store.probe(0, &epochs, &probe, &[pred_ra_sa()]).len(), 10);
        store.insert(0, Epoch(59), s_tuple(8, 0, 59_100));
        assert_eq!(store.posting_stats(), (2, 1));
    }

    /// Expiry of an in-order log (prefix pops and list trims) and of an
    /// out-of-order one (compaction) against a scan oracle: the same
    /// counts, sizes and probe results after every operation, and one
    /// posting list per live key, none left behind by a trim.
    #[test]
    fn in_order_and_out_of_order_expiry_match_a_scan_oracle() {
        for max_late in [0u64, 1_500] {
            let mut state = 0x2545_F491_4F6C_DD1Du64 ^ max_late;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let mut store = s_store(2);
            let mut oracle: Vec<Tuple> = Vec::new();
            let mut clock = 0u64;
            let mut disordered = false;
            for step in 0..1_500 {
                if next(8) == 0 {
                    let horizon = Timestamp::from_millis(clock.saturating_sub(next(4_000)));
                    let before = oracle.len();
                    oracle.retain(|t| t.ts >= horizon);
                    assert_eq!(store.expire(horizon), before - oracle.len(), "step {step}");
                } else {
                    clock += 1 + next(30);
                    let ts = clock.saturating_sub(next(max_late + 1));
                    let t = s_tuple(next(12) as i64, step, ts);
                    let p = store.partition_for(&t);
                    store.insert(p, Epoch(ts / 1_000), t.clone());
                    oracle.push(t);
                }
                disordered |= store.partitions.iter().any(|p| p.disordered);
                assert_eq!(store.len(), oracle.len());
                let bytes: usize = oracle.iter().map(Tuple::approx_size_bytes).sum();
                assert_eq!(store.bytes(), bytes);
                let mut keys: Vec<(usize, Option<i64>)> = oracle
                    .iter()
                    .map(|t| {
                        (
                            store.partition_for(t),
                            t.get(&a_attr()).and_then(Value::as_int),
                        )
                    })
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                assert_eq!(store.posting_stats().0, keys.len(), "step {step}");
                if step % 50 != 0 {
                    continue;
                }
                let epochs: Vec<Epoch> = (0..=clock / 1_000 + 1).map(Epoch).collect();
                for key in 0..13 {
                    let probe = r_tuple(key, clock + 1);
                    let p = store.partition_for(&s_tuple(key, 0, 0));
                    let mut got = store.probe(p, &epochs, &probe, &[pred_ra_sa()]);
                    let mut expected: Vec<Tuple> = oracle
                        .iter()
                        .filter(|t| t.get(&a_attr()) == Some(&Value::Int(key)))
                        .filter(|t| visible(store.window, t.ts, 0, probe.ts, None))
                        .cloned()
                        .collect();
                    let order = |t: &Tuple| (t.ts, t.get(&b_attr()).and_then(Value::as_int));
                    got.sort_by_key(order);
                    expected.sort_by_key(order);
                    assert_eq!(got, expected, "step {step}, key {key}, late {max_late}");
                }
            }
            assert_eq!(disordered, max_late > 0);
        }
    }

    #[test]
    fn partition_hash_is_stable_and_bounded() {
        let v = Value::Int(123);
        let a = partition_hash(&v, 7);
        let b = partition_hash(&v, 7);
        assert_eq!(a, b);
        assert!(a < 7);
        assert_eq!(partition_hash(&v, 1), 0);
        assert_eq!(partition_hash(&v, 0), 0);
    }
}
