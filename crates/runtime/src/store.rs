//! Partitioned, epoch-versioned relation stores with hash indexes.
//!
//! The probe hot path is allocation- and hash-lean: candidate lookups
//! borrow the index posting lists instead of cloning them (unindexed
//! attributes return a scan *marker*, never a materialized `0..len`
//! vector), the driving predicate is resolved once per probe on the
//! stack, matches are handed to the caller's visitor as they are found
//! instead of being collected, and window expiry retains tuples in place
//! while repairing the hash indexes incrementally via an old→new offset
//! remap — no drain-and-rebuild.
//!
//! Hashing cost is kept off the per-tuple path three ways:
//!
//! * the per-value maps hash with [`clash_common::FxHasher`] instead of
//!   SipHash (trusted keys — see the fxhash module docs),
//! * the *outer* per-attribute level is not a map at all: a store indexes
//!   a handful of attributes, so each epoch container keeps its value
//!   maps in a `Vec` positionally aligned with the store's
//!   `indexed_attrs`, and probes resolve their attribute to a position
//!   **once** instead of re-hashing an `AttrRef` per epoch, and
//! * posting lists are small-inline ([`PostingList`]): a distinct
//!   join-key value only costs a heap allocation once it exceeds
//!   [`clash_common::INLINE_POSTINGS`] matches.

use clash_common::{
    fx_hash, AttrRef, BloomFilter, Epoch, EpochConfig, FrozenSegment, FxHashMap, PostingList,
    SlotAccessor, Timestamp, Tuple, Value, Window,
};
use clash_optimizer::StoreDescriptor;
use clash_query::EquiPredicate;
use std::sync::Arc;

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

/// Result of an index lookup: either a borrowed posting list, a proof that
/// no stored tuple matches, or a marker that the attribute is unindexed
/// and the caller must scan. Borrowing (instead of the seed's
/// `Vec<usize>` clone per lookup) keeps the probe hot path allocation-free.
enum Candidates<'a> {
    /// Tuples whose indexed value equals the probe value.
    Hit(&'a [usize]),
    /// The attribute is indexed but the value has no entry.
    Miss,
    /// The attribute is not indexed: scan all stored tuples.
    Scan,
}

/// One epoch's worth of stored tuples inside a partition, with hash
/// indexes per indexed attribute (the paper builds an index per distinct
/// attribute access of the registered probe rules).
#[derive(Debug, Default)]
struct EpochContainer {
    tuples: Vec<Tuple>,
    /// Ingest sequence number of the root tuple that caused each insertion
    /// (the rule kernel's ordering guard; `0` for direct [`StoreInstance::insert`]s).
    seqs: Vec<u64>,
    /// Per-attribute value indexes, positionally aligned with the store's
    /// `indexed_attrs` (inserting keys by position avoids hashing an
    /// `AttrRef` per index entry; the value maps use the Fx hasher and
    /// inline posting lists).
    indexes: Vec<FxHashMap<Value, PostingList>>,
    bytes: usize,
}

impl EpochContainer {
    fn insert(&mut self, tuple: Tuple, seq: u64, indexed_attrs: &[IndexedAttr]) {
        if self.indexes.len() < indexed_attrs.len() {
            self.indexes
                .resize_with(indexed_attrs.len(), FxHashMap::default);
        }
        let idx = self.tuples.len();
        self.bytes += tuple.approx_size_bytes();
        for (pos, indexed) in indexed_attrs.iter().enumerate() {
            if let Some(value) = indexed.slot.get(&tuple) {
                // Index keys are cheap clones: `Value::Str` shares its
                // `Arc<str>` with the stored tuple, never reallocating the
                // string payload.
                self.indexes[pos]
                    .entry(value.clone())
                    .or_default()
                    .push(idx);
            }
        }
        self.tuples.push(tuple);
        self.seqs.push(seq);
    }

    /// Candidate matches via the index at attribute position `pos`
    /// (resolved once per probe); borrowed, never cloned.
    fn candidates(&self, pos: usize, value: &Value) -> Candidates<'_> {
        match self.indexes.get(pos) {
            Some(by_value) => match by_value.get(value) {
                Some(postings) => Candidates::Hit(postings.as_slice()),
                None => Candidates::Miss,
            },
            // Containers always carry every registered index (inserts
            // extend, `add_indexed_attr` backfills); a missing position
            // means the attribute is not indexed at all.
            None => Candidates::Scan,
        }
    }

    /// Drops tuples older than `horizon`, retaining survivors in place and
    /// repairing the hash indexes incrementally: posting lists keep their
    /// entries for surviving tuples, remapped to their new offsets instead
    /// of being cleared and rebuilt from scratch.
    ///
    /// Fast path: when the expired tuples form a *prefix* of the container
    /// (every expired tuple precedes every survivor — the steady state for
    /// in-order streams, where arrival order and timestamp order agree),
    /// the remap is a constant subtraction: tuples and seqs shift down via
    /// one `drain` memmove and postings remap with `idx - cutoff`, with no
    /// per-tuple offset table built or consulted. Out-of-order containers
    /// fall back to the general table-driven remap.
    fn expire(&mut self, horizon: Timestamp) -> usize {
        let before = self.tuples.len();
        // One scan: count expired tuples, account their bytes, and find
        // the first survivor — the expired set is a prefix iff the first
        // survivor's offset equals the expired count.
        let mut expired = 0usize;
        let mut freed_bytes = 0usize;
        let mut first_survivor = before;
        for (idx, tuple) in self.tuples.iter().enumerate() {
            if tuple.ts < horizon {
                expired += 1;
                freed_bytes += tuple.approx_size_bytes();
            } else if first_survivor == before {
                first_survivor = idx;
            }
        }
        if expired == 0 {
            return 0;
        }
        self.bytes -= freed_bytes;
        if first_survivor == expired {
            // Prefix case: survivors keep their order, offsets shift by a
            // constant.
            self.tuples.drain(..expired);
            self.seqs.drain(..expired);
            for by_value in &mut self.indexes {
                by_value.retain(|_, postings| {
                    postings.retain_map(|idx| idx.checked_sub(expired));
                    !postings.is_empty()
                });
            }
            return expired;
        }
        // General case: build the old → new offset table.
        const EXPIRED: usize = usize::MAX;
        let mut remap: Vec<usize> = Vec::with_capacity(before);
        let mut kept = 0usize;
        for tuple in &self.tuples {
            if tuple.ts >= horizon {
                remap.push(kept);
                kept += 1;
            } else {
                remap.push(EXPIRED);
            }
        }
        let mut old_idx = 0usize;
        self.tuples.retain(|_| {
            let keep = remap[old_idx] != EXPIRED;
            old_idx += 1;
            keep
        });
        let mut old_idx = 0usize;
        self.seqs.retain(|_| {
            let keep = remap[old_idx] != EXPIRED;
            old_idx += 1;
            keep
        });
        for by_value in &mut self.indexes {
            by_value.retain(|_, postings| {
                postings.retain_map(|idx| {
                    let new_idx = remap[idx];
                    (new_idx != EXPIRED).then_some(new_idx)
                });
                !postings.is_empty()
            });
        }
        expired
    }

    /// Builds the index at attribute position `pos` over the stored tuples
    /// (used when a later-installed plan probes on a new attribute).
    fn index_attr(&mut self, pos: usize, indexed: &IndexedAttr) {
        if self.indexes.len() <= pos {
            self.indexes.resize_with(pos + 1, FxHashMap::default);
        }
        let by_value = &mut self.indexes[pos];
        by_value.clear();
        for (idx, tuple) in self.tuples.iter().enumerate() {
            if let Some(value) = indexed.slot.get(tuple) {
                by_value.entry(value.clone()).or_default().push(idx);
            }
        }
    }
}

/// One frozen epoch of a partition: the immutable segment — shared with
/// every tuple a probe hit handed out of it — plus this store's expiry
/// cursor over its ts-sorted rows. The cursor lives here because expiry is
/// the store's decision; the segment's rows stay readable below it for as
/// long as a leaf pins them.
#[derive(Debug)]
struct ColdEpoch {
    segment: Arc<FrozenSegment>,
    /// First live row; rows `< start` are expired. Only moves forward.
    start: usize,
}

impl ColdEpoch {
    fn live_len(&self) -> usize {
        self.segment.len() - self.start
    }

    fn bytes(&self) -> usize {
        self.segment.bytes_from(self.start)
    }

    /// Advances the cursor past rows older than `horizon`; returns how
    /// many rows this call expired (exact, so engine removal accounting
    /// matches the live tier's).
    fn expire(&mut self, horizon: Timestamp) -> usize {
        let new_start = self.segment.expired_before(horizon).max(self.start);
        let removed = new_start - self.start;
        self.start = new_start;
        removed
    }
}

/// What a probe resolves once, on the stack, before walking its epochs
/// ([`StoreInstance::probe_key`]).
#[derive(Clone, Copy)]
struct ProbeKey<'t> {
    /// The driving predicate — the first, whose stored-side attribute
    /// drives the index lookup — as (stored-side attribute, probe value).
    drive: Option<(AttrRef, &'t Value)>,
    /// The driving attribute's index position.
    index_pos: Option<usize>,
    /// That position and the driving value's hash, when the partition has
    /// a frozen tier.
    indexed: Option<(usize, u64)>,
    /// Whether any frozen segment of the partition can hold the driving
    /// value.
    try_frozen: bool,
}

/// The one visibility rule of a probe: a stored tuple may join a probing
/// one iff it is strictly older (the prober is the newest constituent of
/// the result), inside `window` measured back from the prober (edge
/// included), and — when the prober carries an ordering guard — stored by
/// a strictly earlier root (`stored_guard < probe_guard`; timestamps alone
/// cannot express arrival order when shards race ahead of each other).
/// The hot probe, the frozen probe and the parallel engine's retroactive
/// match of a late insert all decide through this function, so a late
/// insert retro-matches exactly what the forward probe would have.
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

/// Shortest window, in epochs, whose store the expiry sweep freezes
/// ([`StoreInstance::spans_cold_tier`]). A frozen epoch pays back only
/// when probes walk many of them: the union bloom answers a miss once for
/// every cold epoch, while each sweep rewrites an epoch into columns and
/// each frozen hit allocates a segment-backed leaf. Read off the
/// `tier_policy` rows of `BENCH_hotpath.json` (the kernel replay's
/// five-query plan on `LocalEngine`, every store frozen at lag 1 vs. hot
/// only, tiered/hot throughput): hit-heavy 0.82 / 0.77 / 0.81 at 5 / 10 /
/// 20 epochs; miss-heavy 0.75 / 0.78 / 0.93 / 0.94 at 5–30, 1.00 at 40,
/// 1.07 at 50 and 1.12 at 60. Earlier regenerations agreed: hot won
/// every row through 30 and 40 was parity (0.88–1.08) in seven, the tier
/// won at 50 in three (1.00–1.03) and at 60 in seven (1.03–1.36).
pub const FREEZE_MIN_WINDOW_EPOCHS: u64 = 50;

/// A store holding the tuples of one (possibly intermediate) relation,
/// split into `parallelism` partitions, each keeping an independent
/// container per epoch (Algorithm 4 stores and probes "with respect to an
/// epoch").
#[derive(Debug)]
pub struct StoreInstance {
    /// The store's descriptor (relations, partitioning, parallelism).
    pub descriptor: StoreDescriptor,
    /// Window governing expiry of stored tuples.
    pub window: Window,
    /// Attributes indexed for probing, with precomputed slot accessors.
    indexed_attrs: Vec<IndexedAttr>,
    /// Hot tier: partition -> epoch -> live container.
    partitions: Vec<FxHashMap<Epoch, EpochContainer>>,
    /// Cold tier: partition -> epoch -> frozen columnar segment (built by
    /// [`Self::freeze_before`]). An epoch may appear in both tiers when a
    /// late tuple arrives after its freeze — probes check both.
    frozen: Vec<FxHashMap<Epoch, ColdEpoch>>,
    /// Tier-level probe pruning: per partition, per indexed-attribute
    /// position, a bloom over the union of every frozen segment's index
    /// hashes. One check answers "no frozen segment of this partition
    /// holds the key" before the per-epoch loop runs, so a cold miss
    /// costs O(1) instead of O(epochs). `None` = pruning unavailable for
    /// that position (some segment froze before it was registered);
    /// rebuilt whenever the partition's segment set changes.
    frozen_blooms: Vec<Vec<Option<BloomFilter>>>,
    /// Segments built over the store's lifetime (monotone counter).
    compactions: u64,
    /// Live tuples across both tiers, maintained by insert and expiry
    /// (freezing moves tuples between tiers without changing the count),
    /// so [`Self::len`] — read once per probe for the statistics
    /// observation — never walks the containers.
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
        StoreInstance {
            descriptor,
            window,
            indexed_attrs: indexed_attrs.into_iter().map(IndexedAttr::new).collect(),
            partitions: (0..parallelism).map(|_| FxHashMap::default()).collect(),
            frozen: (0..parallelism).map(|_| FxHashMap::default()).collect(),
            frozen_blooms: (0..parallelism).map(|_| Vec::new()).collect(),
            compactions: 0,
            tuples: 0,
        }
    }

    /// Rebuilds partition `p`'s union blooms from its current segment
    /// set. Runs at segment-set changes (freeze, wholesale drop), never
    /// per probe; within-segment expiry only advances cursors and leaves
    /// the blooms a safe superset.
    fn rebuild_frozen_blooms(&mut self, p: usize) {
        let segments: Vec<&FrozenSegment> = self.frozen[p].values().map(|c| &*c.segment).collect();
        self.frozen_blooms[p] = (0..self.indexed_attrs.len())
            .map(|pos| {
                let hashes: Vec<&[u64]> = segments
                    .iter()
                    .map(|segment| segment.index_hashes(pos))
                    .collect::<Option<_>>()?;
                let mut bloom = BloomFilter::with_capacity(hashes.iter().map(|h| h.len()).sum());
                for &hash in hashes.into_iter().flatten() {
                    bloom.insert_hash(hash);
                }
                Some(bloom)
            })
            .collect();
    }

    /// Whether the store's window spans at least
    /// [`FREEZE_MIN_WINDOW_EPOCHS`] epochs of `epoch`: the stores that
    /// keep a cold tier.
    pub(crate) fn spans_cold_tier(&self, epoch: EpochConfig) -> bool {
        self.window.length.as_millis()
            >= FREEZE_MIN_WINDOW_EPOCHS.saturating_mul(epoch.length.as_millis())
    }

    /// Freezes every hot epoch container strictly older than `horizon`
    /// into a columnar [`FrozenSegment`] (cold tier). Epochs that already
    /// have a segment keep any late-arrival remainder hot — probes merge
    /// both tiers. Returns the number of segments built by this pass.
    pub fn freeze_before(&mut self, horizon: Epoch) -> usize {
        let slots: Vec<SlotAccessor> = self.indexed_attrs.iter().map(|i| i.slot).collect();
        let mut built = 0usize;
        let mut changed: Vec<usize> = Vec::new();
        for (p, (partition, frozen)) in self
            .partitions
            .iter_mut()
            .zip(self.frozen.iter_mut())
            .enumerate()
        {
            let cold: Vec<Epoch> = partition
                .keys()
                .filter(|e| **e < horizon && !frozen.contains_key(e))
                .copied()
                .collect();
            let before = built;
            for epoch in cold {
                let Some(container) = partition.remove(&epoch) else {
                    continue;
                };
                if container.tuples.is_empty() {
                    continue;
                }
                let segment = FrozenSegment::freeze(container.tuples, container.seqs, &slots);
                frozen.insert(
                    epoch,
                    ColdEpoch {
                        segment: Arc::new(segment),
                        start: 0,
                    },
                );
                built += 1;
            }
            if built > before {
                changed.push(p);
            }
        }
        for p in changed {
            self.rebuild_frozen_blooms(p);
        }
        self.compactions += built as u64;
        debug_assert_eq!(self.tuples, self.walked_len());
        built
    }

    /// Registers an additional indexed attribute (rules installed later may
    /// probe on new attributes). Only the new attribute's index is built
    /// over existing containers; established indexes are left untouched.
    pub fn add_indexed_attr(&mut self, attr: AttrRef) {
        if self.indexed_attrs.iter().any(|i| i.attr == attr) {
            return;
        }
        let indexed = IndexedAttr::new(attr);
        self.indexed_attrs.push(indexed);
        let pos = self.indexed_attrs.len() - 1;
        for partition in &mut self.partitions {
            for container in partition.values_mut() {
                container.index_attr(pos, &indexed);
            }
        }
        // Existing segments index the new position lazily, so their hash
        // sets are not available for a union bloom — the position probes
        // unpruned until those segments expire.
        for blooms in &mut self.frozen_blooms {
            blooms.push(None);
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
        self.partitions[p]
            .entry(epoch)
            .or_default()
            .insert(tuple, seq, &self.indexed_attrs);
        self.tuples += 1;
    }

    /// Probes one partition across the given epochs: returns all stored
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
        self.probe_each(
            partition,
            epochs.iter().copied(),
            probe,
            predicates,
            None,
            |hit| matches.push(hit.clone()),
        );
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
    /// one predicate check of the hot probe, the frozen probe and the
    /// parallel runtime's retroactive match, so the halves cannot drift
    /// apart.
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

    /// Probes one partition across the given epochs and hands every match
    /// to `visit` the moment it is found: each stored tuple that satisfies
    /// every predicate against `probe` and is [`visible`] to it — strictly
    /// older, inside the window and, under an ordering `guard`, stored by
    /// a root with a strictly smaller ingest sequence number ("probe only
    /// earlier arrivals", which holds by construction when tuples are
    /// processed one at a time and must be enforced when shards race ahead
    /// of each other).
    ///
    /// A hot match is lent by reference (no refcount bump); a frozen match
    /// is its segment-backed leaf, dropped when `visit` returns. The probe
    /// allocates nothing else: the driving predicate is resolved once on
    /// the stack ([`Self::probe_key`], compiled once rather than per
    /// visitor), and any further predicate is read per candidate.
    pub fn probe_each(
        &self,
        partition: usize,
        epochs: impl IntoIterator<Item = Epoch>,
        probe: &Tuple,
        predicates: &[EquiPredicate],
        guard: Option<u64>,
        mut visit: impl FnMut(&Tuple),
    ) {
        let p = partition.min(self.partitions.len().saturating_sub(1));
        let Some(key) = self.probe_key(p, probe, predicates) else {
            return;
        };
        let (hot, frozen) = (&self.partitions[p], &self.frozen[p]);
        for epoch in epochs {
            if let Some(container) = hot.get(&epoch) {
                let candidates = match (key.index_pos, key.drive) {
                    (Some(pos), Some((_, value))) => container.candidates(pos, value),
                    _ => Candidates::Scan,
                };
                // One match check for the indexed and the scan path, past
                // the `proven` leading predicates: an index *hit* already
                // proves the driving predicate (the index key equals the
                // probe value, both non-Null, and map equality coincides
                // with `join_eq` for non-Null values), so hit candidates
                // skip it.
                let mut consider = |idx: usize, proven: usize| {
                    let stored = &container.tuples[idx];
                    if visible(self.window, stored.ts, container.seqs[idx], probe.ts, guard)
                        && self.predicates_hold(predicates, proven, probe, |attr| stored.get(attr))
                    {
                        visit(stored);
                    }
                };
                match candidates {
                    Candidates::Miss => {}
                    Candidates::Hit(postings) => postings.iter().for_each(|&idx| consider(idx, 1)),
                    Candidates::Scan => {
                        (0..container.tuples.len()).for_each(|idx| consider(idx, 0))
                    }
                }
            }
            if let Some(cold) = key.try_frozen.then(|| frozen.get(&epoch)).flatten() {
                self.probe_frozen(cold, probe, guard, predicates, key, &mut visit);
            }
        }
    }

    /// Resolves what a probe of partition `p` needs before its epoch walk:
    /// `None` when the probe lacks some predicate's attribute or carries
    /// `Null` there (which never `join_eq`-matches anything), so it is
    /// answered empty without touching state.
    fn probe_key<'t>(
        &self,
        p: usize,
        probe: &'t Tuple,
        predicates: &[EquiPredicate],
    ) -> Option<ProbeKey<'t>> {
        if !self
            .predicate_sides(predicates)
            .all(|(_, probe_side)| probe.get(&probe_side).is_some_and(|v| !v.is_null()))
        {
            return None;
        }
        let drive: Option<(AttrRef, &Value)> = self
            .predicate_sides(predicates)
            .next()
            .and_then(|(stored_side, probe_side)| Some((stored_side, probe.get(&probe_side)?)));
        // The index position of the driving attribute, resolved once per
        // probe (not re-hashed per epoch).
        let index_pos =
            drive.and_then(|(attr, _)| self.indexed_attrs.iter().position(|i| i.attr == attr));
        // Tier-level pruning: the driving value is hashed once, and one
        // union-bloom check decides whether ANY frozen segment of this
        // partition can hold it. A cold miss skips the whole frozen tier
        // instead of paying a map lookup + segment bloom per epoch.
        let mut try_frozen = !self.frozen[p].is_empty();
        let indexed = match (try_frozen, index_pos, drive) {
            (true, Some(pos), Some((_, value))) => Some((pos, fx_hash(value))),
            _ => None,
        };
        if let Some((pos, hash)) = indexed {
            if let Some(union) = self.frozen_blooms[p].get(pos).and_then(|b| b.as_ref()) {
                try_frozen = union.contains_hash(hash);
            }
        }
        Some(ProbeKey {
            drive,
            index_pos,
            indexed,
            try_frozen,
        })
    }

    /// Probes one frozen segment. Candidates come from the segment's
    /// hash-run index for the driving attribute (`key.indexed`: its
    /// position and the driving value's hash; bloom-gated binary search) or a
    /// cursor-bounded scan; **every** predicate — including the driving
    /// one — is re-verified against the columns, because hash runs group by
    /// `fx_hash(value)` and distinct values can collide. A match reaches
    /// `visit` as a segment-backed leaf: the segment's reference count goes
    /// up by one and a leaf node is allocated, but no value moves and no
    /// arena buffer is taken.
    fn probe_frozen(
        &self,
        cold: &ColdEpoch,
        probe: &Tuple,
        guard: Option<u64>,
        predicates: &[EquiPredicate],
        key: ProbeKey<'_>,
        visit: &mut impl FnMut(&Tuple),
    ) {
        let segment = &cold.segment;
        // The driving predicate's column, resolved once per segment; `None`
        // when no row of the segment carries the attribute, so nothing can
        // match.
        let resolve_drive = || match key.drive {
            Some((attr, value)) => segment.column_of(&attr).map(|col| Some((col, value))),
            None => Some(None),
        };
        let mut accept = |row: usize, drive_col: Option<(usize, &Value)>| {
            let hit = visible(
                self.window,
                segment.ts(row),
                segment.seq(row),
                probe.ts,
                guard,
            ) && drive_col.is_none_or(|(col, value)| {
                segment.value_at(col, row).is_some_and(|v| v.join_eq(value))
            }) && self.predicates_hold(predicates, 1, probe, |attr| {
                segment
                    .column_of(attr)
                    .and_then(|col| segment.value_at(col, row))
            });
            if hit {
                visit(&segment.tuple_at(row));
            }
        };
        match key.indexed {
            Some((pos, hash)) => {
                let accessor = &self.indexed_attrs[pos].slot;
                segment.with_candidates(pos, accessor, hash, |run| {
                    // Run offsets ascend, so the expired rows below the
                    // cursor form a prefix — skip it with one
                    // `partition_point` (the frozen analogue of the live
                    // tier's posting-list remap).
                    let begin = run.partition_point(|&r| (r as usize) < cold.start);
                    // Misses (the common case under bloom gating) exit
                    // before the driving column is even resolved.
                    if begin == run.len() {
                        return;
                    }
                    let Some(drive_col) = resolve_drive() else {
                        return;
                    };
                    for &row in &run[begin..] {
                        accept(row as usize, drive_col);
                    }
                });
            }
            None => {
                let Some(drive_col) = resolve_drive() else {
                    return;
                };
                for row in cold.start..segment.len() {
                    accept(row, drive_col);
                }
            }
        }
    }

    /// Drops tuples older than `horizon` from every partition and epoch,
    /// removing empty epoch containers. Indexes are repaired in place
    /// (incremental remap), not rebuilt. Returns the number of expired
    /// tuples.
    pub fn expire(&mut self, horizon: Timestamp) -> usize {
        let mut removed = 0;
        for partition in &mut self.partitions {
            for container in partition.values_mut() {
                removed += container.expire(horizon);
            }
            partition.retain(|_, c| !c.tuples.is_empty());
        }
        // Frozen tier: each segment advances its ts cursor (one
        // `partition_point`, no per-tuple work); a fully expired segment
        // is dropped wholesale with its map entry. Dropping segments
        // shrinks the partition's key set, so its union blooms rebuild
        // (cursor-only advances leave them a safe superset).
        let mut changed: Vec<usize> = Vec::new();
        for (p, frozen) in self.frozen.iter_mut().enumerate() {
            let before = frozen.len();
            frozen.retain(|_, cold| {
                removed += cold.expire(horizon);
                cold.live_len() > 0
            });
            if frozen.len() < before {
                changed.push(p);
            }
        }
        for p in changed {
            self.rebuild_frozen_blooms(p);
        }
        self.tuples -= removed;
        debug_assert_eq!(self.tuples, self.walked_len());
        removed
    }

    /// Number of stored tuples across partitions and epochs, both tiers
    /// (a maintained count: O(1)).
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// [`Self::len`] recounted from the containers — what the maintained
    /// count is checked against in debug builds and tests.
    fn walked_len(&self) -> usize {
        let hot: usize = self
            .partitions
            .iter()
            .flat_map(|p| p.values())
            .map(|c| c.tuples.len())
            .sum();
        let cold: usize = self
            .frozen
            .iter()
            .flat_map(|p| p.values())
            .map(|c| c.live_len())
            .sum();
        hot + cold
    }

    /// `true` when the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint of the stored tuples, both tiers
    /// (frozen segments use the same flattened-payload accounting).
    pub fn bytes(&self) -> usize {
        let hot: usize = self
            .partitions
            .iter()
            .flat_map(|p| p.values())
            .map(|c| c.bytes)
            .sum();
        let cold: usize = self
            .frozen
            .iter()
            .flat_map(|p| p.values())
            .map(|c| c.bytes())
            .sum();
        hot + cold
    }

    /// Cold-tier shape: `(segments, live_bytes)` across all partitions.
    pub fn segment_stats(&self) -> (usize, usize) {
        let segments = self.frozen.iter().map(|p| p.len()).sum();
        let bytes = self
            .frozen
            .iter()
            .flat_map(|p| p.values())
            .map(|c| c.bytes())
            .sum();
        (segments, bytes)
    }

    /// Segments built over the store's lifetime (monotone; survives
    /// wholesale segment drops).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Index shape: `(posting_lists, spilled)` across every partition,
    /// epoch container and indexed attribute — how many distinct
    /// (attribute, value) posting lists exist and how many have spilled
    /// past [`clash_common::INLINE_POSTINGS`] to a heap vector. Exposed
    /// for the telemetry surface; walks the indexes, so call it at
    /// barriers, not per tuple.
    pub fn posting_stats(&self) -> (usize, usize) {
        let mut lists = 0;
        let mut spilled = 0;
        for container in self.partitions.iter().flat_map(|p| p.values()) {
            for by_value in &container.indexes {
                lists += by_value.len();
                spilled += by_value.values().filter(|l| l.is_spilled()).count();
            }
        }
        (lists, spilled)
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
        let t_schema = Schema::new(RelationId::new(2), "T", ["b"]);
        let probe = TupleBuilder::new(&t_schema, Timestamp::from_millis(900))
            .set("b", 50)
            .build();
        let pred = EquiPredicate::new(
            AttrRef::new(RelationId::new(1), AttrId::new(1)),
            AttrRef::new(RelationId::new(2), AttrId::new(0)),
        );
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
        let attr_b = AttrRef::new(RelationId::new(1), AttrId::new(1));
        store.add_indexed_attr(attr_b);
        // Probe on S.b = T.b style predicate.
        let t_schema = Schema::new(RelationId::new(2), "T", ["b"]);
        let probe = TupleBuilder::new(&t_schema, Timestamp::from_millis(900))
            .set("b", 50)
            .build();
        let pred = EquiPredicate::new(attr_b, AttrRef::new(RelationId::new(2), AttrId::new(0)));
        assert_eq!(store.probe(0, &[Epoch(0)], &probe, &[pred]).len(), 1);
    }

    /// Results as a multiset of flattened values: what a consumer reading
    /// `(attribute, value)` pairs observes, independent of representation.
    fn flattened_multiset(tuples: &[Tuple]) -> Vec<String> {
        let mut rendered: Vec<String> = tuples
            .iter()
            .map(|t| format!("{}|{}|{:?}", t.ts, t.ingest_ts, t.flatten()))
            .collect();
        rendered.sort();
        rendered
    }

    /// Freezing must be invisible to probes: same matches before and
    /// after, with segment-backed matches content-equal to the originals
    /// and flattening to the same values.
    #[test]
    fn frozen_probe_matches_live_probe_exactly() {
        let mut live = s_store(1);
        let mut tiered = s_store(1);
        for i in 0..16 {
            let t = s_tuple(i % 4, i, 100 * i as u64 + 1);
            live.insert(0, Epoch((i % 3) as u64), t.clone());
            tiered.insert(0, Epoch((i % 3) as u64), t);
        }
        assert_eq!(tiered.freeze_before(Epoch(2)), 2, "epochs 0 and 1 freeze");
        assert_eq!(tiered.compactions(), 2);
        assert_eq!(tiered.len(), live.len());
        assert_eq!(tiered.bytes(), live.bytes());
        let epochs = [Epoch(0), Epoch(1), Epoch(2)];
        for key in 0..4i64 {
            let probe = r_tuple(key, 5_000);
            let mut expect = live.probe(0, &epochs, &probe, &[pred_ra_sa()]);
            let mut got = tiered.probe(0, &epochs, &probe, &[pred_ra_sa()]);
            expect.sort_by_key(|t| t.ts);
            got.sort_by_key(|t| t.ts);
            assert_eq!(got, expect, "key {key}");
            assert_eq!(
                flattened_multiset(&got),
                flattened_multiset(&expect),
                "key {key}"
            );
            let sizes = |ts: &[Tuple]| ts.iter().map(Tuple::approx_size_bytes).sum::<usize>();
            assert_eq!(sizes(&got), sizes(&expect), "key {key}");
        }
    }

    /// A frozen hit hands out a reference into the segment: no arena
    /// buffer is taken for it, and it stays readable after expiry dropped
    /// the store's own reference to the segment.
    #[test]
    fn frozen_hits_take_no_arena_buffer_and_outlive_their_segment() {
        let mut store = s_store(1);
        for i in 0..8 {
            store.insert(0, Epoch(0), s_tuple(1, i, 100 + i as u64));
        }
        assert_eq!(store.freeze_before(Epoch(1)), 1);
        let probe = r_tuple(1, 5_000);
        let takes = || {
            let stats = clash_common::arena_stats();
            stats.reused + stats.allocated
        };
        let before = takes();
        let hits = store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]);
        let joined: Vec<Tuple> = hits.iter().filter_map(|hit| probe.join(hit)).collect();
        assert_eq!(takes(), before, "frozen hits and their joins build no leaf");
        assert_eq!(hits.len(), 8);
        assert_eq!(store.expire(Timestamp::from_millis(100_000)), 8);
        assert_eq!(
            store.segment_stats(),
            (0, 0),
            "the store let the segment go"
        );
        let b = AttrRef::new(RelationId::new(1), AttrId::new(1));
        let mut values: Vec<i64> = joined
            .iter()
            .filter_map(|t| t.get(&b).and_then(Value::as_int))
            .collect();
        values.sort_unstable();
        assert_eq!(values, (0..8).collect::<Vec<i64>>());
        for (hit, joined) in hits.iter().zip(&joined) {
            assert!(joined.shares_payload_with(hit));
            assert_eq!(joined.arity(), 3);
        }
    }

    /// `len()` is a maintained count; it must equal the recount after any
    /// interleaving of inserts (late ones into frozen epochs included),
    /// freezes and expiries.
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
        for _ in 0..2_000 {
            match next(10) {
                0 => {
                    store.freeze_before(Epoch((clock / 1_000).saturating_sub(next(3))));
                }
                1 => {
                    store.expire(Timestamp::from_millis(clock.saturating_sub(next(6_000))));
                }
                _ => {
                    clock += next(40);
                    // Up to 2 s late: lands in epochs that may be frozen.
                    let ts = clock.saturating_sub(next(2_000));
                    let t = s_tuple(next(16) as i64, 0, ts);
                    let p = store.partition_for(&t);
                    store.insert(p, Epoch(ts / 1_000), t);
                }
            }
            assert_eq!(store.len(), store.walked_len());
            assert_eq!(store.is_empty(), store.walked_len() == 0);
        }
        assert!(
            store.compactions() > 0 && !store.is_empty(),
            "sequence too tame"
        );
        store.expire(Timestamp::from_millis(u64::MAX / 2));
        assert_eq!((store.len(), store.walked_len()), (0, 0));
    }

    /// Late arrivals into an already-frozen epoch stay hot; probes merge
    /// both tiers for that epoch.
    #[test]
    fn late_insert_after_freeze_is_still_probed() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(1, 1, 100));
        assert_eq!(store.freeze_before(Epoch(1)), 1);
        store.insert(0, Epoch(0), s_tuple(1, 2, 200));
        // A second freeze pass leaves the late remainder hot.
        assert_eq!(store.freeze_before(Epoch(1)), 0);
        let probe = r_tuple(1, 1_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            2
        );
        assert_eq!(store.len(), 2);
    }

    /// Expiring a frozen epoch advances its cursor (exact counts) and a
    /// fully expired segment drops wholesale.
    #[test]
    fn frozen_expiry_counts_exactly_and_drops_wholesale() {
        let mut store = s_store(1);
        for i in 0..10 {
            store.insert(0, Epoch(0), s_tuple(1, i, 100 * i as u64));
        }
        assert_eq!(store.freeze_before(Epoch(1)), 1);
        assert_eq!(store.expire(Timestamp::from_millis(500)), 5);
        assert_eq!(store.len(), 5);
        let (segments, bytes) = store.segment_stats();
        assert_eq!(segments, 1);
        assert!(bytes > 0);
        let probe = r_tuple(1, 10_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            5
        );
        store.expire(Timestamp::from_millis(100_000));
        assert!(store.is_empty());
        assert_eq!(store.segment_stats(), (0, 0));
        assert_eq!(store.compactions(), 1, "the counter survives the drop");
    }

    /// An attribute indexed after the freeze probes the segment through a
    /// lazily built hash run (and keeps matching the scan answer).
    #[test]
    fn add_indexed_attr_after_freeze_probes_lazily() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(5, 50, 100));
        store.insert(0, Epoch(0), s_tuple(6, 60, 200));
        assert_eq!(store.freeze_before(Epoch(1)), 1);
        let attr_b = AttrRef::new(RelationId::new(1), AttrId::new(1));
        store.add_indexed_attr(attr_b);
        let t_schema = Schema::new(RelationId::new(2), "T", ["b"]);
        let probe = TupleBuilder::new(&t_schema, Timestamp::from_millis(900))
            .set("b", 50)
            .build();
        let pred = EquiPredicate::new(attr_b, AttrRef::new(RelationId::new(2), AttrId::new(0)));
        assert_eq!(store.probe(0, &[Epoch(0)], &probe, &[pred]).len(), 1);
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
