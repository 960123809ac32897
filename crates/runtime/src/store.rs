//! Partitioned, epoch-versioned relation stores with hash indexes.
//!
//! Window state has one representation: per partition, one container per
//! epoch (Algorithm 4 stores and probes "with respect to an epoch"). The
//! probe hot path is allocation- and hash-lean: candidate lookups borrow
//! the index posting lists instead of cloning them (unindexed attributes
//! return a scan *marker*, never a materialized `0..len` vector), the
//! driving predicate is resolved once per probe on the stack, and matches
//! are handed to the caller's visitor as they are found instead of being
//! collected.
//!
//! Expiry is proportional to the boundary epoch: a container whose oldest
//! tuple is inside the window is skipped, one whose newest tuple is
//! outside is dropped whole, and only the container straddling the
//! horizon retains its survivors in place, repairing its hash indexes
//! through an old→new offset remap — no drain-and-rebuild.
//!
//! Epochs that lag the stream clock are *closed*
//! ([`StoreInstance::freeze_before`]): nothing moves, but their index keys
//! join one union bloom per (partition, indexed attribute), so a probe
//! whose driving value no closed epoch holds skips all of them after one
//! check. The bloom is only ever a superset of the closed keys, so no
//! result depends on it (DESIGN.md, "Window state").
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
    fx_hash, AttrRef, BloomFilter, Epoch, FxHashMap, PostingList, SlotAccessor, Timestamp, Tuple,
    Value, Window,
};
use clash_optimizer::StoreDescriptor;
use clash_query::EquiPredicate;

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
    /// Oldest and newest stored timestamp (while non-empty): expiry skips
    /// or drops the container whole by them.
    min_ts: Timestamp,
    max_ts: Timestamp,
    /// Whether the epoch is closed: its index keys are covered by the
    /// partition's [`ClosedBloom`].
    closed: bool,
}

impl EpochContainer {
    fn insert(&mut self, tuple: Tuple, seq: u64, indexed_attrs: &[IndexedAttr]) {
        if self.indexes.len() < indexed_attrs.len() {
            self.indexes
                .resize_with(indexed_attrs.len(), FxHashMap::default);
        }
        let idx = self.tuples.len();
        if idx == 0 {
            (self.min_ts, self.max_ts) = (tuple.ts, tuple.ts);
        } else {
            self.min_ts = self.min_ts.min(tuple.ts);
            self.max_ts = self.max_ts.max(tuple.ts);
        }
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

    /// Distinct index keys of the container's widest index: what it adds
    /// to a [`ClosedBloom`].
    fn keys(&self) -> usize {
        self.indexes
            .iter()
            .map(|by_value| by_value.len())
            .max()
            .unwrap_or(0)
    }

    /// Drops the tuples older than `horizon` from the container that
    /// straddles it (the boundary epoch: [`StoreInstance::expire`] skips
    /// containers wholly inside the window and drops those wholly
    /// outside), retaining survivors in place and repairing the hash
    /// indexes incrementally: posting lists keep their entries for
    /// surviving tuples, remapped to their new offsets instead of being
    /// cleared and rebuilt from scratch.
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
        // One scan: count expired tuples, account their bytes, find the
        // oldest survivor and the first survivor's offset — the expired
        // set is a prefix iff that offset equals the expired count.
        let mut expired = 0usize;
        let mut freed_bytes = 0usize;
        let mut first_survivor = before;
        let mut oldest_survivor = self.max_ts;
        for (idx, tuple) in self.tuples.iter().enumerate() {
            if tuple.ts < horizon {
                expired += 1;
                freed_bytes += tuple.approx_size_bytes();
            } else {
                oldest_survivor = oldest_survivor.min(tuple.ts);
                if first_survivor == before {
                    first_survivor = idx;
                }
            }
        }
        self.bytes -= freed_bytes;
        self.min_ts = oldest_survivor;
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

/// The union bloom of one partition's closed epochs: per indexed
/// position, a filter over the `fx_hash` of every index key a closed
/// container holds. Only ever a superset — closing and late inserts add,
/// expiry never removes — so a rejection proves that no closed container
/// indexes the value, while a "maybe" walks the containers as usual.
#[derive(Debug)]
struct ClosedBloom {
    /// Filters, positionally aligned with the store's `indexed_attrs`.
    by_pos: Vec<BloomFilter>,
    /// Keys the filters were sized for: twice the live count at the build.
    capacity: usize,
    /// Keys added since the build, the build's own included.
    added: usize,
}

impl ClosedBloom {
    /// Builds the filters over every closed container of `epochs`, sized
    /// for twice their live key count.
    fn build(epochs: &FxHashMap<Epoch, EpochContainer>, positions: usize) -> ClosedBloom {
        let closed = || epochs.values().filter(|c| c.closed);
        let capacity = 2 * closed().map(EpochContainer::keys).sum::<usize>();
        let mut bloom = ClosedBloom {
            by_pos: (0..positions)
                .map(|_| BloomFilter::with_capacity(capacity))
                .collect(),
            capacity,
            added: 0,
        };
        for container in closed() {
            bloom.add_container(container);
        }
        bloom
    }

    /// Adds the index keys of a container that just closed; `false` (and
    /// nothing added) when they would pass the capacity: rebuild instead.
    fn add_container(&mut self, container: &EpochContainer) -> bool {
        let keys = container.keys();
        if self.added + keys > self.capacity {
            return false;
        }
        self.added += keys;
        for (bloom, by_value) in self.by_pos.iter_mut().zip(&container.indexes) {
            for value in by_value.keys() {
                bloom.insert_hash(fx_hash(value));
            }
        }
        true
    }

    /// Adds the index keys of a tuple inserted late into a closed epoch;
    /// `false` (and nothing added) when the filters are full.
    fn add_tuple(&mut self, tuple: &Tuple, indexed_attrs: &[IndexedAttr]) -> bool {
        if self.added >= self.capacity {
            return false;
        }
        self.added += 1;
        for (bloom, indexed) in self.by_pos.iter_mut().zip(indexed_attrs) {
            if let Some(value) = indexed.slot.get(tuple) {
                bloom.insert_hash(fx_hash(value));
            }
        }
        true
    }

    /// Whether no closed container indexes `value` at position `pos`.
    fn rejects(&self, pos: usize, value: &Value) -> bool {
        self.by_pos
            .get(pos)
            .is_some_and(|bloom| !bloom.contains_hash(fx_hash(value)))
    }
}

/// One partition of a store: a container per epoch, and the union bloom
/// over the closed ones (`None` until the next close pass rebuilds it,
/// after `add_indexed_attr`; probes then walk every closed container).
#[derive(Debug, Default)]
struct Partition {
    epochs: FxHashMap<Epoch, EpochContainer>,
    bloom: Option<ClosedBloom>,
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
    /// Whether the partition's closed-epoch bloom rejects the driving
    /// value, so every closed container can be skipped.
    skip_closed: bool,
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
    partitions: Vec<Partition>,
    /// Live tuples, maintained by insert and expiry, so [`Self::len`] —
    /// read once per probe for the statistics observation — never walks
    /// the containers.
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
            partitions: (0..parallelism).map(|_| Partition::default()).collect(),
            tuples: 0,
        }
    }

    /// Closes every epoch container strictly older than `horizon`: its
    /// tuples stay where they are, and its index keys join the partition's
    /// closed-epoch bloom (incrementally, or by a rebuild from the live
    /// closed containers once they would pass its capacity). Returns the
    /// number of containers this pass closed.
    pub fn freeze_before(&mut self, horizon: Epoch) -> usize {
        let positions = self.indexed_attrs.len();
        let mut closed = 0usize;
        for Partition { epochs, bloom } in &mut self.partitions {
            for (_, container) in epochs
                .iter_mut()
                .filter(|(epoch, c)| **epoch < horizon && !c.closed)
            {
                container.closed = true;
                closed += 1;
                if !bloom.as_mut().is_some_and(|b| b.add_container(container)) {
                    *bloom = None;
                }
            }
            if bloom.is_none() {
                *bloom = Some(ClosedBloom::build(epochs, positions));
            }
        }
        closed
    }

    /// Registers an additional indexed attribute (rules installed later may
    /// probe on new attributes). Only the new attribute's index is built
    /// over existing containers; established indexes are left untouched.
    /// The closed-epoch blooms lack the new position, so they are dropped
    /// until the next [`Self::freeze_before`] rebuilds them.
    pub fn add_indexed_attr(&mut self, attr: AttrRef) {
        if self.indexed_attrs.iter().any(|i| i.attr == attr) {
            return;
        }
        let indexed = IndexedAttr::new(attr);
        self.indexed_attrs.push(indexed);
        let pos = self.indexed_attrs.len() - 1;
        for partition in &mut self.partitions {
            for container in partition.epochs.values_mut() {
                container.index_attr(pos, &indexed);
            }
            partition.bloom = None;
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
    /// strictly earlier arrivals (see [`Self::probe_each`]). A late insert
    /// into a closed epoch adds its keys to the closed-epoch bloom.
    pub fn insert_seq(&mut self, partition: usize, epoch: Epoch, tuple: Tuple, seq: u64) {
        let p = partition.min(self.partitions.len().saturating_sub(1));
        let Partition { epochs, bloom } = &mut self.partitions[p];
        let container = epochs.entry(epoch).or_default();
        let rebuild = container.closed
            && !bloom
                .as_mut()
                .is_some_and(|b| b.add_tuple(&tuple, &self.indexed_attrs));
        container.insert(tuple, seq, &self.indexed_attrs);
        if rebuild {
            *bloom = Some(ClosedBloom::build(epochs, self.indexed_attrs.len()));
        }
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

    /// Probes one partition across the given epochs and hands every match
    /// to `visit` the moment it is found: each stored tuple that satisfies
    /// every predicate against `probe` and is [`visible`] to it — strictly
    /// older, inside the window and, under an ordering `guard`, stored by
    /// a root with a strictly smaller ingest sequence number ("probe only
    /// earlier arrivals", which holds by construction when tuples are
    /// processed one at a time and must be enforced when shards race ahead
    /// of each other).
    ///
    /// A match is lent by reference (no refcount bump). The probe
    /// allocates nothing: the driving predicate and the closed-epoch bloom
    /// check are resolved once on the stack ([`Self::probe_key`]), and any
    /// further predicate is read per candidate.
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
        let containers = &self.partitions[p].epochs;
        for epoch in epochs {
            let Some(container) = containers.get(&epoch) else {
                continue;
            };
            if key.skip_closed && container.closed {
                continue;
            }
            let candidates = match (key.index_pos, key.drive) {
                (Some(pos), Some((_, value))) => container.candidates(pos, value),
                _ => Candidates::Scan,
            };
            // One match check for the indexed and the scan path, past the
            // `proven` leading predicates: an index *hit* already proves
            // the driving predicate (the index key equals the probe value,
            // both non-Null, and map equality coincides with `join_eq` for
            // non-Null values), so hit candidates skip it.
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
                Candidates::Scan => (0..container.tuples.len()).for_each(|idx| consider(idx, 0)),
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
        // One bloom check answers for every closed epoch of the partition:
        // a rejected value has no index entry in any of them, so their
        // lookups could only miss.
        let skip_closed = match (&self.partitions[p].bloom, index_pos, drive) {
            (Some(bloom), Some(pos), Some((_, value))) => bloom.rejects(pos, value),
            _ => false,
        };
        Some(ProbeKey {
            drive,
            index_pos,
            skip_closed,
        })
    }

    /// Drops tuples older than `horizon` from every partition: a container
    /// whose oldest tuple is inside the window is skipped, one whose newest
    /// tuple is outside is dropped whole, and only a container straddling
    /// the horizon expires tuple by tuple (indexes repaired in place by an
    /// incremental remap, not rebuilt). The closed-epoch blooms are left a
    /// superset. Returns the number of expired tuples.
    pub fn expire(&mut self, horizon: Timestamp) -> usize {
        let mut removed = 0;
        for partition in &mut self.partitions {
            partition.epochs.retain(|_, container| {
                if container.max_ts < horizon {
                    removed += container.tuples.len();
                    return false;
                }
                if container.min_ts < horizon {
                    removed += container.expire(horizon);
                }
                true
            });
        }
        self.tuples -= removed;
        debug_assert_eq!(self.tuples, self.walked_len());
        removed
    }

    /// Every epoch container of every partition.
    fn containers(&self) -> impl Iterator<Item = &EpochContainer> {
        self.partitions.iter().flat_map(|p| p.epochs.values())
    }

    /// Number of stored tuples across partitions and epochs (a maintained
    /// count: O(1)).
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// [`Self::len`] recounted from the containers — what the maintained
    /// count is checked against in debug builds and tests.
    fn walked_len(&self) -> usize {
        self.containers().map(|c| c.tuples.len()).sum()
    }

    /// `true` when the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint of the stored tuples.
    pub fn bytes(&self) -> usize {
        self.containers().map(|c| c.bytes).sum()
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
        for container in self.containers() {
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

    /// Only the epoch straddling the horizon expires tuple by tuple: older
    /// epochs go whole, newer ones are not touched, and the boundary
    /// epoch's oldest survivor bounds the next sweep.
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
        let epochs = &store.partitions[0].epochs;
        assert!(!epochs.contains_key(&Epoch(0)));
        assert_eq!(epochs[&Epoch(1)].min_ts, Timestamp::from_millis(1_400));
        assert_eq!(epochs[&Epoch(2)].tuples.len(), 4);
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

    /// Closing epochs must be invisible to probes: same matches, sizes and
    /// flattened values with and without it.
    #[test]
    fn frozen_probe_matches_live_probe_exactly() {
        let mut live = s_store(1);
        let mut tiered = s_store(1);
        for i in 0..16 {
            let t = s_tuple(i % 4, i, 100 * i as u64 + 1);
            live.insert(0, Epoch((i % 3) as u64), t.clone());
            tiered.insert(0, Epoch((i % 3) as u64), t);
        }
        assert_eq!(tiered.freeze_before(Epoch(2)), 2, "epochs 0 and 1 close");
        assert_eq!(tiered.len(), live.len());
        assert_eq!(tiered.bytes(), live.bytes());
        let epochs = [Epoch(0), Epoch(1), Epoch(2)];
        for key in 0..6i64 {
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

    /// Whether a probe of partition 0 skips every closed epoch.
    fn skips_closed(store: &StoreInstance, probe: &Tuple, pred: EquiPredicate) -> bool {
        store
            .probe_key(0, probe, &[pred])
            .expect("the probe carries its attribute")
            .skip_closed
    }

    /// The closed-epoch bloom answers "skip" only for a driving value no
    /// closed epoch holds: not for one a closed epoch held at closing, nor
    /// for one a late insert put there afterwards (beyond the capacity the
    /// bloom was sized for, too), nor on an attribute indexed after
    /// closing until a close pass rebuilds the bloom with that position.
    #[test]
    fn closed_epoch_bloom_skips_only_keys_no_closed_epoch_holds() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(1, 10, 100));
        store.insert(0, Epoch(1), s_tuple(2, 20, 1_100));
        assert_eq!(store.freeze_before(Epoch(1)), 1);
        let epochs = [Epoch(0), Epoch(1)];
        let hits = |store: &StoreInstance, a: i64| {
            store
                .probe(0, &epochs, &r_tuple(a, 5_000), &[pred_ra_sa()])
                .len()
        };
        // Key 3 is nowhere, key 2 only in the open epoch 1.
        assert!(skips_closed(&store, &r_tuple(3, 5_000), pred_ra_sa()));
        assert!(skips_closed(&store, &r_tuple(2, 5_000), pred_ra_sa()));
        assert_eq!(hits(&store, 2), 1, "the open epoch is still probed");
        assert!(!skips_closed(&store, &r_tuple(1, 5_000), pred_ra_sa()));
        assert_eq!(hits(&store, 1), 1);

        // Late inserts into the closed epoch, well past the bloom's
        // capacity (twice one key): every key stays covered.
        for a in 100..140 {
            store.insert(0, Epoch(0), s_tuple(a, 10, 200));
            assert!(!skips_closed(&store, &r_tuple(a, 5_000), pred_ra_sa()));
            assert_eq!(hits(&store, a), 1, "late key {a}");
        }
        assert!(skips_closed(&store, &r_tuple(3, 5_000), pred_ra_sa()));

        // S.b indexed after closing: no bloom covers it (nor any other
        // position) until the next close pass rebuilds one.
        store.add_indexed_attr(AttrRef::new(RelationId::new(1), AttrId::new(1)));
        let (probe_b10, pred_b) = t_probe(10);
        let (probe_b99, _) = t_probe(99);
        assert!(!skips_closed(&store, &probe_b10, pred_b));
        assert!(!skips_closed(&store, &probe_b99, pred_b));
        assert!(!skips_closed(&store, &r_tuple(3, 5_000), pred_ra_sa()));
        assert_eq!(store.probe(0, &epochs, &probe_b10, &[pred_b]).len(), 41);
        assert_eq!(store.freeze_before(Epoch(1)), 0, "nothing new to close");
        assert!(skips_closed(&store, &probe_b99, pred_b));
        assert!(!skips_closed(&store, &probe_b10, pred_b));
        assert_eq!(store.probe(0, &epochs, &probe_b10, &[pred_b]).len(), 41);
    }

    /// `len()` is a maintained count; it must equal the recount after any
    /// interleaving of inserts (late ones into closed epochs included),
    /// closes and expiries.
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
        let mut closed = 0usize;
        for _ in 0..2_000 {
            match next(10) {
                0 => {
                    closed += store.freeze_before(Epoch((clock / 1_000).saturating_sub(next(3))));
                }
                1 => {
                    store.expire(Timestamp::from_millis(clock.saturating_sub(next(6_000))));
                }
                _ => {
                    clock += next(40);
                    // Up to 2 s late: lands in epochs that may be closed.
                    let ts = clock.saturating_sub(next(2_000));
                    let t = s_tuple(next(16) as i64, 0, ts);
                    let p = store.partition_for(&t);
                    store.insert(p, Epoch(ts / 1_000), t);
                }
            }
            assert_eq!(store.len(), store.walked_len());
            assert_eq!(store.is_empty(), store.walked_len() == 0);
        }
        assert!(closed > 0 && !store.is_empty(), "sequence too tame");
        store.expire(Timestamp::from_millis(u64::MAX / 2));
        assert_eq!((store.len(), store.walked_len()), (0, 0));
    }

    /// Late arrivals into an already-closed epoch land in its container
    /// and are probed; a second pass has nothing new to close.
    #[test]
    fn late_insert_after_freeze_is_still_probed() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(1, 1, 100));
        assert_eq!(store.freeze_before(Epoch(1)), 1);
        store.insert(0, Epoch(0), s_tuple(1, 2, 200));
        assert_eq!(store.freeze_before(Epoch(1)), 0);
        let probe = r_tuple(1, 1_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            2
        );
        assert_eq!(store.len(), 2);
    }

    /// A closed epoch expires like an open one: exact counts, and the
    /// container goes whole once its newest tuple leaves the window.
    #[test]
    fn frozen_expiry_counts_exactly_and_drops_wholesale() {
        let mut store = s_store(1);
        for i in 0..10 {
            store.insert(0, Epoch(0), s_tuple(1, i, 100 * i as u64));
        }
        assert_eq!(store.freeze_before(Epoch(1)), 1);
        assert_eq!(store.expire(Timestamp::from_millis(500)), 5);
        assert_eq!(store.len(), 5);
        let probe = r_tuple(1, 10_000);
        assert_eq!(
            store.probe(0, &[Epoch(0)], &probe, &[pred_ra_sa()]).len(),
            5
        );
        assert_eq!(store.expire(Timestamp::from_millis(100_000)), 5);
        assert!(store.is_empty());
        assert!(store.partitions[0].epochs.is_empty());
    }

    /// An attribute indexed after closing is indexed in the closed
    /// containers too.
    #[test]
    fn add_indexed_attr_after_freeze_probes_lazily() {
        let mut store = s_store(1);
        store.insert(0, Epoch(0), s_tuple(5, 50, 100));
        store.insert(0, Epoch(0), s_tuple(6, 60, 200));
        assert_eq!(store.freeze_before(Epoch(1)), 1);
        store.add_indexed_attr(AttrRef::new(RelationId::new(1), AttrId::new(1)));
        let (probe, pred) = t_probe(50);
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
