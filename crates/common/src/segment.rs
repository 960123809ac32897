//! Frozen columnar segments: the cold tier of the window state.
//!
//! An epoch that has fallen behind the stream clock will never receive
//! another in-order insert, yet in the live form it keeps paying the
//! insert-optimized price: arena-backed leaf ropes, per-value hash maps
//! and inline posting lists scattered across allocations. A
//! [`FrozenSegment`] is the read-optimized rewrite of one such epoch
//! container:
//!
//! * values live **columnar per attribute slot** in one contiguous
//!   allocation (`cols × rows`), with a presence bitmap per column —
//!   probes touch exactly the columns their predicates name;
//! * rows are **sorted by timestamp**, so window expiry is a
//!   `partition_point` advancing a start cursor (no per-tuple work) and
//!   dropping a fully expired segment is one map-entry removal;
//! * per-indexed-attribute postings are rebuilt as **sorted dense hash
//!   runs** (`hashes` / `starts` / `offsets`) probed by binary search,
//!   fronted by a small [`BloomFilter`] so non-matching probes answer in
//!   O(1) without touching segment memory.
//!
//! Hash runs group rows by `fx_hash(value)`, not by value — two distinct
//! values may share a run, so **probers must re-verify every predicate**
//! (including the driving one) against the column data; the live tier's
//! "an index hit proves the driving predicate" shortcut does not apply
//! here. Everything is derived from `fx_hash` with no per-process seed,
//! so two processes freezing the same rows build bit-identical segments
//! and filters.
//!
//! Freezing consumes the live tuples; dropping them releases their arena
//! leaf buffers back to the thread-local pool (see [`crate::arena`]),
//! where the hot insert path immediately reuses them.

use std::sync::{Arc, Mutex, PoisonError};

use crate::bloom::BloomFilter;
use crate::fxhash::{fx_hash, FxHashMap};
use crate::relation_set::RelationSet;
use crate::schema::AttrRef;
use crate::time::Timestamp;
use crate::tuple::{SlotAccessor, Tuple};
use crate::value::Value;

/// One frozen index: rows grouped by value hash into sorted dense runs,
/// guarded by a bloom filter. Row offsets within a run are ascending, so
/// the expired-prefix skip is a `partition_point` per run.
#[derive(Debug)]
struct AttrIndex {
    bloom: BloomFilter,
    /// Sorted distinct `fx_hash` values of the column.
    hashes: Box<[u64]>,
    /// Run boundaries into `offsets`; `hashes.len() + 1` entries.
    starts: Box<[u32]>,
    /// Row offsets grouped by hash, ascending within each run.
    offsets: Box<[u32]>,
}

impl AttrIndex {
    /// Index over a column no row carries: every probe misses.
    fn empty() -> AttrIndex {
        AttrIndex {
            bloom: BloomFilter::with_capacity(0),
            hashes: Box::new([]),
            starts: Box::new([0]),
            offsets: Box::new([]),
        }
    }

    /// Rows whose indexed value hashes to `hash` (possibly a superset of
    /// the true matches — hash collisions land in the same run).
    #[inline]
    fn candidates(&self, hash: u64) -> &[u32] {
        if !self.bloom.contains_hash(hash) {
            return &[];
        }
        match self.hashes.binary_search(&hash) {
            Ok(i) => &self.offsets[self.starts[i] as usize..self.starts[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

/// A read-only columnar rewrite of one epoch's stored tuples. Built by
/// [`FrozenSegment::freeze`], probed through [`FrozenSegment::with_candidates`]
/// / [`FrozenSegment::value_at`], expired by advancing a start cursor.
#[derive(Debug)]
pub struct FrozenSegment {
    /// Total rows (live and expired).
    len: usize,
    /// First live row; rows `< start` are expired. Rows are ts-sorted, so
    /// the cursor only moves forward.
    start: usize,
    ts: Box<[Timestamp]>,
    ingest_ts: Box<[Timestamp]>,
    /// Ingest sequence numbers (parallel runtime ordering guard).
    seqs: Box<[u64]>,
    relations: Box<[RelationSet]>,
    /// Sorted attribute set of the segment; position = column id.
    columns: Box<[AttrRef]>,
    /// Column-major values in one contiguous allocation: column `c` spans
    /// `values[c * len .. (c + 1) * len]`.
    values: Box<[Value]>,
    /// Presence bitmap, `words_per_col` words per column.
    present: Box<[u64]>,
    /// Flattened-size prefix sums (`len + 1` entries), so live bytes after
    /// any expiry cursor position is a subtraction.
    byte_prefix: Box<[usize]>,
    /// Indexes built at freeze time, positionally aligned with the store's
    /// `indexed_attrs` at that moment (the list is append-only).
    eager: Box<[AttrIndex]>,
    /// Indexes for attributes registered *after* the freeze, built on
    /// first probe (`add_indexed_attr` stays O(1) for frozen state).
    lazy: Mutex<FxHashMap<usize, Arc<AttrIndex>>>,
}

impl FrozenSegment {
    /// Compacts one epoch's live tuples into a frozen segment. `indexed`
    /// are the store's indexed-attribute accessors in positional order;
    /// their runs are built eagerly. Consumes the tuples — their arena
    /// leaf buffers recycle to the pool as the ropes drop.
    pub fn freeze(tuples: Vec<Tuple>, seqs: Vec<u64>, indexed: &[SlotAccessor]) -> FrozenSegment {
        let len = tuples.len();
        debug_assert_eq!(seqs.len(), len);
        // Stable ts order: equal timestamps keep their arrival order.
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by_key(|&row| tuples[row].ts);
        // Column discovery: the sorted union of attributes across rows.
        // Segments carry a handful of columns, so the linear dedup is
        // cheaper than a hash set.
        let mut columns: Vec<AttrRef> = Vec::new();
        for tuple in &tuples {
            for (attr, _) in tuple.iter() {
                if !columns.contains(&attr) {
                    columns.push(attr);
                }
            }
        }
        columns.sort_unstable();
        let cols = columns.len();
        let words = len.div_ceil(64);
        let mut values = vec![Value::Null; cols * len].into_boxed_slice();
        let mut present = vec![0u64; cols * words].into_boxed_slice();
        let mut ts = Vec::with_capacity(len);
        let mut ingest_ts = Vec::with_capacity(len);
        let mut out_seqs = Vec::with_capacity(len);
        let mut relations = Vec::with_capacity(len);
        let mut byte_prefix = Vec::with_capacity(len + 1);
        byte_prefix.push(0usize);
        for (row, &old) in order.iter().enumerate() {
            let tuple = &tuples[old];
            ts.push(tuple.ts);
            ingest_ts.push(tuple.ingest_ts);
            out_seqs.push(seqs[old]);
            relations.push(tuple.relations);
            byte_prefix.push(byte_prefix[row] + tuple.approx_size_bytes());
            for (attr, value) in tuple.iter() {
                // `columns` was gathered from these same tuples.
                let Ok(col) = columns.binary_search(&attr) else {
                    continue;
                };
                // `Value::Str` clones share their `Arc<str>` payload.
                values[col * len + row] = value.clone();
                present[col * words + row / 64] |= 1 << (row % 64);
            }
        }
        // Drop the live ropes: base-leaf buffers recycle to the arena.
        drop(tuples);
        let mut segment = FrozenSegment {
            len,
            start: 0,
            ts: ts.into_boxed_slice(),
            ingest_ts: ingest_ts.into_boxed_slice(),
            seqs: out_seqs.into_boxed_slice(),
            relations: relations.into_boxed_slice(),
            columns: columns.into_boxed_slice(),
            values,
            present,
            byte_prefix: byte_prefix.into_boxed_slice(),
            eager: Box::new([]),
            lazy: Mutex::new(FxHashMap::default()),
        };
        segment.eager = indexed
            .iter()
            .map(|accessor| segment.build_index(accessor))
            .collect();
        segment
    }

    /// Builds the hash-run index for one attribute accessor (eagerly at
    /// freeze time, or lazily for late-registered attributes).
    fn build_index(&self, accessor: &SlotAccessor) -> AttrIndex {
        let Some(col) = self.column_of(&accessor.attr()) else {
            return AttrIndex::empty();
        };
        let mut pairs: Vec<(u64, u32)> = Vec::new();
        for row in 0..self.len {
            if let Some(value) = self.value_at(col, row) {
                pairs.push((fx_hash(value), row as u32));
            }
        }
        // Sorting (hash, row) keeps each run's rows ascending — required
        // by the expired-prefix `partition_point` skip.
        pairs.sort_unstable();
        let mut hashes: Vec<u64> = Vec::new();
        let mut starts: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = Vec::with_capacity(pairs.len());
        for (hash, row) in pairs {
            if hashes.last() != Some(&hash) {
                hashes.push(hash);
                starts.push(offsets.len() as u32);
            }
            offsets.push(row);
        }
        starts.push(offsets.len() as u32);
        let mut bloom = BloomFilter::with_capacity(hashes.len());
        for &hash in &hashes {
            bloom.insert_hash(hash);
        }
        AttrIndex {
            bloom,
            hashes: hashes.into_boxed_slice(),
            starts: starts.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
        }
    }

    /// Runs `f` over the candidate rows for the indexed attribute at
    /// position `pos` whose value hashes to `hash`. Positions known at
    /// freeze time hit the eager indexes lock-free; later positions build
    /// their run on first use (shared thereafter). Candidates may contain
    /// hash-collided and expired rows — callers must verify predicates
    /// against the columns and skip rows below [`Self::first_live`].
    pub fn with_candidates<R>(
        &self,
        pos: usize,
        accessor: &SlotAccessor,
        hash: u64,
        f: impl FnOnce(&[u32]) -> R,
    ) -> R {
        if let Some(index) = self.eager.get(pos) {
            return f(index.candidates(hash));
        }
        let index = {
            // The map only ever gains fully built indexes, so it stays
            // usable after a panic elsewhere poisoned the lock.
            let mut lazy = self.lazy.lock().unwrap_or_else(PoisonError::into_inner);
            lazy.entry(pos)
                .or_insert_with(|| Arc::new(self.build_index(accessor)))
                .clone()
        };
        f(index.candidates(hash))
    }

    /// The sorted distinct value hashes of the eager index at `pos`, or
    /// `None` when the position was registered after this segment froze
    /// (its index is lazy, so the hash set is not cheaply available).
    /// Store-level probe pruning unions these into a per-partition bloom.
    pub fn index_hashes(&self, pos: usize) -> Option<&[u64]> {
        self.eager.get(pos).map(|index| &*index.hashes)
    }

    /// Column id of an attribute, if any row carries it.
    #[inline]
    pub fn column_of(&self, attr: &AttrRef) -> Option<usize> {
        self.columns.binary_search(attr).ok()
    }

    /// The value of column `col` in `row`, if present.
    #[inline]
    pub fn value_at(&self, col: usize, row: usize) -> Option<&Value> {
        let words = self.len.div_ceil(64);
        if self.present[col * words + row / 64] & (1 << (row % 64)) != 0 {
            Some(&self.values[col * self.len + row])
        } else {
            None
        }
    }

    /// Reconstructs the full tuple of `row` (attribute gather +
    /// [`Tuple::from_flattened`]). Content-equal to the tuple that was
    /// frozen — flattened values, timestamps and relation set all round-
    /// trip — so emitting reconstructed matches preserves the engines'
    /// result multisets exactly. `None` only if the row's columns no
    /// longer form a tuple, which freezing a valid tuple cannot produce.
    pub fn tuple_at(&self, row: usize) -> Option<Tuple> {
        // Single-relation rows — every base tuple, i.e. the entire
        // contents of a store that never holds partial join results —
        // skip the pair gather and `from_flattened`'s relation
        // bookkeeping: write the present values straight into one arena
        // leaf at their slot positions. A row's present columns all
        // belong to its own relation set, so the leaf width is just the
        // highest present slot + 1.
        if let Some(relation) = self.relations[row].as_singleton() {
            let mut width = 0usize;
            for (col, attr) in self.columns.iter().enumerate().rev() {
                if self.value_at(col, row).is_some() {
                    width = attr.attr.index() + 1;
                    break;
                }
            }
            return Some(Tuple::from_slots(
                self.ts[row],
                self.ingest_ts[row],
                relation,
                width,
                self.columns.iter().enumerate().filter_map(|(col, attr)| {
                    let value = self.value_at(col, row)?;
                    debug_assert_eq!(attr.relation, relation);
                    Some((attr.attr.index(), value.clone()))
                }),
            ));
        }
        let mut pairs: Vec<(AttrRef, Value)> = Vec::with_capacity(self.columns.len());
        for (col, attr) in self.columns.iter().enumerate() {
            if let Some(value) = self.value_at(col, row) {
                pairs.push((*attr, value.clone()));
            }
        }
        Tuple::from_flattened(
            self.ts[row],
            self.ingest_ts[row],
            self.relations[row],
            pairs,
        )
        .ok()
    }

    /// Expires rows older than `horizon` by advancing the start cursor
    /// (`partition_point` on the sorted ts column — no per-tuple work).
    /// Returns how many rows this call expired; exact, so engine removal
    /// accounting matches the live tier's.
    pub fn expire(&mut self, horizon: Timestamp) -> usize {
        let new_start = self.ts.partition_point(|&t| t < horizon).max(self.start);
        let removed = new_start - self.start;
        self.start = new_start;
        removed
    }

    /// Timestamp of `row`.
    #[inline]
    pub fn ts(&self, row: usize) -> Timestamp {
        self.ts[row]
    }

    /// Ingest sequence number of `row`.
    #[inline]
    pub fn seq(&self, row: usize) -> u64 {
        self.seqs[row]
    }

    /// Total rows, including expired ones below the cursor.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when every row has expired (the caller should drop the
    /// segment wholesale).
    pub fn is_empty(&self) -> bool {
        self.start == self.len
    }

    /// First live row — scans start here; index runs skip below it.
    #[inline]
    pub fn first_live(&self) -> usize {
        self.start
    }

    /// Live (unexpired) row count.
    pub fn live_len(&self) -> usize {
        self.len - self.start
    }

    /// Flattened payload bytes of the live rows (same accounting as the
    /// live tier, so freezing does not distort the Fig. 7c memory story).
    pub fn bytes(&self) -> usize {
        self.byte_prefix[self.len] - self.byte_prefix[self.start]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AttrId, RelationId};
    use crate::schema::Schema;
    use crate::tuple::TupleBuilder;

    fn schema() -> Schema {
        Schema::new(RelationId::new(3), "F", ["k", "v"])
    }

    fn tuple(k: i64, v: i64, ts: u64) -> Tuple {
        TupleBuilder::new(&schema(), Timestamp::from_millis(ts))
            .set("k", k)
            .set("v", v)
            .build()
    }

    fn attr(slot: u32) -> AttrRef {
        AttrRef::new(RelationId::new(3), AttrId::new(slot))
    }

    fn freeze_fixture() -> FrozenSegment {
        // Out-of-order timestamps: the segment must ts-sort them.
        let tuples = vec![
            tuple(1, 10, 300),
            tuple(2, 20, 100),
            tuple(1, 30, 200),
            tuple(3, 40, 400),
        ];
        let seqs = vec![7, 8, 9, 10];
        FrozenSegment::freeze(tuples, seqs, &[SlotAccessor::of(&attr(0))])
    }

    #[test]
    fn rows_are_ts_sorted_and_round_trip() {
        let segment = freeze_fixture();
        assert_eq!(segment.len(), 4);
        let ts: Vec<u64> = (0..4).map(|r| segment.ts(r).as_millis()).collect();
        assert_eq!(ts, vec![100, 200, 300, 400]);
        // Row 1 is the (1, 30, 200) tuple; it must reconstruct content-equal.
        let rebuilt = segment.tuple_at(1);
        assert_eq!(rebuilt, Some(tuple(1, 30, 200)));
        assert_eq!(segment.seq(1), 9, "seqs follow the ts permutation");
    }

    #[test]
    fn eager_index_finds_hash_groups_and_bloom_rejects_absent_keys() {
        let segment = freeze_fixture();
        let accessor = SlotAccessor::of(&attr(0));
        // Both k=1 rows land in one run, ascending.
        let rows =
            segment.with_candidates(0, &accessor, fx_hash(&Value::Int(1)), |run| run.to_vec());
        assert_eq!(rows, vec![1, 2]);
        // A key never stored answers empty (bloom or binary search).
        let rows =
            segment.with_candidates(0, &accessor, fx_hash(&Value::Int(99)), |run| run.to_vec());
        assert!(rows.is_empty());
    }

    #[test]
    fn lazy_index_builds_on_first_probe_for_late_attrs() {
        let segment = freeze_fixture();
        // Position 1 was not indexed at freeze time.
        let accessor = SlotAccessor::of(&attr(1));
        let rows =
            segment.with_candidates(1, &accessor, fx_hash(&Value::Int(30)), |run| run.to_vec());
        assert_eq!(rows, vec![1]);
        // Second probe hits the cached run.
        let again =
            segment.with_candidates(1, &accessor, fx_hash(&Value::Int(30)), |run| run.to_vec());
        assert_eq!(again, rows);
    }

    #[test]
    fn expiry_advances_the_cursor_exactly_and_empties_wholesale() {
        let mut segment = freeze_fixture();
        let live_bytes = segment.bytes();
        assert_eq!(segment.expire(Timestamp::from_millis(250)), 2);
        assert_eq!(segment.first_live(), 2);
        assert_eq!(segment.live_len(), 2);
        assert!(segment.bytes() < live_bytes);
        // Re-expiring at the same horizon removes nothing.
        assert_eq!(segment.expire(Timestamp::from_millis(250)), 0);
        // Expiring everything empties the segment (caller drops it).
        assert_eq!(segment.expire(Timestamp::from_millis(10_000)), 2);
        assert!(segment.is_empty());
        assert_eq!(segment.bytes(), 0);
    }

    #[test]
    fn missing_column_yields_an_empty_index() {
        let segment = freeze_fixture();
        let foreign = AttrRef::new(RelationId::new(9), AttrId::new(0));
        assert_eq!(segment.column_of(&foreign), None);
        let rows = segment.with_candidates(5, &SlotAccessor::of(&foreign), 123, |run| run.len());
        assert_eq!(rows, 0);
    }
}
