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
//! * rows are **sorted by timestamp**, so the rows a window has left
//!   behind are a prefix found by `partition_point` (no per-tuple work)
//!   and dropping a fully expired segment is one map-entry removal;
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
//! # Memory model
//!
//! A segment is **immutable and `Arc`-shared**. A probe hit does not
//! rebuild the matching tuple: [`FrozenSegment::tuple_at`] returns a
//! segment-backed [`Tuple`] leaf — the segment reference plus a row
//! number — whose accessors read the columns in place (slot → column by
//! a per-relation table, so a key read is O(1)). Those leaves travel
//! inside join results, across worker threads and into result sinks, and
//! each keeps the segment alive until it drops; that is why nothing here
//! mutates after `freeze`, and why the expiry cursor is not a field of
//! the segment: it belongs to the store that owns the window
//! ([`FrozenSegment::expired_before`] tells it where the cursor goes),
//! and rows below it must stay readable for leaves that still point at
//! them. Per-row arity and flattened size are recorded at freeze time, so
//! a leaf reports exactly what the frozen tuple did.
//!
//! Freezing consumes the live tuples; dropping them releases their arena
//! leaf buffers back to the thread-local pool (see [`crate::arena`]),
//! where the hot insert path immediately reuses them, and releases the
//! pin of any tuple that was itself segment-backed (a partial result an
//! MIR store held) — its values now live in the new segment's columns.

use std::sync::{Arc, Mutex, PoisonError};

use crate::bloom::BloomFilter;
use crate::fxhash::{fx_hash, FxHashMap};
use crate::ids::RelationId;
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

/// Slot → column table of one relation the segment covers. Columns are
/// sorted by attribute, so a relation's columns are contiguous; the table
/// makes "which column holds slot `s` of relation `r`" one indexed read.
#[derive(Debug)]
struct RelationColumns {
    relation: RelationId,
    /// Column id per attribute slot; [`NO_COLUMN`] where no row carries
    /// the attribute.
    by_slot: Box<[u16]>,
}

const NO_COLUMN: u16 = u16::MAX;

impl RelationColumns {
    /// The tables over a sorted column list, one per distinct relation.
    fn over(columns: &[AttrRef]) -> Box<[RelationColumns]> {
        let mut tables: Vec<(RelationId, Vec<u16>)> = Vec::new();
        for (col, attr) in columns.iter().enumerate() {
            if tables.last().map(|(r, _)| *r) != Some(attr.relation) {
                tables.push((attr.relation, Vec::new()));
            }
            if let Some((_, by_slot)) = tables.last_mut() {
                // Sorted columns: the relation's highest slot so far.
                by_slot.resize(attr.attr.index() + 1, NO_COLUMN);
                by_slot[attr.attr.index()] = col as u16;
            }
        }
        tables
            .into_iter()
            .map(|(relation, by_slot)| RelationColumns {
                relation,
                by_slot: by_slot.into_boxed_slice(),
            })
            .collect()
    }

    /// Column holding slot `slot` of `relation`: a scan over the covered
    /// relations (one comparison in a base store's segment) and one table
    /// read — no search over the column list.
    #[inline]
    fn column(tables: &[RelationColumns], relation: RelationId, slot: usize) -> Option<usize> {
        let table = tables.iter().find(|t| t.relation == relation)?;
        match table.by_slot.get(slot) {
            Some(&col) if col != NO_COLUMN => Some(col as usize),
            _ => None,
        }
    }
}

/// Everything about a row that is not an attribute value, side by side:
/// what a probe checks before it touches a value column (`ts`, `seq`) and
/// what a segment-backed tuple carries or caches (`ingest_ts`,
/// `relations`, arity, size). One cache line per probed row instead of
/// one per field.
#[derive(Debug, Clone, Copy)]
struct RowHeader {
    relations: RelationSet,
    ts: Timestamp,
    ingest_ts: Timestamp,
    /// Ingest sequence number (parallel runtime ordering guard).
    seq: u64,
    /// [`Tuple::approx_size_bytes`] of the frozen tuple, or
    /// [`SIZE_IN_PREFIX`] when it does not fit (the byte prefix sums
    /// always have it).
    size: u32,
    /// Attribute count (at most 64 per relation × 128 relations).
    arity: u16,
}

const SIZE_IN_PREFIX: u32 = u32::MAX;

/// An immutable columnar rewrite of one epoch's stored tuples. Built by
/// [`FrozenSegment::freeze`], probed through
/// [`FrozenSegment::with_candidates`] / [`FrozenSegment::value_at`], and
/// handed out row by row as segment-backed tuples
/// ([`FrozenSegment::tuple_at`]). Nothing in it changes after `freeze`
/// (the lazy index cache only ever gains entries), which is what lets a
/// store and any number of in-flight tuples share it behind one `Arc`;
/// how far window expiry has advanced over the rows is the owning store's
/// state, not the segment's.
#[derive(Debug)]
pub struct FrozenSegment {
    /// Total rows.
    len: usize,
    /// Per-row headers, ts-sorted.
    rows: Box<[RowHeader]>,
    /// Sorted attribute set of the segment; position = column id.
    columns: Box<[AttrRef]>,
    /// Per covered relation (a base store's segment has exactly one), the
    /// slot → column table over `columns`.
    tables: Box<[RelationColumns]>,
    /// Column-major values in one contiguous allocation: column `c` spans
    /// `values[c * len .. (c + 1) * len]`.
    values: Box<[Value]>,
    /// Presence bitmap, `words` words per column.
    present: Box<[u64]>,
    /// Bitmap words per column (`len.div_ceil(64)`).
    words: usize,
    /// Prefix sums of the rows' sizes (`len + 1` entries): the bytes from
    /// any expiry cursor position onward are one subtraction.
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
        assert!(cols < NO_COLUMN as usize, "segment has {cols} columns");
        let tables = RelationColumns::over(&columns);
        let words = len.div_ceil(64);
        let mut values = vec![Value::Null; cols * len].into_boxed_slice();
        let mut present = vec![0u64; cols * words].into_boxed_slice();
        let mut rows = Vec::with_capacity(len);
        let mut byte_prefix = Vec::with_capacity(len + 1);
        byte_prefix.push(0usize);
        for (row, &old) in order.iter().enumerate() {
            let tuple = &tuples[old];
            let size = tuple.approx_size_bytes();
            rows.push(RowHeader {
                relations: tuple.relations,
                ts: tuple.ts,
                ingest_ts: tuple.ingest_ts,
                seq: seqs[old],
                size: u32::try_from(size).unwrap_or(SIZE_IN_PREFIX),
                arity: tuple.arity() as u16,
            });
            byte_prefix.push(byte_prefix[row] + size);
            for (attr, value) in tuple.iter() {
                // `columns` was gathered from these same tuples.
                let Some(col) = RelationColumns::column(&tables, attr.relation, attr.attr.index())
                else {
                    continue;
                };
                // `Value::Str` clones share their `Arc<str>` payload.
                values[col * len + row] = value.clone();
                present[col * words + row / 64] |= 1 << (row % 64);
            }
        }
        // Drop the live ropes: base-leaf buffers recycle to the arena, and
        // rows that were themselves segment-backed (partial results stored
        // in an MIR store) release their pin on the segments they came
        // from — their values now live in this segment's columns.
        drop(tuples);
        let mut segment = FrozenSegment {
            len,
            rows: rows.into_boxed_slice(),
            columns: columns.into_boxed_slice(),
            tables,
            values,
            present,
            words,
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
    /// against the columns and skip rows below their expiry cursor.
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

    /// Column id of an attribute, if any row carries it: a read of the
    /// relation's slot → column table, not a search over the column list.
    #[inline]
    pub fn column_of(&self, attr: &AttrRef) -> Option<usize> {
        RelationColumns::column(&self.tables, attr.relation, attr.attr.index())
    }

    /// The sorted attribute set; position = column id.
    #[inline]
    pub(crate) fn columns(&self) -> &[AttrRef] {
        &self.columns
    }

    /// The value of column `col` in `row`, if present.
    #[inline]
    pub fn value_at(&self, col: usize, row: usize) -> Option<&Value> {
        if self.present[col * self.words + row / 64] & (1 << (row % 64)) != 0 {
            Some(&self.values[col * self.len + row])
        } else {
            None
        }
    }

    /// The value `row` carries at attribute slot `slot` of `relation` —
    /// what [`SlotAccessor::get`] reads on a segment-backed tuple.
    /// Deliberately out of line: inlined, its table walk and bounds checks
    /// bloat every `SlotAccessor::get` call site enough that the
    /// optimizer stops unrolling lookup loops over hot-tier tuples
    /// (hot-tier lookups lost 11 %); a call costs a frozen read about 1 ns.
    #[inline(never)]
    pub(crate) fn get(&self, relation: RelationId, slot: usize, row: usize) -> Option<&Value> {
        self.value_at(RelationColumns::column(&self.tables, relation, slot)?, row)
    }

    /// The tuple that was frozen into `row`, as a segment-backed leaf
    /// sharing this segment: one reference-count bump and one small node
    /// allocation; no value copied, no arena buffer taken.
    /// Indistinguishable from the original through every `Tuple`
    /// accessor, so emitting it preserves the engines' result multisets
    /// exactly.
    #[inline]
    pub fn tuple_at(self: &Arc<Self>, row: usize) -> Tuple {
        Tuple::from_segment_row(Arc::clone(self), row)
    }

    /// Rows older than `horizon`: they form a prefix because rows are
    /// ts-sorted (`partition_point`, no per-tuple work). The owning store
    /// advances its expiry cursor to this position.
    pub fn expired_before(&self, horizon: Timestamp) -> usize {
        self.rows.partition_point(|r| r.ts < horizon)
    }

    /// Timestamp of `row`.
    #[inline]
    pub fn ts(&self, row: usize) -> Timestamp {
        self.rows[row].ts
    }

    /// Ingestion timestamp of `row`.
    #[inline]
    pub(crate) fn ingest_ts(&self, row: usize) -> Timestamp {
        self.rows[row].ingest_ts
    }

    /// Relations `row` covers.
    #[inline]
    pub(crate) fn relations(&self, row: usize) -> RelationSet {
        self.rows[row].relations
    }

    /// Ingest sequence number of `row`.
    #[inline]
    pub fn seq(&self, row: usize) -> u64 {
        self.rows[row].seq
    }

    /// Attribute count of `row`.
    #[inline]
    pub(crate) fn row_arity(&self, row: usize) -> usize {
        self.rows[row].arity as usize
    }

    /// [`Tuple::approx_size_bytes`] of the tuple frozen into `row`.
    #[inline]
    pub(crate) fn row_size_bytes(&self, row: usize) -> usize {
        match self.rows[row].size {
            SIZE_IN_PREFIX => self.byte_prefix[row + 1] - self.byte_prefix[row],
            size => size as usize,
        }
    }

    /// Total rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the segment holds no rows (stores never build one).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flattened payload bytes of rows `start..` (same accounting as the
    /// live tier, so freezing does not distort the Fig. 7c memory story).
    pub fn bytes_from(&self, start: usize) -> usize {
        self.byte_prefix[self.len] - self.byte_prefix[start]
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

    fn freeze_fixture() -> Arc<FrozenSegment> {
        // Out-of-order timestamps: the segment must ts-sort them.
        let tuples = vec![
            tuple(1, 10, 300),
            tuple(2, 20, 100),
            tuple(1, 30, 200),
            tuple(3, 40, 400),
        ];
        let seqs = vec![7, 8, 9, 10];
        Arc::new(FrozenSegment::freeze(
            tuples,
            seqs,
            &[SlotAccessor::of(&attr(0))],
        ))
    }

    #[test]
    fn rows_are_ts_sorted_and_round_trip() {
        let segment = freeze_fixture();
        assert_eq!(segment.len(), 4);
        let ts: Vec<u64> = (0..4).map(|r| segment.ts(r).as_millis()).collect();
        assert_eq!(ts, vec![100, 200, 300, 400]);
        // Row 1 is the (1, 30, 200) tuple; its leaf must be content-equal.
        assert_eq!(segment.tuple_at(1), tuple(1, 30, 200));
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
    fn expiry_positions_are_exact_prefixes_with_their_bytes() {
        let segment = freeze_fixture();
        let live_bytes = segment.bytes_from(0);
        // Two rows (ts 100, 200) precede the 250 ms horizon.
        assert_eq!(segment.expired_before(Timestamp::from_millis(250)), 2);
        assert!(segment.bytes_from(2) < live_bytes);
        assert_eq!(
            live_bytes - segment.bytes_from(2),
            segment.row_size_bytes(0) + segment.row_size_bytes(1)
        );
        // Asking again at the same horizon answers the same position.
        assert_eq!(segment.expired_before(Timestamp::from_millis(250)), 2);
        // A horizon past every row covers the whole segment: nothing left.
        assert_eq!(segment.expired_before(Timestamp::from_millis(10_000)), 4);
        assert_eq!(segment.bytes_from(segment.len()), 0);
    }

    /// A leaf outlives the store's reference to its segment: the rows stay
    /// readable for as long as any tuple pins them.
    #[test]
    fn a_leaf_keeps_its_segment_readable_after_the_owner_drops_it() {
        let segment = freeze_fixture();
        let leaf = segment.tuple_at(3);
        drop(segment);
        assert_eq!(leaf, tuple(3, 40, 400));
        assert_eq!(
            leaf.approx_size_bytes(),
            tuple(3, 40, 400).approx_size_bytes()
        );
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
