//! Stream tuples and (partial) join results — the zero-copy rope core.
//!
//! A [`Tuple`] is either a base tuple of one streamed relation or the
//! concatenation of base tuples from several relations (a partial or full
//! join result that travels along a probe order). Either way it carries
//!
//! * the set of base relations it covers,
//! * its attribute values, addressed by fully qualified [`AttrRef`]s, and
//! * a timestamp `τ` — for base tuples the arrival timestamp, for join
//!   results the maximum of the constituents' timestamps (the time at which
//!   the result could first be produced, cf. Figure 1 of the paper).
//!
//! # Memory model
//!
//! The payload is a **rope** of `Arc`ed nodes, of two kinds:
//!
//! * a **leaf** — the values of one base relation, densely indexed by
//!   [`AttrId`] in an arena-backed buffer;
//! * a **join node** — two `Arc`ed sub-ropes.
//!
//! No path copies attribute values. A probe hit is the stored tuple, lent
//! by reference, and [`Tuple::join`] performs a single allocation (the new
//! join node) and two reference-count bumps — the per-hop cost of a probe
//! order is O(1) instead of O(total arity). Every store a partial result
//! is routed to shares the same leaves. A run of results each released
//! before the next is built — one probe joined with its matches — goes
//! through a [`JoinSlot`] and shares one join node instead.
//!
//! Lookup is positional: [`Tuple::get`] descends the rope by relation-set
//! membership (O(join depth), at most the number of constituent
//! relations) and then reads the leaf at the attribute's schema slot,
//! with no linear scan over `(AttrRef, Value)` pairs. [`SlotAccessor`]
//! packages the precomputed slot of one attribute so hot paths (index
//! maintenance, probe predicates) resolve the offset once per store
//! instead of once per lookup.
//!
//! Sizes are cached bottom-up at construction, so
//! [`Tuple::approx_size_bytes`] is O(1) and reports the *flattened*
//! (logical / serialized) payload size — the bytes a distributed
//! deployment would ship and store, regardless of structural sharing.
//!
//! Leaf construction is arena-backed: value buffers come from the
//! thread-local pool in [`crate::arena`] and return there when a leaf is
//! dropped (at window expiry), so steady-state ingest reuses memory
//! instead of allocating per tuple. [`TupleBuilder`] writes values
//! positionally into such a buffer — resolving names through
//! [`Schema::attr_id`] — with no intermediate `(AttrRef, Value)` vector
//! and no re-scan at build time.

use crate::error::{ClashError, Result};
use crate::ids::{AttrId, RelationId};
use crate::relation_set::RelationSet;
use crate::schema::{AttrRef, Schema};
use crate::time::Timestamp;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Maximum number of attributes per relation the dense leaf layout
/// supports (presence bits live in a `u64`).
pub const MAX_ATTRS_PER_RELATION: usize = 64;

/// Fixed per-tuple header charge of [`Tuple::approx_size_bytes`].
const SIZE_HEADER: usize = 32;

/// Per-attribute charge of [`Tuple::approx_size_bytes`], mirroring the
/// seed's `(AttrRef, Value)`-pair accounting so Fig. 7c series remain
/// comparable across representations.
fn per_entry_bytes() -> usize {
    std::mem::size_of::<(AttrRef, Value)>()
}

/// The one slot-write primitive every leaf construction path shares
/// (pair-vector `Tuple::base`, the wire decoder and [`TupleBuilder`]):
/// first write wins (matching the seed's linear `find` lookup semantics
/// for duplicate attributes), presence bit set, size accounted. Returns
/// `false` when the slot was already written (the value is left
/// untouched by the caller).
#[inline(always)]
fn write_slot(
    values: &mut [Value],
    present: &mut u64,
    bytes: &mut usize,
    slot: usize,
    value: Value,
) -> bool {
    // `get_mut` instead of indexing: every caller guards the slot range
    // already, and a panic-free body means no unwind landing pads in the
    // per-tuple construction loop (out-of-range writes are ignored, like
    // `TupleBuilder::put` documents).
    let Some(dst) = values.get_mut(slot) else {
        debug_assert!(false, "slot {slot} outside leaf width {}", values.len());
        return false;
    };
    let bit = 1u64 << slot;
    if *present & bit != 0 {
        return false;
    }
    *present |= bit;
    *bytes += per_entry_bytes() + value.approx_size_bytes();
    *dst = value;
    true
}

/// One leaf of the rope: the values of a single base relation, stored
/// densely at their [`AttrId`] slots. Slots never written hold
/// `Value::Null` and have their presence bit cleared, so "attribute not
/// set" and "attribute set to NULL" stay distinguishable.
#[derive(Debug)]
struct BaseLeaf {
    relation: RelationId,
    /// Presence bitmap over `values` slots.
    present: u64,
    /// Values indexed by `AttrId`; width is the highest set slot + 1.
    values: Box<[Value]>,
    /// Cached flattened payload bytes of this leaf.
    bytes: usize,
}

impl BaseLeaf {
    fn new(relation: RelationId, pairs: Vec<(AttrRef, Value)>) -> BaseLeaf {
        let width = pairs
            .iter()
            .filter(|(a, _)| a.relation == relation)
            .map(|(a, _)| a.attr.index() + 1)
            .max()
            .unwrap_or(0);
        assert!(
            width <= MAX_ATTRS_PER_RELATION,
            "attribute slot {} exceeds the {MAX_ATTRS_PER_RELATION}-attribute leaf limit",
            width.saturating_sub(1)
        );
        // Arena-backed: the value buffer comes from the thread-local leaf
        // pool (recycled by the `Drop` below) instead of a fresh `Vec`.
        let mut values = crate::arena::take_buffer(width);
        let mut present = 0u64;
        let mut bytes = 0usize;
        for (attr, value) in pairs {
            debug_assert!(
                attr.relation == relation,
                "attribute {attr} does not belong to relation {relation}"
            );
            if attr.relation != relation {
                continue;
            }
            write_slot(
                &mut values,
                &mut present,
                &mut bytes,
                attr.attr.index(),
                value,
            );
        }
        BaseLeaf {
            relation,
            present,
            values,
            bytes,
        }
    }

    /// Assembles a leaf from a builder-filled buffer (no re-scan).
    #[inline]
    fn from_parts(relation: RelationId, present: u64, values: Box<[Value]>, bytes: usize) -> Self {
        debug_assert!(values.len() <= MAX_ATTRS_PER_RELATION);
        BaseLeaf {
            relation,
            present,
            values,
            bytes,
        }
    }

    #[inline]
    fn slot(&self, slot: usize) -> Option<&Value> {
        if slot < MAX_ATTRS_PER_RELATION && self.present & (1u64 << slot) != 0 {
            self.values.get(slot)
        } else {
            None
        }
    }

    #[inline]
    fn arity(&self) -> usize {
        self.present.count_ones() as usize
    }
}

/// Leaf buffers return to the thread-local arena when a leaf dies (most
/// commonly at window expiry), so steady-state ingest stops paying an
/// allocator round trip per base tuple.
impl Drop for BaseLeaf {
    fn drop(&mut self) {
        crate::arena::recycle_buffer(std::mem::take(&mut self.values));
    }
}

/// A node of the payload rope. The leaf hides in the null niche of a
/// join's child pointer, so a node needs no tag: it stays 48 bytes — with
/// its `Arc` header exactly one cache line — and the rope descent tests
/// one pointer per level (a unit test pins the size).
#[derive(Debug)]
enum Node {
    /// Values of one base relation, owned by an arena-backed buffer.
    Leaf(BaseLeaf),
    /// Concatenation of two disjoint sub-ropes.
    Join {
        left: Arc<Node>,
        /// Relations covered by `left` (steers the positional descent).
        left_relations: RelationSet,
        right: Arc<Node>,
        /// Cached total attribute count.
        arity: usize,
        /// Cached flattened payload bytes of both sides.
        bytes: usize,
    },
}

impl Node {
    #[inline]
    fn join(left: Arc<Node>, left_relations: RelationSet, right: Arc<Node>) -> Node {
        Node::Join {
            arity: left.arity() + right.arity(),
            bytes: left.bytes() + right.bytes(),
            left,
            left_relations,
            right,
        }
    }

    fn arity(&self) -> usize {
        match self {
            Node::Leaf(leaf) => leaf.arity(),
            Node::Join { arity, .. } => *arity,
        }
    }

    /// Flattened payload bytes (what [`write_slot`] accounted when the
    /// values were first written).
    fn bytes(&self) -> usize {
        match self {
            Node::Leaf(leaf) => leaf.bytes,
            Node::Join { bytes, .. } => *bytes,
        }
    }
}

/// A stream tuple or partial join result.
#[derive(Debug, Clone)]
pub struct Tuple {
    /// Timestamp `τ`: arrival time for base tuples, max constituent
    /// timestamp for join results.
    pub ts: Timestamp,
    /// The base relations whose attributes this tuple carries.
    pub relations: RelationSet,
    /// Payload rope (shared between join results and their constituents).
    node: Arc<Node>,
}

impl Tuple {
    /// Creates a base tuple of a single relation.
    pub fn base(relation: RelationId, ts: Timestamp, values: Vec<(AttrRef, Value)>) -> Self {
        Tuple {
            ts,
            relations: RelationSet::singleton(relation),
            node: Arc::new(Node::Leaf(BaseLeaf::new(relation, values))),
        }
    }

    /// Looks up a value by fully qualified attribute reference: a
    /// relation-set-guided descent to the owning leaf followed by a
    /// positional slot read — no linear scan. (One-shot form of
    /// [`SlotAccessor::get`]; hot paths precompute the accessor instead.)
    #[inline]
    pub fn get(&self, attr: &AttrRef) -> Option<&Value> {
        SlotAccessor::of(attr).get(self)
    }

    /// Number of attribute values carried (cached; O(1)).
    pub fn arity(&self) -> usize {
        self.node.arity()
    }

    /// Number of join nodes on the longest root-to-leaf path (0 for base
    /// tuples). Bounds the cost of a positional [`Tuple::get`].
    pub fn depth(&self) -> usize {
        fn depth_of(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 0,
                Node::Join { left, right, .. } => 1 + depth_of(left).max(depth_of(right)),
            }
        }
        depth_of(&self.node)
    }

    /// Iterates over `(attribute, value)` pairs in rope order: constituent
    /// tuples left to right, attributes within a leaf in schema-slot order.
    pub fn iter(&self) -> TupleIter<'_> {
        TupleIter {
            stack: vec![&self.node],
            leaf: None,
        }
    }

    /// Flattens the rope into owned `(attribute, value)` pairs — the
    /// seed's convenience representation, used by the wire codec and as
    /// the reference model in property tests. O(arity); never needed on
    /// the probe hot path.
    pub fn flatten(&self) -> Vec<(AttrRef, Value)> {
        self.iter().map(|(a, v)| (a, v.clone())).collect()
    }

    /// `true` if this tuple covers more than one base relation, i.e. it is a
    /// partial join result rather than an input tuple.
    pub fn is_intermediate(&self) -> bool {
        self.relations.len() > 1
    }

    /// Concatenates two tuples covering disjoint relation sets into a join
    /// result. The caller is responsible for having checked the join
    /// predicate; this method only merges payloads and timestamps.
    ///
    /// Zero-copy: the result is a single new rope node referencing both
    /// constituents' payloads — one allocation and two `Arc` bumps,
    /// independent of arity.
    ///
    /// Returns `None` when the relation sets overlap (joining a tuple with
    /// itself or with an overlapping partial result would be a logic error
    /// in the probe routing).
    #[inline]
    pub fn join(&self, other: &Tuple) -> Option<Tuple> {
        if !self.relations.is_disjoint(&other.relations) {
            return None;
        }
        Some(Tuple {
            ts: self.ts.max(other.ts),
            relations: self.relations.union(&other.relations),
            node: Arc::new(Node::join(
                Arc::clone(&self.node),
                self.relations,
                Arc::clone(&other.node),
            )),
        })
    }

    /// Overwrites this join result with `left ⋈ right` in place when its
    /// node is held by nobody else; `false` (and untouched) otherwise. The
    /// caller has checked that the relation sets are disjoint.
    #[inline]
    fn rejoin(&mut self, left: &Tuple, right: &Tuple) -> bool {
        let Some(Node::Join {
            left: l,
            left_relations,
            right: r,
            arity,
            bytes,
        }) = Arc::get_mut(&mut self.node)
        else {
            return false;
        };
        // A run of joins mostly keeps its left side (the probe): keeping
        // the reference saves an atomic increment and decrement per result.
        if !Arc::ptr_eq(l, &left.node) {
            *l = Arc::clone(&left.node);
        }
        *r = Arc::clone(&right.node);
        *left_relations = left.relations;
        *arity = left.node.arity() + right.node.arity();
        *bytes = left.node.bytes() + right.node.bytes();
        self.ts = left.ts.max(right.ts);
        self.relations = left.relations.union(&right.relations);
        true
    }

    /// `true` when `constituent`'s payload rope is shared (by pointer)
    /// somewhere inside this tuple's rope — i.e. joining did not copy it.
    pub fn shares_payload_with(&self, constituent: &Tuple) -> bool {
        fn contains(node: &Arc<Node>, needle: &Arc<Node>) -> bool {
            if Arc::ptr_eq(node, needle) {
                return true;
            }
            match &**node {
                Node::Leaf(_) => false,
                Node::Join { left, right, .. } => contains(left, needle) || contains(right, needle),
            }
        }
        contains(&self.node, &constituent.node)
    }

    /// Approximate memory footprint of the *flattened* tuple payload in
    /// bytes — the logical size a serialized copy would occupy, counting
    /// attribute references and values. Cached at construction (O(1)).
    /// Used for the store memory accounting behind Fig. 7c.
    #[inline]
    pub fn approx_size_bytes(&self) -> usize {
        SIZE_HEADER + self.node.bytes()
    }

    /// Encodes the tuple into the self-contained wire format (flattened
    /// payload + timestamp + relation set). Stands in for serde in the
    /// offline build, where the vendored serde stub cannot serialize.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.arity() * 16);
        out.push(WIRE_VERSION);
        out.extend_from_slice(&self.ts.as_millis().to_le_bytes());
        out.extend_from_slice(&self.relations.bits().to_le_bytes());
        out.extend_from_slice(&(self.arity() as u32).to_le_bytes());
        for (attr, value) in self.iter() {
            out.extend_from_slice(&attr.relation.0.to_le_bytes());
            out.extend_from_slice(&attr.attr.0.to_le_bytes());
            encode_value(value, &mut out);
        }
        out
    }

    /// Decodes a tuple from [`Tuple::to_wire`] bytes. The rebuilt rope has
    /// one leaf per covered relation (joined left-to-right in relation-id
    /// order), so round-tripping flattens deep ropes — equality is
    /// preserved because [`PartialEq`] compares flattened content. Bytes of
    /// any other wire version are an error, never a reinterpretation.
    pub fn from_wire(bytes: &[u8]) -> Result<Tuple> {
        let mut r = WireReader::new(bytes);
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(ClashError::Runtime(format!(
                "unsupported tuple wire version {version} (expected {WIRE_VERSION})"
            )));
        }
        let ts = Timestamp::from_millis(r.u64()?);
        let relations = RelationSet::from_bits(r.u128()?);
        let n = r.u32()? as usize;
        // Every pair occupies at least 9 wire bytes (relation + attr +
        // value tag), so an attribute count exceeding that bound is
        // corrupt — reject it before trusting it as an allocation size.
        if n > r.remaining() / 9 {
            return Err(ClashError::Runtime(
                "tuple wire attribute count exceeds buffer".into(),
            ));
        }
        let mut pairs: Vec<(AttrRef, Value)> = Vec::with_capacity(n);
        for _ in 0..n {
            let relation = RelationId::new(r.u32()?);
            let attr_raw = r.u32()?;
            // Leaf construction asserts on out-of-range slots; malformed
            // wire data must surface as an error, not a panic.
            if attr_raw as usize >= MAX_ATTRS_PER_RELATION {
                return Err(ClashError::Runtime(format!(
                    "tuple wire attribute slot {attr_raw} out of range"
                )));
            }
            let attr = AttrId::new(attr_raw);
            let value = decode_value(&mut r)?;
            pairs.push((AttrRef::new(relation, attr), value));
        }
        Tuple::from_flattened(ts, relations, pairs)
    }

    /// Rebuilds a tuple from its flattened `(attribute, value)` pairs: one
    /// leaf per relation of the set (joined left-to-right in relation-id
    /// order; relations carrying no attributes still contribute an empty
    /// leaf so the set survives). The decode half of the wire codec —
    /// equality with the original is preserved because [`PartialEq`]
    /// compares flattened content.
    pub fn from_flattened(
        ts: Timestamp,
        relations: RelationSet,
        mut pairs: Vec<(AttrRef, Value)>,
    ) -> Result<Tuple> {
        // Values are *moved* out of the pair list into arena-backed leaf
        // buffers — no per-leaf pair vector, no value clones.
        let mut node: Option<(Arc<Node>, RelationSet)> = None;
        for relation in relations.iter() {
            let width = pairs
                .iter()
                .filter(|(a, _)| a.relation == relation)
                .map(|(a, _)| a.attr.index() + 1)
                .max()
                .unwrap_or(0);
            let mut values = crate::arena::take_buffer(width);
            let mut present = 0u64;
            let mut leaf_bytes = 0usize;
            for (attr, value) in pairs.iter_mut() {
                if attr.relation != relation {
                    continue;
                }
                write_slot(
                    &mut values,
                    &mut present,
                    &mut leaf_bytes,
                    attr.attr.index(),
                    std::mem::replace(value, Value::Null),
                );
            }
            let leaf = Arc::new(Node::Leaf(BaseLeaf::from_parts(
                relation, present, values, leaf_bytes,
            )));
            node = Some(match node {
                None => (leaf, RelationSet::singleton(relation)),
                Some((left, left_relations)) => {
                    let mut covered = left_relations;
                    covered.insert(relation);
                    (Arc::new(Node::join(left, left_relations, leaf)), covered)
                }
            });
        }
        let Some((node, covered)) = node else {
            return Err(ClashError::Runtime("tuple covers no relation".into()));
        };
        if pairs.iter().any(|(a, _)| !covered.contains(a.relation)) {
            return Err(ClashError::Runtime(
                "tuple attribute outside its relation set".into(),
            ));
        }
        Ok(Tuple {
            ts,
            relations,
            node,
        })
    }
}

/// The home of a run of join results, each handed to its consumers before
/// the next is built: the rule kernel joins one probe with every match
/// and dispatches each result at once. [`JoinSlot::join`] builds the next
/// result in the previous one's node when every consumer has released it
/// (a sink that only reads it, an `Emit` nobody retains), and in a fresh
/// node otherwise (a retained copy, a forward in flight), which is then
/// never written again. So such a run allocates one join node, not one
/// per result, and a result a consumer kept never changes under it.
#[derive(Debug, Default)]
pub struct JoinSlot {
    last: Option<Tuple>,
}

impl JoinSlot {
    /// [`Tuple::join`] of `left` and `right` — the same result, and `None`
    /// on overlapping relation sets — built in the previous result's node
    /// when no one else holds it.
    #[inline]
    pub fn join(&mut self, left: &Tuple, right: &Tuple) -> Option<&Tuple> {
        if !left.relations.is_disjoint(&right.relations) {
            return None;
        }
        let reused = self.last.as_mut().is_some_and(|t| t.rejoin(left, right));
        if !reused {
            self.last = left.join(right);
        }
        self.last.as_ref()
    }
}

/// Content equality over the flattened `(attribute, value)` mapping plus
/// timestamp and relation set — independent of rope shape, so a join
/// result equals its wire-round-tripped (re-leafed) copy.
impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        if self.ts != other.ts || self.relations != other.relations || self.arity() != other.arity()
        {
            return false;
        }
        self.iter()
            .all(|(attr, value)| other.get(&attr) == Some(value))
    }
}

impl Eq for Tuple {}

/// Iterator over the flattened `(attribute, value)` pairs of a rope.
#[derive(Debug)]
pub struct TupleIter<'a> {
    /// Unvisited sub-ropes, rightmost at the bottom.
    stack: Vec<&'a Arc<Node>>,
    /// Leaf currently being drained, with its next slot.
    leaf: Option<(&'a BaseLeaf, usize)>,
}

impl<'a> Iterator for TupleIter<'a> {
    type Item = (AttrRef, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((leaf, slot)) = &mut self.leaf {
                while *slot < leaf.values.len() {
                    let s = *slot;
                    *slot += 1;
                    if leaf.present & (1u64 << s) != 0 {
                        return Some((
                            AttrRef::new(leaf.relation, AttrId::new(s as u32)),
                            &leaf.values[s],
                        ));
                    }
                }
            }
            self.leaf = None;
            match &**self.stack.pop()? {
                Node::Leaf(leaf) => self.leaf = Some((leaf, 0)),
                Node::Join { left, right, .. } => {
                    self.stack.push(right);
                    self.stack.push(left);
                }
            }
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨τ={} ", self.ts)?;
        for (i, (a, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}={v}")?;
        }
        write!(f, "⟩")
    }
}

/// Precomputed positional accessor for one attribute: the owning relation
/// plus the dense slot within that relation's leaf. The slot is fixed by
/// the schema, so stores resolve it **once** (per indexed attribute, per
/// probe predicate) and reuse it for every tuple, instead of re-deriving
/// the offset — or worse, linearly scanning pairs — per lookup. The
/// rope descent itself stays per-tuple because rope shapes vary with the
/// probe order that built the tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotAccessor {
    relation: RelationId,
    slot: usize,
}

impl SlotAccessor {
    /// Precomputes the accessor for an attribute reference.
    #[inline]
    pub fn of(attr: &AttrRef) -> SlotAccessor {
        SlotAccessor {
            relation: attr.relation,
            slot: attr.attr.index(),
        }
    }

    /// The attribute this accessor resolves.
    pub fn attr(&self) -> AttrRef {
        AttrRef::new(self.relation, AttrId::new(self.slot as u32))
    }

    /// Positional lookup on a tuple: relation-set descent to the leaf,
    /// then a direct slot read. No upfront membership test: descending on
    /// "not in the left half → go right" lands on *some* leaf either way,
    /// and the leaf's relation check rejects foreign attributes — one
    /// fewer set test on the hit path the probe loop pays per candidate.
    #[inline]
    pub fn get<'t>(&self, tuple: &'t Tuple) -> Option<&'t Value> {
        let mut node = &*tuple.node;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return if leaf.relation == self.relation {
                        leaf.slot(self.slot)
                    } else {
                        None
                    };
                }
                Node::Join {
                    left,
                    left_relations,
                    right,
                    ..
                } => {
                    node = if left_relations.contains(self.relation) {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

// --- wire codec -----------------------------------------------------------

/// Bumped on every layout change: `from_wire` refuses any other version.
const WIRE_VERSION: u8 = 2;

fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn decode_value(r: &mut WireReader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::Int(i64::from_le_bytes(r.array()?)),
        3 => Value::Float(f64::from_bits(u64::from_le_bytes(r.array()?))),
        4 => {
            let len = r.u32()? as usize;
            let bytes = r.bytes(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| ClashError::Runtime("invalid UTF-8 in tuple wire string".into()))?;
            Value::str(s)
        }
        tag => {
            return Err(ClashError::Runtime(format!(
                "unknown value tag {tag} in tuple wire format"
            )))
        }
    })
}

struct WireReader<'a> {
    bytes: &'a [u8],
}

impl<'a> WireReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes }
    }

    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() < n {
            return Err(ClashError::Runtime("truncated tuple wire data".into()));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.bytes(N)?
            .try_into()
            .map_err(|_| ClashError::Runtime("truncated tuple wire data".into()))
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.array()?))
    }
}

/// Builder for base tuples that writes values straight into an
/// arena-backed leaf buffer — no intermediate `(AttrRef, Value)` vector,
/// no re-scan at build time. Names resolve through [`Schema::attr_id`];
/// hot paths that already know the slot use [`TupleBuilder::set_slot`].
/// The buffer itself comes from the thread-local leaf arena, so
/// steady-state construction reuses memory freed by window expiry.
#[derive(Debug)]
pub struct TupleBuilder<'a> {
    schema: &'a Schema,
    relation: RelationId,
    ts: Timestamp,
    values: Box<[Value]>,
    present: u64,
    bytes: usize,
}

impl<'a> TupleBuilder<'a> {
    /// Starts building a tuple of the given relation with timestamp `ts`.
    /// The leaf buffer is the schema's arity wide, which keeps the arena
    /// pool's width buckets hot.
    #[inline(always)]
    pub fn new(schema: &'a Schema, ts: Timestamp) -> Self {
        let width = schema.arity();
        assert!(
            width <= MAX_ATTRS_PER_RELATION,
            "schema {} exceeds the {MAX_ATTRS_PER_RELATION}-attribute leaf limit",
            schema.name
        );
        TupleBuilder {
            schema,
            relation: schema.relation,
            ts,
            values: crate::arena::take_buffer(width),
            present: 0,
            bytes: 0,
        }
    }

    /// Sets an attribute by name. Unknown names are ignored with a debug
    /// assertion, so typos surface in tests without poisoning release runs.
    pub fn set(mut self, attr: &str, value: impl Into<Value>) -> Self {
        match self.schema.attr_id(attr) {
            Some(id) => self.put(id.index(), value.into()),
            None => debug_assert!(false, "unknown attribute {attr} on {}", self.schema.name),
        }
        self
    }

    /// Sets an attribute by schema slot — the positional fast path for
    /// generators and codecs that resolved the slot once up front.
    /// Out-of-range slots are ignored with a debug assertion.
    /// `always`-inlined: the by-value chaining style moves the ~70-byte
    /// builder through every call, and only full inlining lets the
    /// optimizer collapse the chain into in-place writes.
    #[inline(always)]
    pub fn set_slot(mut self, attr: AttrId, value: impl Into<Value>) -> Self {
        self.put(attr.index(), value.into());
        self
    }

    #[inline(always)]
    fn put(&mut self, slot: usize, value: Value) {
        // Range guarding happens once, inside `write_slot` — a second
        // check here would add a dead branch (and a `value` drop path)
        // to every slot write.
        debug_assert!(
            slot < self.values.len(),
            "slot {slot} out of range on {}",
            self.schema.name
        );
        write_slot(
            &mut self.values,
            &mut self.present,
            &mut self.bytes,
            slot,
            value,
        );
    }

    /// Finishes the tuple. The filled buffer becomes the leaf directly —
    /// no re-scan, no copy.
    ///
    /// The builder deliberately has no `Drop` impl: one would force the
    /// compiler to thread drop flags through every by-value `set`/
    /// `set_slot` move, which measurably slows the per-tuple construction
    /// chain. The only cost is that an *abandoned* builder frees its
    /// buffer through the allocator instead of the arena — the built
    /// leaf still recycles it on expiry, which is the path that matters.
    #[inline]
    pub fn build(self) -> Tuple {
        let TupleBuilder {
            relation,
            ts,
            values,
            present,
            bytes,
            ..
        } = self;
        let leaf = BaseLeaf::from_parts(relation, present, values, bytes);
        Tuple {
            ts,
            relations: RelationSet::singleton(relation),
            node: Arc::new(Node::Leaf(leaf)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AttrId;

    fn schema_r() -> Schema {
        Schema::new(RelationId::new(0), "R", ["a", "x"])
    }

    fn schema_s() -> Schema {
        Schema::new(RelationId::new(1), "S", ["a", "b"])
    }

    fn schema_t() -> Schema {
        Schema::new(RelationId::new(2), "T", ["b", "c"])
    }

    fn r_tuple(a: i64, ts: u64) -> Tuple {
        TupleBuilder::new(&schema_r(), Timestamp::from_millis(ts))
            .set("a", a)
            .set("x", "payload")
            .build()
    }

    fn s_tuple(a: i64, b: i64, ts: u64) -> Tuple {
        TupleBuilder::new(&schema_s(), Timestamp::from_millis(ts))
            .set("a", a)
            .set("b", b)
            .build()
    }

    #[test]
    fn builder_resolves_names() {
        let t = r_tuple(7, 100);
        let a_ref = schema_r().attr_ref("a").unwrap();
        assert_eq!(t.get(&a_ref), Some(&Value::Int(7)));
        assert_eq!(t.arity(), 2);
        assert_eq!(t.relations, RelationSet::singleton(RelationId::new(0)));
        assert!(!t.is_intermediate());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn get_unknown_attribute_returns_none() {
        let t = r_tuple(7, 100);
        let foreign = AttrRef::new(RelationId::new(5), AttrId::new(0));
        assert_eq!(t.get(&foreign), None);
        // Unset slot of the own relation.
        let unset = AttrRef::new(RelationId::new(0), AttrId::new(9));
        assert_eq!(t.get(&unset), None);
    }

    #[test]
    fn join_concatenates_and_takes_max_timestamp() {
        let r = r_tuple(1, 100);
        let s = s_tuple(1, 9, 250);
        let rs = r.join(&s).expect("disjoint relations join");
        assert_eq!(rs.ts, Timestamp::from_millis(250));
        assert_eq!(rs.arity(), 4);
        assert!(rs.is_intermediate());
        assert!(rs.relations.contains(RelationId::new(0)));
        assert!(rs.relations.contains(RelationId::new(1)));
        let b_ref = schema_s().attr_ref("b").unwrap();
        assert_eq!(rs.get(&b_ref), Some(&Value::Int(9)));
        // Join is symmetric in the covered relations.
        let sr = s.join(&r).unwrap();
        assert_eq!(sr.relations, rs.relations);
        assert_eq!(sr.ts, rs.ts);
    }

    #[test]
    fn join_is_zero_copy_and_shares_constituent_payloads() {
        let r = r_tuple(1, 100);
        let s = s_tuple(1, 9, 250);
        let t = TupleBuilder::new(&schema_t(), Timestamp::from_millis(300))
            .set("b", 9)
            .set("c", 5)
            .build();
        let rs = r.join(&s).unwrap();
        // The join result references the constituents' payload ropes by
        // pointer — no per-attribute copying happened.
        assert!(rs.shares_payload_with(&r));
        assert!(rs.shares_payload_with(&s));
        let rst = rs.join(&t).unwrap();
        assert!(rst.shares_payload_with(&rs));
        assert!(rst.shares_payload_with(&r));
        assert!(rst.shares_payload_with(&s));
        assert!(rst.shares_payload_with(&t));
        assert!(!rs.shares_payload_with(&t));
        assert_eq!(rst.depth(), 2);
        // Every value is still reachable positionally.
        let c_ref = schema_t().attr_ref("c").unwrap();
        assert_eq!(rst.get(&c_ref), Some(&Value::Int(5)));
        let a_ref = schema_r().attr_ref("a").unwrap();
        assert_eq!(rst.get(&a_ref), Some(&Value::Int(1)));
    }

    #[test]
    fn join_rejects_overlapping_relation_sets() {
        let r1 = r_tuple(1, 100);
        let r2 = r_tuple(2, 200);
        assert!(r1.join(&r2).is_none());
        let s = s_tuple(1, 2, 50);
        let rs = r1.join(&s).unwrap();
        assert!(rs.join(&r2).is_none(), "partial result already covers R");
    }

    #[test]
    fn size_accounting_grows_with_payload() {
        let small = r_tuple(1, 0);
        let joined = small.join(&s_tuple(1, 2, 0)).unwrap();
        assert!(joined.approx_size_bytes() > small.approx_size_bytes());
        // Join sizes are the sum of the flattened constituents (minus one
        // shared header): structural sharing does not hide logical bytes.
        assert_eq!(
            joined.approx_size_bytes(),
            small.approx_size_bytes() + s_tuple(1, 2, 0).approx_size_bytes() - SIZE_HEADER
        );
    }

    #[test]
    fn clone_shares_payload() {
        let t = r_tuple(1, 0);
        let c = t.clone();
        assert_eq!(t, c);
        // Rope payload: cloning does not deep copy (pointer equality).
        assert!(Arc::ptr_eq(&t.node, &c.node));
    }

    #[test]
    fn a_join_slot_reuses_a_released_result_node_and_never_a_kept_one() {
        let r = r_tuple(1, 100);
        let (s1, s2, s3) = (s_tuple(1, 2, 50), s_tuple(1, 3, 400), s_tuple(1, 4, 60));
        let mut slot = JoinSlot::default();
        let node = Arc::as_ptr(&slot.join(&r, &s1).unwrap().node);
        // Nobody kept the first result: the second is built in its node,
        // which lets go of the first result's hit.
        let second = slot.join(&r, &s2).unwrap();
        assert_eq!(Arc::as_ptr(&second.node), node);
        assert_eq!(Arc::strong_count(&s1.node), 1);
        assert_eq!(*second, r.join(&s2).unwrap());
        assert_eq!(second.ts, Timestamp::from_millis(400));
        // A kept result keeps its node: the next one takes a fresh node,
        // and the kept one reads what it read when it was handed out.
        let kept = second.clone();
        let third = slot.join(&r, &s3).unwrap();
        assert_ne!(Arc::as_ptr(&third.node), node);
        assert_eq!(*third, r.join(&s3).unwrap());
        assert_eq!(third.ts, Timestamp::from_millis(100));
        assert_eq!(kept, r.join(&s2).unwrap());
        assert!(kept.shares_payload_with(&s2) && !kept.shares_payload_with(&s3));
        // Overlapping relation sets join to nothing, as `Tuple::join` says.
        assert!(slot.join(&r, &r_tuple(2, 5)).is_none());
        assert!(slot.join(&r.join(&s1).unwrap(), &s2).is_none());
    }

    #[test]
    fn iter_yields_rope_order() {
        let r = r_tuple(1, 10);
        let s = s_tuple(1, 2, 20);
        let rs = r.join(&s).unwrap();
        let attrs: Vec<String> = rs.iter().map(|(a, _)| a.to_string()).collect();
        assert_eq!(attrs, vec!["R0.a0", "R0.a1", "R1.a0", "R1.a1"]);
        assert_eq!(rs.iter().count(), rs.arity());
    }

    #[test]
    fn slot_accessor_matches_get() {
        let r = r_tuple(3, 10);
        let s = s_tuple(3, 4, 20);
        let rs = r.join(&s).unwrap();
        for (attr, value) in rs.iter() {
            let slot = SlotAccessor::of(&attr);
            assert_eq!(slot.get(&rs), Some(value));
            assert_eq!(slot.attr(), attr);
        }
        let foreign = SlotAccessor::of(&AttrRef::new(RelationId::new(9), AttrId::new(0)));
        assert_eq!(foreign.get(&rs), None);
    }

    #[test]
    fn explicit_null_is_present_but_unset_slot_is_absent() {
        let schema = schema_s();
        let t = TupleBuilder::new(&schema, Timestamp::from_millis(1))
            .set("a", Value::Null)
            .build();
        assert_eq!(t.get(&schema.attr_ref("a").unwrap()), Some(&Value::Null));
        assert_eq!(t.get(&schema.attr_ref("b").unwrap()), None);
        assert_eq!(t.arity(), 1);
    }

    #[test]
    fn wire_round_trip_preserves_content() {
        let r = r_tuple(1, 100);
        let s = s_tuple(1, 9, 250);
        let t = TupleBuilder::new(&schema_t(), Timestamp::from_millis(300))
            .set("b", 9)
            .set("c", 5)
            .build();
        for tuple in [
            r.clone(),
            r.join(&s).unwrap(),
            r.join(&s).unwrap().join(&t).unwrap(),
        ] {
            let decoded = Tuple::from_wire(&tuple.to_wire()).expect("round trip");
            assert_eq!(decoded, tuple);
            assert_eq!(decoded.ts, tuple.ts);
            assert_eq!(decoded.relations, tuple.relations);
            assert_eq!(decoded.approx_size_bytes(), tuple.approx_size_bytes());
        }
    }

    #[test]
    fn wire_rejects_garbage() {
        assert!(Tuple::from_wire(&[]).is_err());
        assert!(Tuple::from_wire(&[99, 0, 0]).is_err());
        let mut truncated = r_tuple(1, 5).to_wire();
        truncated.truncate(truncated.len() - 1);
        assert!(Tuple::from_wire(&truncated).is_err());
    }

    #[test]
    fn wire_rejects_hostile_counts_and_slots_without_panicking() {
        // Header claiming u32::MAX attributes with an empty payload: must
        // error out before allocating anything.
        let mut huge_count = Vec::new();
        huge_count.push(WIRE_VERSION);
        huge_count.extend_from_slice(&0u64.to_le_bytes()); // ts
        huge_count.extend_from_slice(&1u128.to_le_bytes()); // relations {0}
        huge_count.extend_from_slice(&u32::MAX.to_le_bytes()); // n
        assert!(Tuple::from_wire(&huge_count).is_err());

        // A pair with attribute slot 64 (beyond the leaf bitmap): must be
        // an error, not the leaf constructor's assert.
        let mut bad_slot = Vec::new();
        bad_slot.push(WIRE_VERSION);
        bad_slot.extend_from_slice(&0u64.to_le_bytes());
        bad_slot.extend_from_slice(&1u128.to_le_bytes());
        bad_slot.extend_from_slice(&1u32.to_le_bytes()); // n = 1
        bad_slot.extend_from_slice(&0u32.to_le_bytes()); // relation 0
        bad_slot.extend_from_slice(&64u32.to_le_bytes()); // attr slot 64
        bad_slot.push(0u8); // Value::Null
        assert!(Tuple::from_wire(&bad_slot).is_err());
    }

    /// Version 1 carried a second timestamp word after `ts`. Decoding such
    /// bytes as version 2 would shift every later field by eight bytes, so
    /// they must be refused with a typed error.
    #[test]
    fn wire_rejects_version_one_bytes() {
        let mut v1 = vec![1u8];
        v1.extend_from_slice(&5u64.to_le_bytes()); // ts
        v1.extend_from_slice(&5u64.to_le_bytes()); // the dropped word
        v1.extend_from_slice(&1u128.to_le_bytes()); // relations {0}
        v1.extend_from_slice(&1u32.to_le_bytes()); // n = 1
        v1.extend_from_slice(&0u32.to_le_bytes()); // relation 0
        v1.extend_from_slice(&0u32.to_le_bytes()); // attr slot 0
        v1.push(2u8); // Value::Int
        v1.extend_from_slice(&1i64.to_le_bytes());
        match Tuple::from_wire(&v1) {
            Err(ClashError::Runtime(msg)) => assert!(msg.contains("wire version 1"), "{msg}"),
            other => panic!("version-1 bytes must be refused, got {other:?}"),
        }
        assert_eq!(r_tuple(1, 5).to_wire()[0], WIRE_VERSION);
    }

    #[test]
    fn display_contains_values() {
        let t = r_tuple(3, 5);
        let s = t.to_string();
        assert!(s.contains("=3"));
        assert!(s.contains("τ=5ms"));
    }

    /// The layout the rope's speed rests on: leaves and joins are told
    /// apart by a pointer niche, not a tag, so a node plus its `Arc`
    /// header is one 64-byte cache line. Adding a field or a variant that
    /// breaks this was measured to cost every `get`, `join` and build
    /// ~10 % — if this fails, re-measure before relaxing it.
    #[test]
    fn a_node_with_its_arc_header_is_one_cache_line() {
        assert!(std::mem::size_of::<Node>() <= 48);
    }

    /// A probe walks a `Vec<Tuple>`, so every byte here is paid per stored
    /// tuple visited: `ts`, the 16-aligned `RelationSet` and the rope
    /// pointer make 32. A per-tuple window deadline, when it lands, will
    /// take this to 48 on purpose — change the pin then, not before.
    #[test]
    fn a_tuple_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Tuple>(), 32);
    }
}
