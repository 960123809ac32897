//! # clash-common
//!
//! Foundational data model shared by every crate of the CLASH multi-way
//! stream-join reproduction: values, tuples, schemas, identifiers, time
//! (timestamps, windows, epochs) and relation sets.
//!
//! The paper ("Optimizing Multiple Multi-Way Stream Joins", ICDE 2021)
//! operates on *streamed relations* `S1, ..., Sm`: unbounded sequences of
//! tuples, each carrying a timestamp attribute `τ`. Join queries relate
//! attributes of different relations through equality predicates and bound
//! the joinable partners through per-relation time windows. This crate
//! provides exactly those primitives and nothing query- or plan-specific.

pub mod arena;
pub mod diagnostic;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod postings;
pub mod relation_set;
pub mod schema;
pub mod telemetry;
pub mod time;
pub mod tuple;
pub mod value;

pub use arena::{arena_stats, ArenaStats};
pub use diagnostic::{Diagnostic, Severity};
pub use error::{ClashError, Result};
pub use fxhash::{fx_hash, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{AttrId, EdgeId, QueryId, RelationId, StoreId, WorkerId};
pub use postings::{PostingList, INLINE_POSTINGS};
pub use relation_set::RelationSet;
pub use schema::{AttrRef, Attribute, Schema, SchemaRef};
pub use telemetry::{
    chrome_trace_json, trace_clock_us, Exposition, LatencyHistogram, TraceEvent, TraceEventKind,
    TraceRing,
};
pub use time::{Duration, Epoch, EpochConfig, Timestamp, Window};
pub use tuple::{JoinSlot, SlotAccessor, Tuple, TupleBuilder, TupleIter, MAX_ATTRS_PER_RELATION};
pub use value::Value;
