//! # clash-query
//!
//! The query model of the CLASH multi-way stream join reproduction:
//! windowed multi-way equi-join queries, their join graphs, and the
//! plan-space building blocks of Section V of the paper:
//!
//! * [`EquiPredicate`] / [`JoinQuery`] — continuous equi-join queries over
//!   a set of streamed relations (`q = R(a), S(a,b), T(b)` in paper
//!   notation, parsable via [`parse::parse_query`]),
//! * [`QueryGraph`] — the join graph induced by the predicates, used to
//!   avoid cross products,
//! * [`mir`] — enumeration of *materializable intermediate results*
//!   (connected sub-queries); an MIR's identity is its relations together
//!   with the query's [`PredicateSet`] on them, decided by
//!   [`JoinQuery::mir`],
//! * [`probe_order`] — candidate probe order construction (Algorithm 1),
//! * [`partitioning`] — candidate partitioning attributes for stores,
//! * [`StoreDescriptor`] — the layout of one store: the MIR it holds
//!   (relations and predicates), its partitioning and parallelism — what
//!   the cost model prices and the optimizer, the analyzer and both
//!   engines share.
//!
//! Everything in this crate is purely structural: costs are attached by
//! `clash-cost`, and the ILP that picks among the candidates lives in
//! `clash-optimizer`.

pub mod graph;
pub mod mir;
pub mod parse;
pub mod partitioning;
pub mod predicate;
pub mod probe_order;
pub mod query;
pub mod store;

pub use graph::QueryGraph;
pub use mir::{enumerate_mirs, Mir};
pub use parse::parse_query;
pub use partitioning::partition_candidates;
pub use predicate::{EquiPredicate, PredicateSet};
pub use probe_order::{construct_probe_orders_for_start, ProbeOrder};
pub use query::{JoinQuery, QueryBuilder};
pub use store::StoreDescriptor;
