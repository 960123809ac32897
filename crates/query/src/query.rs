//! Continuous multi-way equi-join queries.

use crate::graph::QueryGraph;
use crate::mir::Mir;
use crate::predicate::{EquiPredicate, PredicateSet};
use clash_catalog::Catalog;
use clash_common::{ClashError, QueryId, RelationSet, Result};
use std::fmt;

/// A continuous multi-way windowed equi-join query `q_i(S_1, ..., S_n)`.
///
/// A query is defined by the set of streamed relations it joins and a list
/// of equi-join predicates. Its windows are its relations' windows in the
/// [`Catalog`] (Section I-A): a query carries none of its own. The join graph induced by the predicates must
/// be connected — the paper explicitly excludes cross products from the
/// plan space (Section V), and [`JoinQuery::validate`] enforces it.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    /// Identifier of the query, unique within a deployment.
    pub id: QueryId,
    /// Human readable name, e.g. `"q1"`.
    pub name: String,
    /// The joined relations.
    pub relations: RelationSet,
    /// The equi-join predicates (deduplicated, sorted).
    pub predicates: Vec<EquiPredicate>,
}

impl JoinQuery {
    /// Creates a query and validates it.
    pub fn new(
        id: QueryId,
        name: impl Into<String>,
        relations: RelationSet,
        mut predicates: Vec<EquiPredicate>,
    ) -> Result<Self> {
        predicates.sort();
        predicates.dedup();
        let q = JoinQuery {
            id,
            name: name.into(),
            relations,
            predicates,
        };
        q.validate()?;
        Ok(q)
    }

    /// Number of joined relations.
    pub fn size(&self) -> usize {
        self.relations.len()
    }

    /// Builds the join graph of this query.
    pub fn graph(&self) -> QueryGraph {
        QueryGraph::new(self.relations, &self.predicates)
    }

    /// All predicates fully contained in the given relation subset (the
    /// predicate set of a sub-query / MIR).
    pub fn predicates_within(&self, set: &RelationSet) -> Vec<EquiPredicate> {
        self.predicates
            .iter()
            .filter(|p| p.within(set))
            .copied()
            .collect()
    }

    /// The materializable intermediate result over `relations`: the
    /// relations with this query's predicates on them. The one place a
    /// relation set's [`PredicateSet`] is decided.
    pub fn mir(&self, relations: RelationSet) -> Mir {
        Mir {
            relations,
            predicates: PredicateSet::intern(self.predicates_within(&relations)),
        }
    }

    /// The sub-query induced on a subset of this query's relations. Used to
    /// generate probe orders that *compute* a materializable intermediate
    /// result. The subset must be connected; the sub-query keeps this
    /// query's id.
    pub fn subquery(&self, relations: RelationSet) -> Result<JoinQuery> {
        if !relations.is_subset(&self.relations) {
            return Err(ClashError::invalid_query(format!(
                "{relations} is not a subset of query {}",
                self.name
            )));
        }
        JoinQuery::new(
            self.id,
            format!("{}[{relations}]", self.name),
            relations,
            self.predicates_within(&relations),
        )
    }

    /// Checks structural invariants: at least one relation, every predicate
    /// endpoint inside the relation set, and a connected join graph (for
    /// queries with more than one relation).
    pub fn validate(&self) -> Result<()> {
        if self.relations.is_empty() {
            return Err(ClashError::invalid_query("query has no relations"));
        }
        for p in &self.predicates {
            if !self.relations.contains(p.left.relation)
                || !self.relations.contains(p.right.relation)
            {
                return Err(ClashError::invalid_query(format!(
                    "predicate {p} references a relation outside the query"
                )));
            }
        }
        if self.relations.len() > 1 {
            let graph = self.graph();
            if !graph.is_connected(&self.relations) {
                return Err(ClashError::invalid_query(format!(
                    "join graph of {} is not connected (cross products are not supported)",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for JoinQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, r) in self.relations.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "): ")?;
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// Fluent builder that resolves relation and attribute names through a
/// [`Catalog`].
///
/// ```
/// use clash_catalog::Catalog;
/// use clash_common::{QueryId, Window};
/// use clash_query::QueryBuilder;
///
/// let mut catalog = Catalog::new();
/// catalog.register("R", ["a"], Window::secs(5), 1).unwrap();
/// catalog.register("S", ["a", "b"], Window::secs(5), 1).unwrap();
/// catalog.register("T", ["b"], Window::secs(5), 1).unwrap();
///
/// let q = QueryBuilder::new(QueryId::new(0), "q1", &catalog)
///     .join("R", "a", "S", "a")
///     .unwrap()
///     .join("S", "b", "T", "b")
///     .unwrap()
///     .build()
///     .unwrap();
/// assert_eq!(q.size(), 3);
/// ```
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    id: QueryId,
    name: String,
    catalog: &'a Catalog,
    relations: RelationSet,
    predicates: Vec<EquiPredicate>,
}

impl<'a> QueryBuilder<'a> {
    /// Starts building a query.
    pub fn new(id: QueryId, name: impl Into<String>, catalog: &'a Catalog) -> Self {
        QueryBuilder {
            id,
            name: name.into(),
            catalog,
            relations: RelationSet::new(),
            predicates: Vec::new(),
        }
    }

    /// Adds a relation without a predicate (only useful for single-relation
    /// queries or before adding predicates referencing it).
    pub fn relation(mut self, name: &str) -> Result<Self> {
        let id = self
            .catalog
            .relation_id(name)
            .ok_or_else(|| ClashError::unknown(format!("relation '{name}'")))?;
        self.relations.insert(id);
        Ok(self)
    }

    /// Adds an equi-join predicate `left_rel.left_attr = right_rel.right_attr`
    /// and both relations to the query.
    pub fn join(
        mut self,
        left_rel: &str,
        left_attr: &str,
        right_rel: &str,
        right_attr: &str,
    ) -> Result<Self> {
        let l = self.catalog.attr(left_rel, left_attr)?;
        let r = self.catalog.attr(right_rel, right_attr)?;
        self.relations.insert(l.relation);
        self.relations.insert(r.relation);
        self.predicates.push(EquiPredicate::new(l, r));
        Ok(self)
    }

    /// Finishes and validates the query.
    pub fn build(self) -> Result<JoinQuery> {
        JoinQuery::new(self.id, self.name, self.relations, self.predicates)
    }
}

/// Helper to expose a relation id used in unit tests across this crate.
#[cfg(test)]
pub(crate) fn rid(i: u32) -> clash_common::RelationId {
    clash_common::RelationId::new(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::{AttrId, AttrRef, Window};

    fn attr(rel: u32, a: u32) -> AttrRef {
        AttrRef::new(rid(rel), AttrId::new(a))
    }

    /// R(a) ⋈ S(a,b) ⋈ T(b): the paper's running example.
    pub(crate) fn linear3() -> JoinQuery {
        let relations = RelationSet::from_iter([rid(0), rid(1), rid(2)]);
        JoinQuery::new(
            QueryId::new(0),
            "q1",
            relations,
            vec![
                EquiPredicate::new(attr(0, 0), attr(1, 0)),
                EquiPredicate::new(attr(1, 1), attr(2, 0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn valid_linear_query() {
        let q = linear3();
        assert_eq!(q.size(), 3);
        assert!(q.validate().is_ok());
        assert_eq!(q.predicates.len(), 2);
    }

    #[test]
    fn disconnected_query_rejected() {
        let relations = RelationSet::from_iter([rid(0), rid(1), rid(2), rid(3)]);
        let result = JoinQuery::new(
            QueryId::new(1),
            "bad",
            relations,
            vec![
                EquiPredicate::new(attr(0, 0), attr(1, 0)),
                EquiPredicate::new(attr(2, 0), attr(3, 0)),
            ],
        );
        assert!(matches!(result, Err(ClashError::InvalidQuery(_))));
    }

    #[test]
    fn empty_query_rejected() {
        let result = JoinQuery::new(QueryId::new(1), "empty", RelationSet::new(), vec![]);
        assert!(result.is_err());
    }

    #[test]
    fn foreign_predicate_rejected() {
        let relations = RelationSet::from_iter([rid(0), rid(1)]);
        let result = JoinQuery::new(
            QueryId::new(1),
            "foreign",
            relations,
            vec![EquiPredicate::new(attr(0, 0), attr(5, 0))],
        );
        assert!(result.is_err());
    }

    #[test]
    fn duplicate_predicates_are_deduplicated() {
        let relations = RelationSet::from_iter([rid(0), rid(1)]);
        let q = JoinQuery::new(
            QueryId::new(2),
            "dup",
            relations,
            vec![
                EquiPredicate::new(attr(0, 0), attr(1, 0)),
                EquiPredicate::new(attr(1, 0), attr(0, 0)),
            ],
        )
        .unwrap();
        assert_eq!(q.predicates.len(), 1);
    }

    #[test]
    fn predicates_between_and_within() {
        let q = linear3();
        let r = RelationSet::singleton(rid(0));
        let s = RelationSet::singleton(rid(1));
        let st = RelationSet::from_iter([rid(1), rid(2)]);
        let between = |a, b| q.predicates.iter().filter(|p| p.connects(a, b)).count();
        assert_eq!(between(&r, &s), 1);
        assert_eq!(between(&r, &st), 1);
        assert_eq!(between(&r, &RelationSet::singleton(rid(2))), 0);
        assert_eq!(q.predicates_within(&st).len(), 1);
        assert_eq!(q.predicates_within(&q.relations).len(), 2);
        assert_eq!(q.predicates_within(&r).len(), 0);
    }

    #[test]
    fn subquery_extraction() {
        let q = linear3();
        let st = RelationSet::from_iter([rid(1), rid(2)]);
        let sub = q.subquery(st).unwrap();
        assert_eq!(sub.size(), 2);
        assert_eq!(sub.predicates.len(), 1);
        assert_eq!(sub.id, q.id);
        // Subset check enforced.
        let foreign = RelationSet::from_iter([rid(1), rid(5)]);
        assert!(q.subquery(foreign).is_err());
    }

    #[test]
    fn builder_resolves_names_through_catalog() {
        let mut catalog = Catalog::new();
        catalog.register("R", ["a"], Window::secs(5), 1).unwrap();
        catalog
            .register("S", ["a", "b"], Window::secs(5), 1)
            .unwrap();
        catalog.register("T", ["b"], Window::secs(5), 1).unwrap();
        let q = QueryBuilder::new(QueryId::new(3), "q", &catalog)
            .join("R", "a", "S", "a")
            .unwrap()
            .join("S", "b", "T", "b")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(q.size(), 3);
        assert!(QueryBuilder::new(QueryId::new(4), "bad", &catalog)
            .join("R", "a", "Z", "a")
            .is_err());
        let single = QueryBuilder::new(QueryId::new(5), "single", &catalog)
            .relation("R")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(single.size(), 1);
    }

    #[test]
    fn display_mentions_relations_and_predicates() {
        let q = linear3();
        let s = q.to_string();
        assert!(s.contains("q1"));
        assert!(s.contains("R0"));
        assert!(s.contains("="));
    }
}
