//! Join graphs.
//!
//! The join graph of a query has one node per streamed relation and one
//! edge per equi-join predicate. It is the structure that every
//! enumeration step of Section V walks: materializable intermediate
//! results are *connected* subgraphs, and a probe order may only extend its
//! head with a store that is *joinable* with it (cross-product avoidance of
//! Algorithm 1).

use crate::predicate::EquiPredicate;
use clash_common::{RelationId, RelationSet};

/// The join graph induced by a set of equi-join predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGraph {
    /// All relations of the query (nodes).
    pub relations: RelationSet,
    /// All predicates (edges).
    pub predicates: Vec<EquiPredicate>,
}

impl QueryGraph {
    /// Builds a graph from a node set and predicate list.
    pub fn new(relations: RelationSet, predicates: &[EquiPredicate]) -> Self {
        QueryGraph {
            relations,
            predicates: predicates.to_vec(),
        }
    }

    /// Neighbors of a relation: every relation connected to it by at least
    /// one predicate.
    pub fn neighbors(&self, relation: RelationId) -> RelationSet {
        let mut out = RelationSet::new();
        for p in &self.predicates {
            if let Some(other) = p.other_side(relation) {
                out.insert(other.relation);
            }
        }
        out
    }

    /// Neighbors of a relation *set*: every relation outside the set that is
    /// connected to some member by a predicate.
    pub fn neighbors_of_set(&self, set: &RelationSet) -> RelationSet {
        let mut out = RelationSet::new();
        for p in &self.predicates {
            let l_in = set.contains(p.left.relation);
            let r_in = set.contains(p.right.relation);
            if l_in && !r_in {
                out.insert(p.right.relation);
            } else if r_in && !l_in {
                out.insert(p.left.relation);
            }
        }
        out
    }

    /// `true` when at least one predicate connects the two disjoint sets —
    /// joining them does not introduce a cross product.
    pub fn joinable(&self, a: &RelationSet, b: &RelationSet) -> bool {
        if !a.is_disjoint(b) || a.is_empty() || b.is_empty() {
            return false;
        }
        self.predicates.iter().any(|p| p.connects(a, b))
    }

    /// All predicates connecting the two disjoint sets (the join condition
    /// evaluated when probing a `b`-store with an `a`-tuple).
    pub fn connecting_predicates(&self, a: &RelationSet, b: &RelationSet) -> Vec<EquiPredicate> {
        self.predicates
            .iter()
            .filter(|p| p.connects(a, b))
            .copied()
            .collect()
    }

    /// `true` when the induced subgraph on `subset` is connected (and the
    /// subset is non-empty). Singletons are connected by definition.
    pub fn is_connected(&self, subset: &RelationSet) -> bool {
        if subset.is_empty() {
            return false;
        }
        let start = subset.iter().next().expect("non-empty subset");
        let mut reached = RelationSet::singleton(start);
        loop {
            let mut grew = false;
            for p in &self.predicates {
                if !p.within(subset) {
                    continue;
                }
                let l_in = reached.contains(p.left.relation);
                let r_in = reached.contains(p.right.relation);
                if l_in && !r_in {
                    reached.insert(p.right.relation);
                    grew = true;
                } else if r_in && !l_in {
                    reached.insert(p.left.relation);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        subset.is_subset(&reached)
    }

    /// Number of predicate edges whose both endpoints lie in `subset`.
    pub fn edge_count_within(&self, subset: &RelationSet) -> usize {
        self.predicates.iter().filter(|p| p.within(subset)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::{AttrId, AttrRef};

    fn attr(rel: u32, a: u32) -> AttrRef {
        AttrRef::new(RelationId::new(rel), AttrId::new(a))
    }

    fn rs(ids: &[u32]) -> RelationSet {
        ids.iter().map(|i| RelationId::new(*i)).collect()
    }

    /// Linear graph 0 - 1 - 2 - 3.
    fn linear4() -> QueryGraph {
        QueryGraph::new(
            rs(&[0, 1, 2, 3]),
            &[
                EquiPredicate::new(attr(0, 0), attr(1, 0)),
                EquiPredicate::new(attr(1, 1), attr(2, 0)),
                EquiPredicate::new(attr(2, 1), attr(3, 0)),
            ],
        )
    }

    /// Star graph with center 0 and leaves 1, 2, 3.
    fn star4() -> QueryGraph {
        QueryGraph::new(
            rs(&[0, 1, 2, 3]),
            &[
                EquiPredicate::new(attr(0, 0), attr(1, 0)),
                EquiPredicate::new(attr(0, 1), attr(2, 0)),
                EquiPredicate::new(attr(0, 2), attr(3, 0)),
            ],
        )
    }

    #[test]
    fn neighbors_follow_predicates() {
        let g = linear4();
        assert_eq!(g.neighbors(RelationId::new(0)), rs(&[1]));
        assert_eq!(g.neighbors(RelationId::new(1)), rs(&[0, 2]));
        assert_eq!(g.neighbors(RelationId::new(3)), rs(&[2]));
        let star = star4();
        assert_eq!(star.neighbors(RelationId::new(0)), rs(&[1, 2, 3]));
        assert_eq!(star.neighbors(RelationId::new(2)), rs(&[0]));
    }

    #[test]
    fn neighbors_of_set_excludes_members() {
        let g = linear4();
        assert_eq!(g.neighbors_of_set(&rs(&[1, 2])), rs(&[0, 3]));
        assert_eq!(g.neighbors_of_set(&rs(&[0])), rs(&[1]));
        assert_eq!(g.neighbors_of_set(&rs(&[0, 1, 2, 3])), RelationSet::EMPTY);
    }

    #[test]
    fn joinable_requires_connecting_predicate_and_disjointness() {
        let g = linear4();
        assert!(g.joinable(&rs(&[0]), &rs(&[1])));
        assert!(g.joinable(&rs(&[0, 1]), &rs(&[2, 3])));
        assert!(!g.joinable(&rs(&[0]), &rs(&[2])), "no predicate 0-2");
        assert!(!g.joinable(&rs(&[0, 1]), &rs(&[1, 2])), "not disjoint");
        assert!(!g.joinable(&rs(&[0]), &RelationSet::EMPTY));
    }

    #[test]
    fn connecting_predicates_returns_join_condition() {
        let g = linear4();
        let preds = g.connecting_predicates(&rs(&[0, 1]), &rs(&[2, 3]));
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0], EquiPredicate::new(attr(1, 1), attr(2, 0)));
        assert!(g.connecting_predicates(&rs(&[0]), &rs(&[3])).is_empty());
    }

    #[test]
    fn connectivity_of_subsets() {
        let g = linear4();
        assert!(g.is_connected(&rs(&[0, 1, 2, 3])));
        assert!(g.is_connected(&rs(&[1, 2])));
        assert!(g.is_connected(&rs(&[2])));
        assert!(!g.is_connected(&rs(&[0, 2])), "0 and 2 are not adjacent");
        assert!(!g.is_connected(&rs(&[0, 3])));
        assert!(!g.is_connected(&RelationSet::EMPTY));
        let star = star4();
        assert!(star.is_connected(&rs(&[0, 1, 3])));
        assert!(
            !star.is_connected(&rs(&[1, 2, 3])),
            "leaves only connect via center"
        );
    }

    #[test]
    fn edge_count_within_subsets() {
        let g = linear4();
        assert_eq!(g.edge_count_within(&g.relations), 3);
        assert_eq!(g.edge_count_within(&rs(&[0, 1])), 1);
        assert_eq!(g.edge_count_within(&rs(&[0, 2])), 0);
    }
}
