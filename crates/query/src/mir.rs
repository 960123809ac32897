//! Materializable intermediate results (MIRs).
//!
//! An MIR of a query is a subset of the queried relations together with the
//! join predicates defined on them *such that cross products are avoided*
//! (Section V of the paper) — i.e. a connected subgraph of the join graph.
//! MIRs are the unit from which candidate probe orders are constructed and
//! the candidate stores an optimizer may decide to materialize.
//!
//! As analyzed in Section V-A, a clique query over `n` relations has `2^n`
//! MIRs while a linear (chain) query only has `n(n+1)/2`; the enumeration
//! below therefore carries an optional size cap to keep the plan space of
//! large queries manageable.

use crate::query::JoinQuery;
use clash_common::RelationSet;

/// A materializable intermediate result: a connected subset of a query's
/// relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mir {
    /// The base relations covered by this intermediate result.
    pub relations: RelationSet,
}

impl Mir {
    /// Creates an MIR from a relation set.
    pub fn new(relations: RelationSet) -> Self {
        Mir { relations }
    }

    /// Number of base relations covered.
    pub fn size(&self) -> usize {
        self.relations.len()
    }

    /// `true` if this MIR is a single base relation (always materialized —
    /// input relations are stored unconditionally, Section V).
    pub fn is_base(&self) -> bool {
        self.relations.len() == 1
    }
}

/// Enumerates all MIRs of a query: every connected, non-empty subset of the
/// query's relations with at most `max_size` members (`None` = no limit).
///
/// The result is sorted by `(size, bitmap)` so base relations come first and
/// the output is deterministic.
pub fn enumerate_mirs(query: &JoinQuery, max_size: Option<usize>) -> Vec<Mir> {
    let graph = query.graph();
    let relations: Vec<_> = query.relations.iter().collect();
    let n = relations.len();
    let cap = max_size.unwrap_or(n).min(n);

    // Breadth-first growth of connected subsets: start from singletons and
    // repeatedly add a neighboring relation. A set is only expanded by
    // relations with a larger index than its seed minimum to avoid
    // generating the same subset along multiple orders; membership dedup is
    // still needed because different seeds can reach the same set, so we
    // collect into a sorted, deduplicated vector at the end.
    let mut found: Vec<RelationSet> = Vec::new();
    let mut frontier: Vec<RelationSet> = relations
        .iter()
        .map(|r| RelationSet::singleton(*r))
        .collect();
    found.extend(frontier.iter().copied());

    for _ in 1..cap {
        let mut next = Vec::new();
        for set in &frontier {
            for candidate in graph.neighbors_of_set(set).iter() {
                let mut grown = *set;
                grown.insert(candidate);
                next.push(grown);
            }
        }
        next.sort();
        next.dedup();
        // Only keep sets we have not seen yet.
        let fresh: Vec<RelationSet> = next.into_iter().filter(|s| !found.contains(s)).collect();
        if fresh.is_empty() {
            break;
        }
        found.extend(fresh.iter().copied());
        frontier = fresh;
    }

    let mut mirs: Vec<Mir> = found.into_iter().map(Mir::new).collect();
    mirs.sort_by_key(|m| (m.size(), m.relations.bits()));
    mirs.dedup();
    mirs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::EquiPredicate;
    use clash_common::{AttrId, AttrRef, QueryId, RelationId};

    fn attr(rel: u32, a: u32) -> AttrRef {
        AttrRef::new(RelationId::new(rel), AttrId::new(a))
    }

    fn rs(ids: &[u32]) -> RelationSet {
        ids.iter().map(|i| RelationId::new(*i)).collect()
    }

    fn linear(n: u32) -> JoinQuery {
        let relations: RelationSet = (0..n).map(RelationId::new).collect();
        let predicates = (0..n - 1)
            .map(|i| EquiPredicate::new(attr(i, 1), attr(i + 1, 0)))
            .collect();
        JoinQuery::new(QueryId::new(0), "linear", relations, predicates).unwrap()
    }

    fn clique(n: u32) -> JoinQuery {
        let relations: RelationSet = (0..n).map(RelationId::new).collect();
        let mut predicates = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                predicates.push(EquiPredicate::new(attr(i, j), attr(j, i)));
            }
        }
        JoinQuery::new(QueryId::new(0), "clique", relations, predicates).unwrap()
    }

    #[test]
    fn linear_query_has_consecutive_subsequences() {
        // Linear query over n relations has n(n+1)/2 connected subsets.
        let q = linear(4);
        let mirs = enumerate_mirs(&q, None);
        assert_eq!(mirs.len(), 4 * 5 / 2);
        assert!(mirs.contains(&Mir::new(rs(&[1, 2]))));
        assert!(mirs.contains(&Mir::new(rs(&[0, 1, 2, 3]))));
        assert!(
            !mirs.iter().any(|m| m.relations == rs(&[0, 2])),
            "non-adjacent set excluded"
        );
        assert!(!mirs.iter().any(|m| m.relations == rs(&[0, 3])));
    }

    #[test]
    fn clique_query_has_all_nonempty_subsets() {
        let q = clique(4);
        let mirs = enumerate_mirs(&q, None);
        assert_eq!(mirs.len(), 2usize.pow(4) - 1);
    }

    #[test]
    fn star_query_excludes_leaf_pairs() {
        // Star: center 0, leaves 1..=3. Connected subsets must contain the
        // center unless they are singletons.
        let relations = rs(&[0, 1, 2, 3]);
        let predicates = vec![
            EquiPredicate::new(attr(0, 1), attr(1, 0)),
            EquiPredicate::new(attr(0, 2), attr(2, 0)),
            EquiPredicate::new(attr(0, 3), attr(3, 0)),
        ];
        let q = JoinQuery::new(QueryId::new(0), "star", relations, predicates).unwrap();
        let mirs = enumerate_mirs(&q, None);
        // 4 singletons + subsets containing the center: choose any of the
        // 2^3 leaf combinations = 8, i.e. 8 + 3 = 11 total.
        assert_eq!(mirs.len(), 11);
        assert!(!mirs.iter().any(|m| m.relations == rs(&[1, 2])));
    }

    #[test]
    fn size_cap_limits_enumeration() {
        let q = clique(5);
        let mirs = enumerate_mirs(&q, Some(2));
        // 5 singletons + C(5,2) pairs (clique: all pairs connected).
        assert_eq!(mirs.len(), 5 + 10);
        assert!(mirs.iter().all(|m| m.size() <= 2));
    }

    #[test]
    fn base_relations_are_always_included_and_marked() {
        let q = linear(3);
        let mirs = enumerate_mirs(&q, None);
        let bases: Vec<&Mir> = mirs.iter().filter(|m| m.is_base()).collect();
        assert_eq!(bases.len(), 3);
        assert!(mirs.iter().filter(|m| !m.is_base()).all(|m| m.size() >= 2));
    }

    #[test]
    fn single_relation_query() {
        let relations = rs(&[5]);
        let q = JoinQuery::new(QueryId::new(0), "single", relations, vec![]).unwrap();
        let mirs = enumerate_mirs(&q, None);
        assert_eq!(mirs.len(), 1);
        assert!(mirs[0].is_base());
    }

    #[test]
    fn enumeration_is_deterministic_and_sorted() {
        let q = linear(5);
        let a = enumerate_mirs(&q, None);
        let b = enumerate_mirs(&q, None);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].size() <= w[1].size());
        }
    }
}
