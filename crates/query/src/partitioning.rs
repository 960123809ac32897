//! Candidate partitioning attributes for (intermediate) relation stores.
//!
//! A store holding an MIR `r` can be partitioned by an attribute of `r`.
//! Partitioning only helps routing if *later probe steps can compute the
//! partition key*: the paper therefore restricts the candidates to
//! attributes of `r` that appear in a join predicate with a relation
//! **outside** of `r` (Section V). Any tuple that is routed to the
//! `r`-store necessarily evaluates such a predicate and hence knows the
//! attribute value; partitioning by any other attribute would force a full
//! broadcast for every probe.
//!
//! For the example query `R(a), S(a,b), T(b)` with the intermediate result
//! `(R,S)` materialized, `b` is a candidate (it joins with `T ∉ {R,S}`)
//! while `a` is not (its only join partner `R` is inside the MIR).

use crate::query::JoinQuery;
use clash_common::{AttrRef, RelationSet};

/// Candidate partitioning attributes of the store holding `store_relations`
/// with respect to a single query.
///
/// When the store covers the complete query there is no outside relation
/// left, so the result is empty — such a store is the query output and can
/// be partitioned arbitrarily (round-robin) without affecting probe cost.
pub fn partition_candidates(query: &JoinQuery, store_relations: &RelationSet) -> Vec<AttrRef> {
    let mut out = Vec::new();
    for p in &query.predicates {
        let l_in = store_relations.contains(p.left.relation);
        let r_in = store_relations.contains(p.right.relation);
        if l_in && !r_in {
            out.push(p.left);
        } else if r_in && !l_in {
            out.push(p.right);
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Candidate partitioning attributes of a store with respect to a whole
/// workload: the union of the per-query candidates of every query whose
/// relation set contains the store's relations.
pub fn partition_candidates_for_workload(
    queries: &[JoinQuery],
    store_relations: &RelationSet,
) -> Vec<AttrRef> {
    let mut out = Vec::new();
    for q in queries {
        if store_relations.is_subset(&q.relations) {
            out.extend(partition_candidates(q, store_relations));
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::EquiPredicate;
    use clash_common::{AttrId, QueryId, RelationId};

    fn attr(rel: u32, a: u32) -> AttrRef {
        AttrRef::new(RelationId::new(rel), AttrId::new(a))
    }

    fn rs(ids: &[u32]) -> RelationSet {
        ids.iter().map(|i| RelationId::new(*i)).collect()
    }

    /// R(a)=0, S(a,b)=1, T(b)=2 — attribute 0 of R joins attribute 0 of S,
    /// attribute 1 of S joins attribute 0 of T.
    fn linear3() -> JoinQuery {
        JoinQuery::new(
            QueryId::new(0),
            "q1",
            rs(&[0, 1, 2]),
            vec![
                EquiPredicate::new(attr(0, 0), attr(1, 0)),
                EquiPredicate::new(attr(1, 1), attr(2, 0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_rs_store_partitioned_by_b_not_a() {
        let q = linear3();
        let rs_store = rs(&[0, 1]);
        let candidates = partition_candidates(&q, &rs_store);
        // Only S.b (attr(1,1)) joins with the outside relation T.
        assert_eq!(candidates, vec![attr(1, 1)]);
    }

    #[test]
    fn base_relation_candidates() {
        let q = linear3();
        // S joins R via S.a and T via S.b: both are candidates.
        assert_eq!(
            partition_candidates(&q, &rs(&[1])),
            vec![attr(1, 0), attr(1, 1)]
        );
        // R only joins S via R.a.
        assert_eq!(partition_candidates(&q, &rs(&[0])), vec![attr(0, 0)]);
        // T only joins S via T.b.
        assert_eq!(partition_candidates(&q, &rs(&[2])), vec![attr(2, 0)]);
    }

    #[test]
    fn complete_query_store_has_no_candidates() {
        let q = linear3();
        assert!(partition_candidates(&q, &q.relations).is_empty());
    }

    #[test]
    fn workload_union_of_candidates() {
        // q1 = R(a),S(a,b),T(b); q2 = R(a),S(a,c),U(c) with S.c = attr(1,2).
        let q1 = linear3();
        let q2 = JoinQuery::new(
            QueryId::new(1),
            "q2",
            rs(&[0, 1, 3]),
            vec![
                EquiPredicate::new(attr(0, 0), attr(1, 0)),
                EquiPredicate::new(attr(1, 2), attr(3, 0)),
            ],
        )
        .unwrap();
        let queries = vec![q1, q2];
        // The S store serves both queries: candidates from q1 (S.a, S.b)
        // and q2 (S.a, S.c).
        let cands = partition_candidates_for_workload(&queries, &rs(&[1]));
        assert_eq!(cands, vec![attr(1, 0), attr(1, 1), attr(1, 2)]);
        // The RS store: q1 contributes S.b; q2 contributes S.c.
        let cands = partition_candidates_for_workload(&queries, &rs(&[0, 1]));
        assert_eq!(cands, vec![attr(1, 1), attr(1, 2)]);
        // A store not contained in a query contributes nothing from it.
        let cands = partition_candidates_for_workload(&queries[..1], &rs(&[0, 3]));
        assert!(cands.is_empty());
    }
}
