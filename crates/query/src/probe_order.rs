//! Candidate probe order construction (Algorithm 1 of the paper).
//!
//! A *probe order* `σ_i = ⟨S_i, M_1, M_2, ...⟩` describes how a tuple
//! arriving at relation `S_i` incrementally computes its share of a query's
//! join result: it is first sent to the store of `M_1` for probing, the
//! partial results are forwarded to the store of `M_2`, and so on until all
//! relations of the query are covered. Each probed store `M_j` is a
//! materializable intermediate result ([`crate::Mir`]) — either a base
//! relation or a materialized sub-join like `ST`.
//!
//! Algorithm 1 constructs all candidate probe orders by growing a *head*
//! (the set of relations already covered) with joinable MIRs, thereby never
//! producing a cross product.

use crate::mir::Mir;
use crate::query::JoinQuery;
use clash_common::{QueryId, RelationId, RelationSet};
use std::fmt;

/// A candidate probe order for one starting relation of one query (or of a
/// sub-query computing an intermediate result).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProbeOrder {
    /// The query (or sub-query) this probe order answers.
    pub query: QueryId,
    /// The relation whose arriving tuples initiate this probe order.
    pub start: RelationId,
    /// The stores probed, in order. Each entry is the relation set of the
    /// probed MIR; entries are pairwise disjoint and disjoint from `start`.
    pub steps: Vec<RelationSet>,
}

impl ProbeOrder {
    /// Creates a probe order from raw parts (no validation; use
    /// [`construct_probe_orders_for_start`] for validated construction).
    pub fn new(query: QueryId, start: RelationId, steps: Vec<RelationSet>) -> Self {
        ProbeOrder {
            query,
            start,
            steps,
        }
    }

    /// Number of probe steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the probe order has no steps (single-relation query).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The set of relations covered after executing every step.
    pub fn covered(&self) -> RelationSet {
        let mut c = RelationSet::singleton(self.start);
        for s in &self.steps {
            c = c.union(s);
        }
        c
    }

    /// The head (covered relation set) *before* executing step `j`
    /// (0-based): `{start} ∪ steps[0..j]`.
    pub fn head_before(&self, j: usize) -> RelationSet {
        let mut c = RelationSet::singleton(self.start);
        for s in &self.steps[..j.min(self.steps.len())] {
            c = c.union(s);
        }
        c
    }

    /// The head after executing step `j` (0-based).
    pub fn head_after(&self, j: usize) -> RelationSet {
        self.head_before(j + 1)
    }

    /// The probe-order prefixes `⟨start, steps[0..=j]⟩` for every step.
    /// Prefixes identify *steps* in the ILP: equal prefixes (with equal
    /// partitioning, applied later) across different candidates share the
    /// same step variable.
    pub fn prefixes(&self) -> Vec<ProbeOrder> {
        (0..self.steps.len())
            .map(|j| ProbeOrder {
                query: self.query,
                start: self.start,
                steps: self.steps[..=j].to_vec(),
            })
            .collect()
    }

    /// Validates the structural invariants of this probe order against a
    /// query: steps disjoint, joinable with the running head, and the final
    /// head covering exactly the query's relations.
    pub fn is_valid_for(&self, query: &JoinQuery) -> bool {
        if !query.relations.contains(self.start) {
            return false;
        }
        let graph = query.graph();
        let mut head = RelationSet::singleton(self.start);
        for step in &self.steps {
            if step.is_empty()
                || !step.is_subset(&query.relations)
                || !head.is_disjoint(step)
                || !graph.joinable(&head, step)
            {
                return false;
            }
            head = head.union(step);
        }
        head == query.relations
    }
}

impl fmt::Display for ProbeOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}", self.start)?;
        for s in &self.steps {
            write!(f, ", {s}")?;
        }
        write!(f, "⟩")
    }
}

/// Constructs all candidate probe orders of `query` for the given starting
/// relation, using the provided MIR set as the candidate stores
/// (Algorithm 1, `construct_rec`).
///
/// `max_candidates` caps the number of produced orders (depth-first order);
/// `None` means unlimited. The cap exists because clique-shaped queries
/// have a factorial number of probe orders (Section V-A).
pub fn construct_probe_orders_for_start(
    query: &JoinQuery,
    mirs: &[Mir],
    start: RelationId,
    max_candidates: Option<usize>,
) -> Vec<ProbeOrder> {
    let graph = query.graph();
    let target = query.relations;
    let cap = max_candidates.unwrap_or(usize::MAX);
    let mut result = Vec::new();

    // Single-relation queries have an empty probe order: the arriving tuple
    // is the full result.
    if target.len() == 1 && target.contains(start) {
        result.push(ProbeOrder::new(query.id, start, vec![]));
        return result;
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        query: &JoinQuery,
        graph: &crate::graph::QueryGraph,
        mirs: &[Mir],
        target: RelationSet,
        head: RelationSet,
        steps: &mut Vec<RelationSet>,
        start: RelationId,
        result: &mut Vec<ProbeOrder>,
        cap: usize,
    ) {
        if result.len() >= cap {
            return;
        }
        for mir in mirs {
            let r = mir.relations;
            // Candidate stores must lie inside the query, be disjoint from
            // the head and joinable with it (no cross products).
            if !r.is_subset(&target) || !head.is_disjoint(&r) || !graph.joinable(&head, &r) {
                continue;
            }
            let new_head = head.union(&r);
            steps.push(r);
            if new_head == target {
                result.push(ProbeOrder::new(query.id, start, steps.clone()));
            } else {
                recurse(
                    query, graph, mirs, target, new_head, steps, start, result, cap,
                );
            }
            steps.pop();
            if result.len() >= cap {
                return;
            }
        }
    }

    let mut steps = Vec::new();
    recurse(
        query,
        &graph,
        mirs,
        target,
        RelationSet::singleton(start),
        &mut steps,
        start,
        &mut result,
        cap,
    );
    result.sort();
    result.dedup();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::enumerate_mirs;
    use crate::predicate::EquiPredicate;
    use clash_common::{AttrId, AttrRef};

    fn attr(rel: u32, a: u32) -> AttrRef {
        AttrRef::new(RelationId::new(rel), AttrId::new(a))
    }

    /// The candidates of every starting relation, in relation-id order.
    fn construct_probe_orders(
        query: &JoinQuery,
        mirs: &[Mir],
        max_candidates_per_start: Option<usize>,
    ) -> Vec<(RelationId, Vec<ProbeOrder>)> {
        query
            .relations
            .iter()
            .map(|start| {
                let orders =
                    construct_probe_orders_for_start(query, mirs, start, max_candidates_per_start);
                (start, orders)
            })
            .collect()
    }

    fn rs(ids: &[u32]) -> RelationSet {
        ids.iter().map(|i| RelationId::new(*i)).collect()
    }

    /// R(a), S(a,b), T(b): relations 0, 1, 2.
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
    fn paper_example_candidates_for_r() {
        // Figure 3: for q1 = R(b),S(b,c),T(c) and start R the candidates are
        // ⟨R,S,T⟩ and ⟨R,ST⟩ (probing T first would be a cross product).
        let q = linear3();
        let mirs = enumerate_mirs(&q, None);
        let orders = construct_probe_orders_for_start(&q, &mirs, RelationId::new(0), None);
        let expected_steps: Vec<Vec<RelationSet>> =
            vec![vec![rs(&[1]), rs(&[2])], vec![rs(&[1, 2])]];
        assert_eq!(orders.len(), 2);
        for e in expected_steps {
            assert!(orders.iter().any(|o| o.steps == e), "missing {:?}", e);
        }
        assert!(orders.iter().all(|o| o.is_valid_for(&q)));
    }

    #[test]
    fn paper_example_candidates_for_middle_relation() {
        // For start S the candidates are ⟨S,T,R⟩, ⟨S,R,T⟩ plus the
        // MIR-using variants ⟨S,RS... ⟩ are impossible (S ∈ RS), but
        // ⟨S, T, R⟩ / ⟨S, R, T⟩ only — S cannot probe ST or RS since they
        // overlap. Figure 3 lists exactly two.
        let q = linear3();
        let mirs = enumerate_mirs(&q, None);
        let orders = construct_probe_orders_for_start(&q, &mirs, RelationId::new(1), None);
        assert_eq!(orders.len(), 2);
        assert!(orders.iter().any(|o| o.steps == vec![rs(&[0]), rs(&[2])]));
        assert!(orders.iter().any(|o| o.steps == vec![rs(&[2]), rs(&[0])]));
    }

    #[test]
    fn all_starts_produce_valid_orders() {
        let q = linear3();
        let mirs = enumerate_mirs(&q, None);
        let by_start = construct_probe_orders(&q, &mirs, None);
        assert_eq!(by_start.len(), 3);
        for (start, orders) in &by_start {
            assert!(!orders.is_empty(), "no candidates for start {start}");
            for o in orders {
                assert_eq!(o.start, *start);
                assert!(o.is_valid_for(&q));
                assert_eq!(o.covered(), q.relations);
            }
        }
    }

    #[test]
    fn prefixes_and_heads() {
        let q = linear3();
        let o = ProbeOrder::new(q.id, RelationId::new(0), vec![rs(&[1]), rs(&[2])]);
        assert_eq!(o.head_before(0), rs(&[0]));
        assert_eq!(o.head_before(1), rs(&[0, 1]));
        assert_eq!(o.head_after(1), rs(&[0, 1, 2]));
        let prefixes = o.prefixes();
        assert_eq!(prefixes.len(), 2);
        assert_eq!(prefixes[0].steps, vec![rs(&[1])]);
        assert_eq!(prefixes[1].steps, vec![rs(&[1]), rs(&[2])]);
        assert_eq!(prefixes[1], o);
    }

    #[test]
    fn validity_rejects_cross_products_and_partial_coverage() {
        let q = linear3();
        // R probing T first is a cross product.
        let bad = ProbeOrder::new(q.id, RelationId::new(0), vec![rs(&[2]), rs(&[1])]);
        assert!(!bad.is_valid_for(&q));
        // Not covering the full query.
        let partial = ProbeOrder::new(q.id, RelationId::new(0), vec![rs(&[1])]);
        assert!(!partial.is_valid_for(&q));
        // Overlapping step.
        let overlap = ProbeOrder::new(q.id, RelationId::new(0), vec![rs(&[0, 1]), rs(&[2])]);
        assert!(!overlap.is_valid_for(&q));
        // Start outside the query.
        let foreign = ProbeOrder::new(q.id, RelationId::new(7), vec![rs(&[1])]);
        assert!(!foreign.is_valid_for(&q));
    }

    #[test]
    fn max_candidates_caps_enumeration() {
        let q = linear3();
        let mirs = enumerate_mirs(&q, None);
        let orders = construct_probe_orders_for_start(&q, &mirs, RelationId::new(0), Some(1));
        assert_eq!(orders.len(), 1);
        assert!(orders[0].is_valid_for(&q));
    }

    #[test]
    fn single_relation_query_has_empty_probe_order() {
        let q = JoinQuery::new(QueryId::new(3), "single", rs(&[4]), vec![]).unwrap();
        let mirs = enumerate_mirs(&q, None);
        let orders = construct_probe_orders_for_start(&q, &mirs, RelationId::new(4), None);
        assert_eq!(orders.len(), 1);
        assert!(orders[0].is_empty());
        assert_eq!(orders[0].covered(), rs(&[4]));
    }

    #[test]
    fn five_relation_linear_query_counts() {
        // Sanity check on a larger chain: probe orders exist for every
        // start and all are valid; with MIRs the count grows quickly but
        // stays deterministic.
        let relations = rs(&[0, 1, 2, 3, 4]);
        let predicates = (0..4)
            .map(|i| EquiPredicate::new(attr(i, 1), attr(i + 1, 0)))
            .collect();
        let q = JoinQuery::new(QueryId::new(9), "chain5", relations, predicates).unwrap();
        let mirs = enumerate_mirs(&q, None);
        let by_start = construct_probe_orders(&q, &mirs, None);
        let a = by_start.iter().map(|(_, o)| o.len()).sum::<usize>();
        let again = construct_probe_orders(&q, &mirs, None)
            .iter()
            .map(|(_, o)| o.len())
            .sum::<usize>();
        assert_eq!(a, again);
        for (_, orders) in by_start {
            assert!(!orders.is_empty());
            assert!(orders.iter().all(|o| o.is_valid_for(&q)));
        }
    }

    #[test]
    fn display_shows_start_and_steps() {
        let o = ProbeOrder::new(QueryId::new(0), RelationId::new(0), vec![rs(&[1, 2])]);
        assert_eq!(o.to_string(), "⟨R0, {R1,R2}⟩");
    }
}
