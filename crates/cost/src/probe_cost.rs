//! Probe cost (Equation 1): step costs, broadcast factor χ, PCost.

use crate::estimate::CardinalityEstimator;
use clash_common::RelationSet;
use clash_query::{JoinQuery, ProbeOrder, StoreDescriptor};

/// The broadcast factor χ of a probe step (Equation 1).
///
/// A probing tuple that covers the relations in `head` knows the value of
/// the target store's partitioning attribute iff some equi-join predicate
/// of the query links that attribute to a relation inside `head`. If it
/// does, the tuple is routed to exactly one partition (χ = 1); otherwise it
/// must be broadcast to all partitions (χ = parallelism).
pub fn broadcast_factor(query: &JoinQuery, head: &RelationSet, target: &StoreDescriptor) -> f64 {
    let parallelism = target.parallelism.max(1) as f64;
    if parallelism <= 1.0 {
        return 1.0;
    }
    match target.partition {
        None => parallelism,
        Some(attr) => {
            let known = query.predicates.iter().any(|p| {
                (p.left == attr && head.contains(p.right.relation))
                    || (p.right == attr && head.contains(p.left.relation))
            });
            if known {
                1.0
            } else {
                parallelism
            }
        }
    }
}

/// Detailed cost of a single probe step, useful for explain output and the
/// experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCostBreakdown {
    /// Estimated join cardinality of the head (relations covered before the
    /// step).
    pub head_cardinality: f64,
    /// The `1/|head|` latest-tuple fraction.
    pub fraction: f64,
    /// Broadcast factor χ of the target store.
    pub chi: f64,
    /// Resulting step cost (product of the three).
    pub cost: f64,
}

/// Cost of the `step_idx`-th step (0-based) of a probe order: the number of
/// tuple copies sent to the target store per time unit. The target's
/// `owner` plays no part: a private copy of a store costs what a shared
/// one does.
pub fn step_cost(
    estimator: &CardinalityEstimator<'_>,
    query: &JoinQuery,
    order: &ProbeOrder,
    step_idx: usize,
    target: &StoreDescriptor,
) -> StepCostBreakdown {
    let head = order.head_before(step_idx);
    let head_cardinality = estimator.join_cardinality(query, &head);
    let fraction = 1.0 / head.len().max(1) as f64;
    let chi = broadcast_factor(query, &head, target);
    StepCostBreakdown {
        head_cardinality,
        fraction,
        chi,
        cost: head_cardinality * fraction * chi,
    }
}

/// `PCost(σ)`: total probe cost of one probe order given the stores its
/// steps probe.
///
/// `stores` must contain one entry per step of the probe order, in step
/// order. Panics when the lengths differ — the optimizer always
/// decorates every step.
pub fn probe_cost(
    estimator: &CardinalityEstimator<'_>,
    query: &JoinQuery,
    order: &ProbeOrder,
    stores: &[StoreDescriptor],
) -> f64 {
    assert_eq!(
        stores.len(),
        order.len(),
        "one StoreDescriptor per probe step required"
    );
    (0..order.len())
        .map(|j| step_cost(estimator, query, order, j, &stores[j]).cost)
        .sum()
}

/// Probe cost of a whole query given one decorated probe order per starting
/// relation (Equation 1 summed over all inputs). The iterator yields
/// `(probe order, stores its steps probe)` pairs.
pub fn query_probe_cost<'a>(
    estimator: &CardinalityEstimator<'_>,
    query: &JoinQuery,
    orders: impl IntoIterator<Item = (&'a ProbeOrder, &'a [StoreDescriptor])>,
) -> f64 {
    orders
        .into_iter()
        .map(|(o, parts)| probe_cost(estimator, query, o, parts))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_catalog::{Catalog, Statistics};
    use clash_common::{QueryId, RelationId, Window};
    use clash_query::{construct_probe_orders_for_start, enumerate_mirs, parse_query};

    /// The multi-query optimization example of Section V-2: rates 100,
    /// |R ⋈ S| = 100, |S ⋈ T| = 150.
    fn setup() -> (Catalog, Statistics) {
        let mut catalog = Catalog::new();
        catalog
            .register("R", ["a"], Window::unbounded(), 1)
            .unwrap();
        catalog
            .register("S", ["a", "b"], Window::unbounded(), 1)
            .unwrap();
        catalog
            .register("T", ["b"], Window::unbounded(), 5)
            .unwrap();
        let mut stats = Statistics::new();
        for i in 0..3 {
            stats.set_rate(RelationId::new(i), 100.0);
        }
        stats.set_selectivity(
            catalog.attr("R", "a").unwrap(),
            catalog.attr("S", "a").unwrap(),
            0.01,
        );
        stats.set_selectivity(
            catalog.attr("S", "b").unwrap(),
            catalog.attr("T", "b").unwrap(),
            0.015,
        );
        (catalog, stats)
    }

    fn rs(ids: &[u32]) -> RelationSet {
        ids.iter().map(|i| RelationId::new(*i)).collect()
    }

    fn unpartitioned(sets: &[RelationSet]) -> Vec<StoreDescriptor> {
        sets.iter()
            .map(|s| StoreDescriptor::unpartitioned(*s))
            .collect()
    }

    #[test]
    fn paper_example_probe_costs() {
        let (catalog, stats) = setup();
        let q = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);

        // ⟨R,S,T⟩: 100 + |R⋈S|/2 = 100 + 50 = 150.
        let rst = ProbeOrder::new(q.id, RelationId::new(0), vec![rs(&[1]), rs(&[2])]);
        let cost = probe_cost(&est, &q, &rst, &unpartitioned(&[rs(&[1]), rs(&[2])]));
        assert!((cost - 150.0).abs() < 1e-9);

        // ⟨T,S,R⟩: 100 + |S⋈T|/2 = 175.
        let tsr = ProbeOrder::new(q.id, RelationId::new(2), vec![rs(&[1]), rs(&[0])]);
        let cost = probe_cost(&est, &q, &tsr, &unpartitioned(&[rs(&[1]), rs(&[0])]));
        assert!((cost - 175.0).abs() < 1e-9);

        // ⟨S,R,T⟩: 100 + 50 = 150.
        let srt = ProbeOrder::new(q.id, RelationId::new(1), vec![rs(&[0]), rs(&[2])]);
        let cost = probe_cost(&est, &q, &srt, &unpartitioned(&[rs(&[0]), rs(&[2])]));
        assert!((cost - 150.0).abs() < 1e-9);

        // Individually optimal plan of the example: 150 + 150 + 175 = 475.
        let total = query_probe_cost(
            &est,
            &q,
            [
                (&rst, unpartitioned(&[rs(&[1]), rs(&[2])]).as_slice()),
                (&srt, unpartitioned(&[rs(&[0]), rs(&[2])]).as_slice()),
                (&tsr, unpartitioned(&[rs(&[1]), rs(&[0])]).as_slice()),
            ],
        );
        assert!((total - 475.0).abs() < 1e-9);
    }

    #[test]
    fn probing_a_materialized_intermediate_costs_one_step() {
        let (catalog, stats) = setup();
        let q = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        // ⟨R, ST⟩ costs only the first step: 100.
        let r_st = ProbeOrder::new(q.id, RelationId::new(0), vec![rs(&[1, 2])]);
        let cost = probe_cost(&est, &q, &r_st, &unpartitioned(&[rs(&[1, 2])]));
        assert!((cost - 100.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_factor_depends_on_predicate_knowledge() {
        let (catalog, stats) = setup();
        let q = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        let t_attr = catalog.attr("T", "b").unwrap();
        let s_b = catalog.attr("S", "b").unwrap();

        // Probing the T-store (parallelism 5, partitioned by T.b) from a
        // head {R}: R has no predicate with T.b -> broadcast.
        let target = StoreDescriptor::partitioned(rs(&[2]), t_attr, 5);
        assert_eq!(broadcast_factor(&q, &rs(&[0]), &target), 5.0);
        // From a head {R,S}: S.b = T.b is known -> χ = 1.
        assert_eq!(broadcast_factor(&q, &rs(&[0, 1]), &target), 1.0);
        // Partitioning by an attribute no predicate links to the head.
        let target_sb = StoreDescriptor::partitioned(rs(&[1, 2]), s_b, 5);
        assert_eq!(
            broadcast_factor(&q, &rs(&[0]), &target_sb),
            5.0,
            "R knows a, not b"
        );
        // Unpartitioned multi-worker stores always broadcast.
        let rr = StoreDescriptor {
            parallelism: 4,
            ..StoreDescriptor::unpartitioned(rs(&[2]))
        };
        assert_eq!(broadcast_factor(&q, &rs(&[0, 1]), &rr), 4.0);
        // Single-partition stores never broadcast.
        assert_eq!(
            broadcast_factor(&q, &rs(&[0]), &StoreDescriptor::unpartitioned(rs(&[2]))),
            1.0
        );
        let _ = est;
    }

    #[test]
    fn step_cost_breakdown_is_consistent() {
        let (catalog, stats) = setup();
        let q = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        let t_attr = catalog.attr("T", "b").unwrap();
        let order = ProbeOrder::new(q.id, RelationId::new(0), vec![rs(&[1]), rs(&[2])]);
        let target = StoreDescriptor::partitioned(rs(&[2]), t_attr, 5);
        let b = step_cost(&est, &q, &order, 1, &target);
        assert!((b.head_cardinality - 100.0).abs() < 1e-9);
        assert!((b.fraction - 0.5).abs() < 1e-9);
        assert_eq!(b.chi, 1.0);
        assert!((b.cost - 50.0).abs() < 1e-9);
        assert!((b.cost - b.head_cardinality * b.fraction * b.chi).abs() < 1e-12);
    }

    #[test]
    fn chi_multiplies_step_cost_when_broadcasting() {
        let (catalog, stats) = setup();
        let q = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        let s_a = catalog.attr("S", "a").unwrap();
        // Probe order ⟨T, S, R⟩ where the S-store is partitioned by S.a:
        // T knows b but not a, so the first step broadcasts to all 5
        // S-partitions (illustration 7 in Fig. 2 of the paper).
        let order = ProbeOrder::new(q.id, RelationId::new(2), vec![rs(&[1]), rs(&[0])]);
        let s_store = StoreDescriptor::partitioned(rs(&[1]), s_a, 5);
        let b = step_cost(&est, &q, &order, 0, &s_store);
        assert!((b.cost - 500.0).abs() < 1e-9, "100 tuples × χ=5");
    }

    #[test]
    #[should_panic(expected = "one StoreDescriptor per probe step")]
    fn mismatched_partitioning_length_panics() {
        let (catalog, stats) = setup();
        let q = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        let order = ProbeOrder::new(q.id, RelationId::new(0), vec![rs(&[1]), rs(&[2])]);
        let _ = probe_cost(&est, &q, &order, &unpartitioned(&[rs(&[1])]));
    }

    #[test]
    fn probe_orders_from_enumeration_have_positive_costs() {
        let (catalog, stats) = setup();
        let q = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        let mirs = enumerate_mirs(&q, None);
        for start in q.relations.iter() {
            for order in construct_probe_orders_for_start(&q, &mirs, start, None) {
                let parts: Vec<StoreDescriptor> = order
                    .steps
                    .iter()
                    .map(|s| StoreDescriptor::unpartitioned(*s))
                    .collect();
                assert!(probe_cost(&est, &q, &order, &parts) > 0.0);
            }
        }
    }
}
