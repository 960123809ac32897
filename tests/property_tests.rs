//! Property-based tests over the core data structures and invariants,
//! spanning crates (hence hosted as an integration test of `clash-core`).

use clash_common::{AttrId, AttrRef, QueryId, RelationId, RelationSet, Timestamp, Window};
use clash_ilp::{
    enumerate_optimal, solve, LinExpr, Model, Sense, SolveStatus, SolverConfig, VarId,
};
use clash_query::{construct_probe_orders_for_start, enumerate_mirs, EquiPredicate, JoinQuery};
use proptest::prelude::*;

fn relation_ids(max: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..max, 1..10)
}

proptest! {
    /// RelationSet algebra behaves like a set of integers.
    #[test]
    fn relation_set_algebra(a in relation_ids(64), b in relation_ids(64)) {
        use std::collections::BTreeSet;
        let sa: RelationSet = a.iter().map(|i| RelationId::new(*i)).collect();
        let sb: RelationSet = b.iter().map(|i| RelationId::new(*i)).collect();
        let ba: BTreeSet<u32> = a.iter().copied().collect();
        let bb: BTreeSet<u32> = b.iter().copied().collect();
        let union: Vec<u32> = sa.union(&sb).iter().map(|r| r.0).collect();
        let expected: Vec<u32> = ba.union(&bb).copied().collect();
        prop_assert_eq!(union, expected);
        let inter: Vec<u32> = sa.intersection(&sb).iter().map(|r| r.0).collect();
        let expected: Vec<u32> = ba.intersection(&bb).copied().collect();
        prop_assert_eq!(inter, expected);
        let diff: Vec<u32> = sa.difference(&sb).iter().map(|r| r.0).collect();
        let expected: Vec<u32> = ba.difference(&bb).copied().collect();
        prop_assert_eq!(diff, expected);
        prop_assert_eq!(sa.len(), ba.len());
        prop_assert_eq!(sa.is_disjoint(&sb), ba.is_disjoint(&bb));
        prop_assert_eq!(sa.is_subset(&sb), ba.is_subset(&bb));
    }

    /// Window containment is consistent with its horizon.
    #[test]
    fn window_containment(probe in 0u64..1_000_000, age in 0u64..1_000_000, len in 1u64..100_000) {
        let w = Window::new(clash_common::Duration::from_millis(len));
        let stored = Timestamp::from_millis(probe.saturating_sub(age));
        let probe_ts = Timestamp::from_millis(probe);
        let contained = w.contains(probe_ts, stored);
        prop_assert_eq!(contained, stored >= w.horizon(probe_ts) && stored <= probe_ts);
    }

    /// Every probe order produced by Algorithm 1 for a random linear query
    /// is structurally valid, covers the whole query and avoids cross
    /// products; prefixes grow monotonically.
    #[test]
    fn probe_orders_are_valid_for_linear_queries(n in 2usize..6, start_idx in 0usize..6) {
        let n = n.min(5);
        let relations: RelationSet = (0..n as u32).map(RelationId::new).collect();
        let predicates: Vec<EquiPredicate> = (0..n as u32 - 1)
            .map(|i| EquiPredicate::new(
                AttrRef::new(RelationId::new(i), AttrId::new(1)),
                AttrRef::new(RelationId::new(i + 1), AttrId::new(0)),
            ))
            .collect();
        let query = JoinQuery::new(QueryId::new(0), "chain", relations, predicates).unwrap();
        let mirs = enumerate_mirs(&query, None);
        let start = RelationId::new((start_idx % n) as u32);
        let orders = construct_probe_orders_for_start(&query, &mirs, start, None);
        prop_assert!(!orders.is_empty());
        for order in &orders {
            prop_assert!(order.is_valid_for(&query));
            prop_assert_eq!(order.covered(), query.relations);
            let mut prev = RelationSet::singleton(start);
            for j in 0..order.len() {
                let head = order.head_after(j);
                prop_assert!(prev.is_proper_subset(&head));
                prev = head;
            }
        }
    }

    /// MIR enumeration only returns connected subsets, always includes the
    /// singletons, and is closed under the query relations.
    #[test]
    fn mirs_are_connected_subsets(n in 2usize..6) {
        let relations: RelationSet = (0..n as u32).map(RelationId::new).collect();
        let predicates: Vec<EquiPredicate> = (0..n as u32 - 1)
            .map(|i| EquiPredicate::new(
                AttrRef::new(RelationId::new(i), AttrId::new(1)),
                AttrRef::new(RelationId::new(i + 1), AttrId::new(0)),
            ))
            .collect();
        let query = JoinQuery::new(QueryId::new(0), "chain", relations, predicates).unwrap();
        let graph = query.graph();
        let mirs = enumerate_mirs(&query, None);
        let singletons = mirs.iter().filter(|m| m.is_base()).count();
        prop_assert_eq!(singletons, n);
        for m in &mirs {
            prop_assert!(m.relations.is_subset(&query.relations));
            prop_assert!(graph.is_connected(&m.relations));
        }
    }

    /// The branch-and-bound solver is exact: on random small
    /// selection-with-sharing models it matches brute-force enumeration.
    #[test]
    fn solver_matches_enumeration(seed in 0u64..500) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = Model::new();
        let n_steps = rng.gen_range(2..5usize);
        let steps: Vec<VarId> = (0..n_steps)
            .map(|i| model.add_binary(format!("y{i}"), rng.gen_range(1..10) as f64))
            .collect();
        for g in 0..rng.gen_range(1..4usize) {
            let mut alts = Vec::new();
            for a in 0..rng.gen_range(1..4usize) {
                let x = model.add_binary(format!("x{g}_{a}"), 0.0);
                let mut expr = LinExpr::new();
                let mut total = 0.0;
                for &s in &steps {
                    if rng.gen_bool(0.5) {
                        let c = model.objective_coeff(s);
                        expr.add(s, c);
                        total += c;
                    }
                }
                if total == 0.0 {
                    let c = model.objective_coeff(steps[0]);
                    expr.add(steps[0], c);
                    total = c;
                }
                expr.add(x, -total);
                model.add_constraint(format!("cost{g}_{a}"), expr, Sense::Ge, 0.0);
                alts.push(x);
            }
            model.add_choose_one(format!("choice{g}"), alts);
        }
        let brute = enumerate_optimal(&model);
        let solved = solve(&model, SolverConfig::default());
        match brute {
            Some((_, expected)) => {
                prop_assert_eq!(solved.status, SolveStatus::Optimal);
                prop_assert!((solved.objective - expected).abs() < 1e-6);
            }
            None => prop_assert_eq!(solved.status, SolveStatus::Infeasible),
        }
    }

    /// Probe costs are non-negative and additive in their steps for random
    /// rates and selectivities.
    #[test]
    fn probe_cost_is_nonnegative_and_additive(
        rates in proptest::collection::vec(1.0f64..10_000.0, 3),
        sel in proptest::collection::vec(0.0001f64..1.0, 2),
    ) {
        use clash_catalog::{Catalog, Statistics};
        use clash_cost::{probe_cost, step_cost, CardinalityEstimator};
        use clash_query::StoreDescriptor;
        use clash_query::parse_query;
        let mut catalog = Catalog::new();
        catalog.register("R", ["a"], Window::unbounded(), 1).unwrap();
        catalog.register("S", ["a", "b"], Window::unbounded(), 1).unwrap();
        catalog.register("T", ["b"], Window::unbounded(), 1).unwrap();
        let mut stats = Statistics::new();
        for (i, r) in rates.iter().enumerate() {
            stats.set_rate(RelationId::new(i as u32), *r);
        }
        stats.set_selectivity(catalog.attr("R", "a").unwrap(), catalog.attr("S", "a").unwrap(), sel[0]);
        stats.set_selectivity(catalog.attr("S", "b").unwrap(), catalog.attr("T", "b").unwrap(), sel[1]);
        let q = parse_query(&catalog, QueryId::new(0), "q", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        let order = clash_query::ProbeOrder::new(
            q.id,
            RelationId::new(0),
            vec![RelationSet::singleton(RelationId::new(1)), RelationSet::singleton(RelationId::new(2))],
        );
        let parts: Vec<StoreDescriptor> = order
            .steps
            .iter()
            .map(|s| StoreDescriptor::unpartitioned(*s))
            .collect();
        let total = probe_cost(&est, &q, &order, &parts);
        prop_assert!(total >= 0.0);
        let sum: f64 = (0..order.len())
            .map(|j| step_cost(&est, &q, &order, j, &parts[j]).cost)
            .sum();
        prop_assert!((total - sum).abs() < 1e-6 * total.max(1.0));
    }
}
