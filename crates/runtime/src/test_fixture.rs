//! The running example shared by the engines' unit tests: R(a), S(a,b),
//! T(b,c), U(c) with `q1 = R(a), S(a,b), T(b)` and a second query sharing
//! S and T, and a twelve-tuple workload over it.

use clash_catalog::{Catalog, Statistics};
use clash_common::{QueryId, RelationId, Timestamp, Tuple, TupleBuilder, Window};
use clash_optimizer::{Planner, Strategy, TopologyPlan};
use clash_query::{parse_query, JoinQuery};

/// The catalog (S and T partitioned `parallelism` ways), both queries and
/// statistics with every relation at 100 tuples/s.
pub(crate) fn setup(parallelism: usize) -> (Catalog, Vec<JoinQuery>, Statistics) {
    let mut catalog = Catalog::new();
    catalog.register("R", ["a"], Window::secs(3600), 1).unwrap();
    catalog
        .register("S", ["a", "b"], Window::secs(3600), parallelism)
        .unwrap();
    catalog
        .register("T", ["b", "c"], Window::secs(3600), parallelism)
        .unwrap();
    catalog.register("U", ["c"], Window::secs(3600), 1).unwrap();
    let mut stats = Statistics::new();
    for m in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
        stats.set_rate(m, 100.0);
    }
    let q1 = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
    let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(b), T(b,c), U(c)").unwrap();
    (catalog, vec![q1, q2], stats)
}

/// The catalog of [`setup`] and `strategy`'s plan for both queries.
pub(crate) fn planned(parallelism: usize, strategy: Strategy) -> (Catalog, TopologyPlan) {
    let (catalog, queries, stats) = setup(parallelism);
    let planner = Planner::with_defaults(&catalog, &stats);
    let plan = planner.plan(&queries, strategy).unwrap().plan;
    (catalog, plan)
}

/// A tuple of `relation` at `ts` ms with the given integer attributes.
pub(crate) fn tuple(catalog: &Catalog, relation: &str, ts: u64, values: &[(&str, i64)]) -> Tuple {
    let meta = catalog.relation_by_name(relation).unwrap();
    let mut b = TupleBuilder::new(&meta.schema, Timestamp::from_millis(ts));
    for (attr, v) in values {
        b = b.set(attr, *v);
    }
    b.build()
}

/// Three R, four S, three T and two U tuples, 10 ms apart, in that
/// order. Each query has three results:
///
/// * q1 (R.a = S.a, S.b = T.b): R(1)×S(1,10)×T(10,100),
///   R(1)×S(1,20)×T(20,100), R(2)×S(2,10)×T(10,100);
/// * q2 (S.b = T.b, T.c = U.c): S(1,10)×T(10,100)×U(100),
///   S(2,10)×T(10,100)×U(100), S(1,20)×T(20,100)×U(100).
pub(crate) fn workload(catalog: &Catalog) -> Vec<(RelationId, Tuple)> {
    workload_in(catalog, ["R", "S", "T", "U"])
}

/// [`workload`]'s tuples with the relations arriving in `order`, still
/// 10 ms apart.
pub(crate) fn workload_in(catalog: &Catalog, order: [&str; 4]) -> Vec<(RelationId, Tuple)> {
    let rows: [(&str, &[(&str, i64)]); 12] = [
        ("R", &[("a", 1)]),
        ("R", &[("a", 2)]),
        ("R", &[("a", 3)]),
        ("S", &[("a", 1), ("b", 10)]),
        ("S", &[("a", 1), ("b", 20)]),
        ("S", &[("a", 2), ("b", 10)]),
        ("S", &[("a", 9), ("b", 30)]),
        ("T", &[("b", 10), ("c", 100)]),
        ("T", &[("b", 20), ("c", 100)]),
        ("T", &[("b", 30), ("c", 200)]),
        ("U", &[("c", 100)]),
        ("U", &[("c", 300)]),
    ];
    order
        .iter()
        .flat_map(|name| rows.iter().filter(move |(relation, _)| relation == name))
        .enumerate()
        .map(|(i, (relation, values))| {
            let ts = 10 * (i as u64 + 1);
            let id = catalog.relation_id(relation).unwrap();
            (id, tuple(catalog, relation, ts, values))
        })
        .collect()
}
