//! Cross-crate integration tests: the full pipeline (catalog → query →
//! optimizer → runtime) must produce exactly the results of a naive
//! reference join, for every planning strategy, on randomized streams.

use clash_bench::exactness::{local_results, planned, run_paths};
use clash_catalog::{Catalog, Statistics};
use clash_common::{Duration, EpochConfig, QueryId, RelationId, Tuple, Value, Window};
use clash_core::{ClashSystem, Strategy, SystemConfig};
use clash_datagen::exactness::{of_query, reference_results, two_chains, StreamShape};
use clash_datagen::{SyntheticEnv, SyntheticWorkloadConfig, TpchGenerator, TpchWorkload};
use clash_optimizer::{Planner, PlannerConfig, TopologyPlan};
use clash_query::JoinQuery;
use clash_runtime::{EngineConfig, LocalEngine};

/// In-order arrivals 1 ms apart, over the two chains' relations.
const IN_ORDER: StreamShape = StreamShape {
    relations: &["A", "B", "C", "D"],
    step_ms: 1,
    jitter_ms: 0,
};

/// Plans `queries` under each of `strategies` and runs every plan on
/// every path of `run_paths` (`LocalEngine`, `ParallelEngine` with 1, 2
/// and 4 workers through `ingest()` and through a source): each must
/// answer every query with its reference multiset. Returns the reference
/// multisets, one per query.
fn assert_every_path_matches_reference(
    catalog: &Catalog,
    queries: &[JoinQuery],
    stream: &[(RelationId, Tuple)],
    config: EngineConfig,
    strategies: &[Strategy],
) -> Vec<Vec<String>> {
    let expected: Vec<Vec<String>> = queries
        .iter()
        .map(|q| reference_results(catalog, q, stream))
        .collect();
    for &strategy in strategies {
        let plan = planned(catalog, queries, strategy);
        for run in run_paths(catalog, &plan, config, stream, &[1, 2, 4], &[]) {
            for (query, expected) in queries.iter().zip(&expected) {
                assert_eq!(
                    &of_query(&run.results, query.id),
                    expected,
                    "{strategy:?} on {}: {} result multiset",
                    run.path,
                    query.name
                );
            }
        }
    }
    expected
}

#[test]
fn engine_matches_reference_join_for_all_strategies() {
    let (catalog, queries) = two_chains([Window::unbounded(); 4], [2, 2, 1, 1]);
    let stream = IN_ORDER.draw(&catalog, 30, 0..6, 99);
    let strategies = [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp];
    let config = EngineConfig::default();
    let expected =
        assert_every_path_matches_reference(&catalog, &queries, &stream, config, &strategies);
    assert!(!expected[0].is_empty(), "workload must produce q1 results");
    assert!(!expected[1].is_empty(), "workload must produce q2 results");
}

#[test]
fn finite_window_results_match_reference_under_frequent_expiry() {
    // 40 ms windows over 1 ms arrivals: most combinations fall outside the
    // window, state turns over many times, and with expiry every 8 tuples
    // and 16 ms epochs the stores expire and close epochs throughout. An
    // expiry that runs ahead of work still in flight (the coordinator's former
    // fire-and-forget `Expire`) loses results here.
    let window = Window::new(Duration::from_millis(40));
    let (catalog, queries) = two_chains([window; 4], [2, 2, 1, 1]);
    let stream = IN_ORDER.draw(&catalog, 150, 0..4, 7);
    let config = EngineConfig {
        expire_every: 8,
        epoch: EpochConfig::new(Duration::from_millis(16)),
        ..EngineConfig::default()
    };
    let strategies = [Strategy::Independent];
    let expected =
        assert_every_path_matches_reference(&catalog, &queries, &stream, config, &strategies);
    let (unbounded, _) = two_chains([Window::unbounded(); 4], [2, 2, 1, 1]);
    let unbounded = reference_results(&unbounded, &queries[0], &stream);
    assert!(expected[0].len() > 100, "workload must produce q1 results");
    assert!(expected[1].len() > 100, "workload must produce q2 results");
    assert!(
        expected[0].len() * 4 < unbounded.len(),
        "the window must exclude most combinations"
    );

    // Every relation its own window: a plan over base stores checks each
    // constituent against its own relation's window, as the reference
    // does.
    let windows = [25, 40, 60, 15].map(|ms| Window::new(Duration::from_millis(ms)));
    let (catalog, queries) = two_chains(windows, [2, 2, 1, 1]);
    let strategies = [Strategy::Independent, Strategy::Shared];
    let expected =
        assert_every_path_matches_reference(&catalog, &queries, &stream, config, &strategies);
    assert!(expected[0].len() > 100, "workload must produce q1 results");
    assert!(expected[1].len() > 100, "workload must produce q2 results");
}

/// In-order arrivals 1 ms apart over R, S and T.
const RST: StreamShape = StreamShape {
    relations: &["R", "S", "T"],
    ..IN_ORDER
};

/// R(a,c), S(a,b,c), T(b,c) over one window, every relation on one
/// worker, with `q1 = R(a), S(a,b), T(b)` and `q2` as given. R is a hundred
/// times faster than S and T (`two_predicate_statistics`), so the ILP
/// materializes {S,T} for both queries.
fn two_predicate_queries(window: Window, q2: &str) -> (Catalog, Vec<JoinQuery>) {
    let mut catalog = Catalog::new();
    catalog.register("R", ["a", "c"], window, 1).unwrap();
    catalog.register("S", ["a", "b", "c"], window, 1).unwrap();
    catalog.register("T", ["b", "c"], window, 1).unwrap();
    let q1 =
        clash_query::parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
    let q2 = clash_query::parse_query(&catalog, QueryId::new(1), "q2", q2).unwrap();
    (catalog, vec![q1, q2])
}

fn two_predicate_statistics(catalog: &Catalog) -> Statistics {
    let mut stats = Statistics::new();
    for (name, rate) in [("R", 1000.0), ("S", 10.0), ("T", 10.0)] {
        stats.set_rate(catalog.relation_id(name).unwrap(), rate);
    }
    stats.default_selectivity = 0.01;
    stats
}

/// How many results of the sorted multiset `got` the sorted multiset
/// `reference` does not hold.
fn outside_of(got: &[String], reference: &[String]) -> usize {
    let mut reference = reference.iter().peekable();
    let mut outside = 0;
    for result in got {
        while reference.next_if(|r| *r < result).is_some() {}
        if reference.next_if(|r| *r == result).is_none() {
            outside += 1;
        }
    }
    outside
}

#[test]
fn queries_joining_the_same_relations_on_other_attributes_keep_their_own_mir_stores() {
    // Both queries make {S,T} worth materializing, under S.b = T.b for q1
    // and under S.c = T.c for q2: two intermediate results. A plan that
    // keeps one store for both feeds it under one query's predicates, and
    // q1 read 10 028 results against the reference's 7 628.
    let (catalog, queries) = two_predicate_queries(Window::secs(3600), "R(c), S(c), T(c)");
    let stats = two_predicate_statistics(&catalog);
    let stream = RST.draw(&catalog, 40, 0..3, 7);
    let report = Planner::with_defaults(&catalog, &stats)
        .plan(&queries, Strategy::GlobalIlp)
        .unwrap();
    let config = EngineConfig::default();
    for run in run_paths(&catalog, &report.plan, config, &stream, &[2], &[]) {
        for query in &queries {
            assert_eq!(
                of_query(&run.results, query.id),
                reference_results(&catalog, query, &stream),
                "{}: {} result multiset",
                run.path,
                query.name
            );
        }
    }
    let mir_stores: Vec<String> = report
        .plan
        .stores
        .iter()
        .filter(|s| !s.descriptor.is_base())
        .map(|s| s.descriptor.to_string())
        .collect();
    assert_eq!(
        mir_stores.len(),
        2,
        "one MIR store per query: {mir_stores:?}"
    );
}

#[test]
fn an_install_never_carries_an_mir_store_across_a_change_of_its_predicates() {
    // q1's plan stores {S,T} under S.b = T.b, q2's under S.c = T.c, and q2's
    // R probes it on a alone. A store carried over by relations alone hands
    // q2 q1's partial results, and q2 then emitted 5 403 results the
    // reference never produces. Results q2 misses after the install (its
    // new stores start empty) are ROADMAP item 2, so this checks only that
    // nothing is spurious; once that item lands, q2 equals its reference
    // here.
    let (catalog, queries) = two_predicate_queries(Window::secs(3600), "R(a), S(a,c), T(c)");
    let stats = two_predicate_statistics(&catalog);
    let stream = RST.draw(&catalog, 80, 0..3, 7);
    let planner = Planner::with_defaults(&catalog, &stats);
    let plans: Vec<TopologyPlan> = queries
        .iter()
        .map(|q| {
            planner
                .plan(std::slice::from_ref(q), Strategy::GlobalIlp)
                .unwrap()
                .plan
        })
        .collect();
    for plan in &plans {
        assert!(plan.stores.iter().any(|s| !s.descriptor.is_base()));
    }
    let reference = reference_results(&catalog, &queries[1], &stream);
    let installs = [(stream.len() / 2, &plans[1])];
    let config = EngineConfig::default();
    for run in run_paths(&catalog, &plans[0], config, &stream, &[2], &installs) {
        let q2 = of_query(&run.results, queries[1].id);
        assert!(!q2.is_empty(), "{}: q2 never ran", run.path);
        assert_eq!(
            outside_of(&q2, &reference),
            0,
            "{}: q2 emitted results outside its reference",
            run.path
        );
    }
}

#[test]
fn fig9_workloads_match_the_reference_under_global_ilp() {
    // The paper's Fig. 9 generator draws queries that join the same
    // relations on different attributes. Under GlobalIlp, 4 of 8 draws
    // over-produced (1 183 to 3 232 extra results) while one MIR store
    // served every predicate set over its relations.
    let mut config = PlannerConfig::default();
    config.solver.node_limit = 20_000;
    config.solver.time_limit = std::time::Duration::MAX;
    for (seed, n) in [(1, 10), (2, 10), (8, 5), (8, 10)] {
        let mut env = SyntheticEnv::new(SyntheticWorkloadConfig::default(), seed).unwrap();
        let queries = env.random_queries(n, 3).unwrap();
        let report = Planner::new(&env.catalog, &env.stats, config)
            .plan(&queries, Strategy::GlobalIlp)
            .unwrap();
        let mut used: Vec<RelationId> = queries.iter().flat_map(|q| q.relations.iter()).collect();
        used.sort();
        used.dedup();
        let names: Vec<&str> = used
            .iter()
            .map(|r| env.catalog.relation(*r).unwrap().name.as_str())
            .collect();
        let shape = StreamShape {
            relations: &names,
            ..IN_ORDER
        };
        let stream = shape.draw(&env.catalog, 25, 0..3, seed);
        let results = local_results(&env.catalog, &report.plan, &stream);
        for query in &queries {
            assert_eq!(
                of_query(&results, query.id),
                reference_results(&env.catalog, query, &stream),
                "seed {seed}, {n} queries: {} result multiset",
                query.name
            );
        }
    }
}

#[test]
fn clash_system_add_and_remove_queries_mid_stream() {
    let mut clash = ClashSystem::new(SystemConfig::default());
    clash
        .register_relation("R", ["a"], Window::secs(3600), 1)
        .unwrap();
    clash
        .register_relation("S", ["a", "b"], Window::secs(3600), 1)
        .unwrap();
    clash
        .register_relation("T", ["b"], Window::secs(3600), 1)
        .unwrap();
    clash.register_query("q1", "R(a), S(a,b), T(b)").unwrap();
    clash.deploy(Strategy::GlobalIlp).unwrap();

    let mut produced = 0;
    for i in 0..250u64 {
        let ts = i * 20;
        let a = (i % 25) as i64;
        let b = (i % 17) as i64;
        let r = clash.tuple("R", ts, &[("a", Value::Int(a))]).unwrap();
        let s = clash
            .tuple("S", ts + 1, &[("a", Value::Int(a)), ("b", Value::Int(b))])
            .unwrap();
        let t = clash.tuple("T", ts + 2, &[("b", Value::Int(b))]).unwrap();
        produced += clash.ingest("R", r).unwrap();
        produced += clash.ingest("S", s).unwrap();
        produced += clash.ingest("T", t).unwrap();
        if i == 125 {
            // Register a second query mid-stream; it is picked up at the
            // next epoch boundary.
            clash.register_query("q2", "S(b), T(b)").unwrap();
        }
    }
    assert!(produced > 0);
    let snap = clash.snapshot().unwrap();
    assert!(snap.results_for(QueryId::new(0)) > 0);
    // The second query started reporting after it was installed.
    assert!(
        snap.results_for(QueryId::new(1)) > 0,
        "q2 never produced results"
    );
    // The local runtime re-optimizes on its ingest path: no driver, no
    // driver error.
    assert_eq!(clash.adaptive_error(), None);
    // Removing a query keeps the system running.
    clash.remove_query(QueryId::new(0));
    let r = clash
        .tuple("R", 10_000_000, &[("a", Value::Int(1))])
        .unwrap();
    clash.ingest("R", r).unwrap();
}

#[test]
fn tpch_workload_runs_end_to_end_with_consistent_results() {
    let workload = TpchWorkload::new(2, Window::secs(3600)).unwrap();
    let queries = workload.five_queries().unwrap();
    let planner = Planner::with_defaults(&workload.catalog, &workload.stats);
    let mut totals = Vec::new();
    for strategy in [Strategy::Independent, Strategy::GlobalIlp] {
        let report = planner.plan(&queries, strategy).unwrap();
        let mut engine = LocalEngine::new(
            workload.catalog.clone(),
            report.plan,
            EngineConfig::default(),
        );
        let mut generator = TpchGenerator::new(0.002, 123);
        for (relation, tuple) in generator.mixed_stream(&workload, 5_000).unwrap() {
            engine.ingest(relation, tuple).unwrap();
        }
        totals.push(engine.snapshot().total_results());
    }
    assert_eq!(totals[0], totals[1], "strategies disagree on TPC-H results");
}

#[test]
fn synthetic_workloads_share_probe_cost() {
    // Fig. 9a shape at integration level: over a dense pool of 10
    // relations, MQO saves a substantial fraction of the probe cost.
    // Seed chosen for the vendored deterministic RNG (vendor/rand), whose
    // stream differs from upstream rand's StdRng; the threshold is set just
    // under the observed 15.9% so the assertion stays meaningful without
    // being brittle against workload-generator tweaks.
    let mut env = SyntheticEnv::new(SyntheticWorkloadConfig::default(), 8).unwrap();
    let queries = env.random_queries(30, 3).unwrap();
    let planner = Planner::with_defaults(&env.catalog, &env.stats);
    let report = planner.plan(&queries, Strategy::GlobalIlp).unwrap();
    assert!(report.shared_cost <= report.individual_cost);
    let saving = 1.0 - report.shared_cost / report.individual_cost;
    assert!(
        saving > 0.12,
        "expected noticeable sharing on a dense pool, got {:.1}%",
        saving * 100.0
    );
}
