//! Equivalence of the sharded parallel runtime with the sequential
//! engine, plus routing properties of `partition_hash`.
//!
//! The parallel engine's contract is exact: on identical input streams it
//! must produce the identical result multiset (not just counts) as
//! `LocalEngine`, for every planning strategy, any worker count, and both
//! in-order and out-of-order timestamp arrival.

use clash_catalog::{Catalog, Statistics};
use clash_common::{
    Duration, EpochConfig, QueryId, RelationId, Timestamp, Tuple, TupleBuilder, Window,
};
use clash_optimizer::{Planner, Strategy};
use clash_query::parse_query;
use clash_runtime::store::partition_hash;
use clash_runtime::{EngineConfig, LocalEngine, MetricsSnapshot, ParallelEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

fn catalog_with_parallelism(parallelism: usize) -> (Catalog, Vec<clash_query::JoinQuery>) {
    let mut catalog = Catalog::new();
    catalog
        .register("A", ["x"], Window::secs(3600), parallelism)
        .unwrap();
    catalog
        .register("B", ["x", "y"], Window::secs(3600), parallelism)
        .unwrap();
    catalog
        .register("C", ["y", "z"], Window::secs(3600), parallelism)
        .unwrap();
    catalog.register("D", ["z"], Window::secs(3600), 1).unwrap();
    let q1 = parse_query(&catalog, QueryId::new(0), "q1", "A(x), B(x,y), C(y)").unwrap();
    let q2 = parse_query(&catalog, QueryId::new(1), "q2", "B(y), C(y,z), D(z)").unwrap();
    (catalog, vec![q1, q2])
}

/// Random stream over all four relations; `shuffle_ts` makes timestamps
/// arrive out of order (a tuple may carry a smaller timestamp than an
/// earlier-arrived one), stressing the sequence-number probe guard.
fn random_stream(
    catalog: &Catalog,
    n_per_relation: usize,
    key_domain: i64,
    seed: u64,
    shuffle_ts: bool,
) -> Vec<(RelationId, Tuple)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::new();
    let mut ts = 0u64;
    for _ in 0..n_per_relation {
        for name in ["A", "B", "C", "D"] {
            let meta = catalog.relation_by_name(name).unwrap();
            ts += 5;
            let jitter = if shuffle_ts {
                rng.gen_range(0..10u64)
            } else {
                0
            };
            let mut b = TupleBuilder::new(&meta.schema, Timestamp::from_millis(ts + jitter));
            for attr in &meta.schema.attributes {
                b = b.set(&attr.name, rng.gen_range(0..key_domain));
            }
            stream.push((meta.id, b.build()));
        }
    }
    stream
}

/// Canonical sortable rendering of a result multiset.
fn result_multiset(results: &[(QueryId, Tuple)]) -> Vec<String> {
    let mut rendered: Vec<String> = results
        .iter()
        .map(|(q, t)| {
            let mut attrs: Vec<String> = t.iter().map(|(a, v)| format!("{a}={v}")).collect();
            attrs.sort();
            format!("{q}|{}|{}", t.ts, attrs.join(","))
        })
        .collect();
    rendered.sort();
    rendered
}

fn run_local(
    catalog: &Catalog,
    queries: &[clash_query::JoinQuery],
    strategy: Strategy,
    stream: &[(RelationId, Tuple)],
) -> (Vec<String>, u64, u64) {
    let stats = Statistics::new();
    let planner = Planner::with_defaults(catalog, &stats);
    let report = planner.plan(queries, strategy).unwrap();
    let mut engine = LocalEngine::new(catalog.clone(), report.plan, EngineConfig::default());
    let results = engine.subscribe();
    for (relation, tuple) in stream {
        engine.ingest(*relation, tuple.clone()).unwrap();
    }
    let snap = engine.snapshot();
    (
        result_multiset(&results.try_iter().collect::<Vec<_>>()),
        snap.total_results(),
        snap.tuples_sent,
    )
}

fn run_parallel(
    catalog: &Catalog,
    queries: &[clash_query::JoinQuery],
    strategy: Strategy,
    stream: &[(RelationId, Tuple)],
    workers: usize,
) -> (Vec<String>, u64, u64) {
    let stats = Statistics::new();
    let planner = Planner::with_defaults(catalog, &stats);
    let report = planner.plan(queries, strategy).unwrap();
    let config = EngineConfig::default();
    let mut engine = ParallelEngine::new(catalog.clone(), report.plan, config, workers);
    let results = engine.subscribe();
    for (relation, tuple) in stream {
        engine.ingest(*relation, tuple.clone()).unwrap();
    }
    let snap = engine.snapshot();
    (
        result_multiset(&results.try_iter().collect::<Vec<_>>()),
        snap.total_results(),
        snap.tuples_sent,
    )
}

#[test]
fn parallel_engine_matches_local_engine_result_multisets() {
    for parallelism in [2usize, 4] {
        let (catalog, queries) = catalog_with_parallelism(parallelism);
        let stream = random_stream(&catalog, 40, 6, 0xC1A5, false);
        for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
            let (local_set, local_total, local_sent) =
                run_local(&catalog, &queries, strategy, &stream);
            assert!(local_total > 0, "workload must produce results");
            for workers in [1usize, 2, 4, 7] {
                let (par_set, par_total, par_sent) =
                    run_parallel(&catalog, &queries, strategy, &stream, workers);
                assert_eq!(
                    local_total, par_total,
                    "{strategy:?} result count, {workers} workers, parallelism {parallelism}"
                );
                assert_eq!(
                    local_set, par_set,
                    "{strategy:?} result multiset, {workers} workers, parallelism {parallelism}"
                );
                assert_eq!(
                    local_sent, par_sent,
                    "{strategy:?} probe cost, {workers} workers, parallelism {parallelism}"
                );
            }
        }
    }
}

#[test]
fn parallel_engine_matches_local_engine_on_out_of_order_streams() {
    // Out-of-order timestamps make the "probe only earlier arrivals" rule
    // diverge from timestamp order; the parallel engine must still mirror
    // the sequential engine's arrival-order semantics exactly (via the
    // sequence-number guard).
    let (catalog, queries) = catalog_with_parallelism(4);
    for seed in [1u64, 2, 3] {
        let stream = random_stream(&catalog, 30, 5, seed, true);
        let (local_set, local_total, _) =
            run_local(&catalog, &queries, Strategy::GlobalIlp, &stream);
        assert!(local_total > 0);
        for workers in [2usize, 4] {
            let (par_set, _, _) =
                run_parallel(&catalog, &queries, Strategy::GlobalIlp, &stream, workers);
            assert_eq!(local_set, par_set, "seed {seed}, {workers} workers");
        }
    }
}

/// The sample lines (and `# HELP` / `# TYPE` lines) of the sections both
/// engines' telemetry pages share — the names the benchmark's layer
/// metrics parse. Latency values are wall-clock, so those families are
/// compared by sample key and by count only.
fn shared_sections(page: &str) -> Vec<String> {
    const SHARED: [&str; 5] = [
        "clash_tuples_",
        "clash_probes_total",
        "clash_results_total",
        "clash_result_latency_",
        "clash_store_",
    ];
    page.lines()
        .filter(|line| {
            let name = line
                .trim_start_matches("# HELP ")
                .trim_start_matches("# TYPE ");
            SHARED.iter().any(|prefix| name.starts_with(prefix))
        })
        // Which histogram buckets are non-empty depends on the timings.
        .filter(|line| !line.contains("_bucket{") || line.contains("le=\"+Inf\""))
        .map(|line| {
            let timed = line.starts_with("clash_result_latency_")
                && !line.contains("_count")
                && !line.contains("_bucket{");
            match line.rsplit_once(' ') {
                Some((key, _)) if timed => key.to_string(),
                _ => line.to_string(),
            }
        })
        .collect()
}

#[test]
fn telemetry_pages_agree_on_every_shared_section() {
    // Finite windows over many short epochs, so both engines close epochs
    // and expire within the run.
    let (mut catalog, queries) = catalog_with_parallelism(2);
    for id in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
        catalog.set_window(id, Window::secs(2)).unwrap();
    }
    let stream = random_stream(&catalog, 600, 6, 0x7E1E, false);
    let stats = Statistics::new();
    let plan = Planner::with_defaults(&catalog, &stats)
        .plan(&queries, Strategy::GlobalIlp)
        .unwrap()
        .plan;
    let config = EngineConfig {
        epoch: EpochConfig::new(Duration::from_millis(100)),
        expire_every: 100,
        ..EngineConfig::default()
    };
    let mut local = LocalEngine::new(catalog.clone(), plan.clone(), config);
    let mut parallel = ParallelEngine::new(catalog.clone(), plan, config, 1);
    for (relation, tuple) in &stream {
        local.ingest(*relation, tuple.clone()).unwrap();
        parallel.ingest(*relation, tuple.clone()).unwrap();
    }
    let local_page = shared_sections(&local.telemetry_snapshot());
    let parallel_page = shared_sections(&parallel.telemetry_snapshot());
    for family in [
        "clash_store_tuples{",
        "clash_store_posting_lists{",
        "clash_results_total{",
    ] {
        assert!(
            local_page
                .iter()
                .any(|l| l.starts_with(family) && !l.ends_with(" 0")),
            "{family} never moved: {local_page:#?}"
        );
    }
    assert_eq!(local_page, parallel_page);
}

#[test]
fn per_evaluation_accounting_agrees_with_every_result_surface() {
    // Results reach the sinks mid-probe and are counted and timed once per
    // rule evaluation. Per query, the counter, the latency sample count and
    // the subscribed results must still agree, and a second sink attached
    // for the whole run (the borrowing `set_sink` locally, another
    // subscription on workers) must see exactly the same multiset — on the
    // local engine and on 1 and 2 workers, under finite windows and expiry.
    let (mut catalog, queries) = catalog_with_parallelism(2);
    for id in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
        catalog.set_window(id, Window::secs(2)).unwrap();
    }
    let stream = random_stream(&catalog, 400, 6, 0xACC7, false);
    let plan = Planner::with_defaults(&catalog, &Statistics::new())
        .plan(&queries, Strategy::GlobalIlp)
        .unwrap()
        .plan;
    let config = EngineConfig {
        expire_every: 100,
        ..EngineConfig::default()
    };
    type Results = Vec<(QueryId, Tuple)>;
    let check =
        |path: &str, snap: MetricsSnapshot, collected: &[(QueryId, Tuple)], streamed: Results| {
            assert!(
                !collected.is_empty(),
                "{path}: workload must produce results"
            );
            assert_eq!(
                result_multiset(&streamed),
                result_multiset(collected),
                "{path}: second sink vs subscription"
            );
            for query in &queries {
                let n = collected.iter().filter(|(q, _)| *q == query.id).count() as u64;
                assert_eq!(
                    snap.results_for(query.id),
                    n,
                    "{path}: {} count",
                    query.name
                );
                let samples = snap.latency_for(query.id).count;
                assert_eq!(samples, n, "{path}: {} latency samples", query.name);
            }
            result_multiset(collected)
        };

    let mut local = LocalEngine::new(catalog.clone(), plan.clone(), config);
    let subscription = local.subscribe();
    let sunk = Arc::new(Mutex::new(Vec::new()));
    let into = Arc::clone(&sunk);
    local.set_sink(Box::new(move |q, t| {
        into.lock().unwrap().push((q, t.clone()))
    }));
    for (relation, tuple) in &stream {
        local.ingest(*relation, tuple.clone()).unwrap();
    }
    let streamed = std::mem::take(&mut *sunk.lock().unwrap());
    let collected: Results = subscription.try_iter().collect();
    let expected = check("local", local.snapshot(), &collected, streamed);
    for workers in [1usize, 2] {
        let mut engine = ParallelEngine::new(catalog.clone(), plan.clone(), config, workers);
        let (subscription, second) = (engine.subscribe(), engine.subscribe());
        for (relation, tuple) in &stream {
            engine.ingest(*relation, tuple.clone()).unwrap();
        }
        let snap = engine.snapshot();
        let collected: Results = subscription.try_iter().collect();
        let streamed = second.try_iter().collect();
        let path = format!("{workers} workers");
        assert_eq!(check(&path, snap, &collected, streamed), expected);
    }
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    // Scheduling may interleave differently run to run; the collected
    // result multiset (and all counted metrics) must not.
    let (catalog, queries) = catalog_with_parallelism(4);
    let stream = random_stream(&catalog, 30, 5, 7, false);
    let runs: Vec<(Vec<String>, u64, u64)> = (0..3)
        .map(|_| run_parallel(&catalog, &queries, Strategy::GlobalIlp, &stream, 4))
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

proptest! {
    /// `partition_hash` is stable (same value, same shard), bounded by the
    /// shard count, and `parallelism <= 1` always routes to shard 0.
    #[test]
    fn partition_hash_routing_is_stable_and_bounded(
        keys in proptest::collection::vec(0i64..1_000_000, 1..64),
        shards in 1usize..16,
    ) {
        for k in &keys {
            let v = clash_common::Value::Int(*k);
            let p1 = partition_hash(&v, shards);
            let p2 = partition_hash(&v, shards);
            prop_assert_eq!(p1, p2, "stability");
            prop_assert!(p1 < shards, "bounded");
            prop_assert_eq!(partition_hash(&v, 1), 0);
        }
    }

    /// Routing is uniform enough that no shard receives more than three
    /// times its fair share of a large uniform key set (the load-balance
    /// property the cost model's χ factor assumes).
    #[test]
    fn partition_hash_routing_is_roughly_uniform(
        shards in 2usize..9,
        offset in 0i64..1_000,
    ) {
        let n = 4_000i64;
        let mut counts = vec![0usize; shards];
        for k in 0..n {
            let v = clash_common::Value::Int(offset + k);
            counts[partition_hash(&v, shards)] += 1;
        }
        let fair = n as usize / shards;
        for (shard, count) in counts.iter().enumerate() {
            prop_assert!(
                *count > fair / 3 && *count < fair * 3,
                "shard {} got {} of {} (fair {})",
                shard,
                count,
                n,
                fair
            );
        }
    }
}
