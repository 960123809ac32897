//! Equivalence of the sharded parallel runtime with the sequential
//! engine, plus routing properties of `partition_hash`.
//!
//! The parallel engine's contract is exact: on identical input streams it
//! must produce the identical result multiset (not just counts) as
//! `LocalEngine`, for every planning strategy, any worker count, and both
//! in-order and out-of-order timestamp arrival.

use clash_bench::exactness::{planned, run_paths, Run};
use clash_common::{Duration, EpochConfig, FxHasher, QueryId, Tuple, Window};
use clash_datagen::exactness::{multiset, two_chains, StreamShape};
use clash_optimizer::Strategy;
use clash_runtime::store::partition_hash;
use clash_runtime::{EngineConfig, LocalEngine, MetricsSnapshot, ParallelEngine};
use proptest::prelude::*;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// In-order arrivals 5 ms apart.
const IN_ORDER: StreamShape = StreamShape {
    relations: &["A", "B", "C", "D"],
    step_ms: 5,
    jitter_ms: 0,
};

/// [`IN_ORDER`] with each timestamp moved forward by up to 9 ms: a tuple
/// may carry a smaller timestamp than one that arrived before it.
const SHUFFLED: StreamShape = StreamShape {
    jitter_ms: 10,
    ..IN_ORDER
};

#[test]
fn parallel_engine_matches_local_engine_result_multisets() {
    // Every store's parallelism against worker counts below, at and above
    // it; the multisets and the counted work must agree on every path.
    let config = EngineConfig::default();
    for (parallelism, workers) in [(1, &[1][..]), (2, &[1, 2, 4, 7]), (4, &[1, 2, 4, 7, 8])] {
        let p = parallelism;
        let (catalog, queries) = two_chains([Window::secs(3600); 4], [p, p, p, 1]);
        let stream = IN_ORDER.draw(&catalog, 40, 0..6, 0xC1A5);
        for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
            let plan = planned(&catalog, &queries, strategy);
            let runs = run_paths(&catalog, &plan, config, &stream, workers, &[]);
            let (local, parallel) = runs.split_first().unwrap();
            let expected = &local.metrics;
            assert!(
                expected.total_results() > 0,
                "workload must produce results"
            );
            for run in parallel {
                let what = format!("{strategy:?}, {}, parallelism {parallelism}", run.path);
                let got = &run.metrics;
                for query in &queries {
                    assert_eq!(
                        got.results_for(query.id),
                        expected.results_for(query.id),
                        "{what}: {} result count",
                        query.name
                    );
                }
                assert_eq!(run.results, local.results, "{what}: result multiset");
                assert_eq!(got.tuples_sent, expected.tuples_sent, "{what}: probe cost");
                assert_eq!(got.broadcasts, expected.broadcasts, "{what}: broadcasts");
                assert_eq!(got.probes, expected.probes, "{what}: probe count");
                assert_eq!(
                    got.store_tuples, expected.store_tuples,
                    "{what}: store state"
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
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
    let plan = planned(&catalog, &queries, Strategy::GlobalIlp);
    for seed in [1u64, 2, 3] {
        let stream = SHUFFLED.draw(&catalog, 30, 0..5, seed);
        let runs = run_paths(
            &catalog,
            &plan,
            EngineConfig::default(),
            &stream,
            &[2, 4],
            &[],
        );
        let (local, parallel) = runs.split_first().unwrap();
        assert!(local.metrics.total_results() > 0);
        for run in parallel {
            assert_eq!(run.results, local.results, "seed {seed}, {}", run.path);
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
    let (catalog, queries) = two_chains([Window::secs(2); 4], [2, 2, 2, 1]);
    let stream = IN_ORDER.draw(&catalog, 600, 0..6, 0x7E1E);
    let plan = planned(&catalog, &queries, Strategy::GlobalIlp);
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
    let (catalog, queries) = two_chains([Window::secs(2); 4], [2, 2, 2, 1]);
    let stream = IN_ORDER.draw(&catalog, 400, 0..6, 0xACC7);
    let plan = planned(&catalog, &queries, Strategy::GlobalIlp);
    let config = EngineConfig {
        expire_every: 100,
        ..EngineConfig::default()
    };
    type Results = Vec<(QueryId, Tuple)>;
    // Each path's results are hashed once per surface; only a mismatch
    // renders them, to show the difference.
    let check =
        |path: &str, snap: MetricsSnapshot, collected: &[(QueryId, Tuple)], streamed: Results| {
            assert!(
                !collected.is_empty(),
                "{path}: workload must produce results"
            );
            let hashed = hashed_multiset(collected);
            if hashed_multiset(&streamed) != hashed {
                assert_eq!(
                    multiset(&streamed),
                    multiset(collected),
                    "{path}: second sink vs subscription"
                );
            }
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
            hashed
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
    let expected: Results = subscription.try_iter().collect();
    let expected_hashed = check("local", local.snapshot(), &expected, streamed);
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
        if check(&path, snap, &collected, streamed) != expected_hashed {
            assert_eq!(multiset(&collected), multiset(&expected), "{path}");
        }
    }
}

/// A result multiset as the sorted hashes of its results' contents: the
/// query, the timestamp and the sum of the `(attribute, value)` pairs'
/// hashes, which no pair order changes, so every join shape of one result
/// hashes alike (as [`clash_datagen::exactness::render`] renders alike).
/// Equal multisets hash equal; the string rendering is only needed to
/// show a difference.
fn hashed_multiset(results: &[(QueryId, Tuple)]) -> Vec<u64> {
    let hash = |item: &dyn Fn(&mut FxHasher)| {
        let mut hasher = FxHasher::default();
        item(&mut hasher);
        hasher.finish()
    };
    let mut hashes: Vec<u64> = results
        .iter()
        .map(|(query, tuple)| {
            let pairs = tuple
                .iter()
                .fold(0u64, |sum, pair| sum.wrapping_add(hash(&|h| pair.hash(h))));
            hash(&|h| (query, tuple.ts, pairs).hash(h))
        })
        .collect();
    hashes.sort_unstable();
    hashes
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    // Scheduling may interleave differently run to run; the collected
    // result multiset (and all counted metrics) must not.
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
    let plan = planned(&catalog, &queries, Strategy::GlobalIlp);
    let stream = IN_ORDER.draw(&catalog, 30, 0..5, 7);
    let outcome = || {
        let runs = run_paths(&catalog, &plan, EngineConfig::default(), &stream, &[4], &[]);
        let outcome = |run: Run| {
            let (total, sent) = (run.metrics.total_results(), run.metrics.tuples_sent);
            (run.path, run.results, total, sent)
        };
        runs.into_iter().map(outcome).collect::<Vec<_>>()
    };
    let first = outcome();
    assert_eq!(outcome(), first);
    assert_eq!(outcome(), first);
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
