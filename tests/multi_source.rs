//! Exactness and liveness of the async multi-source ingestion front-end.
//!
//! The contract under test is linearizability: K producer threads pushing
//! concurrently through their own `SourceHandle`s — with out-of-order
//! timestamps and any interleaving the scheduler picks — must produce
//! exactly the result multiset of single-threaded `LocalEngine` ingestion
//! of the same tuples in the realized serial order (`push` returns each
//! tuple's allocated sequence number, so that order is observable).
//! Sources with disjoint join keys additionally produce one deterministic
//! multiset under *any* interleaving, which pins the contract without
//! replaying the realized order. On top of exactness: results stream to
//! subscribers between barriers, backpressure bounds in-flight roots, a
//! source that goes quiet leaves nothing stranded, and engine drop drains
//! whatever the last explicit barrier did not cover.

use clash_bench::exactness::{local_results, planned, run_paths};
use clash_catalog::Catalog;
use clash_common::{QueryId, RelationId, Timestamp, Tuple, TupleBuilder, Window};
use clash_datagen::exactness::{received, two_chains, StreamShape};
use clash_optimizer::{Strategy, TopologyPlan};
use clash_runtime::{EngineConfig, LocalEngine, ParallelEngine, SourceHandle};
use proptest::prelude::*;
use std::sync::mpsc::Receiver;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Arrivals 5 ms apart, each timestamp moved forward by up to 9 ms: a
/// tuple may carry a smaller timestamp than one that arrived before it.
const SHUFFLED: StreamShape = StreamShape {
    relations: &["A", "B", "C", "D"],
    step_ms: 5,
    jitter_ms: 10,
};

/// `stream` dealt round-robin to `sources` slices: entry `i` goes to
/// slice `i % sources`.
fn round_robin(stream: &[(RelationId, Tuple)], sources: usize) -> Vec<Vec<(RelationId, Tuple)>> {
    let mut slices: Vec<Vec<(RelationId, Tuple)>> = (0..sources).map(|_| Vec::new()).collect();
    for (idx, entry) in stream.iter().enumerate() {
        slices[idx % sources].push(entry.clone());
    }
    slices
}

/// How a producer thread spaces its pushes.
#[derive(Debug, Clone, Copy)]
enum Pacing {
    /// Back to back: the workers stay behind, batches fill.
    Flood,
    /// `burst` pushes back to back, then a pause long enough for the
    /// workers to drain — so one run sees batches leave on the size
    /// trigger (inside a burst) and on the idle trigger from both sides
    /// (the first push after a pause finds its workers idle; what a
    /// burst's last push left behind a busy worker is pulled by that
    /// worker when it runs dry), and probes that arrive with earlier
    /// roots still in flight (registered) as well as with none (skipped).
    Bursty { burst: usize, pause: Duration },
}

/// The threads [`spawn_producers`] starts: each returns its pushes with
/// the sequence numbers `push` returned.
type Producers = Vec<JoinHandle<Vec<(u64, RelationId, Tuple)>>>;

/// One producer thread per slice, pushing it through its own handle under
/// `pacing`.
fn spawn_producers(
    handles: Vec<SourceHandle>,
    slices: Vec<Vec<(RelationId, Tuple)>>,
    pacing: Pacing,
) -> Producers {
    handles
        .into_iter()
        .zip(slices)
        .map(|(mut handle, slice)| {
            std::thread::spawn(move || {
                let mut log = Vec::with_capacity(slice.len());
                for (i, (relation, tuple)) in slice.into_iter().enumerate() {
                    if let Pacing::Bursty { burst, pause } = pacing {
                        if i > 0 && i % burst == 0 {
                            std::thread::sleep(pause);
                        }
                    }
                    let seq = handle.push(relation, tuple.clone()).unwrap();
                    log.push((seq, relation, tuple));
                }
                log
            })
        })
        .collect()
}

/// Joins `producers`: the realized serial order, every push sorted by its
/// sequence number.
fn realized_order(producers: Producers) -> Vec<(RelationId, Tuple)> {
    let mut log: Vec<(u64, RelationId, Tuple)> = producers
        .into_iter()
        .flat_map(|p| p.join().expect("producer thread"))
        .collect();
    log.sort_by_key(|(seq, _, _)| *seq);
    log.into_iter().map(|(_, r, t)| (r, t)).collect()
}

/// Splits `stream` round-robin across `sources` producer threads, each
/// pushing its slice through its own `SourceHandle` under `pacing`.
/// Returns the collected multiset, the realized serial order and the
/// engine's telemetry page after the final barrier.
fn run_sources(
    catalog: &Catalog,
    plan: &TopologyPlan,
    stream: &[(RelationId, Tuple)],
    sources: usize,
    workers: usize,
    config: EngineConfig,
    pacing: Pacing,
) -> (Vec<String>, Vec<(RelationId, Tuple)>, String) {
    let mut engine = ParallelEngine::new(catalog.clone(), plan.clone(), config, workers);
    let results = engine.subscribe();
    let handles = (0..sources).map(|_| engine.open_source()).collect();
    let realized = realized_order(spawn_producers(
        handles,
        round_robin(stream, sources),
        pacing,
    ));
    let page = engine.telemetry_snapshot();
    (received(&results), realized, page)
}

/// The value of `clash_flushes_total{trigger="<trigger>"}` on a
/// telemetry page.
fn flushes(page: &str, trigger: &str) -> u64 {
    let sample = format!("clash_flushes_total{{trigger=\"{trigger}\"}} ");
    page.lines()
        .find_map(|line| line.strip_prefix(&sample))
        .unwrap_or_else(|| panic!("no {sample} on the page"))
        .parse::<f64>()
        .expect("sample value") as u64
}

proptest! {
    /// The headline exactness property: K concurrent sources with
    /// out-of-order timestamps produce the same result multiset as
    /// single-threaded `LocalEngine` ingestion of the realized serial
    /// order (linearizability — the scheduler picks the interleaving,
    /// `push`'s returned sequence numbers expose it).
    #[test]
    fn concurrent_sources_are_linearizable(
        seed in 0u64..10_000,
        sources in 2usize..5,
    ) {
        let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
        let plan = planned(&catalog, &queries, Strategy::Shared);
        let stream = SHUFFLED.draw(&catalog, 12, 0..5, seed);
        let (multi, realized, _) =
            run_sources(&catalog, &plan, &stream, sources, 4, EngineConfig::default(), Pacing::Flood);
        prop_assert_eq!(realized.len(), stream.len(), "every push sequenced exactly once");
        let local = local_results(&catalog, &plan, &realized);
        prop_assert_eq!(local, multi, "seed {}, {} sources", seed, sources);
    }

    /// The same property under bursty producers: whichever flush trigger
    /// ships a batch, and whether or not a probe had to register for late
    /// inserts, the multiset is that of the realized serial order.
    #[test]
    fn bursty_sources_are_linearizable(
        seed in 0u64..10_000,
        sources in 1usize..4,
        burst in 3usize..12,
    ) {
        let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
        let plan = planned(&catalog, &queries, Strategy::Shared);
        let stream = SHUFFLED.draw(&catalog, 12, 0..5, seed);
        let config = EngineConfig {
            micro_batch: 8,
            ..EngineConfig::default()
        };
        let pacing = Pacing::Bursty { burst, pause: Duration::from_millis(2) };
        let (multi, realized, page) =
            run_sources(&catalog, &plan, &stream, sources, 4, config, pacing);
        prop_assert_eq!(realized.len(), stream.len(), "every push sequenced exactly once");
        prop_assert!(flushes(&page, "idle") > 0, "a push after a pause finds idle workers");
        let local = local_results(&catalog, &plan, &realized);
        prop_assert_eq!(local, multi, "seed {}, {} sources, bursts of {}", seed, sources, burst);
    }

    /// Sources with disjoint join keys produce one deterministic multiset
    /// under any interleaving: the original stream order and every
    /// realized order agree, so multi-source ingestion must reproduce
    /// `LocalEngine` on the stream as written.
    #[test]
    fn disjoint_key_sources_match_local_on_stream_order(
        seed in 0u64..10_000,
        sources in 2usize..4,
    ) {
        let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
        let plan = planned(&catalog, &queries, Strategy::Shared);
        // Per-source slices drawn from non-overlapping key ranges; the
        // round-robin split in the runner maps stream[i] to source
        // i % sources, so build the stream interleaved the same way.
        let per_source: Vec<Vec<(RelationId, Tuple)>> = (0..sources)
            .map(|s| {
                let lo = (s as i64) * 100;
                SHUFFLED.draw(&catalog, 12, lo..lo + 4, seed.wrapping_add(s as u64))
            })
            .collect();
        let mut stream = Vec::new();
        for idx in 0..per_source[0].len() * sources {
            stream.push(per_source[idx % sources][idx / sources].clone());
        }
        let local = local_results(&catalog, &plan, &stream);
        let (multi, _, _) =
            run_sources(&catalog, &plan, &stream, sources, 4, EngineConfig::default(), Pacing::Flood);
        prop_assert_eq!(local, multi, "seed {}, {} sources", seed, sources);
    }
}

#[test]
fn many_sources_and_strategies_are_linearizable() {
    // Heavier deterministic sweep across strategies, source counts and
    // worker counts (the proptests above fix Shared/4 for case volume).
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
    for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
        let plan = planned(&catalog, &queries, strategy);
        let stream = SHUFFLED.draw(&catalog, 40, 0..6, 0xBEEF);
        for (sources, workers) in [(1, 4), (2, 2), (3, 4), (4, 7)] {
            let (multi, realized, _) = run_sources(
                &catalog,
                &plan,
                &stream,
                sources,
                workers,
                EngineConfig::default(),
                Pacing::Flood,
            );
            let local = local_results(&catalog, &plan, &realized);
            assert!(!local.is_empty(), "workload must produce results");
            assert_eq!(
                local, multi,
                "{strategy:?}, {sources} sources, {workers} workers"
            );
        }
    }
}

#[test]
fn single_source_matches_local_on_stream_order() {
    // One source realizes exactly its push order, so no recording is
    // needed: the multiset must equal LocalEngine on the stream as
    // written, out-of-order timestamps included.
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
    let plan = planned(&catalog, &queries, Strategy::GlobalIlp);
    for seed in [1u64, 2, 3] {
        let stream = SHUFFLED.draw(&catalog, 30, 0..5, seed);
        let local = local_results(&catalog, &plan, &stream);
        assert!(!local.is_empty());
        let (multi, realized, _) = run_sources(
            &catalog,
            &plan,
            &stream,
            1,
            4,
            EngineConfig::default(),
            Pacing::Flood,
        );
        assert_eq!(realized, stream, "a single source realizes push order");
        assert_eq!(local, multi, "seed {seed}");
    }
}

#[test]
fn micro_batch_and_backpressure_extremes_stay_exact() {
    // Send-per-push, tiny in-flight bounds (every push waits on the
    // admission gate) and barrier-only batching must not change results.
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = SHUFFLED.draw(&catalog, 25, 0..4, 7);
    for (micro_batch, max_inflight) in [(1usize, 1usize), (4, 2), (1 << 20, 8), (64, 0)] {
        let config = EngineConfig {
            micro_batch,
            max_inflight_roots: max_inflight,
            ..EngineConfig::default()
        };
        let (multi, realized, _) =
            run_sources(&catalog, &plan, &stream, 3, 2, config, Pacing::Flood);
        let local = local_results(&catalog, &plan, &realized);
        assert_eq!(
            local, multi,
            "micro_batch={micro_batch}, max_inflight_roots={max_inflight}"
        );
    }
}

#[test]
fn coordinator_and_sources_may_ingest_concurrently() {
    // The coordinator's own ingest is just another producer. Its slice
    // and the source's slice use disjoint key ranges, so the combined
    // multiset is interleaving-independent and must equal LocalEngine on
    // the two slices back to back.
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let coordinator_slice = SHUFFLED.draw(&catalog, 30, 0..5, 21);
    let source_slice = SHUFFLED.draw(&catalog, 30, 100..105, 22);
    let mut combined = coordinator_slice.clone();
    combined.extend(source_slice.iter().cloned());
    let local = local_results(&catalog, &plan, &combined);
    let mut engine = ParallelEngine::new(catalog.clone(), plan, EngineConfig::default(), 4);
    let results = engine.subscribe();
    let handles = vec![engine.open_source()];
    let producers = spawn_producers(handles, vec![source_slice], Pacing::Flood);
    for (relation, tuple) in &coordinator_slice {
        engine.ingest(*relation, tuple.clone()).unwrap();
    }
    realized_order(producers);
    engine.flush();
    assert_eq!(local, received(&results));
}

#[test]
fn subscription_streams_results_before_any_barrier() {
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = SHUFFLED.draw(&catalog, 30, 0..4, 3);
    let expected = local_results(&catalog, &plan, &stream).len();
    assert!(expected > 0);
    // Send-per-push so nothing lingers in a batch buffer.
    let config = EngineConfig {
        micro_batch: 1,
        ..EngineConfig::default()
    };
    let mut engine = ParallelEngine::new(catalog.clone(), plan, config, 2);
    let rx = engine.subscribe();
    let producers = spawn_producers(vec![engine.open_source()], vec![stream], Pacing::Flood);
    // Every result must arrive on the subscription without any flush /
    // snapshot barrier being run.
    let mut streamed = 0usize;
    while streamed < expected {
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(_) => streamed += 1,
            Err(e) => panic!("subscription stalled after {streamed}/{expected} results: {e}"),
        }
    }
    realized_order(producers);
    // No duplicates: the barrier must not re-deliver anything.
    engine.flush();
    assert!(
        rx.try_recv().is_err(),
        "subscription delivered more results than the sequential engine produces"
    );
}

#[test]
fn every_subscriber_gets_the_full_result_multiset() {
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = SHUFFLED.draw(&catalog, 30, 0..4, 7);
    let expected = local_results(&catalog, &plan, &stream);
    assert!(!expected.is_empty());
    let mut engine = ParallelEngine::new(catalog.clone(), plan, EngineConfig::default(), 2);
    // A second subscription adds a receiver; a dropped one takes nothing
    // away from the others.
    let first = engine.subscribe();
    drop(engine.subscribe());
    let second = engine.subscribe();
    let mut handle = engine.open_source();
    for (relation, tuple) in stream {
        handle.push(relation, tuple).unwrap();
    }
    engine.flush();
    for rx in [first, second] {
        assert_eq!(received(&rx), expected);
    }
}

#[test]
fn subscriptions_add_up_on_both_engines_and_both_system_runtimes() {
    // Every way out adds a receiver, on every engine: a later
    // `subscribe()` or `set_sink` never cuts off an earlier one, and each
    // sees the full multiset.
    use clash_core::{ClashSystem, RuntimeMode, SystemConfig};
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = SHUFFLED.draw(&catalog, 30, 0..4, 7);
    let expected = local_results(&catalog, &plan, &stream);
    assert!(!expected.is_empty());
    let check = |path: &str, receivers: &[Receiver<(QueryId, Tuple)>]| {
        for (i, rx) in receivers.iter().enumerate() {
            assert_eq!(received(rx), expected, "{path}, receiver {i}");
        }
    };

    let mut local = LocalEngine::new(catalog.clone(), plan.clone(), EngineConfig::default());
    let (first, second) = (local.subscribe(), local.subscribe());
    let (tx, sunk) = std::sync::mpsc::channel();
    local.set_sink(Box::new(move |q, t| {
        let _ = tx.send((q, t.clone()));
    }));
    for (relation, tuple) in &stream {
        local.ingest(*relation, tuple.clone()).unwrap();
    }
    check("LocalEngine", &[first, second, sunk]);

    let mut parallel = ParallelEngine::new(catalog.clone(), plan, EngineConfig::default(), 2);
    let receivers = [parallel.subscribe(), parallel.subscribe()];
    for (relation, tuple) in &stream {
        parallel.ingest(*relation, tuple.clone()).unwrap();
    }
    parallel.flush();
    check("ParallelEngine", &receivers);

    for runtime in [RuntimeMode::Local, RuntimeMode::Parallel(2)] {
        let mut clash = ClashSystem::new(SystemConfig {
            runtime,
            ..SystemConfig::default()
        });
        // The same relations in the same order: the same relation ids.
        for meta in catalog.iter() {
            let attrs = meta.schema.attributes.iter().map(|a| a.name.clone());
            clash
                .register_relation(&meta.name, attrs, meta.window, meta.parallelism)
                .unwrap();
        }
        for query in &queries {
            clash.register_prepared_query(query.clone()).unwrap();
        }
        clash.deploy(Strategy::Shared).unwrap();
        let receivers = [clash.subscribe().unwrap(), clash.subscribe().unwrap()];
        for (relation, tuple) in &stream {
            clash.ingest_by_id(*relation, tuple.clone()).unwrap();
        }
        clash.snapshot().unwrap();
        check(&format!("ClashSystem {runtime:?}"), &receivers);
    }
}

#[test]
fn results_arrive_without_a_timer_or_a_barrier() {
    // The size trigger (a million deliveries) cannot fire and there is no
    // timer: the batches ship because the workers they are for have
    // nothing to do — seen by a push, or by a worker running dry.
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = SHUFFLED.draw(&catalog, 30, 0..4, 3);
    let expected = local_results(&catalog, &plan, &stream).len();
    assert!(expected > 0);
    let config = EngineConfig {
        micro_batch: 1 << 20,
        ..EngineConfig::default()
    };
    let mut engine = ParallelEngine::new(catalog.clone(), plan, config, 2);
    let rx = engine.subscribe();
    let mut handle = engine.open_source();
    for (relation, tuple) in stream {
        handle.push(relation, tuple).unwrap();
    }
    // The stream simply stops: whatever its last pushes left behind busy
    // workers must still come out, with no push, flush or barrier.
    let deadline = Instant::now() + Duration::from_secs(1);
    for streamed in 0..expected {
        let patience = deadline.saturating_duration_since(Instant::now());
        assert!(
            rx.recv_timeout(patience).is_ok(),
            "{streamed}/{expected} results after 1 s: a batch is waiting for something"
        );
    }
}

#[test]
fn bursty_producers_exercise_every_flush_trigger_and_stay_exact() {
    // Deterministic sweep over the bursty mode (the proptest above fixes
    // the strategy for case volume): long enough that both automatic
    // triggers have fired by the end, and exact whichever did.
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
    let config = EngineConfig {
        micro_batch: 8,
        ..EngineConfig::default()
    };
    let pacing = Pacing::Bursty {
        burst: 16,
        pause: Duration::from_millis(2),
    };
    let (mut size, mut idle) = (0, 0);
    for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
        let plan = planned(&catalog, &queries, strategy);
        let stream = SHUFFLED.draw(&catalog, 60, 0..6, 0xB0057);
        for (sources, workers) in [(1, 2), (2, 4), (3, 4)] {
            let (multi, realized, page) =
                run_sources(&catalog, &plan, &stream, sources, workers, config, pacing);
            let local = local_results(&catalog, &plan, &realized);
            assert!(!local.is_empty(), "workload must produce results");
            assert_eq!(
                local, multi,
                "{strategy:?}, {sources} bursty sources, {workers} workers"
            );
            size += flushes(&page, "size");
            idle += flushes(&page, "idle");
        }
    }
    assert!(size > 0, "no burst ever filled a micro-batch");
    assert!(idle > 0, "no push ever found an idle worker");
}

#[test]
fn backpressure_bounds_inflight_roots() {
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = SHUFFLED.draw(&catalog, 100, 0..4, 11);
    let cap = 4usize;
    let config = EngineConfig {
        max_inflight_roots: cap,
        ..EngineConfig::default()
    };
    let mut engine = ParallelEngine::new(catalog.clone(), plan.clone(), config, 2);
    let results = engine.subscribe();
    let handles = vec![engine.open_source()];
    let producers = spawn_producers(handles, vec![stream.clone()], Pacing::Flood);
    // Sample the in-flight gauge while the producer runs: the admission
    // gate must keep it at or below the bound (the watermark is read
    // monotonically, so a sample can only under-report).
    let mut max_seen = 0u64;
    while !producers[0].is_finished() {
        max_seen = max_seen.max(engine.inflight());
    }
    realized_order(producers);
    assert!(
        max_seen <= cap as u64,
        "in-flight roots reached {max_seen}, bound is {cap}"
    );
    engine.flush();
    // A single source realizes push order: results must match the local
    // engine on the stream as written despite the throttling.
    assert_eq!(local_results(&catalog, &plan, &stream), received(&results));
}

#[test]
fn quiet_source_streams_its_results_without_barriers() {
    // A barrier-sized micro-batch never fills with these three tuples and
    // the source goes quiet after them: each batch must ship because its
    // worker is idle (seen by the push or by the worker), and the join
    // result must stream out.
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let config = EngineConfig {
        micro_batch: 1 << 20,
        ..EngineConfig::default()
    };
    let mut engine = ParallelEngine::new(catalog.clone(), plan, config, 2);
    let rx = engine.subscribe();
    let mut handle = engine.open_source();
    let tuple = |name: &str, ts: u64, values: &[(&str, i64)]| {
        let meta = catalog.relation_by_name(name).unwrap();
        let mut b = TupleBuilder::new(&meta.schema, Timestamp::from_millis(ts));
        for (attr, v) in values {
            b = b.set(attr, *v);
        }
        (meta.id, b.build())
    };
    for (relation, t) in [
        tuple("A", 10, &[("x", 1)]),
        tuple("B", 20, &[("x", 1), ("y", 2)]),
        tuple("C", 30, &[("y", 2), ("z", 3)]),
    ] {
        handle.push(relation, t).unwrap();
    }
    // The A(x) ⋈ B(x,y) ⋈ C(y) result must stream out with no flush, no
    // further pushes and no barrier.
    assert!(
        rx.recv_timeout(Duration::from_secs(10)).is_ok(),
        "the quiet source's last deliveries never shipped"
    );
}

#[test]
fn drop_without_barrier_drains_inflight_results() {
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = SHUFFLED.draw(&catalog, 30, 0..4, 5);
    let expected = local_results(&catalog, &plan, &stream).len() as u64;
    assert!(expected > 0);
    let mut engine = ParallelEngine::new(catalog.clone(), plan, EngineConfig::default(), 2);
    let results = engine.subscribe();
    for (relation, tuple) in &stream {
        engine.ingest(*relation, tuple.clone()).unwrap();
    }
    // No flush, no snapshot: dropping the engine must drain in-flight
    // batches and deliver every outstanding result to the subscription
    // before joining the workers (which disconnects it).
    drop(engine);
    assert_eq!(results.try_iter().count() as u64, expected);
}

/// Outcome of [`run_with_installs`]: collected multiset, realized serial
/// order, and realized install points `(position, plan index)`.
type InstallRaceOutcome = (Vec<String>, Vec<(RelationId, Tuple)>, Vec<(u64, usize)>);

/// Runs `sources` producer threads over round-robin slices of `stream`
/// while the main thread force-installs `plans` (cycled) whenever
/// `installs_every` further roots have been sequenced. Returns the
/// collected multiset, the realized serial order, and the realized
/// install points `(position, plan index)` — position `p` meaning roots
/// `1..=p` ran under the previous plan and later roots under the new one.
fn run_with_installs(
    catalog: &Catalog,
    plans: &[TopologyPlan],
    stream: &[(RelationId, Tuple)],
    sources: usize,
    workers: usize,
    installs_every: u64,
    config: EngineConfig,
) -> InstallRaceOutcome {
    let mut engine = ParallelEngine::new(catalog.clone(), plans[0].clone(), config, workers);
    let results = engine.subscribe();
    // One install lands between the first and the second `open_source`,
    // so a source opened after an install must push against the plan the
    // install left on every worker and slot. Same plan, no root sequenced
    // yet, so the replay is unaffected.
    let mut handles = vec![engine.open_source()];
    engine.install_plan(plans[0].clone()).unwrap();
    handles.extend((1..sources).map(|_| engine.open_source()));
    let producers = spawn_producers(handles, round_robin(stream, sources), Pacing::Flood);
    // Force plan installs while the producers run: every time
    // `installs_every` further roots have been sequenced, install the
    // next plan of the cycle. This is the exact race that used to drop
    // pushes — workers switching plans under concurrent producers.
    let mut installs = Vec::new();
    let mut next_install_at = installs_every;
    let mut plan_idx = 0usize;
    while producers.iter().any(|p| !p.is_finished()) {
        if engine.sequenced() >= next_install_at {
            plan_idx = (plan_idx + 1) % plans.len();
            let pos = engine.install_plan(plans[plan_idx].clone()).unwrap();
            installs.push((pos, plan_idx));
            next_install_at = engine.sequenced() + installs_every;
        }
        std::thread::yield_now();
    }
    let realized = realized_order(producers);
    engine.flush();
    (received(&results), realized, installs)
}

proptest! {
    /// The install-race exactness property (the bug this PR fixes): N
    /// producer threads pushing continuously across M forced
    /// `install_plan` calls lose nothing — the multiset equals
    /// `LocalEngine` on the realized sequence order. The re-installed
    /// plan is identical, so state carry-over makes the replay
    /// install-free; any dropped or stale-routed push would show up as a
    /// missing or extra result.
    #[test]
    fn producers_racing_installs_lose_nothing(
        seed in 0u64..10_000,
        sources in 2usize..4,
    ) {
        let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
        let plan = planned(&catalog, &queries, Strategy::Shared);
        let stream = SHUFFLED.draw(&catalog, 12, 0..5, seed);
        let plans = vec![plan];
        let (multi, realized, installs) = run_with_installs(
            &catalog, &plans, &stream, sources, 4, 8, EngineConfig::default());
        prop_assert_eq!(realized.len(), stream.len(), "every push sequenced exactly once");
        let local = local_results(&catalog, &plans[0], &realized);
        prop_assert_eq!(local, multi, "seed {}, {} sources, {} installs", seed, sources, installs.len());
    }
}

#[test]
fn installs_alternating_plans_match_local_replay_at_install_points() {
    // The strong form of the quiesce contract: with *different* plans
    // alternating under live producers, the engine equals `LocalEngine`
    // replaying the realized order with the same plans installed at the
    // same realized positions (`install_plan` returns them). Descriptor
    // key carry-over applies on both sides.
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [4, 4, 4, 1]);
    let plans = vec![
        planned(&catalog, &queries, Strategy::Shared),
        planned(&catalog, &queries, Strategy::Independent),
    ];
    for seed in [11u64, 12, 13] {
        let stream = SHUFFLED.draw(&catalog, 25, 0..5, seed);
        let (multi, realized, installs) =
            run_with_installs(&catalog, &plans, &stream, 3, 4, 20, EngineConfig::default());
        assert_eq!(realized.len(), stream.len());
        // Replay through LocalEngine with identical install points.
        let points: Vec<(usize, &TopologyPlan)> = installs
            .iter()
            .map(|(pos, idx)| (*pos as usize, &plans[*idx]))
            .collect();
        let config = EngineConfig::default();
        let replay = run_paths(&catalog, &plans[0], config, &realized, &[], &points).remove(0);
        assert_eq!(
            replay.results,
            multi,
            "seed {seed}: {} installs at {:?}",
            installs.len(),
            installs
        );
    }
}

#[test]
fn no_push_blocks_past_the_quiesce_window() {
    // Reconfiguration-under-load liveness: with repeated installs racing
    // K producers, every push completes and none blocks anywhere near
    // the backpressure stall threshold — pushes only ever wait for the
    // bounded quiesce window (pause -> drain -> install -> resume).
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = SHUFFLED.draw(&catalog, 50, 0..4, 17);
    let mut engine = ParallelEngine::new(catalog.clone(), plan.clone(), EngineConfig::default(), 2);
    let producers: Vec<_> = round_robin(&stream, 3)
        .into_iter()
        .map(|slice| {
            let mut handle = engine.open_source();
            std::thread::spawn(move || {
                let mut max_push = Duration::ZERO;
                for (relation, tuple) in slice {
                    let started = Instant::now();
                    handle.push(relation, tuple).unwrap();
                    max_push = max_push.max(started.elapsed());
                }
                max_push
            })
        })
        .collect();
    // Do-while: at least one install runs even if the scheduler lets the
    // producers finish first, and typically many overlap them.
    let mut installs = 0;
    loop {
        engine.install_plan(plan.clone()).unwrap();
        installs += 1;
        if producers.iter().all(|p| p.is_finished()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(installs > 0);
    for producer in producers {
        let max_push = producer.join().expect("producer thread");
        assert!(
            max_push < Duration::from_secs(10),
            "a push blocked {max_push:?}, far past any quiesce window"
        );
    }
}

#[test]
fn clash_system_source_workload_reconfigures_out_of_the_box() {
    // The Fig. 8 acceptance path at the system level: a parallel
    // deployment fed exclusively through `open_source()` (not one
    // coordinator-thread ingest) records reconfigurations, because the
    // control-plane epoch driver wired up by `deploy` fires the adaptive
    // controller off the stream clock the pushes advance.
    use clash_core::{ClashSystem, RuntimeMode, SystemConfig};
    let mut clash = ClashSystem::new(SystemConfig {
        runtime: RuntimeMode::Parallel(2),
        ..SystemConfig::default()
    });
    clash
        .register_relation("R", ["a"], clash_common::Window::secs(3600), 2)
        .unwrap();
    clash
        .register_relation("S", ["a", "b"], clash_common::Window::secs(3600), 2)
        .unwrap();
    clash
        .register_relation("T", ["b"], clash_common::Window::secs(3600), 2)
        .unwrap();
    clash.set_rate("R", 100.0).unwrap();
    clash.set_rate("S", 100.0).unwrap();
    clash.set_rate("T", 100.0).unwrap();
    clash.register_query("q1", "R(a), S(a,b), T(b)").unwrap();
    clash.deploy(clash_core::Strategy::GlobalIlp).unwrap();
    let mut handle = clash.open_source().unwrap();
    // A mid-stream query registration guarantees the next evaluated
    // epoch boundary schedules a different plan.
    clash.register_query("q2", "S(b), T(b)").unwrap();
    let r = clash.catalog().relation_id("R").unwrap();
    let s = clash.catalog().relation_id("S").unwrap();
    let r_meta = clash.catalog().relation(r).unwrap().clone();
    let s_meta = clash.catalog().relation(s).unwrap().clone();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut ts = 0u64;
    let reconfigured = loop {
        ts += 333;
        let rt = clash_common::TupleBuilder::new(&r_meta.schema, Timestamp::from_millis(ts))
            .set("a", (ts % 5) as i64)
            .build();
        handle.push(r, rt).unwrap();
        let st = clash_common::TupleBuilder::new(&s_meta.schema, Timestamp::from_millis(ts))
            .set("a", (ts % 5) as i64)
            .set("b", (ts % 3) as i64)
            .build();
        handle.push(s, st).unwrap();
        if clash.reconfigurations() > 0 {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(
        reconfigured,
        "a source-fed ClashSystem deployment never re-optimized"
    );
    // The epoch driver that installed it is still running, error-free.
    assert_eq!(clash.adaptive_error(), None);
    // Zero coordinator-thread ingests happened; the engine still drains
    // and accounts every push.
    let snap = clash.snapshot().unwrap();
    assert!(snap.tuples_ingested > 0);
}

#[test]
fn source_push_after_shutdown_errors() {
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = SHUFFLED.draw(&catalog, 2, 0..4, 1);
    let mut engine = ParallelEngine::new(catalog.clone(), plan, EngineConfig::default(), 2);
    let mut handle = engine.open_source();
    let (relation, tuple) = stream[0].clone();
    handle.push(relation, tuple.clone()).unwrap();
    engine.shutdown();
    assert_eq!(
        handle.push(relation, tuple.clone()).unwrap_err(),
        clash_common::ClashError::Shutdown,
        "pushes after shutdown must error, not vanish"
    );
    drop(engine);
    assert_eq!(
        handle.push(relation, tuple).unwrap_err(),
        clash_common::ClashError::Shutdown,
        "pushes after drop must error too"
    );
}

#[test]
fn explicit_shutdown_is_idempotent_and_inert() {
    let (catalog, queries) = two_chains([Window::secs(3600); 4], [2, 2, 2, 1]);
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = SHUFFLED.draw(&catalog, 10, 0..4, 9);
    let expected = local_results(&catalog, &plan, &stream);
    let mut engine = ParallelEngine::new(catalog.clone(), plan, EngineConfig::default(), 2);
    let results = engine.subscribe();
    for (relation, tuple) in &stream {
        engine.ingest(*relation, tuple.clone()).unwrap();
    }
    engine.shutdown();
    assert_eq!(received(&results), expected, "shutdown drains");
    engine.shutdown(); // idempotent
    engine.flush(); // inert, must not panic
    let (relation, tuple) = stream[0].clone();
    assert!(
        engine.ingest(relation, tuple).is_err(),
        "ingest after shutdown must error, not hang"
    );
    assert_eq!(
        results.try_recv(),
        Err(std::sync::mpsc::TryRecvError::Disconnected),
        "nothing after shutdown, and the subscription is closed"
    );
}
