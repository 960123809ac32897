//! Hot-path measurements that nothing else in the repository takes.
//!
//! Per-kernel costs (tuple build/join/get, store insert/probe/expire) are
//! timed by the steady-state benchmark under `benchmark/` on every PR;
//! this report keeps only what it does not measure, each row with a
//! correctness cross-check before timing:
//!
//! * `store_probe_cold` / `store_probe_skewed` — the same store probed
//!   with every epoch open and with every epoch closed
//!   ([`ClosedProbeRow`]): what the closed-epoch bloom buys on
//!   miss-dominated long state and costs on hit-heavy skewed state.
//! * `allocs` — allocations per tuple on the construct → insert → expire
//!   path, and per input tuple of the rule kernel at steady state
//!   (`kernel_allocs`), under the counting allocator; deterministic, so CI
//!   holds both on the noisy runner too.
//! * `fig7` — the Fig. 7 five-query replay per strategy.
//! * `multi_source` — the identical two-query workload pushed through the
//!   parallel engine by the coordinator thread and by 1, 2 and 4
//!   concurrent `SourceHandle` producers: identical result counts,
//!   wall-clock throughput and the worker busy-balance (the
//!   hardware-independent parallelism evidence on a single-core runner).
//! * `reconfig` — the same workload under forced quiesced plan installs.
//! * `telemetry` — the Fig. 7 workload with the engine's trace ring off
//!   and on; the throughput ratio the bench guard holds above its floor.
//! * `ilp` — the five- and ten-query Fig. 7 ILPs solved at the default
//!   node limit: solve time, nodes and nodes per second (the ten-query
//!   rate is floored by the bench guard), the objective found, the node
//!   that found it (0: the greedy warm start) and the root bound.

use crate::allocs::AllocSpan;
use crate::exactness::planned;
use crate::fig7::{run_fig7, Fig7Row};
use clash_catalog::Catalog;
use clash_common::{
    AttrId, AttrRef, Epoch, JoinSlot, QueryId, RelationId, RelationSet, Schema, Timestamp, Tuple,
    TupleBuilder, Value, Window,
};
use clash_datagen::{TpchGenerator, TpchWorkload};
use clash_ilp::{solve, SolverConfig};
use clash_optimizer::{
    build_ilp, enumerate_candidates, PlanSpaceConfig, Planner, PlannerConfig, Strategy,
    TopologyPlan,
};
use clash_query::{parse_query, EquiPredicate, StoreDescriptor};
use clash_runtime::store::StoreInstance;
use clash_runtime::{EngineConfig, LocalEngine, ParallelEngine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every suite takes the best of this many timed runs.
pub const BEST_OF: usize = 3;

/// One closed-probe result: the same probe stream against a store whose
/// epochs are all open and against its copy with every epoch closed.
#[derive(Debug, Clone)]
pub struct ClosedProbeRow {
    /// Suite name.
    pub name: &'static str,
    /// Probes per second against the open store (best of [`BEST_OF`]).
    pub hot_probes_per_sec: f64,
    /// Probes per second against the closed store (best of [`BEST_OF`]).
    pub closed_probes_per_sec: f64,
}

impl ClosedProbeRow {
    /// closed / open.
    pub fn speedup(&self) -> f64 {
        if self.hot_probes_per_sec > 0.0 {
            self.closed_probes_per_sec / self.hot_probes_per_sec
        } else {
            0.0
        }
    }
}

/// Full hotpath report.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Scale of the store suites (stored tuples = iters / 4, probes =
    /// iters / 2, allocation tuples = iters / 2, each clamped).
    pub iters: usize,
    /// Stream length of the end-to-end sections.
    pub fig7_tuples: usize,
    /// Closed-probe rows.
    pub micro: Vec<ClosedProbeRow>,
    /// Allocations per ingested tuple (counting-allocator scenario).
    pub allocs: AllocsRow,
    /// Allocations per input tuple of the rule kernel at steady state.
    pub kernel_allocs: AllocsRow,
    /// Fig. 7 five-query rows.
    pub fig7: Vec<Fig7Row>,
    /// Multi-source ingestion rows (coordinator baseline + source sweep).
    pub multi_source: Vec<MultiSourceRow>,
    /// Reconfiguration rows (install-free baseline + cadence sweep).
    pub reconfig: Vec<ReconfigRow>,
    /// Telemetry overhead row (trace ring off vs. on, same workload).
    pub telemetry: TelemetryOverheadRow,
    /// ILP solve rows (five and ten queries).
    pub ilp: Vec<IlpRow>,
}

fn best_of<F: FnMut() -> f64>(mut run: F) -> f64 {
    (0..BEST_OF).map(|_| run()).fold(0.0, f64::max)
}

/// Allocations per ingested tuple on the full ingest path (arena builder
/// → insert into an indexed store with inline postings → periodic
/// in-place window expiry), measured with the counting global allocator.
/// Unlike the timing suites this is deterministic, so CI asserts on it
/// even on a noisy runner.
#[derive(Debug, Clone)]
pub struct AllocsRow {
    /// Tuples pushed through the pipeline.
    pub tuples: usize,
    /// Allocations per tuple.
    pub allocs_per_tuple: f64,
}

/// Runs the allocation scenario: `n` tuples, expiry every 1024 with a 1 s
/// window over a 1 ms-per-tuple stream, so the arena sees a steady
/// recycle stream just like a windowed deployment.
pub fn bench_ingest_allocs(n: usize) -> AllocsRow {
    let schema = Schema::new(RelationId::new(0), "S", ["key", "payload", "status"]);
    let (key_ref, pay_ref, status_ref) = (
        schema.attr_ref("key").expect("key"),
        schema.attr_ref("payload").expect("payload"),
        schema.attr_ref("status").expect("status"),
    );
    let status = Value::str("status-flag");
    let window = Window::secs(1);
    let key_domain = 512usize;
    let expire_every = 1024usize;

    let run = |count: usize| -> u64 {
        let mut store = fresh_store(window, key_ref);
        let span = AllocSpan::start();
        for i in 0..count {
            let ts = Timestamp::from_millis(i as u64);
            let tuple = TupleBuilder::new(&schema, ts)
                .set_slot(key_ref.attr, (i % key_domain) as i64)
                .set_slot(pay_ref.attr, i as i64)
                .set_slot(status_ref.attr, status.clone())
                .build();
            store.insert(0, Epoch(0), tuple);
            if i % expire_every == expire_every - 1 {
                store.expire(window.horizon(ts));
            }
        }
        let allocs = span.elapsed();
        std::hint::black_box(&store);
        allocs
    };
    // Warm the pipeline once (map capacity, arena pool) so the measured
    // pass reflects steady state, then measure a fresh store.
    run(n.min(4 * expire_every));
    AllocsRow {
        tuples: n,
        allocs_per_tuple: run(n) as f64 / n as f64,
    }
}

/// Input tuples the report's kernel replay warms up on, and then counts
/// over: fixed, so the reading is the same at every report size.
const KERNEL_WARMUP: usize = 10_000;
/// See [`KERNEL_WARMUP`].
const KERNEL_TUPLES: usize = 5_000;

/// The rule kernel's allocation replay: a finite-window (5 s)
/// `five_queries()` workload and its `GlobalIlp` plan, planned once (the
/// ILP solve is most of a debug-build test's time) and replayed on fresh
/// `LocalEngine`s per [`Self::allocs`] call.
pub struct KernelReplay {
    workload: TpchWorkload,
    plan: TopologyPlan,
}

impl KernelReplay {
    /// The replay's first `tuples` input tuples, 1 ms apart.
    pub fn stream(&self, tuples: usize) -> Vec<(RelationId, Tuple)> {
        TpchGenerator::new(0.002, 42)
            .mixed_stream(&self.workload, tuples)
            .expect("stream")
    }

    /// Plans the replay's workload.
    pub fn plan() -> Self {
        let workload = TpchWorkload::new(2, Window::secs(5)).expect("workload");
        let queries = workload.five_queries().expect("queries");
        let planner = Planner::new(&workload.catalog, &workload.stats, PlannerConfig::default());
        let plan = planner
            .plan(&queries, Strategy::GlobalIlp)
            .expect("plan")
            .plan;
        KernelReplay { workload, plan }
    }

    /// Allocations per input tuple of the rule kernel at steady state,
    /// counted over `tuples` input tuples after `warmup` more (1 ms apart)
    /// fill the window and start expiry (every hit is lent by reference);
    /// the report passes [`KERNEL_WARMUP`] and [`KERNEL_TUPLES`]. It runs
    /// on a fresh thread, so neither the counter nor the thread's leaf
    /// arena carries anything from earlier suites; like
    /// [`bench_ingest_allocs`] it is deterministic, and its ceiling keeps
    /// per-probe and per-result allocations from creeping back.
    pub fn allocs(&self, warmup: usize, tuples: usize) -> AllocsRow {
        let replay = || {
            let mut stream = self.stream(warmup + tuples).into_iter();
            let catalog = self.workload.catalog.clone();
            let mut engine = LocalEngine::new(catalog, self.plan.clone(), EngineConfig::default());
            for (relation, tuple) in stream.by_ref().take(warmup) {
                engine.ingest(relation, tuple).expect("ingest");
            }
            let span = AllocSpan::start();
            for (relation, tuple) in stream {
                engine.ingest(relation, tuple).expect("ingest");
            }
            AllocsRow {
                tuples,
                allocs_per_tuple: span.elapsed() as f64 / tuples as f64,
            }
        };
        std::thread::scope(|scope| scope.spawn(replay).join().expect("kernel replay"))
    }
}

/// The store-suite schema: stored relation S(0) with key attribute S.a,
/// probing relation R(1) with key R.a, predicate S.a = R.a.
fn store_fixture() -> (AttrRef, EquiPredicate) {
    let stored_key = AttrRef::new(RelationId::new(0), AttrId::new(0));
    let probe_key = AttrRef::new(RelationId::new(1), AttrId::new(0));
    (stored_key, EquiPredicate::new(stored_key, probe_key))
}

fn fresh_store(window: Window, stored_key: AttrRef) -> StoreInstance {
    StoreInstance::new(
        StoreDescriptor::unpartitioned(RelationSet::singleton(RelationId::new(0))),
        window,
        vec![stored_key],
    )
}

/// Number of epochs the closed-probe suites spread their tuples over:
/// enough epochs that per-epoch probe overhead (an index lookup per open
/// epoch, one bloom check for all closed ones) dominates a miss.
const PROBE_EPOCHS: usize = 32;

/// Fills a store with `n` tuples in `PROBE_EPOCHS` contiguous epoch
/// blocks, drawing the key of tuple `i` from `key_of(i)`.
fn fill_epochs(
    n: usize,
    stored_key: AttrRef,
    window: Window,
    mut key_of: impl FnMut(usize) -> usize,
) -> StoreInstance {
    let mut store = fresh_store(window, stored_key);
    let rel = RelationId::new(0);
    for i in 0..n {
        let epoch = Epoch((i * PROBE_EPOCHS / n) as u64);
        let pairs = vec![
            (
                AttrRef::new(rel, AttrId::new(0)),
                Value::Int(key_of(i) as i64),
            ),
            (AttrRef::new(rel, AttrId::new(1)), Value::Int(i as i64)),
            (AttrRef::new(rel, AttrId::new(2)), Value::str("payload")),
        ];
        store.insert(
            0,
            epoch,
            Tuple::base(rel, Timestamp::from_millis(i as u64), pairs),
        );
    }
    store
}

/// Shared body of the closed-probe suites: identical stores, one left
/// open and one with every epoch closed, probed with the same key
/// sequence over every epoch — so the row isolates exactly what closing
/// buys (or costs) on that workload.
fn bench_closed_probe(
    name: &'static str,
    n: usize,
    store: impl Fn() -> StoreInstance,
    probe_keys: Vec<usize>,
    check_keys: Vec<usize>,
) -> ClosedProbeRow {
    let (_, predicate) = store_fixture();
    let live = store();
    let mut closed = store();
    let count = closed.freeze_before(Epoch(PROBE_EPOCHS as u64));
    assert_eq!(count, PROBE_EPOCHS, "{name}: not every epoch closed");

    let epochs: Vec<Epoch> = (0..PROBE_EPOCHS as u64).map(Epoch).collect();
    let probe_ts = Timestamp::from_millis(n as u64 + 10);
    let as_probe = |k: usize| {
        Tuple::base(
            RelationId::new(1),
            probe_ts,
            vec![(
                AttrRef::new(RelationId::new(1), AttrId::new(0)),
                Value::Int(k as i64),
            )],
        )
    };
    let probes: Vec<Tuple> = probe_keys.iter().map(|&k| as_probe(k)).collect();
    // Correctness cross-check over `check_keys` (callers include known
    // hits, even when the timed stream is all misses) plus a sample of
    // the timed stream: both stores return the same match multiset
    // (content-equal tuples; stored timestamps are unique, so sorting by
    // `ts` makes the comparison order-insensitive).
    let sampled = probes.iter().step_by((probes.len() / 16).max(1)).cloned();
    let mut checked = 0usize;
    for probe in check_keys.iter().map(|&k| as_probe(k)).chain(sampled) {
        let mut lm = live.probe(0, &epochs, &probe, std::slice::from_ref(&predicate));
        let mut cm = closed.probe(0, &epochs, &probe, std::slice::from_ref(&predicate));
        lm.sort_by_key(|t| t.ts);
        cm.sort_by_key(|t| t.ts);
        assert_eq!(lm, cm, "{name}: open and closed stores disagree");
        checked += lm.len();
    }
    assert!(checked > 0, "{name}: cross-check never exercised a hit");

    // Timed through the kernel's probe form and its per-hit work: the
    // visitor joins each match to the probe through one `JoinSlot` and
    // releases the result before the next, as the rule kernel does.
    let rate = |store: &StoreInstance| {
        best_of(|| {
            let started = Instant::now();
            let mut matches = 0usize;
            for probe in &probes {
                let epochs = epochs.iter().copied();
                let predicates = std::slice::from_ref(&predicate);
                let mut slot = JoinSlot::default();
                store.probe_each(0, epochs, probe, predicates, None, |hit| {
                    matches += usize::from(std::hint::black_box(slot.join(probe, hit)).is_some());
                });
            }
            std::hint::black_box(matches);
            probes.len() as f64 / started.elapsed().as_secs_f64()
        })
    };
    ClosedProbeRow {
        name,
        hot_probes_per_sec: rate(&live),
        closed_probes_per_sec: rate(&closed),
    }
}

/// Long-state probing: uniform keys across many epochs, probed with keys
/// that were never stored — the dominant outcome for a probe against
/// long-retention state. The open store pays a `Value` hash plus an index
/// miss per epoch; the closed one hashes once per probe and skips every
/// epoch on the union bloom's answer. (Hit probes are covered by the
/// cross-check and by the skewed row, which times them.)
pub fn bench_store_probe_cold(n: usize, probes: usize) -> ClosedProbeRow {
    let (stored_key, _) = store_fixture();
    let window = Window::secs(3_600);
    let key_domain = (n / 8).max(1);
    let probe_keys = (0..probes).map(|k| key_domain + k).collect();
    // Known hits (stored keys span `0..key_domain`) plus one miss.
    let check_keys = vec![0, 1, key_domain / 2, key_domain - 1, key_domain + 5];
    bench_closed_probe(
        "store_probe_cold",
        n,
        || fill_epochs(n, stored_key, window, |i| i % key_domain),
        probe_keys,
        check_keys,
    )
}

/// Skewed-store probing: stored keys drawn Zipf(s = 1) — a few hot keys
/// own most of the stream — probed uniformly over the key domain, so
/// most probes land on sparse tail keys with the occasional hot-key hit.
/// A closed store whose bloom answers "maybe" walks the same posting
/// lists as the open one, so the row prices the bloom check on hit-heavy
/// state; both pay the kernel's join per match.
pub fn bench_store_probe_skewed(n: usize, probes: usize) -> ClosedProbeRow {
    let (stored_key, _) = store_fixture();
    let window = Window::secs(3_600);
    let key_domain = (n / 8).max(1);
    let stored = clash_datagen::ZipfSampler::new(key_domain, 1.0, 42);
    // Exponent 0 degenerates to uniform: same sampler, disjoint seed.
    let mut probing = clash_datagen::ZipfSampler::new(key_domain, 0.0, 43);
    let probe_keys = (0..probes).map(|_| probing.next_rank()).collect();
    // Hot head ranks, a tail rank, and an out-of-domain miss.
    let check_keys = vec![0, 1, 2, key_domain - 1, key_domain + 5];
    bench_closed_probe(
        "store_probe_skewed",
        n,
        // Clone per call: the fixture is built twice (open and closed)
        // and both must see the identical key sequence.
        move || {
            let mut keys = stored.clone();
            fill_epochs(n, stored_key, window, move |_| keys.next_rank())
        },
        probe_keys,
        check_keys,
    )
}

/// One row of the multi-source ingestion scenario: the same two-query
/// workload pushed through the parallel engine either by the coordinator
/// thread (the pre-ingest-subsystem baseline) or by N concurrent
/// [`clash_runtime::SourceHandle`] producer threads.
///
/// Both are closed loops — they push as fast as the engine accepts — so
/// the latency columns read queue length, not service time. The open loop
/// (one source at a fixed offered load, latency timed to `subscribe()`)
/// is `benchmark/`'s `fig7_5q_parallel` workload.
#[derive(Debug, Clone)]
pub struct MultiSourceRow {
    /// `"coordinator"` or `"sources"`.
    pub mode: &'static str,
    /// Open source handles (0 for the coordinator baseline).
    pub sources: usize,
    /// Producer threads actually spawned: source handles are grouped onto
    /// at most `available_parallelism()` threads, so a 1-core CI runner
    /// no longer reports thread oversubscription as engine regression
    /// (0 for the coordinator baseline, which pushes from the bench
    /// thread).
    pub producer_threads: usize,
    /// Input stream length.
    pub tuples: usize,
    /// End-to-end wall-clock throughput in tuples per second (ingest
    /// start to drain end).
    pub wall_tps: f64,
    /// Median per-result ingest-to-emit latency in milliseconds (from
    /// the merged per-worker histograms).
    pub latency_p50_ms: f64,
    /// 99th-percentile per-result ingest-to-emit latency in milliseconds.
    pub latency_p99_ms: f64,
    /// Total join results produced (asserted identical across rows).
    pub results: u64,
    /// Largest single worker's share of total worker busy time (0.25 is a
    /// perfect 4-way split) — the hardware-independent parallelism
    /// evidence on a single-core runner.
    pub busy_balance: f64,
}

/// Worker threads of the multi-source scenario (matches the catalog
/// parallelism of the fixture).
const MULTI_SOURCE_WORKERS: usize = 4;

/// The multi-source fixture: a 4-relation chain shared by two 3-way
/// queries, every store partitioned 4 ways.
fn multi_source_fixture() -> (Catalog, Vec<clash_query::JoinQuery>) {
    let mut catalog = Catalog::new();
    let window = Window::secs(3600);
    catalog
        .register("R", ["a"], window, MULTI_SOURCE_WORKERS)
        .expect("register");
    catalog
        .register("S", ["a", "b"], window, MULTI_SOURCE_WORKERS)
        .expect("register");
    catalog
        .register("T", ["b", "c"], window, MULTI_SOURCE_WORKERS)
        .expect("register");
    catalog
        .register("U", ["c"], window, MULTI_SOURCE_WORKERS)
        .expect("register");
    let q1 = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").expect("q1");
    let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(b), T(b,c), U(c)").expect("q2");
    (catalog, vec![q1, q2])
}

/// Relations per round of the generated stream.
const MULTI_SOURCE_RELS: usize = 4;

/// Deterministic input stream for the multi-source scenario (no RNG, so
/// every row replays the identical tuple mix). Round `i` emits one tuple
/// per relation, all carrying key `i % domain`; rounds are what the
/// source split distributes, so a joining group never straddles sources.
/// `domain` is a multiple of every benched source count, making each
/// source's key set disjoint under the round-robin split — cross-source
/// pairs never join, so the result multiset is identical under any
/// producer interleaving and comparable across rows (see
/// `clash_runtime::ingest` on arrival-order semantics).
fn multi_source_stream(catalog: &Catalog, total: usize) -> Vec<(RelationId, Tuple)> {
    let domain = ((total / 16).max(64) / MULTI_SOURCE_RELS * MULTI_SOURCE_RELS) as i64;
    let names = ["R", "S", "T", "U"];
    let metas: Vec<_> = names
        .iter()
        .map(|n| catalog.relation_by_name(n).expect("relation"))
        .collect();
    let mut stream = Vec::with_capacity(total);
    let mut i = 0usize;
    while stream.len() < total {
        let key = (i as i64) % domain;
        for meta in &metas {
            if stream.len() >= total {
                break;
            }
            let ts = Timestamp::from_millis(stream.len() as u64 + 1);
            let mut b = TupleBuilder::new(&meta.schema, ts);
            for attr in &meta.schema.attributes {
                b = b.set(&attr.name, key);
            }
            stream.push((meta.id, b.build()));
        }
        i += 1;
    }
    stream
}

/// Runs the multi-source ingestion scenario: the coordinator-ingest
/// baseline plus one row per source count, each best-of-[`BEST_OF`] on a
/// fresh engine over the identical stream. Asserts that every run
/// produces the identical result count (the multi-source exactness
/// contract) before reporting throughput.
pub fn run_multi_source(total: usize, source_counts: &[usize]) -> Vec<MultiSourceRow> {
    let (catalog, queries) = multi_source_fixture();
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = multi_source_stream(&catalog, total);
    let config = EngineConfig::default();
    let mut rows = Vec::new();
    let mut expected = None;

    // Coordinator-ingest baseline: the single-producer front-end.
    let mut best: Option<MultiSourceRow> = None;
    for _ in 0..BEST_OF {
        let mut engine =
            ParallelEngine::new(catalog.clone(), plan.clone(), config, MULTI_SOURCE_WORKERS);
        let started = Instant::now();
        for (relation, tuple) in &stream {
            engine.ingest(*relation, tuple.clone()).expect("ingest");
        }
        engine.flush();
        let elapsed = started.elapsed().as_secs_f64();
        let snap = engine.snapshot();
        let results = snap.total_results();
        assert_eq!(*expected.get_or_insert(results), results);
        let row = MultiSourceRow {
            mode: "coordinator",
            sources: 0,
            producer_threads: 0,
            tuples: total,
            wall_tps: total as f64 / elapsed,
            latency_p50_ms: snap.latency.p50_us / 1000.0,
            latency_p99_ms: snap.latency.p99_us / 1000.0,
            results,
            busy_balance: busy_balance(&engine),
        };
        if best.as_ref().is_none_or(|b| row.wall_tps > b.wall_tps) {
            best = Some(row);
        }
    }
    rows.push(best.expect("baseline row"));
    let expected = expected.expect("baseline results");

    // Producer threads are capped at the machine's parallelism: more
    // pushing threads than cores measures scheduler thrash, not the
    // engine. Handles beyond the cap share a thread (rounds interleaved
    // across the thread's handles, so the push pattern stays
    // source-alternating); the cap is recorded per row.
    let thread_cap = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for &sources in source_counts {
        let producer_threads = sources.clamp(1, thread_cap);
        let mut best: Option<MultiSourceRow> = None;
        for _ in 0..BEST_OF {
            let mut engine =
                ParallelEngine::new(catalog.clone(), plan.clone(), config, MULTI_SOURCE_WORKERS);
            let handles: Vec<_> = (0..sources).map(|_| engine.open_source()).collect();
            // Round-robin split by round (not by tuple): each producer
            // pushes whole joining groups in stream order, and the domain
            // choice in `multi_source_stream` makes the sources' key sets
            // disjoint.
            let mut slices: Vec<Vec<(RelationId, Tuple)>> =
                (0..sources).map(|_| Vec::new()).collect();
            for (idx, entry) in stream.iter().enumerate() {
                slices[(idx / MULTI_SOURCE_RELS) % sources].push(entry.clone());
            }
            let mut groups: Vec<Vec<_>> = (0..producer_threads).map(|_| Vec::new()).collect();
            for (idx, pair) in handles.into_iter().zip(slices).enumerate() {
                groups[idx % producer_threads].push(pair);
            }
            let started = Instant::now();
            let producers: Vec<_> = groups
                .into_iter()
                .map(|mut group| {
                    std::thread::spawn(move || {
                        let mut cursors = vec![0usize; group.len()];
                        loop {
                            let mut progressed = false;
                            for (gi, (handle, slice)) in group.iter_mut().enumerate() {
                                let start = cursors[gi];
                                if start >= slice.len() {
                                    continue;
                                }
                                let end = (start + MULTI_SOURCE_RELS).min(slice.len());
                                for (relation, tuple) in &slice[start..end] {
                                    handle.push(*relation, tuple.clone()).expect("push");
                                }
                                cursors[gi] = end;
                                progressed = true;
                            }
                            if !progressed {
                                break;
                            }
                        }
                    })
                })
                .collect();
            for producer in producers {
                producer.join().expect("producer thread");
            }
            engine.flush();
            let elapsed = started.elapsed().as_secs_f64();
            let snap = engine.snapshot();
            assert_eq!(
                snap.total_results(),
                expected,
                "multi-source run ({sources} sources) diverged from the coordinator baseline"
            );
            let row = MultiSourceRow {
                mode: "sources",
                sources,
                producer_threads,
                tuples: total,
                wall_tps: total as f64 / elapsed,
                latency_p50_ms: snap.latency.p50_us / 1000.0,
                latency_p99_ms: snap.latency.p99_us / 1000.0,
                results: snap.total_results(),
                busy_balance: busy_balance(&engine),
            };
            if best.as_ref().is_none_or(|b| row.wall_tps > b.wall_tps) {
                best = Some(row);
            }
        }
        rows.push(best.expect("source row"));
    }
    rows
}

/// One row of the reconfiguration scenario: the multi-source workload
/// with a forced plan install every `installs_every` sequenced roots
/// (0 = the install-free baseline), `(tuples - 1) / installs_every` of
/// them. Installs go through the quiesce protocol under live producers,
/// so the row measures what adaptive re-optimization costs the ingest
/// path — and asserts it costs no results.
#[derive(Debug, Clone)]
pub struct ReconfigRow {
    /// Forced install cadence in sequenced roots (0 = no installs).
    pub installs_every: usize,
    /// Plan installs performed during the run: one at each multiple of
    /// `installs_every` below `tuples` (asserted).
    pub installs: usize,
    /// Input stream length.
    pub tuples: usize,
    /// End-to-end wall-clock throughput in tuples per second.
    pub wall_tps: f64,
    /// Total join results produced (asserted identical across rows: the
    /// quiesced installs must be lossless).
    pub results: u64,
}

/// Runs the reconfiguration scenario: 2 concurrent sources push the
/// multi-source workload while the main thread force-installs the same
/// plan every `installs_every` roots (state carries over by descriptor
/// key, so the result multiset must stay identical to the install-free
/// baseline — any dropped push would change it). The `k`-th install
/// lands at sequence position `k * installs_every` exactly: a producer
/// holds a tuple past that boundary until the install is done, so a fast
/// host cannot outrun the installs. One row per cadence, best of
/// [`BEST_OF`].
pub fn run_reconfig(total: usize, cadences: &[usize]) -> Vec<ReconfigRow> {
    let (catalog, queries) = multi_source_fixture();
    let plan = planned(&catalog, &queries, Strategy::Shared);
    let stream = multi_source_stream(&catalog, total);
    let config = EngineConfig::default();
    let sources = 2usize;
    let mut rows = Vec::new();
    let mut expected = None;
    let mut all_cadences = vec![0usize];
    all_cadences.extend_from_slice(cadences);
    for cadence in all_cadences {
        let mut best: Option<ReconfigRow> = None;
        for _ in 0..BEST_OF {
            let mut engine =
                ParallelEngine::new(catalog.clone(), plan.clone(), config, MULTI_SOURCE_WORKERS);
            let handles: Vec<_> = (0..sources).map(|_| engine.open_source()).collect();
            let mut slices: Vec<Vec<(usize, RelationId, Tuple)>> =
                (0..sources).map(|_| Vec::new()).collect();
            for (idx, (relation, tuple)) in stream.iter().enumerate() {
                slices[(idx / MULTI_SOURCE_RELS) % sources].push((idx, *relation, tuple.clone()));
            }
            let installed = Arc::new(AtomicUsize::new(0));
            let started = Instant::now();
            let producers: Vec<_> = handles
                .into_iter()
                .zip(slices)
                .map(|(mut handle, slice)| {
                    let installed = Arc::clone(&installed);
                    std::thread::spawn(move || {
                        for (idx, relation, tuple) in slice {
                            // Stream position `idx` lies past `idx / cadence`
                            // install boundaries.
                            while cadence > 0 && installed.load(Ordering::Acquire) < idx / cadence {
                                std::thread::yield_now();
                            }
                            handle.push(relation, tuple).expect("push");
                        }
                    })
                })
                .collect();
            let installs = (total - 1).checked_div(cadence).unwrap_or(0);
            for k in 1..=installs {
                let at = (k * cadence) as u64;
                while engine.sequenced() < at {
                    std::thread::yield_now();
                }
                let position = engine.install_plan(plan.clone()).expect("quiesced install");
                assert_eq!(position, at, "install {k} of cadence {cadence}");
                installed.store(k, Ordering::Release);
            }
            for producer in producers {
                producer.join().expect("producer thread");
            }
            engine.flush();
            let elapsed = started.elapsed().as_secs_f64();
            let snap = engine.snapshot();
            let results = snap.total_results();
            assert_eq!(
                *expected.get_or_insert(results),
                results,
                "reconfig run (cadence {cadence}) lost or duplicated results"
            );
            let row = ReconfigRow {
                installs_every: cadence,
                installs,
                tuples: total,
                wall_tps: total as f64 / elapsed,
                results,
            };
            if best.as_ref().is_none_or(|b| row.wall_tps > b.wall_tps) {
                best = Some(row);
            }
        }
        rows.push(best.expect("reconfig row"));
    }
    rows
}

/// Largest worker's share of the summed busy time (1.0 when a single
/// shard did everything).
fn busy_balance(engine: &ParallelEngine) -> f64 {
    let busy: Vec<f64> = engine
        .worker_busy()
        .iter()
        .map(|d| d.as_secs_f64())
        .collect();
    let total: f64 = busy.iter().sum();
    let max = busy.iter().cloned().fold(0.0f64, f64::max);
    if total > 0.0 {
        max / total
    } else {
        1.0
    }
}

/// Traced/untraced pairs of the telemetry row.
const TELEMETRY_PAIRS: usize = 5;

/// Input tuples one side of a telemetry pair ingests before the other
/// takes its turn.
const TELEMETRY_CHUNK: usize = 500;

/// Telemetry overhead on the ingest hot path: the kernel replay's
/// finite-window (5 s) five-query plan ([`KernelReplay`]) replayed on the
/// sequential engine with the trace ring disabled (`trace_capacity = 0`,
/// the one-branch fast path) and enabled (the default capacity, every
/// event paying its ring write), in `TELEMETRY_PAIRS` pairs. The two
/// engines of a pair take turns every `TELEMETRY_CHUNK` tuples, and
/// only the tuples after `KERNEL_WARMUP` (the window full) are timed.
/// The ratio is what `bench_guard` holds above the floor in
/// `ci/bench_floors.json`: tracing must stay within a few percent of the
/// untraced throughput, or it is not always-on telemetry.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryOverheadRow {
    /// Input stream length.
    pub tuples: usize,
    /// Median wall-clock throughput with the trace ring disabled
    /// (tuples/sec).
    pub untraced_tps: f64,
    /// Median wall-clock throughput with the default trace ring
    /// (tuples/sec).
    pub traced_tps: f64,
    /// Median over the pairs of traced / untraced throughput: 1.0 means
    /// tracing is free, 0.97 means a 3% hot-path tax.
    pub throughput_ratio: f64,
    /// Events left in the ring after the traced run (caps at the ring
    /// capacity; nonzero proves the traced run actually recorded).
    pub trace_events: usize,
}

/// The middle value of an odd-length sample.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Runs the telemetry overhead scenario over `num_tuples` of `replay`'s
/// stream after its warm-up. Asserts the traced and untraced runs produce
/// identical result counts (observation must not perturb the join) and
/// that the traced run recorded events.
pub fn run_telemetry_overhead(replay: &KernelReplay, num_tuples: usize) -> TelemetryOverheadRow {
    let stream = replay.stream(KERNEL_WARMUP + num_tuples);
    let capacities = [0usize, EngineConfig::default().trace_capacity];
    let mut trace_events = 0usize;
    let mut pairs = Vec::with_capacity(TELEMETRY_PAIRS);
    for pair in 0..TELEMETRY_PAIRS {
        let mut engines = capacities.map(|trace_capacity| {
            let config = EngineConfig {
                trace_capacity,
                ..EngineConfig::default()
            };
            LocalEngine::new(replay.workload.catalog.clone(), replay.plan.clone(), config)
        });
        // The two sides take turns chunk by chunk, so a change of the
        // host's speed falls on both.
        let mut elapsed = [0.0f64; 2];
        for (i, chunk) in stream.chunks(TELEMETRY_CHUNK).enumerate() {
            for which in [(pair + i) % 2, 1 - (pair + i) % 2] {
                let started = Instant::now();
                for (relation, tuple) in chunk {
                    engines[which]
                        .ingest(*relation, tuple.clone())
                        .expect("ingest");
                }
                if i * TELEMETRY_CHUNK >= KERNEL_WARMUP {
                    elapsed[which] += started.elapsed().as_secs_f64();
                }
            }
        }
        let [untraced, traced] = &mut engines;
        assert_eq!(
            untraced.snapshot().total_results(),
            traced.snapshot().total_results(),
            "tracing changed the result count"
        );
        assert!(
            untraced.drain_trace().is_empty(),
            "disabled ring must record nothing"
        );
        let events = traced.drain_trace().len();
        assert!(events > 0, "enabled ring recorded nothing");
        trace_events = trace_events.max(events);
        pairs.push(elapsed.map(|secs| num_tuples as f64 / secs));
    }
    TelemetryOverheadRow {
        tuples: num_tuples,
        untraced_tps: median(pairs.iter().map(|[untraced, _]| *untraced).collect()),
        traced_tps: median(pairs.iter().map(|[_, traced]| *traced).collect()),
        throughput_ratio: median(pairs.iter().map(|[u, t]| t / u).collect()),
        trace_events,
    }
}

/// One ILP solve of a Fig. 7 workload's model at the default node limit.
#[derive(Debug, Clone, Copy)]
pub struct IlpRow {
    /// Queries in the workload (five or ten).
    pub queries: usize,
    /// Model variables.
    pub variables: usize,
    /// Branch-and-bound nodes explored (deterministic).
    pub nodes: u64,
    /// Constraint examinations of the solve's propagation (deterministic).
    pub examined: u64,
    /// Wall-clock solve time, best of [`BEST_OF`].
    pub solve_ms: f64,
    /// Objective of the returned assignment.
    pub objective: f64,
    /// Node that found the returned assignment (0: the greedy warm start).
    pub incumbent_node: u64,
    /// The root node's lower bound on the optimum.
    pub bound: f64,
}

impl IlpRow {
    /// Branch-and-bound nodes per second of the best run.
    pub fn nodes_per_sec(&self) -> f64 {
        if self.solve_ms > 0.0 {
            self.nodes as f64 / (self.solve_ms / 1000.0)
        } else {
            0.0
        }
    }

    /// Constraint examinations per branch-and-bound node.
    pub fn examined_per_node(&self) -> f64 {
        self.examined as f64 / self.nodes.max(1) as f64
    }
}

/// Solves the five- and ten-query models of the steady-state benchmark's
/// Fig. 7 workloads (5 s windows) with the default node limit and no time
/// limit, so every machine explores the same nodes; best of [`BEST_OF`].
pub fn run_ilp() -> Vec<IlpRow> {
    let workload = TpchWorkload::new(2, Window::secs(5)).expect("workload");
    let config = SolverConfig {
        time_limit: Duration::MAX,
        ..SolverConfig::default()
    };
    [workload.five_queries(), workload.ten_queries()]
        .into_iter()
        .map(|queries| {
            let queries = queries.expect("queries");
            let space = PlanSpaceConfig::default();
            let candidates =
                enumerate_candidates(&workload.catalog, &workload.stats, &queries, &space);
            let model = build_ilp(&candidates).model;
            let solutions: Vec<_> = (0..BEST_OF).map(|_| solve(&model, config)).collect();
            let solution = &solutions[0];
            assert!(
                solutions.iter().all(|s| s.nodes == solution.nodes
                    && s.examined == solution.examined
                    && s.objective.to_bits() == solution.objective.to_bits()),
                "repeated solves of one model must search identically"
            );
            IlpRow {
                queries: queries.len(),
                variables: model.num_vars(),
                nodes: solution.nodes,
                examined: solution.examined,
                solve_ms: solutions
                    .iter()
                    .map(|s| s.elapsed.as_secs_f64() * 1000.0)
                    .fold(f64::INFINITY, f64::min),
                objective: solution.objective,
                incumbent_node: solution.incumbent_node,
                bound: solution.bound,
            }
        })
        .collect()
}

/// Runs every section of the report.
pub fn run_hotpath(iters: usize, fig7_tuples: usize) -> HotpathReport {
    let store_n = (iters / 4).clamp(512, 200_000);
    let probes = (iters / 2).max(256);
    let micro = vec![
        bench_store_probe_cold(store_n, probes),
        bench_store_probe_skewed(store_n, probes),
    ];
    let allocs = bench_ingest_allocs((iters / 2).clamp(4_096, 200_000));
    let kernel = KernelReplay::plan();
    let kernel_allocs = kernel.allocs(KERNEL_WARMUP, KERNEL_TUPLES);
    let fig7 = run_fig7(5, fig7_tuples, 0.002, 42);
    let multi_source = run_multi_source(fig7_tuples.clamp(1_000, 100_000), &[1, 2, 4]);
    let reconfig_total = fig7_tuples.clamp(1_000, 100_000);
    let reconfig = run_reconfig(reconfig_total, &[reconfig_total / 4, reconfig_total / 16]);
    let telemetry = run_telemetry_overhead(&kernel, fig7_tuples.clamp(1_000, 100_000));
    let ilp = run_ilp();
    HotpathReport {
        iters,
        fig7_tuples,
        micro,
        allocs,
        kernel_allocs,
        fig7,
        multi_source,
        reconfig,
        telemetry,
        ilp,
    }
}

/// Renders the report as a JSON document. Hand-rolled because the
/// vendored serde stub cannot serialize; every string is a fixed
/// identifier, so no escaping is required.
pub fn report_to_json(report: &HotpathReport) -> String {
    let mut out = String::with_capacity(2_048);
    out.push_str("{\n");
    out.push_str("  \"bench\": \"hotpath\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"iters\": {}, \"fig7_tuples\": {}, \"best_of\": {}}},\n",
        report.iters, report.fig7_tuples, BEST_OF
    ));
    out.push_str("  \"micro\": [\n");
    for (i, row) in report.micro.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"hot_probes_per_sec\": {:.1}, \
             \"closed_probes_per_sec\": {:.1}, \"speedup\": {:.3}}}{}\n",
            row.name,
            row.hot_probes_per_sec,
            row.closed_probes_per_sec,
            row.speedup(),
            if i + 1 < report.micro.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"allocs\": {{\"tuples\": {}, \"allocs_per_tuple\": {:.3}, \
         \"kernel_allocs\": {{\"tuples\": {}, \"allocs_per_tuple\": {:.3}}}}},\n",
        report.allocs.tuples,
        report.allocs.allocs_per_tuple,
        report.kernel_allocs.tuples,
        report.kernel_allocs.allocs_per_tuple
    ));
    out.push_str("  \"fig7\": [\n");
    for (i, row) in report.fig7.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"num_queries\": {}, \"strategy\": \"{}\", \"throughput_tps\": {:.1}, \
             \"memory_mb\": {:.3}, \"latency_ms\": {:.3}, \"latency_p50_ms\": {:.3}, \
             \"latency_p99_ms\": {:.3}, \"results\": {}, \"tuples_sent\": {}}}{}\n",
            row.num_queries,
            row.strategy,
            row.throughput_tps,
            row.memory_mb,
            row.latency_ms,
            row.latency_p50_ms,
            row.latency_p99_ms,
            row.results,
            row.tuples_sent,
            if i + 1 < report.fig7.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"multi_source\": [\n");
    for (i, row) in report.multi_source.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"sources\": {}, \"producer_threads\": {}, \
             \"tuples\": {}, \"wall_tps\": {:.1}, \
             \"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}, \
             \"results\": {}, \"busy_balance\": {:.3}}}{}\n",
            row.mode,
            row.sources,
            row.producer_threads,
            row.tuples,
            row.wall_tps,
            row.latency_p50_ms,
            row.latency_p99_ms,
            row.results,
            row.busy_balance,
            if i + 1 < report.multi_source.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"reconfig\": [\n");
    for (i, row) in report.reconfig.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"installs_every\": {}, \"installs\": {}, \"tuples\": {}, \
             \"wall_tps\": {:.1}, \"results\": {}}}{}\n",
            row.installs_every,
            row.installs,
            row.tuples,
            row.wall_tps,
            row.results,
            if i + 1 < report.reconfig.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"telemetry\": {{\"tuples\": {}, \"untraced_tps\": {:.1}, \"traced_tps\": {:.1}, \
         \"throughput_ratio\": {:.3}, \"trace_events\": {}}},\n",
        report.telemetry.tuples,
        report.telemetry.untraced_tps,
        report.telemetry.traced_tps,
        report.telemetry.throughput_ratio,
        report.telemetry.trace_events
    ));
    out.push_str("  \"ilp\": [\n");
    for (i, row) in report.ilp.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"queries\": {}, \"variables\": {}, \"solve_ms\": {:.1}, \"nodes\": {}, \
             \"nodes_per_sec\": {:.1}, \"examined\": {}, \"examined_per_node\": {:.3}, \
             \"objective\": {:.3}, \"incumbent_node\": {}, \"bound\": {:.3}}}{}\n",
            row.queries,
            row.variables,
            row.solve_ms,
            row.nodes,
            row.nodes_per_sec(),
            row.examined,
            row.examined_per_node(),
            row.objective,
            row.incumbent_node,
            row.bound,
            if i + 1 < report.ilp.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_run_and_report_positive_rates() {
        // Tiny iteration counts: this validates plumbing and the
        // correctness cross-checks inside each suite, not timings.
        for row in [
            bench_store_probe_cold(512, 256),
            bench_store_probe_skewed(512, 256),
        ] {
            assert!(
                row.hot_probes_per_sec > 0.0 && row.closed_probes_per_sec > 0.0,
                "{} produced a non-positive rate",
                row.name
            );
        }
    }

    #[test]
    fn multi_source_rows_agree_with_coordinator_baseline() {
        // Small stream: validates the exactness assertion inside the
        // scenario plus the row plumbing, not timings.
        let rows = run_multi_source(1_200, &[1, 2]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].mode, "coordinator");
        assert_eq!(rows[0].producer_threads, 0);
        assert!(rows[0].results > 0, "workload must produce results");
        let cap = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for row in &rows {
            assert_eq!(row.results, rows[0].results, "{} sources", row.sources);
            assert!(row.wall_tps > 0.0);
            assert!(row.busy_balance > 0.0 && row.busy_balance <= 1.0);
            if row.mode == "sources" {
                assert!(row.producer_threads >= 1);
                assert!(
                    row.producer_threads <= cap && row.producer_threads <= row.sources,
                    "{} threads for {} sources (cap {cap})",
                    row.producer_threads,
                    row.sources
                );
            }
        }
    }

    #[test]
    fn ingest_allocation_scenario_shows_arena_savings() {
        // Without the arena every tuple pays at least its value buffer and
        // its leaf node; with it, the buffer is recycled from expiry.
        let row = bench_ingest_allocs(8_192);
        assert!(row.allocs_per_tuple > 0.0);
        assert!(
            row.allocs_per_tuple < 1.5,
            "arena path allocates {} per tuple",
            row.allocs_per_tuple
        );
    }

    #[test]
    fn kernel_allocation_count_repeats_exactly() {
        // The CI ceiling is only meaningful if the count is deterministic.
        // A shorter replay than the report's keeps the debug-build test
        // cheap: past the 5 s window, expiring and closing epochs, with
        // one expiry sweep (every 1 024 tuples) inside the counted span.
        let replay = KernelReplay::plan();
        let first = replay.allocs(6_000, 1_024);
        assert!(first.allocs_per_tuple > 0.0);
        assert_eq!(
            first.allocs_per_tuple,
            replay.allocs(6_000, 1_024).allocs_per_tuple
        );
    }

    #[test]
    fn a_hit_heavy_probe_builds_its_results_in_one_join_node() {
        // R(a) ⋈ S(a) with 256 stored S tuples on the probed key: one R
        // tuple's evaluation emits 256 results. Read and released, they
        // share one join node; a sink that keeps each one keeps its node,
        // so each of them then takes a fresh one.
        const HITS: usize = 256;
        let mut catalog = Catalog::new();
        catalog
            .register("R", ["a"], Window::secs(3_600), 1)
            .unwrap();
        catalog
            .register("S", ["a"], Window::secs(3_600), 1)
            .unwrap();
        let query = parse_query(&catalog, QueryId::new(0), "rs", "R(a), S(a)").unwrap();
        let plan = planned(&catalog, &[query], Strategy::Shared);
        let tuple = |relation: &str, ts: u64| {
            let meta = catalog.relation_by_name(relation).unwrap();
            let schema = &meta.schema;
            TupleBuilder::new(schema, Timestamp::from_millis(ts))
                .set("a", 7i64)
                .build()
        };
        let (r, s) = (
            catalog.relation_id("R").unwrap(),
            catalog.relation_id("S").unwrap(),
        );
        let kept = std::sync::Arc::new(std::sync::Mutex::new(Vec::with_capacity(4 * HITS)));
        for keep in [false, true] {
            let mut engine =
                LocalEngine::new(catalog.clone(), plan.clone(), EngineConfig::default());
            if keep {
                let kept = std::sync::Arc::clone(&kept);
                engine.set_sink(Box::new(move |_, t| kept.lock().unwrap().push(t.clone())));
            }
            for ts in 0..HITS as u64 {
                engine.ingest(s, tuple("S", ts)).unwrap();
            }
            // The first probe sizes the maps a probe touches.
            assert_eq!(engine.ingest(r, tuple("R", 1_000)).unwrap(), HITS as u64);
            let probe = tuple("R", 1_001);
            let span = AllocSpan::start();
            assert_eq!(engine.ingest(r, probe).unwrap(), HITS as u64);
            let allocs = span.elapsed();
            if keep {
                assert!(
                    allocs >= HITS as u64,
                    "{allocs} allocations for kept results"
                );
            } else {
                assert!(
                    allocs <= 2,
                    "{allocs} allocations for {HITS} released results"
                );
            }
        }
    }

    #[test]
    fn reconfig_rows_lose_no_results() {
        // Small stream: validates the lossless-install assertion inside
        // the scenario plus the row plumbing, not timings.
        let rows = run_reconfig(1_200, &[200]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].installs_every, 0);
        assert_eq!(rows[0].installs, 0);
        assert_eq!(
            rows[1].installs, 5,
            "one install at each of 200, 400, ..., 1000"
        );
        assert!(rows[0].results > 0, "workload must produce results");
        for row in &rows {
            assert_eq!(
                row.results, rows[0].results,
                "cadence {}",
                row.installs_every
            );
            assert!(row.wall_tps > 0.0);
        }
    }

    #[test]
    fn telemetry_overhead_row_is_consistent() {
        // Small stream: validates the identical-results assertion inside
        // the scenario plus the row plumbing, not timings.
        let row = run_telemetry_overhead(&KernelReplay::plan(), 1_500);
        assert_eq!(row.tuples, 1_500);
        assert!(row.untraced_tps > 0.0 && row.traced_tps > 0.0);
        assert!(row.throughput_ratio > 0.0);
        assert!(row.trace_events > 0, "traced run must record events");
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = HotpathReport {
            iters: 10,
            fig7_tuples: 0,
            micro: vec![ClosedProbeRow {
                name: "store_probe_cold",
                hot_probes_per_sec: 1.0,
                closed_probes_per_sec: 2.0,
            }],
            allocs: AllocsRow {
                tuples: 100,
                allocs_per_tuple: 1.25,
            },
            kernel_allocs: AllocsRow {
                tuples: 50,
                allocs_per_tuple: 47.5,
            },
            fig7: Vec::new(),
            multi_source: vec![MultiSourceRow {
                mode: "sources",
                sources: 2,
                producer_threads: 1,
                tuples: 100,
                wall_tps: 10.0,
                latency_p50_ms: 0.2,
                latency_p99_ms: 0.9,
                results: 5,
                busy_balance: 0.5,
            }],
            reconfig: vec![ReconfigRow {
                installs_every: 64,
                installs: 1,
                tuples: 100,
                wall_tps: 10.0,
                results: 5,
            }],
            telemetry: TelemetryOverheadRow {
                tuples: 100,
                untraced_tps: 100.0,
                traced_tps: 99.0,
                throughput_ratio: 0.99,
                trace_events: 42,
            },
            ilp: vec![IlpRow {
                queries: 10,
                variables: 1_827,
                nodes: 200_000,
                examined: 720_000,
                solve_ms: 800.0,
                objective: 27_041.5,
                incumbent_node: 0,
                bound: 8_904.25,
            }],
        };
        let json = report_to_json(&report);
        assert!(json.contains("\"speedup\": 2.000"));
        assert!(json.contains("\"allocs\""));
        assert!(json.contains("\"allocs_per_tuple\": 1.250"));
        assert!(json.contains("\"kernel_allocs\": {\"tuples\": 50, \"allocs_per_tuple\": 47.500}"));
        assert!(json.contains("\"closed_probes_per_sec\": 2.0"));
        assert!(json.contains("\"producer_threads\": 1"));
        assert!(json.contains("\"multi_source\""));
        assert!(json.contains("\"busy_balance\": 0.500"));
        assert!(json.contains("\"reconfig\""));
        assert!(json.contains("\"installs_every\": 64, \"installs\": 1, \"tuples\": 100"));
        assert!(json.contains("\"latency_p50_ms\": 0.200"));
        assert!(json.contains("\"latency_p99_ms\": 0.900"));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"throughput_ratio\": 0.990"));
        assert!(json.contains("\"trace_events\": 42"));
        assert!(json.contains("\"nodes\": 200000, \"nodes_per_sec\": 250000.0"));
        assert!(json.contains("\"examined\": 720000, \"examined_per_node\": 3.600"));
        assert!(json.contains("\"incumbent_node\": 0, \"bound\": 8904.250}"));
        // Balanced braces/brackets (no JSON parser in the offline build).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
