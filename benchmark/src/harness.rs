//! Inputs, deployment, the closed and open loops, and result accounting.
//!
//! Every layer is driven from outside through its public functions; the
//! only thing the program under test receives is the generated stream.

use crate::spans::Recorder;
use crate::stats::LogHistogram;
use crate::workloads::{EngineKind, Workload};
use clash_catalog::Catalog;
use clash_common::{RelationId, Result, Tuple, Window};
use clash_datagen::{TpchGenerator, TpchWorkload};
use clash_optimizer::{PlannerConfig, TopologyPlan};
use clash_query::JoinQuery;
use clash_runtime::{EngineConfig, LocalEngine, MetricsSnapshot, ParallelEngine, SourceHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Store partitions per relation in every workload's catalog.
pub const PARALLELISM: usize = 2;

/// Expiry cadence in input tuples: `EngineConfig::default().expire_every`.
/// Where the benchmark drives the sweeps itself it uses the same cadence.
pub const EXPIRE_EVERY: u64 = 1024;

/// A missing result counts as a latency sample of this many nanoseconds
/// (10 s): a failed request misses any limit.
pub const LATENCY_CAP_NS: u64 = 10_000_000_000;

/// The traced pass cuts its open loop's measured tuples into this many
/// equal consecutive windows, each with a latency histogram of its own; the
/// `openloop.*` layer metrics are medians (or the smallest) over them.
pub const LATENCY_WINDOWS: usize = 24;

/// Per-query result counts, sorted by query id.
pub type Counts = Vec<(u32, u64)>;

/// The planner configuration of every workload: the defaults, except that
/// the ILP is bounded by its node limit alone. With the default 10 s time
/// limit a slower machine would stop the ten-query solve early and run a
/// different plan.
pub fn planner_config() -> PlannerConfig {
    let mut config = PlannerConfig::default();
    config.solver.time_limit = Duration::from_secs(600);
    config
}

/// Catalog, statistics and queries of a workload.
pub fn catalog_and_queries(spec: &Workload) -> (TpchWorkload, Vec<JoinQuery>) {
    let tpch = TpchWorkload::new(PARALLELISM, Window::secs(spec.window_secs))
        .expect("TPC-H catalog registers");
    let queries = if spec.ten_queries {
        tpch.ten_queries()
    } else {
        tpch.five_queries()
    }
    .expect("TPC-H queries build");
    (tpch, queries)
}

/// Everything generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Catalog and statistics prior.
    pub tpch: TpchWorkload,
    /// The workload's queries.
    pub queries: Vec<JoinQuery>,
    /// Warm-up tuples followed by the measured tuples, 1 ms of stream time
    /// apart (`ts` = position + 1).
    pub stream: Vec<(RelationId, Tuple)>,
    /// Length of the warm-up prefix.
    pub warmup: usize,
    /// Seconds spent generating the stream.
    pub gen_secs: f64,
}

impl Inputs {
    /// Generates a workload's inputs: same seed, same inputs.
    pub fn generate(spec: &Workload, seed: u64, measured: usize) -> Inputs {
        let (tpch, queries) = catalog_and_queries(spec);
        let started = Instant::now();
        let stream = TpchGenerator::new(spec.scale, seed)
            .mixed_stream(&tpch, spec.warmup + measured)
            .expect("stream generates");
        Inputs {
            tpch,
            queries,
            stream,
            warmup: spec.warmup,
            gen_secs: started.elapsed().as_secs_f64(),
        }
    }

    /// The measured part of the stream.
    pub fn measured(&self) -> &[(RelationId, Tuple)] {
        &self.stream[self.warmup..]
    }
}

/// Results per query from a snapshot, sorted by query id.
pub fn counts_of(snapshot: &MetricsSnapshot) -> Counts {
    let mut counts: Counts = snapshot.results.iter().map(|(q, n)| (*q, *n)).collect();
    counts.sort_unstable();
    counts
}

/// Results summed over the queries.
pub fn total(counts: &Counts) -> u64 {
    counts.iter().map(|(_, n)| n).sum()
}

/// Result-level failure accounting against the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Results the reference produced.
    pub attempted: u64,
    /// Reference results the run did not produce.
    pub missing: u64,
    /// Results the run produced beyond the reference.
    pub spurious: u64,
}

impl Accounting {
    /// Compares per-query counts; a query absent on one side counts 0.
    pub fn compare(reference: &Counts, got: &Counts) -> Accounting {
        let lookup = |counts: &Counts, q: u32| {
            counts
                .iter()
                .find(|(id, _)| *id == q)
                .map_or(0, |(_, n)| *n)
        };
        let mut queries: Vec<u32> = reference.iter().chain(got).map(|(q, _)| *q).collect();
        queries.sort_unstable();
        queries.dedup();
        let mut acc = Accounting {
            attempted: reference.iter().map(|(_, n)| n).sum(),
            missing: 0,
            spurious: 0,
        };
        for q in queries {
            let (want, have) = (lookup(reference, q), lookup(got, q));
            acc.missing += want.saturating_sub(have);
            acc.spurious += have.saturating_sub(want);
        }
        acc
    }

    /// Wrong results, never more than were attempted.
    pub fn failed(&self) -> u64 {
        (self.missing + self.spurious).min(self.attempted)
    }

    /// `max(0, 1 - failed / attempted)`; 1 when nothing was attempted.
    pub fn exactness(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        1.0 - self.failed() as f64 / self.attempted as f64
    }
}

enum Engine {
    Local(Box<LocalEngine>),
    Parallel {
        // Declared before the engine so it is dropped (and its buffer
        // shipped) while the workers are still running.
        source: SourceHandle,
        engine: Box<ParallelEngine>,
    },
}

/// An engine running a plan, behind the few calls the loops need.
pub struct Deployed {
    engine: Engine,
    /// The benchmark calls `expire_stores()` every [`EXPIRE_EVERY`] pushes
    /// itself: always on `ParallelEngine` (a source-fed engine never
    /// sweeps on its own), and on `LocalEngine` in the traced pass so the
    /// sweep is timed apart from `ingest`.
    drive_expiry: bool,
    pushed: u64,
}

impl Deployed {
    /// Constructs the engine: workers spawned, source opened.
    pub fn new(
        catalog: &Catalog,
        plan: TopologyPlan,
        kind: EngineKind,
        drive_expiry: bool,
    ) -> Self {
        let config = EngineConfig::default();
        match kind {
            EngineKind::Local => Deployed {
                engine: Engine::Local(Box::new(LocalEngine::new(
                    catalog.clone(),
                    plan,
                    EngineConfig {
                        expire_every: if drive_expiry { 0 } else { config.expire_every },
                        ..config
                    },
                ))),
                drive_expiry,
                pushed: 0,
            },
            EngineKind::Parallel(workers) => {
                let mut engine =
                    Box::new(ParallelEngine::new(catalog.clone(), plan, config, workers));
                let source = engine.open_source();
                Deployed {
                    engine: Engine::Parallel { source, engine },
                    drive_expiry: true,
                    pushed: 0,
                }
            }
        }
    }

    /// Pushes between two points at which everything pushed so far has been
    /// processed: `LocalEngine` works inside `ingest`, so any count will do;
    /// on `ParallelEngine` only the expiry barrier is such a point. The
    /// closed loop is timed in chunks of this many pushes.
    pub fn sync_every(&self) -> u64 {
        match self.engine {
            Engine::Local(_) => EXPIRE_EVERY / 4,
            Engine::Parallel { .. } => EXPIRE_EVERY,
        }
    }

    /// Name of the per-tuple span: the call a tuple enters the engine by.
    pub fn push_span(&self) -> &'static str {
        match self.engine {
            Engine::Local(_) => "engine.ingest",
            Engine::Parallel { .. } => "ingest.push",
        }
    }

    /// Offers one tuple; then runs the expiry sweep if the benchmark
    /// drives it and one is due.
    pub fn push(&mut self, relation: RelationId, tuple: Tuple, rec: &mut Recorder) -> Result<()> {
        let span = rec.begin(self.push_span(), self.pushed + 1);
        let outcome = match &mut self.engine {
            Engine::Local(engine) => engine.ingest(relation, tuple).map(drop),
            Engine::Parallel { source, .. } => source.push(relation, tuple).map(drop),
        };
        rec.end(span);
        self.pushed += 1;
        if self.drive_expiry && self.pushed.is_multiple_of(EXPIRE_EVERY) {
            let span = rec.begin("engine.expire", 0);
            self.expire_stores();
            rec.end(span);
        }
        outcome
    }

    /// Pushes `tuples` as fast as the engine accepts them; returns the
    /// number of pushes that failed.
    pub fn push_all(&mut self, tuples: &[(RelationId, Tuple)], rec: &mut Recorder) -> u64 {
        let mut errors = 0;
        for (relation, tuple) in tuples {
            errors += u64::from(self.push(*relation, tuple.clone(), rec).is_err());
        }
        errors
    }

    /// Waits until everything pushed so far is processed.
    pub fn drain(&mut self) {
        if let Engine::Parallel { source, engine } = &mut self.engine {
            source.flush();
            engine.flush();
        }
    }

    /// Freezes cold epochs and drops out-of-window state.
    pub fn expire_stores(&mut self) -> usize {
        match &mut self.engine {
            Engine::Local(engine) => engine.expire_stores(),
            Engine::Parallel { engine, .. } => engine.expire_stores(),
        }
    }

    /// Zeroes the engine's counters, keeping its state.
    pub fn reset_metrics(&mut self) {
        match &mut self.engine {
            Engine::Local(engine) => engine.reset_metrics(),
            Engine::Parallel { engine, .. } => engine.reset_metrics(),
        }
    }

    /// The engine's counters (a barrier on `ParallelEngine`).
    pub fn snapshot(&mut self) -> MetricsSnapshot {
        match &mut self.engine {
            Engine::Local(engine) => engine.snapshot(),
            Engine::Parallel { engine, .. } => engine.snapshot(),
        }
    }

    /// The engine's exposition page.
    pub fn telemetry(&mut self) -> String {
        match &mut self.engine {
            Engine::Local(engine) => engine.telemetry_snapshot(),
            Engine::Parallel { engine, .. } => engine.telemetry_snapshot(),
        }
    }

    /// Seconds each worker was busy; the engine's own busy time on
    /// `LocalEngine`, which is its only worker.
    pub fn worker_busy(&mut self) -> Vec<f64> {
        match &mut self.engine {
            Engine::Local(engine) => vec![engine.snapshot().busy_secs],
            Engine::Parallel { engine, .. } => engine
                .worker_busy()
                .iter()
                .map(Duration::as_secs_f64)
                .collect(),
        }
    }

    /// Bytes held by all stores (as of the last barrier on
    /// `ParallelEngine`).
    pub fn store_bytes(&self) -> usize {
        match &self.engine {
            Engine::Local(engine) => engine.store_bytes(),
            Engine::Parallel { engine, .. } => engine.store_bytes(),
        }
    }

    /// Roots pushed but not yet fully processed (0 on `LocalEngine`).
    pub fn inflight(&self) -> u64 {
        match &self.engine {
            Engine::Local(_) => 0,
            Engine::Parallel { engine, .. } => engine.inflight(),
        }
    }

    /// Routes every result emitted from now on to `on_result`:
    /// `LocalEngine` calls it from inside `ingest`; for `ParallelEngine`
    /// the returned receiver must be drained by the caller.
    fn deliver_results(
        &mut self,
        on_result: impl Fn(&Tuple) + Send + 'static,
    ) -> Option<Receiver<(clash_common::QueryId, Tuple)>> {
        match &mut self.engine {
            Engine::Local(engine) => {
                engine.set_sink(Box::new(move |_, tuple| on_result(tuple)));
                None
            }
            Engine::Parallel { engine, .. } => Some(engine.subscribe()),
        }
    }
}

/// Results per query of `measured` when the stream enters `ParallelEngine`
/// through the coordinator's `ingest()`, whose periodic expiry is a
/// fire-and-forget message to the workers instead of a barrier (README.md,
/// finding 3). `warmup` is pushed first and not counted.
pub fn ingest_path_counts(
    catalog: &Catalog,
    plan: &TopologyPlan,
    workers: usize,
    warmup: &[(RelationId, Tuple)],
    measured: &[(RelationId, Tuple)],
) -> Result<Counts> {
    let mut engine = ParallelEngine::new(
        catalog.clone(),
        plan.clone(),
        EngineConfig::default(),
        workers,
    );
    for (relation, tuple) in warmup {
        engine.ingest(*relation, tuple.clone())?;
    }
    engine.reset_metrics();
    for (relation, tuple) in measured {
        engine.ingest(*relation, tuple.clone())?;
    }
    Ok(counts_of(&engine.snapshot()))
}

/// Outcome of one closed-loop repetition.
#[derive(Debug)]
pub struct ClosedLoop {
    /// First measured push to drain end.
    pub wall_s: f64,
    /// The same time cut into consecutive chunks that end at the same
    /// tuples in every repetition (every [`Deployed::sync_every`]-th push
    /// since construction, so a chunk ends with the sweep it contains); the
    /// last one ends with the drain. Nanoseconds; they sum to `wall_s`.
    pub chunk_ns: Vec<u64>,
    /// Seconds spent on the warm-up prefix.
    pub warmup_s: f64,
    /// Seconds of the final drain (`flush()`; 0 on `LocalEngine`).
    pub flush_s: f64,
    /// Seconds the metrics snapshot took (a barrier on `ParallelEngine`).
    pub snapshot_s: f64,
    /// Pushes that returned an error.
    pub push_errors: u64,
    /// The engine's counters over the measured tuples.
    pub snapshot: MetricsSnapshot,
    /// Mean of `store_bytes` read right after every expiry sweep of the
    /// measured tuples: the steady-state footprint.
    pub state_bytes_mean: f64,
    /// `store_bytes` after the final expiry sweep.
    pub state_bytes: usize,
    /// `store_tuples` after the final expiry sweep.
    pub state_tuples: usize,
    /// Exposition page after the final expiry sweep.
    pub telemetry: String,
    /// Busy seconds per worker over the measured tuples.
    pub worker_busy: Vec<f64>,
    /// `inflight()` sampled every 256 pushes: `(mean, max)`.
    pub inflight: (f64, u64),
    /// Allocations during the measured tuples (traced pass only).
    pub allocations: u64,
}

/// One closed-loop repetition on a fresh engine: warm-up, then the
/// measured tuples pushed as fast as the engine accepts them by one
/// generator thread, then the drain. With an enabled recorder this is the
/// traced pass: per-tuple spans, benchmark-driven expiry, allocations
/// counted.
pub fn closed_loop(
    inputs: &Inputs,
    plan: &TopologyPlan,
    kind: EngineKind,
    rec: &mut Recorder,
) -> ClosedLoop {
    let traced = rec.enabled();
    let mut engine = Deployed::new(&inputs.tpch.catalog, plan.clone(), kind, traced);

    let warmup = rec.begin("warmup", 0);
    let started = Instant::now();
    let mut untraced = Recorder::new(false, 0);
    let mut push_errors = engine.push_all(&inputs.stream[..inputs.warmup], &mut untraced);
    engine.drain();
    engine.reset_metrics();
    let warmup_s = started.elapsed().as_secs_f64();
    rec.end(warmup);

    let sync_every = engine.sync_every();
    let mut chunk_ns = Vec::with_capacity(inputs.measured().len() / sync_every as usize + 2);
    if traced {
        crate::alloc::start_counting();
    }
    let measure = rec.begin("measure", 0);
    let started = Instant::now();
    let (mut inflight_sum, mut inflight_max, mut inflight_samples) = (0u64, 0u64, 0u64);
    let (mut state_sum, mut state_samples) = (0usize, 0usize);
    let mut chunk_started = 0u64;
    for (i, (relation, tuple)) in inputs.measured().iter().enumerate() {
        push_errors += u64::from(engine.push(*relation, tuple.clone(), rec).is_err());
        if ((inputs.warmup + i + 1) as u64).is_multiple_of(sync_every) {
            let now = started.elapsed().as_nanos() as u64;
            chunk_ns.push(now - chunk_started);
            chunk_started = now;
        }
        // The engine (or `push`, where the benchmark drives expiry) has
        // just swept: every `EXPIRE_EVERY`-th tuple since construction.
        if ((inputs.warmup + i + 1) as u64).is_multiple_of(EXPIRE_EVERY) {
            state_sum += engine.store_bytes();
            state_samples += 1;
        }
        if i % 256 == 255 {
            let inflight = engine.inflight();
            inflight_sum += inflight;
            inflight_max = inflight_max.max(inflight);
            inflight_samples += 1;
        }
    }
    rec.end(measure);
    let flush_started = Instant::now();
    let flush = rec.begin("parallel.flush", 0);
    engine.drain();
    rec.end(flush);
    let flush_s = flush_started.elapsed().as_secs_f64();
    let wall_ns = started.elapsed().as_nanos() as u64;
    chunk_ns.push(wall_ns - chunk_started);
    let allocations = if traced {
        crate::alloc::stop_counting()
    } else {
        0
    };

    let snapshot_started = Instant::now();
    let snapshot = engine.snapshot();
    let snapshot_s = snapshot_started.elapsed().as_secs_f64();
    let worker_busy = engine.worker_busy();
    engine.expire_stores();
    let after = engine.snapshot();
    ClosedLoop {
        wall_s: wall_ns as f64 / 1e9,
        chunk_ns,
        warmup_s,
        flush_s,
        snapshot_s,
        push_errors,
        snapshot,
        state_bytes_mean: state_sum as f64 / state_samples.max(1) as f64,
        state_bytes: after.store_bytes,
        state_tuples: after.store_tuples,
        telemetry: engine.telemetry(),
        worker_busy,
        inflight: (
            inflight_sum as f64 / inflight_samples.max(1) as f64,
            inflight_max,
        ),
        allocations,
    }
}

/// Nanoseconds the closed loop takes when every chunk takes what it took in
/// the repetition that ran it fastest. The repetitions push the same tuples
/// and their chunks end at the same tuples, so chunk `i` is the same work
/// in each; a pause or slow spell of the sandbox lengthens the chunks of
/// one repetition that ran just then, and what the program itself spends
/// is in every repetition's chunk.
pub fn fastest_chunks_ns(repetitions: &[&[u64]]) -> u64 {
    let chunks = repetitions.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..chunks)
        .map(|i| repetitions.iter().map(|r| r[i]).min().unwrap_or(0))
        .sum()
}

/// What the benchmark's sink received of the results of one measured
/// tuple (the newest input tuple of each of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Delivery {
    /// Results received.
    pub results: u64,
    /// Sum of their latencies in ns: each from the tuple's due time to the
    /// result's arrival at the sink.
    pub latency_sum_ns: u64,
}

impl Delivery {
    /// Mean latency of the tuple's results in ns; 0 without results.
    pub fn mean_ns(&self) -> u64 {
        self.latency_sum_ns.checked_div(self.results).unwrap_or(0)
    }
}

/// Per measured tuple, its delivery in the round that delivered its results
/// soonest (smallest mean latency among the rounds that delivered any).
///
/// The rounds replay the same tuples on the same schedule. Whatever the
/// sandbox does to the process — descheduling it for 20 ms, running it at
/// two thirds of its speed for some seconds — only ever adds latency, and
/// only to the tuples of one round that were due just then; a delay the
/// program causes (a long probe chain, the sweep every 1024 tuples) comes
/// back at the same tuples in every round, and stays.
pub fn soonest_deliveries(rounds: &[&[Delivery]]) -> Vec<Delivery> {
    let tuples = rounds.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..tuples)
        .map(|i| {
            rounds
                .iter()
                .map(|round| round[i])
                .filter(|d| d.results > 0)
                .min_by_key(Delivery::mean_ns)
                .unwrap_or_default()
        })
        .collect()
}

/// The latency population of `deliveries`: one sample per result, at the
/// mean latency of its input tuple's results, and `missing` samples at the
/// cap.
pub fn latency_histogram(deliveries: &[Delivery], missing: u64) -> LogHistogram {
    let histogram = LogHistogram::new();
    for delivery in deliveries {
        histogram.record_n(delivery.mean_ns(), delivery.results);
    }
    histogram.record_n(LATENCY_CAP_NS, missing);
    histogram
}

/// Outcome of one open-loop round.
#[derive(Debug)]
pub struct OpenLoop {
    /// What the sink received, per measured tuple.
    pub deliveries: Vec<Delivery>,
    /// How late each tuple was sent, in ns.
    pub late: LogHistogram,
    /// Mean lateness over the first tenth of the tuples, in ns.
    pub late_first_tenth_ns: f64,
    /// Mean lateness over the last tenth of the tuples, in ns.
    pub late_last_tenth_ns: f64,
    /// Rate achieved up to the last send, as a share of the offered rate.
    pub rate_ratio: f64,
    /// Pushes that returned an error.
    pub push_errors: u64,
    /// Results per query over the measured tuples.
    pub counts: Counts,
    /// The engine's own latency histogram, p50 and p99 in µs.
    pub self_latency_us: (f64, f64),
}

impl OpenLoop {
    /// Reference results that never arrived: each is a latency sample at
    /// the cap.
    pub fn missing(&self, reference: &Counts) -> u64 {
        Accounting::compare(reference, &self.counts).missing
    }

    /// The latency population cut into [`LATENCY_WINDOWS`] histograms of
    /// consecutive tuples, the missing results spread evenly over them.
    pub fn windows(&self, missing: u64) -> Vec<LogHistogram> {
        let per_window = self.deliveries.len().div_ceil(LATENCY_WINDOWS).max(1);
        let mut windows: Vec<LogHistogram> = self
            .deliveries
            .chunks(per_window)
            .map(|chunk| latency_histogram(chunk, 0))
            .collect();
        windows.resize_with(LATENCY_WINDOWS, LogHistogram::new);
        for (i, window) in windows.iter().enumerate() {
            let share = missing / LATENCY_WINDOWS as u64
                + u64::from((i as u64) < missing % LATENCY_WINDOWS as u64);
            window.record_n(LATENCY_CAP_NS, share);
        }
        windows
    }
}

/// Sleeps or spins until `due_ns` after `start`, calling `idle` while
/// there is time; returns the nanoseconds since `start` on return.
pub fn wait_until(start: Instant, due_ns: u64, mut idle: impl FnMut()) -> u64 {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return now;
        }
        idle();
        let remaining = due_ns.saturating_sub(start.elapsed().as_nanos() as u64);
        if remaining > 150_000 {
            std::thread::sleep(Duration::from_nanos(remaining - 100_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Tuple `i` of an open loop at `rate` tuples per second is due this many
/// nanoseconds after the start.
pub fn due_ns(i: u64, rate: u64) -> u64 {
    (u128::from(i) * 1_000_000_000 / u128::from(rate)) as u64
}

/// One open-loop round on a fresh engine: the measured tuples are sent on a fixed schedule of
/// `rate` tuples per second whatever the engine does. A tuple that cannot
/// be sent when due (the previous push or an expiry sweep is still
/// running) is sent as soon as possible, and the latency of its results is
/// still counted from when it was due.
pub fn open_loop(inputs: &Inputs, plan: &TopologyPlan, kind: EngineKind, rate: u64) -> OpenLoop {
    let mut engine = Deployed::new(&inputs.tpch.catalog, plan.clone(), kind, false);
    let mut rec = Recorder::new(false, 0);
    let mut push_errors = engine.push_all(&inputs.stream[..inputs.warmup], &mut rec);
    engine.drain();
    engine.reset_metrics();

    let measured = inputs.measured();
    let first_ts = measured.first().map_or(0, |(_, t)| t.ts.as_millis());
    // Per measured tuple: results received, and the sum of their latencies.
    let cells: Arc<[(AtomicU64, AtomicU64)]> = (0..measured.len())
        .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
        .collect();
    let start = Instant::now();
    let record = {
        let cells = Arc::clone(&cells);
        move |result: &Tuple| {
            let position = result.ts.as_millis().saturating_sub(first_ts);
            let now = start.elapsed().as_nanos() as u64;
            if let Some((results, latency_sum)) = cells.get(position as usize) {
                results.fetch_add(1, Ordering::Relaxed);
                latency_sum.fetch_add(
                    now.saturating_sub(due_ns(position, rate)),
                    Ordering::Relaxed,
                );
            }
        }
    };
    let results = engine.deliver_results(record.clone());
    let drain_results = || {
        if let Some(results) = &results {
            while let Ok((_, tuple)) = results.try_recv() {
                record(&tuple);
            }
        }
    };

    let late = LogHistogram::new();
    let tenth = (measured.len() / 10).max(1);
    let (mut late_first, mut late_last) = (0u64, 0u64);
    let mut last_send_ns = 0;
    for (i, (relation, tuple)) in measured.iter().enumerate() {
        let due = due_ns(i as u64, rate);
        let now = wait_until(start, due, drain_results);
        let lateness = now - due;
        late.record(lateness);
        if i < tenth {
            late_first += lateness;
        }
        if i >= measured.len() - tenth {
            late_last += lateness;
        }
        last_send_ns = now;
        push_errors += u64::from(engine.push(*relation, tuple.clone(), &mut rec).is_err());
        drain_results();
    }
    // Results still on their way are timed as they arrive, not after the
    // final barrier.
    if let Engine::Parallel { source, .. } = &mut engine.engine {
        source.flush();
    }
    while engine.inflight() > 0 {
        drain_results();
        std::thread::yield_now();
    }
    engine.drain();
    drain_results();

    let snapshot = engine.snapshot();
    let sends = measured.len().saturating_sub(1) as f64;
    OpenLoop {
        deliveries: cells
            .iter()
            .map(|(results, latency_sum)| Delivery {
                results: results.load(Ordering::Relaxed),
                latency_sum_ns: latency_sum.load(Ordering::Relaxed),
            })
            .collect(),
        late,
        late_first_tenth_ns: late_first as f64 / tenth as f64,
        late_last_tenth_ns: late_last as f64 / tenth as f64,
        rate_ratio: if last_send_ns == 0 {
            1.0
        } else {
            sends / (last_send_ns as f64 / 1e9) / rate as f64
        },
        push_errors,
        counts: counts_of(&snapshot),
        self_latency_us: (snapshot.latency.p50_us, snapshot.latency.p99_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_detects_a_perturbed_count() {
        let reference: Counts = vec![(2, 100), (3, 50), (4, 1_000)];
        let exact = Accounting::compare(&reference, &reference.clone());
        assert_eq!((exact.failed(), exact.exactness()), (0, 1.0));

        // One query over-produces, one loses results, one disappears.
        let got: Counts = vec![(2, 130), (3, 40)];
        let acc = Accounting::compare(&reference, &got);
        assert_eq!(acc.attempted, 1_150);
        assert_eq!(acc.spurious, 30);
        assert_eq!(acc.missing, 10 + 1_000);
        assert_eq!(acc.failed(), 1_040);
        assert!(acc.exactness() < 1.0 && acc.exactness() > 0.0);

        // Results for a query the reference never answers are spurious,
        // and failures never exceed what was attempted.
        let acc = Accounting::compare(&vec![(1, 10)], &vec![(1, 10), (9, 500)]);
        assert_eq!(
            (acc.spurious, acc.failed(), acc.exactness()),
            (500, 10, 0.0)
        );
    }

    #[test]
    fn fastest_chunks_drop_a_pause_that_hit_one_repetition() {
        // The second repetition was paused during chunk 1, the first was
        // slow throughout chunk 2: neither shows, the program's own slow
        // chunk 0 does.
        let a = [900, 100, 250];
        let b = [905, 4_000, 120];
        assert_eq!(fastest_chunks_ns(&[&a, &b]), 900 + 100 + 120);
        assert_eq!(fastest_chunks_ns(&[&a]), 1_250);
        assert_eq!(fastest_chunks_ns(&[]), 0);
    }

    #[test]
    fn soonest_deliveries_keep_what_every_round_shows() {
        let d = |results, latency_sum_ns| Delivery {
            results,
            latency_sum_ns,
        };
        // Tuple 0: the sandbox delayed round 1. Tuple 1: slow in both (the
        // program). Tuple 2: no results. Tuple 3: round 0 lost its results.
        let round0 = [d(2, 200), d(4, 40_000), d(0, 0), d(0, 0)];
        let round1 = [d(2, 9_000), d(4, 40_400), d(0, 0), d(3, 600)];
        let best = soonest_deliveries(&[&round0, &round1]);
        assert_eq!(best, [d(2, 200), d(4, 40_000), d(0, 0), d(3, 600)]);

        // One sample per result at its tuple's mean; missing at the cap.
        let histogram = latency_histogram(&best, 1);
        assert_eq!(histogram.count(), 2 + 4 + 3 + 1);
        assert_eq!(histogram.quantile(0.2), 100.0);
        assert_eq!(histogram.quantile(0.5), 200.0);
        assert_eq!(histogram.max(), LATENCY_CAP_NS);
    }

    #[test]
    fn windows_hold_every_sample_once() {
        let open = OpenLoop {
            deliveries: (0..100)
                .map(|i| Delivery {
                    results: i % 3,
                    latency_sum_ns: 1_000 * (i % 3),
                })
                .collect(),
            late: LogHistogram::new(),
            late_first_tenth_ns: 0.0,
            late_last_tenth_ns: 0.0,
            rate_ratio: 1.0,
            push_errors: 0,
            counts: Vec::new(),
            self_latency_us: (0.0, 0.0),
        };
        let windows = open.windows(50);
        assert_eq!(windows.len(), LATENCY_WINDOWS);
        let samples: u64 = windows.iter().map(LogHistogram::count).sum();
        assert_eq!(samples, 99 + 50);
    }

    #[test]
    fn schedule_is_fixed_by_the_rate() {
        assert_eq!(due_ns(0, 30_000), 0);
        assert_eq!(due_ns(30_000, 30_000), 1_000_000_000);
        assert_eq!(due_ns(1, 4_000), 250_000);
    }

    /// An injected stall makes the generator late, and every send that was
    /// due during the stall is late by what remains of it: lateness is
    /// measured from the due time, not from when the generator got round
    /// to sending. (The stall is 50 ms so that being descheduled for a few
    /// milliseconds by the other tests cannot be mistaken for it.)
    #[test]
    fn open_loop_times_from_the_due_time_and_reports_lateness() {
        let rate = 1_000; // one send per millisecond
        let start = Instant::now();
        let mut lateness = Vec::new();
        for i in 0..200u64 {
            let due = due_ns(i, rate);
            let now = wait_until(start, due, || {});
            lateness.push(now - due);
            if i == 100 {
                std::thread::sleep(Duration::from_millis(50)); // the "sweep"
            }
        }
        const MS: u64 = 1_000_000;
        let before = *lateness[..100].iter().max().unwrap();
        // Sends 101.. were due 1 ms apart during the 50 ms stall: the first
        // is late by nearly all of it, and the backlog then clears.
        assert!(
            lateness[101] > 45 * MS,
            "stall not charged: {}",
            lateness[101]
        );
        assert!(lateness[120] > 25 * MS, "later samples must inflate too");
        assert!(
            lateness[101] > lateness[130],
            "lateness shrinks as it catches up"
        );
        assert!(before < 25 * MS, "no stall before the injection: {before}");
        assert!(*lateness.last().unwrap() < 25 * MS, "backlog did not clear");
    }
}
