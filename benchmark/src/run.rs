//! One benchmark run of one workload: the untraced pass that yields the
//! end-to-end metrics, or the traced pass that yields the per-layer ones.

use crate::harness::{
    catalog_and_queries, closed_loop, counts_of, fastest_chunks_ns, ingest_path_counts,
    latency_histogram, open_loop, planner_config, soonest_deliveries, total, Accounting,
    ClosedLoop, Counts, Deployed, Inputs, OpenLoop,
};
use crate::layers::{replay_stores, traced_setup, tuple_costs};
use crate::oracle::Oracle;
use crate::spans::Recorder;
use crate::stats::{median, LogHistogram};
use crate::workloads::{EngineKind, Metrics, Workload, END_TO_END, PER_LAYER};
use crate::Result;
use clash_optimizer::{Planner, Strategy, TopologyPlan};
use clash_runtime::{EngineConfig, LocalEngine};
use std::path::PathBuf;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// The reference is checked against the brute-force oracle on this many
/// leading tuples (inside every workload's warm-up).
const ORACLE_PREFIX: usize = 8_000;

/// Per-tuple spans written to the Chrome trace (all are kept in memory and
/// counted; the file is thinned so it stays loadable).
const TRACE_FILE_TUPLE_SPANS: usize = 20_000;

/// Rounds of an untraced run. Each is a closed loop and an open loop over
/// the same measured tuples, and every other one starts with a timed
/// set-up; see [`run_untraced`].
pub const ROUNDS: usize = 5;

/// How a run is sized.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measuring time: what the open loops of an untraced run's [`ROUNDS`]
    /// rounds take together. Every loop of either pass sends the tuples
    /// that are due in one round's share of it.
    pub seconds: f64,
    /// Rounds of an untraced run: [`ROUNDS`], or 1 for a smoke run.
    pub rounds: usize,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: &'static str,
    /// Traced pass (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Every check of the harness itself held (see README.md): the
    /// reference agrees with the brute-force oracle, counts repeat, the
    /// span tree adds up.
    pub correct: bool,
    /// Input tuples offered during the measured phases.
    pub attempted: u64,
    /// Offered tuples whose push returned an error.
    pub failed: u64,
    /// Result-level accounting of the closed loop against the reference.
    pub results: Accounting,
    /// The metrics of this pass.
    pub metrics: Metrics,
    /// Human-readable lines about sizes and checks.
    pub notes: Vec<String>,
}

/// The `Independent` plan on `LocalEngine` over the identical stream.
struct Reference {
    /// Results per query over the measured tuples.
    counts: Counts,
    /// Results per query over the first [`ORACLE_PREFIX`] tuples.
    prefix_counts: Counts,
    /// Measured tuples per second of wall time.
    tps: f64,
    /// Tuple copies sent over the measured tuples.
    sent: u64,
    /// `store_bytes` after the final expiry sweep.
    state_bytes: usize,
    /// Seconds the whole reference run took.
    secs: f64,
}

fn run_reference(inputs: &Inputs) -> Result<Reference> {
    let started = Instant::now();
    let planner = Planner::new(&inputs.tpch.catalog, &inputs.tpch.stats, planner_config());
    let plan = planner.plan(&inputs.queries, Strategy::Independent)?.plan;
    let mut engine = LocalEngine::new(inputs.tpch.catalog.clone(), plan, EngineConfig::default());
    let prefix = ORACLE_PREFIX.min(inputs.warmup);
    for (relation, tuple) in &inputs.stream[..prefix] {
        engine.ingest(*relation, tuple.clone())?;
    }
    let prefix_counts = counts_of(&engine.snapshot());
    for (relation, tuple) in &inputs.stream[prefix..inputs.warmup] {
        engine.ingest(*relation, tuple.clone())?;
    }
    engine.reset_metrics();
    let measure_started = Instant::now();
    for (relation, tuple) in inputs.measured() {
        engine.ingest(*relation, tuple.clone())?;
    }
    let wall = measure_started.elapsed().as_secs_f64();
    let snapshot = engine.snapshot();
    engine.expire_stores();
    Ok(Reference {
        counts: counts_of(&snapshot),
        prefix_counts,
        tps: inputs.measured().len() as f64 / wall,
        sent: snapshot.tuples_sent,
        state_bytes: engine.store_bytes(),
        secs: started.elapsed().as_secs_f64(),
    })
}

/// Brute-force counts over the same prefix the reference was sampled at.
fn oracle_prefix_counts(spec: &Workload, inputs: &Inputs) -> Counts {
    let mut oracle = Oracle::new(&inputs.queries, spec.window_secs * 1_000);
    for (relation, tuple) in &inputs.stream[..ORACLE_PREFIX.min(inputs.warmup)] {
        oracle.push(*relation, tuple);
    }
    // The engines report only queries that produced results.
    oracle
        .counts()
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .collect()
}

/// One timed set-up, as a user deploying the workload pays it: catalog and
/// statistics, `Planner::plan` with the ILP solve, the install gate, and
/// engine construction (workers spawned, source opened).
fn setup_once(spec: &Workload) -> Result<(f64, TopologyPlan)> {
    let started = Instant::now();
    let (tpch, queries) = catalog_and_queries(spec);
    let planner = Planner::new(&tpch.catalog, &tpch.stats, planner_config());
    let report = planner.plan(&queries, Strategy::GlobalIlp)?;
    clash_analyzer::gate(&tpch.catalog, &report.plan)?;
    let engine = Deployed::new(&tpch.catalog, report.plan.clone(), spec.engine, false);
    let secs = started.elapsed().as_secs_f64();
    drop(engine);
    Ok((secs, report.plan))
}

/// Measured tuples of a run: what an open loop sends at the workload's
/// rate in one round's share of the run's seconds.
pub fn measured_tuples(spec: &Workload, seconds: f64) -> usize {
    ((spec.rate as f64 * seconds / ROUNDS as f64).round() as usize).max(1)
}

struct Prepared {
    inputs: Inputs,
    reference: Reference,
    oracle_ok: bool,
    notes: Vec<String>,
}

fn prepare(spec: &Workload, options: &Options, rec: &mut Recorder) -> Result<Prepared> {
    let measured = measured_tuples(spec, options.seconds);
    let inputs = rec.scope("datagen", |_| {
        Inputs::generate(spec, options.seed, measured)
    });
    let reference = rec.scope("reference", |_| run_reference(&inputs))?;
    let oracle = rec.scope("oracle", |_| oracle_prefix_counts(spec, &inputs));
    let oracle_ok = oracle == reference.prefix_counts;
    let notes = vec![
        format!(
            "inputs: {} warm-up + {} measured tuples, window {} s, scale {}, open-loop rate {} tuples/s, {:?}",
            inputs.warmup, measured, spec.window_secs, spec.scale, spec.rate, spec.engine
        ),
        format!(
            "check: brute-force oracle {} the Independent/LocalEngine reference on the first {} tuples ({} results)",
            if oracle_ok { "agrees with" } else { "DISAGREES with" },
            ORACLE_PREFIX.min(inputs.warmup),
            total(&oracle)
        ),
    ];
    Ok(Prepared {
        inputs,
        reference,
        oracle_ok,
        notes,
    })
}

fn results_note(acc: &Accounting) -> String {
    format!(
        "results: attempted={} failed={} (missing={} spurious={}) exactness={:.6}",
        acc.attempted,
        acc.failed(),
        acc.missing,
        acc.spurious,
        acc.exactness()
    )
}

/// Whether the same plan over the same stream gave the same counts every
/// time, and the line saying so. It must on `LocalEngine`; on
/// `ParallelEngine` thread scheduling may change them, so there it is
/// reported and not required.
fn counts_repeat(kind: EngineKind, all: &[&Counts], runs: &str) -> (bool, String) {
    let same = all.windows(2).all(|w| w[0] == w[1]);
    let required = kind == EngineKind::Local;
    let note = format!(
        "check: result counts {} across {runs}{}",
        if same { "repeat" } else { "DO NOT repeat" },
        if required {
            ""
        } else {
            " (not required of ParallelEngine)"
        }
    );
    (same || !required, note)
}

/// Interquartile mean and 90th percentile of a latency population, in µs.
fn iqm_and_p90_us(latency: &LogHistogram) -> (f64, f64) {
    (
        latency.trimmed_mean(0.25, 0.75) / 1e3,
        latency.quantile(0.9) / 1e3,
    )
}

/// The untraced pass: every end-to-end metric.
///
/// [`ROUNDS`] rounds of a closed loop and an open loop, all over the same
/// measured tuples, every other round behind a timed set-up (three of them,
/// spread over the run; their median is `setup_s`). The rounds are some
/// seconds apart, so a pause or slow spell of the sandbox hits a stretch of
/// one or two of them: the closed loop is read chunk by chunk and the open
/// loop tuple by tuple from whichever round ran that piece undisturbed
/// ([`fastest_chunks_ns`], [`soonest_deliveries`]).
pub fn run_untraced(spec: &Workload, options: &Options) -> Result<Outcome> {
    let mut off = Recorder::new(false, 0);
    let Prepared {
        inputs,
        reference,
        oracle_ok,
        mut notes,
    } = prepare(spec, options, &mut off)?;
    let measured = inputs.measured().len();

    let mut setup_secs = Vec::new();
    let mut closed: Vec<ClosedLoop> = Vec::new();
    let mut open: Vec<OpenLoop> = Vec::new();
    let mut plan = TopologyPlan::default();
    for round in 0..options.rounds.max(1) {
        if round % 2 == 0 {
            let (secs, built) = setup_once(spec)?;
            setup_secs.push(secs);
            plan = built;
        }
        closed.push(closed_loop(&inputs, &plan, spec.engine, &mut off));
        open.push(open_loop(&inputs, &plan, spec.engine, spec.rate));
    }

    let closed_counts: Vec<Counts> = closed.iter().map(|c| counts_of(&c.snapshot)).collect();
    let results = Accounting::compare(&reference.counts, &closed_counts[0]);
    let chunks: Vec<&[u64]> = closed.iter().map(|c| c.chunk_ns.as_slice()).collect();
    let undisturbed_tps = measured as f64 / (fastest_chunks_ns(&chunks) as f64 / 1e9);

    let deliveries: Vec<&[_]> = open.iter().map(|o| o.deliveries.as_slice()).collect();
    let missing = open[0].missing(&reference.counts);
    let latency = latency_histogram(&soonest_deliveries(&deliveries), missing);
    let (latency_iqm_us, latency_p90_us) = iqm_and_p90_us(&latency);

    let mut all_counts: Vec<&Counts> = closed_counts.iter().collect();
    all_counts.extend(open.iter().map(|o| &o.counts));
    let (repeat_ok, repeat_note) = counts_repeat(
        spec.engine,
        &all_counts,
        &format!("{} closed and {} open loops", closed.len(), open.len()),
    );
    notes.push(results_note(&results));
    notes.push(repeat_note);
    notes.push(format!(
        "closed loop: {} chunks; raw tuples/s per round {:?}, {:.0} with every chunk from its fastest round",
        chunks[0].len(),
        closed
            .iter()
            .map(|c| (measured as f64 / c.wall_s).round())
            .collect::<Vec<_>>(),
        undisturbed_tps
    ));
    for (round, o) in open.iter().enumerate() {
        let (iqm, p90) = iqm_and_p90_us(&latency_histogram(&o.deliveries, 0));
        notes.push(format!(
            "open loop, round {}: latency IQM {:.1} us p90 {:.1} us, achieved {:.4} of the offered rate, generator late p99 {:.1} us max {:.1} us, first tenth {:.1} us last tenth {:.1} us",
            round + 1,
            iqm,
            p90,
            o.rate_ratio,
            o.late.quantile(0.99) / 1e3,
            o.late.max() as f64 / 1e3,
            o.late_first_tenth_ns / 1e3,
            o.late_last_tenth_ns / 1e3
        ));
    }
    notes.push(format!(
        "open loop: {} latency samples ({} missing results at the cap), every tuple from the round that delivered it soonest",
        latency.count(),
        missing
    ));

    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", median(&setup_secs));
    metrics.set("goodput_tps", undisturbed_tps * results.exactness());
    metrics.set("latency_iqm_us", latency_iqm_us);
    metrics.set("latency_p90_us", latency_p90_us);
    metrics.set("state_mb", closed[0].state_bytes_mean / MIB);
    metrics.set("exactness", results.exactness());

    Ok(Outcome {
        workload: spec.name,
        traced: false,
        correct: oracle_ok && repeat_ok,
        attempted: ((closed.len() + open.len()) * measured) as u64,
        failed: closed.iter().map(|c| c.push_errors).sum::<u64>()
            + open.iter().map(|o| o.push_errors).sum::<u64>(),
        results,
        metrics,
        notes,
    })
}

/// Sums the samples of one metric family on an exposition page.
fn exposition_sum(page: &str, name: &str) -> f64 {
    page.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The traced pass: every per-layer metric, and the Chrome trace file.
pub fn run_traced(spec: &Workload, options: &Options) -> Result<Outcome> {
    let run_started = Instant::now();
    let measured = measured_tuples(spec, options.seconds);
    let mut rec = Recorder::new(true, measured + measured / 512 + 256);
    let root = rec.begin("workload", 0);
    let Prepared {
        inputs,
        reference,
        oracle_ok,
        mut notes,
    } = prepare(spec, options, &mut rec)?;

    let setup = rec.begin("setup", 0);
    let (plan, facts) = traced_setup(&inputs, spec.engine, &mut rec)?;
    rec.end(setup);

    let mut off = Recorder::new(false, 0);
    let untraced = rec.scope("untraced", |_| {
        closed_loop(&inputs, &plan, spec.engine, &mut off)
    });
    let traced = closed_loop(&inputs, &plan, spec.engine, &mut rec);
    let stores = replay_stores(&inputs, &plan, &mut rec);
    let tuples = tuple_costs(&inputs, &mut rec);

    let traced_counts = counts_of(&traced.snapshot);
    let untraced_counts = counts_of(&untraced.snapshot);
    let (vs_local, ingest_path) = match spec.engine {
        EngineKind::Local => (1.0, 1.0),
        EngineKind::Parallel(workers) => {
            let span = rec.begin("compare", 0);
            let local = closed_loop(&inputs, &plan, EngineKind::Local, &mut off);
            let local_total = total(&counts_of(&local.snapshot)).max(1) as f64;
            let lossy = ingest_path_counts(
                &inputs.tpch.catalog,
                &plan,
                workers,
                &inputs.stream[..inputs.warmup],
                inputs.measured(),
            )?;
            rec.end(span);
            (
                total(&traced_counts) as f64 / local_total,
                total(&lossy) as f64 / local_total,
            )
        }
    };
    let open = rec.scope("open_loop", |_| {
        open_loop(&inputs, &plan, spec.engine, spec.rate)
    });
    rec.end(root);

    let results = Accounting::compare(&reference.counts, &traced_counts);
    let windows = open.windows(open.missing(&reference.counts));
    let samples: u64 = windows.iter().map(LogHistogram::count).sum();
    let over_windows = |statistic: &dyn Fn(&LogHistogram) -> f64| -> Vec<f64> {
        windows.iter().map(|w| statistic(w) / 1e3).collect()
    };
    let (repeat_ok, repeat_note) = counts_repeat(
        spec.engine,
        &[&untraced_counts, &traced_counts, &open.counts],
        "the untraced, traced and open-loop runs",
    );
    let coverage = rec.coverage();
    let coverage_ok = (coverage - 1.0).abs() <= 0.02;
    notes.push(results_note(&results));
    notes.push(repeat_note);
    notes.push(format!(
        "check: span self times sum to {:.6} of the root span ({})",
        coverage,
        if coverage_ok { "ok" } else { "NOT within 2 %" }
    ));

    // Per-tuple push timings, from the per-tuple spans of the traced loop.
    let push_ns = LogHistogram::new();
    let mut blocked_ns = 0u64;
    for span in rec.spans().iter().filter(|s| s.root != 0) {
        push_ns.record(span.duration_ns());
        if span.duration_ns() > 1_000_000 {
            blocked_ns += span.duration_ns();
        }
    }
    let totals = rec.totals();
    let span_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let expire = totals.get("engine.expire").copied().unwrap_or_default();

    let n = measured as f64;
    let snap = &traced.snapshot;
    let results_total = snap.total_results() as f64;
    let busy_total: f64 = traced.worker_busy.iter().sum();
    let busy_max = traced.worker_busy.iter().cloned().fold(0.0, f64::max);
    let untraced_tps = n / untraced.wall_s;

    let mut m = Metrics::new(PER_LAYER);
    m.set(
        "datagen.gen_tps",
        inputs.stream.len() as f64 / inputs.gen_secs,
    );
    m.set(
        "optimizer.plan_ms",
        span_ms("optimizer.enumerate")
            + span_ms("optimizer.build_ilp")
            + span_ms("ilp.solve")
            + span_ms("optimizer.topology"),
    );
    m.set("optimizer.enumerate_ms", span_ms("optimizer.enumerate"));
    m.set("optimizer.build_ilp_ms", span_ms("optimizer.build_ilp"));
    m.set("optimizer.topology_ms", span_ms("optimizer.topology"));
    m.set("optimizer.probe_orders", facts.probe_orders as f64);
    m.set("optimizer.stores", facts.stores as f64);
    m.set("optimizer.mir_stores", facts.mir_stores as f64);
    m.set("optimizer.shared_cost", facts.shared_cost);
    m.set("optimizer.individual_cost", facts.individual_cost);
    m.set("ilp.solve_ms", span_ms("ilp.solve"));
    m.set("ilp.nodes", facts.ilp_nodes as f64);
    m.set("ilp.variables", facts.ilp_variables as f64);
    m.set("ilp.constraints", facts.ilp_constraints as f64);
    m.set("ilp.status_optimal", f64::from(u8::from(facts.ilp_optimal)));
    m.set("analyzer.verify_us", span_ms("analyzer.verify") * 1e3);
    m.set("analyzer.diagnostics", facts.diagnostics as f64);
    m.set("engine.construct_ms", span_ms("engine.construct"));
    m.set("engine.ingest_tps", untraced_tps);
    m.set("engine.ingest_ns_p50", push_ns.quantile(0.5));
    m.set("engine.ingest_ns_p99", push_ns.quantile(0.99));
    m.set("engine.ingest_ns_max", push_ns.max() as f64);
    m.set("engine.busy_s", busy_total);
    m.set("engine.expire_calls", expire.count as f64);
    m.set("engine.expire_ms_total", expire.total_ns as f64 / 1e6);
    m.set("engine.expire_ms_max", expire.max_ns as f64 / 1e6);
    m.set("engine.results_per_tuple", results_total / n);
    m.set("engine.sent_per_tuple", snap.tuples_sent as f64 / n);
    m.set("engine.probes_per_tuple", snap.probes as f64 / n);
    m.set(
        "engine.results_per_probe",
        results_total / (snap.probes.max(1)) as f64,
    );
    m.set("engine.broadcasts", snap.broadcasts as f64);
    m.set("engine.allocs_per_tuple", traced.allocations as f64 / n);
    m.set("engine.self_latency_p50_us", open.self_latency_us.0);
    m.set("engine.self_latency_p99_us", open.self_latency_us.1);
    m.set("store.insert_ns", stores.insert_ns);
    m.set("store.probe_hit_ns", stores.probe_hit_ns);
    m.set("store.probe_miss_ns", stores.probe_miss_ns);
    m.set("store.hits_per_probe", stores.hits_per_probe);
    m.set("store.freeze_ns_per_tuple", stores.freeze_ns_per_tuple);
    m.set("store.expire_ns_per_tuple", stores.expire_ns_per_tuple);
    m.set("store.tuples", traced.state_tuples as f64);
    m.set(
        "store.segments",
        exposition_sum(&traced.telemetry, "clash_segments_total"),
    );
    m.set(
        "store.segment_mb",
        exposition_sum(&traced.telemetry, "clash_segment_bytes") / MIB,
    );
    m.set(
        "store.compactions",
        exposition_sum(&traced.telemetry, "clash_compactions_total"),
    );
    m.set(
        "store.bytes_per_tuple",
        traced.state_bytes as f64 / traced.state_tuples.max(1) as f64,
    );
    m.set("tuple.build_ns", tuples.build_ns);
    m.set("tuple.join_ns", tuples.join_ns);
    m.set("tuple.get_ns", tuples.get_ns);
    m.set("ingest.push_blocked_s", blocked_ns as f64 / 1e9);
    m.set("parallel.flush_ms", traced.flush_s * 1e3);
    m.set("parallel.snapshot_ms", traced.snapshot_s * 1e3);
    m.set(
        "parallel.busy_balance",
        if busy_total > 0.0 {
            busy_max / busy_total
        } else {
            1.0
        },
    );
    m.set(
        "parallel.utilisation",
        busy_total / (traced.wall_s * traced.worker_busy.len().max(1) as f64),
    );
    m.set("parallel.inflight_mean", traced.inflight.0);
    m.set("parallel.inflight_max", traced.inflight.1 as f64);
    m.set("parallel.result_ratio_vs_local", vs_local);
    m.set("parallel.ingest_path_result_ratio", ingest_path);
    m.set("sharing.tps_ratio", untraced_tps / reference.tps);
    m.set(
        "sharing.sent_ratio",
        snap.tuples_sent as f64 / reference.sent.max(1) as f64,
    );
    m.set(
        "sharing.state_ratio",
        traced.state_bytes as f64 / reference.state_bytes.max(1) as f64,
    );
    m.set("check.results_attempted", results.attempted as f64);
    m.set("check.results_missing", results.missing as f64);
    m.set("check.results_spurious", results.spurious as f64);
    m.set("check.exactness", results.exactness());
    m.set(
        "openloop.latency_iqm_median_us",
        median(&over_windows(&|w| w.trimmed_mean(0.25, 0.75))),
    );
    m.set(
        "openloop.latency_p50_median_us",
        median(&over_windows(&|w| w.quantile(0.5))),
    );
    m.set(
        "openloop.latency_p90_median_us",
        median(&over_windows(&|w| w.quantile(0.9))),
    );
    m.set(
        "openloop.latency_p99_median_us",
        median(&over_windows(&|w| w.quantile(0.99))),
    );
    m.set(
        "openloop.latency_p99_quietest_us",
        over_windows(&|w| w.quantile(0.99))
            .into_iter()
            .fold(f64::INFINITY, f64::min),
    );
    m.set(
        "openloop.latency_max_us",
        windows.iter().map(LogHistogram::max).max().unwrap_or(0) as f64 / 1e3,
    );
    m.set("harness.reference_s", reference.secs);
    m.set("harness.warmup_s", traced.warmup_s);
    m.set("harness.latency_samples", samples as f64);
    m.set("harness.offered_rate_ratio", open.rate_ratio);
    m.set(
        "harness.generator_late_p99_us",
        open.late.quantile(0.99) / 1e3,
    );
    m.set(
        "harness.generator_late_max_us",
        open.late.max() as f64 / 1e3,
    );
    m.set(
        "harness.late_first_tenth_us",
        open.late_first_tenth_ns / 1e3,
    );
    m.set("harness.late_last_tenth_us", open.late_last_tenth_ns / 1e3);
    m.set(
        "harness.trace_overhead_ratio",
        (n / traced.wall_s) / untraced_tps,
    );
    m.set("harness.spans", rec.spans().len() as f64);
    m.set("harness.span_coverage", coverage);

    std::fs::create_dir_all(&options.out_dir)?;
    let trace_path = options.out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&trace_path, rec.chrome_trace_json(TRACE_FILE_TUPLE_SPANS))?;
    notes.push(format!("trace: {}", trace_path.display()));
    notes.push("layer self times (span: count, total ms, self ms):".to_string());
    for (name, t) in &totals {
        notes.push(format!(
            "  {name}: {} {:.3} {:.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    m.set("harness.self_s", run_started.elapsed().as_secs_f64());

    Ok(Outcome {
        workload: spec.name,
        traced: true,
        correct: oracle_ok && repeat_ok && coverage_ok,
        attempted: 3 * measured as u64,
        failed: untraced.push_errors + traced.push_errors + open.push_errors,
        results,
        metrics: m,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_sums_one_family_only() {
        let page = "# HELP clash_segments_total x\n\
                    clash_segments_total{store=\"0\"} 4\n\
                    clash_segments_total{store=\"1\"} 3\n\
                    clash_segments_total_extra{store=\"1\"} 100\n\
                    clash_segment_bytes{store=\"0\"} 2048\n";
        assert_eq!(exposition_sum(page, "clash_segments_total"), 7.0);
        assert_eq!(exposition_sum(page, "clash_segment_bytes"), 2048.0);
        assert_eq!(exposition_sum(page, "clash_absent"), 0.0);
    }

    #[test]
    fn stream_length_follows_rate_and_seconds() {
        let spec = crate::workloads::workload("fig7_5q_local").unwrap();
        assert_eq!(measured_tuples(spec, 12.0), 36_000);
        assert_eq!(measured_tuples(spec, 1.0), 3_000);
        assert_eq!(measured_tuples(spec, 0.0), 1);
    }
}
