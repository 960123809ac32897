//! The benchmark's workloads and the registry of metric names.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a
//! self-test fails when the two drift apart. Every value the binary prints
//! goes through [`Metrics`], which refuses unknown names and unset ones.

use std::collections::BTreeMap;

/// Which engine runs the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `LocalEngine`: the generator thread is the engine thread.
    Local,
    /// `ParallelEngine` with this many workers, fed through one
    /// `SourceHandle`.
    Parallel(usize),
}

/// One workload: a query set, a window, a data scale and an offered rate.
/// All four use the TPC-H-shaped catalog with 2 partitions per store,
/// `Strategy::GlobalIlp`, `EngineConfig::default()` and a stream clock of
/// 1 ms per tuple.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// `ten_queries()` instead of `five_queries()`.
    pub ten_queries: bool,
    /// Window length in seconds of stream time (= thousands of tuples).
    pub window_secs: u64,
    /// Key-domain scale of `TpchGenerator`.
    pub scale: f64,
    /// Tuples pushed before measuring starts, so the window is full and
    /// expiry and freezing are running.
    pub warmup: usize,
    /// Open-loop offered rate in tuples per second. Fixed here, never
    /// derived from a run. The measured stream is `rate * seconds / ROUNDS`
    /// tuples long: what one round's open loop sends.
    pub rate: u64,
    /// Engine under test.
    pub engine: EngineKind,
}

/// The four workloads (why each exists: `BENCHMARK.json` and README.md).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig7_5q_local",
        ten_queries: false,
        window_secs: 5,
        scale: 0.002,
        warmup: 10_000,
        rate: 15_000,
        engine: EngineKind::Local,
    },
    Workload {
        name: "fig7_10q_fanout",
        ten_queries: true,
        window_secs: 5,
        scale: 0.002,
        warmup: 10_000,
        rate: 2_000,
        engine: EngineKind::Local,
    },
    Workload {
        name: "longstate_5q_local",
        ten_queries: false,
        window_secs: 60,
        scale: 0.05,
        warmup: 66_000,
        rate: 15_000,
        engine: EngineKind::Local,
    },
    Workload {
        name: "fig7_5q_parallel",
        ten_queries: false,
        window_secs: 5,
        scale: 0.002,
        warmup: 10_000,
        rate: 5_000,
        engine: EngineKind::Parallel(2),
    },
];

/// `run_seconds` of `BENCHMARK.json`: what a run without `--seconds` uses.
pub const RUN_SECONDS: f64 = 12.0;

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("goodput_tps", "tuples/s"),
    ("latency_iqm_us", "us"),
    ("latency_p90_us", "us"),
    ("state_mb", "MiB"),
    ("exactness", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. The part of
/// a name before the first dot is the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.gen_tps", "tuples/s"),
    ("optimizer.plan_ms", "ms"),
    ("optimizer.enumerate_ms", "ms"),
    ("optimizer.build_ilp_ms", "ms"),
    ("optimizer.topology_ms", "ms"),
    ("optimizer.probe_orders", "count"),
    ("optimizer.stores", "count"),
    ("optimizer.mir_stores", "count"),
    ("optimizer.shared_cost", "cost"),
    ("optimizer.individual_cost", "cost"),
    ("ilp.solve_ms", "ms"),
    ("ilp.nodes", "count"),
    ("ilp.variables", "count"),
    ("ilp.constraints", "count"),
    ("ilp.status_optimal", "bool"),
    ("analyzer.verify_us", "us"),
    ("analyzer.diagnostics", "count"),
    ("engine.construct_ms", "ms"),
    ("engine.ingest_tps", "tuples/s"),
    ("engine.ingest_ns_p50", "ns"),
    ("engine.ingest_ns_p99", "ns"),
    ("engine.ingest_ns_max", "ns"),
    ("engine.busy_s", "s"),
    ("engine.expire_calls", "count"),
    ("engine.expire_ms_total", "ms"),
    ("engine.expire_ms_max", "ms"),
    ("engine.results_per_tuple", "ratio"),
    ("engine.sent_per_tuple", "ratio"),
    ("engine.probes_per_tuple", "ratio"),
    ("engine.results_per_probe", "ratio"),
    ("engine.broadcasts", "count"),
    ("engine.allocs_per_tuple", "ratio"),
    ("engine.self_latency_p50_us", "us"),
    ("engine.self_latency_p99_us", "us"),
    ("store.insert_ns", "ns"),
    ("store.probe_hit_ns", "ns"),
    ("store.probe_miss_ns", "ns"),
    ("store.hits_per_probe", "ratio"),
    ("store.freeze_ns_per_tuple", "ns"),
    ("store.expire_ns_per_tuple", "ns"),
    ("store.tuples", "count"),
    ("store.segments", "count"),
    ("store.segment_mb", "MiB"),
    ("store.compactions", "count"),
    ("store.bytes_per_tuple", "bytes"),
    ("tuple.build_ns", "ns"),
    ("tuple.join_ns", "ns"),
    ("tuple.get_ns", "ns"),
    ("ingest.push_blocked_s", "s"),
    ("parallel.flush_ms", "ms"),
    ("parallel.snapshot_ms", "ms"),
    ("parallel.busy_balance", "ratio"),
    ("parallel.utilisation", "ratio"),
    ("parallel.inflight_mean", "count"),
    ("parallel.inflight_max", "count"),
    ("parallel.result_ratio_vs_local", "ratio"),
    ("parallel.ingest_path_result_ratio", "ratio"),
    ("sharing.tps_ratio", "ratio"),
    ("sharing.sent_ratio", "ratio"),
    ("sharing.state_ratio", "ratio"),
    ("check.results_attempted", "count"),
    ("check.results_missing", "count"),
    ("check.results_spurious", "count"),
    ("check.exactness", "ratio"),
    ("openloop.latency_iqm_median_us", "us"),
    ("openloop.latency_p50_median_us", "us"),
    ("openloop.latency_p90_median_us", "us"),
    ("openloop.latency_p99_median_us", "us"),
    ("openloop.latency_p99_quietest_us", "us"),
    ("openloop.latency_max_us", "us"),
    ("harness.reference_s", "s"),
    ("harness.warmup_s", "s"),
    ("harness.latency_samples", "count"),
    ("harness.offered_rate_ratio", "ratio"),
    ("harness.generator_late_p99_us", "us"),
    ("harness.generator_late_max_us", "us"),
    ("harness.late_first_tenth_us", "us"),
    ("harness.late_last_tenth_us", "us"),
    ("harness.trace_overhead_ratio", "ratio"),
    ("harness.spans", "count"),
    ("harness.span_coverage", "ratio"),
    ("harness.self_s", "s"),
];

/// The values of one run, keyed by registered name.
#[derive(Debug, Clone)]
pub struct Metrics {
    registry: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over one of the registries above.
    pub fn new(registry: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            registry,
            values: BTreeMap::new(),
        }
    }

    /// Sets a metric. Panics on a name the registry does not declare or a
    /// non-finite value: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let (registered, _) = self
            .registry
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(registered, value);
    }

    /// `(name, value, unit)` in registry order. Panics if a registered
    /// metric was never set, so a run cannot print a partial set.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.registry
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never set"));
                (*name, *value, *unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .iter()
            .map(|entry| {
                let field = |k: &str| {
                    entry
                        .get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{section} entry without {k}"))
                        .to_string()
                };
                let second = if section == "workloads" {
                    "why"
                } else {
                    "unit"
                };
                (field("name"), field(second))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The names the binary prints are exactly the names `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, ours);

        for (section, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = registry
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&doc, section), ours, "{section} drifted");
        }

        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(RUN_SECONDS));
        let paths = doc.get("paths").and_then(Json::as_array).unwrap();
        assert_eq!(paths, [Json::Str("benchmark".into())]);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n));
        for name in &all {
            assert!(valid_name(name), "bad name {name}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn metrics_refuse_unknown_and_missing_names() {
        let mut m = Metrics::new(END_TO_END);
        assert!(std::panic::catch_unwind(move || m.set("nonsense", 1.0)).is_err());
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 1.5);
        assert!(std::panic::catch_unwind(move || m.rows()).is_err());
    }
}
