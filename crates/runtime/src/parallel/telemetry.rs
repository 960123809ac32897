//! What the coordinator keeps of the workers' reports, and every view
//! rendered from it: metrics snapshot, telemetry page, merged trace.

use crate::adaptive::ControllerDecision;
use crate::metrics::{EngineMetrics, MetricsSnapshot, StoreDetail};
use crate::parallel::coordinator::EngineCore;
use crate::parallel::shard::ShardReport;
use clash_common::{
    chrome_trace_json, ArenaStats, Epoch, LatencyHistogram, TraceEvent, TraceEventKind,
};
use std::time::Duration as StdDuration;

/// One worker's reports, folded: the per-worker view behind
/// `worker_busy()`, the per-shard telemetry sections and the store totals.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lane {
    /// Processing time accumulated since the last metrics reset.
    pub busy: StdDuration,
    /// Ingest-to-emit latency of everything this shard emitted (the
    /// per-query view lives in the aggregated `EngineMetrics`).
    latency: LatencyHistogram,
    /// The worker thread's arena counters as of its last report.
    arena: ArenaStats,
    /// What the shard held of every store as of its last report.
    stores: Vec<StoreDetail>,
}

impl EngineCore {
    /// Folds one worker's report into the aggregates and its lane.
    pub(super) fn absorb(&mut self, worker: usize, report: ShardReport) {
        let lane = &mut self.lanes[worker];
        lane.busy += report.metrics.busy;
        lane.latency.merge(&report.metrics.combined_latency());
        lane.arena = report.arena;
        lane.stores = report.stores;
        self.metrics.merge(&report.metrics);
        self.stats.merge(report.stats);
        // Bounded at one ring's worth per thread lane, oldest dropped first.
        self.trace_buf.extend(report.trace);
        let cap = self.config.trace_capacity * (self.lanes.len() + 1);
        let excess = self.trace_buf.len().saturating_sub(cap);
        self.trace_buf.drain(..excess);
    }

    /// Everything every shard held as of the last barrier, per worker.
    pub(super) fn held(&self) -> impl Iterator<Item = &StoreDetail> {
        self.lanes.iter().flat_map(|lane| &lane.stores)
    }

    pub(super) fn snapshot(&mut self) -> MetricsSnapshot {
        self.barrier_or_panic(false);
        MetricsSnapshot::assemble(
            &self.metrics,
            &StoreDetail::merged(self.held()),
            self.wall_busy,
        )
    }

    pub(super) fn reset_metrics(&mut self) {
        self.barrier_or_panic(false);
        self.metrics = EngineMetrics::default();
        self.wall_busy = StdDuration::ZERO;
        for lane in &mut self.lanes {
            lane.busy = StdDuration::ZERO;
            lane.latency = LatencyHistogram::new();
        }
    }

    /// Records the epoch-driver's boundary observation on the
    /// coordinator's trace lane.
    pub(crate) fn record_epoch_tick(&mut self, epoch: Epoch) {
        self.trace.record(TraceEventKind::EpochTick, epoch.0, 0);
    }

    /// Records an adaptive-controller evaluation (cost-model output and
    /// whether a reconfiguration was installed) on the coordinator's lane.
    pub(crate) fn record_controller_decision(&mut self, decision: &ControllerDecision) {
        self.trace.record(
            TraceEventKind::ControllerDecision,
            (decision.shared_cost * 1000.0) as u64,
            u64::from(decision.installed),
        );
    }

    /// Runs a barrier (pulling every worker's ring) and drains all trace
    /// events accumulated so far, merged across lanes and sorted by
    /// timestamp. Returns an empty vector when tracing is disabled.
    pub(super) fn drain_trace(&mut self) -> Vec<TraceEvent> {
        if self.config.trace_capacity > 0 {
            self.barrier_or_panic(false);
        }
        let mut events = std::mem::take(&mut self.trace_buf);
        events.extend(self.trace.drain());
        events.sort_by_key(|e| e.ts_us);
        events
    }

    /// [`Self::drain_trace`] rendered as Chrome trace-event JSON.
    pub(super) fn trace_json(&mut self) -> String {
        chrome_trace_json(&self.drain_trace())
    }

    /// Runs a barrier and renders the telemetry page: the sections shared
    /// with the sequential engine (stores summed across the shards, one
    /// arena lane per worker) plus the parallel runtime's own gauges
    /// (per-shard latency quantiles, per-worker busy time and queue
    /// depth, in-flight roots, plan installs).
    pub(super) fn telemetry_snapshot(&mut self) -> String {
        self.barrier_or_panic(false);
        let lanes = self.lanes.iter().enumerate();
        let mut page = crate::exposition::shared_sections(
            &self.metrics,
            &StoreDetail::merged(self.held()),
            lanes
                .clone()
                .map(|(w, lane)| (format!("worker-{w}"), lane.arena)),
        );
        page.declare(
            "clash_shard_latency_us",
            "Ingest-to-emit latency per worker shard (µs).",
            "summary",
        );
        page.declare(
            "clash_worker_busy_seconds",
            "Processing time accumulated per worker thread.",
            "gauge",
        );
        page.declare(
            "clash_worker_queue_depth",
            "Deliveries enqueued to a worker and not yet processed.",
            "gauge",
        );
        for (worker, lane) in lanes {
            let label = worker.to_string();
            let labels: &[(&str, &str)] = &[("worker", &label)];
            page.quantiles("clash_shard_latency_us", labels, &lane.latency);
            page.sample("clash_worker_busy_seconds", labels, lane.busy.as_secs_f64());
            page.sample(
                "clash_worker_queue_depth",
                labels,
                self.shared.depth.depth(worker) as f64,
            );
        }
        page.declare(
            "clash_inflight_roots",
            "Sequenced roots not yet covered by the completion watermark.",
            "gauge",
        );
        page.sample("clash_inflight_roots", &[], self.shared.inflight() as f64);
        page.declare(
            "clash_plan_installs_total",
            "Plan installs performed (quiesced reconfigurations).",
            "counter",
        );
        page.sample("clash_plan_installs_total", &[], self.installs as f64);
        page.finish()
    }
}
