//! Runtime metrics: the quantities behind Fig. 7b–7d and Fig. 8.

use clash_common::{FxHashMap, LatencyHistogram, QueryId, StoreId};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Aggregated latency statistics in microseconds, extracted from a
/// [`LatencyHistogram`]: count, mean and exact max as before, plus the
/// tail quantiles the paper's evaluation (Fig. 7d) actually argues about.
/// Quantiles carry the histogram's bucket error (≤
/// [`LatencyHistogram::RELATIVE_ERROR`] above the exact sample quantile).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Median latency (µs).
    pub p50_us: f64,
    /// 90th-percentile latency (µs).
    pub p90_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
    /// 99.9th-percentile latency (µs).
    pub p999_us: f64,
    /// Maximum latency (µs, exact).
    pub max_us: f64,
}

impl LatencyStats {
    /// Summarizes a histogram.
    pub fn from_histogram(hist: &LatencyHistogram) -> LatencyStats {
        LatencyStats {
            count: hist.count(),
            mean_us: hist.mean_us(),
            p50_us: hist.quantile_us(0.5),
            p90_us: hist.quantile_us(0.9),
            p99_us: hist.quantile_us(0.99),
            p999_us: hist.quantile_us(0.999),
            max_us: hist.max_us(),
        }
    }
}

/// Mutable metrics accumulated by the engine.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Input tuples ingested per relation (keyed by raw relation id).
    pub tuples_ingested: u64,
    /// Tuple copies sent between stores (the probe cost actually paid).
    pub tuples_sent: u64,
    /// Messages that were broadcast to every partition of a store.
    pub broadcasts: u64,
    /// Join results emitted per query (bumped once per rule evaluation, by
    /// its result count — see [`Self::record_results`]).
    pub results: FxHashMap<QueryId, u64>,
    /// Probe lookups performed.
    pub probes: u64,
    /// Ingest-to-emit latency, one sample per emitted result in one
    /// mergeable histogram per query (keyed like `results`; merged
    /// bucket-wise at epoch barriers).
    latency: FxHashMap<QueryId, LatencyHistogram>,
    /// Age of micro-batch buffers when they were flushed (how long the
    /// oldest buffered delivery waited for a flush trigger).
    pub flush_age: LatencyHistogram,
    /// Micro-batch flushes by what triggered them, indexed by
    /// `FlushTrigger` (size, idle, barrier).
    pub flushes: [u64; 3],
    /// Wall-clock processing time spent inside `ingest`.
    pub busy: Duration,
    /// Candidate plans rejected by the static analyzer at install time.
    pub plan_rejections: u64,
}

impl EngineMetrics {
    /// Accounts the `n` results one rule evaluation emitted for `query`:
    /// one counter update and `n` latency samples of the evaluation's
    /// single clock reading, taken after its last result was dispatched
    /// (so the histogram resolves per evaluation, not per result).
    #[inline]
    pub fn record_results(&mut self, query: QueryId, n: u64, latency: Duration) {
        *self.results.entry(query).or_default() += n;
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.latency.entry(query).or_default().record_n(ns, n);
    }

    /// Latency statistics over all emitted results (all queries merged).
    pub fn latency(&self) -> LatencyStats {
        LatencyStats::from_histogram(&self.combined_latency())
    }

    /// Latency statistics for one query.
    pub fn latency_for(&self, query: QueryId) -> LatencyStats {
        self.latency
            .get(&query)
            .map(LatencyStats::from_histogram)
            .unwrap_or_default()
    }

    /// The per-query latency histograms.
    pub fn latency_histograms(&self) -> impl Iterator<Item = (QueryId, &LatencyHistogram)> {
        self.latency.iter().map(|(q, h)| (*q, h))
    }

    /// Per-query latency summaries keyed by raw query id — the shape
    /// [`MetricsSnapshot::latency_per_query`] wants.
    pub fn latency_per_query_stats(&self) -> FxHashMap<u32, LatencyStats> {
        self.latency
            .iter()
            .map(|(q, h)| (q.0, LatencyStats::from_histogram(h)))
            .collect()
    }

    /// One histogram over every emitted result (all queries merged) —
    /// what the coordinator accumulates per worker to report per-shard
    /// tail latency.
    pub fn combined_latency(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for hist in self.latency.values() {
            all.merge(hist);
        }
        all
    }

    /// Total results across all queries.
    pub fn total_results(&self) -> u64 {
        self.results.values().sum()
    }

    /// Merges another metrics accumulation into this one (used by the
    /// parallel runtime to aggregate per-worker deltas at epoch barriers).
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.tuples_ingested += other.tuples_ingested;
        self.tuples_sent += other.tuples_sent;
        self.broadcasts += other.broadcasts;
        self.probes += other.probes;
        for (query, n) in &other.results {
            *self.results.entry(*query).or_default() += n;
        }
        for (query, hist) in &other.latency {
            self.latency.entry(*query).or_default().merge(hist);
        }
        self.flush_age.merge(&other.flush_age);
        for (mine, theirs) in self.flushes.iter_mut().zip(other.flushes) {
            *mine += theirs;
        }
        self.busy += other.busy;
        self.plan_rejections += other.plan_rejections;
    }
}

/// Per-store shard-local sizes: what one shard holds of a store, summed
/// across shards by the coordinator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoreDetail {
    /// The store.
    pub store: StoreId,
    /// Tuples held by this shard's partitions.
    pub tuples: usize,
    /// Approximate bytes held by this shard's partitions.
    pub bytes: usize,
    /// Distinct (attribute, value) posting lists in the hash indexes.
    pub posting_lists: usize,
    /// Posting lists spilled past the inline capacity to a heap vector.
    pub spilled_postings: usize,
}

impl StoreDetail {
    /// Sums per-shard details into one entry per store, sorted by store id.
    pub fn merged<'a>(shards: impl Iterator<Item = &'a StoreDetail>) -> Vec<StoreDetail> {
        let mut by_store: Vec<StoreDetail> = Vec::new();
        for detail in shards {
            match by_store.iter_mut().find(|d| d.store == detail.store) {
                Some(d) => {
                    d.tuples += detail.tuples;
                    d.bytes += detail.bytes;
                    d.posting_lists += detail.posting_lists;
                    d.spilled_postings += detail.spilled_postings;
                }
                None => by_store.push(*detail),
            }
        }
        by_store.sort_unstable_by_key(|d| d.store.0);
        by_store
    }
}

/// Immutable snapshot of the engine state used by experiment drivers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Input tuples ingested.
    pub tuples_ingested: u64,
    /// Tuple copies sent between stores.
    pub tuples_sent: u64,
    /// Broadcast sends.
    pub broadcasts: u64,
    /// Probe lookups performed.
    pub probes: u64,
    /// Results per query (keyed by raw query id).
    pub results: FxHashMap<u32, u64>,
    /// Latency statistics over all queries.
    pub latency: LatencyStats,
    /// Latency statistics per query (keyed by raw query id, like
    /// `results`).
    pub latency_per_query: FxHashMap<u32, LatencyStats>,
    /// Total bytes held by all stores.
    pub store_bytes: usize,
    /// Total tuples held by all stores.
    pub store_tuples: usize,
    /// Number of store instances.
    pub num_stores: usize,
    /// Wall-clock time spent processing (`ingest` calls).
    pub busy_secs: f64,
    /// Throughput: ingested tuples per busy second.
    pub throughput_tps: f64,
}

impl MetricsSnapshot {
    /// Assembles a snapshot — for both engines — from aggregated metrics,
    /// one detail per store, and the busy time throughput is taken over.
    pub(crate) fn assemble(
        metrics: &EngineMetrics,
        stores: &[StoreDetail],
        busy: Duration,
    ) -> MetricsSnapshot {
        let busy = busy.as_secs_f64();
        MetricsSnapshot {
            tuples_ingested: metrics.tuples_ingested,
            tuples_sent: metrics.tuples_sent,
            broadcasts: metrics.broadcasts,
            probes: metrics.probes,
            results: metrics.results.iter().map(|(q, n)| (q.0, *n)).collect(),
            latency: metrics.latency(),
            latency_per_query: metrics.latency_per_query_stats(),
            store_bytes: stores.iter().map(|d| d.bytes).sum(),
            store_tuples: stores.iter().map(|d| d.tuples).sum(),
            num_stores: stores.len(),
            busy_secs: busy,
            throughput_tps: if busy > 0.0 {
                metrics.tuples_ingested as f64 / busy
            } else {
                0.0
            },
        }
    }

    /// Results emitted for one query.
    pub fn results_for(&self, query: QueryId) -> u64 {
        self.results.get(&query.0).copied().unwrap_or(0)
    }

    /// Total results across queries.
    pub fn total_results(&self) -> u64 {
        self.results.values().sum()
    }

    /// Latency statistics for one query.
    pub fn latency_for(&self, query: QueryId) -> LatencyStats {
        self.latency_per_query
            .get(&query.0)
            .copied()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_aggregation() {
        let mut m = EngineMetrics::default();
        assert_eq!(m.latency(), LatencyStats::default());
        let q = QueryId::new(0);
        m.record_results(q, 1, Duration::from_micros(100));
        m.record_results(q, 1, Duration::from_micros(300));
        let l = m.latency();
        assert_eq!(l.count, 2);
        assert!((l.mean_us - 200.0).abs() < 1e-6);
        assert!((l.max_us - 300.0).abs() < 1e-6);
        // Quantiles carry at most one bucket's relative error.
        let bound = 1.0 + clash_common::LatencyHistogram::RELATIVE_ERROR;
        assert!(l.p50_us >= 100.0 && l.p50_us <= 100.0 * bound);
        assert!(l.p99_us >= 300.0 - 1e-9 && l.p99_us <= 300.0 * bound);
    }

    #[test]
    fn latency_is_tracked_per_query() {
        let mut m = EngineMetrics::default();
        let q1 = QueryId::new(1);
        let q2 = QueryId::new(2);
        m.record_results(q1, 1, Duration::from_micros(100));
        m.record_results(q2, 1, Duration::from_micros(900));
        assert_eq!(m.latency_for(q1).count, 1);
        assert_eq!(m.latency_for(q2).count, 1);
        assert!(m.latency_for(q1).max_us < m.latency_for(q2).max_us);
        assert_eq!(m.latency_for(QueryId::new(3)).count, 0);
        assert_eq!(m.latency().count, 2, "combined view spans all queries");
    }

    #[test]
    fn merge_combines_per_query_histograms() {
        let q1 = QueryId::new(1);
        let q2 = QueryId::new(2);
        let mut a = EngineMetrics::default();
        let mut b = EngineMetrics::default();
        a.record_results(q1, 1, Duration::from_micros(50));
        b.record_results(q1, 1, Duration::from_micros(150));
        b.record_results(q2, 1, Duration::from_micros(500));
        a.merge(&b);
        assert_eq!(a.latency_for(q1).count, 2);
        assert_eq!(a.latency_for(q2).count, 1);
        assert!((a.latency_for(q1).mean_us - 100.0).abs() < 1e-6);
        assert_eq!(a.latency().count, 3);
    }

    #[test]
    fn result_counting() {
        let mut m = EngineMetrics::default();
        *m.results.entry(QueryId::new(1)).or_default() += 3;
        *m.results.entry(QueryId::new(2)).or_default() += 2;
        assert_eq!(m.total_results(), 5);
    }

    #[test]
    fn snapshot_lookups() {
        let mut s = MetricsSnapshot::default();
        s.results.insert(7, 11);
        assert_eq!(s.results_for(QueryId::new(7)), 11);
        assert_eq!(s.results_for(QueryId::new(8)), 0);
        assert_eq!(s.total_results(), 11);
        s.latency_per_query.insert(
            7,
            LatencyStats {
                count: 11,
                ..LatencyStats::default()
            },
        );
        assert_eq!(s.latency_for(QueryId::new(7)).count, 11);
        assert_eq!(s.latency_for(QueryId::new(8)).count, 0);
    }
}
