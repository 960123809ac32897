//! Runtime telemetry primitives: mergeable log-bucketed latency
//! histograms, fixed-capacity trace-event rings, and the Prometheus-style
//! exposition builder (see DESIGN.md, "The telemetry layer").
//!
//! Everything here is engineered for the ingest hot path:
//!
//! * [`LatencyHistogram::record`] is a bucket-index computation (one
//!   `leading_zeros`, two shifts) plus four plain counter updates — no
//!   allocation, no branching on the data, no floating point.
//! * [`TraceRing::record`] is one enabled-branch plus one ring-slot write;
//!   a full ring overwrites the oldest event instead of allocating.
//! * Both are *mergeable*: per-worker deltas combine at epoch barriers by
//!   bucket-wise addition, exactly like the runtime's other counters, so
//!   aggregated quantiles are loss-free (the merged histogram equals the
//!   histogram of the concatenated samples — property-tested).
//!
//! The histogram is HDR-style: values bucket by their power of two
//! (octave) with [`HIST_SUB_COUNT`] linear sub-buckets per octave, giving
//! a guaranteed relative error of at most [`LatencyHistogram::RELATIVE_ERROR`]
//! (= 1/[`HIST_SUB_COUNT`]) for any reported quantile, over the full
//! `u64` nanosecond range, in a fixed `HIST_BUCKETS`-slot array.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Sub-bucket resolution: `2^HIST_SUB_BITS` linear sub-buckets per octave.
pub const HIST_SUB_BITS: u32 = 4;

/// Linear sub-buckets per power of two (16 → ≤ 6.25% relative error).
pub const HIST_SUB_COUNT: usize = 1 << HIST_SUB_BITS;

/// Total bucket count covering the full `u64` nanosecond range.
pub const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize + 1) * HIST_SUB_COUNT;

/// Bucket index of a nanosecond value. Values below [`HIST_SUB_COUNT`]
/// map exactly (one bucket per value); larger values map by octave and
/// linear sub-bucket within the octave.
#[inline]
fn bucket_of(ns: u64) -> usize {
    if ns < HIST_SUB_COUNT as u64 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    let shift = msb - HIST_SUB_BITS;
    let sub = ((ns >> shift) as usize) & (HIST_SUB_COUNT - 1);
    ((msb - HIST_SUB_BITS) as usize + 1) * HIST_SUB_COUNT + sub
}

/// Inclusive upper bound (ns) of the values mapping to `bucket`.
#[inline]
fn bucket_upper(bucket: usize) -> u64 {
    if bucket < HIST_SUB_COUNT {
        return bucket as u64;
    }
    let octave = bucket / HIST_SUB_COUNT - 1;
    let sub = (bucket % HIST_SUB_COUNT) as u64;
    ((HIST_SUB_COUNT as u64 + sub) << octave) + ((1u64 << octave) - 1)
}

/// A mergeable, log-bucketed latency histogram over nanosecond samples.
///
/// Fixed-size (no allocation after construction), `record` is
/// allocation-free, and `merge` is bucket-wise addition — the shape the
/// parallel runtime needs to ship per-worker deltas through epoch-barrier
/// acks. Quantiles are reported as the containing bucket's upper bound
/// (clamped to the recorded maximum), so a reported quantile is never
/// below the exact sample quantile and overshoots it by at most
/// [`Self::RELATIVE_ERROR`].
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum_ns: f64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0.0,
            max_ns: 0,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean_us", &self.mean_us())
            .field("p50_us", &self.quantile_us(0.50))
            .field("p99_us", &self.quantile_us(0.99))
            .field("max_us", &self.max_us())
            .finish()
    }
}

impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.max_ns == other.max_ns
            && self.sum_ns == other.sum_ns
            && self.counts[..] == other.counts[..]
    }
}

impl LatencyHistogram {
    /// Worst-case relative quantile error: a reported quantile `r` and
    /// the exact sample quantile `x` satisfy `x <= r <= x * (1 + ERROR)`.
    pub const RELATIVE_ERROR: f64 = 1.0 / HIST_SUB_COUNT as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Records `n` samples of the same nanosecond value in one step: the
    /// bucket counts, count and max equal `n` calls of
    /// [`Self::record_ns`] exactly (property-tested).
    #[inline]
    pub fn record_n(&mut self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(ns)] += n;
        self.count += n;
        self.sum_ns += ns as f64 * n as f64;
        if ns > self.max_ns {
            self.max_ns = ns;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64 / 1e3
        }
    }

    /// Maximum recorded latency in microseconds (exact, not bucketed).
    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1e3
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in microseconds: the upper bound
    /// of the bucket holding the sample of rank `ceil(q * count)`,
    /// clamped to the exact maximum.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(bucket).min(self.max_ns) as f64 / 1e3;
            }
        }
        self.max_us()
    }

    /// Merges another histogram into this one. The result is exactly the
    /// histogram that would have recorded both sample sets.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Non-empty buckets as `(upper_bound_ns, count)` in ascending order
    /// (the exposition renders these as cumulative Prometheus buckets).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (bucket_upper(b), n))
    }
}

/// What a trace event records (see the event vocabulary in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEventKind {
    /// One input tuple entered the engine (`a` = raw relation id,
    /// `b` = results emitted inline, sequential engine only).
    Ingest,
    /// One root was routed to the worker shards (`a` = sequence number,
    /// `b` = raw relation id).
    Route,
    /// One probe ran (`a` = raw store id, `b` = matches found).
    Probe,
    /// One tuple was inserted into a store (`a` = raw store id).
    Insert,
    /// A window expiry pass ran (`a` = tuples removed).
    Expire,
    /// A collection barrier was processed (`a` = barrier token).
    Barrier,
    /// A plan install began quiescing producers.
    QuiesceBegin,
    /// Producers were quiesced and the drain completed.
    QuiesceEnd,
    /// A new plan was installed (`a` = realized install position,
    /// `b` = store count of the new plan).
    PlanInstall,
    /// The control-plane driver observed an epoch boundary (`a` = epoch).
    EpochTick,
    /// The adaptive controller evaluated an epoch (`a` = shared probe
    /// cost of the re-planned configuration ×1000, `b` = 1 when a
    /// reconfiguration was installed).
    ControllerDecision,
    /// A micro-batch buffer was flushed: a span from the ingest of its
    /// oldest delivery's root to the flush — the time that delivery spent
    /// in the queue stage (`a` = deliveries shipped, `b` = trigger:
    /// 0 size, 1 idle, 2 barrier).
    Flush,
}

impl TraceEventKind {
    /// Stable event name (Chrome trace `name` field).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Ingest => "ingest",
            TraceEventKind::Route => "route",
            TraceEventKind::Probe => "probe",
            TraceEventKind::Insert => "insert",
            TraceEventKind::Expire => "expire",
            TraceEventKind::Barrier => "barrier",
            TraceEventKind::QuiesceBegin => "quiesce_begin",
            TraceEventKind::QuiesceEnd => "quiesce_end",
            TraceEventKind::PlanInstall => "plan_install",
            TraceEventKind::EpochTick => "epoch_tick",
            TraceEventKind::ControllerDecision => "controller_decision",
            TraceEventKind::Flush => "flush",
        }
    }
}

/// One timestamped trace event. `Copy` and exactly 48 bytes, so a ring
/// write is a plain slot store.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// Thread lane: `0` = coordinator/control plane, `1 + i` = worker `i`.
    pub tid: u32,
    /// Microseconds since the process-wide trace clock started.
    pub ts_us: u64,
    /// Span duration in µs (`0` renders as an instant event).
    pub dur_us: u64,
    /// First payload word (meaning depends on `kind`).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// Microseconds since the first telemetry clock read in this process.
/// All rings share this base, so events from different threads order
/// correctly in one merged trace.
pub fn trace_clock_us() -> u64 {
    trace_us_at(Instant::now())
}

/// The trace clock's reading at an `Instant` the caller already took, so
/// one clock read can stamp a trace event *and* serve another purpose
/// (the rule kernel shares it with its latency samples). Instants from
/// before the trace clock started read as `0`.
#[inline]
fn trace_us_at(now: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    now.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_micros() as u64
}

/// A fixed-capacity ring buffer of [`TraceEvent`]s owned by one thread.
///
/// Recording is one capacity branch plus one slot write; when the ring is
/// full the oldest event is overwritten (and counted in
/// [`Self::dropped`]), so tracing can stay on permanently without
/// unbounded growth. Capacity `0` disables the ring entirely — the
/// record calls reduce to the single branch.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next write position (wraps at `capacity`).
    head: usize,
    /// Events currently held (`<= capacity`).
    len: usize,
    /// The latest stamp ever written (kept across drains).
    newest_us: u64,
    dropped: u64,
    tid: u32,
}

impl TraceRing {
    /// A ring of `capacity` slots for thread lane `tid` (`0` disables).
    pub fn new(capacity: usize, tid: u32) -> Self {
        TraceRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
            newest_us: 0,
            dropped: 0,
            tid,
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one instant event.
    #[inline]
    pub fn record(&mut self, kind: TraceEventKind, a: u64, b: u64) {
        if self.capacity == 0 {
            return;
        }
        self.record_at(kind, Instant::now(), a, b);
    }

    /// [`Self::record`] stamped with a clock reading the caller already
    /// holds, instead of taking another.
    #[inline]
    pub fn record_at(&mut self, kind: TraceEventKind, now: Instant, a: u64, b: u64) {
        if self.capacity == 0 {
            return;
        }
        self.write(TraceEvent {
            kind,
            tid: self.tid,
            ts_us: trace_us_at(now),
            dur_us: 0,
            a,
            b,
        });
    }

    /// [`Self::record`] without a clock read, for an event with no reading
    /// of its own: stamped with the latest instant known not to be after
    /// it — `floor`, or this ring's newest stamp if later (events of one
    /// ring are recorded in order). A lower bound; the rule kernel stamps a
    /// missed probe this way, so tracing adds no clock read to a miss.
    #[inline]
    pub fn record_after(&mut self, kind: TraceEventKind, floor: Instant, a: u64, b: u64) {
        if self.capacity == 0 {
            return;
        }
        self.write(TraceEvent {
            kind,
            tid: self.tid,
            ts_us: trace_us_at(floor).max(self.newest_us),
            dur_us: 0,
            a,
            b,
        });
    }

    /// Records a span event that started at `started_us` (a prior
    /// [`trace_clock_us`] reading) and ends now.
    #[inline]
    pub fn record_span(&mut self, kind: TraceEventKind, started_us: u64, a: u64, b: u64) {
        if self.capacity == 0 {
            return;
        }
        let now = trace_clock_us();
        self.write(TraceEvent {
            kind,
            tid: self.tid,
            ts_us: started_us,
            dur_us: now.saturating_sub(started_us),
            a,
            b,
        });
    }

    #[inline]
    fn write(&mut self, event: TraceEvent) {
        self.newest_us = self.newest_us.max(event.ts_us);
        if self.len < self.capacity {
            self.buf.push(event);
            self.len += 1;
        } else {
            self.buf[self.head] = event;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes every buffered event in record order, leaving the ring empty
    /// (the drain point of the epoch-barrier ack path).
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        if self.len == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.len);
        if self.len < self.capacity {
            out.extend_from_slice(&self.buf);
        } else {
            // Full ring: oldest event sits at `head`.
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        }
        self.buf.clear();
        self.head = 0;
        self.len = 0;
        out
    }
}

/// Renders events as Chrome trace-event JSON (the JSON Object Format:
/// `{"traceEvents": [...]}`), loadable in `chrome://tracing` and Perfetto.
/// Span events (`dur_us > 0`) render as complete (`"ph": "X"`) events,
/// the rest as thread-scoped instants (`"ph": "i"`).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        out.push_str(e.kind.name());
        out.push_str("\",\"cat\":\"clash\",\"pid\":1,\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&e.ts_us.to_string());
        if e.dur_us > 0 {
            out.push_str(",\"ph\":\"X\",\"dur\":");
            out.push_str(&e.dur_us.to_string());
        } else {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{\"a\":");
        out.push_str(&e.a.to_string());
        out.push_str(",\"b\":");
        out.push_str(&e.b.to_string());
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Incremental builder for a Prometheus text-format exposition page.
///
/// Keeps the runtime code free of format minutiae: callers declare a
/// metric once (`# HELP` / `# TYPE` comments) and then append labeled
/// samples. [`Self::histogram`] renders a [`LatencyHistogram`] as
/// cumulative `_bucket{le="..."}` samples (µs) plus `_sum` and `_count`.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty page.
    pub fn new() -> Self {
        Exposition::default()
    }

    /// Declares a metric (`# HELP` + `# TYPE` lines).
    pub fn declare(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// Appends one sample line: `name{labels} value`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        self.push_labels(labels, None);
        self.out.push(' ');
        self.push_value(value);
        self.out.push('\n');
    }

    /// Appends a histogram: cumulative `_bucket` lines over the non-empty
    /// buckets (upper bounds in µs), a `+Inf` bucket, `_sum` (µs) and
    /// `_count`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], hist: &LatencyHistogram) {
        let mut cumulative = 0u64;
        for (upper_ns, count) in hist.nonzero_buckets() {
            cumulative += count;
            let le = format!("{}", upper_ns as f64 / 1e3);
            self.out.push_str(name);
            self.out.push_str("_bucket");
            self.push_labels(labels, Some(("le", &le)));
            self.out.push(' ');
            self.out.push_str(&cumulative.to_string());
            self.out.push('\n');
        }
        self.out.push_str(name);
        self.out.push_str("_bucket");
        self.push_labels(labels, Some(("le", "+Inf")));
        self.out.push(' ');
        self.out.push_str(&hist.count().to_string());
        self.out.push('\n');
        self.out.push_str(name);
        self.out.push_str("_sum");
        self.push_labels(labels, None);
        self.out.push(' ');
        self.push_value(hist.mean_us() * hist.count() as f64);
        self.out.push('\n');
        self.out.push_str(name);
        self.out.push_str("_count");
        self.push_labels(labels, None);
        self.out.push(' ');
        self.out.push_str(&hist.count().to_string());
        self.out.push('\n');
    }

    /// Appends quantile samples (`quantile="0.5" | "0.9" | "0.99" |
    /// "0.999"`) plus `_max` for one histogram — the summary surface the
    /// acceptance criteria require per query and per shard.
    pub fn quantiles(&mut self, name: &str, labels: &[(&str, &str)], hist: &LatencyHistogram) {
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
            self.out.push_str(name);
            self.push_labels(labels, Some(("quantile", label)));
            self.out.push(' ');
            self.push_value(hist.quantile_us(q));
            self.out.push('\n');
        }
        self.out.push_str(name);
        self.out.push_str("_max");
        self.push_labels(labels, None);
        self.out.push(' ');
        self.push_value(hist.max_us());
        self.out.push('\n');
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.out
    }

    fn push_labels(&mut self, labels: &[(&str, &str)], extra: Option<(&str, &str)>) {
        if labels.is_empty() && extra.is_none() {
            return;
        }
        self.out.push('{');
        let mut first = true;
        for (k, v) in labels.iter().copied().chain(extra) {
            if !first {
                self.out.push(',');
            }
            first = false;
            self.out.push_str(k);
            self.out.push_str("=\"");
            self.out.push_str(v);
            self.out.push('"');
        }
        self.out.push('}');
    }

    fn push_value(&mut self, value: f64) {
        if value == value.trunc() && value.abs() < 1e15 {
            self.out.push_str(&format!("{}", value as i64));
        } else {
            self.out.push_str(&format!("{value}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// One rule evaluation's batched record equals recording each of
        /// its results on its own: bucket counts, count and max exactly,
        /// the sum up to float rounding.
        #[test]
        fn record_n_equals_n_single_records(
            prior in collection::vec(0u64..50_000_000, 0..6),
            ns in 0u64..(1 << 40),
            n in 0u64..600,
        ) {
            let mut batched = LatencyHistogram::new();
            let mut single = LatencyHistogram::new();
            for &p in &prior {
                batched.record_ns(p);
                single.record_ns(p);
            }
            batched.record_n(ns, n);
            for _ in 0..n {
                single.record_ns(ns);
            }
            prop_assert_eq!(batched.counts[..], single.counts[..]);
            prop_assert_eq!(batched.count, single.count);
            prop_assert_eq!(batched.max_ns, single.max_ns);
            let scale = single.sum_ns.abs().max(1.0);
            prop_assert!((batched.sum_ns - single.sum_ns).abs() <= 1e-12 * scale);
        }
    }

    /// Deterministic xorshift so the distribution tests need no external
    /// RNG crate.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_are_contiguous_and_monotonic() {
        let mut prev_bucket = 0usize;
        for ns in 0..100_000u64 {
            let b = bucket_of(ns);
            assert!(
                b == prev_bucket || b == prev_bucket + 1,
                "bucket index jumped from {prev_bucket} to {b} at {ns}"
            );
            assert!(ns <= bucket_upper(b), "value {ns} above its bucket bound");
            prev_bucket = b;
        }
        // Extremes stay in range.
        assert!(bucket_of(u64::MAX) < HIST_BUCKETS);
        assert_eq!(bucket_of(0), 0);
    }

    #[test]
    fn bucket_upper_bound_respects_relative_error() {
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        for _ in 0..10_000 {
            let ns = rng.next() >> (rng.next() % 48);
            let upper = bucket_upper(bucket_of(ns));
            assert!(upper >= ns);
            let err = (upper - ns) as f64;
            assert!(
                err <= ns as f64 * LatencyHistogram::RELATIVE_ERROR + 1.0,
                "bucket error {err} above bound for {ns}"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_values_within_error_bound() {
        let mut rng = XorShift(42);
        let mut hist = LatencyHistogram::new();
        let mut samples = Vec::new();
        for _ in 0..20_000 {
            // Log-uniform over ~6 decades, the shape of real latencies.
            let ns = 100 + (rng.next() % 1_000) * 10u64.pow((rng.next() % 6) as u32);
            hist.record_ns(ns);
            samples.push(ns);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_quantile(&samples, q) as f64 / 1e3;
            let reported = hist.quantile_us(q);
            assert!(
                reported >= exact - 1e-9,
                "q{q}: reported {reported} below exact {exact}"
            );
            assert!(
                reported <= exact * (1.0 + LatencyHistogram::RELATIVE_ERROR) + 1e-3,
                "q{q}: reported {reported} beyond error bound of exact {exact}"
            );
        }
        assert_eq!(hist.max_us(), *samples.last().unwrap() as f64 / 1e3);
    }

    #[test]
    fn merge_equals_histogram_of_concatenated_samples() {
        let mut rng = XorShift(7);
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 0..5_000 {
            let ns = rng.next() % 10_000_000;
            if i % 3 == 0 {
                a.record_ns(ns);
            } else {
                b.record_ns(ns);
            }
            both.record_ns(ns);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, both, "merge(a, b) != histogram of a ++ b");
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(merged.quantile_us(q), both.quantile_us(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let hist = LatencyHistogram::new();
        assert!(hist.is_empty());
        assert_eq!(hist.quantile_us(0.99), 0.0);
        assert_eq!(hist.mean_us(), 0.0);
        assert_eq!(hist.max_us(), 0.0);
    }

    #[test]
    fn ring_keeps_newest_events_and_counts_drops() {
        let mut ring = TraceRing::new(4, 3);
        for i in 0..6u64 {
            ring.record(TraceEventKind::Probe, i, 0);
        }
        assert_eq!(ring.dropped(), 2);
        let events = ring.drain();
        assert_eq!(events.len(), 4);
        let ids: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(ids, vec![2, 3, 4, 5], "oldest events overwritten first");
        assert!(events.iter().all(|e| e.tid == 3));
        // Drained ring starts over.
        ring.record(TraceEventKind::Insert, 9, 0);
        assert_eq!(ring.drain().len(), 1);
    }

    #[test]
    fn record_after_stamps_the_latest_known_lower_bound() {
        let base = Instant::now();
        let (early, late) = (base, base + Duration::from_millis(5));
        let mut ring = TraceRing::new(4, 0);
        // Nothing newer in the ring: the floor itself.
        ring.record_after(TraceEventKind::Probe, late, 1, 0);
        assert_eq!(ring.drain()[0].ts_us, trace_us_at(late));
        // A floor older than the ring's newest stamp (kept across the
        // drain) takes that stamp; a newer one is itself.
        ring.record_after(TraceEventKind::Probe, early, 2, 0);
        let later = late + Duration::from_millis(5);
        ring.record_after(TraceEventKind::Probe, later, 3, 0);
        let stamps: Vec<u64> = ring.drain().iter().map(|e| e.ts_us).collect();
        assert_eq!(stamps, vec![trace_us_at(late), trace_us_at(later)]);
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut ring = TraceRing::new(0, 0);
        ring.record(TraceEventKind::Probe, 1, 2);
        ring.record_after(TraceEventKind::Probe, Instant::now(), 1, 2);
        ring.record_span(TraceEventKind::Ingest, 0, 1, 2);
        assert!(!ring.enabled());
        assert!(ring.drain().is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn chrome_trace_json_is_balanced_and_complete() {
        let mut ring = TraceRing::new(16, 1);
        ring.record(TraceEventKind::Probe, 7, 3);
        let started = trace_clock_us();
        ring.record_span(TraceEventKind::Ingest, started, 1, 0);
        let json = chrome_trace_json(&ring.drain());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"probe\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn exposition_renders_prometheus_text() {
        let mut hist = LatencyHistogram::new();
        hist.record_ns(1_500);
        hist.record_ns(2_000_000);
        let mut page = Exposition::new();
        page.declare("clash_test_total", "A counter.", "counter");
        page.sample("clash_test_total", &[("query", "0")], 12.0);
        page.declare("clash_test_latency_us", "A histogram.", "histogram");
        page.histogram("clash_test_latency_us", &[("query", "0")], &hist);
        page.quantiles("clash_test_latency_us", &[("query", "0")], &hist);
        let text = page.finish();
        assert!(text.contains("# TYPE clash_test_total counter"));
        assert!(text.contains("clash_test_total{query=\"0\"} 12\n"));
        assert!(text.contains("clash_test_latency_us_bucket{query=\"0\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("clash_test_latency_us_count{query=\"0\"} 2\n"));
        assert!(text.contains("quantile=\"0.999\""));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').unwrap_or(("", ""));
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line}");
        }
    }
}
