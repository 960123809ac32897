//! The one barrier of the parallel control plane: ship what producers
//! hold → wait for the completion watermark → fold the producer slots'
//! deltas → one `Collect` round → close the busy span. `flush`,
//! `snapshot`, expiry, the quiesce phase of a plan install, the epoch
//! driver and shutdown all run [`EngineCore::barrier`]; each adds only
//! what it does around it. Every failure is one typed error naming the
//! dead worker, and a barrier on a shut-down engine is a no-op.

use crate::ingest::shared::LIVENESS_TICK;
use crate::parallel::coordinator::EngineCore;
use crate::parallel::worker::WorkerMsg;
use clash_common::{trace_clock_us, ClashError, Result, TraceEventKind};
use std::time::{Duration as StdDuration, Instant};

/// Longest the barrier of a shutting-down engine waits for the watermark.
/// No producer can add work by then, so the wait is bounded by the
/// backlog; past this the remaining roots are given up for lost rather
/// than hanging a `drop`.
const SHUTDOWN_DRAIN: StdDuration = StdDuration::from_secs(10);

impl EngineCore {
    /// The barrier. With `expire`, every shard first expires what fell
    /// out of its stores' windows at the stream clock of everything
    /// pushed before the call; returns the number of tuples that removed.
    /// Afterwards the aggregates, lanes and collected results reflect
    /// every root sequenced before the call.
    pub(super) fn barrier(&mut self, expire: bool) -> Result<usize> {
        if self.is_shutdown() {
            return Ok(0);
        }
        // The target is read before the sweep, so the sweep leaves none of
        // those roots behind in a buffer (`ControlShared::flush_slots`).
        let target = self.shared.sequenced();
        self.shared.flush_slots(&self.senders);
        self.await_watermark(target)?;
        self.fold_source_deltas();
        let trace_started = if self.trace.enabled() {
            trace_clock_us()
        } else {
            0
        };
        let expire_upto = expire.then_some(self.max_ts);
        let expired = self.round(|token| WorkerMsg::Collect { token, expire_upto })?;
        self.trace.record_span(
            TraceEventKind::Barrier,
            trace_started,
            self.token,
            expired as u64,
        );
        if let Some(started) = self.active_since.take() {
            self.wall_busy += started.elapsed();
        }
        Ok(expired)
    }

    /// The panicking barrier behind the owning thread's `flush`,
    /// `expire_stores`, `snapshot`, … (the epoch driver and `install_plan`
    /// take the error instead).
    pub(super) fn barrier_or_panic(&mut self, expire: bool) -> usize {
        self.barrier(expire).unwrap_or_else(|e| panic!("{e}"))
    }

    fn worker_died(&self, worker: usize) -> ClashError {
        ClashError::Runtime(format!(
            "parallel engine barrier failed: worker {worker} died (watermark {})",
            self.shared.progress.watermark()
        ))
    }

    /// Sleeps until the completion watermark covers `target`: one sleep on
    /// that target, one wake, re-checked every [`LIVENESS_TICK`] against
    /// the workers' exit records.
    fn await_watermark(&self, target: u64) -> Result<()> {
        let give_up = self
            .shared
            .is_shutdown()
            .then(|| Instant::now() + SHUTDOWN_DRAIN);
        loop {
            if let Some(dead) = self.shared.dead_worker() {
                return Err(self.worker_died(dead));
            }
            if self.shared.progress.wait_until(target, LIVENESS_TICK) {
                return Ok(());
            }
            if give_up.is_some_and(|at| Instant::now() >= at) {
                return Err(ClashError::Runtime(format!(
                    "shutdown drain gave up at watermark {} of {target}",
                    self.shared.progress.watermark()
                )));
            }
        }
    }

    /// Drains every source slot's metrics/statistics deltas and stream
    /// clock into the coordinator aggregates and prunes slots whose
    /// handle was dropped (their buffers were flushed by the drop).
    fn fold_source_deltas(&mut self) {
        let mut any_closed = false;
        for slot in self.shared.slots() {
            let mut inner = slot.inner.lock().expect("source slot");
            self.metrics.merge(&std::mem::take(&mut inner.metrics));
            self.stats.merge(inner.stats.take_delta());
            self.max_ts = self.max_ts.max(inner.max_ts);
            any_closed |= inner.closed;
        }
        if any_closed {
            self.shared
                .sources
                .lock()
                .expect("source registry")
                .retain(|slot| {
                    let inner = slot.inner.lock().expect("source slot");
                    !(inner.closed && inner.buf.is_empty())
                });
        }
    }

    /// One message to every worker (built from the round's token) and one
    /// report back from each, absorbed as it arrives. Must only run with
    /// nothing in flight. Returns the tuples the workers expired.
    pub(super) fn round(&mut self, msg: impl Fn(u64) -> WorkerMsg) -> Result<usize> {
        self.token += 1;
        let token = self.token;
        for (worker, s) in self.senders.iter().enumerate() {
            if s.send(msg(token)).is_err() {
                return Err(self.worker_died(worker));
            }
        }
        let mut expired = 0;
        for _ in 0..self.senders.len() {
            let ack = loop {
                if let Ok(ack) = self.ack_rx.recv_timeout(LIVENESS_TICK) {
                    break ack;
                }
                if let Some(dead) = self.shared.dead_worker() {
                    return Err(self.worker_died(dead));
                }
            };
            assert_eq!(ack.token, token, "barrier tokens are strictly ordered");
            expired += ack.report.expired;
            self.absorb(ack.worker, ack.report);
        }
        Ok(expired)
    }
}
