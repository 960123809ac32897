//! Control-plane state shared between the coordinator, every open
//! [`crate::ingest::SourceHandle`], the worker threads and the epoch
//! driver: the sequence allocator, the stream clock, the shutdown flag,
//! the source registry and the [`QuiesceGate`] that keeps plan installs
//! from dropping a push under concurrent producers.

use crate::ingest::source::SourceSlot;
use crate::parallel::router::{DepthGauges, FlushTrigger, Progress};
use crate::parallel::worker::WorkerMsg;
use clash_common::{ClashError, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Longest a blocked admission gate or drain barrier sleeps on its
/// watermark target before it re-checks that the engine is still alive
/// (shutdown flag, worker liveness, stall deadline).
pub(crate) const LIVENESS_TICK: Duration = Duration::from_secs(1);

/// The two-phase admission gate of the quiesce protocol.
///
/// Producers wrap the routing section of every push in [`enter`] /
/// [`GatePass`]-drop; the engine wraps a plan install in [`quiesce`] /
/// [`Quiesced`]-drop. `pause` first closes the gate (new pushes block on
/// the condvar instead of routing against a plan about to be replaced)
/// and then waits until every push that already entered has finished
/// routing and buffering its deliveries. At that point every allocated
/// sequence number has its deliveries in some batch buffer, so the
/// engine's flush + drain barrier covers them completely — no push can be
/// routed against a stale plan and none can be dropped by a worker that
/// already switched plans. `resume` (on [`Quiesced`] drop, so a panicking
/// install cannot leave producers blocked forever) reopens the gate and
/// wakes every blocked push, which then routes against the new plan.
///
/// Pausing blocks *new* entrants before waiting for active ones, so a
/// continuous stream of producers cannot starve the quiescer; the wait is
/// bounded by the in-flight pushes' routing work (no push holds the gate
/// across a channel wait or the admission gate).
///
/// [`enter`]: QuiesceGate::enter
/// [`quiesce`]: QuiesceGate::quiesce
#[derive(Debug, Default)]
pub(crate) struct QuiesceGate {
    state: Mutex<GateState>,
    /// Producers wait here while the gate is paused.
    admit: Condvar,
    /// The quiescer waits here for the active pushes to drain.
    idle: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    paused: bool,
    active: usize,
}

/// Proof that one push is inside the gate; dropping it releases the slot
/// (and wakes a waiting quiescer once the last active push exits).
#[derive(Debug)]
pub(crate) struct GatePass<'a> {
    gate: &'a QuiesceGate,
}

impl Drop for GatePass<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("quiesce gate");
        state.active -= 1;
        if state.active == 0 {
            self.gate.idle.notify_all();
        }
    }
}

/// Proof that the gate is paused and no push is mid-route; dropping it
/// resumes admission.
#[derive(Debug)]
pub(crate) struct Quiesced<'a> {
    gate: &'a QuiesceGate,
}

impl Drop for Quiesced<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("quiesce gate");
        state.paused = false;
        drop(state);
        self.gate.admit.notify_all();
    }
}

impl QuiesceGate {
    /// Enters the gate for one push, blocking while an install is in
    /// progress.
    pub fn enter(&self) -> GatePass<'_> {
        let mut state = self.state.lock().expect("quiesce gate");
        while state.paused {
            state = self.admit.wait(state).expect("quiesce gate");
        }
        state.active += 1;
        GatePass { gate: self }
    }

    /// Pauses admission and waits for every active push to exit. The
    /// returned guard resumes admission on drop.
    pub fn quiesce(&self) -> Quiesced<'_> {
        let mut state = self.state.lock().expect("quiesce gate");
        state.paused = true;
        while state.active > 0 {
            state = self.idle.wait(state).expect("quiesce gate");
        }
        Quiesced { gate: self }
    }
}

/// Everything the ingestion endpoints and the background control-plane
/// threads share with the engine, behind one `Arc`.
#[derive(Debug)]
pub(crate) struct ControlShared {
    /// Next root sequence number to allocate (roots start at 1). One
    /// shared allocator, so concurrent producers draw from a single
    /// logical serial order.
    pub next_seq: AtomicU64,
    /// Maximum stream timestamp (millis) pushed through *any* producer.
    /// The epoch driver derives the current epoch from this clock without
    /// taking any lock.
    pub stream_clock: AtomicU64,
    /// Set by `ParallelEngine::shutdown` before the workers are joined;
    /// ingestion endpoints then return [`clash_common::ClashError::Shutdown`]
    /// instead of silently dropping tuples.
    pub shutdown: AtomicBool,
    /// The install-time producer gate (see [`QuiesceGate`]).
    pub gate: QuiesceGate,
    /// Global completion progress (watermark over fully processed roots).
    pub progress: Arc<Progress>,
    /// Every registered producer slot — the coordinator's own micro-batch
    /// buffer plus one per open source — swept by workers that ran dry
    /// and by the admission/drain loops.
    pub sources: Mutex<Vec<Arc<SourceSlot>>>,
    /// Per-worker channel-depth gauges shared by every batch buffer
    /// (producers bump the enqueue side) and every worker thread (drain
    /// side); read by the idle flush trigger and the telemetry surface.
    pub depth: Arc<DepthGauges>,
    /// Set per worker when its thread exits, for whatever reason; before
    /// shutdown that means it died and the watermark is stuck for good.
    exited: Vec<AtomicBool>,
}

impl ControlShared {
    /// Fresh state with an empty registry, sized for `workers` channels.
    pub fn new(workers: usize) -> Self {
        ControlShared {
            next_seq: AtomicU64::new(1),
            stream_clock: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            gate: QuiesceGate::default(),
            progress: Arc::new(Progress::default()),
            sources: Mutex::new(Vec::new()),
            depth: Arc::new(DepthGauges::new(workers)),
            exited: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Folds a pushed timestamp into the stream clock.
    pub fn advance_clock(&self, ts_millis: u64) {
        self.stream_clock.fetch_max(ts_millis, Ordering::AcqRel);
    }

    /// Roots allocated so far (the realized length of the serial order).
    pub fn sequenced(&self) -> u64 {
        self.next_seq.load(Ordering::Acquire).saturating_sub(1)
    }

    /// Roots in flight: sequenced and not yet covered by the completion
    /// watermark.
    pub fn inflight(&self) -> u64 {
        self.sequenced().saturating_sub(self.progress.watermark())
    }

    /// Whether the engine has been shut down.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Records that `worker`'s thread is exiting (its drop guard calls
    /// this, so a panic counts).
    pub fn worker_exited(&self, worker: usize) {
        self.exited[worker].store(true, Ordering::Release);
    }

    /// The first worker whose thread has exited, if any.
    pub fn dead_worker(&self) -> Option<usize> {
        self.exited.iter().position(|e| e.load(Ordering::Acquire))
    }

    /// Snapshot of the registered slots (registry lock held only for the
    /// clone).
    pub fn slots(&self) -> Vec<Arc<SourceSlot>> {
        self.sources.lock().expect("source registry").clone()
    }

    /// Ships every registered slot's buffered deliveries — the
    /// coordinator's own micro-batch buffer and every open source's.
    /// Every producer allocates a root's sequence number and buffers its
    /// deliveries inside one critical section of its slot lock, so once
    /// this sweep returns, every root sequenced before it began is on the
    /// worker channels: a waiter whose watermark target was read before
    /// the sweep cannot be waiting on a buffered delivery.
    pub fn flush_slots(&self, senders: &[Sender<WorkerMsg>]) {
        for slot in self.slots() {
            slot.flush_to(senders);
        }
    }

    /// The worker side of the idle flush rule: `worker` found its queue
    /// empty, so every buffer holding deliveries for it ships them — as
    /// ordinary `Batch` messages through the channels, like a push that
    /// had found the worker idle.
    ///
    /// No wake-up can be lost between this and a push's own check
    /// (`BatchBuffer::due`), because both run under the slot lock. If
    /// the push's critical section comes first, this sweep finds what it
    /// left behind. If the sweep comes first, the worker's `processed`
    /// bump happened before the push took the lock, so the push sees the
    /// worker idle and ships its deliveries itself.
    ///
    /// Locks registry → slot like every other sweep and blocks on
    /// neither for longer than one push; the sends are to unbounded
    /// channels.
    pub fn ship_held_for(&self, worker: usize, senders: &[Sender<WorkerMsg>]) {
        let registry = self.sources.lock().expect("source registry");
        for slot in registry.iter() {
            let mut inner = slot.inner.lock().expect("source slot");
            if inner.buf.holds_for(worker) {
                inner.flush(senders, FlushTrigger::Idle);
            }
        }
    }

    /// The backpressure gate of every producer: blocks until fewer than
    /// `cap` roots (`0` = unbounded) are in flight — allocated sequence
    /// numbers against the completion watermark, so the bound holds
    /// across all producers combined. While over the bound it ships
    /// whatever the watermark could be stuck on and sleeps until the
    /// watermark reaches the value that brings the roots sequenced so far
    /// back under it, waking every [`LIVENESS_TICK`] to check that the
    /// engine is still there: [`ClashError::Shutdown`] after shutdown, a
    /// runtime error naming the worker once one has died.
    pub fn wait_admission(&self, cap: usize, senders: &[Sender<WorkerMsg>]) -> Result<()> {
        loop {
            if self.is_shutdown() {
                return Err(ClashError::Shutdown);
            }
            let sequenced = self.sequenced();
            let allowed = cap as u64;
            if cap == 0 || self.inflight() < allowed {
                return Ok(());
            }
            if let Some(dead) = self.dead_worker() {
                return Err(ClashError::Runtime(format!(
                    "backpressure stalled: worker {dead} died (watermark {})",
                    self.progress.watermark()
                )));
            }
            self.flush_slots(senders);
            self.progress
                .wait_until(sequenced + 1 - allowed, LIVENESS_TICK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn quiesce_waits_for_active_pushes_and_blocks_new_ones() {
        let gate = Arc::new(QuiesceGate::default());
        let in_flight = Arc::new(AtomicUsize::new(0));

        // An active push holding the gate.
        let pass = gate.enter();
        let g2 = gate.clone();
        let quiescer = std::thread::spawn(move || {
            let _q = g2.quiesce();
            // While quiesced, no push may be active.
        });
        // The quiescer cannot finish while the pass is held.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!quiescer.is_finished(), "quiesce returned with active push");
        drop(pass);
        quiescer.join().expect("quiescer");

        // A paused gate blocks new entrants until resumed.
        let q = gate.quiesce();
        let g3 = gate.clone();
        let c3 = in_flight.clone();
        let pusher = std::thread::spawn(move || {
            let _pass = g3.enter();
            c3.fetch_add(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            in_flight.load(Ordering::SeqCst),
            0,
            "push passed a paused gate"
        );
        drop(q);
        pusher.join().expect("pusher");
        assert_eq!(in_flight.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn control_shared_clock_is_monotonic() {
        let shared = ControlShared::new(1);
        shared.advance_clock(50);
        shared.advance_clock(20);
        assert_eq!(shared.stream_clock.load(Ordering::Acquire), 50);
        shared.advance_clock(80);
        assert_eq!(shared.stream_clock.load(Ordering::Acquire), 80);
    }
}
