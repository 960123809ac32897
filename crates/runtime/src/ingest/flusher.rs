//! The time-trigger flusher: a background thread that ships micro-batch
//! buffers whose oldest delivery reached
//! `EngineConfig::micro_batch_max_delay`, so a producer that left
//! deliveries behind a busy worker and then stopped pushing (its own
//! per-push check never runs again) cannot strand them until the next
//! barrier.
//!
//! Every producer slot is covered — the open sources *and* the
//! coordinator's own buffer, which is registered in the same registry.
//! The thread is demand-driven: it sleeps until the earliest deadline
//! among the buffers it found non-empty, and parks outright while every
//! buffer is empty. A producer whose push leaves the first deliveries
//! behind in an empty buffer wakes it through [`FlusherSignal`]; an idle
//! engine, or one whose batches all ship on the size and idle triggers,
//! makes no periodic wake-ups.

use crate::ingest::shared::ControlShared;
use crate::parallel::worker::WorkerMsg;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration as StdDuration, Instant};

/// The producers' wake-up line to the flusher thread.
///
/// `parked` is set by the flusher before it parks with nothing buffered
/// anywhere and cleared by whoever wakes it. The flusher sweeps once more
/// between setting the flag and parking, and producers buffer *before*
/// they read the flag (both under `SeqCst`, the sweep additionally under
/// the slot locks), so either the flusher's second sweep sees the new
/// deliveries or the producer sees the flag — a wake-up cannot be lost.
#[derive(Debug, Default)]
pub(crate) struct FlusherSignal {
    parked: AtomicBool,
    thread: OnceLock<Thread>,
}

impl FlusherSignal {
    /// Producer side: a push left deliveries behind in a buffer that was
    /// empty. One atomic load unless the flusher is parked.
    pub fn buffered(&self) {
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            if let Some(thread) = self.thread.get() {
                thread.unpark();
            }
        }
    }
}

/// Handle to the running flusher thread (engine-owned).
#[derive(Debug)]
pub(crate) struct Flusher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Flusher {
    /// Spawns the flusher over the registry in `shared`, shipping buffers
    /// older than `max_delay` to `senders`.
    pub fn spawn(
        shared: Arc<ControlShared>,
        senders: Vec<Sender<WorkerMsg>>,
        max_delay: StdDuration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("clash-ingest-flusher".into())
            .spawn(move || {
                let _ = shared.flusher.thread.set(std::thread::current());
                while !stop_flag.load(Ordering::Acquire) {
                    match sweep(&shared, &senders, max_delay) {
                        Some(deadline) => {
                            std::thread::park_timeout(
                                deadline.saturating_duration_since(Instant::now()),
                            );
                        }
                        None => {
                            shared.flusher.parked.store(true, Ordering::SeqCst);
                            if sweep(&shared, &senders, max_delay).is_none()
                                && !stop_flag.load(Ordering::Acquire)
                            {
                                std::thread::park();
                            }
                            shared.flusher.parked.store(false, Ordering::SeqCst);
                        }
                    }
                }
            })
            .expect("spawn ingest flusher thread");
        Flusher {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops and joins the flusher thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Ships every slot's buffer that the flush predicate says is due and
/// returns the earliest instant at which one of the buffers still holding
/// deliveries reaches `max_delay` (`None` when every buffer is empty).
fn sweep(
    shared: &ControlShared,
    senders: &[Sender<WorkerMsg>],
    max_delay: StdDuration,
) -> Option<Instant> {
    let mut earliest: Option<Instant> = None;
    for slot in shared.slots() {
        let mut inner = slot.inner.lock().expect("source slot");
        if let Some(trigger) = inner.buf.due(Instant::now(), max_delay) {
            inner.flush(senders, trigger);
        }
        if let Some(since) = inner.buf.since() {
            let deadline = since + max_delay;
            earliest = Some(earliest.map_or(deadline, |e| e.min(deadline)));
        }
    }
    earliest
}
