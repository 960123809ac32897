//! The control-plane epoch driver: adaptivity for source-fed engines.
//!
//! Before this module, `AdaptiveController::on_epoch` only ever fired
//! from the coordinator's ingest path — a stream fed exclusively through
//! [`crate::ingest::SourceHandle`]s was never re-optimized, even though
//! epoch-based re-optimization (Section VI, Fig. 5/8) is the paper's
//! headline feature. The driver moves the cadence to the control plane:
//! a background thread watches the shared stream clock — advanced by
//! every producer push and every coordinator ingest — and, whenever it
//! crosses an epoch boundary, takes the engine core's lock, runs a collection barrier so the merged
//! per-worker statistics are current, and fires the controller. Plan
//! installs triggered this way go through the coordinator's quiesce
//! protocol, so they drop no push of the very producers that advanced
//! the clock.
//!
//! Skipped epochs are routine here (a sparse stream can jump the clock
//! several epochs between ticks; a burst can cross many boundaries within
//! one tick): the driver fires once with the *latest* epoch and relies on
//! the controller's idempotent pending-activation and its empty-epoch
//! re-planning guard.

use crate::adaptive::AdaptiveController;
use crate::ingest::shared::ControlShared;
use crate::parallel::coordinator::EngineCore;
use clash_common::{ClashError, Epoch, EpochConfig, Timestamp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

/// Poll cadence of the driver thread. Each tick is one atomic read of the
/// stream clock; the expensive work (collection barrier + re-planning)
/// only runs when the clock crossed an epoch boundary.
const EPOCH_TICK: StdDuration = StdDuration::from_millis(1);

/// Handle to the running epoch-driver thread (engine-owned).
#[derive(Debug)]
pub(crate) struct EpochDriver {
    stop: Arc<AtomicBool>,
    /// First engine error that stopped the driver (worker death during a
    /// barrier or install), surfaced via
    /// `ParallelEngine::epoch_driver_error`.
    error: Arc<Mutex<Option<ClashError>>>,
    handle: Option<JoinHandle<()>>,
}

impl EpochDriver {
    /// Spawns the driver over the engine core and the shared controller.
    pub fn spawn(
        core: Arc<Mutex<EngineCore>>,
        shared: Arc<ControlShared>,
        controller: Arc<Mutex<AdaptiveController>>,
        epoch: EpochConfig,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let error = Arc::new(Mutex::new(None));
        let stop_flag = stop.clone();
        let error_slot = error.clone();
        let handle = std::thread::Builder::new()
            .name("clash-epoch-driver".into())
            .spawn(move || {
                let mut last_epoch = Epoch::ZERO;
                while !stop_flag.load(Ordering::Acquire) {
                    std::thread::sleep(EPOCH_TICK);
                    if shared.is_shutdown() {
                        break;
                    }
                    let clock = Timestamp::from_millis(shared.stream_clock.load(Ordering::Acquire));
                    let current = epoch.epoch_of(clock);
                    if current <= last_epoch {
                        continue;
                    }
                    last_epoch = current;
                    // A poisoned core means a barrier panicked on the
                    // owning thread; the driver has nothing left to drive.
                    let Ok(mut core) = core.lock() else { break };
                    if core.is_shutdown() {
                        break;
                    }
                    // Epoch barrier: merge the per-worker statistics
                    // deltas before the controller evaluates them.
                    if let Err(e) = core.barrier(false) {
                        *error_slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
                        break;
                    }
                    core.record_epoch_tick(current);
                    let mut controller = controller.lock().unwrap_or_else(PoisonError::into_inner);
                    let before = controller.last_decision.map(|d| d.epoch);
                    if let Err(e) = controller.on_epoch(&mut *core, current) {
                        *error_slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
                        break;
                    }
                    // Trace the cost-model output of a fresh evaluation
                    // (boundaries that skipped re-planning leave the last
                    // decision untouched).
                    if let Some(decision) = controller.last_decision {
                        if before != Some(decision.epoch) {
                            core.record_controller_decision(&decision);
                        }
                    }
                }
            })
            .expect("spawn epoch driver thread");
        EpochDriver {
            stop,
            error,
            handle: Some(handle),
        }
    }

    /// The error that stopped the driver, if any.
    pub fn error(&self) -> Option<ClashError> {
        self.error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Stops and joins the driver thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for EpochDriver {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use crate::adaptive::{AdaptiveConfig, AdaptiveController};
    use crate::engine::EngineConfig;
    use crate::parallel::ParallelEngine;
    use clash_catalog::{Catalog, Statistics};
    use clash_common::{QueryId, Timestamp, TupleBuilder, Window};
    use clash_query::parse_query;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration as StdDuration, Instant};

    /// The acceptance scenario of the control-plane driver: an engine fed
    /// exclusively through a `SourceHandle` (zero coordinator-thread
    /// ingests) re-optimizes — the driver fires the controller off the
    /// stream clock, and the install goes through the quiesce protocol
    /// while the producer keeps pushing.
    #[test]
    fn source_fed_engine_reconfigures_without_coordinator_ingests() {
        let mut catalog = Catalog::new();
        catalog.register("R", ["a"], Window::secs(3600), 2).unwrap();
        catalog
            .register("S", ["a", "b"], Window::secs(3600), 2)
            .unwrap();
        catalog.register("T", ["b"], Window::secs(3600), 2).unwrap();
        let mut stats = Statistics::new();
        for m in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            stats.set_rate(m, 100.0);
        }
        let q1 = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let (controller, report) =
            AdaptiveController::new(catalog.clone(), vec![q1], stats, AdaptiveConfig::default())
                .unwrap();
        let mut engine =
            ParallelEngine::new(catalog.clone(), report.plan, EngineConfig::default(), 2);
        let controller = Arc::new(Mutex::new(controller));
        engine.start_epoch_driver(controller.clone());
        let mut handle = engine.open_source();
        // A query-set change guarantees the next evaluated boundary
        // schedules a different plan (two epochs later it installs).
        let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(b), T(b)").unwrap();
        controller.lock().unwrap().add_query(q2);

        let r = catalog.relation_by_name("R").unwrap();
        let s = catalog.relation_by_name("S").unwrap();
        let deadline = Instant::now() + StdDuration::from_secs(30);
        let mut ts = 0u64;
        let mut pushes = 0u64;
        let reconfigured = loop {
            // Advance stream time ~1/3 epoch per round so the driver sees
            // several boundaries.
            ts += 333;
            let rt = TupleBuilder::new(&r.schema, Timestamp::from_millis(ts))
                .set("a", (ts % 5) as i64)
                .build();
            handle.push(r.id, rt).unwrap();
            let st = TupleBuilder::new(&s.schema, Timestamp::from_millis(ts))
                .set("a", (ts % 5) as i64)
                .set("b", (ts % 3) as i64)
                .build();
            handle.push(s.id, st).unwrap();
            pushes += 2;
            if controller.lock().unwrap().reconfigurations > 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(StdDuration::from_millis(2));
        };
        assert!(
            reconfigured,
            "control-plane driver never installed a reconfiguration \
             (driver error: {:?})",
            engine.epoch_driver_error()
        );
        assert!(engine.epoch_driver_error().is_none());
        // The producer outlived the install: pushes after the quiesce
        // still work and the engine drains cleanly.
        handle
            .push(
                r.id,
                TupleBuilder::new(&r.schema, Timestamp::from_millis(ts + 10))
                    .set("a", 1)
                    .build(),
            )
            .unwrap();
        pushes += 1;
        let snap = engine.snapshot();
        assert_eq!(
            snap.tuples_ingested, pushes,
            "every push must be accounted; none dropped by the install"
        );
    }
}
