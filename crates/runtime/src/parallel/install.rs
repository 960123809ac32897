//! The quiesced plan install: verify → pause producers → barrier → swap
//! the plan on the coordinator, every producer slot and every worker →
//! resume. See `ParallelEngine::install_plan` for the contract.

use crate::engine::EngineControl;
use crate::parallel::coordinator::EngineCore;
use crate::parallel::worker::WorkerMsg;
use crate::plan::prepare;
use crate::stats_collector::StatsCollector;
use clash_common::{ClashError, Result, TraceEventKind};
use clash_optimizer::TopologyPlan;

impl EngineCore {
    /// Installs `plan`; returns the install position.
    pub(crate) fn install_plan(&mut self, plan: TopologyPlan) -> Result<u64> {
        if self.is_shutdown() {
            return Err(ClashError::Shutdown);
        }
        // Phase 0 — static verification: an invalid plan is rejected
        // before anything is quiesced, so the running plan and every
        // in-flight tuple are untouched by the failed install.
        let installed =
            prepare(&self.catalog, plan).inspect_err(|_| self.metrics.plan_rejections += 1)?;
        // Phase 1 — quiesce: pause admission on every producer and wait
        // for in-flight pushes to finish routing. The guard resumes
        // admission when dropped, so every exit path (including errors)
        // releases blocked producers. (Local Arc clone: the guard must
        // not borrow `self` across the mutating phases below.)
        self.trace.record(TraceEventKind::QuiesceBegin, 0, 0);
        let shared = self.shared.clone();
        let quiesced = shared.gate.quiesce();
        // Phase 2 — the barrier: every sequenced root is now fully
        // processed under the old plan, and its results have reached the
        // subscriptions.
        self.barrier(false)?;
        let install_seq = self.shared.sequenced();
        self.trace
            .record(TraceEventKind::QuiesceEnd, install_seq, 0);
        // Phase 3 — install: swap the plan on the coordinator, on every
        // source slot (their buffers are empty after the barrier, and no
        // push can pass the gate) and on every worker, then wait for the
        // workers' reports.
        self.installed = installed.clone();
        for slot in self.shared.slots() {
            let mut inner = slot.inner.lock().expect("source slot");
            debug_assert!(
                inner.buf.is_empty(),
                "source slot still buffered after quiesce barrier"
            );
            inner.installed = installed.clone();
        }
        self.round(|token| WorkerMsg::Install {
            token,
            installed: installed.clone(),
        })?;
        self.installs += 1;
        self.trace.record(
            TraceEventKind::PlanInstall,
            install_seq,
            installed.plan.stores.len() as u64,
        );
        // Phase 4 — resume: blocked pushes proceed against the new plan.
        drop(quiesced);
        Ok(install_seq)
    }
}

impl EngineControl for EngineCore {
    fn install_plan(&mut self, plan: TopologyPlan) -> Result<()> {
        EngineCore::install_plan(self, plan).map(|_| ())
    }

    fn plan(&self) -> &TopologyPlan {
        &self.installed.plan
    }

    fn stats_collector(&self) -> &StatsCollector {
        &self.stats
    }

    fn stats_collector_mut(&mut self) -> &mut StatsCollector {
        &mut self.stats
    }
}
