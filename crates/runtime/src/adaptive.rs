//! Epoch-based adaptive re-optimization (Section VI).
//!
//! Time is divided into epochs. Statistics gathered during epoch `i` are
//! evaluated at the beginning of epoch `i+1`; if the optimizer then
//! produces a different configuration, it is propagated and becomes active
//! with epoch `i+2` (Fig. 5). Query arrival and expiry are handled the
//! same way: the controller re-plans over its current query set, and
//! stores that no longer serve any query are dropped by the engine when
//! the new plan is installed (reference counting of Section VI-B).

use crate::engine::EngineControl;
use clash_catalog::{Catalog, Statistics};
use clash_common::{ClashError, Epoch, QueryId, Result};
use clash_optimizer::{OptimizationReport, Planner, PlannerConfig, Strategy, TopologyPlan};
use clash_query::JoinQuery;

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Planning strategy used at every re-optimization.
    pub strategy: Strategy,
    /// Planner limits.
    pub planner: PlannerConfig,
    /// When `false` the controller never re-plans after the initial
    /// deployment (the "static" baseline of Fig. 8).
    pub enabled: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            strategy: Strategy::GlobalIlp,
            planner: PlannerConfig::default(),
            enabled: true,
        }
    }
}

/// Cost-model output of one controller evaluation (telemetry surface:
/// the epoch driver traces these so `ControllerDecision` events carry
/// the inputs the decision was made on).
#[derive(Debug, Clone, Copy)]
pub struct ControllerDecision {
    /// Epoch whose statistics were evaluated.
    pub epoch: Epoch,
    /// Probe cost of the re-planned configuration (Eq. 1, shared).
    pub shared_cost: f64,
    /// Sum of the queries' individually-optimal costs (baseline).
    pub individual_cost: f64,
    /// Whether the evaluation scheduled a reconfiguration.
    pub scheduled: bool,
    /// Whether this boundary installed a (previously pending) plan.
    pub installed: bool,
}

/// The adaptive controller: owns the query set and prior statistics and
/// re-plans at epoch boundaries.
#[derive(Debug)]
pub struct AdaptiveController {
    catalog: Catalog,
    queries: Vec<JoinQuery>,
    prior: Statistics,
    config: AdaptiveConfig,
    /// The latest epoch [`Self::on_epoch`] handled: a boundary is handled
    /// once, and only a later one is handled next.
    last_epoch: Option<Epoch>,
    /// Set by query registration/removal since the last re-planning; a
    /// query-set change forces re-planning even for an epoch without
    /// fresh statistics.
    queries_dirty: bool,
    /// Configuration scheduled to become active at a future epoch.
    pending: Option<(Epoch, TopologyPlan)>,
    /// Number of reconfigurations actually installed.
    pub reconfigurations: usize,
    /// Candidate plans the engine's static analyzer rejected
    /// ([`ClashError::InvalidPlan`]): such a candidate is dropped — not
    /// retried — and the live plan keeps running.
    pub rejected_candidates: usize,
    /// Cost-model output of the most recent full evaluation (telemetry).
    pub last_decision: Option<ControllerDecision>,
}

impl AdaptiveController {
    /// Creates a controller and computes the initial plan for the engine:
    /// the returned report's `plan` is what the caller deploys.
    pub fn new(
        catalog: Catalog,
        queries: Vec<JoinQuery>,
        prior: Statistics,
        config: AdaptiveConfig,
    ) -> Result<(Self, OptimizationReport)> {
        let planner = Planner::new(&catalog, &prior, config.planner);
        let report = planner.plan(&queries, config.strategy)?;
        Ok((
            AdaptiveController {
                catalog,
                queries,
                prior,
                config,
                last_epoch: None,
                queries_dirty: false,
                pending: None,
                reconfigurations: 0,
                rejected_candidates: 0,
                last_decision: None,
            },
            report,
        ))
    }

    /// The current query set.
    pub fn queries(&self) -> &[JoinQuery] {
        &self.queries
    }

    /// Registers a new continuous query; it is incorporated at the next
    /// epoch boundary (Section VI-B).
    pub fn add_query(&mut self, query: JoinQuery) {
        self.queries.retain(|q| q.id != query.id);
        self.queries.push(query);
        self.queries_dirty = true;
    }

    /// Removes a query; stores only it used are dropped at the next
    /// reconfiguration.
    pub fn remove_query(&mut self, query: QueryId) {
        let before = self.queries.len();
        self.queries.retain(|q| q.id != query);
        self.queries_dirty |= self.queries.len() != before;
    }

    /// Handles the boundary into `current_epoch`: installs a pending plan
    /// that has become due, then re-plans on the statistics of the epoch
    /// that just finished. Returns `true` when it installed a plan. Only
    /// an epoch later than the last one handled does anything; any other
    /// returns `Ok(false)` at once. A failed install keeps the plan pending
    /// for the next boundary and returns the error; an invalid one
    /// ([`ClashError::InvalidPlan`]) is dropped and counted in
    /// [`Self::rejected_candidates`].
    pub fn on_epoch<E: EngineControl>(
        &mut self,
        engine: &mut E,
        current_epoch: Epoch,
    ) -> Result<bool> {
        if self.last_epoch.is_some_and(|last| current_epoch <= last) {
            return Ok(false);
        }
        self.last_epoch = Some(current_epoch);
        let mut installed = false;
        if let Some((effective, plan)) = self.pending.take() {
            if current_epoch >= effective {
                match engine.install_plan(plan.clone()) {
                    Ok(()) => {
                        self.reconfigurations += 1;
                        installed = true;
                    }
                    // The candidate itself is broken: retrying it at a
                    // later epoch would fail the same way, so drop it and
                    // keep the live plan (a later evaluation re-plans from
                    // fresh statistics). Transient engine failures keep
                    // the pending plan for a retry instead.
                    Err(ClashError::InvalidPlan(_)) => {
                        self.rejected_candidates += 1;
                    }
                    Err(e) => {
                        self.pending = Some((effective, plan));
                        return Err(e);
                    }
                }
            } else {
                self.pending = Some((effective, plan));
            }
        }
        if !self.config.enabled {
            return Ok(installed);
        }
        if current_epoch == Epoch::ZERO {
            return Ok(installed);
        }

        // Evaluate the statistics of the epoch that just finished — but
        // only when there are fresh observations (or the query set
        // changed): epochs skipped over by a timer-driven cadence carry
        // no samples, and re-planning on them would flap configurations.
        let finished = current_epoch.prev();
        if !self.queries_dirty && !engine.stats_collector().has_samples(finished) {
            engine.stats_collector_mut().prune(finished);
            return Ok(installed);
        }
        self.queries_dirty = false;
        let observed = engine.stats_collector().snapshot(finished, &self.prior);
        self.prior = observed.clone();
        let planner = Planner::new(&self.catalog, &observed, self.config.planner);
        let report = planner.plan(&self.queries, self.config.strategy)?;

        // Only schedule a rewiring when the configuration actually differs.
        let scheduled = report.plan != *engine.plan();
        self.last_decision = Some(ControllerDecision {
            epoch: finished,
            shared_cost: report.shared_cost,
            individual_cost: report.individual_cost,
            scheduled,
            installed,
        });
        if scheduled {
            self.pending = Some((current_epoch.next(), report.plan));
        }
        engine.stats_collector_mut().prune(finished);
        Ok(installed)
    }

    /// Whether a reconfiguration is scheduled but not yet active.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, LocalEngine};
    use clash_common::{Duration, EpochConfig, Timestamp, TupleBuilder, Window};
    use clash_query::parse_query;

    fn setup() -> (Catalog, Vec<JoinQuery>, Statistics) {
        let mut catalog = Catalog::new();
        catalog.register("R", ["a"], Window::secs(5), 1).unwrap();
        catalog
            .register("S", ["a", "b"], Window::secs(5), 1)
            .unwrap();
        catalog.register("T", ["b"], Window::secs(5), 1).unwrap();
        let mut stats = Statistics::new();
        for m in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            stats.set_rate(m, 100.0);
        }
        let q1 = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        (catalog, vec![q1], stats)
    }

    fn ingest_some(engine: &mut LocalEngine, catalog: &Catalog, base_ts: u64, n: u64) {
        let r = catalog.relation_by_name("R").unwrap();
        let s = catalog.relation_by_name("S").unwrap();
        for i in 0..n {
            let ts = Timestamp::from_millis(base_ts + i * 7);
            let rt = TupleBuilder::new(&r.schema, ts)
                .set("a", (i % 5) as i64)
                .build();
            engine.ingest(r.id, rt).unwrap();
            let st = TupleBuilder::new(&s.schema, ts)
                .set("a", (i % 5) as i64)
                .set("b", (i % 3) as i64)
                .build();
            engine.ingest(s.id, st).unwrap();
        }
    }

    fn controller_and_engine(enabled: bool) -> (AdaptiveController, LocalEngine, Catalog) {
        let (catalog, queries, stats) = setup();
        let config = AdaptiveConfig {
            enabled,
            ..AdaptiveConfig::default()
        };
        let (controller, report) =
            AdaptiveController::new(catalog.clone(), queries, stats, config).unwrap();
        let engine = LocalEngine::new(
            catalog.clone(),
            report.plan,
            EngineConfig {
                epoch: EpochConfig::new(Duration::from_secs(1)),
                ..EngineConfig::default()
            },
        );
        (controller, engine, catalog)
    }

    #[test]
    fn initial_plan_is_produced() {
        let (controller, engine, _) = controller_and_engine(true);
        assert!(engine.plan().num_stores() > 0);
        assert_eq!(controller.queries().len(), 1);
        assert!(!controller.has_pending());
    }

    #[test]
    fn reconfiguration_follows_the_two_epoch_pipeline() {
        let (mut controller, mut engine, catalog) = controller_and_engine(true);
        // Epoch 0: data with very different characteristics than the prior.
        ingest_some(&mut engine, &catalog, 0, 60);
        // Epoch 1 boundary: statistics of epoch 0 evaluated, new plan
        // scheduled for epoch 2 (not yet installed).
        let installed = controller.on_epoch(&mut engine, Epoch(1)).unwrap();
        assert!(!installed);
        // Epoch 2 boundary: if a change was scheduled it becomes active now.
        let had_pending = controller.has_pending();
        let installed = controller.on_epoch(&mut engine, Epoch(2)).unwrap();
        assert_eq!(installed, had_pending);
        assert_eq!(controller.reconfigurations, usize::from(had_pending));
    }

    #[test]
    fn a_steady_stream_installs_at_most_one_reconfiguration() {
        // R ⋈ S ⋈ T at 100-101 tuples per relation per 1 s epoch. Every
        // epoch's statistics differ a little from the last, and so does
        // the re-planned selection's cost, but the plan's shape settles:
        // the controller must not reinstall an identical topology at every
        // boundary.
        let (mut controller, mut engine, catalog) = controller_and_engine(true);
        let [r, s, t] = ["R", "S", "T"].map(|name| catalog.relation_by_name(name).unwrap());
        let mut i = 0i64;
        for epoch in 0..12u64 {
            let per_relation = 100 + epoch % 2;
            for k in 0..per_relation {
                let ts = Timestamp::from_millis(epoch * 1_000 + k * 1_000 / per_relation);
                let (a, b) = (i % 50, i % 30);
                i += 1;
                let tuples = [
                    (r.id, TupleBuilder::new(&r.schema, ts).set("a", a).build()),
                    (
                        s.id,
                        TupleBuilder::new(&s.schema, ts)
                            .set("a", a)
                            .set("b", b)
                            .build(),
                    ),
                    (t.id, TupleBuilder::new(&t.schema, ts).set("b", b).build()),
                ];
                for (relation, tuple) in tuples {
                    engine.ingest(relation, tuple).unwrap();
                }
            }
            controller.on_epoch(&mut engine, Epoch(epoch + 1)).unwrap();
        }
        assert!(
            controller.reconfigurations <= 1,
            "{} reconfigurations of a steady stream",
            controller.reconfigurations
        );
    }

    #[test]
    fn disabled_controller_never_replans() {
        let (mut controller, mut engine, catalog) = controller_and_engine(false);
        ingest_some(&mut engine, &catalog, 0, 60);
        for e in 1..5 {
            let installed = controller.on_epoch(&mut engine, Epoch(e)).unwrap();
            assert!(!installed);
        }
        assert_eq!(controller.reconfigurations, 0);
        assert!(!controller.has_pending());
    }

    #[test]
    fn skipped_epochs_install_pending_exactly_once() {
        // Timer-driven cadences make epoch gaps routine: a pending plan
        // scheduled for epoch 2 may only become due at epoch 5, and the
        // same boundary can fire more than once. Exactly one install may
        // happen, and the gap's empty epochs must not trigger a replan
        // that re-schedules (and later re-installs) a flapping plan.
        let (mut controller, mut engine, catalog) = controller_and_engine(true);
        ingest_some(&mut engine, &catalog, 0, 60);
        controller.on_epoch(&mut engine, Epoch(1)).unwrap();
        controller.on_epoch(&mut engine, Epoch(2)).unwrap();
        let base = controller.reconfigurations;
        // A query-set change guarantees the next evaluation schedules a
        // different plan (its query list differs).
        let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(b), T(b)").unwrap();
        controller.add_query(q2);
        ingest_some(&mut engine, &catalog, 2_100, 30);
        controller.on_epoch(&mut engine, Epoch(3)).unwrap();
        assert!(controller.has_pending(), "query change must re-plan");
        // Epochs 4..=5 skipped; the boundary at 6 fires twice.
        let first = controller.on_epoch(&mut engine, Epoch(6)).unwrap();
        assert!(first, "due pending plan installs at the first boundary");
        assert_eq!(controller.reconfigurations, base + 1);
        let second = controller.on_epoch(&mut engine, Epoch(6)).unwrap();
        assert!(!second, "same boundary must not install twice");
        assert_eq!(controller.reconfigurations, base + 1);
        // Epoch 5 recorded no samples and the query set is unchanged, so
        // the gap must not have scheduled another reconfiguration.
        assert!(!controller.has_pending(), "empty epochs must not re-plan");
        let third = controller.on_epoch(&mut engine, Epoch(7)).unwrap();
        assert!(!third);
        assert_eq!(controller.reconfigurations, base + 1);
    }

    #[test]
    fn install_failure_keeps_pending_and_propagates() {
        // An engine whose install path fails (dead worker / shut down)
        // must not lose the pending plan: the next epoch retries.
        struct FailingEngine {
            inner: LocalEngine,
            fail_installs: usize,
        }
        impl EngineControl for FailingEngine {
            fn install_plan(&mut self, plan: clash_optimizer::TopologyPlan) -> Result<()> {
                if self.fail_installs > 0 {
                    self.fail_installs -= 1;
                    return Err(clash_common::ClashError::Shutdown);
                }
                self.inner.install_plan(plan)
            }
            fn plan(&self) -> &clash_optimizer::TopologyPlan {
                self.inner.plan()
            }
            fn stats_collector(&self) -> &crate::StatsCollector {
                self.inner.stats_collector()
            }
            fn stats_collector_mut(&mut self) -> &mut crate::StatsCollector {
                self.inner.stats_collector_mut()
            }
        }
        let (mut controller, mut engine, catalog) = controller_and_engine(true);
        ingest_some(&mut engine, &catalog, 0, 60);
        controller.on_epoch(&mut engine, Epoch(1)).unwrap();
        let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(b), T(b)").unwrap();
        controller.add_query(q2);
        ingest_some(&mut engine, &catalog, 1_100, 30);
        controller.on_epoch(&mut engine, Epoch(2)).unwrap();
        assert!(controller.has_pending(), "query change must re-plan");
        let base = controller.reconfigurations;
        let mut failing = FailingEngine {
            inner: engine,
            fail_installs: 1,
        };
        let err = controller.on_epoch(&mut failing, Epoch(3)).unwrap_err();
        assert_eq!(err, clash_common::ClashError::Shutdown);
        assert!(controller.has_pending(), "failed install keeps the plan");
        assert_eq!(controller.reconfigurations, base);
        let installed = controller.on_epoch(&mut failing, Epoch(4)).unwrap();
        assert!(installed, "next epoch retries the kept pending plan");
        assert_eq!(controller.reconfigurations, base + 1);
    }

    #[test]
    fn invalid_pending_plan_is_dropped_not_retried() {
        // A statically invalid candidate must not poison the controller:
        // the install is rejected by the analyzer gate, the candidate is
        // dropped (not kept pending for doomed retries), the rejection is
        // counted, and the live plan keeps running.
        let (mut controller, mut engine, catalog) = controller_and_engine(true);
        ingest_some(&mut engine, &catalog, 0, 60);
        controller.on_epoch(&mut engine, Epoch(1)).unwrap();
        // Corrupt a copy of the live plan and inject it as pending.
        let mut bad = engine.plan().clone();
        bad.ingest[0].targets[0].store = clash_common::StoreId::new(999);
        controller.pending = Some((Epoch(2), bad));
        let live = engine.plan().clone();
        let installed = controller.on_epoch(&mut engine, Epoch(2)).unwrap();
        assert!(!installed, "rejected candidate must not install");
        assert_eq!(controller.rejected_candidates, 1);
        assert!(!controller.has_pending(), "rejected candidate is dropped");
        assert_eq!(controller.reconfigurations, 0);
        assert_eq!(*engine.plan(), live, "live plan keeps running");
        // The engine remains usable after the rejection.
        ingest_some(&mut engine, &catalog, 2_100, 10);
    }

    #[test]
    fn query_addition_and_removal_change_the_plan() {
        let (mut controller, mut engine, catalog) = controller_and_engine(true);
        ingest_some(&mut engine, &catalog, 0, 30);
        let stores_before = engine.plan().num_stores();
        // Add a second query over S and T only.
        let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(b), T(b)").unwrap();
        controller.add_query(q2);
        controller.on_epoch(&mut engine, Epoch(1)).unwrap();
        controller.on_epoch(&mut engine, Epoch(2)).unwrap();
        // The new plan answers both queries.
        assert!(engine.plan().queries.len() >= 2 || controller.has_pending());
        // Remove the original query: after two more epochs the plan only
        // needs q2's relations.
        controller.remove_query(QueryId::new(0));
        ingest_some(&mut engine, &catalog, 2_000, 30);
        controller.on_epoch(&mut engine, Epoch(3)).unwrap();
        controller.on_epoch(&mut engine, Epoch(4)).unwrap();
        controller.on_epoch(&mut engine, Epoch(5)).unwrap();
        assert_eq!(engine.plan().queries, vec![QueryId::new(1)]);
        let _ = stores_before;
    }
}
