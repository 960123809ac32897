//! The [`ClashSystem`] facade.

use clash_catalog::{Catalog, Statistics};
use clash_common::{
    ClashError, Epoch, QueryId, RelationId, Result, Timestamp, Tuple, TupleBuilder, Value, Window,
};
use clash_optimizer::{OptimizationReport, Planner, PlannerConfig, Strategy};
use clash_query::{parse_query, JoinQuery, QueryBuilder};
use clash_runtime::{
    AdaptiveConfig, AdaptiveController, EngineConfig, LocalEngine, MetricsSnapshot, ParallelEngine,
    SourceHandle,
};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, PoisonError};

/// Which execution runtime a deployment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeMode {
    /// The deterministic single-threaded [`LocalEngine`].
    #[default]
    Local,
    /// The sharded [`ParallelEngine`] with the given number of worker
    /// threads; `0` spawns one worker per partition of the widest store
    /// (the catalog's `parallelism`).
    Parallel(usize),
}

/// System-wide configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemConfig {
    /// Engine configuration (epoch length, expiry cadence, batching,
    /// tracing, epoch closing).
    pub engine: EngineConfig,
    /// Planner configuration (plan-space limits, solver limits).
    pub planner: PlannerConfig,
    /// Execution runtime for deployments.
    pub runtime: RuntimeMode,
}

/// A deployed engine of either runtime, dispatching the operations the
/// system needs. Boxed: the engines are large and the handle lives inside
/// every `ClashSystem`.
enum EngineHandle {
    Local(Box<LocalEngine>),
    Parallel(Box<ParallelEngine>),
}

impl EngineHandle {
    fn epoch_config(&self) -> clash_common::EpochConfig {
        match self {
            EngineHandle::Local(e) => e.epoch_config(),
            EngineHandle::Parallel(e) => e.epoch_config(),
        }
    }

    fn ingest(&mut self, relation: RelationId, tuple: Tuple) -> Result<u64> {
        match self {
            EngineHandle::Local(e) => e.ingest(relation, tuple),
            EngineHandle::Parallel(e) => e.ingest(relation, tuple),
        }
    }

    fn snapshot(&mut self) -> MetricsSnapshot {
        match self {
            EngineHandle::Local(e) => e.snapshot(),
            EngineHandle::Parallel(e) => e.snapshot(),
        }
    }

    fn subscribe(&mut self) -> Receiver<(QueryId, Tuple)> {
        match self {
            EngineHandle::Local(e) => e.subscribe(),
            EngineHandle::Parallel(e) => e.subscribe(),
        }
    }

    fn telemetry_snapshot(&mut self) -> String {
        match self {
            EngineHandle::Local(e) => e.telemetry_snapshot(),
            EngineHandle::Parallel(e) => e.telemetry_snapshot(),
        }
    }

    fn trace_json(&mut self) -> String {
        match self {
            EngineHandle::Local(e) => e.trace_json(),
            EngineHandle::Parallel(e) => e.trace_json(),
        }
    }
}

/// Locks the shared controller, recovering from poisoning (a panicked
/// epoch-driver tick must not take query registration down with it).
fn lock_controller(
    controller: &Arc<Mutex<AdaptiveController>>,
) -> std::sync::MutexGuard<'_, AdaptiveController> {
    controller.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The CLASH system: catalog + statistics + optimizer + runtime + adaptive
/// controller behind one API.
pub struct ClashSystem {
    config: SystemConfig,
    catalog: Catalog,
    stats: Statistics,
    queries: Vec<JoinQuery>,
    next_query_id: u32,
    engine: Option<EngineHandle>,
    /// The adaptive controller, shared with the parallel runtime's
    /// control-plane epoch driver (which fires it off the stream clock,
    /// so source-fed deployments re-optimize without a single
    /// coordinator-thread ingest). On the local runtime the ingest path
    /// drives it, as before.
    controller: Option<Arc<Mutex<AdaptiveController>>>,
    last_report: Option<OptimizationReport>,
    last_epoch_seen: Epoch,
}

impl std::fmt::Debug for ClashSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClashSystem")
            .field("relations", &self.catalog.len())
            .field("queries", &self.queries.len())
            .field("deployed", &self.engine.is_some())
            .finish()
    }
}

impl ClashSystem {
    /// Creates an empty system.
    pub fn new(config: SystemConfig) -> Self {
        ClashSystem {
            config,
            catalog: Catalog::new(),
            stats: Statistics::new(),
            queries: Vec::new(),
            next_query_id: 0,
            engine: None,
            controller: None,
            last_report: None,
            last_epoch_seen: Epoch::ZERO,
        }
    }

    /// Registers a streamed input relation.
    pub fn register_relation(
        &mut self,
        name: &str,
        attributes: impl IntoIterator<Item = impl Into<String>>,
        window: Window,
        parallelism: usize,
    ) -> Result<RelationId> {
        self.catalog.register(name, attributes, window, parallelism)
    }

    /// Sets the assumed arrival rate of a relation (prior statistics used
    /// until sampled statistics are available).
    pub fn set_rate(&mut self, relation: &str, rate: f64) -> Result<()> {
        let id = self
            .catalog
            .relation_id(relation)
            .ok_or_else(|| ClashError::unknown(format!("relation '{relation}'")))?;
        self.stats.set_rate(id, rate);
        Ok(())
    }

    /// Sets the assumed selectivity of an equi-join predicate.
    pub fn set_selectivity(
        &mut self,
        left: (&str, &str),
        right: (&str, &str),
        selectivity: f64,
    ) -> Result<()> {
        let l = self.catalog.attr(left.0, left.1)?;
        let r = self.catalog.attr(right.0, right.1)?;
        self.stats.set_selectivity(l, r, selectivity);
        Ok(())
    }

    /// Registers a continuous query in the paper's notation
    /// (`"R(a), S(a,b), T(b)"`). Returns its id.
    pub fn register_query(&mut self, name: &str, definition: &str) -> Result<QueryId> {
        let id = QueryId::new(self.next_query_id);
        let q = parse_query(&self.catalog, id, name, definition)?;
        self.next_query_id += 1;
        self.queries.push(q.clone());
        if let Some(controller) = &self.controller {
            lock_controller(controller).add_query(q);
        }
        Ok(id)
    }

    /// Registers a query built programmatically (for schemas whose joined
    /// columns have different names, e.g. TPC-H).
    pub fn register_query_with<F>(&mut self, name: &str, build: F) -> Result<QueryId>
    where
        F: FnOnce(QueryBuilder<'_>) -> Result<QueryBuilder<'_>>,
    {
        let id = QueryId::new(self.next_query_id);
        let builder = QueryBuilder::new(id, name, &self.catalog);
        let q = build(builder)?.build()?;
        self.next_query_id += 1;
        self.queries.push(q.clone());
        if let Some(controller) = &self.controller {
            lock_controller(controller).add_query(q);
        }
        Ok(id)
    }

    /// Registers an already-constructed query (e.g. from `clash-datagen`).
    pub fn register_prepared_query(&mut self, query: JoinQuery) -> Result<QueryId> {
        let id = query.id;
        self.next_query_id = self.next_query_id.max(id.0 + 1);
        self.queries.retain(|q| q.id != id);
        self.queries.push(query.clone());
        if let Some(controller) = &self.controller {
            lock_controller(controller).add_query(query);
        }
        Ok(id)
    }

    /// Removes a continuous query. Stores only it used are dropped at the
    /// next re-optimization (reference counting, Section VI-B).
    pub fn remove_query(&mut self, id: QueryId) {
        self.queries.retain(|q| q.id != id);
        if let Some(controller) = &self.controller {
            lock_controller(controller).remove_query(id);
        }
    }

    /// The registered queries.
    pub fn queries(&self) -> &[JoinQuery] {
        &self.queries
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Optimizes the current workload without deploying it (explain mode).
    pub fn explain(&self, strategy: Strategy) -> Result<OptimizationReport> {
        let planner = Planner::new(&self.catalog, &self.stats, self.config.planner);
        planner.plan(&self.queries, strategy)
    }

    /// Optimizes and deploys the current workload with the given strategy.
    pub fn deploy(&mut self, strategy: Strategy) -> Result<&OptimizationReport> {
        if self.queries.is_empty() {
            return Err(ClashError::Optimization("no queries registered".into()));
        }
        let adaptive_config = AdaptiveConfig {
            strategy,
            planner: self.config.planner,
            enabled: true,
        };
        let (controller, report) = AdaptiveController::new(
            self.catalog.clone(),
            self.queries.clone(),
            self.stats.clone(),
            adaptive_config,
        )?;
        let controller = Arc::new(Mutex::new(controller));
        self.engine = Some(match self.config.runtime {
            RuntimeMode::Local => EngineHandle::Local(Box::new(LocalEngine::new(
                self.catalog.clone(),
                report.plan.clone(),
                self.config.engine,
            ))),
            RuntimeMode::Parallel(workers) => {
                let mut engine = ParallelEngine::new(
                    self.catalog.clone(),
                    report.plan.clone(),
                    self.config.engine,
                    workers,
                );
                // Control-plane adaptivity: a background epoch driver
                // watches the stream clock (advanced by coordinator
                // ingests and source pushes alike) and fires the shared
                // controller at every boundary — `open_source()`
                // workloads get Fig. 8-style reconfiguration without a
                // single coordinator-thread ingest.
                engine.start_epoch_driver(controller.clone());
                EngineHandle::Parallel(Box::new(engine))
            }
        });
        self.controller = Some(controller);
        self.last_report = Some(report);
        Ok(self.last_report.as_ref().expect("just set"))
    }

    /// The report of the last deployment / explain.
    pub fn last_report(&self) -> Option<&OptimizationReport> {
        self.last_report.as_ref()
    }

    /// Builds a tuple for a registered relation from attribute/value pairs.
    pub fn tuple(&self, relation: &str, ts_millis: u64, values: &[(&str, Value)]) -> Result<Tuple> {
        let meta = self.catalog.relation_by_name(relation)?;
        let mut b = TupleBuilder::new(&meta.schema, Timestamp::from_millis(ts_millis));
        for (attr, v) in values {
            b = b.set(attr, v.clone());
        }
        Ok(b.build())
    }

    /// Ingests a tuple into the deployed topology. Returns the number of
    /// join results this tuple completed. Advancing stream time across an
    /// epoch boundary triggers the adaptive controller.
    pub fn ingest(&mut self, relation: &str, tuple: Tuple) -> Result<u64> {
        let relation_id = self
            .catalog
            .relation_id(relation)
            .ok_or_else(|| ClashError::unknown(format!("relation '{relation}'")))?;
        self.ingest_by_id(relation_id, tuple)
    }

    /// Ingests a tuple by relation id (hot path for generators).
    pub fn ingest_by_id(&mut self, relation: RelationId, tuple: Tuple) -> Result<u64> {
        let engine = self
            .engine
            .as_mut()
            .ok_or_else(|| ClashError::Runtime("system not deployed".into()))?;
        let epoch = engine.epoch_config().epoch_of(tuple.ts);
        let produced = engine.ingest(relation, tuple)?;
        if epoch > self.last_epoch_seen {
            self.last_epoch_seen = epoch;
            // The local runtime is driven from the ingest path, as
            // before. The parallel runtime's controller runs off the
            // control-plane epoch driver instead (started at deploy), so
            // coordinator ingests and source pushes share one cadence.
            if let (Some(controller), EngineHandle::Local(e)) = (&self.controller, engine) {
                lock_controller(controller).on_epoch(e.as_mut(), epoch)?;
            }
        }
        Ok(produced)
    }

    /// Metrics snapshot of the deployed engine. For the parallel runtime
    /// this runs a drain barrier first, so the snapshot covers everything
    /// ingested so far.
    pub fn snapshot(&mut self) -> Result<MetricsSnapshot> {
        self.engine
            .as_mut()
            .map(|e| e.snapshot())
            .ok_or_else(|| ClashError::Runtime("system not deployed".into()))
    }

    /// Renders the deployed engine's telemetry page (Prometheus-style
    /// text): engine counters, per-query and (on the parallel runtime)
    /// per-shard latency quantiles, per-store gauges, arena counters —
    /// plus the system-level reconfiguration count. Runs a barrier first
    /// on the parallel runtime, so the page covers everything ingested.
    pub fn telemetry_snapshot(&mut self) -> Result<String> {
        let engine = self
            .engine
            .as_mut()
            .ok_or_else(|| ClashError::Runtime("system not deployed".into()))?;
        let mut page = engine.telemetry_snapshot();
        page.push_str(
            "# HELP clash_reconfigurations_total Reconfigurations installed \
             by the adaptive controller.\n# TYPE clash_reconfigurations_total \
             counter\n",
        );
        page.push_str(&format!(
            "clash_reconfigurations_total {}\n",
            self.controller
                .as_ref()
                .map(|c| lock_controller(c).reconfigurations)
                .unwrap_or(0)
        ));
        page.push_str(
            "# HELP clash_candidate_rejections_total Candidate plans the \
             static analyzer rejected at install time; the live plan kept \
             running.\n# TYPE clash_candidate_rejections_total counter\n",
        );
        page.push_str(&format!(
            "clash_candidate_rejections_total {}\n",
            self.controller
                .as_ref()
                .map(|c| lock_controller(c).rejected_candidates)
                .unwrap_or(0)
        ));
        Ok(page)
    }

    /// Drains the deployed engine's trace-event rings as Chrome
    /// trace-event JSON (load in `chrome://tracing` or Perfetto). Empty
    /// `traceEvents` when tracing is disabled
    /// (`EngineConfig::trace_capacity == 0`).
    pub fn trace_json(&mut self) -> Result<String> {
        self.engine
            .as_mut()
            .map(|e| e.trace_json())
            .ok_or_else(|| ClashError::Runtime("system not deployed".into()))
    }

    /// Number of reconfigurations the adaptive controller has installed.
    pub fn reconfigurations(&self) -> usize {
        self.controller
            .as_ref()
            .map(|c| lock_controller(c).reconfigurations)
            .unwrap_or(0)
    }

    /// Number of candidate plans the static analyzer rejected at install
    /// time (the controller dropped them and kept the live plan).
    pub fn rejected_candidates(&self) -> usize {
        self.controller
            .as_ref()
            .map(|c| lock_controller(c).rejected_candidates)
            .unwrap_or(0)
    }

    /// The error that stopped the parallel runtime's control-plane epoch
    /// driver, if any. `None` on the local runtime (the ingest path
    /// propagates controller errors directly) and while the driver is
    /// healthy. When this is `Some`, adaptivity has stopped: the stream
    /// keeps flowing but no further reconfigurations will be installed —
    /// check it when [`Self::reconfigurations`] stays flat unexpectedly.
    pub fn adaptive_error(&self) -> Option<ClashError> {
        match self.engine.as_ref() {
            Some(EngineHandle::Parallel(e)) => e.epoch_driver_error(),
            _ => None,
        }
    }

    /// Opens a concurrent ingestion source on the deployed parallel
    /// runtime: the returned handle can be moved to a producer thread and
    /// pushed independently of this system handle and of every other
    /// source (see `clash_runtime::ingest`). Results stream to
    /// subscribers as they are produced; metrics aggregate at the next
    /// barrier ([`Self::snapshot`]).
    ///
    /// Fails when the system is not deployed or runs the single-threaded
    /// local runtime (which has no concurrent ingest path). Adaptive
    /// deployments work out of the box: the control-plane epoch driver
    /// fires the controller off the stream clock the pushes advance, and
    /// controller-triggered plan installs quiesce producers (racing
    /// pushes block briefly at the install gate and then route against
    /// the new plan — none is dropped).
    pub fn open_source(&mut self) -> Result<SourceHandle> {
        match self.engine.as_mut() {
            Some(EngineHandle::Parallel(e)) => Ok(e.open_source()),
            Some(EngineHandle::Local(_)) => Err(ClashError::Runtime(
                "multi-source ingestion requires RuntimeMode::Parallel".into(),
            )),
            None => Err(ClashError::Runtime("system not deployed".into())),
        }
    }

    /// Subscribes to the stream of emitted join results: the one way
    /// results leave a deployment. On the parallel runtime results arrive
    /// on the returned channel as the workers produce them — between
    /// barriers, not only at epoch ends; on the local runtime they arrive
    /// synchronously during `ingest`. Subscriptions are independent: each
    /// call adds a receiver that gets every result from then on. The
    /// channel disconnects when the engine shuts down.
    pub fn subscribe(&mut self) -> Result<Receiver<(QueryId, Tuple)>> {
        self.engine
            .as_mut()
            .map(|e| e.subscribe())
            .ok_or_else(|| ClashError::Runtime("system not deployed".into()))
    }

    /// Direct access to the parallel engine; `None` when deployed on the
    /// local runtime.
    pub fn parallel_engine_mut(&mut self) -> Option<&mut ParallelEngine> {
        match self.engine.as_mut() {
            Some(EngineHandle::Parallel(e)) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system_with_rst() -> ClashSystem {
        let mut clash = ClashSystem::new(SystemConfig::default());
        clash
            .register_relation("R", ["a"], Window::secs(3600), 1)
            .unwrap();
        clash
            .register_relation("S", ["a", "b"], Window::secs(3600), 1)
            .unwrap();
        clash
            .register_relation("T", ["b"], Window::secs(3600), 1)
            .unwrap();
        clash.set_rate("R", 100.0).unwrap();
        clash.set_rate("S", 100.0).unwrap();
        clash.set_rate("T", 100.0).unwrap();
        clash.set_selectivity(("R", "a"), ("S", "a"), 0.01).unwrap();
        clash.set_selectivity(("S", "b"), ("T", "b"), 0.01).unwrap();
        clash.register_query("q1", "R(a), S(a,b), T(b)").unwrap();
        clash
    }

    #[test]
    fn end_to_end_single_query() {
        let mut clash = system_with_rst();
        clash.deploy(Strategy::GlobalIlp).unwrap();
        let results = clash.subscribe().unwrap();
        let r = clash.tuple("R", 10, &[("a", 1.into())]).unwrap();
        let s = clash
            .tuple("S", 20, &[("a", 1.into()), ("b", 7.into())])
            .unwrap();
        let t = clash.tuple("T", 30, &[("b", 7.into())]).unwrap();
        assert_eq!(clash.ingest("R", r).unwrap(), 0);
        assert_eq!(clash.ingest("S", s).unwrap(), 0);
        assert_eq!(clash.ingest("T", t).unwrap(), 1);
        let snap = clash.snapshot().unwrap();
        assert_eq!(snap.total_results(), 1);
        assert_eq!(results.try_iter().count(), 1);
        assert!(clash.last_report().is_some());
    }

    #[test]
    fn deploy_plans_once_and_reports_the_installed_plan() {
        for runtime in [RuntimeMode::Local, RuntimeMode::Parallel(2)] {
            let mut clash = system_with_rst();
            clash.config.runtime = runtime;
            let before = Planner::plans_run_on_this_thread();
            let reported = clash.deploy(Strategy::GlobalIlp).unwrap().plan.clone();
            assert_eq!(Planner::plans_run_on_this_thread() - before, 1);
            let installed = match clash.engine.as_ref().unwrap() {
                EngineHandle::Local(e) => e.plan().clone(),
                EngineHandle::Parallel(e) => (*e.plan()).clone(),
            };
            assert_eq!(reported, installed, "{runtime:?}");
        }
    }

    #[test]
    fn ingest_before_deploy_fails() {
        let mut clash = system_with_rst();
        let r = clash.tuple("R", 10, &[("a", 1.into())]).unwrap();
        assert!(clash.ingest("R", r).is_err());
        assert!(clash.snapshot().is_err());
    }

    #[test]
    fn deploy_without_queries_fails() {
        let mut clash = ClashSystem::new(SystemConfig::default());
        clash
            .register_relation("R", ["a"], Window::secs(1), 1)
            .unwrap();
        assert!(clash.deploy(Strategy::Shared).is_err());
    }

    #[test]
    fn explain_reports_costs_without_deploying() {
        let clash = system_with_rst();
        let report = clash.explain(Strategy::GlobalIlp).unwrap();
        assert!(report.shared_cost > 0.0);
        assert!(report.model_stats.is_some());
        let gap = report.gap().expect("the ILP states its gap");
        assert!((0.0..=1.0).contains(&gap), "gap {gap}");
    }

    #[test]
    fn query_registration_and_removal() {
        let mut clash = system_with_rst();
        let q2 = clash.register_query("q2", "S(b), T(b)").unwrap();
        assert_eq!(clash.queries().len(), 2);
        clash.deploy(Strategy::Shared).unwrap();
        clash.remove_query(q2);
        assert_eq!(clash.queries().len(), 1);
        // Unknown attribute is rejected.
        assert!(clash.register_query("bad", "R(zzz), S(zzz)").is_err());
    }

    #[test]
    fn builder_registration_for_differently_named_columns() {
        let mut clash = ClashSystem::new(SystemConfig::default());
        clash
            .register_relation("orders", ["orderkey", "custkey"], Window::secs(60), 1)
            .unwrap();
        clash
            .register_relation("lineitem", ["orderkey", "partkey"], Window::secs(60), 1)
            .unwrap();
        let id = clash
            .register_query_with("q", |b| {
                b.join("orders", "orderkey", "lineitem", "orderkey")
            })
            .unwrap();
        assert_eq!(clash.queries()[0].id, id);
        clash.deploy(Strategy::GlobalIlp).unwrap();
        assert!(clash.snapshot().unwrap().total_results() == 0);
    }

    #[test]
    fn parallel_runtime_matches_local_results() {
        let deploy_and_run = |runtime: RuntimeMode| -> u64 {
            let mut clash = ClashSystem::new(SystemConfig {
                runtime,
                ..SystemConfig::default()
            });
            clash
                .register_relation("R", ["a"], Window::secs(3600), 2)
                .unwrap();
            clash
                .register_relation("S", ["a", "b"], Window::secs(3600), 2)
                .unwrap();
            clash
                .register_relation("T", ["b"], Window::secs(3600), 2)
                .unwrap();
            clash.register_query("q1", "R(a), S(a,b), T(b)").unwrap();
            clash.deploy(Strategy::GlobalIlp).unwrap();
            for i in 0..200u64 {
                let ts = i * 3;
                let a = (i % 10) as i64;
                let b = (i % 7) as i64;
                let r = clash.tuple("R", ts, &[("a", a.into())]).unwrap();
                let s = clash
                    .tuple("S", ts + 1, &[("a", a.into()), ("b", b.into())])
                    .unwrap();
                let t = clash.tuple("T", ts + 2, &[("b", b.into())]).unwrap();
                clash.ingest("R", r).unwrap();
                clash.ingest("S", s).unwrap();
                clash.ingest("T", t).unwrap();
            }
            clash.snapshot().unwrap().total_results()
        };
        let local = deploy_and_run(RuntimeMode::Local);
        assert!(local > 0);
        for workers in [1usize, 2, 4] {
            assert_eq!(
                deploy_and_run(RuntimeMode::Parallel(workers)),
                local,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn epoch_advancement_drives_adaptive_controller() {
        let mut clash = system_with_rst();
        clash.deploy(Strategy::GlobalIlp).unwrap();
        // Stream several seconds of data so multiple epoch boundaries pass.
        for i in 0..5_000u64 {
            let ts = i * 2;
            let r = clash
                .tuple("R", ts, &[("a", ((i % 50) as i64).into())])
                .unwrap();
            clash.ingest("R", r).unwrap();
            let s = clash
                .tuple(
                    "S",
                    ts + 1,
                    &[
                        ("a", ((i % 50) as i64).into()),
                        ("b", ((i % 20) as i64).into()),
                    ],
                )
                .unwrap();
            clash.ingest("S", s).unwrap();
        }
        // The controller ran (whether it re-planned depends on how much the
        // sampled statistics deviate from the prior, but the pipeline must
        // not error and results must be produced).
        assert!(clash.snapshot().unwrap().tuples_ingested == 10_000);
    }
}
