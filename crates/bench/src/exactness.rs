//! The one engine driver of the exactness tests: a plan over a stream on
//! every way a stream can enter an engine, each path's result multiset
//! rendered by [`clash_datagen::exactness`] for comparison with the other
//! paths and with the brute-force reference.

use clash_catalog::{Catalog, Statistics};
use clash_common::{RelationId, Tuple};
use clash_datagen::exactness::received;
use clash_optimizer::{Planner, Strategy, TopologyPlan};
use clash_query::JoinQuery;
use clash_runtime::{EngineConfig, LocalEngine, MetricsSnapshot, ParallelEngine};

/// What one path produced.
#[derive(Debug)]
pub struct Run {
    /// Which engine, worker count and entry the stream took.
    pub path: String,
    /// The sorted rendered result multiset its subscription received.
    pub results: Vec<String>,
    /// The engine's metrics after the stream (after a barrier on
    /// `ParallelEngine`).
    pub metrics: MetricsSnapshot,
}

/// Feeds `stream` to `engine` through `ingest`, installing the plans of
/// `installs` (sorted by position) through `install`: a plan at position
/// `p` takes effect after `p` tuples, one past the end after the last.
fn feed<E>(
    engine: &mut E,
    stream: &[(RelationId, Tuple)],
    installs: &[(usize, &TopologyPlan)],
    install: impl Fn(&mut E, TopologyPlan),
    mut ingest: impl FnMut(&mut E, usize, RelationId, Tuple),
) {
    let mut pending = installs.iter().peekable();
    for (i, (relation, tuple)) in stream.iter().enumerate() {
        while let Some((_, plan)) = pending.next_if(|(at, _)| *at <= i) {
            install(engine, (*plan).clone());
        }
        ingest(engine, i, *relation, tuple.clone());
    }
    for (_, plan) in pending {
        install(engine, (*plan).clone());
    }
}

/// Runs `plan` over `stream` on `LocalEngine`, then on `ParallelEngine`
/// with each of `workers` through the coordinator's `ingest()` and
/// through a `SourceHandle`, installing the plans of `installs` at their
/// stream positions (as `feed` places them) on every path. A source-fed engine
/// never expires on its own, so the source path runs the
/// `expire_stores()` barrier every `config.expire_every` tuples, the
/// cadence the other paths expire at.
pub fn run_paths(
    catalog: &Catalog,
    plan: &TopologyPlan,
    config: EngineConfig,
    stream: &[(RelationId, Tuple)],
    workers: &[usize],
    installs: &[(usize, &TopologyPlan)],
) -> Vec<Run> {
    let mut runs = Vec::with_capacity(1 + 2 * workers.len());
    let mut local = LocalEngine::new(catalog.clone(), plan.clone(), config);
    let results = local.subscribe();
    let install = |e: &mut LocalEngine, plan| e.install_plan(plan).expect("install");
    let ingest = |e: &mut LocalEngine, _, relation, tuple| {
        e.ingest(relation, tuple).expect("ingest");
    };
    feed(&mut local, stream, installs, install, ingest);
    runs.push(Run {
        path: "LocalEngine".to_string(),
        results: received(&results),
        metrics: local.snapshot(),
    });

    let install = |e: &mut ParallelEngine, plan| {
        e.install_plan(plan).expect("install");
    };
    let ingest = |e: &mut ParallelEngine, _, relation, tuple| {
        e.ingest(relation, tuple).expect("ingest");
    };
    for &workers in workers {
        let mut engine = ParallelEngine::new(catalog.clone(), plan.clone(), config, workers);
        let results = engine.subscribe();
        feed(&mut engine, stream, installs, install, ingest);
        runs.push(Run {
            path: format!("ParallelEngine({workers}) ingest()"),
            metrics: engine.snapshot(),
            results: received(&results),
        });

        let mut engine = ParallelEngine::new(catalog.clone(), plan.clone(), config, workers);
        let results = engine.subscribe();
        let mut source = engine.open_source();
        let push = |e: &mut ParallelEngine, i: usize, relation, tuple| {
            source.push(relation, tuple).expect("push");
            let pushed = i as u64 + 1;
            if config.expire_every > 0 && pushed.is_multiple_of(config.expire_every) {
                e.expire_stores();
            }
        };
        feed(&mut engine, stream, installs, install, push);
        source.flush();
        runs.push(Run {
            path: format!("ParallelEngine({workers}) source"),
            metrics: engine.snapshot(),
            results: received(&results),
        });
    }
    runs
}

/// The `LocalEngine` path of [`run_paths`] alone, under the default
/// configuration and with no installs: the result multiset a parallel run
/// must reproduce on the same (realized) order.
pub fn local_results(
    catalog: &Catalog,
    plan: &TopologyPlan,
    stream: &[(RelationId, Tuple)],
) -> Vec<String> {
    let mut runs = run_paths(catalog, plan, EngineConfig::default(), stream, &[], &[]);
    runs.remove(0).results
}

/// `strategy`'s plan for `queries` under empty statistics.
pub fn planned(catalog: &Catalog, queries: &[JoinQuery], strategy: Strategy) -> TopologyPlan {
    let stats = Statistics::new();
    Planner::with_defaults(catalog, &stats)
        .plan(queries, strategy)
        .expect("plan")
        .plan
}
