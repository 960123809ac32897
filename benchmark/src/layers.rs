//! Layer measurements of the traced pass: the planning pipeline called
//! stage by stage, and replays of the workload's own tuples against the
//! store and tuple layers.

use crate::harness::{planner_config, Deployed, Inputs, EXPIRE_EVERY};
use crate::spans::Recorder;
use crate::workloads::EngineKind;
use clash_catalog::Catalog;
use clash_common::{AttrRef, ClashError, Epoch, EpochConfig, Result, Tuple};
use clash_optimizer::{
    build_ilp, enumerate_candidates, extract_selection, Rule, TopologyBuilder, TopologyPlan,
};
use clash_runtime::store::partition_hash;
use clash_runtime::{EngineConfig, StoreInstance};
use std::hint::black_box;
use std::time::Instant;

/// Counts the planning pipeline reports.
#[derive(Debug, Clone, Copy)]
pub struct PlanFacts {
    /// Candidate probe orders enumerated.
    pub probe_orders: usize,
    /// Stores in the plan.
    pub stores: usize,
    /// Stores holding intermediate results (more than one relation).
    pub mir_stores: usize,
    /// Probe cost with sharing.
    pub shared_cost: f64,
    /// Sum of the per-query individually optimal probe costs.
    pub individual_cost: f64,
    /// Branch-and-bound nodes explored.
    pub ilp_nodes: u64,
    /// ILP variables.
    pub ilp_variables: usize,
    /// ILP constraints.
    pub ilp_constraints: usize,
    /// The solver proved optimality.
    pub ilp_optimal: bool,
    /// Diagnostics the analyzer reported (warnings included).
    pub diagnostics: usize,
}

/// `Planner::plan(.., Strategy::GlobalIlp)` followed by the install gate
/// and engine construction, with a span around each stage. Calls the same
/// public functions in the same order as the planner does.
pub fn traced_setup(
    inputs: &Inputs,
    kind: EngineKind,
    rec: &mut Recorder,
) -> Result<(TopologyPlan, PlanFacts)> {
    let catalog = &inputs.tpch.catalog;
    let config = planner_config();
    let candidates = rec.scope("optimizer.enumerate", |_| {
        enumerate_candidates(
            catalog,
            &inputs.tpch.stats,
            &inputs.queries,
            &config.plan_space,
        )
    });
    let artifacts = rec.scope("optimizer.build_ilp", |_| build_ilp(&candidates));
    let solution = rec.scope("ilp.solve", |_| {
        clash_ilp::solve(&artifacts.model, config.solver)
    });
    let assignment = solution
        .assignment
        .as_ref()
        .ok_or_else(|| ClashError::Optimization(format!("ILP status {:?}", solution.status)))?;
    let (selection, plan) = rec.scope("optimizer.topology", |_| -> Result<_> {
        let selection = extract_selection(&candidates, &artifacts, assignment)?;
        let plan = TopologyBuilder::new(&inputs.queries, true).build(&selection)?;
        Ok((selection, plan))
    })?;
    let diagnostics = rec.scope("analyzer.verify", |_| {
        clash_analyzer::verify_plan(catalog, &plan)
    });
    clash_analyzer::gate(catalog, &plan)?;
    let engine = rec.scope("engine.construct", |_| {
        Deployed::new(catalog, plan.clone(), kind, true)
    });
    drop(engine);
    let facts = PlanFacts {
        probe_orders: candidates.num_probe_orders(),
        stores: plan.num_stores(),
        mir_stores: plan
            .stores
            .iter()
            .filter(|s| !s.descriptor.is_base())
            .count(),
        shared_cost: selection.shared_cost,
        individual_cost: inputs
            .queries
            .iter()
            .map(|q| candidates.individual_cost(q.id))
            .sum(),
        ilp_nodes: solution.nodes,
        ilp_variables: artifacts.stats.variables,
        ilp_constraints: artifacts.stats.constraints,
        ilp_optimal: solution.status == clash_ilp::SolveStatus::Optimal,
        diagnostics: diagnostics.len(),
    };
    Ok((plan, facts))
}

/// Stored-side attributes of every probe rule registered at `store`: what
/// the engines index when they build the store.
fn indexed_attrs(plan: &TopologyPlan, store: clash_common::StoreId) -> Vec<AttrRef> {
    let Some(def) = plan.store(store) else {
        return Vec::new();
    };
    let mut attrs = Vec::new();
    for ((id, _), rules) in &plan.rules {
        if *id != store {
            continue;
        }
        for rule in rules {
            if let Rule::Probe { predicates, .. } = rule {
                for p in predicates {
                    let stored_side = if def.descriptor.relations.contains(p.left.relation) {
                        p.left
                    } else {
                        p.right
                    };
                    if !attrs.contains(&stored_side) {
                        attrs.push(stored_side);
                    }
                }
            }
        }
    }
    attrs
}

/// Mean costs of the store layer under the workload's own access pattern.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreReplay {
    /// Mean ns per `insert`.
    pub insert_ns: f64,
    /// Mean ns per `probe` that matched at least one stored tuple.
    pub probe_hit_ns: f64,
    /// Mean ns per `probe` that matched nothing.
    pub probe_miss_ns: f64,
    /// Matches per probe.
    pub hits_per_probe: f64,
    /// `freeze_before` ns per replayed tuple.
    pub freeze_ns_per_tuple: f64,
    /// `expire` ns per replayed tuple.
    pub expire_ns_per_tuple: f64,
}

fn mean(total_ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_ns as f64 / n as f64
    }
}

/// Replays the first hop of every input tuple — the `Store` and `Probe`
/// rules its ingest routes lead to — against `StoreInstance`s built from
/// the plan's descriptors, with the engine's freeze and expiry cadence.
/// Each call is timed on its own (two clock reads, about 40 ns, are part
/// of every mean). Warm-up tuples fill the stores untimed.
pub fn replay_stores(inputs: &Inputs, plan: &TopologyPlan, rec: &mut Recorder) -> StoreReplay {
    let span = rec.begin("store.replay", 0);
    let catalog = &inputs.tpch.catalog;
    let config = EngineConfig::default();
    let mut stores: Vec<StoreInstance> = plan
        .stores
        .iter()
        .map(|def| {
            StoreInstance::new(
                def.descriptor,
                store_window(catalog, def.descriptor.relations),
                indexed_attrs(plan, def.id),
            )
        })
        .collect();

    let (mut insert_ns, mut inserts) = (0u64, 0u64);
    let (mut hit_ns, mut hits, mut miss_ns, mut misses, mut matches) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut freeze_ns, mut expire_ns) = (0u64, 0u64);
    let mut max_ts = clash_common::Timestamp::ZERO;
    for (i, (relation, tuple)) in inputs.stream.iter().enumerate() {
        let timed = i >= inputs.warmup;
        max_ts = max_ts.max(tuple.ts);
        let epoch = config.epoch.epoch_of(tuple.ts);
        for target in plan.ingest_for(*relation) {
            let Some(rules) = plan.rules.get(&(target.store, target.edge)) else {
                continue;
            };
            let store = &mut stores[target.store.index()];
            let partitions: Vec<usize> = match target.routing_key.and_then(|a| tuple.get(&a)) {
                Some(value) => vec![partition_hash(value, store.parallelism())],
                None => (0..store.parallelism()).collect(),
            };
            for rule in rules {
                match rule {
                    Rule::Store => {
                        let p = if partitions.len() == 1 {
                            partitions[0]
                        } else {
                            store.partition_for(tuple)
                        };
                        let started = Instant::now();
                        store.insert(p, epoch, tuple.clone());
                        if timed {
                            insert_ns += started.elapsed().as_nanos() as u64;
                            inserts += 1;
                        }
                    }
                    Rule::Probe { predicates, .. } => {
                        let epochs = probe_epochs(&config.epoch, store, tuple);
                        let started = Instant::now();
                        let mut found = 0;
                        for &p in &partitions {
                            found += black_box(store.probe(p, &epochs, tuple, predicates)).len();
                        }
                        let ns = started.elapsed().as_nanos() as u64;
                        if timed && found > 0 {
                            hit_ns += ns;
                            hits += 1;
                            matches += found as u64;
                        } else if timed {
                            miss_ns += ns;
                            misses += 1;
                        }
                    }
                }
            }
        }
        if (i as u64 + 1).is_multiple_of(EXPIRE_EVERY) {
            let clock = config.epoch.epoch_of(max_ts);
            let horizon = Epoch(clock.0.saturating_sub(config.freeze_after_epochs));
            let started = Instant::now();
            for store in &mut stores {
                store.freeze_before(horizon);
            }
            let frozen = Instant::now();
            for store in &mut stores {
                let horizon = store.window.horizon(max_ts);
                store.expire(horizon);
            }
            if timed {
                freeze_ns += (frozen - started).as_nanos() as u64;
                expire_ns += frozen.elapsed().as_nanos() as u64;
            }
        }
    }
    rec.end(span);
    let measured = inputs.measured().len() as u64;
    StoreReplay {
        insert_ns: mean(insert_ns, inserts),
        probe_hit_ns: mean(hit_ns, hits),
        probe_miss_ns: mean(miss_ns, misses),
        hits_per_probe: mean(matches, hits + misses),
        freeze_ns_per_tuple: mean(freeze_ns, measured),
        expire_ns_per_tuple: mean(expire_ns, measured),
    }
}

/// A store's window: the widest window of its member relations.
fn store_window(catalog: &Catalog, relations: clash_common::RelationSet) -> clash_common::Window {
    relations
        .iter()
        .filter_map(|r| catalog.relation(r).ok().map(|m| m.window))
        .max_by_key(|w| w.length)
        .unwrap_or_default()
}

/// Epochs that may hold partners of `probe`: window horizon to its own.
fn probe_epochs(epoch: &EpochConfig, store: &StoreInstance, probe: &Tuple) -> Vec<Epoch> {
    let lo = epoch.epoch_of(store.window.horizon(probe.ts));
    let hi = epoch.epoch_of(probe.ts);
    (lo.0..=hi.0).map(Epoch).collect()
}

/// Mean costs of the tuple layer on the workload's own tuples.
#[derive(Debug, Clone, Copy, Default)]
pub struct TupleCosts {
    /// ns to rebuild a base tuple from its values.
    pub build_ns: f64,
    /// ns per `join` of two tuples of different relations.
    pub join_ns: f64,
    /// ns per `get` of an attribute of a joined pair.
    pub get_ns: f64,
}

/// Times `Tuple::base`, `Tuple::join` and `Tuple::get` over (at most) the
/// first 50 000 measured tuples.
pub fn tuple_costs(inputs: &Inputs, rec: &mut Recorder) -> TupleCosts {
    let span = rec.begin("tuple.replay", 0);
    let sample = &inputs.measured()[..inputs.measured().len().min(50_000)];

    let values: Vec<Vec<(AttrRef, clash_common::Value)>> =
        sample.iter().map(|(_, t)| t.flatten()).collect();
    let n = sample.len().max(1) as f64;
    let started = Instant::now();
    for ((relation, tuple), values) in sample.iter().zip(values) {
        black_box(Tuple::base(*relation, tuple.ts, values));
    }
    let build_ns = started.elapsed().as_nanos() as f64 / n;

    let pairs: Vec<(&Tuple, &Tuple)> = sample
        .windows(2)
        .filter(|w| w[0].0 != w[1].0)
        .map(|w| (&w[0].1, &w[1].1))
        .collect();
    let started = Instant::now();
    let joined: Vec<Tuple> = pairs
        .iter()
        .filter_map(|(a, b)| black_box(a.join(b)))
        .collect();
    let join_ns = started.elapsed().as_nanos() as f64 / pairs.len().max(1) as f64;

    let attrs: Vec<AttrRef> = joined
        .iter()
        .map(|t| {
            t.iter()
                .last()
                .map(|(attr, _)| attr)
                .expect("non-empty tuple")
        })
        .collect();
    let started = Instant::now();
    for (tuple, attr) in joined.iter().zip(&attrs) {
        black_box(tuple.get(black_box(attr)));
    }
    let get_ns = started.elapsed().as_nanos() as f64 / joined.len().max(1) as f64;
    rec.end(span);
    TupleCosts {
        build_ns,
        join_ns,
        get_ns,
    }
}
