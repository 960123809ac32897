//! Top-level planner with the three strategies compared in the paper's
//! evaluation (Section VII-A).

use crate::candidate::{enumerate_candidates, CandidateSet, PlanSpaceConfig};
use crate::ilp_builder::{build_ilp, extract_selection, Selection};
use crate::topology::{TopologyBuilder, TopologyPlan};
use clash_catalog::{Catalog, Statistics};
use clash_common::{ClashError, Result};
use clash_ilp::{solve, ModelStats, SolveStatus, SolverConfig};
use clash_query::JoinQuery;
use std::time::Duration;

/// Planning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// One isolated plan per query, no sharing of stores or probe work
    /// (the FI / SI baselines of Fig. 7).
    Independent,
    /// Per-query optimal plans with syntactically identical sub-plans and
    /// stores shared (the FS / SS baselines of Fig. 7).
    Shared,
    /// Global multi-query optimization through the ILP of Section V
    /// (CLASH-MQO).
    GlobalIlp,
}

impl Strategy {
    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Independent => "Independent",
            Strategy::Shared => "Shared",
            Strategy::GlobalIlp => "CMQO",
        }
    }
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlannerConfig {
    /// Plan-space enumeration limits and cost model.
    pub plan_space: PlanSpaceConfig,
    /// ILP solver limits.
    pub solver: SolverConfig,
}

/// Outcome of a planning run, including the measurements the experiments
/// plot (probe costs, ILP problem sizes, optimization runtime).
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// Strategy used.
    pub strategy: Strategy,
    /// The deployable topology.
    pub plan: TopologyPlan,
    /// The chosen probe orders.
    pub selection: Selection,
    /// Probe cost with sharing (each distinct step once) — the "MQO" series.
    pub shared_cost: f64,
    /// Sum of per-query individually-optimal probe costs — the
    /// "Individual" series.
    pub individual_cost: f64,
    /// Number of candidate probe orders enumerated (Fig. 9b / 9d).
    pub num_probe_orders: usize,
    /// ILP model size (only for [`Strategy::GlobalIlp`]).
    pub model_stats: Option<ModelStats>,
    /// ILP solve status (only for [`Strategy::GlobalIlp`]).
    pub solve_status: Option<SolveStatus>,
    /// Proven lower bound on the ILP optimum (only for
    /// [`Strategy::GlobalIlp`]); see [`Self::gap`].
    pub ilp_bound: Option<f64>,
    /// Branch-and-bound node at which the deployed selection was found, 0
    /// for the greedy warm start (only for [`Strategy::GlobalIlp`]).
    pub ilp_incumbent_node: Option<u64>,
    /// Wall-clock time spent optimizing (enumeration + ILP).
    pub optimization_time: Duration,
}

impl OptimizationReport {
    /// How far the plan may be from optimal: `(cost − bound) / cost` for
    /// the ILP's proven lower bound, so 0 (up to rounding) once the solver
    /// proved optimality (only for [`Strategy::GlobalIlp`]).
    pub fn gap(&self) -> Option<f64> {
        let bound = self.ilp_bound?;
        Some(if self.shared_cost > 0.0 {
            ((self.shared_cost - bound) / self.shared_cost).max(0.0)
        } else {
            0.0
        })
    }
}

thread_local! {
    /// [`Planner::plan`] calls made on this thread.
    static PLANS_RUN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The planner: holds the inputs shared by all strategies.
#[derive(Debug)]
pub struct Planner<'a> {
    catalog: &'a Catalog,
    stats: &'a Statistics,
    config: PlannerConfig,
}

impl<'a> Planner<'a> {
    /// Creates a planner over a catalog and a statistics snapshot.
    pub fn new(catalog: &'a Catalog, stats: &'a Statistics, config: PlannerConfig) -> Self {
        Planner {
            catalog,
            stats,
            config,
        }
    }

    /// Creates a planner with default configuration.
    pub fn with_defaults(catalog: &'a Catalog, stats: &'a Statistics) -> Self {
        Planner::new(catalog, stats, PlannerConfig::default())
    }

    /// How many times [`Self::plan`] has run on the calling thread. A plan
    /// is the expensive step of a deployment (seconds at the ILP node
    /// limit), so callers' tests pin how often they pay it.
    pub fn plans_run_on_this_thread() -> u64 {
        PLANS_RUN.with(std::cell::Cell::get)
    }

    /// Plans a workload with the given strategy.
    pub fn plan(&self, queries: &[JoinQuery], strategy: Strategy) -> Result<OptimizationReport> {
        if queries.is_empty() {
            return Err(ClashError::Optimization("empty workload".into()));
        }
        PLANS_RUN.with(|n| n.set(n.get() + 1));
        let started = std::time::Instant::now();
        let candidates =
            enumerate_candidates(self.catalog, self.stats, queries, &self.config.plan_space);
        let individual_cost: f64 = queries
            .iter()
            .map(|q| candidates.individual_cost(q.id))
            .sum();

        let (selection, model_stats, solution) = match strategy {
            Strategy::Independent | Strategy::Shared => {
                (greedy_per_query_selection(&candidates)?, None, None)
            }
            Strategy::GlobalIlp => {
                let artifacts = build_ilp(&candidates);
                let solution = solve(&artifacts.model, self.config.solver);
                let assignment = solution.assignment.as_ref().ok_or_else(|| {
                    ClashError::Optimization(format!(
                        "ILP solve failed with status {:?}",
                        solution.status
                    ))
                })?;
                let selection = extract_selection(&candidates, &artifacts, assignment)?;
                (selection, Some(artifacts.stats), Some(solution))
            }
        };

        let share_stores = !matches!(strategy, Strategy::Independent);
        let plan = TopologyBuilder::new(queries, share_stores).build(&selection)?;
        let shared_cost = match strategy {
            // Without sharing, every query pays its own probe cost.
            Strategy::Independent => individual_cost,
            _ => selection.shared_cost,
        };

        Ok(OptimizationReport {
            strategy,
            plan,
            selection,
            shared_cost,
            individual_cost,
            num_probe_orders: candidates.num_probe_orders(),
            model_stats,
            solve_status: solution.as_ref().map(|s| s.status),
            ilp_bound: solution.as_ref().map(|s| s.bound),
            ilp_incumbent_node: solution.as_ref().map(|s| s.incumbent_node),
            optimization_time: started.elapsed(),
        })
    }
}

/// Per-query locally optimal selection: the cheapest decorated candidate
/// for every (query, start) group, ignoring sharing. Used by both the
/// Independent and the Shared baselines (they differ only in whether the
/// topology builder deduplicates stores and prefixes).
///
/// Only base-relation probe orders are considered: the baselines model
/// per-query jobs on engines without intermediate-result materialization
/// (a cascade of symmetric joins), which also keeps their cost directly
/// comparable to [`CandidateSet::individual_cost`].
fn greedy_per_query_selection(candidates: &CandidateSet) -> Result<Selection> {
    let mut selection = Selection::default();
    for ((query, start), cands) in &candidates.per_start {
        let base_only = cands
            .iter()
            .filter(|c| c.stores.iter().all(|s| s.is_base()));
        let best = base_only
            .min_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .or_else(|| {
                cands.iter().min_by(|a, b| {
                    a.cost
                        .partial_cmp(&b.cost)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            })
            .ok_or_else(|| {
                ClashError::Optimization(format!(
                    "no candidate probe order for query {query} start {start}"
                ))
            })?;
        selection.query_orders.push(best.clone());
    }
    selection
        .query_orders
        .sort_by_key(|o| (o.produces, o.order.start));
    selection.recompute_shared_cost();
    Ok(selection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::{QueryId, Window};
    use clash_datagen::TpchWorkload;
    use clash_query::parse_query;

    fn setup() -> (Catalog, Statistics, Vec<JoinQuery>) {
        let mut catalog = Catalog::new();
        catalog
            .register("R", ["a"], Window::unbounded(), 1)
            .unwrap();
        catalog
            .register("S", ["a", "b"], Window::unbounded(), 2)
            .unwrap();
        catalog
            .register("T", ["b", "c"], Window::unbounded(), 2)
            .unwrap();
        catalog
            .register("U", ["c"], Window::unbounded(), 1)
            .unwrap();
        let mut stats = Statistics::new();
        for m in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            stats.set_rate(m, 100.0);
        }
        stats.default_selectivity = 0.01;
        stats.set_selectivity(
            catalog.attr("S", "b").unwrap(),
            catalog.attr("T", "b").unwrap(),
            0.015,
        );
        let q1 = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(b), T(b,c), U(c)").unwrap();
        (catalog, stats, vec![q1, q2])
    }

    #[test]
    fn planning_the_same_input_twice_gives_equal_plans() {
        // The ten-query TPC-H workload under GlobalIlp materializes several
        // intermediate stores, which maintenance orders feed through
        // `Forward` outputs: their order must not depend on hash seeds, or
        // the adaptive controller would see a new plan where there is none.
        // A node limit no solve reaches its time limit before keeps the
        // search itself the same on every run.
        let workload = TpchWorkload::new(2, Window::secs(3600)).unwrap();
        let queries = workload.ten_queries().unwrap();
        let config = PlannerConfig {
            solver: SolverConfig {
                node_limit: 1_000,
                time_limit: Duration::from_secs(3600),
                ..SolverConfig::default()
            },
            ..PlannerConfig::default()
        };
        let planner = Planner::new(&workload.catalog, &workload.stats, config);
        let plan = || planner.plan(&queries, Strategy::GlobalIlp).unwrap().plan;
        let first = plan();
        let mir = first.stores.iter().filter(|s| !s.descriptor.is_base());
        assert!(mir.count() >= 2, "the workload materializes intermediates");
        for run in 1..10 {
            assert!(plan() == first, "plan {run} differs from plan 0");
        }
    }

    #[test]
    fn all_strategies_produce_plans() {
        let (catalog, stats, queries) = setup();
        let planner = Planner::with_defaults(&catalog, &stats);
        // One probe order per (query, starting relation).
        let starts: usize = queries.iter().map(|q| q.relations.len()).sum();
        for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
            let report = planner.plan(&queries, strategy).unwrap();
            let label = strategy.label();
            assert!(report.plan.num_stores() > 0, "{label} plan has no stores");
            assert!(report.plan.num_rules() > 0);
            assert_eq!(report.selection.query_orders.len(), starts);
            assert!(report.shared_cost > 0.0);
            assert!(report.individual_cost > 0.0);
            assert!(report.num_probe_orders > 0);
        }
    }

    #[test]
    fn global_ilp_is_no_worse_than_shared_and_independent() {
        let (catalog, stats, queries) = setup();
        let planner = Planner::with_defaults(&catalog, &stats);
        let independent = planner.plan(&queries, Strategy::Independent).unwrap();
        let shared = planner.plan(&queries, Strategy::Shared).unwrap();
        let mqo = planner.plan(&queries, Strategy::GlobalIlp).unwrap();
        assert!(mqo.shared_cost <= shared.shared_cost + 1e-6);
        assert!(shared.shared_cost <= independent.shared_cost + 1e-6);
        // For this workload global optimization is strictly better than
        // independent execution (the S⋈T step is shared).
        assert!(mqo.shared_cost < independent.shared_cost - 1e-6);
        assert!(mqo.model_stats.is_some());
        assert_eq!(mqo.solve_status, Some(SolveStatus::Optimal));
        assert!(mqo.gap().unwrap() < 1e-12, "a proven optimum has no gap");
        assert!(independent.model_stats.is_none());
        assert_eq!(independent.gap(), None);
    }

    #[test]
    fn independent_plans_use_more_stores_than_shared() {
        let (catalog, stats, queries) = setup();
        let planner = Planner::with_defaults(&catalog, &stats);
        let independent = planner.plan(&queries, Strategy::Independent).unwrap();
        let shared = planner.plan(&queries, Strategy::Shared).unwrap();
        assert!(independent.plan.num_stores() > shared.plan.num_stores());
        assert!(independent.plan.num_workers() > shared.plan.num_workers());
    }

    #[test]
    fn empty_workload_is_rejected() {
        let (catalog, stats, _) = setup();
        let planner = Planner::with_defaults(&catalog, &stats);
        assert!(planner.plan(&[], Strategy::GlobalIlp).is_err());
    }

    #[test]
    fn single_query_mqo_matches_individual_cost() {
        let (catalog, stats, queries) = setup();
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries[..1], Strategy::GlobalIlp).unwrap();
        // With a single query there is nothing to share across queries, but
        // probe-order prefixes within the query can still be shared, so the
        // shared cost is at most the individual cost.
        assert!(report.shared_cost <= report.individual_cost + 1e-6);
    }

    #[test]
    fn optimization_time_is_recorded() {
        let (catalog, stats, queries) = setup();
        let planner = Planner::with_defaults(&catalog, &stats);
        let report = planner.plan(&queries, Strategy::GlobalIlp).unwrap();
        assert!(report.optimization_time > Duration::ZERO);
    }
}
