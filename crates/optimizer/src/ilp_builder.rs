//! ILP construction (Algorithm 2) and solution extraction.
//!
//! Variables:
//!
//! * one binary `x_σ` per decorated probe order candidate of every
//!   `(query, starting relation)` pair,
//! * one binary `x'` per sub-query probe order maintaining an intermediate
//!   result store,
//! * one binary `y_ρ` per distinct *step* ([`StepKey`]), carrying the step
//!   cost as its objective coefficient. Steps shared between candidates of
//!   different queries reuse the same variable — that is where
//!   multi-query sharing enters the objective.
//!
//! Constraints (cf. the example in Fig. 3 of the paper):
//!
//! * `Σ_σ x_σ = 1` for every `(query, start)` group (Equation 2),
//! * `-PCost(σ)·x_σ + Σ_j StepCost(ρ_j)·y_{ρ_j} ≥ 0` for every candidate
//!   (Equation 3): selecting a candidate forces all of its steps,
//! * `-x_σ + x'_{M,j} ≥ 0` for every intermediate store `M` probed by `σ`
//!   and every input relation `j` of `M`: the store must be maintained by
//!   a probe order from every one of its inputs,
//! * the same cost constraints for the sub-query probe orders `x'`.

use crate::candidate::{CandidateSet, DecoratedProbeOrder, PredicateText, StepKey, SubqueryKey};
use clash_common::{ClashError, QueryId, RelationId, Result};
use clash_ilp::{Assignment, LinExpr, Model, ModelStats, Sense, VarId};
use std::collections::{BTreeMap, HashMap};

/// The constructed model together with the bookkeeping needed to interpret
/// its solution.
#[derive(Debug, Clone)]
pub struct IlpArtifacts {
    /// The 0/1 ILP.
    pub model: Model,
    /// Candidate variable per (query, start, candidate index).
    pub candidate_vars: HashMap<(QueryId, RelationId, usize), VarId>,
    /// Sub-query maintenance variable per intermediate store input, in key
    /// order.
    pub subquery_vars: BTreeMap<SubqueryKey, VarId>,
    /// Step variable and step cost per step key.
    pub step_vars: HashMap<StepKey, (VarId, f64)>,
    /// Model size statistics (Fig. 9b / 9d).
    pub stats: ModelStats,
}

/// The probe orders chosen by the optimizer.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// One decorated probe order per (query, starting relation).
    pub query_orders: Vec<DecoratedProbeOrder>,
    /// Maintenance probe orders for every intermediate store that the
    /// chosen query orders probe, in [`SubqueryKey`] order.
    pub subquery_orders: Vec<DecoratedProbeOrder>,
    /// Total shared probe cost: every distinct step counted once (the MQO
    /// objective of Fig. 9a / 9c).
    pub shared_cost: f64,
}

impl Selection {
    /// All chosen probe orders (query plus maintenance).
    pub fn all_orders(&self) -> impl Iterator<Item = &DecoratedProbeOrder> {
        self.query_orders.iter().chain(self.subquery_orders.iter())
    }

    /// Recomputes the shared cost from the step keys (each distinct step
    /// counted once, summed in the order of the steps' ILP names so the
    /// value repeats exactly).
    pub fn recompute_shared_cost(&mut self) {
        let mut seen: BTreeMap<String, f64> = BTreeMap::new();
        for order in self.all_orders() {
            for (key, cost) in order.step_keys.iter().zip(&order.step_costs) {
                seen.entry(key.to_string()).or_insert(*cost);
            }
        }
        self.shared_cost = seen.values().sum();
    }
}

fn step_var(
    model: &mut Model,
    step_vars: &mut HashMap<StepKey, (VarId, f64)>,
    key: &StepKey,
    cost: f64,
) -> VarId {
    if let Some((v, _)) = step_vars.get(key) {
        return *v;
    }
    let v = model.add_binary(format!("y[{key}]"), cost);
    step_vars.insert(key.clone(), (v, cost));
    v
}

/// Builds the multi-query optimization ILP from an enumerated plan space.
pub fn build_ilp(candidates: &CandidateSet) -> IlpArtifacts {
    let mut model = Model::new();
    let mut candidate_vars = HashMap::new();
    let mut subquery_vars = BTreeMap::new();
    let mut step_vars: HashMap<StepKey, (VarId, f64)> = HashMap::new();

    // Sub-query maintenance variables and their cost constraints, in key
    // order: variable numbering must not depend on a map's hash seed.
    for (key, order) in &candidates.subquery_orders {
        let (relations, start, predicates) = key;
        let name = format!(
            "x'[mir={} start=R{} {}]",
            relations.bits(),
            start.0,
            PredicateText(*predicates)
        );
        let x = model.add_binary(name, 0.0);
        subquery_vars.insert(*key, x);
        let mut expr = LinExpr::new();
        expr.add(x, -order.cost);
        for (step_key, step_cost) in order.step_keys.iter().zip(&order.step_costs) {
            let y = step_var(&mut model, &mut step_vars, step_key, *step_cost);
            expr.add(y, *step_cost);
        }
        model.add_constraint(format!("cost[{}]", model.var_name(x)), expr, Sense::Ge, 0.0);
    }

    // Candidate variables, choice constraints, cost constraints and
    // intermediate-store requirements.
    let mut groups: Vec<(&(QueryId, RelationId), &Vec<DecoratedProbeOrder>)> =
        candidates.per_start.iter().collect();
    groups.sort_by_key(|((q, s), _)| (q.0, s.0));
    for ((query, start), cands) in groups {
        let mut group_vars = Vec::with_capacity(cands.len());
        for (idx, cand) in cands.iter().enumerate() {
            let x = model.add_binary(format!("x[{query} {start} #{idx}]"), 0.0);
            candidate_vars.insert((*query, *start, idx), x);
            group_vars.push(x);

            // Cost constraint: selecting the candidate forces its steps.
            let mut expr = LinExpr::new();
            expr.add(x, -cand.cost);
            for (step_key, step_cost) in cand.step_keys.iter().zip(&cand.step_costs) {
                let y = step_var(&mut model, &mut step_vars, step_key, *step_cost);
                expr.add(y, *step_cost);
            }
            model.add_constraint(
                format!("cost[{query} {start} #{idx}]"),
                expr,
                Sense::Ge,
                0.0,
            );

            // Intermediate stores probed by the candidate must be
            // maintained from each of their inputs.
            for store in cand.intermediate_stores() {
                for input in store.relations.iter() {
                    let key: SubqueryKey = (store.relations, input, store.predicates);
                    if let Some(x_sub) = subquery_vars.get(&key) {
                        model.add_implies_any(
                            format!(
                                "maintain[{query} {start} #{idx} mir={} from {input}]",
                                store.relations
                            ),
                            x,
                            [*x_sub],
                        );
                    }
                }
            }
        }
        model.add_choose_one(format!("choose[{query} {start}]"), group_vars);
    }

    let stats = model.stats();
    IlpArtifacts {
        model,
        candidate_vars,
        subquery_vars,
        step_vars,
        stats,
    }
}

/// Extracts the chosen probe orders from a feasible assignment.
pub fn extract_selection(
    candidates: &CandidateSet,
    artifacts: &IlpArtifacts,
    assignment: &Assignment,
) -> Result<Selection> {
    let mut selection = Selection::default();
    for ((query, start), cands) in &candidates.per_start {
        let mut chosen = None;
        for (idx, cand) in cands.iter().enumerate() {
            let var = artifacts.candidate_vars[&(*query, *start, idx)];
            if assignment.get(var) {
                chosen = Some(cand.clone());
                break;
            }
        }
        match chosen {
            Some(c) => selection.query_orders.push(c),
            None => {
                return Err(ClashError::Optimization(format!(
                    "no probe order selected for query {query} start {start}"
                )))
            }
        }
    }
    for (key, var) in &artifacts.subquery_vars {
        if assignment.get(*var) {
            selection
                .subquery_orders
                .push(candidates.subquery_orders[key].clone());
        }
    }
    // Deterministic order helps the topology builder and the tests; the
    // maintenance orders are already in key order.
    selection
        .query_orders
        .sort_by_key(|o| (o.produces, o.order.start));
    selection.recompute_shared_cost();
    Ok(selection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{enumerate_candidates, PlanSpaceConfig};
    use clash_catalog::{Catalog, Statistics};
    use clash_common::Window;
    use clash_datagen::TpchWorkload;
    use clash_ilp::{solve, SolveStatus, SolverConfig};
    use clash_query::parse_query;
    use std::collections::BTreeSet;
    use std::time::Duration;

    fn setup() -> (Catalog, Statistics, Vec<clash_query::JoinQuery>) {
        let mut catalog = Catalog::new();
        catalog
            .register("R", ["a"], Window::unbounded(), 1)
            .unwrap();
        catalog
            .register("S", ["a", "b"], Window::unbounded(), 1)
            .unwrap();
        catalog
            .register("T", ["b", "c"], Window::unbounded(), 1)
            .unwrap();
        catalog
            .register("U", ["c"], Window::unbounded(), 1)
            .unwrap();
        let mut stats = Statistics::new();
        for m in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            stats.set_rate(m, 100.0);
        }
        // |S ⋈ T| = 150, all other joins 100 (the Section V-2 example).
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

    fn base_only_config() -> PlanSpaceConfig {
        PlanSpaceConfig {
            materialize_intermediates: false,
            ..PlanSpaceConfig::default()
        }
    }

    #[test]
    fn model_has_one_choice_constraint_per_query_start() {
        let (catalog, stats, queries) = setup();
        let cands = enumerate_candidates(&catalog, &stats, &queries, &base_only_config());
        let artifacts = build_ilp(&cands);
        let choice_count = artifacts
            .model
            .constraints()
            .iter()
            .filter(|c| c.name.starts_with("choose["))
            .count();
        assert_eq!(
            choice_count, 6,
            "two 3-relation queries = 6 (query, start) groups"
        );
        assert!(artifacts.stats.variables > 0);
        assert_eq!(artifacts.stats.variables, artifacts.model.num_vars());
    }

    #[test]
    fn solving_the_example_shares_the_st_step() {
        let (catalog, stats, queries) = setup();
        let cands = enumerate_candidates(&catalog, &stats, &queries, &base_only_config());
        let artifacts = build_ilp(&cands);
        let solution = solve(&artifacts.model, SolverConfig::default());
        assert_eq!(solution.status, SolveStatus::Optimal);
        let selection =
            extract_selection(&cands, &artifacts, solution.assignment.as_ref().unwrap()).unwrap();
        assert_eq!(selection.query_orders.len(), 6);
        // Shared cost equals the ILP objective.
        assert!((selection.shared_cost - solution.objective).abs() < 1e-6);
        // Sharing must not be worse than fully individual optimization and
        // for this workload is strictly better.
        let individual: f64 = queries.iter().map(|q| cands.individual_cost(q.id)).sum();
        assert!(
            selection.shared_cost < individual - 1e-6,
            "shared {} vs individual {individual}",
            selection.shared_cost
        );
    }

    #[test]
    fn selection_extraction_requires_a_choice_per_group() {
        let (catalog, stats, queries) = setup();
        let cands = enumerate_candidates(&catalog, &stats, &queries, &base_only_config());
        let artifacts = build_ilp(&cands);
        // An all-zero assignment selects nothing -> error.
        let empty = Assignment::zeros(artifacts.model.num_vars());
        assert!(extract_selection(&cands, &artifacts, &empty).is_err());
    }

    #[test]
    fn intermediate_stores_force_maintenance_orders() {
        let (catalog, stats, queries) = setup();
        let config = PlanSpaceConfig::default();
        let cands = enumerate_candidates(&catalog, &stats, &queries, &config);
        let artifacts = build_ilp(&cands);
        assert!(!artifacts.subquery_vars.is_empty());
        let solution = solve(&artifacts.model, SolverConfig::default());
        assert_eq!(solution.status, SolveStatus::Optimal);
        let selection =
            extract_selection(&cands, &artifacts, solution.assignment.as_ref().unwrap()).unwrap();
        // If any chosen query order probes an intermediate store, then the
        // matching maintenance orders must be part of the selection.
        let probed_mirs: Vec<_> = selection
            .query_orders
            .iter()
            .flat_map(|o| o.intermediate_stores().map(|s| s.relations))
            .collect();
        for mir in probed_mirs {
            for input in mir.iter() {
                assert!(
                    selection
                        .subquery_orders
                        .iter()
                        .any(|o| o.order.covered() == mir && o.order.start == input),
                    "intermediate store {mir} lacks a maintenance order from {input}"
                );
            }
        }
    }

    #[test]
    fn step_variables_are_shared_between_queries() {
        let (catalog, stats, queries) = setup();
        let cands = enumerate_candidates(&catalog, &stats, &queries, &base_only_config());
        let artifacts = build_ilp(&cands);
        // Fewer step variables than total steps across candidates proves
        // sharing (every candidate has >= 1 step).
        let total_steps: usize = cands
            .per_start
            .values()
            .flat_map(|v| v.iter())
            .map(|c| c.step_keys.len())
            .sum();
        assert!(artifacts.step_vars.len() < total_steps);
    }

    /// The Fig. 7 five-query TPC-H workload's plan space (5 s windows).
    fn five_query_candidates() -> CandidateSet {
        let workload = TpchWorkload::new(2, Window::secs(5)).unwrap();
        let queries = workload.five_queries().unwrap();
        enumerate_candidates(
            &workload.catalog,
            &workload.stats,
            &queries,
            &PlanSpaceConfig::default(),
        )
    }

    /// The ten-query extension of the same workload (5 s windows).
    fn ten_query_candidates() -> CandidateSet {
        let workload = TpchWorkload::new(2, Window::secs(5)).unwrap();
        let queries = workload.ten_queries().unwrap();
        enumerate_candidates(
            &workload.catalog,
            &workload.stats,
            &queries,
            &PlanSpaceConfig::default(),
        )
    }

    #[test]
    fn model_construction_repeats_exactly() {
        // Variable numbering must not follow a hash map's per-instance seed:
        // it decides the solver's search order.
        let build = || build_ilp(&five_query_candidates()).model.to_string();
        assert_eq!(build(), build());
    }

    #[test]
    fn five_query_model_names_are_distinct() {
        // A name is what a model dump or a solver diagnostic shows: two
        // variables or two constraints under one name cannot be told apart.
        let model = build_ilp(&five_query_candidates()).model;
        let mut vars = BTreeSet::new();
        for name in model.vars().map(|v| model.var_name(v)) {
            assert!(vars.insert(name), "variable {name}");
        }
        let mut constraints = BTreeSet::new();
        for c in model.constraints() {
            assert!(constraints.insert(c.name.as_str()), "constraint {}", c.name);
        }
    }

    /// Every variable set to 1 by [`five_query_search_is_pinned`]'s solve,
    /// in variable order.
    const FIVE_QUERY_ONES: [&str; 72] = [
        "y[start:0|2@-x1|P:0.0=1.1]",
        "y[start:1|4@2.1x2|P:1.0=2.1]",
        "y[start:2|2@-x1|P:1.0=2.1]",
        "y[start:0|2@-x1|4@2.1x2|P:0.0=1.1,1.0=2.1]",
        "y[start:2|2@-x1|1@-x1|P:0.0=1.1,1.0=2.1]",
        "x'[mir=36 start=R2 P:2.0=5.1]",
        "y[start:2|32@5.1x2|P:2.0=5.1]",
        "x'[mir=36 start=R5 P:2.0=5.1]",
        "y[start:5|4@2.0x2|P:2.0=5.1]",
        "x'[mir=38 start=R1 P:1.0=2.1,2.0=5.1]",
        "y[start:1|4@2.1x2|32@5.1x2|P:1.0=2.1,2.0=5.1]",
        "x'[mir=38 start=R2 P:1.0=2.1,2.0=5.1]",
        "y[start:2|2@-x1|32@5.1x2|P:1.0=2.1,2.0=5.1]",
        "x'[mir=38 start=R5 P:1.0=2.1,2.0=5.1]",
        "y[start:5|4@2.0x2|2@-x1|P:1.0=2.1,2.0=5.1]",
        "x'[mir=48 start=R4 P:4.0=5.0]",
        "y[start:4|32@5.0x2|P:4.0=5.0]",
        "x'[mir=48 start=R5 P:4.0=5.0]",
        "y[start:5|16@4.0x2|P:4.0=5.0]",
        "y[start:2|32@5.1x2|16@4.0x2|P:2.0=5.1,4.0=5.0]",
        "y[start:4|32@5.0x2|4@2.0x2|P:2.0=5.1,4.0=5.0]",
        "y[start:5|4@2.0x2|16@4.0x2|P:2.0=5.1,4.0=5.0]",
        "y[start:7|16@4.0x2|P:4.0=7.1]",
        "y[start:2|32@5.1x2|128@7.1x2|P:2.0=5.1,5.0=7.1]",
        "y[start:4|32@5.0x2|128@7.2x2|P:4.0=5.0,5.1=7.2]",
        "y[start:5|16@4.0x2|128@7.2x2|P:4.0=5.0,5.1=7.2]",
        "y[start:7|16@4.0x2|32@5.0x2|P:4.0=5.0,4.0=7.1]",
        "x'[mir=192 start=R6 P:6.0=7.0]",
        "y[start:6|128@7.0x2|P:6.0=7.0]",
        "x'[mir=192 start=R7 P:6.0=7.0]",
        "y[start:7|64@6.0x2|P:6.0=7.0]",
        "y[start:7|64@6.0x2|32@5.1x2|P:5.1=7.2,6.0=7.0]",
        "x[Q0 R0 #3]",
        "y[start:0|2@-x1|4@2.1x2|32@5.1x2|P:0.0=1.1,1.0=2.1,2.0=5.1]",
        "x[Q0 R1 #13]",
        "y[start:1|4@2.1x2|32@5.1x2|1@-x1|P:0.0=1.1,1.0=2.1,2.0=5.1]",
        "x[Q0 R2 #1]",
        "y[start:2|2@-x1|1@-x1|32@5.1x2|P:0.0=1.1,1.0=2.1,2.0=5.1]",
        "x[Q0 R5 #0]",
        "y[start:5|4@2.0x2|2@-x1|1@-x1|P:0.0=1.1,1.0=2.1,2.0=5.1]",
        "x[Q1 R1 #3]",
        "y[start:1|4@2.1x2|32@5.1x2|16@4.0x2|P:1.0=2.1,2.0=5.1,4.0=5.0]",
        "x[Q1 R2 #1]",
        "y[start:2|2@-x1|32@5.1x2|16@4.0x2|P:1.0=2.1,2.0=5.1,4.0=5.0]",
        "x[Q1 R4 #11]",
        "y[start:4|38@5.0x2|P:1.0=2.1,2.0=5.1,4.0=5.0]",
        "x[Q1 R5 #0]",
        "y[start:5|4@2.0x2|2@-x1|16@4.0x2|P:1.0=2.1,2.0=5.1,4.0=5.0]",
        "x[Q2 R2 #4]",
        "y[start:2|32@5.1x2|16@4.0x2|128@7.1x2|P:2.0=5.1,4.0=5.0,4.0=7.1]",
        "x[Q2 R4 #1]",
        "y[start:4|32@5.0x2|4@2.0x2|128@7.1x2|P:2.0=5.1,4.0=5.0,4.0=7.1]",
        "x[Q2 R5 #1]",
        "y[start:5|4@2.0x2|16@4.0x2|128@7.1x2|P:2.0=5.1,4.0=5.0,4.0=7.1]",
        "x[Q2 R7 #0]",
        "y[start:7|16@4.0x2|32@5.0x2|4@2.0x2|P:2.0=5.1,4.0=5.0,4.0=7.1]",
        "x[Q3 R2 #4]",
        "y[start:2|32@5.1x2|128@7.1x2|64@6.0x2|P:2.0=5.1,5.0=7.1,6.0=7.0]",
        "x[Q3 R5 #6]",
        "y[start:5|4@2.0x2|192@7.1x2|P:2.0=5.1,5.0=7.1,6.0=7.0]",
        "x[Q3 R6 #13]",
        "y[start:6|128@7.0x2|36@5.0x2|P:2.0=5.1,5.0=7.1,6.0=7.0]",
        "x[Q3 R7 #15]",
        "y[start:7|64@6.0x2|36@5.0x2|P:2.0=5.1,5.0=7.1,6.0=7.0]",
        "x[Q4 R4 #2]",
        "y[start:4|32@5.0x2|128@7.2x2|64@6.0x2|P:4.0=5.0,5.1=7.2,6.0=7.0]",
        "x[Q4 R5 #2]",
        "y[start:5|16@4.0x2|128@7.2x2|64@6.0x2|P:4.0=5.0,5.1=7.2,6.0=7.0]",
        "x[Q4 R6 #7]",
        "y[start:6|128@7.0x2|48@5.1x2|P:4.0=5.0,5.1=7.2,6.0=7.0]",
        "x[Q4 R7 #7]",
        "y[start:7|64@6.0x2|32@5.1x2|16@4.0x2|P:4.0=5.0,5.1=7.2,6.0=7.0]",
    ];

    /// Pins the solver's search on the five-query model: with 20 000 nodes
    /// and no time limit, the node count, the objective's bits, the node
    /// that found the incumbent and the variables set to 1. A change to the
    /// model, the bound, propagation or branching moves at least one.
    #[test]
    fn five_query_search_is_pinned() {
        let artifacts = build_ilp(&five_query_candidates());
        let config = SolverConfig {
            node_limit: 20_000,
            time_limit: Duration::MAX,
            ..SolverConfig::default()
        };
        let solution = solve(&artifacts.model, config);
        assert_eq!(solution.status, SolveStatus::Feasible);
        assert_eq!(solution.nodes, 20_000);
        assert_eq!(solution.objective.to_bits(), 0x40d1_9f12_f600_6bb8);
        assert_eq!(solution.incumbent_node, 0, "the greedy warm start");
        let ones: Vec<&str> = solution
            .assignment
            .as_ref()
            .unwrap()
            .ones()
            .map(|v| artifacts.model.var_name(v))
            .collect();
        assert_eq!(ones, FIVE_QUERY_ONES);
        assert!(
            solution.bound <= solution.objective,
            "bound {} above objective {}",
            solution.bound,
            solution.objective
        );
    }

    /// Every variable set to 1 by [`ten_query_search_is_pinned`]'s solve,
    /// in variable order.
    const TEN_QUERY_ONES: [&str; 102] = [
        "x'[mir=3 start=R0 P:0.0=1.1]",
        "y[start:0|2@-x1|P:0.0=1.1]",
        "x'[mir=3 start=R1 P:0.0=1.1]",
        "y[start:1|1@-x1|P:0.0=1.1]",
        "y[start:1|4@2.1x2|P:1.0=2.1]",
        "y[start:2|2@-x1|P:1.0=2.1]",
        "y[start:0|2@-x1|4@2.1x2|P:0.0=1.1,1.0=2.1]",
        "y[start:1|1@-x1|4@2.1x2|P:0.0=1.1,1.0=2.1]",
        "x'[mir=36 start=R2 P:2.0=5.1]",
        "y[start:2|32@5.1x2|P:2.0=5.1]",
        "x'[mir=36 start=R5 P:2.0=5.1]",
        "y[start:5|4@2.0x2|P:2.0=5.1]",
        "x'[mir=38 start=R1 P:1.0=2.1,2.0=5.1]",
        "y[start:1|4@2.1x2|32@5.1x2|P:1.0=2.1,2.0=5.1]",
        "x'[mir=38 start=R2 P:1.0=2.1,2.0=5.1]",
        "y[start:2|2@-x1|32@5.1x2|P:1.0=2.1,2.0=5.1]",
        "x'[mir=38 start=R5 P:1.0=2.1,2.0=5.1]",
        "y[start:5|4@2.0x2|2@-x1|P:1.0=2.1,2.0=5.1]",
        "y[start:4|32@5.0x2|P:4.0=5.0]",
        "y[start:5|16@4.0x2|P:4.0=5.0]",
        "y[start:2|32@5.1x2|16@4.0x2|P:2.0=5.1,4.0=5.0]",
        "y[start:4|32@5.0x2|4@2.0x2|P:2.0=5.1,4.0=5.0]",
        "y[start:5|4@2.0x2|16@4.0x2|P:2.0=5.1,4.0=5.0]",
        "y[start:7|16@4.0x2|P:4.0=7.1]",
        "y[start:7|16@4.0x2|32@5.0x2|P:4.0=5.0,4.0=7.1]",
        "x'[mir=192 start=R6 P:6.0=7.0]",
        "y[start:6|128@7.0x2|P:6.0=7.0]",
        "x'[mir=192 start=R7 P:6.0=7.0]",
        "y[start:7|64@6.0x2|P:6.0=7.0]",
        "y[start:6|128@7.0x2|4@2.0x2|P:2.0=7.2,6.0=7.0]",
        "y[start:6|128@7.0x2|32@5.1x2|P:5.1=7.2,6.0=7.0]",
        "y[start:7|64@6.0x2|32@5.1x2|P:5.1=7.2,6.0=7.0]",
        "x[Q0 R0 #3]",
        "y[start:0|2@-x1|4@2.1x2|32@5.1x2|P:0.0=1.1,1.0=2.1,2.0=5.1]",
        "x[Q0 R1 #3]",
        "y[start:1|1@-x1|4@2.1x2|32@5.1x2|P:0.0=1.1,1.0=2.1,2.0=5.1]",
        "y[start:2|3@-x1|P:0.0=1.1,1.0=2.1]",
        "x[Q0 R2 #5]",
        "y[start:2|3@-x1|32@5.1x2|P:0.0=1.1,1.0=2.1,2.0=5.1]",
        "x[Q0 R5 #2]",
        "y[start:5|4@2.0x2|3@-x1|P:0.0=1.1,1.0=2.1,2.0=5.1]",
        "x[Q1 R1 #3]",
        "y[start:1|4@2.1x2|32@5.1x2|16@4.0x2|P:1.0=2.1,2.0=5.1,4.0=5.0]",
        "x[Q1 R2 #1]",
        "y[start:2|2@-x1|32@5.1x2|16@4.0x2|P:1.0=2.1,2.0=5.1,4.0=5.0]",
        "x[Q1 R4 #11]",
        "y[start:4|38@5.0x2|P:1.0=2.1,2.0=5.1,4.0=5.0]",
        "x[Q1 R5 #0]",
        "y[start:5|4@2.0x2|2@-x1|16@4.0x2|P:1.0=2.1,2.0=5.1,4.0=5.0]",
        "x[Q2 R2 #5]",
        "y[start:2|32@5.1x2|16@4.0x2|128@7.1x2|P:2.0=5.1,4.0=5.0,4.0=7.1]",
        "x[Q2 R4 #1]",
        "y[start:4|32@5.0x2|4@2.0x2|128@7.1x2|P:2.0=5.1,4.0=5.0,4.0=7.1]",
        "x[Q2 R5 #1]",
        "y[start:5|4@2.0x2|16@4.0x2|128@7.1x2|P:2.0=5.1,4.0=5.0,4.0=7.1]",
        "x[Q2 R7 #0]",
        "y[start:7|16@4.0x2|32@5.0x2|4@2.0x2|P:2.0=5.1,4.0=5.0,4.0=7.1]",
        "x[Q3 R2 #20]",
        "y[start:2|32@5.1x2|192@7.1x2|P:2.0=5.1,5.0=7.1,6.0=7.0]",
        "x[Q3 R5 #17]",
        "y[start:5|4@2.0x2|192@7.1x2|P:2.0=5.1,5.0=7.1,6.0=7.0]",
        "x[Q3 R6 #17]",
        "y[start:6|128@7.0x2|36@5.0x2|P:2.0=5.1,5.0=7.1,6.0=7.0]",
        "x[Q3 R7 #43]",
        "y[start:7|64@6.0x2|36@5.0x2|P:2.0=5.1,5.0=7.1,6.0=7.0]",
        "x[Q4 R4 #18]",
        "y[start:4|32@5.0x2|192@7.2x2|P:4.0=5.0,5.1=7.2,6.0=7.0]",
        "x[Q4 R5 #14]",
        "y[start:5|16@4.0x2|192@7.2x2|P:4.0=5.0,5.1=7.2,6.0=7.0]",
        "x[Q4 R6 #1]",
        "y[start:6|128@7.0x2|32@5.1x2|16@4.0x2|P:4.0=5.0,5.1=7.2,6.0=7.0]",
        "x[Q4 R7 #19]",
        "y[start:7|64@6.0x2|32@5.1x2|16@4.0x2|P:4.0=5.0,5.1=7.2,6.0=7.0]",
        "x[Q5 R0 #1]",
        "y[start:0|2@-x1|8@3.1x2|P:0.0=1.1,1.0=3.1]",
        "x[Q5 R1 #1]",
        "y[start:1|1@-x1|8@3.1x2|P:0.0=1.1,1.0=3.1]",
        "x[Q5 R3 #1]",
        "y[start:3|3@-x1|P:0.0=1.1,1.0=3.1]",
        "x[Q6 R3 #12]",
        "y[start:3|192@6.1x2|P:3.0=6.1,6.0=7.0]",
        "x[Q6 R6 #8]",
        "y[start:6|128@7.0x2|8@3.0x2|P:3.0=6.1,6.0=7.0]",
        "x[Q6 R7 #0]",
        "y[start:7|64@6.0x2|8@3.0x2|P:3.0=6.1,6.0=7.0]",
        "x[Q7 R2 #14]",
        "y[start:2|192@7.2x2|P:2.0=7.2,6.0=7.0]",
        "x[Q7 R6 #0]",
        "x[Q7 R7 #6]",
        "y[start:7|64@6.0x2|4@2.0x2|P:2.0=7.2,6.0=7.0]",
        "x[Q8 R6 #3]",
        "y[start:6|128@7.3x2|P:6.2=7.3]",
        "x[Q8 R7 #2]",
        "y[start:7|64@6.2x2|P:6.2=7.3]",
        "x[Q9 R1 #21]",
        "y[start:1|4@2.1x2|192@7.2x2|P:1.0=2.1,2.0=7.2,6.0=7.0]",
        "x[Q9 R2 #41]",
        "y[start:2|192@7.2x2|2@-x1|P:1.0=2.1,2.0=7.2,6.0=7.0]",
        "x[Q9 R6 #0]",
        "y[start:6|128@7.0x2|4@2.0x2|2@-x1|P:1.0=2.1,2.0=7.2,6.0=7.0]",
        "x[Q9 R7 #18]",
        "y[start:7|64@6.0x2|4@2.0x2|2@-x1|P:1.0=2.1,2.0=7.2,6.0=7.0]",
    ];

    /// [`five_query_search_is_pinned`] on the ten-query model: the same
    /// four facts of a 20 000-node solve.
    #[test]
    fn ten_query_search_is_pinned() {
        let artifacts = build_ilp(&ten_query_candidates());
        let config = SolverConfig {
            node_limit: 20_000,
            time_limit: Duration::MAX,
            ..SolverConfig::default()
        };
        let solution = solve(&artifacts.model, config);
        assert_eq!(solution.status, SolveStatus::Feasible);
        assert_eq!(solution.nodes, 20_000);
        assert_eq!(solution.objective.to_bits(), 0x40da_6865_aaf8_c19f);
        assert_eq!(solution.incumbent_node, 0, "the greedy warm start");
        let ones: Vec<&str> = solution
            .assignment
            .as_ref()
            .unwrap()
            .ones()
            .map(|v| artifacts.model.var_name(v))
            .collect();
        assert_eq!(ones, TEN_QUERY_ONES);
        assert!(
            solution.bound <= solution.objective,
            "bound {} above objective {}",
            solution.bound,
            solution.objective
        );
    }
}
