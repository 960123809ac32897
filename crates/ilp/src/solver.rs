//! Branch-and-bound solver for 0/1 ILPs.
//!
//! The solver performs depth-first branch-and-bound over the binary
//! domains, with constraint propagation (see [`crate::propagation`]) at
//! every node and the greedy construction of [`crate::greedy`] as the
//! initial incumbent. The lower bound at a node is the objective mass of
//! the variables already fixed to 1 (plus any negative coefficients still
//! free) plus a sequential-minimum term: for every unsatisfied choice
//! group, the cheapest still-free cost its alternatives force (their
//! requirement lists, from root propagation), where a variable any
//! alternative of an earlier group could force is not counted again. The
//! root node's bound is reported as [`Solution::bound`].
//!
//! Past one scan of its domains for the fixed mass, a node costs what it
//! examines, not the model's size: requirement lists are sparse, the
//! bound stops once it reaches the incumbent (its group terms are
//! non-negative), and a node allocates nothing but its children's
//! domains: bound and propagation scratch belongs to the search, and an
//! assignment is built only for an improving incumbent. None of this
//! decides anything: the bound adds the same terms in the same order as a
//! dense evaluation of the formula (kept in the tests as the oracle), so
//! the same nodes are visited in the same order and the same incumbent is
//! returned.
//!
//! The solver is exact when it terminates within its node/time limits and
//! degrades into an anytime heuristic (returning the best incumbent) when
//! it does not, mirroring how the paper treats optimization time as a
//! budget that must stay compatible with streaming (Section VII-C).

use crate::greedy::{choice_constraints, fixed_objective, greedy, satisfied};
use crate::model::{Assignment, Model, VarId};
use crate::propagation::{Domains, PropagationResult, Propagator};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Termination status of a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// The returned solution is provably optimal.
    Optimal,
    /// A feasible solution was found but a limit stopped the proof of
    /// optimality.
    Feasible,
    /// The model has no feasible 0/1 assignment.
    Infeasible,
    /// A limit was hit before any feasible solution was found.
    Unknown,
}

/// Feasibility / optimality tolerance of the branch and bound.
const TOLERANCE: f64 = 1e-6;

/// Solver limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Maximum number of branch-and-bound nodes to explore.
    pub node_limit: u64,
    /// Wall-clock time limit.
    pub time_limit: Duration,
    /// When `true`, skip the greedy warm start (used by the ablation
    /// benchmark to quantify its benefit).
    pub disable_warm_start: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            node_limit: 200_000,
            time_limit: Duration::from_secs(10),
            disable_warm_start: false,
        }
    }
}

/// Result of a solve call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Termination status.
    pub status: SolveStatus,
    /// Best assignment found (absent for `Infeasible` / `Unknown`).
    pub assignment: Option<Assignment>,
    /// Objective value of the best assignment (`f64::INFINITY` if none).
    pub objective: f64,
    /// Proven lower bound on the optimum: the root node's bound, or the
    /// objective itself when the search ran to completion.
    pub bound: f64,
    /// Number of branch-and-bound nodes explored.
    pub nodes: u64,
    /// Node at which the returned assignment was accepted; 0 when it is the
    /// greedy warm start (or there is none).
    pub incumbent_node: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl Solution {
    /// `true` when a feasible assignment is available.
    pub fn is_feasible(&self) -> bool {
        self.assignment.is_some()
    }
}

struct SearchState<'a> {
    model: &'a Model,
    propagator: Propagator<'a>,
    choices: Vec<usize>,
    /// For every variable that appears in a choice constraint: the
    /// positive-cost variables, free at the root, that root propagation
    /// forces to 1 when it is selected (ascending, with their objective
    /// coefficients; empty when selecting it conflicts). Whatever
    /// alternative of an unsatisfied choice group is eventually selected,
    /// the still-free part of its list will be paid for.
    requirements: Vec<Vec<(VarId, f64)>>,
    /// Variables with a negative objective coefficient, ascending.
    negative: Vec<(VarId, f64)>,
    /// Bound scratch: the group stamp that first claimed each variable.
    /// Stamps only grow, so a stamp older than the current evaluation
    /// means "unclaimed" and nothing is reset between nodes.
    claimed: Vec<u64>,
    stamp: u64,
    config: SolverConfig,
    started: Instant,
    nodes: u64,
    limit_hit: bool,
    incumbent: Option<(Assignment, f64)>,
    incumbent_node: u64,
}

impl<'a> SearchState<'a> {
    /// Prepares the search below the propagated `root`: choice groups,
    /// each alternative's requirement list (by propagating `x = 1` from
    /// `root`) and the negative objective coefficients.
    fn new(
        model: &'a Model,
        mut propagator: Propagator<'a>,
        root: &Domains,
        config: SolverConfig,
        started: Instant,
    ) -> Self {
        let choices = choice_constraints(model);
        let mut requirements: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); model.num_vars()];
        for &ci in &choices {
            for (x, _) in model.constraints()[ci].expr.terms() {
                let mut trial = root.clone();
                if !requirements[x.index()].is_empty() || !trial.fix(*x, true) {
                    continue;
                }
                if let PropagationResult::Fixpoint(_) = propagator.propagate_from(&mut trial, *x) {
                    requirements[x.index()] = trial
                        .ones()
                        .filter(|v| root.is_free(*v))
                        .map(|v| (v, model.objective_coeff(v)))
                        .filter(|(_, c)| *c > 0.0)
                        .collect();
                }
            }
        }
        let negative = model
            .vars()
            .map(|v| (v, model.objective_coeff(v)))
            .filter(|(_, c)| *c < 0.0)
            .collect();
        SearchState {
            model,
            propagator,
            choices,
            requirements,
            negative,
            claimed: vec![0; model.num_vars()],
            stamp: 0,
            config,
            started,
            nodes: 0,
            limit_hit: false,
            incumbent: None,
            incumbent_node: 0,
        }
    }

    /// Lower bound on the objective of every feasible completion of
    /// `domains`. Every term after the negative coefficients is a group
    /// minimum, a sum of positive coefficients, and adding a non-negative
    /// f64 never lowers a sum: so the bound stops as soon as it reaches
    /// `cutoff`, and the caller's `bound >= cutoff` decision is the one the
    /// full sum gives. Pass `f64::INFINITY` for the full sum.
    fn lower_bound(&mut self, domains: &Domains, cutoff: f64) -> f64 {
        let mut bound = fixed_objective(self.model, domains);
        // Negative coefficients of free variables can only decrease the
        // objective further; account for them to keep the bound admissible
        // for general models.
        for &(v, c) in &self.negative {
            if domains.is_free(v) {
                bound += c;
            }
        }
        if bound >= cutoff {
            return bound;
        }
        // Sequential-minimum bound over the unsatisfied choice groups.
        //
        // Whatever alternative a group eventually selects, the still-free
        // positive-cost variables in its requirement list must be paid for.
        // Processing groups in a fixed order and skipping every variable
        // that *any* alternative of an earlier group could have provided
        // (claimed with that group's stamp) makes the per-group minima
        // additive without double counting, so the sum stays an admissible
        // lower bound even when groups share steps.
        let first_group = self.stamp + 1;
        for &ci in &self.choices {
            if satisfied(self.model, domains, ci) {
                continue;
            }
            self.stamp += 1;
            let group = self.stamp;
            let mut group_min: Option<f64> = None;
            for (x, _) in self.model.constraints()[ci].expr.terms() {
                if !domains.is_free(*x) {
                    continue;
                }
                let mut alt_cost = 0.0;
                for &(v, coeff) in &self.requirements[x.index()] {
                    let by = &mut self.claimed[v.index()];
                    if *by < first_group {
                        *by = group;
                    } else if *by < group {
                        continue;
                    }
                    if domains.is_free(v) {
                        alt_cost += coeff;
                    }
                }
                group_min = Some(group_min.map_or(alt_cost, |m: f64| m.min(alt_cost)));
            }
            if let Some(m) = group_min {
                bound += m;
                if bound >= cutoff {
                    return bound;
                }
            }
        }
        bound
    }

    fn out_of_budget(&mut self) -> bool {
        if self.nodes >= self.config.node_limit || self.started.elapsed() >= self.config.time_limit
        {
            self.limit_hit = true;
            return true;
        }
        false
    }

    /// Chooses the next variable to branch on: the first free member of the
    /// most constrained unsatisfied choice constraint, falling back to the
    /// first free variable.
    fn branching_variable(&self, domains: &Domains) -> Option<VarId> {
        let mut best: Option<(VarId, usize)> = None;
        for &ci in &self.choices {
            if satisfied(self.model, domains, ci) {
                continue;
            }
            let terms = self.model.constraints()[ci].expr.terms();
            let mut free = terms
                .iter()
                .map(|(v, _)| *v)
                .filter(|v| domains.is_free(*v));
            let Some(first) = free.next() else {
                continue;
            };
            let count = 1 + free.count();
            if best.is_none_or(|(_, n)| count < n) {
                best = Some((first, count));
            }
        }
        best.map(|(v, _)| v).or_else(|| domains.first_free())
    }

    /// Accepts the completion of `domains` with free variables at 0 when it
    /// is feasible and improves on the incumbent; the assignment is built
    /// only then.
    fn maybe_accept(&mut self, domains: &Domains) {
        // A choice group with no member at 1 violates its `Σ x = 1`: the
        // full scan below only runs once every group is satisfied.
        if !self
            .choices
            .iter()
            .all(|&ci| satisfied(self.model, domains, ci))
        {
            return;
        }
        let one = |v: VarId| domains.get(v) == Some(true);
        if !self.model.is_feasible_by(one, TOLERANCE) {
            return;
        }
        let objective = self.model.objective_value_by(one);
        let improves = self
            .incumbent
            .as_ref()
            .is_none_or(|(_, best)| objective < best - TOLERANCE);
        if improves {
            self.incumbent = Some((domains.to_assignment(), objective));
            self.incumbent_node = self.nodes;
        }
    }

    fn search(&mut self, domains: Domains) {
        self.nodes += 1;
        if self.out_of_budget() {
            return;
        }
        // Bound.
        if let Some((_, best)) = &self.incumbent {
            let cutoff = *best - TOLERANCE;
            if self.lower_bound(&domains, cutoff) >= cutoff {
                return;
            }
        }
        // Even with free variables left, mapping them to 0 may already be a
        // feasible (and, given the bound above, improving) solution.
        self.maybe_accept(&domains);
        if domains.is_complete() {
            return;
        }
        let Some(var) = self.branching_variable(&domains) else {
            return;
        };
        for value in [true, false] {
            let mut child = domains.clone();
            if !child.fix(var, value) {
                continue;
            }
            match self.propagator.propagate_from(&mut child, var) {
                PropagationResult::Conflict(_) => continue,
                PropagationResult::Fixpoint(_) => self.search(child),
            }
            if self.limit_hit {
                return;
            }
        }
    }
}

/// Solves a 0/1 ILP.
pub fn solve(model: &Model, config: SolverConfig) -> Solution {
    let started = Instant::now();
    let mut propagator = Propagator::new(model);
    let mut root = Domains::free(model.num_vars());
    if let PropagationResult::Conflict(_) = propagator.propagate_all(&mut root) {
        return Solution {
            status: SolveStatus::Infeasible,
            assignment: None,
            objective: f64::INFINITY,
            bound: f64::INFINITY,
            nodes: 0,
            incumbent_node: 0,
            elapsed: started.elapsed(),
        };
    }

    let mut state = SearchState::new(model, propagator, &root, config, started);
    if !config.disable_warm_start {
        state.incumbent = greedy(model);
    }
    let root_bound = state.lower_bound(&root, f64::INFINITY);
    state.search(root);

    let status = match (&state.incumbent, state.limit_hit) {
        (Some(_), false) => SolveStatus::Optimal,
        (Some(_), true) => SolveStatus::Feasible,
        (None, false) => SolveStatus::Infeasible,
        (None, true) => SolveStatus::Unknown,
    };
    let (assignment, objective) = match state.incumbent {
        Some((assignment, objective)) => (Some(assignment), objective),
        None => (None, f64::INFINITY),
    };
    Solution {
        status,
        assignment,
        objective,
        // A search that ran to completion proved its incumbent optimal (or
        // the model infeasible).
        bound: if state.limit_hit {
            root_bound
        } else {
            objective
        },
        nodes: state.nodes,
        incumbent_node: state.incumbent_node,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Sense};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_optimal(solution: &Solution, expected: f64) {
        assert_eq!(solution.status, SolveStatus::Optimal, "{solution:?}");
        assert!(
            (solution.objective - expected).abs() < 1e-6,
            "objective {} != {expected}",
            solution.objective
        );
    }

    #[test]
    fn solves_simple_choice_model() {
        // min 2a + 3b st a + b = 1  -> a.
        let mut m = Model::new();
        let a = m.add_binary("a", 2.0);
        let b = m.add_binary("b", 3.0);
        m.add_choose_one("c", [a, b]);
        let s = solve(&m, SolverConfig::default());
        assert_optimal(&s, 2.0);
        assert!(s.assignment.as_ref().unwrap().get(a));
        assert!(!s.assignment.as_ref().unwrap().get(b));
        // A finished search proves its objective; the warm start was optimal.
        assert_eq!(s.bound, s.objective);
        assert_eq!(s.incumbent_node, 0);
    }

    #[test]
    fn solves_sharing_example_optimally() {
        // The Section V-2 example: sharing ⟨S,T⟩ between q1 and q2 gives 250.
        let mut m = Model::new();
        let y_sr = m.add_binary("y_SR", 100.0);
        let y_srt = m.add_binary("y_SRT", 50.0);
        let y_st = m.add_binary("y_ST", 100.0);
        let y_str = m.add_binary("y_STR", 75.0);
        let y_stu = m.add_binary("y_STU", 75.0);
        let x1 = m.add_binary("x1", 0.0);
        let x2 = m.add_binary("x2", 0.0);
        let x3 = m.add_binary("x3", 0.0);
        m.add_choose_one("q1_S", [x1, x2]);
        m.add_choose_one("q2_S", [x3]);
        m.add_constraint(
            "cost_x1",
            LinExpr::from_terms([(x1, -150.0), (y_sr, 100.0), (y_srt, 50.0)]),
            Sense::Ge,
            0.0,
        );
        m.add_constraint(
            "cost_x2",
            LinExpr::from_terms([(x2, -175.0), (y_st, 100.0), (y_str, 75.0)]),
            Sense::Ge,
            0.0,
        );
        m.add_constraint(
            "cost_x3",
            LinExpr::from_terms([(x3, -175.0), (y_st, 100.0), (y_stu, 75.0)]),
            Sense::Ge,
            0.0,
        );
        let s = solve(&m, SolverConfig::default());
        assert_optimal(&s, 250.0);
        let asg = s.assignment.unwrap();
        assert!(asg.get(x2) && asg.get(x3) && !asg.get(x1));
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::new();
        let a = m.add_binary("a", 1.0);
        m.add_constraint("ge", LinExpr::sum([a]), Sense::Ge, 2.0);
        let s = solve(&m, SolverConfig::default());
        assert_eq!(s.status, SolveStatus::Infeasible);
        assert!(!s.is_feasible());
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let m = Model::new();
        let s = solve(&m, SolverConfig::default());
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn warm_start_can_be_disabled() {
        let mut m = Model::new();
        let a = m.add_binary("a", 2.0);
        let b = m.add_binary("b", 3.0);
        m.add_choose_one("c", [a, b]);
        let cfg = SolverConfig {
            disable_warm_start: true,
            ..SolverConfig::default()
        };
        let s = solve(&m, cfg);
        assert_optimal(&s, 2.0);
        assert!(
            s.incumbent_node > 0,
            "found by the search, not the warm start"
        );
    }

    #[test]
    fn node_limit_returns_best_incumbent() {
        // Build a model big enough that one node cannot close it, and check
        // the anytime behaviour.
        let mut m = Model::new();
        let mut groups = Vec::new();
        for g in 0..20 {
            let steps: Vec<VarId> = (0..4)
                .map(|i| m.add_binary(format!("y_{g}_{i}"), (i + 1) as f64))
                .collect();
            let alts: Vec<VarId> = (0..4)
                .map(|i| m.add_binary(format!("x_{g}_{i}"), 0.0))
                .collect();
            for (i, x) in alts.iter().enumerate() {
                m.add_constraint(
                    format!("cost_{g}_{i}"),
                    LinExpr::from_terms([(*x, -((i + 1) as f64)), (steps[i], (i + 1) as f64)]),
                    Sense::Ge,
                    0.0,
                );
            }
            m.add_choose_one(format!("choice_{g}"), alts.clone());
            groups.push(alts);
        }
        // A zero time budget stops the search at the first node; the greedy
        // warm start still provides a feasible incumbent (anytime behaviour).
        let cfg = SolverConfig {
            time_limit: Duration::ZERO,
            ..SolverConfig::default()
        };
        let s = solve(&m, cfg);
        assert_eq!(s.status, SolveStatus::Feasible);
        assert!(s.is_feasible());
        assert!(s.nodes <= 1);
        // Optimal is picking the cost-1 alternative everywhere = 20, which
        // the root bound already proves although the search was cut off.
        let full = solve(&m, SolverConfig::default());
        assert_optimal(&full, 20.0);
        assert!(full.objective <= s.objective + 1e-9);
        assert_eq!(s.bound, 20.0);
    }

    #[test]
    fn negative_objective_coefficients_are_handled() {
        // min -5a + 1b st a + b >= 1 -> a=1 (b free to be 0), objective -5.
        let mut m = Model::new();
        let a = m.add_binary("a", -5.0);
        let b = m.add_binary("b", 1.0);
        m.add_constraint("cover", LinExpr::sum([a, b]), Sense::Ge, 1.0);
        let s = solve(&m, SolverConfig::default());
        assert_optimal(&s, -5.0);
        assert!(s.assignment.unwrap().get(a));
    }

    /// A random selection-with-sharing model: choice groups whose
    /// alternatives force random step subsets, some alternatives also
    /// forcing an alternative of an earlier group (as maintenance orders
    /// do), and sometimes a negative-cost variable.
    fn random_model(rng: &mut StdRng) -> Model {
        let mut m = Model::new();
        let steps: Vec<VarId> = (0..rng.gen_range(3..40))
            .map(|i| m.add_binary(format!("y{i}"), rng.gen_range(1..1000) as f64 / 7.0))
            .collect();
        let mut earlier: Vec<VarId> = Vec::new();
        for g in 0..rng.gen_range(1..12) {
            let alts: Vec<VarId> = (0..rng.gen_range(1..6))
                .map(|a| {
                    let coeff = if rng.gen_bool(0.1) { 1.5 } else { 0.0 };
                    m.add_binary(format!("x{g}_{a}"), coeff)
                })
                .collect();
            for &x in &alts {
                let mut expr = LinExpr::new();
                let mut total = 0.0;
                for _ in 0..rng.gen_range(1..6) {
                    let y = steps[rng.gen_range(0..steps.len())];
                    if expr.terms().iter().all(|(v, _)| *v != y) {
                        expr.add(y, m.objective_coeff(y));
                        total += m.objective_coeff(y);
                    }
                }
                expr.add(x, -total);
                m.add_constraint(format!("cost[{x}]"), expr, Sense::Ge, 0.0);
                if !earlier.is_empty() && rng.gen_bool(0.2) {
                    let other = earlier[rng.gen_range(0..earlier.len())];
                    m.add_implies_any(format!("maintain[{x}]"), x, [other]);
                }
            }
            m.add_choose_one(format!("choice{g}"), alts.clone());
            earlier.extend(alts);
        }
        if rng.gen_bool(0.25) {
            let z = m.add_binary("z", -(rng.gen_range(1..50) as f64));
            m.add_constraint("cover", LinExpr::sum([z, steps[0]]), Sense::Ge, 1.0);
        }
        m
    }

    /// Per choice alternative, the dense bitset of variables root
    /// propagation fixes to 1 when it is selected.
    fn dense_requirements(
        model: &Model,
        root: &Domains,
        choices: &[usize],
    ) -> Vec<Option<Vec<u64>>> {
        let mut propagator = Propagator::new(model);
        let words = model.num_vars().div_ceil(64);
        let mut requirements: Vec<Option<Vec<u64>>> = vec![None; model.num_vars()];
        for &ci in choices {
            for (x, _) in model.constraints()[ci].expr.terms() {
                let mut trial = root.clone();
                if requirements[x.index()].is_some() || !trial.fix(*x, true) {
                    continue;
                }
                let mut bits = vec![0u64; words];
                if let PropagationResult::Fixpoint(_) = propagator.propagate_from(&mut trial, *x) {
                    for v in trial.ones() {
                        bits[v.index() / 64] |= 1u64 << (v.index() % 64);
                    }
                }
                requirements[x.index()] = Some(bits);
            }
        }
        requirements
    }

    /// The reference bound: the same formula over dense requirement bitsets
    /// and a dense `counted` set rebuilt on every call, as the solver
    /// computed it before its requirement lists became sparse.
    fn dense_bound(
        model: &Model,
        choices: &[usize],
        requirements: &[Option<Vec<u64>>],
        domains: &Domains,
    ) -> f64 {
        let mut bound = fixed_objective(model, domains);
        for v in model.vars() {
            if domains.is_free(v) {
                let c = model.objective_coeff(v);
                if c < 0.0 {
                    bound += c;
                }
            }
        }
        let words = model.num_vars().div_ceil(64);
        let mut counted = vec![0u64; words];
        for &ci in choices {
            if satisfied(model, domains, ci) {
                continue;
            }
            let mut group_min: Option<f64> = None;
            let mut group_union = vec![0u64; words];
            let mut has_free_alt = false;
            for (x, _) in model.constraints()[ci].expr.terms() {
                if !domains.is_free(*x) {
                    continue;
                }
                let Some(req) = &requirements[x.index()] else {
                    group_min = None;
                    has_free_alt = false;
                    break;
                };
                has_free_alt = true;
                let mut alt_cost = 0.0;
                for (word_idx, word) in req.iter().enumerate() {
                    let mut w = *word & !counted[word_idx];
                    group_union[word_idx] |= *word;
                    while w != 0 {
                        let v = VarId((word_idx * 64) as u32 + w.trailing_zeros());
                        w &= w - 1;
                        if domains.is_free(v) && model.objective_coeff(v) > 0.0 {
                            alt_cost += model.objective_coeff(v);
                        }
                    }
                }
                group_min = Some(group_min.map_or(alt_cost, |m: f64| m.min(alt_cost)));
            }
            if let (true, Some(m)) = (has_free_alt, group_min) {
                bound += m;
                for (cw, gw) in counted.iter_mut().zip(&group_union) {
                    *cw |= gw;
                }
            }
        }
        bound
    }

    /// Walks one random branch of a random model (every node a propagated
    /// fixpoint, as in the search) and checks the bound at each node
    /// against [`dense_bound`]: equal bits when run in full, and the same
    /// prune decision at cutoffs around it when stopped early.
    fn check_bound_against_dense(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(&mut rng);
        let mut propagator = Propagator::new(&model);
        let mut domains = Domains::free(model.num_vars());
        if let PropagationResult::Conflict(_) = propagator.propagate_all(&mut domains) {
            return;
        }
        let config = SolverConfig::default();
        let mut state = SearchState::new(&model, propagator, &domains, config, Instant::now());
        let requirements = dense_requirements(&model, &domains, &state.choices);
        loop {
            let dense = dense_bound(&model, &state.choices, &requirements, &domains);
            let full = state.lower_bound(&domains, f64::INFINITY);
            assert_eq!(
                full.to_bits(),
                dense.to_bits(),
                "seed {seed}: {full} vs {dense}"
            );
            let random = rng.gen_range(-10.0..dense.abs() * 2.0 + 10.0);
            for cutoff in [
                dense - 1.0,
                dense - TOLERANCE,
                dense,
                dense + TOLERANCE,
                random,
            ] {
                let pruned = state.lower_bound(&domains, cutoff) >= cutoff;
                assert_eq!(pruned, dense >= cutoff, "seed {seed}, cutoff {cutoff}");
            }
            let free: Vec<VarId> = model.vars().filter(|v| domains.is_free(*v)).collect();
            if free.is_empty() {
                return;
            }
            let var = free[rng.gen_range(0..free.len())];
            let first = rng.gen_bool(0.5);
            let next = [first, !first].into_iter().find_map(|value| {
                let mut child = domains.clone();
                child.fix(var, value);
                match state.propagator.propagate_from(&mut child, var) {
                    PropagationResult::Fixpoint(_) => Some(child),
                    PropagationResult::Conflict(_) => None,
                }
            });
            match next {
                Some(child) => domains = child,
                None => return,
            }
        }
    }

    proptest! {
        #[test]
        fn sparse_bound_reproduces_the_dense_formula(seed in 0u64..u64::MAX) {
            check_bound_against_dense(seed);
        }
    }
}
