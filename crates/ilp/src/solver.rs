//! Branch-and-bound solver for 0/1 ILPs.
//!
//! The solver performs depth-first branch-and-bound over the binary
//! domains, with constraint propagation (see [`crate::propagation`]) at
//! every node and the greedy construction of [`crate::greedy`] as the
//! initial incumbent. The lower bound at a node is the objective mass of
//! the variables already fixed to 1 (plus any negative coefficients still
//! free) — for the non-negative step-cost objectives produced by the
//! optimizer this is the exact cost of the partially committed plan, so
//! pruning is effective once a good incumbent is known.
//!
//! The solver is exact when it terminates within its node/time limits and
//! degrades into an anytime heuristic (returning the best incumbent) when
//! it does not, mirroring how the paper treats optimization time as a
//! budget that must stay compatible with streaming (Section VII-C).

use crate::greedy::{choice_constraints, fixed_objective, greedy};
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

impl SolverConfig {
    /// A configuration with a tight node budget, useful when optimization
    /// runs inside an epoch boundary.
    pub fn quick() -> Self {
        SolverConfig {
            node_limit: 20_000,
            time_limit: Duration::from_millis(500),
            ..SolverConfig::default()
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
    /// Number of branch-and-bound nodes explored.
    pub nodes: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl Solution {
    /// `true` when a feasible assignment is available.
    pub fn is_feasible(&self) -> bool {
        self.assignment.is_some()
    }
}

/// Fixed-width bitset over the model's variables, used for the
/// "necessary steps" lower bound.
type VarBitset = Vec<u64>;

fn bitset_new(n_vars: usize) -> VarBitset {
    vec![0u64; n_vars.div_ceil(64)]
}

fn bitset_set(b: &mut VarBitset, v: VarId) {
    b[v.index() / 64] |= 1u64 << (v.index() % 64);
}

struct SearchState<'a> {
    model: &'a Model,
    propagator: Propagator<'a>,
    choices: Vec<usize>,
    /// For every variable that appears in a choice constraint: the set of
    /// variables that are forced to 1 when it is selected at the root
    /// (computed once by propagation). Used for the lower bound: whatever
    /// alternative of an unsatisfied choice group is eventually selected,
    /// the intersection of the requirement sets of its still-free
    /// alternatives will be paid for.
    requirements: Vec<Option<VarBitset>>,
    config: SolverConfig,
    started: Instant,
    nodes: u64,
    limit_hit: bool,
    incumbent: Option<(Assignment, f64)>,
}

impl<'a> SearchState<'a> {
    /// Precomputes the requirement bitsets of all choice-alternative
    /// variables by propagating `x = 1` from the root domains.
    fn precompute_requirements(
        model: &Model,
        propagator: &Propagator<'_>,
        root: &Domains,
        choices: &[usize],
    ) -> Vec<Option<VarBitset>> {
        let mut requirements: Vec<Option<VarBitset>> = vec![None; model.num_vars()];
        for &ci in choices {
            for (x, _) in model.constraints()[ci].expr.terms() {
                if requirements[x.index()].is_some() {
                    continue;
                }
                let mut trial = root.clone();
                if !trial.fix(*x, true) {
                    continue;
                }
                if let PropagationResult::Conflict(_) = propagator.propagate_from(&mut trial, *x) {
                    // Selecting this alternative is impossible; leave the
                    // requirement empty (the search will discover the
                    // conflict itself).
                    requirements[x.index()] = Some(bitset_new(model.num_vars()));
                    continue;
                }
                let mut bits = bitset_new(model.num_vars());
                for v in trial.ones() {
                    bitset_set(&mut bits, v);
                }
                requirements[x.index()] = Some(bits);
            }
        }
        requirements
    }

    fn lower_bound(&self, domains: &Domains) -> f64 {
        let mut bound = fixed_objective(self.model, domains);
        // Negative coefficients of free variables can only decrease the
        // objective further; account for them to keep the bound admissible
        // for general models.
        for v in self.model.vars() {
            if domains.is_free(v) {
                let c = self.model.objective_coeff(v);
                if c < 0.0 {
                    bound += c;
                }
            }
        }
        // Sequential-minimum bound over the unsatisfied choice groups.
        //
        // Whatever alternative a group eventually selects, the still-free
        // positive-cost variables in its requirement set must be paid for.
        // Processing groups in a fixed order and blocking (via `counted`)
        // every variable that *any* alternative of an earlier group could
        // have provided makes the per-group minima additive without double
        // counting, so the sum stays an admissible lower bound even when
        // groups share steps.
        let words = self.model.num_vars().div_ceil(64);
        let mut counted: VarBitset = vec![0u64; words];
        for &ci in &self.choices {
            let c = &self.model.constraints()[ci];
            if c.expr
                .terms()
                .iter()
                .any(|(v, _)| domains.get(*v) == Some(true))
            {
                continue;
            }
            let mut group_min: Option<f64> = None;
            let mut group_union: VarBitset = vec![0u64; words];
            let mut has_free_alt = false;
            for (x, _) in c.expr.terms() {
                if !domains.is_free(*x) {
                    continue;
                }
                let Some(req) = &self.requirements[x.index()] else {
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
                        let bit = w.trailing_zeros() as usize;
                        w &= w - 1;
                        let v = VarId((word_idx * 64 + bit) as u32);
                        if v.index() < self.model.num_vars() && domains.is_free(v) {
                            let coeff = self.model.objective_coeff(v);
                            if coeff > 0.0 {
                                alt_cost += coeff;
                            }
                        }
                    }
                }
                group_min = Some(group_min.map_or(alt_cost, |m: f64| m.min(alt_cost)));
            }
            if has_free_alt {
                if let Some(m) = group_min {
                    bound += m;
                    for (cw, gw) in counted.iter_mut().zip(&group_union) {
                        *cw |= gw;
                    }
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

    /// Chooses the next variable to branch on: a free member of the most
    /// constrained unsatisfied choice constraint, falling back to the first
    /// free variable.
    fn branching_variable(&self, domains: &Domains) -> Option<VarId> {
        let mut best: Option<(VarId, usize)> = None;
        for &ci in &self.choices {
            let c = &self.model.constraints()[ci];
            if c.expr
                .terms()
                .iter()
                .any(|(v, _)| domains.get(*v) == Some(true))
            {
                continue;
            }
            let free: Vec<VarId> = c
                .expr
                .terms()
                .iter()
                .map(|(v, _)| *v)
                .filter(|v| domains.is_free(*v))
                .collect();
            if free.is_empty() {
                continue;
            }
            if best.map(|(_, n)| free.len() < n).unwrap_or(true) {
                best = Some((free[0], free.len()));
            }
        }
        best.map(|(v, _)| v).or_else(|| domains.first_free())
    }

    fn maybe_accept(&mut self, domains: &Domains) {
        let assignment = domains.to_assignment();
        if !self.model.is_feasible(&assignment, TOLERANCE) {
            return;
        }
        let objective = self.model.objective_value(&assignment);
        let improves = self
            .incumbent
            .as_ref()
            .map(|(_, best)| objective < best - TOLERANCE)
            .unwrap_or(true);
        if improves {
            self.incumbent = Some((assignment, objective));
        }
    }

    fn search(&mut self, domains: Domains) {
        self.nodes += 1;
        if self.out_of_budget() {
            return;
        }
        // Bound.
        if let Some((_, best)) = &self.incumbent {
            if self.lower_bound(&domains) >= *best - TOLERANCE {
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
    let propagator = Propagator::new(model);
    let mut root = Domains::free(model.num_vars());
    if let PropagationResult::Conflict(_) = propagator.propagate_all(&mut root) {
        return Solution {
            status: SolveStatus::Infeasible,
            assignment: None,
            objective: f64::INFINITY,
            nodes: 0,
            elapsed: started.elapsed(),
        };
    }

    let incumbent = if config.disable_warm_start {
        None
    } else {
        greedy(model)
    };

    let choices = choice_constraints(model);
    let requirements =
        SearchState::precompute_requirements(model, &Propagator::new(model), &root, &choices);
    let mut state = SearchState {
        model,
        propagator,
        choices,
        requirements,
        config,
        started,
        nodes: 0,
        limit_hit: false,
        incumbent,
    };
    state.search(root);

    let elapsed = started.elapsed();
    match state.incumbent {
        Some((assignment, objective)) => Solution {
            status: if state.limit_hit {
                SolveStatus::Feasible
            } else {
                SolveStatus::Optimal
            },
            assignment: Some(assignment),
            objective,
            nodes: state.nodes,
            elapsed,
        },
        None => Solution {
            status: if state.limit_hit {
                SolveStatus::Unknown
            } else {
                SolveStatus::Infeasible
            },
            assignment: None,
            objective: f64::INFINITY,
            nodes: state.nodes,
            elapsed,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Sense};

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
        // Optimal is picking the cost-1 alternative everywhere = 20.
        let full = solve(&m, SolverConfig::default());
        assert_optimal(&full, 20.0);
        assert!(full.objective <= s.objective + 1e-9);
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
}
