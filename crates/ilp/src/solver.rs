//! Branch-and-bound solver for 0/1 ILPs.
//!
//! The solver performs depth-first branch-and-bound over the binary
//! domains, with constraint propagation (see [`crate::propagation`]) at
//! every node and the greedy construction of [`crate::greedy()`] as the
//! initial incumbent. The lower bound at a node is the objective mass of
//! the variables already fixed to 1 (plus any negative coefficients still
//! free) plus a sequential-minimum term: for every unsatisfied choice
//! group, the cheapest still-free cost its alternatives force (their
//! requirement lists, from root propagation), where a variable any
//! alternative of an earlier group could force is not counted again. The
//! root node's bound is reported as [`Solution::bound`].
//!
//! Each variable counts for one group only, its *owner*: the first
//! unsatisfied group, in choice order, with a free alternative whose
//! requirement list holds it ([`GroupBound`]). A group's term is the
//! minimum, over its free alternatives, of what they force among the free
//! variables it owns. Going down the tree owners only move later, so a
//! node does not rebuild the bound: from its parent's state it recomputes
//! only the groups around the variables fixed since (the XOR of the two
//! nodes' fixed bitsets), records each change on an undo trail and pops
//! it on backtrack. The same trail keeps each group's free-member count
//! and satisfied flag, which branching and acceptance read instead of
//! scanning the groups' members. A node that its fixed mass alone prunes
//! touches none of this, the group sum stops once it reaches the
//! incumbent (its terms are non-negative), propagation wakes only the
//! constraints whose read bound a fix moves, and a node allocates nothing:
//! its children's domains are copied into a buffer from a per-search pool.
//! None of this decides anything: every group term adds the same
//! coefficients in the same order as a dense evaluation of the formula
//! (kept in the tests as the oracle), and propagation reaches the fixpoint
//! a full pass reaches ([`Propagator::propagate_from`]), so the same nodes
//! are visited in the same order and the same incumbent is returned.
//!
//! The solver is exact when it terminates within its node/time limits and
//! degrades into an anytime heuristic (returning the best incumbent) when
//! it does not, mirroring how the paper treats optimization time as a
//! budget that must stay compatible with streaming (Section VII-C).

use crate::greedy::{choice_constraints, fixed_objective, greedy};
use crate::model::{Assignment, Model, VarId};
use crate::propagation::{Domains, PropagationResult, Propagator};
use std::time::{Duration, Instant};

/// Termination status of a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Constraint examinations of the search's propagation (root, requirement
    /// lists and every node): its work, independent of the machine.
    pub examined: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl Solution {
    /// `true` when a feasible assignment is available.
    pub fn is_feasible(&self) -> bool {
        self.assignment.is_some()
    }
}

/// The choice groups of a model and what each alternative forces, fixed
/// for the whole search.
struct ChoiceGroups<'a> {
    /// Member terms of each choice group, in choice order.
    members: Vec<&'a [(VarId, f64)]>,
    /// For every variable: the choice groups it is a member of.
    groups_of: Vec<Vec<u32>>,
    /// For every variable that appears in a choice constraint: the
    /// positive-cost variables, free at the root, that root propagation
    /// forces to 1 when it is selected (ascending, with their objective
    /// coefficients; empty when selecting it conflicts). Whatever
    /// alternative of an unsatisfied choice group is eventually selected,
    /// the still-free part of its list will be paid for.
    requirements: Vec<Vec<(VarId, f64)>>,
    /// For every variable: each `(group, alternative)` whose requirement
    /// list holds it, in choice order and then member order.
    holders: Vec<Vec<(u32, VarId)>>,
}

impl<'a> ChoiceGroups<'a> {
    /// Collects the choice groups of `model` and each alternative's
    /// requirement list (by propagating `x = 1` from the propagated
    /// `root`).
    fn new(model: &'a Model, propagator: &mut Propagator<'a>, root: &Domains) -> Self {
        let members: Vec<_> = choice_constraints(model)
            .into_iter()
            .map(|ci| model.constraints()[ci].expr.terms())
            .collect();
        let mut groups_of = vec![Vec::new(); model.num_vars()];
        let mut requirements: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); model.num_vars()];
        // A member of several groups is propagated once: `done` marks it
        // even when its list stays empty.
        let mut done = vec![false; model.num_vars()];
        let mut trial = root.clone();
        for (g, terms) in members.iter().enumerate() {
            for (x, _) in terms.iter() {
                groups_of[x.index()].push(g as u32);
                if std::mem::replace(&mut done[x.index()], true) {
                    continue;
                }
                trial.clone_from(root);
                if !trial.fix(*x, true) {
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
        let mut holders = vec![Vec::new(); model.num_vars()];
        for (g, terms) in members.iter().enumerate() {
            for (x, _) in terms.iter() {
                for (v, _) in &requirements[x.index()] {
                    holders[v.index()].push((g as u32, *x));
                }
            }
        }
        ChoiceGroups {
            members,
            groups_of,
            requirements,
            holders,
        }
    }
}

/// "No group": the owner of a variable no free alternative forces.
const NO_GROUP: u32 = u32::MAX;

/// One change to [`GroupBound`], undone on backtrack.
#[derive(Debug, Clone, Copy)]
enum Undo {
    Owner { var: VarId, group: u32, at: u32 },
    Min { group: u32, min: Option<f64> },
    Free { group: u32 },
    Satisfied { group: u32 },
}

/// The bound's group terms at the node being searched, kept across nodes.
///
/// `owner[v]` is the first unsatisfied choice group, in choice order, with
/// a free alternative whose requirement list holds `v`; `min[g]` is the
/// minimum, over `g`'s free alternatives in member order, of the in-order
/// sum of the coefficients of the free variables of that list that `g`
/// owns (`None` when `g` is satisfied or has no free alternative). Going
/// down the tree owners only move later, so a child changes only the
/// groups around the variables it fixed; every change goes on `trail` and
/// is popped on backtrack.
struct GroupBound {
    owner: Vec<u32>,
    /// Index into `holders[v]` of the entry that makes `owner[v]` the owner
    /// (`holders[v].len()` when there is none); the search for a new owner
    /// resumes there.
    owner_at: Vec<u32>,
    min: Vec<Option<f64>>,
    /// Free members of each group.
    free: Vec<u32>,
    /// Groups with a member fixed to 1.
    satisfied: Vec<bool>,
    /// Unsatisfied groups.
    open: usize,
    trail: Vec<Undo>,
    /// Scratch of [`GroupBound::advance`]: the variables fixed since the
    /// parent, and the groups whose minimum it recomputes.
    newly_fixed: Vec<VarId>,
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
}

impl GroupBound {
    /// The state of `domains`, built from scratch: the root's.
    fn new(groups: &ChoiceGroups, domains: &Domains) -> Self {
        let n = groups.members.len();
        let satisfied: Vec<bool> = groups
            .members
            .iter()
            .map(|terms| terms.iter().any(|(v, _)| domains.get(*v) == Some(true)))
            .collect();
        let mut state = GroupBound {
            owner: vec![NO_GROUP; groups.holders.len()],
            owner_at: vec![0; groups.holders.len()],
            min: vec![None; n],
            free: groups
                .members
                .iter()
                .map(|terms| terms.iter().filter(|(v, _)| domains.is_free(*v)).count() as u32)
                .collect(),
            open: satisfied.iter().filter(|s| !**s).count(),
            satisfied,
            trail: Vec::new(),
            newly_fixed: Vec::new(),
            dirty: Vec::new(),
            is_dirty: vec![false; n],
        };
        for v in 0..groups.holders.len() {
            let v = VarId(v as u32);
            (state.owner[v.index()], state.owner_at[v.index()]) =
                state.find_owner(groups, domains, v, 0);
        }
        for g in 0..n {
            state.min[g] = state.group_min(groups, domains, g);
        }
        state
    }

    /// `v`'s owner under `domains` and the index of its entry in
    /// `holders[v]`, searching from entry `from` on.
    fn find_owner(
        &self,
        groups: &ChoiceGroups,
        domains: &Domains,
        v: VarId,
        from: u32,
    ) -> (u32, u32) {
        let holders = &groups.holders[v.index()];
        holders[from as usize..]
            .iter()
            .position(|&(g, x)| !self.satisfied[g as usize] && domains.is_free(x))
            .map_or((NO_GROUP, holders.len() as u32), |i| {
                let at = from as usize + i;
                (holders[at].0, at as u32)
            })
    }

    /// `min[g]` under `domains` and the current owners.
    fn group_min(&self, groups: &ChoiceGroups, domains: &Domains, g: usize) -> Option<f64> {
        if self.satisfied[g] {
            return None;
        }
        let mut group_min: Option<f64> = None;
        for (x, _) in groups.members[g].iter() {
            if !domains.is_free(*x) {
                continue;
            }
            let mut alt_cost = 0.0;
            for &(v, coeff) in &groups.requirements[x.index()] {
                if self.owner[v.index()] == g as u32 && domains.is_free(v) {
                    alt_cost += coeff;
                }
            }
            group_min = Some(group_min.map_or(alt_cost, |m: f64| m.min(alt_cost)));
        }
        group_min
    }

    fn mark_dirty(&mut self, g: u32) {
        if g != NO_GROUP && !self.is_dirty[g as usize] {
            self.is_dirty[g as usize] = true;
            self.dirty.push(g);
        }
    }

    /// Moves the state from `parent` to `domains`, which fix a superset of
    /// `parent`'s variables, and returns the trail mark to undo to.
    fn advance(&mut self, groups: &ChoiceGroups, parent: &Domains, domains: &Domains) -> usize {
        let mark = self.trail.len();
        self.newly_fixed.clear();
        self.newly_fixed.extend(domains.fixed_since(parent));
        // Every group with a newly fixed member loses a free alternative,
        // and is satisfied when it was fixed to 1.
        for i in 0..self.newly_fixed.len() {
            let x = self.newly_fixed[i];
            for &g in &groups.groups_of[x.index()] {
                self.free[g as usize] -= 1;
                self.trail.push(Undo::Free { group: g });
                if domains.get(x) == Some(true) && !self.satisfied[g as usize] {
                    self.satisfied[g as usize] = true;
                    self.open -= 1;
                    self.trail.push(Undo::Satisfied { group: g });
                }
                self.mark_dirty(g);
            }
        }
        // Such a group releases what it owned through the alternatives it
        // lost (all of its alternatives, when satisfied): each released
        // variable moves to its next owner.
        for i in 0..self.dirty.len() {
            let g = self.dirty[i];
            let satisfied = self.satisfied[g as usize];
            for (x, _) in groups.members[g as usize].iter() {
                if !parent.is_free(*x) || (domains.is_free(*x) && !satisfied) {
                    continue;
                }
                for &(v, _) in &groups.requirements[x.index()] {
                    if self.owner[v.index()] != g {
                        continue;
                    }
                    let at = self.owner_at[v.index()];
                    let (owner, next) = self.find_owner(groups, domains, v, at);
                    if next != at {
                        self.trail.push(Undo::Owner {
                            var: v,
                            group: g,
                            at,
                        });
                        self.owner[v.index()] = owner;
                        self.owner_at[v.index()] = next;
                        self.mark_dirty(owner);
                    }
                }
            }
        }
        // A newly fixed variable leaves its owner's sum.
        for i in 0..self.newly_fixed.len() {
            let v = self.newly_fixed[i];
            self.mark_dirty(self.owner[v.index()]);
        }
        while let Some(g) = self.dirty.pop() {
            self.is_dirty[g as usize] = false;
            let min = self.group_min(groups, domains, g as usize);
            let old = std::mem::replace(&mut self.min[g as usize], min);
            self.trail.push(Undo::Min { group: g, min: old });
        }
        mark
    }

    /// Returns to the state the trail held at `mark`.
    fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail above mark") {
                Undo::Owner { var, group, at } => {
                    self.owner[var.index()] = group;
                    self.owner_at[var.index()] = at;
                }
                Undo::Min { group, min } => self.min[group as usize] = min,
                Undo::Free { group } => self.free[group as usize] += 1,
                Undo::Satisfied { group } => {
                    self.satisfied[group as usize] = false;
                    self.open += 1;
                }
            }
        }
    }

    /// `bound` plus the group minima in choice order, stopping as soon as
    /// the sum reaches `cutoff` (every minimum is a sum of positive
    /// coefficients, and adding a non-negative f64 never lowers a sum, so
    /// the caller's `bound >= cutoff` decision is the one the full sum
    /// gives).
    fn add_group_terms(&self, mut bound: f64, cutoff: f64) -> f64 {
        for m in self.min.iter().flatten() {
            bound += m;
            if bound >= cutoff {
                break;
            }
        }
        bound
    }
}

struct SearchState<'a> {
    model: &'a Model,
    propagator: Propagator<'a>,
    groups: ChoiceGroups<'a>,
    bound: GroupBound,
    /// Spare child-domain buffers: each expanded node takes one for its
    /// children and returns it on backtrack, so the pool grows to the
    /// search depth and no node allocates.
    pool: Vec<Domains>,
    /// Variables with a negative objective coefficient, ascending.
    negative: Vec<(VarId, f64)>,
    config: SolverConfig,
    started: Instant,
    nodes: u64,
    limit_hit: bool,
    incumbent: Option<(Assignment, f64)>,
    incumbent_node: u64,
}

impl<'a> SearchState<'a> {
    /// Prepares the search below the propagated `root`.
    fn new(
        model: &'a Model,
        mut propagator: Propagator<'a>,
        root: &Domains,
        config: SolverConfig,
        started: Instant,
    ) -> Self {
        let groups = ChoiceGroups::new(model, &mut propagator, root);
        let bound = GroupBound::new(&groups, root);
        let negative = model
            .vars()
            .map(|v| (v, model.objective_coeff(v)))
            .filter(|(_, c)| *c < 0.0)
            .collect();
        SearchState {
            model,
            propagator,
            groups,
            bound,
            pool: Vec::new(),
            negative,
            config,
            started,
            nodes: 0,
            limit_hit: false,
            incumbent: None,
            incumbent_node: 0,
        }
    }

    /// The objective mass of the variables fixed to 1 plus every negative
    /// coefficient still free (they can only decrease the objective
    /// further, so counting them keeps the bound admissible for general
    /// models).
    fn fixed_bound(&self, domains: &Domains) -> f64 {
        let mut bound = fixed_objective(self.model, domains);
        for &(v, c) in &self.negative {
            if domains.is_free(v) {
                bound += c;
            }
        }
        bound
    }

    /// Lower bound on the objective of every feasible completion of
    /// `domains`, the node [`GroupBound`] is at: [`Self::fixed_bound`] plus
    /// the group minima, stopping once it reaches `cutoff` (pass
    /// `f64::INFINITY` for the full sum). The minima are additive without
    /// double counting because each variable counts only for its owner.
    fn lower_bound(&self, domains: &Domains, cutoff: f64) -> f64 {
        let bound = self.fixed_bound(domains);
        if bound >= cutoff {
            return bound;
        }
        self.bound.add_group_terms(bound, cutoff)
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
        let mut best: Option<(usize, u32)> = None;
        for (g, &count) in self.bound.free.iter().enumerate() {
            if self.bound.satisfied[g] || count == 0 {
                continue;
            }
            if best.is_none_or(|(_, n)| count < n) {
                best = Some((g, count));
            }
        }
        best.and_then(|(g, _)| {
            self.groups.members[g]
                .iter()
                .map(|(v, _)| *v)
                .find(|v| domains.is_free(*v))
        })
        .or_else(|| domains.first_free())
    }

    /// Accepts the completion of `domains` with free variables at 0 when it
    /// is feasible and improves on the incumbent; the assignment is built
    /// only then.
    fn maybe_accept(&mut self, domains: &Domains) {
        // A choice group with no member at 1 violates its `Σ x = 1`: the
        // full scan below only runs once every group is satisfied.
        if self.bound.open > 0 {
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

    /// Searches the node `domains`, a propagated child of `parent` (the
    /// node [`GroupBound`] is at; the root is its own parent).
    fn search(&mut self, parent: &Domains, domains: &Domains) {
        self.nodes += 1;
        if self.out_of_budget() {
            return;
        }
        let cutoff = self.incumbent.as_ref().map(|(_, best)| *best - TOLERANCE);
        // Bound: the fixed mass alone prunes without touching the group
        // terms.
        let fixed = self.fixed_bound(domains);
        if cutoff.is_some_and(|cutoff| fixed >= cutoff) {
            return;
        }
        let mark = self.bound.advance(&self.groups, parent, domains);
        if !cutoff.is_some_and(|cutoff| self.bound.add_group_terms(fixed, cutoff) >= cutoff) {
            self.expand(domains);
        }
        self.bound.undo(mark);
    }

    /// Accepts or branches below an unpruned node.
    fn expand(&mut self, domains: &Domains) {
        // Even with free variables left, mapping them to 0 may already be a
        // feasible (and, given the bound, improving) solution.
        self.maybe_accept(domains);
        if domains.is_complete() {
            return;
        }
        let Some(var) = self.branching_variable(domains) else {
            return;
        };
        // Both children are built in one buffer from the pool.
        let mut child = self.pool.pop().unwrap_or_else(|| domains.clone());
        for value in [true, false] {
            child.clone_from(domains);
            if !child.fix(var, value) {
                continue;
            }
            match self.propagator.propagate_from(&mut child, var) {
                PropagationResult::Conflict(_) => continue,
                PropagationResult::Fixpoint(_) => self.search(domains, &child),
            }
            if self.limit_hit {
                break;
            }
        }
        self.pool.push(child);
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
            examined: propagator.examined(),
            elapsed: started.elapsed(),
        };
    }

    let mut state = SearchState::new(model, propagator, &root, config, started);
    if !config.disable_warm_start {
        state.incumbent = greedy(model);
    }
    let root_bound = state.lower_bound(&root, f64::INFINITY);
    state.search(&root, &root);

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
        examined: state.propagator.examined(),
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::satisfied;
    use crate::model::{LinExpr, Sense};
    use crate::test_models::random_model;
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

    /// Asserts that `state`'s incremental bound at `domains` is the one a
    /// from-scratch build gives there, and that its bound has the bits of
    /// [`dense_bound`]: in full, and as the same prune decision at cutoffs
    /// around it when stopped early.
    fn check_node(
        seed: u64,
        rng: &mut StdRng,
        state: &SearchState,
        requirements: &[Option<Vec<u64>>],
        domains: &Domains,
    ) {
        let scratch = GroupBound::new(&state.groups, domains);
        let kept = &state.bound;
        assert_eq!(kept.owner, scratch.owner, "seed {seed}: owners");
        assert_eq!(
            kept.owner_at, scratch.owner_at,
            "seed {seed}: owner entries"
        );
        assert_eq!(kept.free, scratch.free, "seed {seed}: free counts");
        assert_eq!(kept.satisfied, scratch.satisfied, "seed {seed}");
        assert_eq!(kept.open, scratch.open, "seed {seed}: open groups");
        let bits = |min: &[Option<f64>]| -> Vec<Option<u64>> {
            min.iter().map(|m| m.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&kept.min), bits(&scratch.min), "seed {seed}: minima");
        let choices = choice_constraints(state.model);
        let dense = dense_bound(state.model, &choices, requirements, domains);
        let full = state.lower_bound(domains, f64::INFINITY);
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
            let pruned = state.lower_bound(domains, cutoff) >= cutoff;
            assert_eq!(pruned, dense >= cutoff, "seed {seed}, cutoff {cutoff}");
        }
    }

    /// Drives the incremental bound of a random model the way the search
    /// does: down a random branch (every node a propagated fixpoint) and,
    /// now and then, back up to a random ancestor by undoing the trail,
    /// then down again. [`check_node`] holds every node it reaches to the
    /// from-scratch state and the dense oracle.
    fn check_bound_against_dense(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(&mut rng);
        let mut propagator = Propagator::new(&model);
        let mut root = Domains::free(model.num_vars());
        if let PropagationResult::Conflict(_) = propagator.propagate_all(&mut root) {
            return;
        }
        let config = SolverConfig::default();
        let mut state = SearchState::new(&model, propagator, &root, config, Instant::now());
        let requirements = dense_requirements(&model, &root, &choice_constraints(&model));
        // The branch from the root: each node with the trail mark that
        // returns the state to its parent.
        let mut path: Vec<(Domains, usize)> = vec![(root, 0)];
        for _ in 0..64 {
            let domains = &path.last().expect("the root stays").0;
            check_node(seed, &mut rng, &state, &requirements, domains);
            let free: Vec<VarId> = model.vars().filter(|v| domains.is_free(*v)).collect();
            let child = if free.is_empty() || (path.len() > 1 && rng.gen_bool(0.2)) {
                None
            } else {
                let var = free[rng.gen_range(0..free.len())];
                let first = rng.gen_bool(0.5);
                [first, !first].into_iter().find_map(|value| {
                    let mut child = domains.clone();
                    child.fix(var, value);
                    match state.propagator.propagate_from(&mut child, var) {
                        PropagationResult::Fixpoint(_) => Some(child),
                        PropagationResult::Conflict(_) => None,
                    }
                })
            };
            match child {
                Some(child) => {
                    let mark = state.bound.advance(&state.groups, domains, &child);
                    path.push((child, mark));
                }
                None if path.len() == 1 => return,
                None => {
                    let keep = rng.gen_range(1..path.len());
                    state.bound.undo(path[keep].1);
                    path.truncate(keep);
                }
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
