//! Constraint propagation over binary domains.
//!
//! The solver never relaxes integrality: it reasons directly over the
//! three-valued domains {0, 1, free} of the binary variables. For every
//! constraint the propagator computes the smallest and largest achievable
//! left-hand side under the current domains; values that would make the
//! constraint unsatisfiable are pruned, which fixes variables. The models
//! produced by Algorithm 2 propagate very strongly: choosing a probe order
//! variable immediately fixes all of its step variables through the cost
//! constraints.
//!
//! A constraint is woken only by a fix that moves a bound its sense reads:
//! `max_lhs` for `≥`, `min_lhs` for `≤`, both for `=`. Fixing a step
//! variable to 1 therefore leaves the sibling cost constraints
//! `-C·x + Σ c·y ≥ 0` that hold it asleep (its coefficient is positive, so
//! their `max_lhs` does not move), which is most of what a branch-and-bound
//! node used to re-examine. [`Propagator::propagate_from`] states the
//! precondition this needs and why the fixpoint it reaches is the one a
//! full pass reaches.

use crate::model::{Model, Sense, VarId};

/// Three-valued domains of all variables: two bitsets, the fixed
/// variables and, among them, those fixed to 1.
#[derive(Debug, PartialEq, Eq)]
pub struct Domains {
    len: usize,
    fixed: Vec<u64>,
    ones: Vec<u64>,
}

impl Clone for Domains {
    fn clone(&self) -> Self {
        Domains {
            len: self.len,
            fixed: self.fixed.clone(),
            ones: self.ones.clone(),
        }
    }

    /// Copies `source` into the buffers `self` already owns: no allocation
    /// when both cover the same number of variables.
    fn clone_from(&mut self, source: &Self) {
        self.len = source.len;
        self.fixed.clone_from(&source.fixed);
        self.ones.clone_from(&source.ones);
    }
}

/// Ids of the set bits of a bitset given word by word, ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = VarId> {
    words.enumerate().flat_map(|(i, mut w)| {
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros();
                w &= w - 1;
                VarId((i * 64) as u32 + bit)
            })
        })
    })
}

impl Domains {
    /// All-free domains for `n` variables.
    pub fn free(n: usize) -> Self {
        let words = n.div_ceil(64);
        Domains {
            len: n,
            fixed: vec![0; words],
            ones: vec![0; words],
        }
    }

    /// Current domain of a variable.
    pub fn get(&self, var: VarId) -> Option<bool> {
        let (word, bit) = (var.index() / 64, 1u64 << (var.index() % 64));
        (self.fixed[word] & bit != 0).then_some(self.ones[word] & bit != 0)
    }

    /// `true` when the variable is not yet fixed.
    pub fn is_free(&self, var: VarId) -> bool {
        self.fixed[var.index() / 64] & (1u64 << (var.index() % 64)) == 0
    }

    /// Fixes a variable. Returns `false` when the variable was already
    /// fixed to the opposite value (conflict).
    pub fn fix(&mut self, var: VarId, value: bool) -> bool {
        match self.get(var) {
            None => {
                let (word, bit) = (var.index() / 64, 1u64 << (var.index() % 64));
                self.fixed[word] |= bit;
                if value {
                    self.ones[word] |= bit;
                }
                true
            }
            Some(v) => v == value,
        }
    }

    /// Number of fixed variables.
    pub fn fixed_count(&self) -> usize {
        self.fixed.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when every variable is fixed.
    pub fn is_complete(&self) -> bool {
        self.fixed_count() == self.len
    }

    /// Index of the first free variable, if any.
    pub fn first_free(&self) -> Option<VarId> {
        self.fixed
            .iter()
            .enumerate()
            .find(|(_, w)| **w != u64::MAX)
            .map(|(i, w)| VarId((i * 64) as u32 + w.trailing_ones()))
            .filter(|v| v.index() < self.len)
    }

    /// Converts to a full assignment, mapping free variables to 0 (the
    /// cheapest completion for non-negative objectives).
    pub fn to_assignment(&self) -> crate::model::Assignment {
        crate::model::Assignment::from_values(
            (0..self.len)
                .map(|i| self.get(VarId(i as u32)) == Some(true))
                .collect(),
        )
    }

    /// Ids of variables currently fixed to 1, ascending.
    pub fn ones(&self) -> impl Iterator<Item = VarId> + '_ {
        set_bits(self.ones.iter().copied())
    }

    /// Ids of the variables fixed here but free in `ancestor` (domains these
    /// were derived from by fixing variables), ascending.
    pub fn fixed_since<'s>(&'s self, ancestor: &'s Domains) -> impl Iterator<Item = VarId> + 's {
        set_bits(
            self.fixed
                .iter()
                .zip(&ancestor.fixed)
                .map(|(now, then)| now ^ then),
        )
    }
}

/// Result of a propagation run.
#[derive(Debug, Clone, PartialEq)]
pub enum PropagationResult {
    /// A fixpoint was reached without conflicts; the payload is the number
    /// of variables fixed during this run.
    Fixpoint(usize),
    /// Some constraint cannot be satisfied anymore. The payload is the
    /// index of the conflicting constraint.
    Conflict(usize),
}

/// Whether fixing a variable with coefficient `coeff` to `value` moves a
/// bound its constraint reads (`reads_max`: `max_lhs`, for `≥` and `=`;
/// `reads_min`: `min_lhs`, for `≤` and `=`). Free, the variable adds
/// `max(coeff, 0)` to `max_lhs` and `min(coeff, 0)` to `min_lhs`; fixed,
/// it adds `coeff` (at 1) or nothing (at 0) to both.
fn moves_read_bound(coeff: f64, value: bool, reads_max: bool, reads_min: bool) -> bool {
    // `max_lhs` falls when a positive coefficient goes to 0 or a negative
    // one to 1; `min_lhs` rises in the mirror cases.
    let lowers_max = if value { coeff < 0.0 } else { coeff > 0.0 };
    let raises_min = if value { coeff > 0.0 } else { coeff < 0.0 };
    (reads_max && lowers_max) || (reads_min && raises_min)
}

/// Propagator: precomputes which constraints each fix wakes and owns the
/// work queue, so a propagation run allocates nothing.
#[derive(Debug)]
pub struct Propagator<'a> {
    model: &'a Model,
    /// `wakes[value][v]`: the constraints, ascending, whose read bound
    /// moves when `v` is fixed to `value` ([`moves_read_bound`]).
    wakes: [Vec<Vec<usize>>; 2],
    /// Constraints waiting to be re-examined (a stack); empty between runs.
    queue: Vec<usize>,
    /// `in_queue[ci]` iff `ci` is on `queue`; all `false` between runs.
    in_queue: Vec<bool>,
    /// Variables fixed by the constraint under examination, with their
    /// values.
    newly_fixed: Vec<(VarId, bool)>,
    /// Constraint examinations since the propagator was built.
    examined: u64,
}

impl<'a> Propagator<'a> {
    /// Builds a propagator for a model.
    pub fn new(model: &'a Model) -> Self {
        let mut wakes = [
            vec![Vec::new(); model.num_vars()],
            vec![Vec::new(); model.num_vars()],
        ];
        for (ci, c) in model.constraints().iter().enumerate() {
            let reads_max = matches!(c.sense, Sense::Ge | Sense::Eq);
            let reads_min = matches!(c.sense, Sense::Le | Sense::Eq);
            for (v, coeff) in c.expr.terms() {
                for value in [false, true] {
                    if moves_read_bound(*coeff, value, reads_max, reads_min) {
                        wakes[value as usize][v.index()].push(ci);
                    }
                }
            }
        }
        Propagator {
            model,
            wakes,
            queue: Vec::new(),
            in_queue: vec![false; model.num_constraints()],
            newly_fixed: Vec::new(),
            examined: 0,
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &Model {
        self.model
    }

    /// Constraint examinations of every run since the propagator was built:
    /// a deterministic measure of propagation work.
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Propagates all constraints to a fixpoint.
    pub fn propagate_all(&mut self, domains: &mut Domains) -> PropagationResult {
        self.queue.extend(0..self.model.num_constraints());
        self.propagate_queue(domains)
    }

    /// Propagates the fix of `seed_var` (typically a branching decision) to
    /// a fixpoint, starting from the constraints whose read bound it moves.
    ///
    /// *Precondition:* `domains` are a fixpoint (of [`Self::propagate_all`]
    /// or of this method) except for the fix of `seed_var`. The solver, its
    /// requirement lists and the greedy heuristic all propagate a clone of
    /// a fixpoint with one variable fixed. A free `seed_var` wakes nothing.
    ///
    /// *Why waking fewer constraints is exact.* A constraint's examination
    /// reads one bound per side (`max_lhs` for `≥`, `min_lhs` for `≤`, both
    /// for `=`), summed from scratch in term order. A fix that does not
    /// change a variable's contribution to that bound leaves the sum
    /// bit-equal, so a constraint that forced nothing at the fixpoint
    /// still forces nothing and does not conflict; only the fixes
    /// `moves_read_bound` names wake it, including its own fixes. Each
    /// run therefore ends at a true fixpoint, which keeps the precondition
    /// for the next one. The rules are monotone: a fix only lowers
    /// `max_lhs` and raises `min_lhs` (float addition is monotone in each
    /// term), and a constraint that forces a value or conflicts keeps doing
    /// so under tighter domains. So the fixpoint is the unique least one,
    /// and whether a conflict occurs does not depend on the order in which
    /// constraints are examined: the domains, the fixed count and the
    /// conflict verdict are those of a full pass (only the index in
    /// [`PropagationResult::Conflict`] may differ).
    pub fn propagate_from(&mut self, domains: &mut Domains, seed_var: VarId) -> PropagationResult {
        if let Some(value) = domains.get(seed_var) {
            self.queue
                .extend_from_slice(&self.wakes[value as usize][seed_var.index()]);
        }
        self.propagate_queue(domains)
    }

    fn propagate_queue(&mut self, domains: &mut Domains) -> PropagationResult {
        let result = self.run_queue(domains);
        for ci in self.queue.drain(..) {
            self.in_queue[ci] = false;
        }
        result
    }

    fn run_queue(&mut self, domains: &mut Domains) -> PropagationResult {
        const EPS: f64 = 1e-9;
        let mut fixed_total = 0usize;
        let Propagator {
            model,
            wakes,
            queue,
            in_queue,
            newly_fixed,
            examined,
        } = self;
        for &ci in queue.iter() {
            in_queue[ci] = true;
        }
        while let Some(ci) = queue.pop() {
            in_queue[ci] = false;
            *examined += 1;
            let c = &model.constraints()[ci];
            // Bounds of the LHS under the current domains.
            let mut min_lhs = 0.0;
            let mut max_lhs = 0.0;
            for (v, coeff) in c.expr.terms() {
                match domains.get(*v) {
                    Some(true) => {
                        min_lhs += coeff;
                        max_lhs += coeff;
                    }
                    Some(false) => {}
                    None => {
                        min_lhs += coeff.min(0.0);
                        max_lhs += coeff.max(0.0);
                    }
                }
            }
            let need_ge = matches!(c.sense, Sense::Ge | Sense::Eq);
            let need_le = matches!(c.sense, Sense::Le | Sense::Eq);
            if need_ge && max_lhs < c.rhs - EPS {
                return PropagationResult::Conflict(ci);
            }
            if need_le && min_lhs > c.rhs + EPS {
                return PropagationResult::Conflict(ci);
            }
            // Try to fix free variables whose "wrong" value would violate
            // the constraint.
            newly_fixed.clear();
            for (v, coeff) in c.expr.terms() {
                if !domains.is_free(*v) {
                    continue;
                }
                let amp = coeff.abs();
                if amp <= EPS {
                    continue;
                }
                if need_ge && max_lhs - amp < c.rhs - EPS {
                    // The variable must contribute its maximum.
                    let value = *coeff > 0.0;
                    if !domains.fix(*v, value) {
                        return PropagationResult::Conflict(ci);
                    }
                    newly_fixed.push((*v, value));
                } else if need_le && min_lhs + amp > c.rhs + EPS {
                    // The variable must contribute its minimum.
                    let value = *coeff < 0.0;
                    if !domains.fix(*v, value) {
                        return PropagationResult::Conflict(ci);
                    }
                    newly_fixed.push((*v, value));
                }
            }
            fixed_total += newly_fixed.len();
            // Wake what the fixes tighten, `ci` itself included (an `=`
            // constraint reads the bound its own forcing moves).
            for &(v, value) in newly_fixed.iter() {
                for &other in &wakes[value as usize][v.index()] {
                    if !in_queue[other] {
                        in_queue[other] = true;
                        queue.push(other);
                    }
                }
            }
        }
        PropagationResult::Fixpoint(fixed_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model};
    use crate::test_models::random_model;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn choose_one_with_single_candidate_is_forced() {
        let mut m = Model::new();
        let x = m.add_binary("x", 1.0);
        m.add_choose_one("only", [x]);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(1);
        assert_eq!(p.propagate_all(&mut d), PropagationResult::Fixpoint(1));
        assert_eq!(d.get(x), Some(true));
        assert!(d.is_complete());
    }

    #[test]
    fn implication_propagates_when_antecedent_fixed() {
        // -x + y >= 0, x fixed to 1 forces y = 1.
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let y = m.add_binary("y", 1.0);
        m.add_implies_any("imp", x, [y]);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(2);
        assert!(d.fix(x, true));
        assert_eq!(p.propagate_from(&mut d, x), PropagationResult::Fixpoint(1));
        assert_eq!(d.get(y), Some(true));
    }

    #[test]
    fn cost_constraint_fixes_all_step_variables() {
        // -10 x + 4 y1 + 6 y2 >= 0: x=1 requires both steps.
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let y1 = m.add_binary("y1", 4.0);
        let y2 = m.add_binary("y2", 6.0);
        let expr = LinExpr::from_terms([(x, -10.0), (y1, 4.0), (y2, 6.0)]);
        m.add_constraint("cost", expr, Sense::Ge, 0.0);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(3);
        d.fix(x, true);
        assert_eq!(p.propagate_from(&mut d, x), PropagationResult::Fixpoint(2));
        assert_eq!(d.get(y1), Some(true));
        assert_eq!(d.get(y2), Some(true));
    }

    #[test]
    fn choose_one_excludes_remaining_after_selection() {
        let mut m = Model::new();
        let a = m.add_binary("a", 0.0);
        let b = m.add_binary("b", 0.0);
        let c = m.add_binary("c", 0.0);
        m.add_choose_one("choice", [a, b, c]);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(3);
        d.fix(a, true);
        assert!(matches!(
            p.propagate_from(&mut d, a),
            PropagationResult::Fixpoint(2)
        ));
        assert_eq!(d.get(b), Some(false));
        assert_eq!(d.get(c), Some(false));
    }

    #[test]
    fn conflict_detected_when_constraint_unsatisfiable() {
        let mut m = Model::new();
        let a = m.add_binary("a", 0.0);
        let b = m.add_binary("b", 0.0);
        m.add_choose_one("choice", [a, b]);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(2);
        d.fix(a, false);
        d.fix(b, false);
        assert!(matches!(
            p.propagate_all(&mut d),
            PropagationResult::Conflict(_)
        ));
    }

    #[test]
    fn fix_conflicting_value_reports_false() {
        let mut d = Domains::free(2);
        assert!(d.fix(VarId(0), true));
        assert!(d.fix(VarId(0), true), "re-fixing to the same value is fine");
        assert!(!d.fix(VarId(0), false));
        assert_eq!(d.fixed_count(), 1);
        assert_eq!(d.first_free(), Some(VarId(1)));
        let ones: Vec<VarId> = d.ones().collect();
        assert_eq!(ones, vec![VarId(0)]);
    }

    #[test]
    fn bitsets_cross_word_boundaries() {
        let mut d = Domains::free(65);
        let parent = d.clone();
        for i in 0..64 {
            assert!(d.fix(VarId(i), i % 2 == 1));
        }
        assert_eq!(d.first_free(), Some(VarId(64)));
        assert!(!d.is_complete());
        assert_eq!(d.fixed_since(&parent).count(), 64);
        let before = d.clone();
        assert!(d.fix(VarId(64), true));
        assert!(d.is_complete());
        assert_eq!(d.first_free(), None);
        assert_eq!(d.fixed_since(&before).collect::<Vec<_>>(), vec![VarId(64)]);
        assert_eq!(d.ones().count(), 33);
        assert_eq!(d.get(VarId(63)), Some(true));
        assert_eq!(d.get(VarId(62)), Some(false));
    }

    #[test]
    fn to_assignment_maps_free_to_zero() {
        let mut d = Domains::free(3);
        d.fix(VarId(1), true);
        let asg = d.to_assignment();
        assert!(!asg.get(VarId(0)));
        assert!(asg.get(VarId(1)));
        assert!(!asg.get(VarId(2)));
    }

    #[test]
    fn le_constraints_prune_upwards() {
        // x + y <= 1 with x = 1 forces y = 0.
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let y = m.add_binary("y", 0.0);
        m.add_constraint("le", LinExpr::sum([x, y]), Sense::Le, 1.0);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(2);
        d.fix(x, true);
        assert!(matches!(
            p.propagate_from(&mut d, x),
            PropagationResult::Fixpoint(1)
        ));
        assert_eq!(d.get(y), Some(false));
    }

    /// [`random_model`]'s choice, cost and maintenance shapes plus random
    /// `≥`, `≤` and `=` constraints with signed coefficients. Each extra
    /// right-hand side is put near the left-hand side of a random
    /// assignment, so some constraints are tight and some slack.
    fn random_mixed_model(rng: &mut StdRng) -> Model {
        let mut m = random_model(rng);
        let vars: Vec<VarId> = m.vars().collect();
        for i in 0..rng.gen_range(0..10) {
            let mut expr = LinExpr::new();
            for _ in 0..rng.gen_range(1..6) {
                let coeff =
                    (rng.gen_range(1..8) as f64) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                expr.add(vars[rng.gen_range(0..vars.len())], coeff);
            }
            let lhs: f64 = expr
                .terms()
                .iter()
                .filter(|_| rng.gen_bool(0.5))
                .map(|(_, c)| c)
                .sum();
            let slack = rng.gen_range(0..3) as f64;
            let (sense, rhs) = match rng.gen_range(0..3) {
                0 => (Sense::Ge, lhs - slack),
                1 => (Sense::Le, lhs + slack),
                _ => (Sense::Eq, lhs),
            };
            m.add_constraint(format!("extra{i}"), expr, sense, rhs);
        }
        m
    }

    /// Walks a random model from its root fixpoint through random fixes,
    /// now and then back to a random ancestor, and holds every
    /// [`Propagator::propagate_from`] to [`Propagator::propagate_all`] on a
    /// clone: the same domain bits and fixed count, or both in conflict.
    fn check_woken_against_full(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_mixed_model(&mut rng);
        let mut woken = Propagator::new(&model);
        let mut full = Propagator::new(&model);
        let mut root = Domains::free(model.num_vars());
        if let PropagationResult::Conflict(_) = full.propagate_all(&mut root) {
            return;
        }
        let mut path = vec![root];
        for _ in 0..64 {
            let domains = path.last().expect("the root stays");
            let free: Vec<VarId> = model.vars().filter(|v| domains.is_free(*v)).collect();
            if free.is_empty() || (path.len() > 1 && rng.gen_bool(0.15)) {
                if path.len() == 1 {
                    return;
                }
                let keep = rng.gen_range(1..path.len());
                path.truncate(keep);
                continue;
            }
            let var = free[rng.gen_range(0..free.len())];
            let mut child = domains.clone();
            assert!(child.fix(var, rng.gen_bool(0.5)));
            let mut reference = child.clone();
            let got = woken.propagate_from(&mut child, var);
            let want = full.propagate_all(&mut reference);
            match (got, want) {
                (PropagationResult::Fixpoint(got), PropagationResult::Fixpoint(want)) => {
                    assert_eq!(child, reference, "seed {seed}: fixing {var}");
                    assert_eq!(got, want, "seed {seed}: fixed count after {var}");
                    path.push(child);
                }
                (PropagationResult::Conflict(_), PropagationResult::Conflict(_)) => {}
                (got, want) => panic!("seed {seed}: fixing {var}: {got:?} vs {want:?}"),
            }
        }
    }

    proptest! {
        #[test]
        fn woken_propagation_reaches_the_full_fixpoint(seed in 0u64..u64::MAX) {
            check_woken_against_full(seed);
        }
    }

    #[test]
    fn a_fix_wakes_only_the_constraints_whose_read_bound_it_moves() {
        // -10 x + 4 y >= 0 reads max_lhs: y = 1 leaves it asleep, y = 0 and
        // x = 1 wake it. x + y <= 1 reads min_lhs: only fixes to 1 wake it.
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let y = m.add_binary("y", 4.0);
        m.add_constraint(
            "cost",
            LinExpr::from_terms([(x, -10.0), (y, 4.0)]),
            Sense::Ge,
            0.0,
        );
        m.add_constraint("le", LinExpr::sum([x, y]), Sense::Le, 1.0);
        m.add_choose_one("eq", [x, y]);
        let p = Propagator::new(&m);
        assert_eq!(p.wakes[1][y.index()], vec![1, 2]);
        assert_eq!(p.wakes[0][y.index()], vec![0, 2]);
        assert_eq!(p.wakes[1][x.index()], vec![0, 1, 2]);
        assert_eq!(p.wakes[0][x.index()], vec![2]);
    }
}
