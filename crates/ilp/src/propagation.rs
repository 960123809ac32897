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

use crate::model::{Model, Sense, VarId};

/// Three-valued domains of all variables: two bitsets, the fixed
/// variables and, among them, those fixed to 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domains {
    len: usize,
    fixed: Vec<u64>,
    ones: Vec<u64>,
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

/// Propagator: precomputes the variable → constraint adjacency of a model
/// and owns the work queue, so a propagation run allocates nothing.
#[derive(Debug)]
pub struct Propagator<'a> {
    model: &'a Model,
    /// For each variable, the indices of the constraints it appears in.
    var_constraints: Vec<Vec<usize>>,
    /// Constraints waiting to be re-examined (a stack); empty between runs.
    queue: Vec<usize>,
    /// `in_queue[ci]` iff `ci` is on `queue`; all `false` between runs.
    in_queue: Vec<bool>,
    /// Variables fixed by the constraint under examination.
    newly_fixed: Vec<VarId>,
}

impl<'a> Propagator<'a> {
    /// Builds a propagator for a model.
    pub fn new(model: &'a Model) -> Self {
        let mut var_constraints = vec![Vec::new(); model.num_vars()];
        for (ci, c) in model.constraints().iter().enumerate() {
            for (v, _) in c.expr.terms() {
                var_constraints[v.index()].push(ci);
            }
        }
        Propagator {
            model,
            var_constraints,
            queue: Vec::new(),
            in_queue: vec![false; model.num_constraints()],
            newly_fixed: Vec::new(),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &Model {
        self.model
    }

    /// Propagates all constraints to a fixpoint.
    pub fn propagate_all(&mut self, domains: &mut Domains) -> PropagationResult {
        self.queue.extend(0..self.model.num_constraints());
        self.propagate_queue(domains)
    }

    /// Propagates starting from the constraints involving `seed_var`
    /// (typically a variable that was just fixed by a branching decision).
    pub fn propagate_from(&mut self, domains: &mut Domains, seed_var: VarId) -> PropagationResult {
        self.queue
            .extend_from_slice(&self.var_constraints[seed_var.index()]);
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
            var_constraints,
            queue,
            in_queue,
            newly_fixed,
        } = self;
        for &ci in queue.iter() {
            in_queue[ci] = true;
        }
        while let Some(ci) = queue.pop() {
            in_queue[ci] = false;
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
                    newly_fixed.push(*v);
                } else if need_le && min_lhs + amp > c.rhs + EPS {
                    // The variable must contribute its minimum.
                    let value = *coeff < 0.0;
                    if !domains.fix(*v, value) {
                        return PropagationResult::Conflict(ci);
                    }
                    newly_fixed.push(*v);
                }
            }
            fixed_total += newly_fixed.len();
            for v in newly_fixed.iter() {
                for &other in &var_constraints[v.index()] {
                    if !in_queue[other] {
                        in_queue[other] = true;
                        queue.push(other);
                    }
                }
                // Re-examine the current constraint as well: fixing one of
                // its variables changes the bounds for the others.
                if !in_queue[ci] {
                    in_queue[ci] = true;
                    queue.push(ci);
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
}
