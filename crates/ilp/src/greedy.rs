//! Greedy construction heuristic.
//!
//! The models built from Algorithm 2 consist of *choice constraints*
//! (`Σ x = 1`, one per query and starting relation) plus implication- and
//! cost-constraints that propagate deterministically once a choice is
//! made. The greedy heuristic therefore walks the choice constraints and,
//! for each, commits the alternative whose propagation increases the total
//! objective the least — i.e. the probe order that shares the most step
//! cost with what has already been committed. The result is used as the
//! warm-start incumbent of the branch-and-bound solver and doubles as the
//! "fast, locally optimized" plan the paper mentions deploying while the
//! full optimization is still running (Section VII-C).

use crate::model::{Assignment, Model, Sense, VarId};
use crate::propagation::{Domains, PropagationResult, Propagator};

/// Indices of the model's choice constraints (`Σ x_i = 1` with unit
/// coefficients).
pub(crate) fn choice_constraints(model: &Model) -> Vec<usize> {
    model
        .constraints()
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            c.sense == Sense::Eq
                && (c.rhs - 1.0).abs() < 1e-9
                && c.expr
                    .terms()
                    .iter()
                    .all(|(_, coeff)| (coeff - 1.0).abs() < 1e-9)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Objective value of the variables fixed to 1 in the given domains.
pub(crate) fn fixed_objective(model: &Model, domains: &Domains) -> f64 {
    domains.ones().map(|v| model.objective_coeff(v)).sum()
}

/// `true` when the choice constraint already has a member fixed to 1.
pub(crate) fn satisfied(model: &Model, domains: &Domains, ci: usize) -> bool {
    model.constraints()[ci]
        .expr
        .terms()
        .iter()
        .any(|(v, _)| domains.get(*v) == Some(true))
}

/// Runs the greedy heuristic. Returns a feasible assignment and its
/// objective, or `None` when the heuristic runs into a dead end (which for
/// the optimizer's models means the model itself is infeasible).
pub fn greedy(model: &Model) -> Option<(Assignment, f64)> {
    let mut propagator = Propagator::new(model);
    let mut domains = Domains::free(model.num_vars());
    if let PropagationResult::Conflict(_) = propagator.propagate_all(&mut domains) {
        return None;
    }
    let choices = choice_constraints(model);
    // Trial and best-so-far buffers, reused for every candidate.
    let mut trial = domains.clone();
    let mut best_domains = domains.clone();

    loop {
        // Pick the unsatisfied choice constraint with the fewest free
        // alternatives (fail-first), then commit its cheapest alternative.
        let mut target: Option<(usize, usize)> = None; // (constraint, free count)
        for &ci in &choices {
            if satisfied(model, &domains, ci) {
                continue;
            }
            let free = model.constraints()[ci]
                .expr
                .terms()
                .iter()
                .filter(|(v, _)| domains.is_free(*v))
                .count();
            if target.map(|(_, best)| free < best).unwrap_or(true) {
                target = Some((ci, free));
            }
        }
        let Some((ci, _)) = target else { break };

        let candidates: Vec<VarId> = model.constraints()[ci]
            .expr
            .terms()
            .iter()
            .map(|(v, _)| *v)
            .filter(|v| domains.is_free(*v))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let mut best: Option<f64> = None;
        for candidate in candidates {
            trial.clone_from(&domains);
            if !trial.fix(candidate, true) {
                continue;
            }
            if let PropagationResult::Conflict(_) = propagator.propagate_from(&mut trial, candidate)
            {
                continue;
            }
            let objective = fixed_objective(model, &trial);
            if best.is_none_or(|obj| objective < obj) {
                best = Some(objective);
                std::mem::swap(&mut best_domains, &mut trial);
            }
        }
        best?;
        std::mem::swap(&mut domains, &mut best_domains);
    }

    // Complete the assignment: free variables default to 0; repair any
    // remaining violated ≥-constraints by switching on the cheapest
    // positive contributors.
    let mut assignment = domains.to_assignment();
    for _ in 0..model.num_constraints() {
        let Some(violated) = model.first_violation(&assignment, 1e-9) else {
            let objective = model.objective_value(&assignment);
            return Some((assignment, objective));
        };
        if !matches!(violated.sense, Sense::Ge | Sense::Eq) {
            return None;
        }
        // Cheapest unset variable with a positive coefficient.
        let mut candidates: Vec<(VarId, f64)> = violated
            .expr
            .terms()
            .iter()
            .filter(|(v, c)| *c > 0.0 && !assignment.get(*v))
            .map(|(v, _)| (*v, model.objective_coeff(*v)))
            .collect();
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        match candidates.first() {
            Some((v, _)) => assignment.set(*v, true),
            None => return None,
        }
    }
    if model.is_feasible(&assignment, 1e-9) {
        let objective = model.objective_value(&assignment);
        Some((assignment, objective))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinExpr;

    /// Two "queries" that can share a step: the greedy must discover that
    /// picking the sharing alternative is cheaper (the Section V-2 worked
    /// example in miniature).
    fn sharing_model() -> (Model, VarId, VarId) {
        let mut m = Model::new();
        // Steps.
        let y_sr = m.add_binary("y_SR", 100.0);
        let y_srt = m.add_binary("y_SRT", 50.0);
        let y_st = m.add_binary("y_ST", 100.0);
        let y_str = m.add_binary("y_STR", 75.0);
        let y_stu = m.add_binary("y_STU", 75.0);
        // q1, start S: x1 = ⟨S,R,T⟩ (cost 150), x2 = ⟨S,T,R⟩ (cost 175).
        let x1 = m.add_binary("x1", 0.0);
        let x2 = m.add_binary("x2", 0.0);
        m.add_choose_one("q1_S", [x1, x2]);
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
        // q2, start S: only ⟨S,T,U⟩ (cost 175).
        let x3 = m.add_binary("x3", 0.0);
        m.add_choose_one("q2_S", [x3]);
        m.add_constraint(
            "cost_x3",
            LinExpr::from_terms([(x3, -175.0), (y_st, 100.0), (y_stu, 75.0)]),
            Sense::Ge,
            0.0,
        );
        (m, x1, x2)
    }

    #[test]
    fn greedy_prefers_shared_probe_order() {
        let (m, x1, x2) = sharing_model();
        let (assignment, objective) = greedy(&m).expect("feasible");
        assert!(m.is_feasible(&assignment, 1e-9));
        // Sharing ⟨S,T⟩ between both queries costs 100+75+75 = 250;
        // the locally optimal x1 would cost 100+50+100+75 = 325.
        assert!(
            assignment.get(x2),
            "locally suboptimal but globally optimal order chosen"
        );
        assert!(!assignment.get(x1));
        assert!((objective - 250.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_handles_unconstrained_model() {
        let mut m = Model::new();
        m.add_binary("lonely", 5.0);
        let (assignment, objective) = greedy(&m).expect("feasible");
        assert_eq!(objective, 0.0);
        assert!(m.is_feasible(&assignment, 1e-9));
    }

    #[test]
    fn greedy_detects_infeasible_choice() {
        let mut m = Model::new();
        let a = m.add_binary("a", 1.0);
        let b = m.add_binary("b", 1.0);
        m.add_choose_one("choice", [a, b]);
        // Contradiction: both must be 0.
        m.add_constraint("a0", LinExpr::sum([a]), Sense::Le, 0.0);
        m.add_constraint("b0", LinExpr::sum([b]), Sense::Le, 0.0);
        assert!(greedy(&m).is_none());
    }

    #[test]
    fn greedy_repairs_plain_ge_constraints() {
        // No choice constraints at all: x + y >= 1 with costs 3 and 1.
        let mut m = Model::new();
        let x = m.add_binary("x", 3.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint("cover", LinExpr::sum([x, y]), Sense::Ge, 1.0);
        let (assignment, objective) = greedy(&m).expect("feasible");
        assert!(m.is_feasible(&assignment, 1e-9));
        assert!(assignment.get(y), "repair picks the cheaper variable");
        assert!((objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn choice_constraint_detection() {
        let (m, ..) = sharing_model();
        let choices = choice_constraints(&m);
        assert_eq!(choices.len(), 2);
        for ci in choices {
            assert_eq!(m.constraints()[ci].sense, Sense::Eq);
        }
    }
}
