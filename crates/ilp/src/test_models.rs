//! Random models shared by the solver's and the propagator's property
//! tests.

use crate::model::{LinExpr, Model, Sense, VarId};
use rand::rngs::StdRng;
use rand::Rng;

/// A random selection-with-sharing model: choice groups whose
/// alternatives force random step subsets, some alternatives also
/// forcing an alternative of an earlier group (as maintenance orders
/// do; a costly one then sits in the forcing alternative's requirement
/// list), some alternatives of an earlier group also joining a later
/// group (a variable in two choice groups), and sometimes a
/// negative-cost variable.
pub(crate) fn random_model(rng: &mut StdRng) -> Model {
    let mut m = Model::new();
    let steps: Vec<VarId> = (0..rng.gen_range(3..40))
        .map(|i| m.add_binary(format!("y{i}"), rng.gen_range(1..1000) as f64 / 7.0))
        .collect();
    let costly = if rng.gen_bool(0.5) { 0.1 } else { 0.6 };
    let shared = if rng.gen_bool(0.5) { 0.0 } else { 0.3 };
    let mut earlier: Vec<VarId> = Vec::new();
    for g in 0..rng.gen_range(1..12) {
        let alts: Vec<VarId> = (0..rng.gen_range(1..6))
            .map(|a| {
                let coeff = if rng.gen_bool(costly) { 1.5 } else { 0.0 };
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
        let mut members = alts.clone();
        if !earlier.is_empty() && rng.gen_bool(shared) {
            members.push(earlier[rng.gen_range(0..earlier.len())]);
        }
        m.add_choose_one(format!("choice{g}"), members);
        earlier.extend(alts);
    }
    if rng.gen_bool(0.25) {
        let z = m.add_binary("z", -(rng.gen_range(1..50) as f64));
        m.add_constraint("cover", LinExpr::sum([z, steps[0]]), Sense::Ge, 1.0);
    }
    m
}
