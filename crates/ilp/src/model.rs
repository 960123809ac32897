//! 0/1 ILP modeling: variables, linear expressions, constraints, models.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a binary decision variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Comparison sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Ge,
    /// `expr ≤ rhs`
    Le,
}

/// A linear expression `Σ coeff_i · x_i` over binary variables.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    /// The empty expression.
    pub fn new() -> Self {
        LinExpr { terms: Vec::new() }
    }

    /// Adds a term `coeff · var`. Terms over the same variable are merged.
    pub fn add(&mut self, var: VarId, coeff: f64) -> &mut Self {
        if coeff == 0.0 {
            return self;
        }
        if let Some(t) = self.terms.iter_mut().find(|(v, _)| *v == var) {
            t.1 += coeff;
        } else {
            self.terms.push((var, coeff));
        }
        self
    }

    /// Builds an expression from `(var, coeff)` pairs.
    pub fn from_terms(terms: impl IntoIterator<Item = (VarId, f64)>) -> Self {
        let mut e = LinExpr::new();
        for (v, c) in terms {
            e.add(v, c);
        }
        e
    }

    /// Builds `Σ x_i` over the given variables (all coefficients 1).
    pub fn sum(vars: impl IntoIterator<Item = VarId>) -> Self {
        LinExpr::from_terms(vars.into_iter().map(|v| (v, 1.0)))
    }

    /// The terms of the expression.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when the expression has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression under a full assignment.
    pub fn evaluate(&self, assignment: &Assignment) -> f64 {
        self.evaluate_by(|v| assignment.get(v))
    }

    /// Evaluates the expression with `one(v)` as the value of each variable.
    fn evaluate_by(&self, one: impl Fn(VarId) -> bool) -> f64 {
        self.terms
            .iter()
            .map(|(v, c)| if one(*v) { *c } else { 0.0 })
            .sum()
    }
}

/// A linear constraint `expr (sense) rhs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Comparison sense.
    pub sense: Sense,
    /// Right-hand side constant.
    pub rhs: f64,
    /// Debug name (shows up in infeasibility reports).
    pub name: String,
}

impl Constraint {
    /// `true` when the constraint holds under the assignment (within
    /// `tolerance`).
    pub fn is_satisfied(&self, assignment: &Assignment, tolerance: f64) -> bool {
        self.is_satisfied_by(|v| assignment.get(v), tolerance)
    }

    fn is_satisfied_by(&self, one: impl Fn(VarId) -> bool, tolerance: f64) -> bool {
        let lhs = self.expr.evaluate_by(one);
        match self.sense {
            Sense::Eq => (lhs - self.rhs).abs() <= tolerance,
            Sense::Ge => lhs >= self.rhs - tolerance,
            Sense::Le => lhs <= self.rhs + tolerance,
        }
    }
}

/// A complete 0/1 assignment of the model's variables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    values: Vec<bool>,
}

impl Assignment {
    /// All-zero assignment over `n` variables.
    pub fn zeros(n: usize) -> Self {
        Assignment {
            values: vec![false; n],
        }
    }

    /// Builds an assignment from raw values.
    pub fn from_values(values: Vec<bool>) -> Self {
        Assignment { values }
    }

    /// Value of a variable.
    pub fn get(&self, var: VarId) -> bool {
        self.values.get(var.index()).copied().unwrap_or(false)
    }

    /// Sets the value of a variable.
    pub fn set(&mut self, var: VarId, value: bool) {
        if var.index() < self.values.len() {
            self.values[var.index()] = value;
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when there are no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Ids of the variables set to 1.
    pub fn ones(&self) -> impl Iterator<Item = VarId> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v)
            .map(|(i, _)| VarId(i as u32))
    }
}

/// Size statistics of a model — the quantities plotted in Fig. 9b / 9d of
/// the paper (number of ILP variables and constraints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelStats {
    /// Number of binary variables.
    pub variables: usize,
    /// Number of linear constraints.
    pub constraints: usize,
    /// Total number of non-zero coefficients.
    pub nonzeros: usize,
}

/// A 0/1 integer linear program with a minimization objective.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Model {
    objective: Vec<f64>,
    names: Vec<String>,
    constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a binary variable with the given objective coefficient.
    pub fn add_binary(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        let id = VarId(self.objective.len() as u32);
        self.objective.push(objective);
        self.names.push(name.into());
        id
    }

    /// Changes the objective coefficient of an existing variable.
    pub fn set_objective(&mut self, var: VarId, objective: f64) {
        self.objective[var.index()] = objective;
    }

    /// Adds a constraint.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        sense: Sense,
        rhs: f64,
    ) {
        self.constraints.push(Constraint {
            expr,
            sense,
            rhs,
            name: name.into(),
        });
    }

    /// Convenience: `Σ vars = 1` (the "choose exactly one plan" constraints
    /// of Equation 2).
    pub fn add_choose_one(
        &mut self,
        name: impl Into<String>,
        vars: impl IntoIterator<Item = VarId>,
    ) {
        self.add_constraint(name, LinExpr::sum(vars), Sense::Eq, 1.0);
    }

    /// Convenience: `x = 1 ⇒ at least one of ys` encoded as
    /// `-x + Σ ys ≥ 0`.
    pub fn add_implies_any(
        &mut self,
        name: impl Into<String>,
        x: VarId,
        ys: impl IntoIterator<Item = VarId>,
    ) {
        let mut expr = LinExpr::sum(ys);
        expr.add(x, -1.0);
        self.add_constraint(name, expr, Sense::Ge, 0.0);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective coefficient of a variable.
    pub fn objective_coeff(&self, var: VarId) -> f64 {
        self.objective[var.index()]
    }

    /// Name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.names[var.index()]
    }

    /// All variable ids.
    pub fn vars(&self) -> impl Iterator<Item = VarId> {
        (0..self.num_vars() as u32).map(VarId)
    }

    /// The constraints of the model.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Objective value of an assignment.
    pub fn objective_value(&self, assignment: &Assignment) -> f64 {
        self.objective_value_by(|v| assignment.get(v))
    }

    /// Objective value with `one(v)` as the value of each variable (the
    /// solver reads it from its domains, without building an assignment).
    pub(crate) fn objective_value_by(&self, one: impl Fn(VarId) -> bool) -> f64 {
        self.objective
            .iter()
            .enumerate()
            .map(|(i, c)| if one(VarId(i as u32)) { *c } else { 0.0 })
            .sum()
    }

    /// Returns the first violated constraint under the assignment, if any.
    pub fn first_violation(&self, assignment: &Assignment, tolerance: f64) -> Option<&Constraint> {
        self.constraints
            .iter()
            .find(|c| !c.is_satisfied(assignment, tolerance))
    }

    /// `true` when the assignment satisfies every constraint.
    pub fn is_feasible(&self, assignment: &Assignment, tolerance: f64) -> bool {
        self.first_violation(assignment, tolerance).is_none()
    }

    /// [`Self::is_feasible`] with `one(v)` as the value of each variable.
    pub(crate) fn is_feasible_by(
        &self,
        one: impl Fn(VarId) -> bool + Copy,
        tolerance: f64,
    ) -> bool {
        self.constraints
            .iter()
            .all(|c| c.is_satisfied_by(one, tolerance))
    }

    /// Size statistics (Fig. 9b / 9d).
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            variables: self.num_vars(),
            constraints: self.num_constraints(),
            nonzeros: self.constraints.iter().map(|c| c.expr.len()).sum(),
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "minimize")?;
        let obj: Vec<String> = self
            .objective
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0.0)
            .map(|(i, c)| format!("{c}·{}", self.names[i]))
            .collect();
        writeln!(f, "  {}", obj.join(" + "))?;
        writeln!(f, "subject to")?;
        for c in &self.constraints {
            let lhs: Vec<String> = c
                .expr
                .terms()
                .iter()
                .map(|(v, coeff)| format!("{coeff}·{}", self.names[v.index()]))
                .collect();
            let sense = match c.sense {
                Sense::Eq => "=",
                Sense::Ge => "≥",
                Sense::Le => "≤",
            };
            writeln!(f, "  [{}] {} {} {}", c.name, lhs.join(" + "), sense, c.rhs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> (Model, VarId, VarId, VarId) {
        // min 2a + 3b + c  s.t.  a + b = 1,  -a + c >= 0 (a ⇒ c)
        let mut m = Model::new();
        let a = m.add_binary("a", 2.0);
        let b = m.add_binary("b", 3.0);
        let c = m.add_binary("c", 1.0);
        m.add_choose_one("choice", [a, b]);
        m.add_implies_any("a_implies_c", a, [c]);
        (m, a, b, c)
    }

    #[test]
    fn expression_merges_terms_and_evaluates() {
        let mut e = LinExpr::new();
        e.add(VarId(0), 1.0)
            .add(VarId(1), 2.0)
            .add(VarId(0), 0.5)
            .add(VarId(2), 0.0);
        assert_eq!(e.len(), 2, "zero coefficients dropped, duplicates merged");
        let mut asg = Assignment::zeros(3);
        asg.set(VarId(0), true);
        assert!((e.evaluate(&asg) - 1.5).abs() < 1e-12);
        asg.set(VarId(1), true);
        assert!((e.evaluate(&asg) - 3.5).abs() < 1e-12);
        assert!(!e.is_empty());
        assert!(LinExpr::new().is_empty());
    }

    #[test]
    fn feasibility_and_objective() {
        let (m, a, b, c) = toy_model();
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.num_constraints(), 2);
        assert_eq!(m.stats().nonzeros, 2 + 2);

        // a=1, c=1 is feasible with objective 3.
        let mut asg = Assignment::zeros(3);
        asg.set(a, true);
        asg.set(c, true);
        assert!(m.is_feasible(&asg, 1e-9));
        assert!((m.objective_value(&asg) - 3.0).abs() < 1e-12);

        // b=1 alone is feasible with objective 3.
        let mut asg = Assignment::zeros(3);
        asg.set(b, true);
        assert!(m.is_feasible(&asg, 1e-9));

        // a=1 without c violates the implication.
        let mut asg = Assignment::zeros(3);
        asg.set(a, true);
        let v = m.first_violation(&asg, 1e-9).unwrap();
        assert_eq!(v.name, "a_implies_c");

        // Nothing chosen violates the choice constraint.
        let asg = Assignment::zeros(3);
        assert!(!m.is_feasible(&asg, 1e-9));

        // Both chosen violates it too (Eq sense).
        let mut asg = Assignment::zeros(3);
        asg.set(a, true);
        asg.set(b, true);
        asg.set(c, true);
        assert!(!m.is_feasible(&asg, 1e-9));
    }

    #[test]
    fn constraint_sense_semantics() {
        let mut m = Model::new();
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint("le", LinExpr::sum([x, y]), Sense::Le, 1.0);
        let mut asg = Assignment::zeros(2);
        assert!(m.is_feasible(&asg, 1e-9));
        asg.set(x, true);
        assert!(m.is_feasible(&asg, 1e-9));
        asg.set(y, true);
        assert!(!m.is_feasible(&asg, 1e-9));
    }

    #[test]
    fn assignment_accessors() {
        let mut asg = Assignment::zeros(4);
        assert_eq!(asg.len(), 4);
        assert!(!asg.is_empty());
        asg.set(VarId(1), true);
        asg.set(VarId(3), true);
        let ones: Vec<u32> = asg.ones().map(|v| v.0).collect();
        assert_eq!(ones, vec![1, 3]);
        // Out-of-range reads return false, writes are ignored.
        assert!(!asg.get(VarId(17)));
        asg.set(VarId(17), true);
        assert_eq!(asg.len(), 4);
    }

    #[test]
    fn display_contains_constraint_names() {
        let (m, ..) = toy_model();
        let text = m.to_string();
        assert!(text.contains("minimize"));
        assert!(text.contains("choice"));
        assert!(text.contains("a_implies_c"));
    }

    #[test]
    fn set_objective_overrides_coefficient() {
        let (mut m, a, ..) = toy_model();
        m.set_objective(a, 10.0);
        assert_eq!(m.objective_coeff(a), 10.0);
        assert_eq!(m.var_name(a), "a");
    }
}
