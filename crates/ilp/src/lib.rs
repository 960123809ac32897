//! # clash-ilp
//!
//! A from-scratch 0/1 integer linear programming toolkit used to solve the
//! multi-query optimization problem of Section V of the paper.
//!
//! The paper hands its ILP to Gurobi; shipping a commercial solver is not
//! possible here, so this crate provides
//!
//! * [`Model`] — a modeling API for binary variables, linear constraints
//!   (`=`, `≥`, `≤`) and a linear minimization objective, mirroring the
//!   structure produced by Algorithm 2,
//! * [`solve`] — an exact branch-and-bound solver built on unit-style
//!   constraint propagation over binary domains, warm-started by
//!   [`greedy()`], with node- and time-limits that turn it into an anytime
//!   solver for large instances,
//! * [`enumerate_optimal`] — brute-force enumeration for tiny models, used
//!   by the test-suite to certify that branch-and-bound returns optimal
//!   solutions.
//!
//! The substitution (Gurobi → propagation-based B&B) is documented in
//! DESIGN.md: the models built by the optimizer are pure 0/1 selection
//! problems whose constraints propagate strongly, so exactness is retained
//! for the problem sizes of the paper's Fig. 9 while absolute solve times
//! differ.

pub mod enumerate;
pub mod greedy;
pub mod model;
pub mod propagation;
pub mod solver;
#[cfg(test)]
mod test_models;

pub use enumerate::enumerate_optimal;
pub use greedy::greedy;
pub use model::{Assignment, Constraint, LinExpr, Model, ModelStats, Sense, VarId};
pub use solver::{solve, Solution, SolveStatus, SolverConfig};
