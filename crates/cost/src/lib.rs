//! # clash-cost
//!
//! The probe-cost model of the paper (Section IV, Equation 1).
//!
//! The subject of minimization is the **probe cost**: the number of tuples
//! sent between stores while incrementally computing join results along a
//! probe order. For a probe order `σ = ⟨S_start, M_1, ..., M_m⟩` the cost
//! of the `j`-th step (sending the partial result built so far to the
//! `M_j`-store) is
//!
//! ```text
//! StepCost(ρ_j) = |⋈ head_j| · (1 / |head_j|) · χ(M_j)
//! ```
//!
//! where `head_j` is the set of base relations covered *before* the step,
//! `|⋈ head_j|` the estimated size of their join, the `1/|head_j|` factor
//! accounts for the arriving tuple having to be the latest among the head
//! relations, and `χ(M_j)` is the **broadcast factor**: 1 when the probing
//! tuple can compute the partitioning key of the target store, otherwise
//! the parallelism of that store (the tuple must be broadcast to every
//! partition).
//!
//! `PCost(σ)` is the sum of its step costs; the probe cost of a query is
//! the sum over the probe orders of all its starting relations.
//!
//! Cardinalities are estimated from the [`clash_catalog::Statistics`]
//! snapshot: the size of a connected relation set is the product of the
//! per-relation window cardinalities times the selectivities of all
//! predicates inside the set — exactly the calibration used by the paper's
//! ILP experiments (rates `r`, pair-wise selectivity `1/r`).

pub mod estimate;
pub mod probe_cost;

pub use estimate::CardinalityEstimator;
pub use probe_cost::{
    broadcast_factor, probe_cost, query_probe_cost, step_cost, PartitionedStep, StepCostBreakdown,
};
