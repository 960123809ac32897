//! # clash-optimizer
//!
//! The multi-query optimizer of the CLASH reproduction (Section V of the
//! paper): it turns a workload of continuous multi-way equi-join queries
//! into a deployable topology of partitioned stores and routing rules.
//!
//! Pipeline:
//!
//! 1. [`candidate`] — enumerate the plan space: MIRs, candidate probe
//!    orders (Algorithm 1) and partitioning decorations, with their
//!    probe costs (Equation 1),
//! 2. [`ilp_builder`] — translate the candidates of all queries into one
//!    0/1 ILP (Algorithm 2) whose step variables are shared across
//!    queries, and extract the chosen probe orders from its solution,
//! 3. [`topology`] — merge the chosen probe orders into probe trees
//!    (Fig. 4) and emit a [`TopologyPlan`]: stores, rule sets keyed by
//!    incoming edge labels, and ingest routing (Section V-B),
//! 4. [`planner`] — the top-level API with three strategies: the paper's
//!    CLASH-MQO (`GlobalIlp`) and the two baselines used in Fig. 7,
//!    `Independent` (one isolated plan per query) and `Shared` (per-query
//!    optimal plans with identical sub-plans deduplicated).

pub mod candidate;
pub mod ilp_builder;
pub mod planner;
pub mod topology;

pub use candidate::{
    enumerate_candidates, CandidateSet, DecoratedProbeOrder, PlanSpaceConfig, StepKey,
};
pub use ilp_builder::{build_ilp, extract_selection, IlpArtifacts, Selection};
pub use planner::{OptimizationReport, Planner, PlannerConfig, Strategy};
pub use topology::{
    IngestRoute, OutputAction, Rule, SendTarget, StoreDef, TopologyBuilder, TopologyPlan,
};
