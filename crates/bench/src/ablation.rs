//! Ablation studies called out in DESIGN.md:
//!
//! * greedy warm start on/off for the branch-and-bound solver,
//! * broadcast-factor (χ) awareness on/off in the plan space,
//! * intermediate-result materialization on/off.

use clash_datagen::{SyntheticEnv, SyntheticWorkloadConfig};
use clash_ilp::{solve, SolverConfig};
use clash_optimizer::{
    build_ilp, enumerate_candidates, PlanSpaceConfig, Planner, PlannerConfig, Strategy,
};

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which knob was toggled.
    pub ablation: String,
    /// Configuration label (e.g. "on" / "off").
    pub variant: String,
    /// Resulting plan cost (or objective).
    pub cost: f64,
    /// Runtime in milliseconds.
    pub runtime_ms: f64,
}

fn workload(seed: u64, nq: usize) -> (SyntheticEnv, Vec<clash_query::JoinQuery>) {
    let mut env = SyntheticEnv::new(
        SyntheticWorkloadConfig {
            num_relations: 10,
            parallelism: 4,
            ..SyntheticWorkloadConfig::default()
        },
        seed,
    )
    .expect("env");
    let queries = env.random_queries(nq, 3).expect("queries");
    (env, queries)
}

/// Solver warm-start ablation: same model solved with and without the
/// greedy incumbent.
pub fn warm_start_ablation(nq: usize, seed: u64) -> Vec<AblationRow> {
    let (env, queries) = workload(seed, nq);
    let candidates = enumerate_candidates(
        &env.catalog,
        &env.stats,
        &queries,
        &PlanSpaceConfig::default(),
    );
    let artifacts = build_ilp(&candidates);
    let mut rows = Vec::new();
    for (variant, disable) in [("warm start", false), ("cold start", true)] {
        let started = std::time::Instant::now();
        let solution = solve(
            &artifacts.model,
            SolverConfig {
                disable_warm_start: disable,
                node_limit: 20_000,
                time_limit: std::time::Duration::from_secs(2),
            },
        );
        rows.push(AblationRow {
            ablation: "solver warm start".into(),
            variant: variant.into(),
            cost: solution.objective,
            runtime_ms: started.elapsed().as_secs_f64() * 1000.0,
        });
    }
    rows
}

/// Plan-space ablations: χ-awareness (partitioning) and MIR
/// materialization.
pub fn plan_space_ablation(nq: usize, seed: u64) -> Vec<AblationRow> {
    let (env, queries) = workload(seed, nq);
    let mut rows = Vec::new();
    let variants = [
        (
            "partitioning (χ) awareness",
            "on",
            PlanSpaceConfig::default(),
        ),
        (
            "partitioning (χ) awareness",
            "off",
            PlanSpaceConfig {
                partitioning_enabled: false,
                ..PlanSpaceConfig::default()
            },
        ),
        (
            "intermediate materialization",
            "off",
            PlanSpaceConfig {
                materialize_intermediates: false,
                ..PlanSpaceConfig::default()
            },
        ),
    ];
    for (ablation, variant, plan_space) in variants {
        let started = std::time::Instant::now();
        let planner = Planner::new(
            &env.catalog,
            &env.stats,
            PlannerConfig {
                plan_space,
                ..PlannerConfig::default()
            },
        );
        let report = planner.plan(&queries, Strategy::GlobalIlp).expect("plan");
        rows.push(AblationRow {
            ablation: ablation.into(),
            variant: variant.into(),
            cost: report.shared_cost,
            runtime_ms: started.elapsed().as_secs_f64() * 1000.0,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_start_does_not_hurt_solution_quality() {
        let rows = warm_start_ablation(8, 5);
        assert_eq!(rows.len(), 2);
        let warm = rows.iter().find(|r| r.variant == "warm start").unwrap();
        let cold = rows.iter().find(|r| r.variant == "cold start").unwrap();
        assert!(warm.cost <= cold.cost + 1e-6);
    }

    #[test]
    fn chi_unaware_plans_cost_at_least_as_much() {
        let rows = plan_space_ablation(8, 5);
        let on = rows
            .iter()
            .find(|r| r.ablation.contains("χ") && r.variant == "on")
            .unwrap();
        let off = rows
            .iter()
            .find(|r| r.ablation.contains("χ") && r.variant == "off")
            .unwrap();
        // Without partition awareness every probe into a parallel store
        // broadcasts, so the modeled cost cannot be lower.
        assert!(off.cost >= on.cost - 1e-6);
    }
}
