//! Fig. 9: ILP optimization experiments.
//!
//! Random 3-relation (or larger) queries are drawn over a pool of 10 or
//! 100 input relations with uniform rates and `1/rate` selectivities; for
//! every workload size the driver reports the average probe cost with and
//! without multi-query sharing (Fig. 9a / 9c), the ILP problem size
//! (Fig. 9b / 9d) and the optimization runtime (Fig. 9e / 9f).

use clash_datagen::{SyntheticEnv, SyntheticWorkloadConfig};
use clash_ilp::SolverConfig;
use clash_optimizer::{Planner, PlannerConfig, Strategy};
use std::time::Duration;

/// One row of the probe-cost / problem-size sweep (Fig. 9a–9e).
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Number of input relations in the pool (10 or 100).
    pub num_relations: usize,
    /// Number of queries optimized together.
    pub num_queries: usize,
    /// Query size (relations per query).
    pub query_size: usize,
    /// Average probe cost per query without sharing ("Individual").
    pub individual_cost: f64,
    /// Average probe cost per query with multi-query sharing ("MQO").
    pub mqo_cost: f64,
    /// Number of ILP variables (Fig. 9b / 9d).
    pub variables: usize,
    /// Number of candidate probe orders (Fig. 9b / 9d).
    pub probe_orders: usize,
    /// End-to-end optimization runtime in milliseconds (Fig. 9e / 9f).
    pub runtime_ms: f64,
}

fn planner_config() -> PlannerConfig {
    PlannerConfig {
        solver: SolverConfig {
            node_limit: 20_000,
            time_limit: Duration::from_secs(2),
            ..SolverConfig::default()
        },
        ..PlannerConfig::default()
    }
}

/// Optimizes one randomly generated workload and reports the Fig. 9
/// quantities.
pub fn optimize_random_workload(
    num_relations: usize,
    num_queries: usize,
    query_size: usize,
    seed: u64,
) -> Fig9Row {
    let env_config = SyntheticWorkloadConfig {
        num_relations,
        ..SyntheticWorkloadConfig::default()
    };
    let mut env = SyntheticEnv::new(env_config, seed).expect("environment");
    let queries = env
        .random_queries(num_queries, query_size)
        .expect("queries");
    let planner = Planner::new(&env.catalog, &env.stats, planner_config());
    let report = planner.plan(&queries, Strategy::GlobalIlp).expect("plan");
    let n = queries.len().max(1) as f64;
    Fig9Row {
        num_relations,
        num_queries: queries.len(),
        query_size,
        individual_cost: report.individual_cost / n,
        mqo_cost: report.shared_cost / n,
        variables: report.model_stats.map(|s| s.variables).unwrap_or(0),
        probe_orders: report.num_probe_orders,
        runtime_ms: report.optimization_time.as_secs_f64() * 1000.0,
    }
}

/// Fig. 9a–9e: sweep the number of queries for a fixed pool size.
pub fn run_probe_cost_sweep(num_relations: usize, nq_values: &[usize], seed: u64) -> Vec<Fig9Row> {
    nq_values
        .iter()
        .map(|nq| optimize_random_workload(num_relations, *nq, 3, seed + *nq as u64))
        .collect()
}

/// Fig. 9f: sweep the query size for fixed workload sizes over 100
/// relations.
pub fn run_query_size_sweep(sizes: &[usize], nq_values: &[usize], seed: u64) -> Vec<Fig9Row> {
    let mut rows = Vec::new();
    for &size in sizes {
        for &nq in nq_values {
            rows.push(optimize_random_workload(
                100,
                nq,
                size,
                seed + (size * 1000 + nq) as u64,
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mqo_cost_is_never_above_individual_cost() {
        for nq in [5, 15] {
            let row = optimize_random_workload(10, nq, 3, 11);
            assert!(row.mqo_cost <= row.individual_cost + 1e-6);
            assert!(row.variables > 0);
            assert!(row.probe_orders > 0);
            assert!(row.runtime_ms >= 0.0);
        }
    }

    #[test]
    fn dense_pools_share_more_than_sparse_pools() {
        // 10 relations: heavy overlap between random queries; 100
        // relations: little overlap (Fig. 9a vs 9c).
        let dense = optimize_random_workload(10, 25, 3, 3);
        let sparse = optimize_random_workload(100, 25, 3, 3);
        let dense_saving = 1.0 - dense.mqo_cost / dense.individual_cost;
        let sparse_saving = 1.0 - sparse.mqo_cost / sparse.individual_cost;
        assert!(
            dense_saving >= sparse_saving - 0.05,
            "dense saving {dense_saving} vs sparse {sparse_saving}"
        );
    }

    #[test]
    fn problem_size_grows_with_workload() {
        let small = optimize_random_workload(10, 5, 3, 9);
        let large = optimize_random_workload(10, 30, 3, 9);
        assert!(large.variables > small.variables);
        assert!(large.probe_orders >= small.probe_orders);
    }
}
