//! ILP playground: reproduces the worked example of Section V of the paper
//! (queries q1 = R(b),S(b,c),T(c) and q2 = S(c),T(c,d),U(d)), prints the
//! generated candidate probe orders, the ILP and the optimal selection —
//! showing how the globally optimal plan shares the S→T step between the
//! two queries.
//!
//! Run with: `cargo run --example ilp_playground`

use clash_catalog::{Catalog, Statistics};
use clash_common::{QueryId, Window};
use clash_ilp::{solve, SolverConfig};
use clash_optimizer::{build_ilp, enumerate_candidates, extract_selection, PlanSpaceConfig};
use clash_query::parse_query;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut catalog = Catalog::new();
    catalog.register("R", ["b"], Window::unbounded(), 1)?;
    catalog.register("S", ["b", "c"], Window::unbounded(), 1)?;
    catalog.register("T", ["c", "d"], Window::unbounded(), 1)?;
    catalog.register("U", ["d"], Window::unbounded(), 1)?;

    // Rates 100 t/s everywhere; S ⋈ T is the expensive join (150 results),
    // every other join produces 100 (the Section V-2 calibration).
    let mut stats = Statistics::new();
    for meta in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
        stats.set_rate(meta, 100.0);
    }
    stats.default_selectivity = 0.01;
    stats.set_selectivity(catalog.attr("S", "c")?, catalog.attr("T", "c")?, 0.015);

    let q1 = parse_query(&catalog, QueryId::new(0), "q1", "R(b), S(b,c), T(c)")?;
    let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(c), T(c,d), U(d)")?;
    println!("q1: {q1}");
    println!("q2: {q2}\n");

    let config = PlanSpaceConfig {
        materialize_intermediates: false,
        ..PlanSpaceConfig::default()
    };
    let candidates = enumerate_candidates(&catalog, &stats, &[q1.clone(), q2.clone()], &config);
    println!("candidate probe orders:");
    for ((query, start), cands) in &candidates.per_start {
        for c in cands {
            println!(
                "  {query} start {start}: {} (PCost = {:.1})",
                c.order, c.cost
            );
        }
    }

    let artifacts = build_ilp(&candidates);
    println!(
        "\nILP: {} variables, {} constraints",
        artifacts.stats.variables, artifacts.stats.constraints
    );
    println!("{}", artifacts.model);

    let solution = solve(&artifacts.model, SolverConfig::default());
    println!(
        "solver status: {:?}, objective = {:.1}",
        solution.status, solution.objective
    );
    let selection = extract_selection(
        &candidates,
        &artifacts,
        solution.assignment.as_ref().expect("feasible"),
    )?;
    println!(
        "\nchosen probe orders (shared probe cost {:.1}):",
        selection.shared_cost
    );
    for order in &selection.query_orders {
        println!(
            "  {:?} starts {}: {}",
            order.produces, order.order.start, order.order
        );
    }
    let individual: f64 = [&q1, &q2]
        .iter()
        .map(|q| candidates.individual_cost(q.id))
        .sum();
    println!("\nindividually optimal plans would cost {individual:.1} tuples/s in total");
    Ok(())
}
