//! Quickstart: register three streamed relations and one multi-way join
//! query, deploy it with global multi-query optimization, stream a few
//! tuples and print the join results.
//!
//! Run with: `cargo run --example quickstart`

use clash_common::Window;
use clash_core::{ClashSystem, Strategy, SystemConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the streamed relations (name, attributes, window,
    //    store parallelism).
    let mut clash = ClashSystem::new(SystemConfig::default());
    clash.register_relation("R", ["a"], Window::secs(60), 1)?;
    clash.register_relation("S", ["a", "b"], Window::secs(60), 1)?;
    clash.register_relation("T", ["b"], Window::secs(60), 1)?;

    // 2. Optional: prior data characteristics for the cost model.
    clash.set_rate("R", 100.0)?;
    clash.set_rate("S", 100.0)?;
    clash.set_rate("T", 100.0)?;
    clash.set_selectivity(("R", "a"), ("S", "a"), 0.01)?;
    clash.set_selectivity(("S", "b"), ("T", "b"), 0.01)?;

    // 3. Register a continuous query in the paper's notation and deploy.
    clash.register_query("q1", "R(a), S(a,b), T(b)")?;
    let report = clash.deploy(Strategy::GlobalIlp)?;
    println!(
        "deployed {} stores, estimated probe cost {:.1} tuples/s, {:.1}% from optimal at most",
        report.plan.num_stores(),
        report.shared_cost,
        report.gap().unwrap_or(0.0) * 100.0
    );

    // 4. Subscribe, then stream tuples; results are produced
    //    incrementally and arrive on the subscription.
    let results = clash.subscribe()?;
    let r = clash.tuple("R", 10, &[("a", 1.into())])?;
    let s = clash.tuple("S", 20, &[("a", 1.into()), ("b", 7.into())])?;
    let t = clash.tuple("T", 30, &[("b", 7.into())])?;
    clash.ingest("R", r)?;
    clash.ingest("S", s)?;
    let produced = clash.ingest("T", t)?;
    println!("the T tuple completed {produced} join result(s):");
    for (query, result) in results.try_iter() {
        println!("  {query}: {result}");
    }

    let snapshot = clash.snapshot()?;
    println!(
        "ingested {} tuples, sent {} tuple copies, {} bytes of store state",
        snapshot.tuples_ingested, snapshot.tuples_sent, snapshot.store_bytes
    );
    Ok(())
}
