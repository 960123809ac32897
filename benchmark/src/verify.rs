//! The `verify` subcommand: validates the benchmark's reference against
//! the brute-force oracle on short prefixes, and prints which strategies
//! and engines agree with it.
//!
//! `Independent` and `Shared` on `LocalEngine` must equal the oracle: the
//! reference every run is checked against is one of them, so a mismatch
//! means the harness is broken (non-zero exit). The other rows are
//! findings about the program and do not fail the command.

use crate::harness::{
    counts_of, ingest_path_counts, planner_config, total, Counts, Deployed, PARALLELISM,
};
use crate::oracle::Oracle;
use crate::spans::Recorder;
use crate::workloads::EngineKind;
use crate::Result;
use clash_common::{RelationId, Tuple, Window};
use clash_datagen::{TpchGenerator, TpchWorkload};
use clash_optimizer::{Planner, Strategy, TopologyPlan};

/// `(window seconds, prefix length)`: in both the prefix is several
/// windows long, so expiry and freezing are well under way.
const PREFIXES: [(u64, usize); 2] = [(1, 6_000), (2, 8_000)];
const SCALE: f64 = 0.002;
const WORKERS: usize = 2;

fn run_deployed(
    tpch: &TpchWorkload,
    plan: &TopologyPlan,
    kind: EngineKind,
    stream: &[(RelationId, Tuple)],
) -> Counts {
    let mut engine = Deployed::new(&tpch.catalog, plan.clone(), kind, false);
    engine.push_all(stream, &mut Recorder::new(false, 0));
    engine.drain();
    counts_of(&engine.snapshot())
}

/// Runs every check; `Ok(false)` when the reference itself is wrong.
pub fn verify(seed: u64) -> Result<bool> {
    let mut harness_ok = true;
    for ten_queries in [false, true] {
        for (window_secs, prefix) in PREFIXES {
            let tpch = TpchWorkload::new(PARALLELISM, Window::secs(window_secs))?;
            let queries = if ten_queries {
                tpch.ten_queries()?
            } else {
                tpch.five_queries()?
            };
            let stream = TpchGenerator::new(SCALE, seed).mixed_stream(&tpch, prefix)?;
            let mut oracle = Oracle::new(&queries, window_secs * 1_000);
            for (relation, tuple) in &stream {
                oracle.push(*relation, tuple);
            }
            let expected: Counts = oracle
                .counts()
                .into_iter()
                .filter(|(_, n)| *n > 0)
                .collect();
            println!(
                "{} queries, window {window_secs} s, {prefix} tuples, seed {seed}: oracle {} results",
                queries.len(),
                total(&expected)
            );

            let planner = Planner::new(&tpch.catalog, &tpch.stats, planner_config());
            let mut row = |label: &str, got: &Counts, must_agree: bool| {
                let agrees = *got == expected;
                harness_ok &= agrees || !must_agree;
                println!(
                    "  {label:<36} {:>10} results  {}",
                    total(got),
                    match (agrees, must_agree) {
                        (true, _) => "= oracle",
                        (false, true) => "DIFFERS (harness broken)",
                        (false, false) => "differs (finding)",
                    }
                );
            };
            for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
                let plan = planner.plan(&queries, strategy)?.plan;
                let exact_by_design = strategy != Strategy::GlobalIlp;
                let local = run_deployed(&tpch, &plan, EngineKind::Local, &stream);
                row(
                    &format!("{} / LocalEngine", strategy.label()),
                    &local,
                    exact_by_design,
                );
                if strategy == Strategy::GlobalIlp {
                    let parallel =
                        run_deployed(&tpch, &plan, EngineKind::Parallel(WORKERS), &stream);
                    row("CMQO / ParallelEngine source+barrier", &parallel, false);
                    let lossy = ingest_path_counts(&tpch.catalog, &plan, WORKERS, &[], &stream)?;
                    row("CMQO / ParallelEngine ingest()", &lossy, false);
                }
            }
        }
    }
    Ok(harness_ok)
}
