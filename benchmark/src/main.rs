//! Command line of the benchmark.
//!
//! ```text
//! clash-benchmark [run] --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! clash-benchmark [run] [--workload <name>] [--seed <n>] [--seconds <s>] [--smoke] [--out <dir>]
//! clash-benchmark verify [--seed <n>]
//! ```
//!
//! The first form is one run of one workload; its last line of output is
//! the result object `BENCHMARK.json`'s driver reads. The second runs the
//! untraced and then the traced pass of every (or one) workload and ends
//! with one JSON document holding all of them.

use clash_benchmark::json;
use clash_benchmark::run::{run_traced, run_untraced, Options, Outcome, ROUNDS};
use clash_benchmark::verify::verify;
use clash_benchmark::workloads::{workload, Workload, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: clash-benchmark [run|verify] [--workload <name>] [--seed <n>] \
                     [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>]";

struct Cli {
    verify: bool,
    workload: Option<&'static Workload>,
    trace: Option<bool>,
    smoke: bool,
    seconds: Option<f64>,
    seed: u64,
    out_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        verify: false,
        workload: None,
        trace: None,
        smoke: false,
        seconds: None,
        seed: 42,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "run" => {}
            "verify" => cli.verify = true,
            "--smoke" => cli.smoke = true,
            "--workload" => {
                let name = value()?;
                cli.workload = Some(workload(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--out" => cli.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// The result object of one run, with exactly the keys the driver reads.
fn outcome_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .rows()
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(*value),
                json::string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn print_outcome(outcome: &Outcome, cli: &Cli, seconds: f64) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        outcome.workload,
        cli.seed,
        seconds,
        u8::from(outcome.traced)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "  pushes: attempted={} failed={} correct={}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    for (name, value, unit) in outcome.metrics.rows() {
        println!("metric {} {name} {value} {unit}", outcome.workload);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if cli.verify {
        return match verify(cli.seed) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("verify failed: {e}");
                ExitCode::from(1)
            }
        };
    }

    // A smoke run keeps every phase and shrinks the stream: 1/20 of the
    // default measured tuples, one round.
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        RUN_SECONDS / 20.0
    } else {
        RUN_SECONDS
    });
    let options = Options {
        seed: cli.seed,
        seconds,
        rounds: if cli.smoke { 1 } else { ROUNDS },
        out_dir: cli.out_dir.clone(),
    };
    let workloads: Vec<&Workload> = match cli.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let passes: &[bool] = match cli.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };

    let mut outcomes = Vec::new();
    for spec in &workloads {
        for &traced in passes {
            let run = if traced { run_traced } else { run_untraced };
            match run(spec, &options) {
                Ok(outcome) => {
                    print_outcome(&outcome, &cli, seconds);
                    outcomes.push(outcome);
                }
                Err(e) => {
                    eprintln!("{}: run failed: {e}", spec.name);
                    return ExitCode::from(1);
                }
            }
        }
    }

    // Last line: the single run's result object, or one document holding
    // every run. The benchmark defines the scoreboard and claims no gain.
    if let [only] = outcomes.as_slice() {
        println!("{}", outcome_json(only));
    } else {
        let runs: Vec<String> = outcomes
            .iter()
            .map(|o| {
                format!(
                    "{{\"workload\": {}, \"trace\": {}, \"results_attempted\": {}, \"results_failed\": {}, \"result\": {}}}",
                    json::string(o.workload),
                    u8::from(o.traced),
                    o.results.attempted,
                    o.results.failed(),
                    outcome_json(o)
                )
            })
            .collect();
        println!(
            "{{\"seed\": {}, \"seconds\": {}, \"runs\": [{}], \"claim\": null}}",
            cli.seed,
            json::number(seconds),
            runs.join(", ")
        );
    }
    if outcomes.iter().all(|o| o.correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("a harness check failed: see the check lines above");
        ExitCode::from(1)
    }
}
