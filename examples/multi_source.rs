//! Async multi-source ingestion demo: N producer threads push three
//! streamed relations through their own `SourceHandle`s concurrently
//! while a subscriber thread consumes join results *as they are produced*
//! — between barriers, not at epoch ends. Verifies that every source
//! count produces the identical result count as the sequential
//! `LocalEngine` baseline, and reports how many results had already
//! streamed to the subscriber before the final barrier ran.
//!
//! Run with: `cargo run --release --example multi_source`

use clash_common::{Duration, EpochConfig, RelationId, Tuple, Window};
use clash_core::{ClashSystem, RuntimeMode, Strategy, SystemConfig};
use clash_runtime::EngineConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Total joining rounds in the workload (split across sources).
const TOTAL_ROUNDS: u64 = 4_000;

fn build_system(runtime: RuntimeMode) -> Result<ClashSystem, Box<dyn std::error::Error>> {
    let mut clash = ClashSystem::new(SystemConfig {
        runtime,
        // One epoch covering the whole stream: keeps the adaptive
        // controller (which only observes coordinator-thread ingests)
        // out of the picture so every run executes the identical plan.
        engine: EngineConfig {
            epoch: EpochConfig::new(Duration::from_secs(1 << 20)),
            ..EngineConfig::default()
        },
        ..SystemConfig::default()
    });
    clash.register_relation("orders", ["orderkey", "custkey"], Window::secs(3600), 4)?;
    clash.register_relation(
        "lineitem",
        ["orderkey", "partkey", "qty"],
        Window::secs(3600),
        4,
    )?;
    clash.register_relation("part", ["partkey", "size"], Window::secs(3600), 4)?;
    clash.set_rate("orders", 1000.0)?;
    clash.set_rate("lineitem", 1000.0)?;
    clash.set_rate("part", 1000.0)?;
    clash.register_query(
        "q1",
        "orders(orderkey), lineitem(orderkey,partkey), part(partkey)",
    )?;
    clash.register_query("q2", "orders(orderkey), lineitem(orderkey)")?;
    clash.deploy(Strategy::GlobalIlp)?;
    Ok(clash)
}

/// Pre-builds one source's slice of the stream (tuples are built on the
/// main thread; producers only push). The key domains (500 and 200) are
/// divisible by every source count in the sweep, so source `s` only emits
/// keys congruent to `s` — sources never share join keys, which makes the
/// result multiset identical under any producer interleaving and equal to
/// the sequential baseline (see `clash_runtime::ingest` on arrival-order
/// semantics).
fn build_slice(
    clash: &ClashSystem,
    source: u64,
    sources: u64,
) -> Result<Vec<(RelationId, Tuple)>, Box<dyn std::error::Error>> {
    let orders = clash.catalog().relation_id("orders").unwrap();
    let lineitem = clash.catalog().relation_id("lineitem").unwrap();
    let part = clash.catalog().relation_id("part").unwrap();
    let mut slice = Vec::new();
    for j in 0..TOTAL_ROUNDS / sources {
        // Global round index: sources interleave the same key sequence.
        let i = j * sources + source;
        let ts = i * 2;
        let orderkey = (i % 500) as i64;
        let partkey = (i % 200) as i64;
        slice.push((
            orders,
            clash.tuple(
                "orders",
                ts,
                &[
                    ("orderkey", orderkey.into()),
                    ("custkey", ((i % 97) as i64).into()),
                ],
            )?,
        ));
        slice.push((
            lineitem,
            clash.tuple(
                "lineitem",
                ts + 1,
                &[
                    ("orderkey", orderkey.into()),
                    ("partkey", partkey.into()),
                    ("qty", ((i % 13) as i64).into()),
                ],
            )?,
        ));
        slice.push((
            part,
            clash.tuple(
                "part",
                ts + 1,
                &[
                    ("partkey", partkey.into()),
                    ("size", ((i % 7) as i64).into()),
                ],
            )?,
        ));
    }
    Ok(slice)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "3 streams x {} tuples total, 2 shared queries, GlobalIlp plan\n",
        TOTAL_ROUNDS * 3
    );

    // Sequential baseline: the expected result count.
    let mut local = build_system(RuntimeMode::Local)?;
    for (relation, tuple) in build_slice(&local, 0, 1)? {
        local.ingest_by_id(relation, tuple)?;
    }
    let local_results = local.snapshot()?.total_results();
    println!("LocalEngine baseline: {local_results} results\n");

    println!(
        "{:<10} {:>16} {:>10} {:>22}",
        "sources", "wall_tps[t/s]", "results", "streamed_pre_barrier"
    );
    for sources in [1u64, 2, 4] {
        let mut clash = build_system(RuntimeMode::Parallel(4))?;

        // Subscriber: counts results the moment workers emit them.
        let rx = clash.subscribe()?;
        let streamed = Arc::new(AtomicU64::new(0));
        let streamed_counter = streamed.clone();
        let subscriber = std::thread::spawn(move || {
            while rx.recv().is_ok() {
                streamed_counter.fetch_add(1, Ordering::Relaxed);
            }
        });

        // Producers: one SourceHandle each, pushing concurrently.
        let slices: Vec<_> = (0..sources)
            .map(|s| build_slice(&clash, s, sources))
            .collect::<Result<_, _>>()?;
        let started = Instant::now();
        let producers: Vec<_> = slices
            .into_iter()
            .map(|slice| {
                let mut handle = clash.open_source()?;
                Ok(std::thread::spawn(move || {
                    for (relation, tuple) in slice {
                        handle.push(relation, tuple).expect("push");
                    }
                }))
            })
            .collect::<Result<_, Box<dyn std::error::Error>>>()?;
        for producer in producers {
            producer.join().expect("producer thread");
        }
        // Results that streamed out before any barrier ran: a batch ships
        // when a worker it is for is idle, so nothing waits for an epoch end.
        let pre_barrier = streamed.load(Ordering::Relaxed);
        let snap = clash.snapshot()?; // the barrier: aggregates counters
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(
            snap.total_results(),
            local_results,
            "multi-source run must match the sequential result count"
        );
        drop(clash); // shuts the engine down; the subscription disconnects
        subscriber.join().expect("subscriber thread");
        assert_eq!(
            streamed.load(Ordering::Relaxed),
            local_results,
            "every result must reach the subscriber exactly once"
        );
        println!(
            "{:<10} {:>16.0} {:>10} {:>17} ({:>3.0}%)",
            sources,
            (TOTAL_ROUNDS * 3) as f64 / elapsed,
            snap.total_results(),
            pre_barrier,
            100.0 * pre_barrier as f64 / local_results.max(1) as f64,
        );
    }
    println!(
        "
(Results stream to the subscriber as workers emit them; the
 streamed_pre_barrier column shows how much of the output had
 already left the engine before the first explicit barrier.)"
    );
    Ok(())
}
