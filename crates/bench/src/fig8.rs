//! Fig. 8: adaptive vs. static execution under changing data
//! characteristics.
//!
//! A four-way linear join `R(a), S(a,b), T(b,c), U(c)` is deployed twice —
//! once with the adaptive controller enabled and once with the initial
//! plan frozen. After `shift_at` the input characteristics flip (Fig. 8a:
//! `S` tuples suddenly find many partners in `R` and none in `T`), which
//! makes the frozen plan's intermediate results explode while the adaptive
//! deployment re-optimizes after one epoch.

use clash_common::{Duration, Epoch, EpochConfig, Timestamp};
use clash_datagen::AdaptiveScenario;
use clash_optimizer::Strategy;
use clash_runtime::{AdaptiveConfig, AdaptiveController, EngineConfig, LocalEngine};

/// One time-bucket of the Fig. 8 latency series.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Stream time in seconds.
    pub time_s: u64,
    /// Mean per-result processing latency of the adaptive deployment in
    /// this bucket (µs).
    pub adaptive_latency_us: f64,
    /// Mean latency of the static deployment (µs).
    pub static_latency_us: f64,
    /// Tuple copies sent by the adaptive deployment in this bucket.
    pub adaptive_tuples_sent: u64,
    /// Tuple copies sent by the static deployment in this bucket.
    pub static_tuples_sent: u64,
    /// Store bytes of the adaptive deployment at the end of the bucket.
    pub adaptive_store_bytes: usize,
    /// Store bytes of the static deployment at the end of the bucket.
    pub static_store_bytes: usize,
    /// Number of reconfigurations the adaptive controller has installed so
    /// far.
    pub reconfigurations: usize,
}

struct Deployment {
    engine: LocalEngine,
    controller: AdaptiveController,
    last_epoch: Epoch,
}

fn deploy(scenario: &AdaptiveScenario, adaptive: bool) -> Deployment {
    let config = AdaptiveConfig {
        strategy: Strategy::GlobalIlp,
        enabled: adaptive,
        ..AdaptiveConfig::default()
    };
    let (controller, report) = AdaptiveController::new(
        scenario.catalog.clone(),
        vec![scenario.query.clone()],
        scenario.stats.clone(),
        config,
    )
    .expect("initial plan");
    let engine = LocalEngine::new(
        scenario.catalog.clone(),
        report.plan,
        EngineConfig {
            epoch: EpochConfig::new(Duration::from_secs(1)),
            expire_every: 256,
            ..EngineConfig::default()
        },
    );
    Deployment {
        engine,
        controller,
        last_epoch: Epoch::ZERO,
    }
}

/// Runs the Fig. 8a scenario: `duration_s` seconds of stream time with
/// `rounds_per_s` tuples per relation and second, characteristics flipping
/// at `shift_s`.
pub fn run_fig8(duration_s: u64, rounds_per_s: u64, shift_s: u64, seed: u64) -> Vec<Fig8Point> {
    let mut scenario =
        AdaptiveScenario::new(200, Timestamp::from_millis(shift_s * 1000), seed).expect("scenario");
    let mut adaptive = deploy(&scenario, true);
    let mut static_dep = deploy(&scenario, false);

    let step_ms = 1000 / rounds_per_s.max(1);
    let mut points = Vec::new();
    for second in 0..duration_s {
        for _ in 0..rounds_per_s {
            let round = scenario.next_round(step_ms);
            for (relation, tuple) in &round {
                let epoch = EpochConfig::new(Duration::from_secs(1)).epoch_of(tuple.ts);
                for dep in [&mut adaptive, &mut static_dep] {
                    dep.engine.ingest(*relation, tuple.clone()).expect("ingest");
                    if epoch > dep.last_epoch {
                        dep.last_epoch = epoch;
                        dep.controller
                            .on_epoch(&mut dep.engine, epoch)
                            .expect("epoch handling");
                    }
                }
            }
        }
        let a = adaptive.engine.snapshot();
        let s = static_dep.engine.snapshot();
        points.push(Fig8Point {
            time_s: second + 1,
            adaptive_latency_us: a.latency.mean_us,
            static_latency_us: s.latency.mean_us,
            adaptive_tuples_sent: a.tuples_sent,
            static_tuples_sent: s.tuples_sent,
            adaptive_store_bytes: a.store_bytes,
            static_store_bytes: s.store_bytes,
            reconfigurations: adaptive.controller.reconfigurations,
        });
        // Per-bucket statistics: reset the counters, keep the store state.
        adaptive.engine.reset_metrics();
        static_dep.engine.reset_metrics();
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_deployment_reconfigures_and_sends_fewer_tuples_after_shift() {
        // 12 s of stream time, shift at 5 s.
        let points = run_fig8(12, 40, 5, 7);
        assert_eq!(points.len(), 12);
        let reconfigs = points.last().unwrap().reconfigurations;
        assert!(reconfigs >= 1, "adaptive controller never reconfigured");
        // After the shift (plus the two-epoch pipeline), the adaptive
        // deployment should not send more tuple copies than the static one.
        let tail = &points[9..];
        let adaptive_sent: u64 = tail.iter().map(|p| p.adaptive_tuples_sent).sum();
        let static_sent: u64 = tail.iter().map(|p| p.static_tuples_sent).sum();
        assert!(
            adaptive_sent <= static_sent,
            "adaptive {adaptive_sent} vs static {static_sent}"
        );
    }
}
