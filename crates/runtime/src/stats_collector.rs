//! Per-epoch sampling of data characteristics (Fig. 2 / Fig. 5).
//!
//! The collector observes the stream as the engine processes it: arrivals
//! per relation and, for every equi-join predicate evaluated by a probe
//! rule, how many matches a probing tuple found relative to the size of
//! the probed store. From these observations it derives the arrival rates
//! and selectivities that the optimizer's cost model consumes in the next
//! epoch.

use clash_catalog::Statistics;
use clash_common::{AttrRef, Duration, Epoch, FxHashMap, RelationId};
use clash_query::EquiPredicate;

#[derive(Debug, Default, Clone, PartialEq)]
struct EpochObservations {
    arrivals: FxHashMap<RelationId, u64>,
    /// predicate -> (probes, matches, accumulated probed-store size).
    predicate_obs: FxHashMap<(AttrRef, AttrRef), (u64, u64, u64)>,
}

/// Collects observations keyed by epoch and turns them into
/// [`Statistics`] snapshots.
#[derive(Debug, Default, PartialEq)]
pub struct StatsCollector {
    epochs: FxHashMap<Epoch, EpochObservations>,
    epoch_length: Duration,
}

impl StatsCollector {
    /// Creates a collector for the given epoch length.
    pub fn new(epoch_length: Duration) -> Self {
        StatsCollector {
            epochs: FxHashMap::default(),
            epoch_length,
        }
    }

    /// Records the arrival of an input tuple.
    pub fn record_arrival(&mut self, epoch: Epoch, relation: RelationId) {
        *self
            .epochs
            .entry(epoch)
            .or_default()
            .arrivals
            .entry(relation)
            .or_default() += 1;
    }

    /// Records the outcome of probing a store with `store_size` live tuples
    /// under the given predicates.
    pub fn record_probe(
        &mut self,
        epoch: Epoch,
        predicates: &[EquiPredicate],
        matches: u64,
        store_size: u64,
    ) {
        self.record_probe_obs(epoch, predicates, 1, matches, store_size);
    }

    /// Records a partial probe observation with an explicit probe count.
    /// The parallel runtime splits one logical probe across workers: one
    /// shard contributes the probe count, the others only their matches
    /// and store-size shares, so the merged totals equal what a single
    /// engine observing the whole probe would have recorded.
    pub fn record_probe_obs(
        &mut self,
        epoch: Epoch,
        predicates: &[EquiPredicate],
        probes: u64,
        matches: u64,
        store_size: u64,
    ) {
        let obs = self.epochs.entry(epoch).or_default();
        for p in predicates {
            let entry = obs
                .predicate_obs
                .entry((p.left, p.right))
                .or_insert((0, 0, 0));
            entry.0 += probes;
            entry.1 += matches;
            entry.2 += store_size;
        }
    }

    /// Whether any observation (arrival or probe) was recorded for the
    /// given epoch. The adaptive controller uses this to skip re-planning
    /// over epochs a timer-driven cadence jumped over: without fresh
    /// samples a snapshot would just echo the prior.
    pub fn has_samples(&self, epoch: Epoch) -> bool {
        self.epochs
            .get(&epoch)
            .is_some_and(|o| !o.arrivals.is_empty() || !o.predicate_obs.is_empty())
    }

    /// Builds a statistics snapshot from the observations of one epoch.
    /// Relations or predicates without observations keep the defaults of
    /// the provided prior.
    pub fn snapshot(&self, epoch: Epoch, prior: &Statistics) -> Statistics {
        let mut stats = prior.clone();
        stats.epoch = epoch;
        let Some(obs) = self.epochs.get(&epoch) else {
            return stats;
        };
        let secs = self.epoch_length.as_secs_f64().max(1e-9);
        for (relation, count) in &obs.arrivals {
            stats.set_rate(*relation, *count as f64 / secs);
        }
        for ((left, right), (probes, matches, store_size_sum)) in &obs.predicate_obs {
            if *probes == 0 {
                continue;
            }
            let avg_store = *store_size_sum as f64 / *probes as f64;
            if avg_store <= 0.0 {
                continue;
            }
            let matches_per_probe = *matches as f64 / *probes as f64;
            let selectivity = (matches_per_probe / avg_store).clamp(0.0, 1.0);
            stats.set_selectivity(*left, *right, selectivity);
        }
        stats
    }

    /// Drops observations older than `keep_from` (epochs already consumed
    /// by the optimizer).
    pub fn prune(&mut self, keep_from: Epoch) {
        self.epochs.retain(|e, _| *e >= keep_from);
    }

    /// Drains every observation into a standalone delta collector (the
    /// epoch length is copied so the delta normalizes rates identically).
    /// Used by parallel workers to hand their observations to the
    /// coordinator at epoch barriers.
    pub fn take_delta(&mut self) -> StatsCollector {
        StatsCollector {
            epochs: std::mem::take(&mut self.epochs),
            epoch_length: self.epoch_length,
        }
    }

    /// Merges the observations of a delta collector into this one. Arrival
    /// counts and predicate observations are summed per epoch, so the
    /// selectivity estimate over the merged data equals the estimate a
    /// single engine observing the union of the streams would produce.
    pub fn merge(&mut self, delta: StatsCollector) {
        for (epoch, obs) in delta.epochs {
            let target = self.epochs.entry(epoch).or_default();
            for (relation, n) in obs.arrivals {
                *target.arrivals.entry(relation).or_default() += n;
            }
            for (key, (probes, matches, size)) in obs.predicate_obs {
                let entry = target.predicate_obs.entry(key).or_insert((0, 0, 0));
                entry.0 += probes;
                entry.1 += matches;
                entry.2 += size;
            }
        }
    }

    /// Number of epochs with observations (for tests / introspection).
    pub fn observed_epochs(&self) -> usize {
        self.epochs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::AttrId;

    fn attr(rel: u32, a: u32) -> AttrRef {
        AttrRef::new(RelationId::new(rel), AttrId::new(a))
    }

    #[test]
    fn arrival_rates_are_normalized_by_epoch_length() {
        let mut c = StatsCollector::new(Duration::from_secs(2));
        for _ in 0..200 {
            c.record_arrival(Epoch(3), RelationId::new(0));
        }
        let stats = c.snapshot(Epoch(3), &Statistics::new());
        assert!((stats.rate(RelationId::new(0)) - 100.0).abs() < 1e-9);
        assert_eq!(stats.epoch, Epoch(3));
        // Unobserved relations keep the prior default.
        assert_eq!(
            stats.rate(RelationId::new(5)),
            Statistics::new().default_rate
        );
    }

    #[test]
    fn selectivity_estimated_from_matches_per_probe() {
        let mut c = StatsCollector::new(Duration::from_secs(1));
        let pred = EquiPredicate::new(attr(0, 0), attr(1, 0));
        // 10 probes against a store of 100 tuples, 50 matches total ->
        // 5 matches per probe -> selectivity 0.05.
        for _ in 0..10 {
            c.record_probe(Epoch(0), &[pred], 5, 100);
        }
        let stats = c.snapshot(Epoch(0), &Statistics::new());
        assert!((stats.selectivity(attr(0, 0), attr(1, 0)) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn snapshot_of_unobserved_epoch_returns_prior() {
        let c = StatsCollector::new(Duration::from_secs(1));
        let mut prior = Statistics::new();
        prior.set_rate(RelationId::new(1), 42.0);
        let stats = c.snapshot(Epoch(9), &prior);
        assert_eq!(stats.rate(RelationId::new(1)), 42.0);
        assert_eq!(stats.epoch, Epoch(9));
    }

    #[test]
    fn has_samples_reflects_recorded_observations() {
        let mut c = StatsCollector::new(Duration::from_secs(1));
        assert!(!c.has_samples(Epoch(0)));
        c.record_arrival(Epoch(0), RelationId::new(0));
        assert!(c.has_samples(Epoch(0)));
        assert!(!c.has_samples(Epoch(1)), "other epochs stay empty");
        let pred = EquiPredicate::new(attr(0, 0), attr(1, 0));
        c.record_probe(Epoch(2), &[pred], 1, 10);
        assert!(c.has_samples(Epoch(2)), "probe observations count too");
    }

    #[test]
    fn pruning_drops_old_epochs() {
        let mut c = StatsCollector::new(Duration::from_secs(1));
        c.record_arrival(Epoch(0), RelationId::new(0));
        c.record_arrival(Epoch(1), RelationId::new(0));
        c.record_arrival(Epoch(2), RelationId::new(0));
        assert_eq!(c.observed_epochs(), 3);
        c.prune(Epoch(2));
        assert_eq!(c.observed_epochs(), 1);
    }

    #[test]
    fn zero_store_size_probes_are_ignored_for_selectivity() {
        let mut c = StatsCollector::new(Duration::from_secs(1));
        let pred = EquiPredicate::new(attr(0, 0), attr(1, 0));
        c.record_probe(Epoch(0), &[pred], 0, 0);
        let stats = c.snapshot(Epoch(0), &Statistics::new());
        assert_eq!(
            stats.selectivity(attr(0, 0), attr(1, 0)),
            Statistics::new().default_selectivity
        );
    }
}
