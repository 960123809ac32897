//! Data-characteristic statistics: arrival rates and join selectivities.
//!
//! The probe-cost model of the paper (Equation 1) needs, for every step of
//! a probe order, the expected size of the intermediate join result built
//! so far. That estimate is derived from
//!
//! * the arrival **rate** of each input relation (tuples per second),
//! * the **selectivity** of each equi-join predicate `Si.a = Sj.b`
//!   (fraction of pairs from the windows of `Si` and `Sj` that match), and
//! * the per-relation window lengths (from the [`crate::Catalog`]).
//!
//! Statistics are sampled per epoch by the runtime's statistics collector,
//! which builds each snapshot over the previous one; the adaptive
//! controller re-runs the optimizer on it (Section VI-A, Fig. 5).

use clash_common::{AttrRef, Epoch, RelationId};
use std::collections::HashMap;

/// Normalizes an attribute pair so that `(a, b)` and `(b, a)` address the
/// same selectivity entry.
fn normalize(a: AttrRef, b: AttrRef) -> (AttrRef, AttrRef) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A snapshot of data characteristics valid for one optimization run.
#[derive(Debug, Clone)]
pub struct Statistics {
    /// Epoch this snapshot was gathered in (metadata only).
    pub epoch: Epoch,
    /// Arrival rate per relation in tuples per second.
    rates: HashMap<RelationId, f64>,
    /// Selectivity per (normalized) attribute pair.
    selectivities: HashMap<(AttrRef, AttrRef), f64>,
    /// Rate assumed for relations without an explicit entry.
    pub default_rate: f64,
    /// Selectivity assumed for predicates without an explicit entry.
    pub default_selectivity: f64,
}

impl Default for Statistics {
    fn default() -> Self {
        Statistics {
            epoch: Epoch::ZERO,
            rates: HashMap::new(),
            selectivities: HashMap::new(),
            default_rate: 100.0,
            default_selectivity: 0.01,
        }
    }
}

impl Statistics {
    /// Creates an empty snapshot with the library defaults
    /// (rate 100 t/s, selectivity 0.01).
    pub fn new() -> Self {
        Statistics::default()
    }

    /// Creates an empty snapshot tagged with an epoch.
    pub fn for_epoch(epoch: Epoch) -> Self {
        Statistics {
            epoch,
            ..Statistics::default()
        }
    }

    /// Sets the arrival rate (tuples/second) of a relation.
    pub fn set_rate(&mut self, relation: RelationId, rate: f64) -> &mut Self {
        self.rates.insert(relation, rate.max(0.0));
        self
    }

    /// Arrival rate of a relation (default if never set).
    pub fn rate(&self, relation: RelationId) -> f64 {
        self.rates
            .get(&relation)
            .copied()
            .unwrap_or(self.default_rate)
    }

    /// Sets the selectivity of the equi-join predicate `a = b`.
    pub fn set_selectivity(&mut self, a: AttrRef, b: AttrRef, selectivity: f64) -> &mut Self {
        self.selectivities
            .insert(normalize(a, b), selectivity.clamp(0.0, 1.0));
        self
    }

    /// Selectivity of the predicate `a = b` (default if never set).
    pub fn selectivity(&self, a: AttrRef, b: AttrRef) -> f64 {
        self.selectivities
            .get(&normalize(a, b))
            .copied()
            .unwrap_or(self.default_selectivity)
    }

    /// `true` if an explicit selectivity was recorded for the pair.
    pub fn has_selectivity(&self, a: AttrRef, b: AttrRef) -> bool {
        self.selectivities.contains_key(&normalize(a, b))
    }

    /// Number of explicit rate entries (used by tests and debug output).
    pub fn rate_entries(&self) -> usize {
        self.rates.len()
    }

    /// Number of explicit selectivity entries.
    pub fn selectivity_entries(&self) -> usize {
        self.selectivities.len()
    }

    /// Merges another snapshot into this one, preferring `other`'s entries.
    /// Used when combining sampled statistics with configured priors.
    pub fn merge_from(&mut self, other: &Statistics) {
        for (r, v) in &other.rates {
            self.rates.insert(*r, *v);
        }
        for (k, v) in &other.selectivities {
            self.selectivities.insert(*k, *v);
        }
        self.epoch = self.epoch.max(other.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::AttrId;

    fn attr(rel: u32, attr: u32) -> AttrRef {
        AttrRef::new(RelationId::new(rel), AttrId::new(attr))
    }

    #[test]
    fn rates_fall_back_to_default() {
        let mut s = Statistics::new();
        assert_eq!(s.rate(RelationId::new(0)), 100.0);
        s.set_rate(RelationId::new(0), 5000.0);
        assert_eq!(s.rate(RelationId::new(0)), 5000.0);
        assert_eq!(s.rate(RelationId::new(1)), 100.0);
        s.set_rate(RelationId::new(1), -3.0);
        assert_eq!(
            s.rate(RelationId::new(1)),
            0.0,
            "negative rates clamp to zero"
        );
    }

    #[test]
    fn selectivity_is_symmetric_and_clamped() {
        let mut s = Statistics::new();
        s.set_selectivity(attr(0, 0), attr(1, 1), 0.5);
        assert_eq!(s.selectivity(attr(1, 1), attr(0, 0)), 0.5);
        assert!(s.has_selectivity(attr(1, 1), attr(0, 0)));
        assert!(!s.has_selectivity(attr(0, 0), attr(2, 0)));
        assert_eq!(s.selectivity(attr(0, 0), attr(2, 0)), 0.01);
        s.set_selectivity(attr(0, 0), attr(2, 0), 7.0);
        assert_eq!(
            s.selectivity(attr(0, 0), attr(2, 0)),
            1.0,
            "clamped to [0,1]"
        );
    }

    #[test]
    fn merge_prefers_other() {
        let mut base = Statistics::new();
        base.set_rate(RelationId::new(0), 10.0);
        base.set_rate(RelationId::new(1), 20.0);
        let mut newer = Statistics::for_epoch(Epoch(3));
        newer.set_rate(RelationId::new(1), 99.0);
        newer.set_selectivity(attr(0, 0), attr(1, 0), 0.25);
        base.merge_from(&newer);
        assert_eq!(base.rate(RelationId::new(0)), 10.0);
        assert_eq!(base.rate(RelationId::new(1)), 99.0);
        assert_eq!(base.selectivity(attr(0, 0), attr(1, 0)), 0.25);
        assert_eq!(base.epoch, Epoch(3));
        assert_eq!(base.rate_entries(), 2);
        assert_eq!(base.selectivity_entries(), 1);
    }
}
