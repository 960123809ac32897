//! Cardinality estimation for (intermediate) join results.

use clash_catalog::{Catalog, Statistics};
use clash_common::{RelationId, RelationSet, Window};
use clash_query::JoinQuery;

/// Cap on the window length, in seconds, considered for cardinality
/// estimation; rates are per second. The estimated cardinality of a base
/// relation is `rate · min(window, 1 s)`, so under an unbounded window it
/// equals the arrival rate — the rate-based model used throughout the
/// paper's examples.
const WINDOW_HORIZON_SECS: f64 = 1.0;

/// Estimates the cardinality of base relations and connected joins from a
/// statistics snapshot.
#[derive(Debug, Clone)]
pub struct CardinalityEstimator<'a> {
    catalog: &'a Catalog,
    stats: &'a Statistics,
}

impl<'a> CardinalityEstimator<'a> {
    /// Creates an estimator over a catalog and statistics snapshot.
    pub fn new(catalog: &'a Catalog, stats: &'a Statistics) -> Self {
        CardinalityEstimator { catalog, stats }
    }

    /// Effective window length (in seconds) of a relation: its catalog
    /// window — the one both engines run — capped at
    /// [`WINDOW_HORIZON_SECS`].
    fn window_factor(&self, relation: RelationId) -> f64 {
        let window: Window = self
            .catalog
            .relation(relation)
            .map(|m| m.window)
            .unwrap_or_default();
        let secs = window.length.as_secs_f64();
        secs.clamp(f64::MIN_POSITIVE, WINDOW_HORIZON_SECS)
    }

    /// Estimated number of tuples of a single relation that are live inside
    /// its window.
    pub fn base_cardinality(&self, relation: RelationId) -> f64 {
        self.stats.rate(relation) * self.window_factor(relation)
    }

    /// Estimated size of the join over a (connected) subset of the query's
    /// relations: the product of the base cardinalities times the
    /// selectivity of every predicate contained in the subset.
    ///
    /// Disconnected subsets are estimated as the cross product of their
    /// components, which is what the paper's plan space explicitly avoids —
    /// the enumeration never asks for them, but the estimator stays total.
    pub fn join_cardinality(&self, query: &JoinQuery, set: &RelationSet) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        let mut card: f64 = 1.0;
        for r in set.iter() {
            card *= self.base_cardinality(r);
        }
        for p in query.predicates_within(set) {
            card *= self.stats.selectivity(p.left, p.right);
        }
        card
    }

    /// The statistics snapshot in use.
    pub fn stats(&self) -> &Statistics {
        self.stats
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::QueryId;
    use clash_query::parse_query;

    fn setup() -> (Catalog, Statistics) {
        let mut catalog = Catalog::new();
        catalog
            .register("R", ["a"], Window::unbounded(), 1)
            .unwrap();
        catalog
            .register("S", ["a", "b"], Window::unbounded(), 1)
            .unwrap();
        catalog
            .register("T", ["b"], Window::unbounded(), 1)
            .unwrap();
        let mut stats = Statistics::new();
        stats.set_rate(RelationId::new(0), 100.0);
        stats.set_rate(RelationId::new(1), 100.0);
        stats.set_rate(RelationId::new(2), 100.0);
        let rs = (
            catalog.attr("R", "a").unwrap(),
            catalog.attr("S", "a").unwrap(),
        );
        let st = (
            catalog.attr("S", "b").unwrap(),
            catalog.attr("T", "b").unwrap(),
        );
        stats.set_selectivity(rs.0, rs.1, 0.01); // |R ⋈ S| = 100
        stats.set_selectivity(st.0, st.1, 0.015); // |S ⋈ T| = 150
        (catalog, stats)
    }

    fn rs(ids: &[u32]) -> RelationSet {
        ids.iter().map(|i| RelationId::new(*i)).collect()
    }

    #[test]
    fn base_cardinality_equals_rate_for_unbounded_windows() {
        let (catalog, stats) = setup();
        let q = parse_query(&catalog, QueryId::new(0), "q", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        assert_eq!(est.base_cardinality(RelationId::new(0)), 100.0);
        assert_eq!(est.join_cardinality(&q, &rs(&[1])), 100.0);
    }

    #[test]
    fn join_cardinality_matches_paper_example() {
        let (catalog, stats) = setup();
        let q = parse_query(&catalog, QueryId::new(0), "q", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        assert!((est.join_cardinality(&q, &rs(&[0, 1])) - 100.0).abs() < 1e-9);
        assert!((est.join_cardinality(&q, &rs(&[1, 2])) - 150.0).abs() < 1e-9);
        // Full join: 100·100·100 · 0.01 · 0.015 = 150.
        assert!((est.join_cardinality(&q, &rs(&[0, 1, 2])) - 150.0).abs() < 1e-9);
        assert_eq!(est.join_cardinality(&q, &RelationSet::EMPTY), 0.0);
    }

    #[test]
    fn catalog_window_scales_cardinality() {
        let (mut catalog, stats) = setup();
        // Bounded 500 ms windows with a 1 s horizon halve the cardinality.
        let r = catalog.relation_id("R").unwrap();
        catalog
            .set_window(r, Window::new(clash_common::Duration::from_millis(500)))
            .unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        assert!((est.base_cardinality(r) - 50.0).abs() < 1e-9);
        // The horizon caps a long window at 1 s -> back to 100.
        catalog.set_window(r, Window::secs(10)).unwrap();
        let est = CardinalityEstimator::new(&catalog, &stats);
        assert!((est.base_cardinality(r) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn default_selectivity_used_for_unknown_predicates() {
        let (catalog, mut stats) = setup();
        stats.default_selectivity = 0.5;
        let mut no_sel = Statistics::new();
        no_sel.default_selectivity = 0.5;
        no_sel.set_rate(RelationId::new(0), 10.0);
        no_sel.set_rate(RelationId::new(1), 10.0);
        let q = parse_query(&catalog, QueryId::new(0), "q", "R(a), S(a,b)").unwrap();
        let est = CardinalityEstimator::new(&catalog, &no_sel);
        assert!((est.join_cardinality(&q, &q.relations) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn accessors_expose_configuration() {
        let (catalog, stats) = setup();
        let est = CardinalityEstimator::new(&catalog, &stats);
        assert_eq!(est.stats().rate(RelationId::new(0)), 100.0);
        assert_eq!(est.catalog().len(), 3);
    }
}
