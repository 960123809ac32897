//! Plan-space enumeration: decorated probe order candidates.
//!
//! For every query and starting relation this module enumerates the
//! candidate probe orders of Algorithm 1 and decorates every probed store
//! with a partitioning attribute (Section V), producing
//! [`DecoratedProbeOrder`]s — the unit among which the ILP chooses. Each
//! decorated candidate knows its probe cost, per-step costs and per-step
//! [`StepKey`]s; equal step keys across queries identify shareable work and
//! therefore map to the same ILP step variable.

use clash_catalog::{Catalog, Statistics};
use clash_common::{QueryId, RelationId, RelationSet};
use clash_cost::{probe_cost, step_cost, CardinalityEstimator};
use clash_query::partitioning::partition_candidates_for_workload;
use clash_query::{
    construct_probe_orders_for_start, enumerate_mirs, JoinQuery, Mir, ProbeOrder, StoreDescriptor,
};
use std::collections::HashMap;

/// Configuration of the plan-space enumeration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSpaceConfig {
    /// Cap on probe order candidates per (query, start) pair.
    pub max_candidates_per_start: Option<usize>,
    /// When `false`, only base relations may be probed (no intermediate
    /// result stores). Used by the MIR-materialization ablation.
    pub materialize_intermediates: bool,
    /// When `false`, stores are never decorated with partitioning
    /// attributes (every multi-partition store is broadcast to). Used by
    /// the χ-awareness ablation.
    pub partitioning_enabled: bool,
    /// Cap on the number of partitioning combinations per probe order.
    pub max_partitionings_per_order: usize,
}

impl Default for PlanSpaceConfig {
    fn default() -> Self {
        PlanSpaceConfig {
            max_candidates_per_start: Some(64),
            materialize_intermediates: true,
            partitioning_enabled: true,
            max_partitionings_per_order: 16,
        }
    }
}

/// Canonical identity of a probe-order prefix (a *step* of the ILP).
///
/// Two steps are the same — and may share an ILP variable, a store and the
/// actual computation at runtime — iff they start from the same relation,
/// probe the same sequence of stores with the same partitioning, and
/// evaluate the same predicates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StepKey(pub String);

impl StepKey {
    fn build(
        query: &JoinQuery,
        order: &ProbeOrder,
        stores: &[StoreDescriptor],
        upto: usize,
    ) -> StepKey {
        let mut s = format!("start:{}", order.start.0);
        let mut covered = RelationSet::singleton(order.start);
        for store in stores.iter().take(upto + 1) {
            covered = covered.union(&store.relations);
            s.push_str(&format!(
                "|{}@{}x{}",
                store.relations.bits(),
                store
                    .partition
                    .map(|a| format!("{}.{}", a.relation.0, a.attr.0))
                    .unwrap_or_else(|| "-".into()),
                store.parallelism
            ));
        }
        // Predicate fingerprint of the covered prefix: queries that impose
        // different join conditions on the same relations must not share.
        let mut preds: Vec<String> = query
            .predicates_within(&covered)
            .iter()
            .map(|p| {
                format!(
                    "{}.{}={}.{}",
                    p.left.relation.0, p.left.attr.0, p.right.relation.0, p.right.attr.0
                )
            })
            .collect();
        preds.sort();
        s.push_str("|P:");
        s.push_str(&preds.join(","));
        StepKey(s)
    }
}

/// A probe order whose probed stores carry partitioning decorations,
/// together with its costs under the current statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoratedProbeOrder {
    /// The query (or sub-query) answered by this probe order.
    pub query: QueryId,
    /// The undecorated probe order.
    pub order: ProbeOrder,
    /// One store descriptor per probe step.
    pub stores: Vec<StoreDescriptor>,
    /// Probe cost `PCost(σ)` (sum of the step costs).
    pub cost: f64,
    /// Cost of every step.
    pub step_costs: Vec<f64>,
    /// Sharing identity of every step (probe-order prefix).
    pub step_keys: Vec<StepKey>,
}

impl DecoratedProbeOrder {
    /// The set of relations covered once the probe order completes.
    pub fn covered(&self) -> RelationSet {
        self.order.covered()
    }

    /// Store descriptors of intermediate-result (non-base) steps.
    pub fn intermediate_stores(&self) -> impl Iterator<Item = &StoreDescriptor> {
        self.stores.iter().filter(|s| !s.is_base())
    }
}

/// Key identifying a sub-query probe order that maintains an intermediate
/// result store: the MIR's relations, the starting relation and the
/// predicate fingerprint.
pub type SubqueryKey = (u128, RelationId, String);

/// The full plan space of a workload.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// The workload.
    pub queries: Vec<JoinQuery>,
    /// Candidates per (query, starting relation).
    pub per_start: HashMap<(QueryId, RelationId), Vec<DecoratedProbeOrder>>,
    /// For every intermediate store that some candidate probes: the probe
    /// order that maintains it, one per starting relation of the MIR.
    pub subquery_orders: HashMap<SubqueryKey, DecoratedProbeOrder>,
}

impl CandidateSet {
    /// Total number of decorated probe order candidates (the "probe
    /// orders" series of Fig. 9b / 9d).
    pub fn num_probe_orders(&self) -> usize {
        self.per_start.values().map(|v| v.len()).sum::<usize>() + self.subquery_orders.len()
    }

    /// Candidates for one (query, start) pair.
    pub fn candidates(&self, query: QueryId, start: RelationId) -> &[DecoratedProbeOrder] {
        self.per_start
            .get(&(query, start))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Minimum probe cost of a query when optimized in isolation (one
    /// cheapest probe order per starting relation, no sharing) — the
    /// "Individual" series of Fig. 9a / 9c.
    ///
    /// Only candidates over base-relation stores are considered: a query
    /// executed in isolation by the baseline engines corresponds to a
    /// cascade of symmetric joins over its inputs, without additional
    /// intermediate-result maintenance streams.
    ///
    /// The per-start minima are summed in starting-relation order, not in
    /// the map's (per-instance random) order, so the sum is bit-identical
    /// across enumerations.
    pub fn individual_cost(&self, query: QueryId) -> f64 {
        let mut minima: Vec<(RelationId, f64)> = self
            .per_start
            .iter()
            .filter(|((q, _), _)| *q == query)
            .map(|((_, start), cands)| {
                let cheapest = cands
                    .iter()
                    .filter(|c| c.stores.iter().all(|s| s.is_base()))
                    .map(|c| c.cost)
                    .fold(f64::INFINITY, f64::min);
                (*start, cheapest)
            })
            .filter(|(_, cost)| cost.is_finite())
            .collect();
        minima.sort_unstable_by_key(|(start, _)| *start);
        minima.iter().map(|(_, cost)| cost).sum()
    }
}

fn predicate_fingerprint(query: &JoinQuery, set: &RelationSet) -> String {
    let mut preds: Vec<String> = query
        .predicates_within(set)
        .iter()
        .map(|p| {
            format!(
                "{}.{}={}.{}",
                p.left.relation.0, p.left.attr.0, p.right.relation.0, p.right.attr.0
            )
        })
        .collect();
    preds.sort();
    preds.join(",")
}

/// Parallelism assigned to a store over the given relations: the maximum
/// parallelism of the member relations (intermediate results inherit the
/// scale of their widest input).
fn store_parallelism(catalog: &Catalog, relations: &RelationSet) -> usize {
    relations
        .iter()
        .filter_map(|r| catalog.relation(r).ok().map(|m| m.parallelism))
        .max()
        .unwrap_or(1)
}

/// Partitioning options for a store, honoring the workload-wide candidate
/// attributes (Section V) and the configuration switches.
fn partition_options(
    catalog: &Catalog,
    queries: &[JoinQuery],
    relations: &RelationSet,
    config: &PlanSpaceConfig,
) -> Vec<StoreDescriptor> {
    let parallelism = store_parallelism(catalog, relations);
    if !config.partitioning_enabled || parallelism <= 1 {
        return vec![StoreDescriptor {
            relations: *relations,
            partition: None,
            parallelism,
            owner: None,
        }];
    }
    let candidates = partition_candidates_for_workload(queries, relations);
    if candidates.is_empty() {
        return vec![StoreDescriptor {
            relations: *relations,
            partition: None,
            parallelism,
            owner: None,
        }];
    }
    candidates
        .into_iter()
        .map(|attr| StoreDescriptor::partitioned(*relations, attr, parallelism))
        .collect()
}

/// Decorates one probe order with every combination of store partitionings
/// (capped by the configuration) and computes the costs.
fn decorate_order(
    estimator: &CardinalityEstimator<'_>,
    catalog: &Catalog,
    queries: &[JoinQuery],
    query: &JoinQuery,
    order: &ProbeOrder,
    config: &PlanSpaceConfig,
) -> Vec<DecoratedProbeOrder> {
    // Partitioning options per step.
    let options: Vec<Vec<StoreDescriptor>> = order
        .steps
        .iter()
        .map(|s| partition_options(catalog, queries, s, config))
        .collect();
    // Cartesian product, capped.
    let mut combos: Vec<Vec<StoreDescriptor>> = vec![Vec::new()];
    for step_options in &options {
        let mut next = Vec::new();
        'outer: for combo in &combos {
            for option in step_options {
                let mut c = combo.clone();
                c.push(*option);
                next.push(c);
                if next.len() >= config.max_partitionings_per_order {
                    break 'outer;
                }
            }
        }
        combos = next;
    }

    combos
        .into_iter()
        .map(|stores| {
            let cost = probe_cost(estimator, query, order, &stores);
            let step_costs: Vec<f64> = (0..order.len())
                .map(|j| step_cost(estimator, query, order, j, &stores[j]).cost)
                .collect();
            let step_keys: Vec<StepKey> = (0..order.len())
                .map(|j| StepKey::build(query, order, &stores, j))
                .collect();
            DecoratedProbeOrder {
                query: query.id,
                order: order.clone(),
                stores,
                cost,
                step_costs,
                step_keys,
            }
        })
        .collect()
}

/// Enumerates the full plan space of a workload.
pub fn enumerate_candidates(
    catalog: &Catalog,
    stats: &Statistics,
    queries: &[JoinQuery],
    config: &PlanSpaceConfig,
) -> CandidateSet {
    let estimator = CardinalityEstimator::new(catalog, stats);
    let mut set = CandidateSet {
        queries: queries.to_vec(),
        ..CandidateSet::default()
    };

    for query in queries {
        let mirs: Vec<Mir> = if config.materialize_intermediates {
            enumerate_mirs(query, None)
        } else {
            enumerate_mirs(query, Some(1))
        };
        for start in query.relations.iter() {
            let orders = construct_probe_orders_for_start(
                query,
                &mirs,
                start,
                config.max_candidates_per_start,
            );
            let mut decorated = Vec::new();
            for order in &orders {
                decorated.extend(decorate_order(
                    &estimator, catalog, queries, query, order, config,
                ));
            }
            // Register the sub-query probe orders needed to maintain every
            // intermediate store probed by some candidate.
            for cand in &decorated {
                for store in cand.intermediate_stores() {
                    register_subquery_orders(
                        &estimator,
                        catalog,
                        queries,
                        query,
                        &store.relations,
                        config,
                        &mut set.subquery_orders,
                    );
                }
            }
            set.per_start.insert((query.id, start), decorated);
        }
    }
    set
}

/// Generates (once) the cheapest probe order maintaining the intermediate
/// result `mir` for every starting relation of the MIR.
///
/// The paper generates *all* candidate probe orders for sub-queries and
/// lets the ILP choose; this reproduction commits to the locally cheapest
/// one per starting relation (over base-relation stores), which keeps the
/// ILP free of conditional choice groups. The simplification is documented
/// in DESIGN.md; for the 2–3 relation intermediates of the evaluation the
/// choice is unique or near-unique anyway.
fn register_subquery_orders(
    estimator: &CardinalityEstimator<'_>,
    catalog: &Catalog,
    queries: &[JoinQuery],
    query: &JoinQuery,
    mir: &RelationSet,
    config: &PlanSpaceConfig,
    out: &mut HashMap<SubqueryKey, DecoratedProbeOrder>,
) {
    let fingerprint = predicate_fingerprint(query, mir);
    let Ok(subquery) = query.subquery(*mir, QueryId::new(u32::MAX - query.id.0)) else {
        return;
    };
    let base_mirs = enumerate_mirs(&subquery, Some(1));
    for start in mir.iter() {
        let key: SubqueryKey = (mir.bits(), start, fingerprint.clone());
        if out.contains_key(&key) {
            continue;
        }
        let orders = construct_probe_orders_for_start(
            &subquery,
            &base_mirs,
            start,
            config.max_candidates_per_start,
        );
        let best = orders
            .iter()
            .flat_map(|o| decorate_order(estimator, catalog, queries, &subquery, o, config))
            .min_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        if let Some(best) = best {
            out.insert(key, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::Window;
    use clash_query::parse_query;

    fn setup() -> (Catalog, Statistics, Vec<JoinQuery>) {
        let mut catalog = Catalog::new();
        catalog
            .register("R", ["a"], Window::unbounded(), 1)
            .unwrap();
        catalog
            .register("S", ["a", "b"], Window::unbounded(), 5)
            .unwrap();
        catalog
            .register("T", ["b", "c"], Window::unbounded(), 5)
            .unwrap();
        catalog
            .register("U", ["c"], Window::unbounded(), 1)
            .unwrap();
        let mut stats = Statistics::new();
        for r in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            stats.set_rate(r, 100.0);
        }
        stats.default_selectivity = 0.01;
        let q1 = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(b), T(b,c), U(c)").unwrap();
        (catalog, stats, vec![q1, q2])
    }

    #[test]
    fn enumeration_produces_candidates_for_every_start() {
        let (catalog, stats, queries) = setup();
        let set = enumerate_candidates(&catalog, &stats, &queries, &PlanSpaceConfig::default());
        for q in &queries {
            for start in q.relations.iter() {
                let cands = set.candidates(q.id, start);
                assert!(
                    !cands.is_empty(),
                    "no candidates for {} start {start}",
                    q.name
                );
                for c in cands {
                    assert_eq!(c.query, q.id);
                    assert!(c.order.is_valid_for(q));
                    assert_eq!(c.stores.len(), c.order.len());
                    assert_eq!(c.step_costs.len(), c.order.len());
                    assert_eq!(c.step_keys.len(), c.order.len());
                    assert!(c.cost > 0.0);
                    assert!((c.step_costs.iter().sum::<f64>() - c.cost).abs() < 1e-9);
                }
            }
        }
        assert!(set.num_probe_orders() > 0);
    }

    #[test]
    fn partitioned_stores_get_candidate_attributes() {
        let (catalog, stats, queries) = setup();
        let set = enumerate_candidates(&catalog, &stats, &queries, &PlanSpaceConfig::default());
        // S has parallelism 5, so candidates probing the S-store must carry
        // a partitioning attribute of S.
        let q1 = queries[0].id;
        let r = catalog.relation_id("R").unwrap();
        let s = catalog.relation_id("S").unwrap();
        let any_partitioned = set
            .candidates(q1, r)
            .iter()
            .flat_map(|c| c.stores.iter())
            .any(|st| st.relations == RelationSet::singleton(s) && st.partition.is_some());
        assert!(any_partitioned);
    }

    #[test]
    fn disabling_partitioning_removes_decorations() {
        let (catalog, stats, queries) = setup();
        let config = PlanSpaceConfig {
            partitioning_enabled: false,
            ..PlanSpaceConfig::default()
        };
        let set = enumerate_candidates(&catalog, &stats, &queries, &config);
        for cands in set.per_start.values() {
            for c in cands {
                assert!(c.stores.iter().all(|s| s.partition.is_none()));
            }
        }
    }

    #[test]
    fn disabling_intermediates_restricts_steps_to_base_stores() {
        let (catalog, stats, queries) = setup();
        let config = PlanSpaceConfig {
            materialize_intermediates: false,
            ..PlanSpaceConfig::default()
        };
        let set = enumerate_candidates(&catalog, &stats, &queries, &config);
        assert!(set.subquery_orders.is_empty());
        for cands in set.per_start.values() {
            for c in cands {
                assert!(c.stores.iter().all(|s| s.is_base()));
            }
        }
        // With intermediates enabled, at least one candidate probes an MIR
        // store and the corresponding maintenance orders exist.
        let full = enumerate_candidates(&catalog, &stats, &queries, &PlanSpaceConfig::default());
        assert!(!full.subquery_orders.is_empty());
        for sub in full.subquery_orders.values() {
            assert!(sub.stores.iter().all(|s| s.is_base()));
        }
    }

    #[test]
    fn shared_prefixes_of_different_queries_have_equal_step_keys() {
        let (catalog, stats, queries) = setup();
        let set = enumerate_candidates(&catalog, &stats, &queries, &PlanSpaceConfig::default());
        // q1 starting at S probing the T-store and q2 starting at S probing
        // the T-store share the first step (same predicate S.b = T.b).
        let s = catalog.relation_id("S").unwrap();
        let t = catalog.relation_id("T").unwrap();
        let keys_q1: Vec<&StepKey> = set
            .candidates(queries[0].id, s)
            .iter()
            .filter(|c| c.stores[0].relations == RelationSet::singleton(t))
            .map(|c| &c.step_keys[0])
            .collect();
        let keys_q2: Vec<&StepKey> = set
            .candidates(queries[1].id, s)
            .iter()
            .filter(|c| c.stores[0].relations == RelationSet::singleton(t))
            .map(|c| &c.step_keys[0])
            .collect();
        assert!(!keys_q1.is_empty() && !keys_q2.is_empty());
        assert!(
            keys_q1.iter().any(|k| keys_q2.contains(k)),
            "expected a shared first step between q1 and q2"
        );
    }

    #[test]
    fn individual_cost_sums_cheapest_candidates() {
        let (catalog, stats, queries) = setup();
        let set = enumerate_candidates(&catalog, &stats, &queries, &PlanSpaceConfig::default());
        let cost = set.individual_cost(queries[0].id);
        assert!(cost.is_finite() && cost > 0.0);
        // Manually: sum over starts of the minimum cost among base-only
        // candidates (intermediate-store candidates are excluded from the
        // individual baseline).
        let manual: f64 = queries[0]
            .relations
            .iter()
            .map(|s| {
                set.candidates(queries[0].id, s)
                    .iter()
                    .filter(|c| c.stores.iter().all(|st| st.is_base()))
                    .map(|c| c.cost)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        assert!((cost - manual).abs() < 1e-9);
    }

    /// Every enumeration keys its candidates by a freshly seeded hash map;
    /// the individual costs of the Fig. 7 five-query workload must still be
    /// bit-identical across enumerations.
    #[test]
    fn individual_cost_is_bit_identical_across_enumerations() {
        let workload = clash_datagen::TpchWorkload::new(2, Window::secs(5)).unwrap();
        let queries = workload.five_queries().unwrap();
        let costs = || {
            let set = enumerate_candidates(
                &workload.catalog,
                &workload.stats,
                &queries,
                &PlanSpaceConfig::default(),
            );
            queries
                .iter()
                .map(|q| set.individual_cost(q.id).to_bits())
                .collect::<Vec<u64>>()
        };
        let first = costs();
        for _ in 1..8 {
            assert_eq!(costs(), first);
        }
    }

    #[test]
    fn candidate_cap_limits_partitioning_combinations() {
        let (catalog, stats, queries) = setup();
        let config = PlanSpaceConfig {
            max_partitionings_per_order: 1,
            ..PlanSpaceConfig::default()
        };
        let set = enumerate_candidates(&catalog, &stats, &queries, &config);
        let full = enumerate_candidates(&catalog, &stats, &queries, &PlanSpaceConfig::default());
        assert!(set.num_probe_orders() <= full.num_probe_orders());
    }
}
