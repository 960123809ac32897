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
    construct_probe_orders_for_start, enumerate_mirs, JoinQuery, Mir, PredicateSet, ProbeOrder,
    StoreDescriptor,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Cap on probe order candidates per (query, start) pair.
const MAX_CANDIDATES_PER_START: usize = 64;

/// Cap on the number of partitioning combinations per probe order.
const MAX_PARTITIONINGS_PER_ORDER: usize = 16;

/// Configuration of the plan-space enumeration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSpaceConfig {
    /// When `false`, only base relations may be probed (no intermediate
    /// result stores). Used by the MIR-materialization ablation.
    pub materialize_intermediates: bool,
    /// When `false`, stores are never decorated with partitioning
    /// attributes (every multi-partition store is broadcast to). Used by
    /// the χ-awareness ablation.
    pub partitioning_enabled: bool,
}

impl Default for PlanSpaceConfig {
    fn default() -> Self {
        PlanSpaceConfig {
            materialize_intermediates: true,
            partitioning_enabled: true,
        }
    }
}

/// Canonical identity of a probe-order prefix (a *step* of the ILP).
///
/// Two steps are the same — and may share an ILP variable, a store and the
/// actual computation at runtime — iff they start from the same relation,
/// probe the same sequence of stores with the same partitioning, and
/// evaluate the same predicates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StepKey {
    /// The relation whose arriving tuples start the probe order.
    start: RelationId,
    /// The stores probed up to and including this step.
    stores: Vec<StoreDescriptor>,
    /// The predicates on every relation the prefix covers: queries that
    /// impose different join conditions on the same relations must not
    /// share.
    predicates: PredicateSet,
}

impl StepKey {
    fn build(
        query: &JoinQuery,
        order: &ProbeOrder,
        stores: &[StoreDescriptor],
        upto: usize,
    ) -> StepKey {
        StepKey {
            start: order.start,
            stores: stores[..=upto].to_vec(),
            predicates: query.mir(order.head_after(upto)).predicates,
        }
    }
}

/// The step's ILP variable name without its `y[..]`: the start, every
/// store as `bits@partition x parallelism`, and the predicates
/// ([`PredicateText`]).
impl fmt::Display for StepKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "start:{}", self.start.0)?;
        for store in &self.stores {
            write!(f, "|{}@", store.relations.bits())?;
            match store.partition {
                Some(a) => write!(f, "{}.{}", a.relation.0, a.attr.0)?,
                None => write!(f, "-")?,
            }
            write!(f, "x{}", store.parallelism)?;
        }
        write!(f, "|{}", PredicateText(self.predicates))
    }
}

/// A predicate set's text in ILP names: `P:` and its predicates as sorted
/// `rel.attr=rel.attr` texts, the part that tells two steps or two
/// maintenance orders over the same relations apart.
pub(crate) struct PredicateText(pub PredicateSet);

impl fmt::Display for PredicateText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut predicates: Vec<String> = self
            .0
            .predicates()
            .iter()
            .map(|p| {
                let (l, r) = (p.left, p.right);
                format!(
                    "{}.{}={}.{}",
                    l.relation.0, l.attr.0, r.relation.0, r.attr.0
                )
            })
            .collect();
        predicates.sort();
        write!(f, "P:{}", predicates.join(","))
    }
}

/// What a probe order's results are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Produces {
    /// Results of a workload query.
    Query(QueryId),
    /// Entries of the stores holding an intermediate result: the order is
    /// a maintenance order.
    Mir(Mir),
}

/// A probe order whose probed stores carry partitioning decorations,
/// together with its costs under the current statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoratedProbeOrder {
    /// The query this probe order answers, or the intermediate result it
    /// maintains.
    pub produces: Produces,
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
    /// Store descriptors of intermediate-result (non-base) steps.
    pub fn intermediate_stores(&self) -> impl Iterator<Item = &StoreDescriptor> {
        self.stores.iter().filter(|s| !s.is_base())
    }
}

/// Identity of a maintenance order: the relations of the MIR whose stores
/// it feeds, the relation it starts from, and the MIR's predicates.
pub type SubqueryKey = (RelationSet, RelationId, PredicateSet);

/// The full plan space of a workload.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// Candidates per (query, starting relation).
    pub per_start: HashMap<(QueryId, RelationId), Vec<DecoratedProbeOrder>>,
    /// For every intermediate store that some candidate probes: the probe
    /// order that maintains it, one per starting relation of the MIR, in
    /// key order.
    pub subquery_orders: BTreeMap<SubqueryKey, DecoratedProbeOrder>,
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

/// Partitioning options for a store of `mir`, honoring the workload-wide
/// candidate attributes (Section V) and the configuration switches.
fn partition_options(
    catalog: &Catalog,
    queries: &[JoinQuery],
    mir: Mir,
    config: &PlanSpaceConfig,
) -> Vec<StoreDescriptor> {
    let parallelism = store_parallelism(catalog, &mir.relations);
    let candidates = if config.partitioning_enabled && parallelism > 1 {
        partition_candidates_for_workload(queries, &mir.relations)
    } else {
        Vec::new()
    };
    if candidates.is_empty() {
        return vec![StoreDescriptor::of_mir(mir, None, parallelism)];
    }
    candidates
        .into_iter()
        .map(|attr| StoreDescriptor::of_mir(mir, Some(attr), parallelism))
        .collect()
}

/// Decorates one probe order of `query` with every combination of store
/// partitionings (capped) and computes the costs.
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
        .map(|s| partition_options(catalog, queries, query.mir(*s), config))
        .collect();
    partition_combos(&options, MAX_PARTITIONINGS_PER_ORDER)
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
                produces: Produces::Query(query.id),
                order: order.clone(),
                stores,
                cost,
                step_costs,
                step_keys,
            }
        })
        .collect()
}

/// The Cartesian product of the per-step partitioning `options`, its
/// first `cap` combinations.
fn partition_combos(options: &[Vec<StoreDescriptor>], cap: usize) -> Vec<Vec<StoreDescriptor>> {
    let mut combos: Vec<Vec<StoreDescriptor>> = vec![Vec::new()];
    for step_options in options {
        let mut next = Vec::new();
        'outer: for combo in &combos {
            for option in step_options {
                let mut c = combo.clone();
                c.push(*option);
                next.push(c);
                if next.len() >= cap {
                    break 'outer;
                }
            }
        }
        combos = next;
    }
    combos
}

/// Enumerates the full plan space of a workload.
pub fn enumerate_candidates(
    catalog: &Catalog,
    stats: &Statistics,
    queries: &[JoinQuery],
    config: &PlanSpaceConfig,
) -> CandidateSet {
    let estimator = CardinalityEstimator::new(catalog, stats);
    let mut set = CandidateSet::default();

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
                Some(MAX_CANDIDATES_PER_START),
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
                        store.mir(),
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
    mir: Mir,
    config: &PlanSpaceConfig,
    out: &mut BTreeMap<SubqueryKey, DecoratedProbeOrder>,
) {
    let Ok(subquery) = query.subquery(mir.relations) else {
        return;
    };
    let base_mirs = enumerate_mirs(&subquery, Some(1));
    for start in mir.relations.iter() {
        let key = (mir.relations, start, mir.predicates);
        if out.contains_key(&key) {
            continue;
        }
        let orders = construct_probe_orders_for_start(
            &subquery,
            &base_mirs,
            start,
            Some(MAX_CANDIDATES_PER_START),
        );
        let best = orders
            .iter()
            .flat_map(|o| decorate_order(estimator, catalog, queries, &subquery, o, config))
            .min_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        if let Some(mut best) = best {
            // It answers the sub-query, and so maintains the MIR.
            best.produces = Produces::Mir(mir);
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
                    assert_eq!(c.produces, Produces::Query(q.id));
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
        let option = |r| StoreDescriptor::unpartitioned(RelationSet::singleton(RelationId::new(r)));
        let options = vec![vec![option(0), option(1), option(2)]; 3];
        assert_eq!(partition_combos(&options, usize::MAX).len(), 27);
        assert_eq!(
            partition_combos(&options, MAX_PARTITIONINGS_PER_ORDER).len(),
            16
        );
        assert_eq!(partition_combos(&options, 1).len(), 1);
    }
}
