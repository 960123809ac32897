//! Probe trees and deployable topology plans (Section V-B).
//!
//! The probe orders selected by the optimizer are merged into *probe
//! trees*: probe orders with the same starting relation and a common
//! prefix share that prefix (Fig. 4 of the paper). Every distinct tree
//! node becomes a rule registered at a store, keyed by the label of its
//! incoming edge:
//!
//! * `if a tuple arrives from edge e, probe with predicate P and send the
//!   results (if any) to E_out` — [`Rule::Probe`],
//! * `if a tuple arrives from edge e, add it to the local store` —
//!   [`Rule::Store`].
//!
//! The resulting [`TopologyPlan`] is what the `clash-runtime` crate
//! instantiates: one worker per store partition, channels for the edges,
//! and the rule set table per store.

use crate::candidate::DecoratedProbeOrder;
use crate::ilp_builder::Selection;
use crate::store::StoreDescriptor;
use clash_common::{
    AttrRef, ClashError, Diagnostic, EdgeId, FxHashMap, QueryId, RelationId, RelationSet, Result,
    StoreId,
};
use clash_query::{EquiPredicate, JoinQuery};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A store instantiated by the plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreDef {
    /// Dense store identifier within the plan.
    pub id: StoreId,
    /// What the store holds and how it is partitioned.
    pub descriptor: StoreDescriptor,
}

/// Where to send a tuple (or join result) next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SendTarget {
    /// Edge label the tuple travels on; the receiving store looks up its
    /// rule set under this label.
    pub edge: EdgeId,
    /// The receiving store.
    pub store: StoreId,
    /// Attribute of the *sent* tuple whose hash selects the receiving
    /// partition; `None` broadcasts to every partition of the store.
    pub routing_key: Option<AttrRef>,
}

/// Action taken with the results of a probe (or with an arriving tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputAction {
    /// Forward to another store for further probing or storing.
    Forward(SendTarget),
    /// The tuple is a complete join result of the given query.
    Emit {
        /// Query the result belongs to.
        query: QueryId,
    },
}

/// A rule registered at a store for one incoming edge label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Rule {
    /// Add the arriving tuple to the local store partition.
    Store,
    /// Probe the local store with the arriving tuple.
    Probe {
        /// Join predicates between the arriving tuple and the stored
        /// relation(s).
        predicates: Vec<EquiPredicate>,
        /// What to do with every join result.
        outputs: Vec<OutputAction>,
    },
}

/// Routing of freshly ingested input tuples of one relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestRoute {
    /// The input relation.
    pub relation: RelationId,
    /// All targets the arriving tuple is sent to: its own store copies
    /// (store rules) and the roots of its probe trees (probe rules).
    pub targets: Vec<SendTarget>,
}

/// A deployable topology: stores, rule sets and ingest routing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TopologyPlan {
    /// All stores.
    pub stores: Vec<StoreDef>,
    /// Rule sets, keyed by `(store, incoming edge)`. Fx-hashed: the runtime
    /// looks a rule set up per delivery, on the sending and on the
    /// receiving side, and the keys are trusted internal ids.
    pub rules: FxHashMap<(StoreId, EdgeId), Vec<Rule>>,
    /// Ingest routing per input relation.
    pub ingest: Vec<IngestRoute>,
    /// Queries answered by this plan.
    pub queries: Vec<QueryId>,
    /// Total estimated probe cost of the plan (each shared step counted
    /// once).
    pub estimated_cost: f64,
}

impl TopologyPlan {
    /// Looks up a store definition.
    pub fn store(&self, id: StoreId) -> Option<&StoreDef> {
        self.stores.get(id.index())
    }

    /// Number of stores.
    pub fn num_stores(&self) -> usize {
        self.stores.len()
    }

    /// Number of worker tasks (sum of store parallelisms).
    pub fn num_workers(&self) -> usize {
        self.stores.iter().map(|s| s.descriptor.parallelism).sum()
    }

    /// Number of registered rules.
    pub fn num_rules(&self) -> usize {
        self.rules.values().map(|r| r.len()).sum()
    }

    /// Ingest routing of a relation (empty when the relation feeds no
    /// store).
    pub fn ingest_for(&self, relation: RelationId) -> &[SendTarget] {
        self.ingest
            .iter()
            .find(|i| i.relation == relation)
            .map(|i| i.targets.as_slice())
            .unwrap_or(&[])
    }
}

/// Builds [`TopologyPlan`]s from optimizer selections.
#[derive(Debug)]
pub struct TopologyBuilder<'a> {
    queries: &'a [JoinQuery],
    /// When `false` (Independent baseline) every store is duplicated per
    /// query and nothing is shared.
    share_stores: bool,
}

#[derive(Debug)]
struct PlanState {
    stores: Vec<StoreDef>,
    store_index: HashMap<String, StoreId>,
    rules: FxHashMap<(StoreId, EdgeId), Vec<Rule>>,
    ingest: HashMap<RelationId, Vec<SendTarget>>,
    next_edge: u32,
}

impl PlanState {
    fn new() -> Self {
        PlanState {
            stores: Vec::new(),
            store_index: HashMap::new(),
            rules: FxHashMap::default(),
            ingest: HashMap::new(),
            next_edge: 0,
        }
    }

    fn fresh_edge(&mut self) -> EdgeId {
        let e = EdgeId::new(self.next_edge);
        self.next_edge += 1;
        e
    }

    fn intern_store(&mut self, descriptor: StoreDescriptor) -> StoreId {
        let key = descriptor.key();
        if let Some(id) = self.store_index.get(&key) {
            return *id;
        }
        let id = StoreId::from(self.stores.len());
        self.stores.push(StoreDef { id, descriptor });
        self.store_index.insert(key, id);
        id
    }

    fn add_rule(&mut self, store: StoreId, edge: EdgeId, rule: Rule) {
        self.rules.entry((store, edge)).or_default().push(rule);
    }
}

impl<'a> TopologyBuilder<'a> {
    /// Creates a builder for a workload. `share_stores = false` reproduces
    /// the Independent baseline (per-query copies of all state).
    pub fn new(queries: &'a [JoinQuery], share_stores: bool) -> Self {
        TopologyBuilder {
            queries,
            share_stores,
        }
    }

    fn query(&self, id: QueryId) -> Result<&JoinQuery> {
        self.queries.iter().find(|q| q.id == id).ok_or_else(|| {
            ClashError::InvalidPlan(vec![Diagnostic::error(
                "P020",
                format!("selection references {id}, which is not in the workload"),
            )
            .for_query(id)])
        })
    }

    /// Attribute of the sending tuple (covering `head`) that determines the
    /// partition of the target store, if the partitioning key can be
    /// computed (otherwise broadcast).
    fn routing_key(
        query: &JoinQuery,
        head: &RelationSet,
        target: &StoreDescriptor,
    ) -> Option<AttrRef> {
        let partition = target.partition?;
        if head.contains(partition.relation) {
            // The sending tuple literally carries the partition attribute
            // (it is an intermediate result containing that relation).
            return Some(partition);
        }
        query.predicates.iter().find_map(|p| {
            if p.left == partition && head.contains(p.right.relation) {
                Some(p.right)
            } else if p.right == partition && head.contains(p.left.relation) {
                Some(p.left)
            } else {
                None
            }
        })
    }

    /// Registers the probe chain of one decorated probe order, reusing the
    /// prefix nodes already created by other orders (`trie`). Returns the
    /// first-step send target so the caller can wire up ingestion.
    #[allow(clippy::too_many_arguments)]
    fn add_order(
        &self,
        state: &mut PlanState,
        trie: &mut HashMap<String, (StoreId, EdgeId)>,
        order: &DecoratedProbeOrder,
        owner: Option<QueryId>,
        terminal: Vec<OutputAction>,
    ) -> Result<Option<SendTarget>> {
        let query = self
            .query(if order.query.0 >= u32::MAX - 1024 {
                // Sub-query orders reference synthetic ids; their predicates are
                // a subset of the owning query's, which is the one that spawned
                // them. Any workload query containing the covered relations with
                // the same predicates works for rule construction.
                self.queries
                    .iter()
                    .find(|q| order.covered().is_subset(&q.relations))
                    .map(|q| q.id)
                    .unwrap_or(order.query)
            } else {
                order.query
            })?
            .id;
        let query = self.query(query)?;

        let mut first_target = None;
        let mut head = RelationSet::singleton(order.order.start);
        let mut previous: Option<(StoreId, EdgeId, usize)> = None; // (store, edge, step idx)

        for (j, store_desc) in order.stores.iter().enumerate() {
            let mut descriptor = *store_desc;
            if let Some(q) = owner {
                descriptor = descriptor.owned_by(q);
            }
            let trie_key = format!(
                "{}|{}|{}",
                owner.map(|q| q.0 as i64).unwrap_or(-1),
                order.step_keys[j].0,
                descriptor.key()
            );
            let store_id;
            let edge;
            let is_new = !trie.contains_key(&trie_key);
            if is_new {
                store_id = state.intern_store(descriptor);
                edge = state.fresh_edge();
                trie.insert(trie_key.clone(), (store_id, edge));
                let predicates = query.predicates_between(&head, &store_desc.relations);
                state.add_rule(
                    store_id,
                    edge,
                    Rule::Probe {
                        predicates,
                        outputs: Vec::new(),
                    },
                );
            } else {
                let (s, e) = trie[&trie_key];
                store_id = s;
                edge = e;
            }

            let target = SendTarget {
                edge,
                store: store_id,
                routing_key: Self::routing_key(query, &head, store_desc),
            };
            if j == 0 {
                first_target = Some(target);
            } else if let Some((prev_store, prev_edge, _)) = previous {
                // Append a Forward output to the previous node's probe rule
                // (deduplicated).
                if let Some(rules) = state.rules.get_mut(&(prev_store, prev_edge)) {
                    for rule in rules.iter_mut() {
                        if let Rule::Probe { outputs, .. } = rule {
                            if !outputs.contains(&OutputAction::Forward(target)) {
                                outputs.push(OutputAction::Forward(target));
                            }
                        }
                    }
                }
            }

            head = head.union(&store_desc.relations);
            previous = Some((store_id, edge, j));
        }

        // Terminal actions at the last node (emit results / feed MIR store).
        if let Some((store, edge, _)) = previous {
            if let Some(rules) = state.rules.get_mut(&(store, edge)) {
                for rule in rules.iter_mut() {
                    if let Rule::Probe { outputs, .. } = rule {
                        for action in &terminal {
                            if !outputs.contains(action) {
                                outputs.push(*action);
                            }
                        }
                    }
                }
            }
        }
        Ok(first_target)
    }

    /// Builds a topology plan from a selection of probe orders.
    ///
    /// Fails with [`ClashError::InvalidPlan`] when the selection is
    /// inconsistent with the workload (diagnostics `P020`/`P021`); the
    /// full semantic verification of the *built* plan lives in the
    /// `clash-analyzer` crate, which this crate cannot depend on.
    pub fn build(&self, selection: &Selection) -> Result<TopologyPlan> {
        let mut state = PlanState::new();
        let mut trie: HashMap<String, (StoreId, EdgeId)> = HashMap::new();

        // 1. Materialize base stores referenced by any chosen probe order,
        //    plus the stores for the starting relations themselves (they
        //    are probed by the probe orders of the other relations, which
        //    guarantees they appear as steps; interning here is idempotent).
        //    MIR stores referenced as steps are interned too, with a
        //    dedicated "store edge" that sub-query orders feed.
        let mut mir_store_edges: HashMap<String, (StoreId, EdgeId)> = HashMap::new();
        let mut base_store_edges: HashMap<String, (StoreId, EdgeId)> = HashMap::new();
        for order in selection.all_orders() {
            let owner = if self.share_stores {
                None
            } else if order.query.0 < u32::MAX - 1024 {
                Some(order.query)
            } else {
                None
            };
            for store_desc in &order.stores {
                let mut descriptor = *store_desc;
                if let Some(q) = owner {
                    descriptor = descriptor.owned_by(q);
                }
                let key = descriptor.key();
                let store_id = state.intern_store(descriptor);
                if store_desc.is_base() {
                    base_store_edges.entry(key).or_insert_with(|| {
                        let edge = state.fresh_edge();
                        state.add_rule(store_id, edge, Rule::Store);
                        (store_id, edge)
                    });
                } else {
                    mir_store_edges.entry(key).or_insert_with(|| {
                        let edge = state.fresh_edge();
                        state.add_rule(store_id, edge, Rule::Store);
                        (store_id, edge)
                    });
                }
            }
        }

        // 2. Probe chains for the query probe orders (terminal: emit).
        for order in &selection.query_orders {
            let owner = if self.share_stores {
                None
            } else {
                Some(order.query)
            };
            let terminal = vec![OutputAction::Emit { query: order.query }];
            if order.order.is_empty() {
                // Single-relation query: every arriving tuple is a result.
                continue;
            }
            if let Some(first) = self.add_order(&mut state, &mut trie, order, owner, terminal)? {
                state
                    .ingest
                    .entry(order.order.start)
                    .or_default()
                    .push(first);
            }
        }

        // 3. Probe chains for the sub-query (MIR maintenance) orders
        //    (terminal: store the result into every matching MIR store).
        for order in &selection.subquery_orders {
            let covered = order.covered();
            let terminal: Vec<OutputAction> = mir_store_edges
                .values()
                .filter(|(store_id, _)| {
                    state.stores[store_id.index()].descriptor.relations == covered
                })
                .map(|(store_id, edge)| {
                    let descriptor = state.stores[store_id.index()].descriptor;
                    OutputAction::Forward(SendTarget {
                        edge: *edge,
                        store: *store_id,
                        routing_key: descriptor.partition,
                    })
                })
                .collect();
            if terminal.is_empty() {
                continue;
            }
            if let Some(first) = self.add_order(&mut state, &mut trie, order, None, terminal)? {
                state
                    .ingest
                    .entry(order.order.start)
                    .or_default()
                    .push(first);
            }
        }

        // 4. Ingestion into the base stores themselves (store rules).
        for (store_id, edge) in base_store_edges.values() {
            let descriptor = state.stores[store_id.index()].descriptor;
            let relation = descriptor.relations.as_singleton().ok_or_else(|| {
                ClashError::InvalidPlan(vec![Diagnostic::error(
                    "P021",
                    format!(
                        "base store {store_id} covers {} relations instead of one",
                        descriptor.relations.len()
                    ),
                )
                .at_store(*store_id)])
            })?;
            state.ingest.entry(relation).or_default().push(SendTarget {
                edge: *edge,
                store: *store_id,
                routing_key: descriptor.partition,
            });
        }

        let mut ingest: Vec<IngestRoute> = state
            .ingest
            .into_iter()
            .map(|(relation, mut targets)| {
                targets.sort_by_key(|t| (t.store.0, t.edge.0));
                targets.dedup();
                IngestRoute { relation, targets }
            })
            .collect();
        ingest.sort_by_key(|i| i.relation.0);

        let mut queries: Vec<QueryId> = self.queries.iter().map(|q| q.id).collect();
        queries.sort();
        queries.dedup();

        let plan = TopologyPlan {
            stores: state.stores,
            rules: state.rules,
            ingest,
            queries,
            estimated_cost: selection.shared_cost,
        };

        // Debug-build self-check of the structural invariants the runtime
        // relies on. The full semantic analysis (schema checks, partition
        // safety, completeness) runs in `clash-analyzer` at install time.
        #[cfg(debug_assertions)]
        {
            for (i, def) in plan.stores.iter().enumerate() {
                debug_assert_eq!(def.id.index(), i, "store table must be dense");
            }
            for route in &plan.ingest {
                for t in &route.targets {
                    debug_assert!(
                        plan.store(t.store).is_some(),
                        "ingest target {}/{} dangles",
                        t.store,
                        t.edge
                    );
                    debug_assert!(
                        plan.rules.contains_key(&(t.store, t.edge)),
                        "ingest target {}/{} has no rule set",
                        t.store,
                        t.edge
                    );
                }
            }
        }

        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{enumerate_candidates, PlanSpaceConfig};
    use crate::ilp_builder::{build_ilp, extract_selection};
    use clash_catalog::{Catalog, Statistics};
    use clash_common::Window;
    use clash_ilp::{solve, SolverConfig};
    use clash_query::parse_query;

    fn setup() -> (Catalog, Statistics, Vec<JoinQuery>) {
        let mut catalog = Catalog::new();
        catalog
            .register("R", ["a"], Window::unbounded(), 1)
            .unwrap();
        catalog
            .register("S", ["a", "b"], Window::unbounded(), 2)
            .unwrap();
        catalog
            .register("T", ["b", "c"], Window::unbounded(), 2)
            .unwrap();
        catalog
            .register("U", ["c"], Window::unbounded(), 1)
            .unwrap();
        let mut stats = Statistics::new();
        for m in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            stats.set_rate(m, 100.0);
        }
        stats.default_selectivity = 0.01;
        let q1 = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
        let q2 = parse_query(&catalog, QueryId::new(1), "q2", "S(b), T(b,c), U(c)").unwrap();
        (catalog, stats, vec![q1, q2])
    }

    fn optimal_selection(
        catalog: &Catalog,
        stats: &Statistics,
        queries: &[JoinQuery],
        config: &PlanSpaceConfig,
    ) -> (Selection, crate::candidate::CandidateSet) {
        let cands = enumerate_candidates(catalog, stats, queries, config);
        let artifacts = build_ilp(&cands);
        let solution = solve(&artifacts.model, SolverConfig::default());
        let selection =
            extract_selection(&cands, &artifacts, solution.assignment.as_ref().unwrap()).unwrap();
        (selection, cands)
    }

    #[test]
    fn shared_plan_has_one_store_per_base_relation_variant() {
        let (catalog, stats, queries) = setup();
        let (selection, _) = optimal_selection(
            &catalog,
            &stats,
            &queries,
            &PlanSpaceConfig {
                materialize_intermediates: false,
                ..PlanSpaceConfig::default()
            },
        );
        let plan = TopologyBuilder::new(&queries, true)
            .build(&selection)
            .unwrap();
        // Every store is a base store; every query relation appears.
        assert!(plan.stores.iter().all(|s| s.descriptor.is_base()));
        for q in &queries {
            for r in q.relations.iter() {
                assert!(
                    plan.stores
                        .iter()
                        .any(|s| s.descriptor.relations == RelationSet::singleton(r)),
                    "missing store for {r}"
                );
            }
        }
        // Ingestion exists for every input relation and includes a Store rule target.
        for q in &queries {
            for r in q.relations.iter() {
                let targets = plan.ingest_for(r);
                assert!(!targets.is_empty());
                let has_store_rule = targets.iter().any(|t| {
                    plan.rules
                        .get(&(t.store, t.edge))
                        .map(|rules| rules.iter().any(|r| matches!(r, Rule::Store)))
                        .unwrap_or(false)
                });
                assert!(has_store_rule, "relation {r} is never stored");
            }
        }
        assert!(plan.estimated_cost > 0.0);
        assert!(plan.num_rules() > 0);
        assert_eq!(plan.queries.len(), 2);
    }

    #[test]
    fn independent_plan_duplicates_stores_per_query() {
        let (catalog, stats, queries) = setup();
        let config = PlanSpaceConfig {
            materialize_intermediates: false,
            ..PlanSpaceConfig::default()
        };
        let (selection, _) = optimal_selection(&catalog, &stats, &queries, &config);
        let shared = TopologyBuilder::new(&queries, true)
            .build(&selection)
            .unwrap();
        let independent = TopologyBuilder::new(&queries, false)
            .build(&selection)
            .unwrap();
        // Both queries touch S and T, so the independent plan must hold
        // more stores than the shared plan.
        assert!(independent.num_stores() > shared.num_stores());
        // Every independent store is owned by a query.
        assert!(independent
            .stores
            .iter()
            .all(|s| s.descriptor.owner.is_some()));
        assert!(shared.stores.iter().all(|s| s.descriptor.owner.is_none()));
    }

    #[test]
    fn probe_rules_terminate_in_emit_actions() {
        let (catalog, stats, queries) = setup();
        let config = PlanSpaceConfig {
            materialize_intermediates: false,
            ..PlanSpaceConfig::default()
        };
        let (selection, _) = optimal_selection(&catalog, &stats, &queries, &config);
        let plan = TopologyBuilder::new(&queries, true)
            .build(&selection)
            .unwrap();
        // Each query must have at least one Emit action per starting
        // relation (every probe order ends in one).
        let mut emit_count: HashMap<QueryId, usize> = HashMap::new();
        for rules in plan.rules.values() {
            for rule in rules {
                if let Rule::Probe { outputs, .. } = rule {
                    for o in outputs {
                        if let OutputAction::Emit { query } = o {
                            *emit_count.entry(*query).or_default() += 1;
                        }
                    }
                }
            }
        }
        for q in &queries {
            assert!(
                emit_count.get(&q.id).copied().unwrap_or(0) >= 1,
                "query {} never emits",
                q.name
            );
        }
        // Probe rules carry non-empty predicate lists (equi joins only).
        for rules in plan.rules.values() {
            for rule in rules {
                if let Rule::Probe { predicates, .. } = rule {
                    assert!(!predicates.is_empty());
                }
            }
        }
    }

    #[test]
    fn partitioned_targets_have_routing_keys_when_derivable() {
        let (catalog, stats, queries) = setup();
        let (selection, _) =
            optimal_selection(&catalog, &stats, &queries, &PlanSpaceConfig::default());
        let plan = TopologyBuilder::new(&queries, true)
            .build(&selection)
            .unwrap();
        for route in &plan.ingest {
            for t in &route.targets {
                let store = plan.store(t.store).unwrap();
                if let Some(partition) = store.descriptor.partition {
                    // Ingested base tuples destined for their own store must
                    // route by the partition attribute itself.
                    if store.descriptor.relations == RelationSet::singleton(route.relation) {
                        assert_eq!(t.routing_key, Some(partition));
                    }
                }
            }
        }
    }

    #[test]
    fn mir_stores_are_fed_by_maintenance_orders() {
        let (catalog, stats, queries) = setup();
        let (selection, _) =
            optimal_selection(&catalog, &stats, &queries, &PlanSpaceConfig::default());
        let plan = TopologyBuilder::new(&queries, true)
            .build(&selection)
            .unwrap();
        let mir_stores: Vec<&StoreDef> = plan
            .stores
            .iter()
            .filter(|s| !s.descriptor.is_base())
            .collect();
        // If the optimizer decided to materialize an intermediate result,
        // there must be a Forward action into its store edge somewhere.
        for store in mir_stores {
            let store_edges: Vec<EdgeId> = plan
                .rules
                .iter()
                .filter(|((sid, _), rules)| {
                    *sid == store.id && rules.iter().any(|r| matches!(r, Rule::Store))
                })
                .map(|((_, e), _)| *e)
                .collect();
            assert!(!store_edges.is_empty());
            let fed = plan.rules.values().flatten().any(|r| {
                if let Rule::Probe { outputs, .. } = r {
                    outputs.iter().any(|o| {
                        matches!(o, OutputAction::Forward(t) if t.store == store.id && store_edges.contains(&t.edge))
                    })
                } else {
                    false
                }
            });
            assert!(fed, "MIR store {} is never fed", store.descriptor);
        }
    }
}
