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

use crate::candidate::{DecoratedProbeOrder, StepKey};
use crate::ilp_builder::Selection;
use clash_common::{
    AttrRef, ClashError, Diagnostic, EdgeId, FxHashMap, QueryId, RelationId, RelationSet, Result,
    StoreId,
};
use clash_query::{EquiPredicate, JoinQuery, StoreDescriptor};
use std::collections::{BTreeMap, HashMap};

/// A store instantiated by the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDef {
    /// Dense store identifier within the plan.
    pub id: StoreId,
    /// What the store holds and how it is partitioned.
    pub descriptor: StoreDescriptor,
}

/// Where to send a tuple (or join result) next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRoute {
    /// The input relation.
    pub relation: RelationId,
    /// All targets the arriving tuple is sent to: its own store copies
    /// (store rules) and the roots of its probe trees (probe rules).
    pub targets: Vec<SendTarget>,
}

/// A deployable topology: stores, rule sets and ingest routing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyPlan {
    /// All stores.
    pub stores: Vec<StoreDef>,
    /// Rule sets, keyed by `(store, incoming edge)`. Every set holds
    /// exactly one rule (the analyzer's P015); read one through
    /// [`Self::rule`] or [`Self::each_rule`]. Fx-hashed: the runtime looks
    /// a rule up per delivery, on the sending and on the receiving side,
    /// and the keys are trusted internal ids.
    pub rules: FxHashMap<(StoreId, EdgeId), Vec<Rule>>,
    /// Ingest routing per input relation.
    pub ingest: Vec<IngestRoute>,
    /// Queries answered by this plan.
    pub queries: Vec<QueryId>,
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

    /// The rule applied to tuples arriving at `store` along `edge`. A set
    /// holding any number of rules but one reads as none: no plan the
    /// analyzer passes holds such a set (P015).
    pub fn rule(&self, store: StoreId, edge: EdgeId) -> Option<&Rule> {
        match self.rules.get(&(store, edge))?.as_slice() {
            [rule] => Some(rule),
            _ => None,
        }
    }

    /// Every `(store, edge)` with the rule [`Self::rule`] reads there.
    pub fn each_rule(&self) -> impl Iterator<Item = ((StoreId, EdgeId), &Rule)> {
        self.rules
            .keys()
            .filter_map(|&(store, edge)| Some(((store, edge), self.rule(store, edge)?)))
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
    store_index: HashMap<StoreDescriptor, StoreId>,
    /// One rule per `(store, edge)`: every rule gets a fresh edge.
    rules: FxHashMap<(StoreId, EdgeId), Rule>,
    ingest: BTreeMap<RelationId, Vec<SendTarget>>,
    next_edge: u32,
}

impl PlanState {
    fn new() -> Self {
        PlanState {
            stores: Vec::new(),
            store_index: HashMap::new(),
            rules: FxHashMap::default(),
            ingest: BTreeMap::new(),
            next_edge: 0,
        }
    }

    fn fresh_edge(&mut self) -> EdgeId {
        let e = EdgeId::new(self.next_edge);
        self.next_edge += 1;
        e
    }

    fn intern_store(&mut self, descriptor: StoreDescriptor) -> StoreId {
        if let Some(id) = self.store_index.get(&descriptor) {
            return *id;
        }
        let id = StoreId::from(self.stores.len());
        self.stores.push(StoreDef { id, descriptor });
        self.store_index.insert(descriptor, id);
        id
    }

    fn add_rule(&mut self, store: StoreId, edge: EdgeId, rule: Rule) {
        self.rules.insert((store, edge), rule);
    }

    /// The outputs of the `Probe` rule at `node`.
    fn probe_outputs(&mut self, node: (StoreId, EdgeId)) -> Option<&mut Vec<OutputAction>> {
        match self.rules.get_mut(&node)? {
            Rule::Probe { outputs, .. } => Some(outputs),
            Rule::Store => None,
        }
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
        trie: &mut HashMap<(StepKey, StoreDescriptor), (StoreId, EdgeId)>,
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
        let mut previous: Option<(StoreId, EdgeId)> = None;

        for (j, store_desc) in order.stores.iter().enumerate() {
            let mut descriptor = *store_desc;
            if let Some(q) = owner {
                descriptor = descriptor.owned_by(q);
            }
            // The descriptor carries the owner, so this is the node's
            // identity across the orders of every query.
            let trie_key = (order.step_keys[j].clone(), descriptor);
            let (store_id, edge) = match trie.get(&trie_key) {
                Some(node) => *node,
                None => {
                    let store_id = state.intern_store(descriptor);
                    let edge = state.fresh_edge();
                    trie.insert(trie_key, (store_id, edge));
                    let predicates = query.predicates_between(&head, &store_desc.relations);
                    state.add_rule(
                        store_id,
                        edge,
                        Rule::Probe {
                            predicates,
                            outputs: Vec::new(),
                        },
                    );
                    (store_id, edge)
                }
            };

            let target = SendTarget {
                edge,
                store: store_id,
                routing_key: Self::routing_key(query, &head, store_desc),
            };
            if j == 0 {
                first_target = Some(target);
            } else if let Some(outputs) = previous.and_then(|node| state.probe_outputs(node)) {
                // Append a Forward output to the previous node's probe rule
                // (deduplicated).
                if !outputs.contains(&OutputAction::Forward(target)) {
                    outputs.push(OutputAction::Forward(target));
                }
            }

            head = head.union(&store_desc.relations);
            previous = Some((store_id, edge));
        }

        // Terminal actions at the last node (emit results / feed MIR store).
        if let Some(outputs) = previous.and_then(|node| state.probe_outputs(node)) {
            for action in &terminal {
                if !outputs.contains(action) {
                    outputs.push(*action);
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
        let mut trie = HashMap::new();

        // 1. Materialize base stores referenced by any chosen probe order,
        //    plus the stores for the starting relations themselves (they
        //    are probed by the probe orders of the other relations, which
        //    guarantees they appear as steps; interning here is idempotent).
        //    MIR stores referenced as steps are interned too, with a
        //    dedicated "store edge" that sub-query orders feed. Ordered by
        //    descriptor, so the outputs and routes built from it are the
        //    same on every run over the same input.
        let mut store_edges: BTreeMap<StoreDescriptor, (StoreId, EdgeId)> = BTreeMap::new();
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
                let store_id = state.intern_store(descriptor);
                store_edges.entry(descriptor).or_insert_with(|| {
                    let edge = state.fresh_edge();
                    state.add_rule(store_id, edge, Rule::Store);
                    (store_id, edge)
                });
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
            let terminal: Vec<OutputAction> = store_edges
                .iter()
                .filter(|(descriptor, _)| !descriptor.is_base() && descriptor.relations == covered)
                .map(|(descriptor, (store_id, edge))| {
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
        for (descriptor, (store_id, edge)) in store_edges.iter().filter(|(d, _)| d.is_base()) {
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

        let ingest: Vec<IngestRoute> = state
            .ingest
            .into_iter()
            .map(|(relation, mut targets)| {
                targets.sort_by_key(|t| (t.store.0, t.edge.0));
                targets.dedup();
                IngestRoute { relation, targets }
            })
            .collect();

        let mut queries: Vec<QueryId> = self.queries.iter().map(|q| q.id).collect();
        queries.sort();
        queries.dedup();

        Ok(TopologyPlan {
            stores: state.stores,
            rules: state
                .rules
                .into_iter()
                .map(|(node, rule)| (node, vec![rule]))
                .collect(),
            ingest,
            queries,
        })
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
                let has_store_rule = targets
                    .iter()
                    .any(|t| matches!(plan.rule(t.store, t.edge), Some(Rule::Store)));
                assert!(has_store_rule, "relation {r} is never stored");
            }
        }
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
        for (_, rule) in plan.each_rule() {
            if let Rule::Probe { outputs, .. } = rule {
                for o in outputs {
                    if let OutputAction::Emit { query } = o {
                        *emit_count.entry(*query).or_default() += 1;
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
        for (_, rule) in plan.each_rule() {
            if let Rule::Probe { predicates, .. } = rule {
                assert!(!predicates.is_empty());
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
                .each_rule()
                .filter(|((sid, _), rule)| *sid == store.id && matches!(rule, Rule::Store))
                .map(|((_, e), _)| e)
                .collect();
            assert!(!store_edges.is_empty());
            let fed = plan.each_rule().any(|(_, r)| {
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
