//! # clash-analyzer
//!
//! Static analysis over [`TopologyPlan`]s. CLASH's exactness argument
//! (Section V of the paper) assumes the deployed topology is *well
//! formed*: every send target lands on a registered rule set of exactly
//! one rule, probe predicates only reference attributes the arriving
//! tuple and the stored relations actually carry, every query's probe
//! chains terminate in an `Emit` covering the full relation set, the
//! Forward graph is acyclic, and partition routing hash-agrees with the
//! target store's partition attribute. A plan violating any of these silently drops
//! tuples, emits wrong results or forwards forever — so both engines
//! call [`gate`] in `install_plan` and reject error-level plans with
//! [`ClashError::InvalidPlan`] before quiescing anything.
//!
//! Diagnostics carry stable codes (`P001`, ...); the reference table
//! lives in DESIGN.md. [`verify_plan`] performs every check derivable
//! from the plan and the catalog alone (what the engines have at install
//! time); [`verify_plan_with_queries`] additionally checks the plan
//! against the query definitions (emit-head completeness, every query
//! relation stored) and is what the optimizer tests, the mutation suite
//! and the CI plan smoke run.

use clash_catalog::Catalog;
use clash_common::{
    AttrRef, ClashError, Diagnostic, EdgeId, FxHashMap, FxHashSet, QueryId, RelationSet, Result,
    StoreId,
};
use clash_optimizer::{OutputAction, Rule, SendTarget, TopologyPlan};
use clash_query::{EquiPredicate, JoinQuery};

/// A rule-set address: the unit of the Forward graph.
type Node = (StoreId, EdgeId);

/// Safety cap on dataflow deliveries: heads only grow along Forward
/// edges, so the fixpoint is finite, but an adversarial cyclic plan
/// could still make it large — and a cyclic plan is rejected by the
/// dedicated P010 check regardless of whether the dataflow saw every
/// head combination.
const MAX_DELIVERIES: usize = 100_000;

/// Runs every check derivable from the plan and the catalog alone.
/// This is the install-time gate's view: the engines hold no query
/// definitions.
pub fn verify_plan(catalog: &Catalog, plan: &TopologyPlan) -> Vec<Diagnostic> {
    Analyzer::new(catalog, None, plan).run()
}

/// Runs the full analysis, including the checks that need the query
/// definitions (emit heads equal the query relation sets, every query
/// relation is stored).
pub fn verify_plan_with_queries(
    catalog: &Catalog,
    queries: &[JoinQuery],
    plan: &TopologyPlan,
) -> Vec<Diagnostic> {
    Analyzer::new(catalog, Some(queries), plan).run()
}

/// The install-time gate: `Ok(())` when the plan carries no error-level
/// findings, otherwise `Err(ClashError::InvalidPlan)` with the errors.
pub fn gate(catalog: &Catalog, plan: &TopologyPlan) -> Result<()> {
    let errors: Vec<Diagnostic> = verify_plan(catalog, plan)
        .into_iter()
        .filter(Diagnostic::is_error)
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(ClashError::InvalidPlan(errors))
    }
}

/// Union-find over attribute references: two attributes are join-equal
/// when some chain of equi-predicates connects them, in which case their
/// values (and hence their partition hashes) agree on every join result.
struct JoinEquivalence {
    index: FxHashMap<AttrRef, usize>,
    parent: Vec<usize>,
}

impl JoinEquivalence {
    fn new() -> Self {
        JoinEquivalence {
            index: FxHashMap::default(),
            parent: Vec::new(),
        }
    }

    fn slot(&mut self, a: AttrRef) -> usize {
        if let Some(i) = self.index.get(&a) {
            return *i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.index.insert(a, i);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: AttrRef, b: AttrRef) {
        let (ra, rb) = (self.slot(a), self.slot(b));
        let (ra, rb) = (self.find(ra), self.find(rb));
        self.parent[ra] = rb;
    }

    fn equal(&mut self, a: AttrRef, b: AttrRef) -> bool {
        if a == b {
            return true;
        }
        let (ra, rb) = (self.slot(a), self.slot(b));
        self.find(ra) == self.find(rb)
    }
}

struct Analyzer<'a> {
    catalog: &'a Catalog,
    queries: Option<&'a [JoinQuery]>,
    plan: &'a TopologyPlan,
    diags: Vec<Diagnostic>,
    equiv: JoinEquivalence,
}

impl<'a> Analyzer<'a> {
    fn new(catalog: &'a Catalog, queries: Option<&'a [JoinQuery]>, plan: &'a TopologyPlan) -> Self {
        // Join equality is derived from every predicate the plan itself
        // carries (each probe rule holds the predicates of its step);
        // query definitions, when given, contribute theirs as well.
        let mut equiv = JoinEquivalence::new();
        for rule in plan.rules.values().flatten() {
            if let Rule::Probe { predicates, .. } = rule {
                for p in predicates {
                    equiv.union(p.left, p.right);
                }
            }
        }
        if let Some(queries) = queries {
            for q in queries {
                for p in &q.predicates {
                    equiv.union(p.left, p.right);
                }
            }
        }
        Analyzer {
            catalog,
            queries,
            plan,
            diags: Vec::new(),
            equiv,
        }
    }

    fn run(mut self) -> Vec<Diagnostic> {
        self.check_store_table();
        self.check_targets_resolve();
        self.check_one_rule_per_set();
        let flow = self.dataflow();
        self.check_orphans();
        self.check_emits(&flow);
        self.check_mir_fed(&flow);
        self.check_query_relations_stored(&flow);
        self.check_forward_acyclic();
        self.diags.sort_by(|a, b| {
            (
                a.code,
                a.store.map(|s| s.0),
                a.edge.map(|e| e.0),
                &a.message,
            )
                .cmp(&(
                    b.code,
                    b.store.map(|s| s.0),
                    b.edge.map(|e| e.0),
                    &b.message,
                ))
        });
        self.diags.dedup();
        self.diags
    }

    fn query(&self, id: QueryId) -> Option<&'a JoinQuery> {
        self.queries?.iter().find(|q| q.id == id)
    }

    fn attr_known(&self, a: AttrRef) -> bool {
        self.catalog
            .schema(a.relation)
            .map(|s| a.attr.index() < s.arity())
            .unwrap_or(false)
    }

    /// All send targets of the plan with no reachability applied: ingest
    /// routes plus every Forward output of every rule set.
    fn all_targets(&self) -> impl Iterator<Item = SendTarget> + 'a {
        let forwards = self.plan.rules.values().flatten().flat_map(|rule| {
            let outputs: &[OutputAction] = match rule {
                Rule::Probe { outputs, .. } => outputs,
                Rule::Store => &[],
            };
            outputs.iter().filter_map(|o| match o {
                OutputAction::Forward(t) => Some(*t),
                OutputAction::Emit { .. } => None,
            })
        });
        self.plan
            .ingest
            .iter()
            .flat_map(|r| r.targets.iter().copied())
            .chain(forwards)
    }

    /// P001 (store table density) and P012 (relations known to the
    /// catalog): the descriptor table must be addressable by `StoreId`
    /// index and every member relation resolvable to a schema.
    fn check_store_table(&mut self) {
        for (i, def) in self.plan.stores.iter().enumerate() {
            if def.id.index() != i {
                self.diags.push(
                    Diagnostic::error("P001", format!("store table slot {i} holds {}", def.id))
                        .at_store(def.id),
                );
            }
            for r in def.descriptor.relations.iter() {
                if self.catalog.schema(r).is_err() {
                    self.diags.push(
                        Diagnostic::error(
                            "P012",
                            format!("store covers relation {r}, which the catalog does not know"),
                        )
                        .at_store(def.id),
                    );
                }
            }
        }
        for route in &self.plan.ingest {
            if self.catalog.schema(route.relation).is_err() {
                self.diags.push(Diagnostic::error(
                    "P012",
                    format!(
                        "ingest route for relation {}, which the catalog does not know",
                        route.relation
                    ),
                ));
            }
        }
    }

    /// P001/P002: every send target must land on an existing store and a
    /// registered, non-empty rule set.
    fn check_targets_resolve(&mut self) {
        let targets: Vec<SendTarget> = self.all_targets().collect();
        for t in targets {
            if self.plan.store(t.store).is_none() {
                self.diags.push(
                    Diagnostic::error(
                        "P001",
                        format!("send target references unknown store {}", t.store),
                    )
                    .at_store(t.store)
                    .at_edge(t.edge),
                );
                continue;
            }
            let registered = self
                .plan
                .rules
                .get(&(t.store, t.edge))
                .is_some_and(|r| !r.is_empty());
            if !registered {
                self.diags.push(
                    Diagnostic::error(
                        "P002",
                        format!("no rule set registered at ({}, {})", t.store, t.edge),
                    )
                    .at_store(t.store)
                    .at_edge(t.edge),
                );
            }
        }
    }

    /// P015: a rule set holds exactly one rule. The runtime reads that one
    /// rule ([`TopologyPlan::rule`]); a second could never add a result —
    /// a set that stores covers exactly its store's relations (P013), so
    /// probing the same store with it joins nothing; a second `Store`
    /// would insert twice; and what two `Probe`s would do, the builder
    /// writes as one rule's outputs.
    fn check_one_rule_per_set(&mut self) {
        for (&(store, edge), rules) in &self.plan.rules {
            if rules.len() > 1 {
                self.diags.push(
                    Diagnostic::error(
                        "P015",
                        format!(
                            "rule set at ({store}, {edge}) holds {} rules instead of one",
                            rules.len()
                        ),
                    )
                    .at_store(store)
                    .at_edge(edge),
                );
            }
        }
    }

    /// P003: rule sets never targeted by any ingest route or Forward are
    /// dead weight — tuples can never arrive on their edge.
    fn check_orphans(&mut self) {
        let targeted: FxHashSet<Node> = self.all_targets().map(|t| (t.store, t.edge)).collect();
        for key in self.plan.rules.keys() {
            if !targeted.contains(key) {
                self.diags.push(
                    Diagnostic::warning(
                        "P003",
                        format!(
                            "rule set at ({}, {}) is never targeted by any ingest route or \
                             Forward",
                            key.0, key.1
                        ),
                    )
                    .at_store(key.0)
                    .at_edge(key.1),
                );
            }
        }
    }

    /// Walks the plan's dataflow from the ingest routes, tracking the
    /// relation-set head of the tuples arriving at each rule set. Emits
    /// the schema checks (P004, P005, P013), partition safety (P011) and
    /// the Emit/fed-store facts the completeness checks consume.
    fn dataflow(&mut self) -> FlowFacts {
        let mut facts = FlowFacts::default();
        let mut visited: FxHashSet<(u32, u32, u128)> = FxHashSet::default();
        let mut worklist: Vec<(SendTarget, RelationSet)> = Vec::new();
        for route in &self.plan.ingest {
            let head = RelationSet::singleton(route.relation);
            for t in &route.targets {
                self.check_delivery(*t, &head);
                worklist.push((*t, head));
            }
        }
        let mut deliveries = 0usize;
        while let Some((target, head)) = worklist.pop() {
            deliveries += 1;
            if deliveries > MAX_DELIVERIES {
                break;
            }
            if !visited.insert((target.store.0, target.edge.0, head.bits())) {
                continue;
            }
            let Some(def) = self.plan.store(target.store) else {
                continue; // P001 already reported
            };
            let stored = def.descriptor.relations;
            let Some(rules) = self.plan.rules.get(&(target.store, target.edge)) else {
                continue; // P002 already reported
            };
            for rule in rules {
                match rule {
                    Rule::Store => {
                        facts.fed.insert(target.store);
                        facts.stored.insert(stored.bits());
                        if head != stored {
                            self.diags.push(
                                Diagnostic::error(
                                    "P013",
                                    format!(
                                        "Store rule receives tuples with head {head} but the \
                                         store covers {stored}"
                                    ),
                                )
                                .at_store(target.store)
                                .at_edge(target.edge),
                            );
                        }
                    }
                    Rule::Probe {
                        predicates,
                        outputs,
                    } => {
                        self.check_probe_predicates(target, &head, stored, predicates);
                        let out_head = head.union(&stored);
                        for output in outputs {
                            match output {
                                OutputAction::Emit { query } => {
                                    facts.emits.push((*query, out_head, target.store));
                                }
                                OutputAction::Forward(next) => {
                                    self.check_delivery(*next, &out_head);
                                    worklist.push((*next, out_head));
                                }
                            }
                        }
                    }
                }
            }
        }
        facts
    }

    /// Checks one send against its target: the routing key must be an
    /// attribute the sent tuple carries (P005) and, when the target store
    /// is partitioned across more than one worker, the chosen key must be
    /// join-equal to the partition attribute or the send must be an
    /// explicit broadcast (P011) — otherwise matching tuples hash to
    /// different shards and results are silently lost.
    fn check_delivery(&mut self, target: SendTarget, head: &RelationSet) {
        let Some(def) = self.plan.store(target.store) else {
            return; // P001 already reported
        };
        if let Some(key) = target.routing_key {
            if !head.contains(key.relation) || !self.attr_known(key) {
                self.diags.push(
                    Diagnostic::error(
                        "P005",
                        format!("routing key {key} is not carried by the sent tuple (head {head})"),
                    )
                    .at_store(target.store)
                    .at_edge(target.edge),
                );
                return;
            }
        }
        let parallelism = def.descriptor.parallelism;
        if let (Some(partition), Some(key)) = (def.descriptor.partition, target.routing_key) {
            if parallelism > 1 && !self.equiv.equal(key, partition) {
                self.diags.push(
                    Diagnostic::error(
                        "P011",
                        format!(
                            "routing key {key} is not join-equal to the partition attribute \
                             {partition} of {} ({} partitions); matching tuples would hash to \
                             different shards",
                            target.store, parallelism
                        ),
                    )
                    .at_store(target.store)
                    .at_edge(target.edge),
                );
            }
        }
    }

    /// P004: every probe predicate must connect the arriving tuple's head
    /// to the stored relations, through attributes the catalog knows.
    fn check_probe_predicates(
        &mut self,
        node: SendTarget,
        head: &RelationSet,
        stored: RelationSet,
        predicates: &[EquiPredicate],
    ) {
        for p in predicates {
            for side in [p.left, p.right] {
                if !self.attr_known(side) {
                    self.diags.push(
                        Diagnostic::error(
                            "P004",
                            format!("probe predicate {p} references unknown attribute {side}"),
                        )
                        .at_store(node.store)
                        .at_edge(node.edge),
                    );
                    return;
                }
            }
            let connects = (head.contains(p.left.relation) && stored.contains(p.right.relation))
                || (head.contains(p.right.relation) && stored.contains(p.left.relation));
            if !connects {
                self.diags.push(
                    Diagnostic::error(
                        "P004",
                        format!(
                            "probe predicate {p} does not connect the arriving tuple \
                             (head {head}) to the stored relations ({stored})"
                        ),
                    )
                    .at_store(node.store)
                    .at_edge(node.edge),
                );
            }
        }
    }

    /// P006/P007/P014: every declared query must reach at least one Emit,
    /// and (with query definitions) every Emit's accumulated head must
    /// equal the query's relation set.
    fn check_emits(&mut self, flow: &FlowFacts) {
        for (query, head, store) in &flow.emits {
            if !self.plan.queries.contains(query) {
                self.diags.push(
                    Diagnostic::error(
                        "P014",
                        format!("Emit for {query}, which the plan does not declare"),
                    )
                    .at_store(*store)
                    .for_query(*query),
                );
            }
            if let Some(def) = self.query(*query) {
                if *head != def.relations {
                    self.diags.push(
                        Diagnostic::error(
                            "P007",
                            format!(
                                "Emit for {query} fires on head {head}, but the query joins {}",
                                def.relations
                            ),
                        )
                        .at_store(*store)
                        .for_query(*query),
                    );
                }
            }
        }
        for query in &self.plan.queries {
            // Single-relation queries have no probe chain: every arriving
            // tuple is a result on its own, so no Emit rule exists.
            if let Some(def) = self.query(*query) {
                if def.relations.len() < 2 {
                    continue;
                }
            }
            if !flow.emits.iter().any(|(q, _, _)| q == query) {
                self.diags.push(
                    Diagnostic::error(
                        "P006",
                        format!("{query} never reaches an Emit: the query can produce no results"),
                    )
                    .for_query(*query),
                );
            }
        }
    }

    /// P008: a materialized-intermediate store that no reachable Forward
    /// feeds stays empty forever, so every probe against it finds nothing.
    fn check_mir_fed(&mut self, flow: &FlowFacts) {
        for def in &self.plan.stores {
            if def.descriptor.is_base() {
                continue;
            }
            if !flow.fed.contains(&def.id) {
                self.diags.push(
                    Diagnostic::error(
                        "P008",
                        format!(
                            "MIR store {} ({}) is never fed by a reachable Forward",
                            def.id, def.descriptor
                        ),
                    )
                    .at_store(def.id),
                );
            }
        }
    }

    /// P009 (with query definitions): every relation of every query must
    /// be stored in a base store somewhere, or tuples arriving before
    /// their join partners can never be found again.
    fn check_query_relations_stored(&mut self, flow: &FlowFacts) {
        let Some(queries) = self.queries else {
            return;
        };
        for query in queries {
            if !self.plan.queries.contains(&query.id) || query.relations.len() < 2 {
                continue;
            }
            for r in query.relations.iter() {
                let stored = flow.stored.contains(&RelationSet::singleton(r).bits());
                if !stored {
                    self.diags.push(
                        Diagnostic::error(
                            "P009",
                            format!("relation {r} of {} is never stored", query.name),
                        )
                        .for_query(query.id),
                    );
                }
            }
        }
    }

    /// P010: the Forward graph over rule-set nodes must be acyclic —
    /// a cycle forwards tuples forever (the probe chains of Section V-B
    /// strictly grow their head at every step, so a well-formed plan
    /// cannot contain one).
    fn check_forward_acyclic(&mut self) {
        let mut adjacency: FxHashMap<Node, Vec<Node>> = FxHashMap::default();
        for (key, rules) in &self.plan.rules {
            let next: Vec<Node> = rules
                .iter()
                .flat_map(|rule| match rule {
                    Rule::Probe { outputs, .. } => outputs.as_slice(),
                    Rule::Store => &[],
                })
                .filter_map(|o| match o {
                    OutputAction::Forward(t) => Some((t.store, t.edge)),
                    OutputAction::Emit { .. } => None,
                })
                .collect();
            adjacency.insert(*key, next);
        }
        // Iterative three-color DFS; gray-edge targets close a cycle.
        let mut color: FxHashMap<Node, u8> = FxHashMap::default(); // 1 gray, 2 black
        let mut roots: Vec<Node> = adjacency.keys().copied().collect();
        roots.sort();
        for root in roots {
            if color.contains_key(&root) {
                continue;
            }
            let mut stack: Vec<(Node, usize)> = vec![(root, 0)];
            color.insert(root, 1);
            while let Some((node, idx)) = stack.pop() {
                let next = adjacency.get(&node).map(Vec::as_slice).unwrap_or(&[]);
                if idx < next.len() {
                    stack.push((node, idx + 1));
                    let child = next[idx];
                    match color.get(&child) {
                        Some(1) => {
                            self.diags.push(
                                Diagnostic::error(
                                    "P010",
                                    format!(
                                        "Forward cycle: ({}, {}) forwards back to ({}, {})",
                                        node.0, node.1, child.0, child.1
                                    ),
                                )
                                .at_store(child.0)
                                .at_edge(child.1),
                            );
                        }
                        Some(_) => {}
                        None => {
                            if adjacency.contains_key(&child) {
                                color.insert(child, 1);
                                stack.push((child, 0));
                            }
                        }
                    }
                } else {
                    color.insert(node, 2);
                }
            }
        }
    }
}

/// Facts gathered by the dataflow walk, consumed by the completeness
/// checks.
#[derive(Default)]
struct FlowFacts {
    /// `(query, accumulated head, emitting store)` per reachable Emit.
    emits: Vec<(QueryId, RelationSet, StoreId)>,
    /// Stores with a reachable Store rule (fed through some edge).
    fed: FxHashSet<StoreId>,
    /// Relation sets (as bitsets) with a reachable Store delivery.
    stored: FxHashSet<u128>,
}

/// Convenience for tests and tooling: the subset of findings that block
/// installation.
pub fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.is_error()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::{AttrId, Severity, Window};
    use clash_optimizer::{IngestRoute, StoreDef};
    use clash_query::StoreDescriptor;

    /// Hand-built minimal plan: R(a) ⋈ S(a,b) with two base stores, each
    /// relation stored in its own store and probing the other's.
    fn mini() -> (Catalog, TopologyPlan) {
        let mut catalog = Catalog::new();
        catalog.register("R", ["a"], Window::secs(60), 1).unwrap();
        catalog
            .register("S", ["a", "b"], Window::secs(60), 1)
            .unwrap();
        let r = catalog.relation_id("R").unwrap();
        let s = catalog.relation_id("S").unwrap();
        let ra = catalog.attr("R", "a").unwrap();
        let sa = catalog.attr("S", "a").unwrap();
        let q = QueryId::new(0);
        let st_r = StoreId::new(0);
        let st_s = StoreId::new(1);
        let pred = EquiPredicate::new(ra, sa);
        let mut plan = TopologyPlan {
            stores: vec![
                StoreDef {
                    id: st_r,
                    descriptor: StoreDescriptor::unpartitioned(RelationSet::singleton(r)),
                },
                StoreDef {
                    id: st_s,
                    descriptor: StoreDescriptor::unpartitioned(RelationSet::singleton(s)),
                },
            ],
            rules: Default::default(),
            ingest: Vec::new(),
            queries: vec![q],
        };
        plan.rules.insert((st_r, EdgeId::new(0)), vec![Rule::Store]);
        plan.rules.insert((st_s, EdgeId::new(1)), vec![Rule::Store]);
        plan.rules.insert(
            (st_s, EdgeId::new(2)),
            vec![Rule::Probe {
                predicates: vec![pred],
                outputs: vec![OutputAction::Emit { query: q }],
            }],
        );
        plan.rules.insert(
            (st_r, EdgeId::new(3)),
            vec![Rule::Probe {
                predicates: vec![pred],
                outputs: vec![OutputAction::Emit { query: q }],
            }],
        );
        plan.ingest = vec![
            IngestRoute {
                relation: r,
                targets: vec![
                    SendTarget {
                        edge: EdgeId::new(0),
                        store: st_r,
                        routing_key: None,
                    },
                    SendTarget {
                        edge: EdgeId::new(2),
                        store: st_s,
                        routing_key: None,
                    },
                ],
            },
            IngestRoute {
                relation: s,
                targets: vec![
                    SendTarget {
                        edge: EdgeId::new(1),
                        store: st_s,
                        routing_key: None,
                    },
                    SendTarget {
                        edge: EdgeId::new(3),
                        store: st_r,
                        routing_key: None,
                    },
                ],
            },
        ];
        (catalog, plan)
    }

    #[test]
    fn minimal_plan_is_clean() {
        let (catalog, plan) = mini();
        let diags = verify_plan(&catalog, &plan);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(gate(&catalog, &plan).is_ok());
    }

    #[test]
    fn dangling_store_is_p001() {
        let (catalog, mut plan) = mini();
        plan.ingest[0].targets[0].store = StoreId::new(99);
        let diags = verify_plan(&catalog, &plan);
        assert!(diags.iter().any(|d| d.code == "P001"), "{diags:?}");
        assert!(matches!(
            gate(&catalog, &plan),
            Err(ClashError::InvalidPlan(_))
        ));
    }

    #[test]
    fn missing_rule_set_is_p002() {
        let (catalog, mut plan) = mini();
        plan.ingest[0].targets[0].edge = EdgeId::new(42);
        let diags = verify_plan(&catalog, &plan);
        assert!(diags.iter().any(|d| d.code == "P002"), "{diags:?}");
    }

    #[test]
    fn orphan_rule_set_is_p003_warning_only() {
        let (catalog, mut plan) = mini();
        plan.rules
            .insert((StoreId::new(0), EdgeId::new(9)), vec![Rule::Store]);
        let diags = verify_plan(&catalog, &plan);
        assert!(diags
            .iter()
            .any(|d| d.code == "P003" && d.severity == Severity::Warning));
        assert!(gate(&catalog, &plan).is_ok(), "warnings must not gate");
    }

    #[test]
    fn unknown_predicate_attribute_is_p004() {
        let (catalog, mut plan) = mini();
        for rules in plan.rules.values_mut() {
            for rule in rules {
                if let Rule::Probe { predicates, .. } = rule {
                    predicates[0].left.attr = AttrId::new(7);
                }
            }
        }
        let diags = verify_plan(&catalog, &plan);
        assert!(diags.iter().any(|d| d.code == "P004"), "{diags:?}");
    }

    #[test]
    fn routing_key_not_carried_is_p005() {
        let (catalog, mut plan) = mini();
        // Route R's own-store copy by an S attribute R does not carry.
        let sa = catalog.attr("S", "a").unwrap();
        plan.ingest[0].targets[0].routing_key = Some(sa);
        let diags = verify_plan(&catalog, &plan);
        assert!(diags.iter().any(|d| d.code == "P005"), "{diags:?}");
    }

    #[test]
    fn undeclared_emit_is_p014_and_missing_emit_is_p006() {
        let (catalog, mut plan) = mini();
        plan.queries = vec![QueryId::new(5)];
        let diags = verify_plan(&catalog, &plan);
        assert!(diags.iter().any(|d| d.code == "P006"), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "P014"), "{diags:?}");
    }

    #[test]
    fn forward_cycle_is_p010() {
        let (catalog, mut plan) = mini();
        let back = SendTarget {
            edge: EdgeId::new(2),
            store: StoreId::new(1),
            routing_key: None,
        };
        let fwd = SendTarget {
            edge: EdgeId::new(3),
            store: StoreId::new(0),
            routing_key: None,
        };
        for (key, rules) in plan.rules.iter_mut() {
            for rule in rules {
                if let Rule::Probe { outputs, .. } = rule {
                    if key.1 == EdgeId::new(2) {
                        outputs.push(OutputAction::Forward(fwd));
                    } else if key.1 == EdgeId::new(3) {
                        outputs.push(OutputAction::Forward(back));
                    }
                }
            }
        }
        let diags = verify_plan(&catalog, &plan);
        assert!(diags.iter().any(|d| d.code == "P010"), "{diags:?}");
    }

    #[test]
    fn partition_mismatch_is_p011() {
        let (catalog, mut plan) = mini();
        let sa = catalog.attr("S", "a").unwrap();
        let sb = catalog.attr("S", "b").unwrap();
        // Partition the S store by S.a across 2 workers but route the
        // stored copies by S.b, which is not join-equal to S.a.
        plan.stores[1].descriptor = StoreDescriptor::partitioned(
            RelationSet::singleton(catalog.relation_id("S").unwrap()),
            sa,
            2,
        );
        plan.ingest[1].targets[0].routing_key = Some(sb);
        let diags = verify_plan(&catalog, &plan);
        assert!(diags.iter().any(|d| d.code == "P011"), "{diags:?}");
        // Broadcast (no routing key) stays legal.
        plan.ingest[1].targets[0].routing_key = None;
        let diags = verify_plan(&catalog, &plan);
        assert!(!diags.iter().any(|d| d.code == "P011"), "{diags:?}");
    }

    #[test]
    fn two_rule_set_is_p015() {
        let (catalog, mut plan) = mini();
        plan.rules
            .get_mut(&(StoreId::new(0), EdgeId::new(0)))
            .unwrap()
            .push(Rule::Store);
        let diags = verify_plan(&catalog, &plan);
        assert!(diags.iter().any(|d| d.code == "P015"), "{diags:?}");
        assert!(gate(&catalog, &plan).is_err());
    }

    #[test]
    fn unfed_mir_store_is_p008() {
        let (catalog, mut plan) = mini();
        let r = catalog.relation_id("R").unwrap();
        let s = catalog.relation_id("S").unwrap();
        let mut rs = RelationSet::singleton(r);
        rs.insert(s);
        let query = clash_query::parse_query(&catalog, QueryId::new(0), "q", "R(a), S(a)").unwrap();
        let id = StoreId::new(2);
        plan.stores.push(StoreDef {
            id,
            descriptor: StoreDescriptor::of_mir(query.mir(rs), None, 1),
        });
        plan.rules.insert((id, EdgeId::new(10)), vec![Rule::Store]);
        let diags = verify_plan(&catalog, &plan);
        let p008 = diags.iter().find(|d| d.code == "P008").expect("P008");
        assert!(
            p008.message.contains("store{R0,R1} on R0.a0 = R1.a0"),
            "the message names the store's predicates: {}",
            p008.message
        );
    }

    #[test]
    fn empty_plan_is_clean() {
        let catalog = Catalog::new();
        let plan = TopologyPlan::default();
        assert!(verify_plan(&catalog, &plan).is_empty());
    }
}
