//! Mutation tests for the static plan verifier (`clash-analyzer`).
//!
//! Strategy: build a known-good plan — the Fig. 7 five-query TPC-H
//! workload under the Shared strategy — assert it verifies clean, then
//! corrupt one structural invariant at a time and assert the analyzer
//! reports the *specific* diagnostic code that invariant maps to. Each
//! mutation mirrors a bug class an optimizer or hand-written plan could
//! realistically exhibit (dangling references, missing rule sets, broken
//! routing, forward cycles, partition-unsafe sends, ...).
//!
//! A property test at the end closes the loop from the other side: every
//! plan the optimizer builds over random synthetic workloads, under all
//! three strategies, must verify with zero errors.

use clash_analyzer::{errors, verify_plan, verify_plan_with_queries};
use clash_common::{
    AttrId, AttrRef, Diagnostic, EdgeId, QueryId, RelationId, RelationSet, StoreId, Window,
};
use clash_datagen::{SyntheticEnv, SyntheticWorkloadConfig, TpchWorkload};
use clash_optimizer::{
    OutputAction, Planner, PlannerConfig, Rule, SendTarget, StoreDef, StoreDescriptor, Strategy,
    TopologyPlan,
};
use clash_query::JoinQuery;
use clash_runtime::{EngineConfig, LocalEngine, ParallelEngine};
use proptest::prelude::*;

/// The known-good baseline: Fig. 7's five-query TPC-H workload planned
/// with state sharing on two workers.
fn fig7() -> (TpchWorkload, Vec<JoinQuery>, TopologyPlan) {
    let workload = TpchWorkload::new(2, Window::secs(3600)).expect("tpch workload");
    let queries = workload.five_queries().expect("five queries");
    let planner = Planner::new(&workload.catalog, &workload.stats, PlannerConfig::default());
    let report = planner
        .plan(&queries, Strategy::Shared)
        .expect("shared plan");
    (workload, queries, report.plan)
}

fn has(diags: &[Diagnostic], code: &str) -> bool {
    diags.iter().any(|d| d.code == code)
}

/// First `(route_idx, target_idx)` whose target lands on a rule set
/// containing a `Probe` rule.
fn probe_site(plan: &TopologyPlan) -> (usize, usize) {
    for (ri, route) in plan.ingest.iter().enumerate() {
        for (ti, t) in route.targets.iter().enumerate() {
            if let Some(rules) = plan.rules.get(&(t.store, t.edge)) {
                if rules.iter().any(|r| matches!(r, Rule::Probe { .. })) {
                    return (ri, ti);
                }
            }
        }
    }
    panic!("fig7 plan has no reachable probe rule set");
}

#[test]
fn fig7_shared_plan_verifies_clean() {
    let (workload, queries, plan) = fig7();
    let diags = verify_plan_with_queries(&workload.catalog, &queries, &plan);
    assert!(diags.is_empty(), "expected clean plan, got: {diags:?}");
    // The gate view (no query definitions) must agree.
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(diags.is_empty(), "gate view not clean: {diags:?}");
}

#[test]
fn dangling_store_reference_is_p001() {
    let (workload, _, mut plan) = fig7();
    plan.ingest[0].targets[0].store = StoreId::new(999);
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P001"), "{diags:?}");
}

#[test]
fn dangling_edge_reference_is_p002() {
    let (workload, _, mut plan) = fig7();
    plan.ingest[0].targets[0].edge = EdgeId::new(9999);
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P002"), "{diags:?}");
}

/// Both engines verify their first plan through the same gate: the P001
/// and P002 fixtures fail construction with the same diagnostic.
#[test]
fn invalid_initial_plan_fails_construction_on_both_engines() {
    let panic_of = |build: Box<dyn FnOnce() + std::panic::UnwindSafe>| -> String {
        let payload = std::panic::catch_unwind(build).expect_err("construction succeeded");
        payload
            .downcast_ref::<String>()
            .expect("panic message")
            .clone()
    };
    for (code, corrupt) in [
        (
            "P001",
            (|t| t.store = StoreId::new(999)) as fn(&mut SendTarget),
        ),
        ("P002", |t| t.edge = EdgeId::new(9999)),
    ] {
        let (workload, _, mut plan) = fig7();
        corrupt(&mut plan.ingest[0].targets[0]);
        let (catalog, config) = (workload.catalog, EngineConfig::default());
        let (c, p) = (catalog.clone(), plan.clone());
        let local = panic_of(Box::new(move || drop(LocalEngine::new(c, p, config))));
        let parallel = panic_of(Box::new(move || {
            drop(ParallelEngine::new(catalog, plan, config, 2))
        }));
        assert!(local.contains(code), "{local}");
        assert_eq!(local, parallel);
    }
}

#[test]
fn removed_rule_set_is_p002() {
    let (workload, _, mut plan) = fig7();
    let t = plan.ingest[0].targets[0];
    plan.rules.remove(&(t.store, t.edge)).expect("rule set");
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P002"), "{diags:?}");
}

#[test]
fn orphan_rule_set_is_p003_warning_only() {
    let (workload, _, mut plan) = fig7();
    plan.rules
        .insert((StoreId::new(0), EdgeId::new(5000)), vec![Rule::Store]);
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P003"), "{diags:?}");
    // Dead weight, not a correctness hazard: must not block installs.
    assert!(errors(&diags).is_empty(), "{diags:?}");
}

#[test]
fn unknown_probe_attribute_is_p004() {
    let (workload, _, mut plan) = fig7();
    let (ri, ti) = probe_site(&plan);
    let t = plan.ingest[ri].targets[ti];
    let rules = plan.rules.get_mut(&(t.store, t.edge)).unwrap();
    for rule in rules {
        if let Rule::Probe { predicates, .. } = rule {
            predicates[0].left.attr = AttrId::new(99);
            break;
        }
    }
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P004"), "{diags:?}");
}

#[test]
fn routing_key_of_foreign_relation_is_p005() {
    let (workload, _, mut plan) = fig7();
    // Pick a routed ingest target and re-key it with an attribute of a
    // *different* input relation — the sent tuple does not carry it.
    let relations: Vec<RelationId> = plan.ingest.iter().map(|r| r.relation).collect();
    let route = plan
        .ingest
        .iter_mut()
        .find(|r| r.targets.iter().any(|t| t.routing_key.is_some()))
        .expect("fig7 plan routes by key somewhere");
    let foreign = *relations
        .iter()
        .find(|r| **r != route.relation)
        .expect("more than one input relation");
    let target = route
        .targets
        .iter_mut()
        .find(|t| t.routing_key.is_some())
        .unwrap();
    target.routing_key = Some(AttrRef {
        relation: foreign,
        attr: AttrId::new(0),
    });
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P005"), "{diags:?}");
}

#[test]
fn declared_query_without_emit_is_p006() {
    let (workload, _, mut plan) = fig7();
    plan.queries.push(QueryId::new(77));
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P006"), "{diags:?}");
}

#[test]
fn emit_redirected_to_wrong_query_is_p007() {
    let (workload, queries, mut plan) = fig7();
    // Rewire one query's Emit to another query joining a different
    // relation set: the emitted head no longer matches.
    let mut mutated = false;
    'outer: for rules in plan.rules.values_mut() {
        for rule in rules.iter_mut() {
            if let Rule::Probe { outputs, .. } = rule {
                for out in outputs.iter_mut() {
                    if let OutputAction::Emit { query } = out {
                        let victim = queries
                            .iter()
                            .find(|q| {
                                q.id != *query
                                    && q.relations
                                        != queries
                                            .iter()
                                            .find(|p| p.id == *query)
                                            .unwrap()
                                            .relations
                            })
                            .expect("two queries with different relation sets");
                        *query = victim.id;
                        mutated = true;
                        break 'outer;
                    }
                }
            }
        }
    }
    assert!(mutated, "fig7 plan has no Emit output");
    let diags = verify_plan_with_queries(&workload.catalog, &queries, &plan);
    assert!(has(&diags, "P007"), "{diags:?}");
}

#[test]
fn unfed_mir_store_is_p008() {
    let (workload, _, mut plan) = fig7();
    let mir: RelationSet = [plan.ingest[0].relation, plan.ingest[1].relation]
        .into_iter()
        .collect();
    plan.stores.push(StoreDef {
        id: StoreId::new(plan.stores.len() as u32),
        descriptor: StoreDescriptor::unpartitioned(mir),
    });
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P008"), "{diags:?}");
}

#[test]
fn relation_never_stored_is_p009() {
    let (workload, queries, mut plan) = fig7();
    // Pick an input relation that some multi-way query joins, then strip
    // every Store-rule target from its ingest route: tuples of that
    // relation probe but are never remembered.
    let route_idx = plan
        .ingest
        .iter()
        .position(|r| {
            queries
                .iter()
                .any(|q| q.relations.len() >= 2 && q.relations.contains(r.relation))
        })
        .expect("some routed relation participates in a join");
    let keep: Vec<SendTarget> = plan.ingest[route_idx]
        .targets
        .iter()
        .filter(|t| {
            plan.rules
                .get(&(t.store, t.edge))
                .is_none_or(|rules| !rules.iter().any(|r| matches!(r, Rule::Store)))
        })
        .copied()
        .collect();
    plan.ingest[route_idx].targets = keep;
    let diags = verify_plan_with_queries(&workload.catalog, &queries, &plan);
    assert!(has(&diags, "P009"), "{diags:?}");
}

#[test]
fn forward_cycle_is_p010() {
    let (workload, _, mut plan) = fig7();
    // Find a probe-only node A forwarding to a probe-only node B, then
    // add a broadcast Forward from B back to A.
    let mut back_edge = None;
    'outer: for ((store, edge), rules) in &plan.rules {
        if rules.iter().any(|r| matches!(r, Rule::Store)) {
            continue;
        }
        for rule in rules {
            if let Rule::Probe { outputs, .. } = rule {
                for out in outputs {
                    if let OutputAction::Forward(t) = out {
                        let downstream_probe_only = plan
                            .rules
                            .get(&(t.store, t.edge))
                            .is_some_and(|rs| rs.iter().all(|r| matches!(r, Rule::Probe { .. })));
                        if downstream_probe_only {
                            back_edge = Some(((t.store, t.edge), (*store, *edge)));
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    let ((from_store, from_edge), (to_store, to_edge)) =
        back_edge.expect("fig7 plan has a probe-to-probe Forward");
    let rules = plan.rules.get_mut(&(from_store, from_edge)).unwrap();
    for rule in rules {
        if let Rule::Probe { outputs, .. } = rule {
            outputs.push(OutputAction::Forward(SendTarget {
                edge: to_edge,
                store: to_store,
                routing_key: None,
            }));
            break;
        }
    }
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P010"), "{diags:?}");
}

#[test]
fn partition_unsafe_routing_key_is_p011() {
    let (workload, _, mut plan) = fig7();
    // All attributes mentioned by any probe predicate: any attribute
    // *outside* this set forms a singleton join-equivalence class, so
    // re-keying a partitioned send with one must break partition safety.
    let mut pred_attrs: Vec<AttrRef> = Vec::new();
    for rules in plan.rules.values() {
        for rule in rules {
            if let Rule::Probe { predicates, .. } = rule {
                for p in predicates {
                    pred_attrs.push(p.left);
                    pred_attrs.push(p.right);
                }
            }
        }
    }
    let mut site = None;
    'outer: for (ri, route) in plan.ingest.iter().enumerate() {
        let arity = workload
            .catalog
            .schema(route.relation)
            .expect("schema")
            .arity();
        for (ti, t) in route.targets.iter().enumerate() {
            if t.routing_key.is_none() {
                continue;
            }
            let def = plan.store(t.store).expect("store");
            let partitioned = def.descriptor.partition.is_some() && def.descriptor.parallelism > 1;
            if !partitioned {
                continue;
            }
            for a in 0..arity {
                let cand = AttrRef {
                    relation: route.relation,
                    attr: AttrId::new(a as u32),
                };
                if Some(cand) != def.descriptor.partition && !pred_attrs.contains(&cand) {
                    site = Some((ri, ti, cand));
                    break 'outer;
                }
            }
        }
    }
    let (ri, ti, cand) = site.expect(
        "fig7 plan must have a keyed send into a partitioned store and a \
         spare non-join attribute to re-key it with",
    );
    plan.ingest[ri].targets[ti].routing_key = Some(cand);
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P011"), "{diags:?}");
}

#[test]
fn unknown_relation_in_store_is_p012() {
    let (workload, _, mut plan) = fig7();
    plan.stores[0].descriptor.relations = RelationSet::singleton(RelationId::new(99));
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P012"), "{diags:?}");
}

#[test]
fn store_rule_head_mismatch_is_p013() {
    let (workload, _, mut plan) = fig7();
    // Route relation B's tuples into relation A's Store rule: the head
    // arriving there no longer matches what the store covers.
    let store_target = plan.ingest[0]
        .targets
        .iter()
        .find(|t| {
            plan.rules
                .get(&(t.store, t.edge))
                .is_some_and(|rules| rules.iter().any(|r| matches!(r, Rule::Store)))
        })
        .copied()
        .expect("route 0 feeds a Store rule");
    let misdelivered = SendTarget {
        routing_key: None, // broadcast: isolate P013 from P005/P011
        ..store_target
    };
    plan.ingest[1].targets.push(misdelivered);
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P013"), "{diags:?}");
}

#[test]
fn emit_for_undeclared_query_is_p014() {
    let (workload, _, mut plan) = fig7();
    let (ri, ti) = probe_site(&plan);
    let t = plan.ingest[ri].targets[ti];
    let rules = plan.rules.get_mut(&(t.store, t.edge)).unwrap();
    for rule in rules {
        if let Rule::Probe { outputs, .. } = rule {
            outputs.push(OutputAction::Emit {
                query: QueryId::new(123),
            });
            break;
        }
    }
    let diags = verify_plan(&workload.catalog, &plan);
    assert!(has(&diags, "P014"), "{diags:?}");
}

proptest! {
    /// Every plan the optimizer builds over a random synthetic workload —
    /// any strategy, shared or not — verifies with zero errors. This is
    /// the completeness contract the install gate relies on: a rejected
    /// plan is always a genuinely broken plan.
    #[test]
    fn optimizer_plans_verify_clean(
        seed in 0u64..1000,
        n_queries in 1usize..4,
        query_size in 2usize..4,
        parallelism in 1usize..4,
    ) {
        let config = SyntheticWorkloadConfig {
            parallelism,
            ..SyntheticWorkloadConfig::default()
        };
        let mut env = SyntheticEnv::new(config, seed).expect("synthetic env");
        let queries = env
            .random_queries(n_queries, query_size)
            .expect("random queries");
        for strategy in [Strategy::Independent, Strategy::Shared, Strategy::GlobalIlp] {
            let planner = Planner::new(&env.catalog, &env.stats, PlannerConfig::default());
            let report = planner.plan(&queries, strategy).expect("plan");
            let diags = verify_plan_with_queries(&env.catalog, &queries, &report.plan);
            let errs = errors(&diags);
            prop_assert!(
                errs.is_empty(),
                "strategy {:?} produced an invalid plan: {:?}",
                strategy,
                errs
            );
        }
    }
}
