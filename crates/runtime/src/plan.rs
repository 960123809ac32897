//! The installed-plan value: a verified [`TopologyPlan`] plus everything
//! the runtime derives from it, computed once by [`prepare`] and shared
//! behind one `Arc` by both engines, every shard and every producer slot.

use clash_catalog::Catalog;
use clash_common::{AttrRef, FxHashSet, RelationSet, Result, StoreId, Window};
use clash_optimizer::{OutputAction, Rule, StoreDef, TopologyPlan};
use std::sync::Arc;

/// Who feeds a shard — which decides at which stores a (probe, insert)
/// pair can ride *different* sender paths, so channel FIFO alone cannot
/// guarantee insert-before-probe visibility. Probes at those stores
/// register as *pending probers* and late inserts retro-match them (the
/// symmetric completion mechanism of the shard). The exactly-once argument
/// (match at probe time iff the insert was applied with a smaller guard,
/// retroactively otherwise, GC once the watermark proves no earlier root
/// is in flight) does not depend on *which* stores are symmetric, so a
/// shard may move to a wider set mid-stream.
///
/// A probe only looks its store up in the set when it could register at
/// all: when a root below its guard is still in flight. `LocalEngine`
/// runs each root to completion before the next, so none ever is, and
/// its one-producer set is never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Feed {
    /// One producer (a `LocalEngine`, or worker channels fed by one
    /// producer): the stores of [`symmetric_stores`].
    OneProducer,
    /// Two or more concurrent producers (open
    /// [`crate::ingest::SourceHandle`]s and/or the coordinator's own
    /// `ingest`): the stores of [`symmetric_stores_multi`].
    ManyProducers,
}

/// A plan that passed the static gate, with its derived data.
#[derive(Debug)]
pub(crate) struct InstalledPlan {
    /// The plan itself.
    pub plan: Arc<TopologyPlan>,
    /// Expiry window and indexed attributes per store, in `plan.stores`
    /// order.
    pub layout: Vec<(Window, Vec<AttrRef>)>,
    /// The symmetric store set per [`Feed`].
    symmetric: [FxHashSet<StoreId>; 2],
}

impl InstalledPlan {
    /// The stores whose probes must register as pending probers under
    /// `feed`.
    pub fn symmetric(&self, feed: Feed) -> &FxHashSet<StoreId> {
        &self.symmetric[feed as usize]
    }
}

/// Verifies `plan` against `catalog` (an error-level finding rejects it
/// with [`clash_common::ClashError::InvalidPlan`]) and derives what every
/// install needs from it. The only place either happens.
pub(crate) fn prepare(catalog: &Catalog, plan: TopologyPlan) -> Result<Arc<InstalledPlan>> {
    clash_analyzer::gate(catalog, &plan)?;
    let layout = plan
        .stores
        .iter()
        .map(|def| {
            (
                store_window(catalog, def.descriptor.relations),
                indexed_attrs(&plan, def),
            )
        })
        .collect();
    // Stores that apply a `Store` rule on any edge.
    let storing: FxHashSet<StoreId> = plan
        .each_rule()
        .filter(|(_, rule)| matches!(rule, Rule::Store))
        .map(|((store, _), _)| store)
        .collect();
    let narrow = symmetric_stores(&plan, &storing);
    let wide = symmetric_stores_multi(&plan, &storing, &narrow);
    Ok(Arc::new(InstalledPlan {
        plan: Arc::new(plan),
        layout,
        symmetric: [narrow, wide],
    }))
}

/// Window of a store: the widest window of its member relations (so no
/// potential join partner expires too early).
fn store_window(catalog: &Catalog, relations: RelationSet) -> Window {
    relations
        .iter()
        .filter_map(|r| catalog.relation(r).ok().map(|m| m.window))
        .max_by_key(|w| w.length)
        .unwrap_or_default()
}

/// Indexed attributes of a store: every stored-side attribute of every
/// probe-rule predicate registered at it.
fn indexed_attrs(plan: &TopologyPlan, store: &StoreDef) -> Vec<AttrRef> {
    let mut out = Vec::new();
    for ((sid, _), rule) in plan.each_rule() {
        let Rule::Probe { predicates, .. } = rule else {
            continue;
        };
        if sid != store.id {
            continue;
        }
        for p in predicates {
            let stored_side = if store.descriptor.relations.contains(p.left.relation) {
                p.left
            } else {
                p.right
            };
            if !out.contains(&stored_side) {
                out.push(stored_side);
            }
        }
    }
    out
}

/// The symmetric stores under a single producer, given the `storing`
/// stores (a `Store` rule on some edge). Two cases qualify:
///
/// 1. **Forward-fed stores** — materialized intermediate-result stores
///    whose `Store` deliveries come from racing worker threads while
///    their probes may come straight from the producer.
/// 2. **Stores probed through `Forward` actions** — a base store's
///    inserts travel on the producer's channel (possibly parked in its
///    micro-batch buffer), while a partial result probing it is forwarded
///    directly worker-to-worker and can overtake them.
///
/// Pairs where both sides ride the producer's channel stay FIFO — the
/// micro-batch buffer appends and flushes in ingest order — and need no
/// registration.
fn symmetric_stores(plan: &TopologyPlan, storing: &FxHashSet<StoreId>) -> FxHashSet<StoreId> {
    let mut symmetric: FxHashSet<StoreId> = FxHashSet::default();
    for (_, rule) in plan.each_rule() {
        let Rule::Probe { outputs, .. } = rule else {
            continue;
        };
        for action in outputs {
            let OutputAction::Forward(next) = action else {
                continue;
            };
            let qualifies = match plan.rule(next.store, next.edge) {
                Some(Rule::Store) => true,
                Some(Rule::Probe { .. }) => storing.contains(&next.store),
                None => false,
            };
            if qualifies {
                symmetric.insert(next.store);
            }
        }
    }
    symmetric
}

/// The symmetric stores under concurrent producers: a probe and an insert
/// at *any* store can then ride different sender paths, so `narrow` (the
/// single-producer set) is widened by every store that is both populated
/// (in `storing`) and probed (a `Probe` rule on some edge). The widening
/// trades some pending-prober bookkeeping for exactness under concurrent
/// ingestion.
fn symmetric_stores_multi(
    plan: &TopologyPlan,
    storing: &FxHashSet<StoreId>,
    narrow: &FxHashSet<StoreId>,
) -> FxHashSet<StoreId> {
    let mut symmetric = narrow.clone();
    for ((store, _), rule) in plan.each_rule() {
        if storing.contains(&store) && matches!(rule, Rule::Probe { .. }) {
            symmetric.insert(store);
        }
    }
    symmetric
}
