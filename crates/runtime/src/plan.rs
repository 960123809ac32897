//! The installed-plan value: a verified [`TopologyPlan`] plus everything
//! the runtime derives from it, computed once by [`prepare`] and shared
//! behind one `Arc` by both engines, every shard and every producer slot.
//! Where a probe registers as a pending prober is not derived here: the
//! kernel decides that per probe from the completion watermark alone, at
//! every store alike (`parallel::shard`).

use clash_catalog::Catalog;
use clash_common::{AttrRef, RelationSet, Result, Window};
use clash_optimizer::{Rule, StoreDef, TopologyPlan};
use std::sync::Arc;

/// A plan that passed the static gate, with its derived data.
#[derive(Debug)]
pub(crate) struct InstalledPlan {
    /// The plan itself.
    pub plan: Arc<TopologyPlan>,
    /// Expiry window and indexed attributes per store, in `plan.stores`
    /// order.
    pub layout: Vec<(Window, Vec<AttrRef>)>,
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
    Ok(Arc::new(InstalledPlan {
        plan: Arc::new(plan),
        layout,
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
