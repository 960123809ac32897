//! Metadata describing a registered streamed relation.

use clash_common::{RelationId, SchemaRef, Window};

/// Metadata of a streamed input relation.
///
/// Besides the schema this carries the two deployment knobs the paper's
/// cost model depends on:
///
/// * `window` — the per-relation join window (Section I-A),
/// * `parallelism` — the number of worker partitions of this relation's
///   store. The broadcast factor χ of Equation 1 equals this parallelism
///   whenever a probing tuple does not know the store's partitioning
///   attribute.
#[derive(Debug, Clone)]
pub struct RelationMeta {
    /// Identifier assigned by the catalog at registration time.
    pub id: RelationId,
    /// Relation name (unique within a catalog).
    pub name: String,
    /// Attribute schema.
    pub schema: SchemaRef,
    /// Join window for tuples of this relation.
    pub window: Window,
    /// Number of partitions the relation's store is split into.
    pub parallelism: usize,
}

impl RelationMeta {
    /// Returns the parallelism as a floating point broadcast factor.
    pub fn broadcast_factor(&self) -> f64 {
        self.parallelism.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::Schema;
    use std::sync::Arc;

    #[test]
    fn broadcast_factor_is_at_least_one() {
        let schema = Arc::new(Schema::new(RelationId::new(0), "R", ["a"]));
        let meta = RelationMeta {
            id: RelationId::new(0),
            name: "R".into(),
            schema,
            window: Window::secs(5),
            parallelism: 0,
        };
        assert_eq!(meta.broadcast_factor(), 1.0);
        let meta = RelationMeta {
            parallelism: 5,
            ..meta
        };
        assert_eq!(meta.broadcast_factor(), 5.0);
    }
}
