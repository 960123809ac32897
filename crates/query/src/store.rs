//! Store descriptors: which (intermediate) relation a store holds, how it
//! is partitioned and across how many workers.

use crate::mir::Mir;
use crate::predicate::PredicateSet;
use clash_common::{AttrRef, QueryId, RelationSet};
use std::fmt;

/// Description of a relation store before it is instantiated in a
/// topology: the MIR it holds (relations and predicates), its partitioning
/// attribute and parallelism.
///
/// Two probe orders (possibly of different queries) that reference a store
/// with the same descriptor share that store — the cornerstone of the
/// paper's state sharing. The `owner` field is only set by the
/// *Independent* baseline, which deliberately gives every query its own
/// copy of every store (no sharing), mirroring running one isolated
/// topology per query. The descriptor value is also a store's identity
/// across re-optimizations: an install keeps the state of every store
/// whose descriptor the new plan still holds (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreDescriptor {
    /// Base relations covered by the stored tuples.
    pub relations: RelationSet,
    /// Partitioning attribute (`None`: single partition / round robin).
    pub partition: Option<AttrRef>,
    /// Number of parallel worker tasks holding partitions of this store.
    pub parallelism: usize,
    /// Owning query for per-query (non-shared) deployments.
    pub owner: Option<QueryId>,
    /// Join predicates the stored tuples satisfy (empty for a base store).
    /// Last, so the derived order reads it only on a tie of all the others.
    pub predicates: PredicateSet,
}

impl StoreDescriptor {
    /// A store over `relations`, with no predicates, in a single partition.
    pub fn unpartitioned(relations: RelationSet) -> Self {
        Self::partitioned_by(relations, None, 1)
    }

    /// A store over `relations`, with no predicates, partitioned by `attr`
    /// across `parallelism` workers.
    pub fn partitioned(relations: RelationSet, attr: AttrRef, parallelism: usize) -> Self {
        Self::partitioned_by(relations, Some(attr), parallelism)
    }

    fn partitioned_by(
        relations: RelationSet,
        partition: Option<AttrRef>,
        parallelism: usize,
    ) -> Self {
        let predicates = PredicateSet::EMPTY;
        Self::of_mir(
            Mir {
                relations,
                predicates,
            },
            partition,
            parallelism,
        )
    }

    /// A store holding `mir`, partitioned by `partition` (`None`: one
    /// partition or round robin) across `parallelism` workers.
    pub fn of_mir(mir: Mir, partition: Option<AttrRef>, parallelism: usize) -> Self {
        StoreDescriptor {
            relations: mir.relations,
            partition,
            parallelism: parallelism.max(1),
            owner: None,
            predicates: mir.predicates,
        }
    }

    /// The intermediate result the store holds.
    pub fn mir(&self) -> Mir {
        Mir {
            relations: self.relations,
            predicates: self.predicates,
        }
    }

    /// Marks the store as privately owned by a query (Independent
    /// baseline).
    pub fn owned_by(mut self, query: QueryId) -> Self {
        self.owner = Some(query);
        self
    }

    /// `true` when the store holds a base input relation rather than an
    /// intermediate join result.
    pub fn is_base(&self) -> bool {
        self.relations.len() == 1
    }
}

impl fmt::Display for StoreDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store{}", self.relations)?;
        if let Some(p) = self.partition {
            write!(f, "[{p}]")?;
        }
        if self.parallelism > 1 {
            write!(f, "x{}", self.parallelism)?;
        }
        if let Some(q) = self.owner {
            write!(f, "@{q}")?;
        }
        for (i, p) in self.predicates.predicates().iter().enumerate() {
            write!(f, "{}{p}", if i == 0 { " on " } else { " ∧ " })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::{AttrId, RelationId};

    fn rs(ids: &[u32]) -> RelationSet {
        ids.iter().map(|i| RelationId::new(*i)).collect()
    }

    #[test]
    fn constructors_and_flags() {
        let base = StoreDescriptor::unpartitioned(rs(&[1]));
        assert!(base.is_base());
        assert_eq!(base.parallelism, 1);
        let attr = AttrRef::new(RelationId::new(1), AttrId::new(0));
        let part = StoreDescriptor::partitioned(rs(&[1, 2]), attr, 0);
        assert!(!part.is_base());
        assert_eq!(part.parallelism, 1, "parallelism clamped to >= 1");
        assert_eq!(part.partition, Some(attr));
    }

    #[test]
    fn keys_distinguish_partitioning_parallelism_and_owner() {
        let attr = AttrRef::new(RelationId::new(1), AttrId::new(0));
        let a = StoreDescriptor::unpartitioned(rs(&[1]));
        let b = StoreDescriptor::partitioned(rs(&[1]), attr, 1);
        let c = StoreDescriptor::partitioned(rs(&[1]), attr, 4);
        let d = StoreDescriptor::partitioned(rs(&[1]), attr, 4).owned_by(QueryId::new(2));
        let keys = [a, b, c, d];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
        assert_eq!(a, StoreDescriptor::unpartitioned(rs(&[1])));
    }

    #[test]
    fn display_is_compact() {
        let attr = AttrRef::new(RelationId::new(1), AttrId::new(0));
        let d = StoreDescriptor::partitioned(rs(&[1, 2]), attr, 3).owned_by(QueryId::new(7));
        let s = d.to_string();
        assert!(s.contains("store"));
        assert!(s.contains("x3"));
        assert!(s.contains("@Q7"));
        assert!(!s.contains(" on "), "a base store names no predicate");
    }

    #[test]
    fn mir_stores_differ_by_predicates_and_name_them() {
        let mut catalog = clash_catalog::Catalog::new();
        let window = clash_common::Window::unbounded();
        catalog.register("R", ["a", "c"], window, 1).unwrap();
        catalog.register("S", ["a", "b", "c"], window, 1).unwrap();
        catalog.register("T", ["b", "c"], window, 1).unwrap();
        let parse = |id, text| crate::parse_query(&catalog, QueryId::new(id), "q", text).unwrap();
        let q1 = parse(0, "R(a), S(a,b), T(b)");
        let q2 = parse(1, "R(c), S(c), T(c)");
        let st = rs(&[1, 2]);
        let (b, c) = (q1.mir(st), q2.mir(st));
        assert_ne!(b, c);
        assert_eq!(
            b,
            parse(2, "S(b), T(b)").mir(st),
            "equal content, equal MIR"
        );
        let (sb, sc) = (
            StoreDescriptor::of_mir(b, None, 1),
            StoreDescriptor::of_mir(c, None, 1),
        );
        assert_ne!(sb, sc);
        assert_eq!(sb.mir(), b);
        assert_eq!(sb.to_string(), "store{R1,R2} on R1.a1 = R2.a0");
        assert_eq!(sc.to_string(), "store{R1,R2} on R1.a2 = R2.a1");
        assert_eq!(q1.mir(rs(&[1])).predicates, PredicateSet::EMPTY);
    }
}
