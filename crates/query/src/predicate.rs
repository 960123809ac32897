//! Equi-join predicates.

use clash_common::{AttrRef, RelationId, RelationSet};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// An equi-join predicate `left = right` between attributes of two
/// different relations (`Si.a = Sj.b` in the paper).
///
/// Predicates are normalized on construction so that the lexicographically
/// smaller attribute reference is stored on the left; two predicates over
/// the same attribute pair therefore compare equal regardless of the order
/// they were written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EquiPredicate {
    /// Smaller side of the normalized attribute pair.
    pub left: AttrRef,
    /// Larger side of the normalized attribute pair.
    pub right: AttrRef,
}

impl EquiPredicate {
    /// Creates a normalized predicate. Panics if both attributes belong to
    /// the same relation — self joins over a single logical stream are not
    /// part of the paper's query model.
    pub fn new(a: AttrRef, b: AttrRef) -> Self {
        assert_ne!(
            a.relation, b.relation,
            "equi-join predicates must connect two different relations"
        );
        if a <= b {
            EquiPredicate { left: a, right: b }
        } else {
            EquiPredicate { left: b, right: a }
        }
    }

    /// Returns the attribute on the side of `relation`, if the predicate
    /// touches it.
    pub fn side_of(&self, relation: RelationId) -> Option<AttrRef> {
        if self.left.relation == relation {
            Some(self.left)
        } else if self.right.relation == relation {
            Some(self.right)
        } else {
            None
        }
    }

    /// Returns the attribute on the side *opposite* of `relation`.
    pub fn other_side(&self, relation: RelationId) -> Option<AttrRef> {
        if self.left.relation == relation {
            Some(self.right)
        } else if self.right.relation == relation {
            Some(self.left)
        } else {
            None
        }
    }

    /// `true` when the predicate connects the two (disjoint) relation sets,
    /// i.e. one side lies in `a` and the other in `b`.
    pub fn connects(&self, a: &RelationSet, b: &RelationSet) -> bool {
        (a.contains(self.left.relation) && b.contains(self.right.relation))
            || (a.contains(self.right.relation) && b.contains(self.left.relation))
    }

    /// `true` when both sides of the predicate lie within `set`.
    pub fn within(&self, set: &RelationSet) -> bool {
        set.contains(self.left.relation) && set.contains(self.right.relation)
    }
}

impl fmt::Display for EquiPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.left, self.right)
    }
}

/// The join predicates on an intermediate result: next to its relations,
/// what makes two stores or two ILP steps the same work. Made only by
/// [`crate::JoinQuery::mir`]; a base relation's set is empty. Each distinct
/// set is allocated once per process, so the handle is `Copy`; equality,
/// order and hash read the predicates, so they hold across plans and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredicateSet(&'static [EquiPredicate]);

impl PredicateSet {
    /// The set of a base relation: no join predicate.
    pub const EMPTY: PredicateSet = PredicateSet(&[]);

    /// The shared copy of a sorted, deduplicated predicate list.
    pub(crate) fn intern(predicates: Vec<EquiPredicate>) -> PredicateSet {
        static INTERNED: Mutex<BTreeSet<&'static [EquiPredicate]>> = Mutex::new(BTreeSet::new());
        // Every update is one insert, so a poisoned set is still valid.
        let mut interned = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(shared) = interned.get(predicates.as_slice()) {
            return PredicateSet(shared);
        }
        let shared: &'static [EquiPredicate] = Box::leak(predicates.into_boxed_slice());
        interned.insert(shared);
        PredicateSet(shared)
    }

    /// The predicates, sorted.
    pub fn predicates(&self) -> &'static [EquiPredicate] {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::AttrId;

    fn attr(rel: u32, a: u32) -> AttrRef {
        AttrRef::new(RelationId::new(rel), AttrId::new(a))
    }

    #[test]
    fn predicates_normalize_operand_order() {
        let p1 = EquiPredicate::new(attr(2, 0), attr(0, 1));
        let p2 = EquiPredicate::new(attr(0, 1), attr(2, 0));
        assert_eq!(p1, p2);
        assert_eq!(p1.left, attr(0, 1));
        assert_eq!(p1.right, attr(2, 0));
    }

    #[test]
    #[should_panic(expected = "different relations")]
    fn same_relation_predicate_rejected() {
        let _ = EquiPredicate::new(attr(1, 0), attr(1, 1));
    }

    #[test]
    fn sides_and_involvement() {
        let p = EquiPredicate::new(attr(0, 1), attr(2, 0));
        assert!(p.side_of(RelationId::new(0)).is_some());
        assert!(p.side_of(RelationId::new(1)).is_none());
        assert_eq!(p.side_of(RelationId::new(2)), Some(attr(2, 0)));
        assert_eq!(p.other_side(RelationId::new(2)), Some(attr(0, 1)));
        assert_eq!(p.side_of(RelationId::new(5)), None);
        assert_eq!(p.other_side(RelationId::new(5)), None);
    }

    #[test]
    fn connects_and_within_relation_sets() {
        let p = EquiPredicate::new(attr(0, 0), attr(1, 0));
        let a = RelationSet::singleton(RelationId::new(0));
        let b = RelationSet::singleton(RelationId::new(1));
        let c = RelationSet::singleton(RelationId::new(2));
        assert!(p.connects(&a, &b));
        assert!(p.connects(&b, &a));
        assert!(!p.connects(&a, &c));
        assert!(p.within(&a.union(&b)));
        assert!(!p.within(&a.union(&c)));
    }

    #[test]
    fn display_shows_both_sides() {
        let p = EquiPredicate::new(attr(0, 0), attr(1, 2));
        assert_eq!(p.to_string(), "R0.a0 = R1.a2");
    }
}
