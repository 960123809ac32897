//! Compact sets of relations.
//!
//! Materializable intermediate results (MIRs), probe-order prefixes and
//! sub-queries are all identified by the *set of base relations* they
//! cover. With at most 64 streamed relations per deployment (the paper
//! evaluates up to 100 input relations, but any single query touches at
//! most a handful; deployments in the runtime are capped at 64 relations)
//! a bitset over `u128` is sufficient and makes set algebra and hashing
//! trivial.

use crate::ids::RelationId;
use std::fmt;

/// Maximum number of distinct relations a single deployment may reference.
pub const MAX_RELATIONS: usize = 128;

/// A set of [`RelationId`]s represented as a 128-bit bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RelationSet(u128);

impl RelationSet {
    /// The empty set.
    pub const EMPTY: RelationSet = RelationSet(0);

    /// Creates an empty set.
    pub fn new() -> Self {
        RelationSet(0)
    }

    /// Creates a singleton set.
    pub fn singleton(r: RelationId) -> Self {
        let mut s = RelationSet::new();
        s.insert(r);
        s
    }

    /// Inserts a relation. Panics if the id exceeds [`MAX_RELATIONS`].
    pub fn insert(&mut self, r: RelationId) {
        assert!(
            r.index() < MAX_RELATIONS,
            "relation id {} exceeds the {MAX_RELATIONS}-relation limit of RelationSet",
            r.index()
        );
        self.0 |= 1u128 << r.index();
    }

    /// Removes a relation if present.
    pub fn remove(&mut self, r: RelationId) {
        if r.index() < MAX_RELATIONS {
            self.0 &= !(1u128 << r.index());
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, r: RelationId) -> bool {
        r.index() < MAX_RELATIONS && (self.0 >> r.index()) & 1 == 1
    }

    /// Number of relations in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(&self, other: &RelationSet) -> RelationSet {
        RelationSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &RelationSet) -> RelationSet {
        RelationSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &RelationSet) -> RelationSet {
        RelationSet(self.0 & !other.0)
    }

    /// `true` when the two sets share no relation.
    pub fn is_disjoint(&self, other: &RelationSet) -> bool {
        self.0 & other.0 == 0
    }

    /// `true` when every relation of `self` is contained in `other`.
    pub fn is_subset(&self, other: &RelationSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// `true` when `self` is a subset of `other` and not equal to it.
    pub fn is_proper_subset(&self, other: &RelationSet) -> bool {
        self.is_subset(other) && self.0 != other.0
    }

    /// Iterates over the member relation ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = RelationId> + '_ {
        (0..MAX_RELATIONS as u32)
            .filter(move |i| (self.0 >> i) & 1 == 1)
            .map(RelationId::new)
    }

    /// The single member, if this is a singleton set.
    pub fn as_singleton(&self) -> Option<RelationId> {
        if self.len() == 1 {
            self.iter().next()
        } else {
            None
        }
    }

    /// Raw bitmap (useful as a dense map key).
    pub fn bits(&self) -> u128 {
        self.0
    }

    /// Constructs a set from a raw bitmap.
    pub fn from_bits(bits: u128) -> Self {
        RelationSet(bits)
    }
}

impl FromIterator<RelationId> for RelationSet {
    fn from_iter<T: IntoIterator<Item = RelationId>>(iter: T) -> Self {
        let mut s = RelationSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl fmt::Display for RelationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(ids: &[u32]) -> RelationSet {
        ids.iter().copied().map(RelationId::new).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = RelationSet::new();
        assert!(s.is_empty());
        s.insert(RelationId::new(3));
        s.insert(RelationId::new(7));
        assert!(s.contains(RelationId::new(3)));
        assert!(!s.contains(RelationId::new(4)));
        assert_eq!(s.len(), 2);
        s.remove(RelationId::new(3));
        assert!(!s.contains(RelationId::new(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = rs(&[0, 1, 2]);
        let b = rs(&[2, 3]);
        assert_eq!(a.union(&b), rs(&[0, 1, 2, 3]));
        assert_eq!(a.intersection(&b), rs(&[2]));
        assert_eq!(a.difference(&b), rs(&[0, 1]));
        assert!(!a.is_disjoint(&b));
        assert!(rs(&[0, 1]).is_disjoint(&rs(&[2, 3])));
        assert!(rs(&[1]).is_subset(&a));
        assert!(rs(&[1]).is_proper_subset(&a));
        assert!(a.is_subset(&a));
        assert!(!a.is_proper_subset(&a));
    }

    #[test]
    fn iteration_is_sorted_and_singleton_detection_works() {
        let s = rs(&[9, 2, 40]);
        let ids: Vec<u32> = s.iter().map(|r| r.0).collect();
        assert_eq!(ids, vec![2, 9, 40]);
        assert_eq!(s.as_singleton(), None);
        assert_eq!(rs(&[5]).as_singleton(), Some(RelationId::new(5)));
        assert_eq!(RelationSet::EMPTY.as_singleton(), None);
    }

    #[test]
    fn display_lists_members() {
        assert_eq!(rs(&[1, 3]).to_string(), "{R1,R3}");
        assert_eq!(RelationSet::EMPTY.to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_relation_id_rejected() {
        let mut s = RelationSet::new();
        s.insert(RelationId::new(128));
    }

    #[test]
    fn bits_roundtrip() {
        let s = rs(&[0, 127]);
        assert_eq!(RelationSet::from_bits(s.bits()), s);
    }
}
