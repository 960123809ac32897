//! Strongly typed identifiers.
//!
//! Every entity that flows between crates (relations, queries, stores,
//! workers, attributes, routing edges) is addressed by a small-integer
//! newtype. Using newtypes instead of raw `usize` prevents the classic
//! "passed a store index where a relation index was expected" bug and keeps
//! hash maps keyed by ids cheap.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index, useful for indexing into dense vectors.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                Self(raw as u32)
            }
        }
    };
}

define_id!(
    /// Identifies a streamed input relation (`S_i` in the paper).
    RelationId,
    "R"
);
define_id!(
    /// Identifies a continuous join query (`q_i` in the paper).
    QueryId,
    "Q"
);
define_id!(
    /// Identifies a store: the joint set of workers materializing one
    /// (possibly intermediate) relation, e.g. the `T`-store or `RS`-store.
    StoreId,
    "St"
);
define_id!(
    /// Identifies a single worker task (one partition of a store).
    WorkerId,
    "W"
);
define_id!(
    /// Identifies an attribute within a relation schema.
    AttrId,
    "a"
);
define_id!(
    /// Identifies a routing edge in the deployed topology. Rules are keyed
    /// by the incoming edge label (Section V-B of the paper).
    EdgeId,
    "e"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_roundtrip_and_display() {
        let r = RelationId::new(3);
        assert_eq!(r.index(), 3);
        assert_eq!(r.to_string(), "R3");
        assert_eq!(QueryId::from(7u32).to_string(), "Q7");
        assert_eq!(StoreId::from(2usize).to_string(), "St2");
        assert_eq!(EdgeId::new(11).to_string(), "e11");
    }

    #[test]
    fn ids_are_distinct_types() {
        // Compile-time property, but check hashing/equality semantics here.
        let mut set = HashSet::new();
        set.insert(RelationId::new(1));
        set.insert(RelationId::new(1));
        set.insert(RelationId::new(2));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(WorkerId::new(1) < WorkerId::new(2));
        assert!(AttrId::new(10) > AttrId::new(9));
    }
}
