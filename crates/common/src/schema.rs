//! Relation schemas and attribute references.
//!
//! A streamed relation has a name and a list of named attributes. Join
//! predicates and partitioning decisions reference attributes through
//! [`AttrRef`], a `(relation, attribute)` pair, e.g. `S.a` in the paper's
//! notation `Si.a = Sj.b`.

use crate::ids::{AttrId, RelationId};
use std::fmt;
use std::sync::Arc;

/// A named attribute within a relation schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: String,
}

impl Attribute {
    /// Creates an attribute with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Attribute { name: name.into() }
    }
}

/// Schema of a streamed base relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Identifier of the relation this schema belongs to.
    pub relation: RelationId,
    /// Human readable relation name, e.g. `"lineitem"` or `"S"`.
    pub name: String,
    /// Ordered list of attributes. The position of an attribute is its
    /// [`AttrId`].
    pub attributes: Vec<Attribute>,
}

/// Shared, immutable schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Creates a schema from a relation id, name and attribute names.
    pub fn new(
        relation: RelationId,
        name: impl Into<String>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Schema {
            relation,
            name: name.into(),
            attributes: attributes.into_iter().map(Attribute::new).collect(),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Looks up an attribute id by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .map(AttrId::from)
    }

    /// Returns the attribute name for an id, if valid.
    pub fn attr_name(&self, id: AttrId) -> Option<&str> {
        self.attributes.get(id.index()).map(|a| a.name.as_str())
    }

    /// Builds an [`AttrRef`] for the named attribute of this relation.
    pub fn attr_ref(&self, name: &str) -> Option<AttrRef> {
        self.attr_id(name).map(|attr| AttrRef {
            relation: self.relation,
            attr,
        })
    }

    /// Iterates over all attribute references of this relation.
    pub fn attr_refs(&self) -> impl Iterator<Item = AttrRef> + '_ {
        (0..self.arity()).map(|i| AttrRef {
            relation: self.relation,
            attr: AttrId::from(i),
        })
    }
}

/// A fully qualified attribute reference: `relation.attribute`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrRef {
    /// The relation the attribute belongs to.
    pub relation: RelationId,
    /// The attribute within that relation's schema.
    pub attr: AttrId,
}

impl AttrRef {
    /// Creates a reference from raw parts.
    pub fn new(relation: RelationId, attr: AttrId) -> Self {
        AttrRef { relation, attr }
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.relation, self.attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(RelationId::new(2), "S", ["a", "b", "c"])
    }

    #[test]
    fn attribute_lookup_by_name_and_id() {
        let s = schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attr_id("b"), Some(AttrId::new(1)));
        assert_eq!(s.attr_id("z"), None);
        assert_eq!(s.attr_name(AttrId::new(2)), Some("c"));
        assert_eq!(s.attr_name(AttrId::new(9)), None);
    }

    #[test]
    fn attr_ref_construction() {
        let s = schema();
        let r = s.attr_ref("a").unwrap();
        assert_eq!(r.relation, RelationId::new(2));
        assert_eq!(r.attr, AttrId::new(0));
        assert!(s.attr_ref("missing").is_none());
        assert_eq!(r.to_string(), "R2.a0");
    }

    #[test]
    fn attr_refs_iterates_in_schema_order() {
        let s = schema();
        let refs: Vec<AttrRef> = s.attr_refs().collect();
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[0].attr, AttrId::new(0));
        assert_eq!(refs[2].attr, AttrId::new(2));
        assert!(refs.iter().all(|r| r.relation == s.relation));
    }

    #[test]
    fn schemas_with_same_shape_are_equal() {
        assert_eq!(schema(), schema());
        let other = Schema::new(RelationId::new(2), "S", ["a", "b"]);
        assert_ne!(schema(), other);
    }
}
