//! Registry of streamed relations.

use crate::relation::RelationMeta;
use clash_common::{AttrRef, ClashError, RelationId, Result, Schema, SchemaRef, Window};
use std::collections::HashMap;
use std::sync::Arc;

/// The catalog maps relation names to identifiers and stores per-relation
/// metadata (schema, window, parallelism).
///
/// Relation ids are dense indices in registration order, which lets every
/// downstream crate use `Vec`-based lookups and `RelationSet` bitmaps.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: Vec<RelationMeta>,
    by_name: HashMap<String, RelationId>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a relation with the given name, attributes, window and
    /// store parallelism. Returns the assigned [`RelationId`].
    ///
    /// Registering a name twice is an error: continuous queries reference
    /// relations by name and silently replacing a schema under them would
    /// be a correctness hazard.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
        window: Window,
        parallelism: usize,
    ) -> Result<RelationId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(ClashError::Config(format!(
                "relation {name} is already registered"
            )));
        }
        let id = RelationId::from(self.relations.len());
        let schema = Arc::new(Schema::new(id, name.clone(), attributes));
        if schema.arity() > clash_common::MAX_ATTRS_PER_RELATION {
            return Err(ClashError::Config(format!(
                "relation {name} has {} attributes, exceeding the {} a tuple leaf holds",
                schema.arity(),
                clash_common::MAX_ATTRS_PER_RELATION
            )));
        }
        self.relations.push(RelationMeta {
            id,
            name: name.clone(),
            schema,
            window,
            parallelism: parallelism.max(1),
        });
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Convenience registration with an unbounded window and parallelism 1.
    pub fn register_simple(
        &mut self,
        name: impl Into<String>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<RelationId> {
        self.register(name, attributes, Window::unbounded(), 1)
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// `true` when no relation is registered.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Looks up a relation id by name.
    pub fn relation_id(&self, name: &str) -> Option<RelationId> {
        self.by_name.get(name).copied()
    }

    /// Returns the metadata of a relation.
    pub fn relation(&self, id: RelationId) -> Result<&RelationMeta> {
        self.relations
            .get(id.index())
            .ok_or_else(|| ClashError::unknown(format!("relation {id}")))
    }

    /// Returns the metadata of a relation by name.
    pub fn relation_by_name(&self, name: &str) -> Result<&RelationMeta> {
        let id = self
            .relation_id(name)
            .ok_or_else(|| ClashError::unknown(format!("relation '{name}'")))?;
        self.relation(id)
    }

    /// Returns the schema of a relation.
    pub fn schema(&self, id: RelationId) -> Result<SchemaRef> {
        Ok(self.relation(id)?.schema.clone())
    }

    /// Resolves `relation.attribute` given as names into an [`AttrRef`].
    pub fn attr(&self, relation: &str, attribute: &str) -> Result<AttrRef> {
        let meta = self.relation_by_name(relation)?;
        meta.schema
            .attr_ref(attribute)
            .ok_or_else(|| ClashError::unknown(format!("attribute {relation}.{attribute}")))
    }

    /// Human readable name of an attribute reference (`"S.b"`), falling back
    /// to the id notation when unknown.
    pub fn attr_name(&self, attr: &AttrRef) -> String {
        match self.relation(attr.relation) {
            Ok(meta) => match meta.schema.attr_name(attr.attr) {
                Some(a) => format!("{}.{}", meta.name, a),
                None => format!("{}.{}", meta.name, attr.attr),
            },
            Err(_) => attr.to_string(),
        }
    }

    /// Iterates over all registered relations in id order.
    pub fn iter(&self) -> impl Iterator<Item = &RelationMeta> {
        self.relations.iter()
    }

    /// Updates the parallelism of a relation's store.
    pub fn set_parallelism(&mut self, id: RelationId, parallelism: usize) -> Result<()> {
        let meta = self
            .relations
            .get_mut(id.index())
            .ok_or_else(|| ClashError::unknown(format!("relation {id}")))?;
        meta.parallelism = parallelism.max(1);
        Ok(())
    }

    /// Updates the window of a relation.
    pub fn set_window(&mut self, id: RelationId, window: Window) -> Result<()> {
        let meta = self
            .relations
            .get_mut(id.index())
            .ok_or_else(|| ClashError::unknown(format!("relation {id}")))?;
        meta.window = window;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::AttrId;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("R", ["a", "x"], Window::secs(5), 3).unwrap();
        c.register("S", ["a", "b"], Window::secs(5), 5).unwrap();
        c.register("T", ["b", "c"], Window::secs(10), 2).unwrap();
        c
    }

    #[test]
    fn registration_assigns_dense_ids() {
        let c = catalog();
        assert_eq!(c.len(), 3);
        assert_eq!(c.relation_id("R"), Some(RelationId::new(0)));
        assert_eq!(c.relation_id("T"), Some(RelationId::new(2)));
        assert_eq!(c.relation_id("U"), None);
        assert!(!c.is_empty());
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut c = catalog();
        let err = c.register("R", ["z"], Window::secs(1), 1).unwrap_err();
        assert!(matches!(err, ClashError::Config(_)));
    }

    #[test]
    fn attribute_resolution() {
        let c = catalog();
        let b = c.attr("S", "b").unwrap();
        assert_eq!(b.relation, RelationId::new(1));
        assert_eq!(b.attr, AttrId::new(1));
        assert_eq!(c.attr_name(&b), "S.b");
        assert!(c.attr("S", "zzz").is_err());
        assert!(c.attr("Z", "a").is_err());
    }

    #[test]
    fn metadata_accessors() {
        let c = catalog();
        let s = c.relation_by_name("S").unwrap();
        assert_eq!(s.parallelism, 5);
        assert_eq!(s.window, Window::secs(5));
        assert_eq!(c.schema(s.id).unwrap().arity(), 2);
        assert!(c.relation(RelationId::new(42)).is_err());
    }

    #[test]
    fn parallelism_and_window_updates() {
        let mut c = catalog();
        let r = c.relation_id("R").unwrap();
        c.set_parallelism(r, 0).unwrap();
        assert_eq!(c.relation(r).unwrap().parallelism, 1, "clamped to 1");
        c.set_parallelism(r, 8).unwrap();
        assert_eq!(c.relation(r).unwrap().parallelism, 8);
        c.set_window(r, Window::secs(60)).unwrap();
        assert_eq!(c.relation(r).unwrap().window, Window::secs(60));
        assert!(c.set_parallelism(RelationId::new(99), 2).is_err());
    }

    #[test]
    fn overwide_relation_is_rejected() {
        let mut c = Catalog::new();
        let attrs: Vec<String> = (0..65).map(|i| format!("a{i}")).collect();
        let err = c.register("wide", attrs, Window::secs(1), 1).unwrap_err();
        assert!(matches!(err, ClashError::Config(_)));
    }

    #[test]
    fn iter_returns_registration_order() {
        let c = catalog();
        let names: Vec<&str> = c.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["R", "S", "T"]);
    }

    #[test]
    fn unknown_attr_name_falls_back_to_id_notation() {
        let c = catalog();
        let bogus = AttrRef::new(RelationId::new(9), AttrId::new(0));
        assert_eq!(c.attr_name(&bogus), bogus.to_string());
    }
}
