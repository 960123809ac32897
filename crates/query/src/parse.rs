//! Parser for the paper's query notation.
//!
//! Queries in the paper are written as `R(a), S(a,b), T(b)`: a list of
//! relations, each with the attributes that participate in joins. Two
//! relations that list the same attribute name are connected by an
//! equi-join predicate on that attribute.
//!
//! The parser resolves relation and attribute names through the
//! [`Catalog`]; it expects every mentioned attribute to exist in the
//! relation's registered schema. Attribute-name sharing follows the paper
//! convention: identical names denote equality. (For TPC-H-style queries
//! where joined columns have different names, use
//! [`crate::QueryBuilder::join`] instead.)

use crate::predicate::EquiPredicate;
use crate::query::JoinQuery;
use clash_catalog::Catalog;
use clash_common::{AttrRef, ClashError, QueryId, RelationSet, Result};

/// One parsed `Relation(attr, ...)` term.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Term {
    relation: String,
    attributes: Vec<String>,
}

/// Splits `R(a), S(a,b), T(b)` into terms.
fn tokenize(input: &str) -> Result<Vec<Term>> {
    let mut terms = Vec::new();
    let mut rest = input.trim();
    while !rest.is_empty() {
        let open = rest.find('(').ok_or_else(|| {
            ClashError::invalid_query(format!("expected '(' in query fragment '{rest}'"))
        })?;
        let close = rest[open..].find(')').map(|i| i + open).ok_or_else(|| {
            ClashError::invalid_query(format!("unclosed '(' in query fragment '{rest}'"))
        })?;
        let relation = rest[..open]
            .trim()
            .trim_start_matches(',')
            .trim()
            .to_string();
        if relation.is_empty() {
            return Err(ClashError::invalid_query(format!(
                "missing relation name before '(' in '{rest}'"
            )));
        }
        let attributes: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        terms.push(Term {
            relation,
            attributes,
        });
        rest = rest[close + 1..].trim().trim_start_matches(',').trim();
    }
    if terms.is_empty() {
        return Err(ClashError::invalid_query("empty query string"));
    }
    Ok(terms)
}

/// Parses a query in paper notation against a catalog.
///
/// ```
/// use clash_catalog::Catalog;
/// use clash_common::{QueryId, Window};
/// use clash_query::parse_query;
///
/// let mut catalog = Catalog::new();
/// catalog.register("R", ["a"], Window::secs(5), 1).unwrap();
/// catalog.register("S", ["a", "b"], Window::secs(5), 1).unwrap();
/// catalog.register("T", ["b"], Window::secs(5), 1).unwrap();
/// let q = parse_query(&catalog, QueryId::new(0), "q1", "R(a), S(a,b), T(b)").unwrap();
/// assert_eq!(q.size(), 3);
/// assert_eq!(q.predicates.len(), 2);
/// ```
pub fn parse_query(
    catalog: &Catalog,
    id: QueryId,
    name: impl Into<String>,
    input: &str,
) -> Result<JoinQuery> {
    let terms = tokenize(input)?;
    let mut relations = RelationSet::new();
    // (attribute name, attr ref) pairs in term order.
    let mut named_attrs: Vec<(String, AttrRef)> = Vec::new();
    for term in &terms {
        let meta = catalog.relation_by_name(&term.relation)?;
        if relations.contains(meta.id) {
            return Err(ClashError::invalid_query(format!(
                "relation {} mentioned twice (self joins are not supported)",
                term.relation
            )));
        }
        relations.insert(meta.id);
        for attr in &term.attributes {
            let r = catalog.attr(&term.relation, attr)?;
            named_attrs.push((attr.clone(), r));
        }
    }
    // Connect every pair of equally named attributes from different relations.
    let mut predicates = Vec::new();
    for i in 0..named_attrs.len() {
        for j in (i + 1)..named_attrs.len() {
            if named_attrs[i].0 == named_attrs[j].0
                && named_attrs[i].1.relation != named_attrs[j].1.relation
            {
                predicates.push(EquiPredicate::new(named_attrs[i].1, named_attrs[j].1));
            }
        }
    }
    JoinQuery::new(id, name, relations, predicates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_common::Window;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("R", ["a", "b"], Window::secs(5), 1).unwrap();
        c.register("S", ["b", "c"], Window::secs(5), 1).unwrap();
        c.register("T", ["c", "d"], Window::secs(5), 1).unwrap();
        c.register("U", ["d"], Window::secs(5), 1).unwrap();
        c
    }

    #[test]
    fn parses_paper_example_q1() {
        let c = catalog();
        let q = parse_query(&c, QueryId::new(0), "q1", "R(b), S(b,c), T(c)").unwrap();
        assert_eq!(q.size(), 3);
        assert_eq!(q.predicates.len(), 2);
        let names: Vec<String> = q
            .predicates
            .iter()
            .map(|p| format!("{} = {}", c.attr_name(&p.left), c.attr_name(&p.right)))
            .collect();
        assert!(names.contains(&"R.b = S.b".to_string()));
        assert!(names.contains(&"S.c = T.c".to_string()));
    }

    #[test]
    fn parses_q2_over_different_relations() {
        let c = catalog();
        let q = parse_query(&c, QueryId::new(1), "q2", "S(c), T(c,d), U(d)").unwrap();
        assert_eq!(q.size(), 3);
        assert_eq!(q.predicates.len(), 2);
    }

    #[test]
    fn whitespace_and_trailing_commas_tolerated() {
        let c = catalog();
        let q = parse_query(&c, QueryId::new(0), "q", "  R( b ) ,S(b, c),  T(c) ").unwrap();
        assert_eq!(q.size(), 3);
        assert_eq!(q.predicates.len(), 2);
    }

    #[test]
    fn unknown_relation_or_attribute_rejected() {
        let c = catalog();
        assert!(parse_query(&c, QueryId::new(0), "q", "R(b), X(b)").is_err());
        assert!(parse_query(&c, QueryId::new(0), "q", "R(zzz), S(zzz)").is_err());
    }

    #[test]
    fn malformed_strings_rejected() {
        let c = catalog();
        assert!(parse_query(&c, QueryId::new(0), "q", "").is_err());
        assert!(parse_query(&c, QueryId::new(0), "q", "R(b").is_err());
        assert!(parse_query(&c, QueryId::new(0), "q", "(b)").is_err());
    }

    #[test]
    fn duplicate_relation_rejected() {
        let c = catalog();
        assert!(parse_query(&c, QueryId::new(0), "q", "R(b), R(b)").is_err());
    }

    #[test]
    fn disconnected_query_rejected_via_validation() {
        let c = catalog();
        // R(b) and T(c) share no attribute name -> no predicate -> invalid.
        let result = parse_query(&c, QueryId::new(0), "q", "R(b), T(c)");
        assert!(matches!(result, Err(ClashError::InvalidQuery(_))));
    }

    #[test]
    fn four_way_linear_query() {
        let c = catalog();
        let q = parse_query(&c, QueryId::new(0), "q", "R(b), S(b,c), T(c,d), U(d)").unwrap();
        assert_eq!(q.size(), 4);
        assert_eq!(q.predicates.len(), 3);
    }
}
