//! Brute-force windowed reference join.
//!
//! Shares nothing with the engines beyond `Tuple::get` and `Value`
//! equality: no plans, stores, epochs or probe orders. A result of a query
//! is one tuple per relation of the query such that every predicate holds
//! and **all constituents lie within the window of the newest one**. Each
//! result is counted once, when its newest constituent arrives, by
//! backtracking from that tuple over the query's relations in a connected
//! order.

use clash_common::{AttrRef, RelationId, Tuple, Value};
use clash_query::JoinQuery;
use std::collections::HashMap;

/// One backtracking step: bind a tuple of `relation`.
#[derive(Debug)]
struct Step {
    relation: RelationId,
    /// `(attribute of this relation, attribute of an earlier-bound
    /// relation)`; the first pair drives the index lookup.
    links: Vec<(AttrRef, AttrRef)>,
}

/// Everything seen so far of one relation.
#[derive(Debug, Default)]
struct Seen {
    tuples: Vec<Tuple>,
    /// attribute → value → positions in `tuples`, in arrival order.
    index: HashMap<AttrRef, HashMap<Value, Vec<u32>>>,
}

/// Counts join results per query over a timestamp-ordered stream.
#[derive(Debug)]
pub struct Oracle {
    window_ms: u64,
    /// Per query: `(query id, start relation → steps binding the rest)`.
    queries: Vec<(u32, HashMap<RelationId, Vec<Step>>)>,
    seen: HashMap<RelationId, Seen>,
    counts: Vec<u64>,
}

/// Orders the relations of `query` other than `start` so that each one is
/// linked by a predicate to the ones before it.
fn steps_from(query: &JoinQuery, start: RelationId) -> Vec<Step> {
    let mut bound = vec![start];
    let mut steps = Vec::new();
    while bound.len() < query.relations.len() {
        let next = query
            .relations
            .iter()
            .filter(|r| !bound.contains(r))
            .find_map(|candidate| {
                let links: Vec<(AttrRef, AttrRef)> = query
                    .predicates
                    .iter()
                    .filter_map(|p| {
                        let mine = p.side_of(candidate)?;
                        let theirs = p.other_side(candidate)?;
                        bound.contains(&theirs.relation).then_some((mine, theirs))
                    })
                    .collect();
                (!links.is_empty()).then_some(Step {
                    relation: candidate,
                    links,
                })
            })
            .expect("query graph is connected");
        bound.push(next.relation);
        steps.push(next);
    }
    steps
}

impl Oracle {
    /// An oracle for `queries` under one window length.
    pub fn new(queries: &[JoinQuery], window_ms: u64) -> Self {
        let mut seen: HashMap<RelationId, Seen> = HashMap::new();
        let compiled = queries
            .iter()
            .map(|q| {
                let per_start = q
                    .relations
                    .iter()
                    .map(|start| {
                        let steps = steps_from(q, start);
                        for step in &steps {
                            seen.entry(step.relation)
                                .or_default()
                                .index
                                .entry(step.links[0].0)
                                .or_default();
                        }
                        (start, steps)
                    })
                    .collect();
                (q.id.0, per_start)
            })
            .collect();
        Oracle {
            window_ms,
            queries: compiled,
            seen,
            counts: vec![0; queries.len()],
        }
    }

    /// Feeds the next tuple of the stream (timestamps must not decrease).
    pub fn push(&mut self, relation: RelationId, tuple: &Tuple) {
        let horizon = tuple.ts.as_millis().saturating_sub(self.window_ms);
        for (slot, (_, per_start)) in self.queries.iter().enumerate() {
            if let Some(steps) = per_start.get(&relation) {
                let mut bound = vec![tuple];
                self.counts[slot] += extend(&self.seen, steps, &mut bound, horizon);
            }
        }
        if let Some(seen) = self.seen.get_mut(&relation) {
            let position = seen.tuples.len() as u32;
            for (attr, by_value) in &mut seen.index {
                if let Some(value) = tuple.get(attr).filter(|v| !v.is_null()) {
                    by_value.entry(value.clone()).or_default().push(position);
                }
            }
            seen.tuples.push(tuple.clone());
        }
    }

    /// `(query id, results so far)`, sorted by query id.
    pub fn counts(&self) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self
            .queries
            .iter()
            .zip(&self.counts)
            .map(|((id, _), n)| (*id, *n))
            .collect();
        out.sort_unstable();
        out
    }
}

fn value_of<'t>(bound: &[&'t Tuple], attr: &AttrRef) -> Option<&'t Value> {
    bound.iter().find_map(|t| t.get(attr))
}

/// Counts the ways to bind the remaining `steps` given the tuples bound so
/// far, using only stored tuples not older than `horizon_ms`.
fn extend<'t>(
    seen: &'t HashMap<RelationId, Seen>,
    steps: &[Step],
    bound: &mut Vec<&'t Tuple>,
    horizon_ms: u64,
) -> u64 {
    let Some((step, rest)) = steps.split_first() else {
        return 1;
    };
    let stored = &seen[&step.relation];
    let (mine, theirs) = step.links[0];
    let Some(positions) = value_of(bound, &theirs).and_then(|v| stored.index[&mine].get(v)) else {
        return 0;
    };
    let mut total = 0;
    // Newest first: positions are in arrival order, so the first tuple
    // older than the horizon ends the scan.
    for &position in positions.iter().rev() {
        let candidate = &stored.tuples[position as usize];
        if candidate.ts.as_millis() < horizon_ms {
            break;
        }
        let holds = step.links[1..].iter().all(|(mine, theirs)| {
            match (candidate.get(mine), value_of(bound, theirs)) {
                (Some(a), Some(b)) => a.join_eq(b),
                _ => false,
            }
        });
        if holds {
            bound.push(candidate);
            total += extend(seen, rest, bound, horizon_ms);
            bound.pop();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_catalog::Catalog;
    use clash_common::{QueryId, Timestamp, TupleBuilder, Window};
    use clash_query::parse_query;

    fn tuple(catalog: &Catalog, relation: &str, ts: u64, values: &[(&str, i64)]) -> Tuple {
        let meta = catalog.relation_by_name(relation).unwrap();
        let mut b = TupleBuilder::new(&meta.schema, Timestamp::from_millis(ts));
        for (attr, v) in values {
            b = b.set(attr, *v);
        }
        b.build()
    }

    /// R(a) ⋈ S(a,b) ⋈ T(b) with a 100 ms window, counted by hand.
    #[test]
    fn window_is_measured_from_the_newest_constituent() {
        let mut catalog = Catalog::new();
        let w = Window::unbounded();
        catalog.register("R", ["a"], w, 1).unwrap();
        catalog.register("S", ["a", "b"], w, 1).unwrap();
        catalog.register("T", ["b"], w, 1).unwrap();
        let q = parse_query(&catalog, QueryId::new(3), "q", "R(a), S(a,b), T(b)").unwrap();
        let id = |n: &str| catalog.relation_id(n).unwrap();

        let mut oracle = Oracle::new(&[q], 100);
        oracle.push(id("R"), &tuple(&catalog, "R", 10, &[("a", 1)]));
        oracle.push(id("S"), &tuple(&catalog, "S", 60, &[("a", 1), ("b", 5)]));
        oracle.push(id("S"), &tuple(&catalog, "S", 70, &[("a", 2), ("b", 5)]));
        assert_eq!(oracle.counts(), [(3, 0)]);
        // T at 105: R(10) and S(60) are both within 100 ms -> 1 result
        // (S(70) has a = 2, no R partner).
        oracle.push(id("T"), &tuple(&catalog, "T", 105, &[("b", 5)]));
        assert_eq!(oracle.counts(), [(3, 1)]);
        // T at 150: S(60) is within 100 ms of it, but R(10) is not. A join
        // that only checks each pair it probes would count this.
        oracle.push(id("T"), &tuple(&catalog, "T", 150, &[("b", 5)]));
        assert_eq!(oracle.counts(), [(3, 1)]);
        // A late R joins S(70) and both live T tuples: 2 more.
        oracle.push(id("R"), &tuple(&catalog, "R", 160, &[("a", 2)]));
        assert_eq!(oracle.counts(), [(3, 3)]);
    }
}
