//! The exactness fixtures: the catalogs, the random stream, the result
//! rendering and the brute-force reference that every engine-equivalence
//! test draws on.
//!
//! Multi-query optimization promises that the shared topology answers
//! every query with exactly the multiset independent execution would.
//! These pieces state that promise once: a test builds a fixture, draws a
//! stream, runs it (`clash_bench::exactness` drives the engines) and
//! compares rendered multisets — with each other, and with
//! [`reference_results`], which shares nothing with the engines.

use clash_catalog::Catalog;
use clash_common::{AttrRef, QueryId, RelationId, Timestamp, Tuple, TupleBuilder, Value, Window};
use clash_query::{parse_query, JoinQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::mpsc::Receiver;

/// A(x), B(x,y), C(y,z), D(z), with `windows` and `parallelism` given per
/// relation in that order, and the two chains over it that share B ⋈ C:
/// `q1 = A(x), B(x,y), C(y)` and `q2 = B(y), C(y,z), D(z)`.
pub fn two_chains(windows: [Window; 4], parallelism: [usize; 4]) -> (Catalog, Vec<JoinQuery>) {
    let mut catalog = Catalog::new();
    let schemas: [(&str, &[&str]); 4] = [
        ("A", &["x"]),
        ("B", &["x", "y"]),
        ("C", &["y", "z"]),
        ("D", &["z"]),
    ];
    for (i, (name, attrs)) in schemas.into_iter().enumerate() {
        catalog
            .register(name, attrs.iter().copied(), windows[i], parallelism[i])
            .expect("register");
    }
    let q1 = parse_query(&catalog, QueryId::new(0), "q1", "A(x), B(x,y), C(y)").expect("q1");
    let q2 = parse_query(&catalog, QueryId::new(1), "q2", "B(y), C(y,z), D(z)").expect("q2");
    (catalog, vec![q1, q2])
}

/// A(x), B(x,y), C(y,z), D(z,w), E(w) over one window, A–D partitioned
/// `parallelism` ways and E unpartitioned, with the five-way chain
/// `chain5` over all of them: its results are built through two levels of
/// intermediate stores, so they are deep ropes.
pub fn five_chain(window: Window, parallelism: usize) -> (Catalog, Vec<JoinQuery>) {
    let mut catalog = Catalog::new();
    let schemas: [(&str, &[&str]); 5] = [
        ("A", &["x"]),
        ("B", &["x", "y"]),
        ("C", &["y", "z"]),
        ("D", &["z", "w"]),
        ("E", &["w"]),
    ];
    for (name, attrs) in schemas {
        let parallelism = if name == "E" { 1 } else { parallelism };
        catalog
            .register(name, attrs.iter().copied(), window, parallelism)
            .expect("register");
    }
    let chain = "A(x), B(x,y), C(y,z), D(z,w), E(w)";
    let q = parse_query(&catalog, QueryId::new(0), "chain5", chain).expect("chain5");
    (catalog, vec![q])
}

/// How a random stream is laid out: one tuple of each relation per round,
/// in `relations` order, `step_ms` apart. With `jitter_ms > 0` each tuple's
/// timestamp moves forward by a draw from `0..jitter_ms`, so a tuple may
/// carry a smaller timestamp than one that arrived before it.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape<'a> {
    /// Relation names, in arrival order within a round.
    pub relations: &'a [&'a str],
    /// Stream-time distance between consecutive arrivals.
    pub step_ms: u64,
    /// Exclusive bound of the out-of-order jitter (0: in order).
    pub jitter_ms: u64,
}

impl StreamShape<'_> {
    /// `per_relation` rounds with every attribute drawn from `keys`,
    /// seeded by `seed`. Each tuple draws its jitter (if any) before its
    /// keys, so one seed always yields one stream.
    pub fn draw(
        &self,
        catalog: &Catalog,
        per_relation: usize,
        keys: Range<i64>,
        seed: u64,
    ) -> Vec<(RelationId, Tuple)> {
        let metas: Vec<_> = self
            .relations
            .iter()
            .map(|name| catalog.relation_by_name(name).expect("relation"))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = Vec::with_capacity(per_relation * metas.len());
        let mut ts = 0u64;
        for _ in 0..per_relation {
            for meta in &metas {
                ts += self.step_ms;
                let jitter = if self.jitter_ms > 0 {
                    rng.gen_range(0..self.jitter_ms)
                } else {
                    0
                };
                let mut b = TupleBuilder::new(&meta.schema, Timestamp::from_millis(ts + jitter));
                for attr in &meta.schema.attributes {
                    b = b.set(&attr.name, rng.gen_range(keys.clone()));
                }
                stream.push((meta.id, b.build()));
            }
        }
        stream
    }
}

/// One result as `query|ts|attributes`, its `attr=value` pairs sorted:
/// the same string whatever shape of join built it.
pub fn render(query: QueryId, tuple: &Tuple) -> String {
    render_pairs(query, tuple.ts, tuple.iter())
}

fn render_pairs<'a>(
    query: QueryId,
    ts: Timestamp,
    pairs: impl IntoIterator<Item = (AttrRef, &'a Value)>,
) -> String {
    let mut attrs: Vec<String> = pairs.into_iter().map(|(a, v)| format!("{a}={v}")).collect();
    attrs.sort();
    format!("{query}|{ts}|{}", attrs.join(","))
}

/// The sorted rendered multiset of `results`.
pub fn multiset(results: &[(QueryId, Tuple)]) -> Vec<String> {
    let mut rendered: Vec<String> = results.iter().map(|(q, t)| render(*q, t)).collect();
    rendered.sort();
    rendered
}

/// The rendered multiset a subscription has received so far.
pub fn received(rx: &Receiver<(QueryId, Tuple)>) -> Vec<String> {
    multiset(&rx.try_iter().collect::<Vec<_>>())
}

/// The results of `query` in a rendered multiset, still sorted.
pub fn of_query(multiset: &[String], query: QueryId) -> Vec<String> {
    let prefix = format!("{query}|");
    multiset
        .iter()
        .filter(|r| r.starts_with(&prefix))
        .cloned()
        .collect()
}

/// The brute-force reference, sharing nothing with the engines (no plans,
/// stores, epochs, probe orders or rule kernel): every combination of one
/// `stream` tuple per relation of `query` that satisfies all its
/// predicates, and whose constituents each lie within their own
/// relation's window (read from `catalog`) of the newest one, is one
/// result. Rendered as [`render`] renders an engine's result, whose `ts`
/// is its newest constituent's; returns the sorted multiset. Both engines
/// run one rule kernel, so this is what keeps their agreement from being
/// circular.
///
/// The contract is the engines' on in-order input with distinct
/// timestamps: there, each result is produced exactly once, by the probe
/// of its newest constituent.
pub fn reference_results(
    catalog: &Catalog,
    query: &JoinQuery,
    stream: &[(RelationId, Tuple)],
) -> Vec<String> {
    let relations: Vec<RelationId> = query.relations.iter().collect();
    let windows: Vec<Window> = relations
        .iter()
        .map(|r| catalog.relation(*r).expect("relation").window)
        .collect();
    let per_relation: Vec<Vec<&Tuple>> = relations
        .iter()
        .map(|r| {
            stream
                .iter()
                .filter(|(rel, _)| rel == r)
                .map(|(_, t)| t)
                .collect()
        })
        .collect();
    // Backtracking over one tuple per relation.
    fn recurse<'a>(
        query: &JoinQuery,
        windows: &[Window],
        per_relation: &[Vec<&'a Tuple>],
        chosen: &mut Vec<&'a Tuple>,
        out: &mut Vec<String>,
    ) {
        if chosen.len() == per_relation.len() {
            let newest = chosen.iter().map(|t| t.ts).max().unwrap_or_default();
            if chosen
                .iter()
                .zip(windows)
                .all(|(t, window)| window.contains(newest, t.ts))
            {
                let pairs = chosen.iter().flat_map(|t| t.iter());
                out.push(render_pairs(query.id, newest, pairs));
            }
            return;
        }
        'next: for t in &per_relation[chosen.len()] {
            for p in &query.predicates {
                let side = |attr| {
                    chosen
                        .iter()
                        .chain(std::iter::once(t))
                        .find_map(|c| c.get(attr))
                };
                if let (Some(l), Some(r)) = (side(&p.left), side(&p.right)) {
                    if !l.join_eq(r) {
                        continue 'next;
                    }
                }
            }
            chosen.push(t);
            recurse(query, windows, per_relation, chosen, out);
            chosen.pop();
        }
    }
    let mut out = Vec::new();
    recurse(query, &windows, &per_relation, &mut Vec::new(), &mut out);
    out.sort();
    out
}
