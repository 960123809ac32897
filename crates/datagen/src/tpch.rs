//! TPC-H-shaped streaming schema, workloads and data generator.

use clash_catalog::{Catalog, Statistics};
use clash_common::{QueryId, RelationId, Result, Timestamp, Tuple, TupleBuilder, Value, Window};
use clash_query::{JoinQuery, QueryBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The TPC-H-shaped workload: catalog, statistics prior and query sets.
#[derive(Debug)]
pub struct TpchWorkload {
    /// Catalog with the eight TPC-H relations registered.
    pub catalog: Catalog,
    /// Statistics prior reflecting the relative TPC-H cardinalities.
    pub stats: Statistics,
}

/// Relative cardinality weights of the TPC-H relations (per scale factor):
/// lineitem 6M, orders 1.5M, partsupp 800k, part 200k, customer 150k,
/// supplier 10k, nation 25, region 5.
const REL_WEIGHTS: &[(&str, f64)] = &[
    ("region", 5.0),
    ("nation", 25.0),
    ("supplier", 10_000.0),
    ("customer", 150_000.0),
    ("part", 200_000.0),
    ("partsupp", 800_000.0),
    ("orders", 1_500_000.0),
    ("lineitem", 6_000_000.0),
];

impl TpchWorkload {
    /// Builds the catalog and statistics. `parallelism` is the number of
    /// partitions per store; `window` applies to every relation.
    pub fn new(parallelism: usize, window: Window) -> Result<Self> {
        let mut catalog = Catalog::new();
        catalog.register("region", ["regionkey", "name"], window, 1)?;
        catalog.register("nation", ["nationkey", "regionkey", "name"], window, 1)?;
        catalog.register(
            "supplier",
            ["suppkey", "nationkey", "acctbal"],
            window,
            parallelism,
        )?;
        catalog.register(
            "customer",
            ["custkey", "nationkey", "mktsegment"],
            window,
            parallelism,
        )?;
        catalog.register("part", ["partkey", "brand", "size"], window, parallelism)?;
        catalog.register(
            "partsupp",
            ["partkey", "suppkey", "supplycost"],
            window,
            parallelism,
        )?;
        catalog.register(
            "orders",
            ["orderkey", "custkey", "orderstatus", "totalprice"],
            window,
            parallelism,
        )?;
        catalog.register(
            "lineitem",
            ["orderkey", "partkey", "suppkey", "linestatus", "quantity"],
            window,
            parallelism,
        )?;

        let mut stats = Statistics::new();
        let total: f64 = REL_WEIGHTS.iter().map(|(_, w)| w).sum();
        for (name, weight) in REL_WEIGHTS {
            let id = catalog.relation_id(name).expect("registered");
            // Normalize to a combined arrival rate of ~10k tuples/second.
            stats.set_rate(id, 10_000.0 * weight / total);
        }
        // Primary/foreign-key joins: selectivity ~ 1/|referenced keys|.
        let pk_fk = [
            ("nation", "regionkey", "region", "regionkey", 1.0 / 5.0),
            ("supplier", "nationkey", "nation", "nationkey", 1.0 / 25.0),
            ("customer", "nationkey", "nation", "nationkey", 1.0 / 25.0),
            ("partsupp", "suppkey", "supplier", "suppkey", 1.0 / 10_000.0),
            ("partsupp", "partkey", "part", "partkey", 1.0 / 200_000.0),
            ("orders", "custkey", "customer", "custkey", 1.0 / 150_000.0),
            (
                "lineitem",
                "orderkey",
                "orders",
                "orderkey",
                1.0 / 1_500_000.0,
            ),
            ("lineitem", "partkey", "part", "partkey", 1.0 / 200_000.0),
            ("lineitem", "suppkey", "supplier", "suppkey", 1.0 / 10_000.0),
        ];
        for (r1, a1, r2, a2, sel) in pk_fk {
            stats.set_selectivity(catalog.attr(r1, a1)?, catalog.attr(r2, a2)?, sel);
        }
        // The high-selectivity status join the paper singles out:
        // lineitem.linestatus = orders.orderstatus over a 3-value domain.
        stats.set_selectivity(
            catalog.attr("lineitem", "linestatus")?,
            catalog.attr("orders", "orderstatus")?,
            1.0 / 3.0,
        );
        Ok(TpchWorkload { catalog, stats })
    }

    /// The five queries of Fig. 7a:
    /// q1: region–nation–supplier–partsupp, q2: nation–supplier–partsupp–part,
    /// q3: supplier–partsupp–part–lineitem, q4: supplier–partsupp–lineitem–orders,
    /// q5: part–partsupp–lineitem–orders.
    pub fn five_queries(&self) -> Result<Vec<JoinQuery>> {
        let c = &self.catalog;
        let q = |id: u32, name: &str| QueryBuilder::new(QueryId::new(id), name, c);
        Ok(vec![
            q(0, "q1")
                .join("region", "regionkey", "nation", "regionkey")?
                .join("nation", "nationkey", "supplier", "nationkey")?
                .join("supplier", "suppkey", "partsupp", "suppkey")?
                .build()?,
            q(1, "q2")
                .join("nation", "nationkey", "supplier", "nationkey")?
                .join("supplier", "suppkey", "partsupp", "suppkey")?
                .join("partsupp", "partkey", "part", "partkey")?
                .build()?,
            q(2, "q3")
                .join("supplier", "suppkey", "partsupp", "suppkey")?
                .join("partsupp", "partkey", "part", "partkey")?
                .join("part", "partkey", "lineitem", "partkey")?
                .build()?,
            q(3, "q4")
                .join("supplier", "suppkey", "partsupp", "suppkey")?
                .join("partsupp", "partkey", "lineitem", "partkey")?
                .join("lineitem", "orderkey", "orders", "orderkey")?
                .build()?,
            q(4, "q5")
                .join("part", "partkey", "partsupp", "partkey")?
                .join("partsupp", "suppkey", "lineitem", "suppkey")?
                .join("lineitem", "orderkey", "orders", "orderkey")?
                .build()?,
        ])
    }

    /// The extended ten-query workload: the five queries of Fig. 7a plus
    /// five more with partly overlapping joins (customer/orders/lineitem
    /// chains and the high-selectivity status join).
    pub fn ten_queries(&self) -> Result<Vec<JoinQuery>> {
        let c = &self.catalog;
        let mut queries = self.five_queries()?;
        let q = |id: u32, name: &str| QueryBuilder::new(QueryId::new(id), name, c);
        queries.push(
            q(5, "q6")
                .join("customer", "nationkey", "nation", "nationkey")?
                .join("nation", "regionkey", "region", "regionkey")?
                .build()?,
        );
        queries.push(
            q(6, "q7")
                .join("customer", "custkey", "orders", "custkey")?
                .join("orders", "orderkey", "lineitem", "orderkey")?
                .build()?,
        );
        queries.push(
            q(7, "q8")
                .join("orders", "orderkey", "lineitem", "orderkey")?
                .join("lineitem", "suppkey", "supplier", "suppkey")?
                .build()?,
        );
        queries.push(
            q(8, "q9")
                .join("orders", "orderstatus", "lineitem", "linestatus")?
                .build()?,
        );
        queries.push(
            q(9, "q10")
                .join("supplier", "nationkey", "nation", "nationkey")?
                .join("supplier", "suppkey", "lineitem", "suppkey")?
                .join("lineitem", "orderkey", "orders", "orderkey")?
                .build()?,
        );
        Ok(queries)
    }
}

/// Streaming tuple generator over the TPC-H-shaped schema.
///
/// Key domains scale with `scale`: e.g. `scale = 0.01` yields 100 supplier
/// keys and 2 000 part keys, keeping join hit rates proportional to the
/// original data while staying laptop-sized.
#[derive(Debug)]
pub struct TpchGenerator {
    rng: StdRng,
    scale: f64,
    next_ts: u64,
    ts_step: u64,
    counter: u64,
    /// Interned categorical string values: repeated flags share one
    /// `Arc<str>` across every generated tuple (and therefore across every
    /// store index key built from them) instead of allocating a fresh
    /// string per tuple.
    statuses: [Value; 3],
    region_name: Value,
    nation_name: Value,
    mktsegment: Value,
}

impl TpchGenerator {
    /// Creates a generator with the given scale factor and RNG seed.
    pub fn new(scale: f64, seed: u64) -> Self {
        TpchGenerator {
            rng: StdRng::seed_from_u64(seed),
            scale: scale.max(1e-6),
            next_ts: 0,
            ts_step: 1,
            counter: 0,
            statuses: [Value::str("F"), Value::str("O"), Value::str("P")],
            region_name: Value::str("REGION"),
            nation_name: Value::str("NATION"),
            mktsegment: Value::str("BUILDING"),
        }
    }

    fn key(&mut self, base: f64) -> i64 {
        let domain = (base * self.scale).ceil().max(1.0) as i64;
        self.rng.gen_range(0..domain)
    }

    fn ts(&mut self) -> Timestamp {
        self.next_ts += self.ts_step;
        Timestamp::from_millis(self.next_ts)
    }

    /// Generates the next tuple of the named relation. Builders write into
    /// arena-backed leaf buffers, resolving names through the schema;
    /// categorical strings are interned `Arc<str>` clones, not fresh
    /// allocations.
    pub fn tuple(&mut self, workload: &TpchWorkload, relation: &str) -> Result<Tuple> {
        let meta = workload.catalog.relation_by_name(relation)?;
        let ts = self.ts();
        self.counter += 1;
        let builder = TupleBuilder::new(&meta.schema, ts);
        let t = match relation {
            "region" => builder
                .set("regionkey", self.rng.gen_range(0..5i64))
                .set("name", self.region_name.clone())
                .build(),
            "nation" => builder
                .set("nationkey", self.rng.gen_range(0..25i64))
                .set("regionkey", self.rng.gen_range(0..5i64))
                .set("name", self.nation_name.clone())
                .build(),
            "supplier" => {
                let k = self.key(10_000.0);
                builder
                    .set("suppkey", k)
                    .set("nationkey", self.rng.gen_range(0..25i64))
                    .set("acctbal", self.rng.gen_range(0..100_000i64))
                    .build()
            }
            "customer" => {
                let k = self.key(150_000.0);
                builder
                    .set("custkey", k)
                    .set("nationkey", self.rng.gen_range(0..25i64))
                    .set("mktsegment", self.mktsegment.clone())
                    .build()
            }
            "part" => {
                let k = self.key(200_000.0);
                builder
                    .set("partkey", k)
                    .set("brand", self.rng.gen_range(0..25i64))
                    .set("size", self.rng.gen_range(1..50i64))
                    .build()
            }
            "partsupp" => {
                let pk = self.key(200_000.0);
                let sk = self.key(10_000.0);
                builder
                    .set("partkey", pk)
                    .set("suppkey", sk)
                    .set("supplycost", self.rng.gen_range(1..1_000i64))
                    .build()
            }
            "orders" => {
                let ok = self.key(1_500_000.0);
                let ck = self.key(150_000.0);
                builder
                    .set("orderkey", ok)
                    .set("custkey", ck)
                    .set(
                        "orderstatus",
                        self.statuses[self.rng.gen_range(0..3)].clone(),
                    )
                    .set("totalprice", self.rng.gen_range(1..500_000i64))
                    .build()
            }
            "lineitem" => {
                let ok = self.key(1_500_000.0);
                let pk = self.key(200_000.0);
                let sk = self.key(10_000.0);
                builder
                    .set("orderkey", ok)
                    .set("partkey", pk)
                    .set("suppkey", sk)
                    .set(
                        "linestatus",
                        self.statuses[self.rng.gen_range(0..3)].clone(),
                    )
                    .set("quantity", self.rng.gen_range(1..50i64))
                    .build()
            }
            other => {
                return Err(clash_common::ClashError::unknown(format!(
                    "TPC-H relation {other}"
                )))
            }
        };
        Ok(t)
    }

    /// Generates a mixed stream of `n` tuples whose per-relation frequency
    /// follows the TPC-H cardinality weights. Returns `(relation, tuple)`
    /// pairs in timestamp order.
    pub fn mixed_stream(
        &mut self,
        workload: &TpchWorkload,
        n: usize,
    ) -> Result<Vec<(RelationId, Tuple)>> {
        let total: f64 = REL_WEIGHTS.iter().map(|(_, w)| w).sum();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut pick = self.rng.gen_range(0.0..total);
            let mut chosen = REL_WEIGHTS[REL_WEIGHTS.len() - 1].0;
            for (name, w) in REL_WEIGHTS {
                if pick < *w {
                    chosen = name;
                    break;
                }
                pick -= w;
            }
            let id = workload.catalog.relation_id(chosen).expect("registered");
            let tuple = self.tuple(workload, chosen)?;
            out.push((id, tuple));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_has_all_relations_and_queries() {
        let w = TpchWorkload::new(2, Window::secs(60)).unwrap();
        assert_eq!(w.catalog.len(), 8);
        let five = w.five_queries().unwrap();
        assert_eq!(five.len(), 5);
        assert!(five.iter().all(|q| q.size() == 4));
        let ten = w.ten_queries().unwrap();
        assert_eq!(ten.len(), 10);
        for q in &ten {
            assert!(q.validate().is_ok());
        }
        // Query ids are unique.
        let mut ids: Vec<u32> = ten.iter().map(|q| q.id.0).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn statistics_reflect_cardinality_ordering() {
        let w = TpchWorkload::new(1, Window::secs(60)).unwrap();
        let lineitem = w.catalog.relation_id("lineitem").unwrap();
        let region = w.catalog.relation_id("region").unwrap();
        assert!(w.stats.rate(lineitem) > w.stats.rate(region));
        // The status join is high selectivity (1/3), the key joins are low.
        let hi = w.stats.selectivity(
            w.catalog.attr("lineitem", "linestatus").unwrap(),
            w.catalog.attr("orders", "orderstatus").unwrap(),
        );
        let lo = w.stats.selectivity(
            w.catalog.attr("lineitem", "orderkey").unwrap(),
            w.catalog.attr("orders", "orderkey").unwrap(),
        );
        assert!(hi > lo * 100.0);
    }

    #[test]
    fn generator_produces_schema_conforming_tuples() {
        let w = TpchWorkload::new(1, Window::secs(60)).unwrap();
        let mut gen = TpchGenerator::new(0.01, 7);
        for name in [
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        ] {
            let t = gen.tuple(&w, name).unwrap();
            let meta = w.catalog.relation_by_name(name).unwrap();
            assert_eq!(t.arity(), meta.schema.arity(), "{name} arity");
            assert!(t.relations.contains(meta.id));
        }
        assert!(gen.tuple(&w, "bogus").is_err());
    }

    #[test]
    fn mixed_stream_is_timestamp_ordered_and_weighted() {
        let w = TpchWorkload::new(1, Window::secs(60)).unwrap();
        let mut gen = TpchGenerator::new(0.01, 42);
        let stream = gen.mixed_stream(&w, 2_000).unwrap();
        assert_eq!(stream.len(), 2_000);
        for win in stream.windows(2) {
            assert!(win[0].1.ts <= win[1].1.ts);
        }
        let lineitem = w.catalog.relation_id("lineitem").unwrap();
        let region = w.catalog.relation_id("region").unwrap();
        let li_count = stream.iter().filter(|(r, _)| *r == lineitem).count();
        let re_count = stream.iter().filter(|(r, _)| *r == region).count();
        assert!(li_count > re_count, "lineitem dominates the stream");
    }

    #[test]
    fn categorical_strings_are_interned_across_tuples() {
        let w = TpchWorkload::new(1, Window::secs(60)).unwrap();
        let mut gen = TpchGenerator::new(0.01, 3);
        let name_attr = w.catalog.attr("region", "name").unwrap();
        let a = gen.tuple(&w, "region").unwrap();
        let b = gen.tuple(&w, "region").unwrap();
        let (sa, sb) = (
            a.get(&name_attr).unwrap().as_str().unwrap(),
            b.get(&name_attr).unwrap().as_str().unwrap(),
        );
        assert_eq!(sa, "REGION");
        // Same backing Arc<str>, not merely equal content.
        assert!(
            std::ptr::eq(sa.as_ptr(), sb.as_ptr()),
            "repeated categorical value must share one interned allocation"
        );
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let w = TpchWorkload::new(1, Window::secs(60)).unwrap();
        let a: Vec<_> = TpchGenerator::new(0.01, 9).mixed_stream(&w, 100).unwrap();
        let b: Vec<_> = TpchGenerator::new(0.01, 9).mixed_stream(&w, 100).unwrap();
        assert_eq!(a, b);
        let c: Vec<_> = TpchGenerator::new(0.01, 10).mixed_stream(&w, 100).unwrap();
        assert_ne!(a, c);
    }
}
