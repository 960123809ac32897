//! Synthetic environments: the ILP experiments (Fig. 9) and the
//! adaptivity scenario (Fig. 8).

use clash_catalog::{Catalog, Statistics};
use clash_common::{QueryId, RelationId, Result, Timestamp, Tuple, TupleBuilder, Window};
use clash_query::{EquiPredicate, JoinQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic environment of Section VII-C: `n`
/// relations with `attrs_per_relation` attributes each, identical arrival
/// rates, and pair-wise join selectivity `1/rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticWorkloadConfig {
    /// Number of input relations to draw from (10 or 100 in the paper).
    pub num_relations: usize,
    /// Attributes per relation (3 in the paper).
    pub attrs_per_relation: usize,
    /// Arrival rate of every relation in tuples per second.
    pub rate: f64,
    /// Store parallelism of every relation.
    pub parallelism: usize,
}

impl Default for SyntheticWorkloadConfig {
    fn default() -> Self {
        SyntheticWorkloadConfig {
            num_relations: 10,
            attrs_per_relation: 3,
            rate: 100.0,
            parallelism: 1,
        }
    }
}

/// A generated synthetic environment: catalog, statistics and a random
/// query generator.
#[derive(Debug)]
pub struct SyntheticEnv {
    /// Catalog with `num_relations` relations `S0, S1, ...`.
    pub catalog: Catalog,
    /// Uniform rates and `1/rate` selectivities.
    pub stats: Statistics,
    config: SyntheticWorkloadConfig,
    rng: StdRng,
}

impl SyntheticEnv {
    /// Builds the environment.
    pub fn new(config: SyntheticWorkloadConfig, seed: u64) -> Result<Self> {
        let mut catalog = Catalog::new();
        for i in 0..config.num_relations {
            let attrs: Vec<String> = (0..config.attrs_per_relation)
                .map(|a| format!("a{a}"))
                .collect();
            catalog.register(
                format!("S{i}"),
                attrs,
                Window::unbounded(),
                config.parallelism,
            )?;
        }
        let mut stats = Statistics::new();
        stats.default_selectivity = 1.0 / config.rate;
        for meta in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            stats.set_rate(meta, config.rate);
        }
        Ok(SyntheticEnv {
            catalog,
            stats,
            config,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Generates one random query over `size` relations: a random start
    /// relation, then joins are added to randomly chosen, not yet included
    /// relations until the desired size is reached (Section VII-A).
    pub fn random_query(&mut self, id: QueryId, size: usize) -> Result<JoinQuery> {
        let n = self.config.num_relations;
        assert!(size <= n, "query size exceeds relation count");
        let mut members: Vec<RelationId> = Vec::new();
        members.push(RelationId::from(self.rng.gen_range(0..n)));
        let mut predicates = Vec::new();
        while members.len() < size {
            let candidate = RelationId::from(self.rng.gen_range(0..n));
            if members.contains(&candidate) {
                continue;
            }
            // Join the new relation with a random existing member on random
            // attributes.
            let existing = members[self.rng.gen_range(0..members.len())];
            let a_existing = self.rng.gen_range(0..self.config.attrs_per_relation) as u32;
            let a_new = self.rng.gen_range(0..self.config.attrs_per_relation) as u32;
            predicates.push(EquiPredicate::new(
                clash_common::AttrRef::new(existing, clash_common::AttrId::new(a_existing)),
                clash_common::AttrRef::new(candidate, clash_common::AttrId::new(a_new)),
            ));
            members.push(candidate);
        }
        JoinQuery::new(
            id,
            format!("rq{}", id.0),
            members.into_iter().collect(),
            predicates,
        )
    }

    /// Generates `n_queries` random queries of the given size, skipping
    /// exact duplicates (as the paper does).
    pub fn random_queries(&mut self, n_queries: usize, size: usize) -> Result<Vec<JoinQuery>> {
        let mut out: Vec<JoinQuery> = Vec::new();
        let mut attempts = 0;
        while out.len() < n_queries && attempts < n_queries * 50 {
            attempts += 1;
            let q = self.random_query(QueryId::from(out.len()), size)?;
            let duplicate = out
                .iter()
                .any(|o| o.relations == q.relations && o.predicates == q.predicates);
            if !duplicate {
                out.push(q);
            }
        }
        Ok(out)
    }
}

/// The adaptivity scenario of Fig. 8: a four-way linear join
/// `R(a), S(a,b), T(b,c), U(c)` whose data characteristics flip mid-run.
///
/// * Phase 1: every tuple finds exactly one join partner per predicate
///   (selectivity `1/domain`).
/// * Phase 2 (after `shift_at`): `S` tuples find many partners in `R` but
///   none in `T` (and vice versa for `T`), which makes the initially
///   optimal probe orders explode — the situation a static plan cannot
///   recover from (Fig. 8a).
#[derive(Debug)]
pub struct AdaptiveScenario {
    /// Catalog with the four relations, window 5 s.
    pub catalog: Catalog,
    /// Prior statistics used for the initial deployment (slightly inflated
    /// S⋈T selectivity so the optimizer starts with ⟨S,R,T,U⟩ /
    /// ⟨T,U,R,S⟩-style orders, as in the paper).
    pub stats: Statistics,
    /// The query.
    pub query: JoinQuery,
    /// Stream time at which the data characteristics change.
    pub shift_at: Timestamp,
    key_domain: i64,
    rng: StdRng,
    next_ts: u64,
}

impl AdaptiveScenario {
    /// Creates the scenario. `key_domain` controls join fan-out; the shift
    /// happens at `shift_at`.
    pub fn new(key_domain: i64, shift_at: Timestamp, seed: u64) -> Result<Self> {
        let mut catalog = Catalog::new();
        catalog.register("R", ["a", "pay"], Window::secs(5), 1)?;
        catalog.register("S", ["a", "b"], Window::secs(5), 1)?;
        catalog.register("T", ["b", "c"], Window::secs(5), 1)?;
        catalog.register("U", ["c", "pay"], Window::secs(5), 1)?;
        let query = clash_query::parse_query(
            &catalog,
            QueryId::new(0),
            "q_adaptive",
            "R(a), S(a,b), T(b,c), U(c)",
        )?;
        let mut stats = Statistics::new();
        for id in catalog.iter().map(|m| m.id).collect::<Vec<_>>() {
            stats.set_rate(id, 1000.0);
        }
        stats.default_selectivity = 1.0 / key_domain as f64;
        // Inflate the S ⋈ T selectivity so the initial plan avoids it.
        stats.set_selectivity(
            catalog.attr("S", "b")?,
            catalog.attr("T", "b")?,
            2.0 / key_domain as f64,
        );
        Ok(AdaptiveScenario {
            catalog,
            stats,
            query,
            shift_at,
            key_domain,
            rng: StdRng::seed_from_u64(seed),
            next_ts: 0,
        })
    }

    /// Generates the next round of tuples (one per relation) at the given
    /// timestamp step, honoring the phase shift.
    pub fn next_round(&mut self, step_ms: u64) -> Vec<(RelationId, Tuple)> {
        self.next_ts += step_ms;
        let ts = Timestamp::from_millis(self.next_ts);
        let shifted = ts >= self.shift_at;
        let domain = self.key_domain;
        let mut out = Vec::with_capacity(4);
        let uniform = |rng: &mut StdRng| rng.gen_range(0..domain);

        // Keys per relation; after the shift S and T stop matching each
        // other (disjoint b-domains) while S.a collides heavily with R.a.
        let r_a = uniform(&mut self.rng);
        let s_a = if shifted { r_a } else { uniform(&mut self.rng) };
        let s_b = if shifted {
            domain + uniform(&mut self.rng)
        } else {
            uniform(&mut self.rng)
        };
        let t_b = uniform(&mut self.rng);
        let t_c = uniform(&mut self.rng);
        let u_c = uniform(&mut self.rng);

        for (name, values) in [
            ("R", vec![("a", r_a), ("pay", 0)]),
            ("S", vec![("a", s_a), ("b", s_b)]),
            ("T", vec![("b", t_b), ("c", t_c)]),
            ("U", vec![("c", u_c), ("pay", 0)]),
        ] {
            let meta = self.catalog.relation_by_name(name).expect("registered");
            let mut b = TupleBuilder::new(&meta.schema, ts);
            for (attr, v) in &values {
                b = b.set(attr, *v);
            }
            out.push((meta.id, b.build()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_env_builds_catalog_and_stats() {
        let env = SyntheticEnv::new(SyntheticWorkloadConfig::default(), 1).unwrap();
        assert_eq!(env.catalog.len(), 10);
        let r0 = env.catalog.relation_id("S0").unwrap();
        assert_eq!(env.stats.rate(r0), 100.0);
        assert!((env.stats.default_selectivity - 0.01).abs() < 1e-12);
    }

    #[test]
    fn random_queries_have_requested_size_and_are_connected() {
        let mut env = SyntheticEnv::new(SyntheticWorkloadConfig::default(), 2).unwrap();
        let queries = env.random_queries(20, 3).unwrap();
        assert_eq!(queries.len(), 20);
        for q in &queries {
            assert_eq!(q.size(), 3);
            assert!(q.validate().is_ok());
        }
        // No exact duplicates.
        for i in 0..queries.len() {
            for j in (i + 1)..queries.len() {
                assert!(
                    queries[i].relations != queries[j].relations
                        || queries[i].predicates != queries[j].predicates
                );
            }
        }
    }

    #[test]
    fn random_queries_with_100_relations() {
        let config = SyntheticWorkloadConfig {
            num_relations: 100,
            ..SyntheticWorkloadConfig::default()
        };
        let mut env = SyntheticEnv::new(config, 3).unwrap();
        let queries = env.random_queries(10, 5).unwrap();
        assert_eq!(queries.len(), 10);
        assert!(queries.iter().all(|q| q.size() == 5));
    }

    #[test]
    fn query_generation_is_deterministic_per_seed() {
        let cfg = SyntheticWorkloadConfig::default();
        let a = SyntheticEnv::new(cfg, 7)
            .unwrap()
            .random_queries(5, 3)
            .unwrap();
        let b = SyntheticEnv::new(cfg, 7)
            .unwrap()
            .random_queries(5, 3)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_scenario_shifts_characteristics() {
        let mut scenario = AdaptiveScenario::new(100, Timestamp::from_millis(5_000), 11).unwrap();
        assert_eq!(scenario.query.size(), 4);
        let (s_id, b_attr) = {
            let s_meta = scenario.catalog.relation_by_name("S").unwrap();
            (s_meta.id, s_meta.schema.attr_ref("b").unwrap())
        };
        // Before the shift: S.b stays inside the base domain.
        let round = scenario.next_round(10);
        assert_eq!(round.len(), 4);
        let s_tuple = &round.iter().find(|(id, _)| *id == s_id).unwrap().1;
        assert!(s_tuple.get(&b_attr).unwrap().as_int().unwrap() < 100);
        // After the shift: S.b leaves the domain (no partners in T) and
        // S.a equals R.a (fan-out against R).
        for _ in 0..600 {
            scenario.next_round(10);
        }
        let round = scenario.next_round(10);
        let s_tuple = &round.iter().find(|(id, _)| *id == s_id).unwrap().1;
        assert!(s_tuple.get(&b_attr).unwrap().as_int().unwrap() >= 100);
    }
}
