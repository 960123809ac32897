//! # clash-datagen
//!
//! Workload and data generators for the CLASH-MQO experiments.
//!
//! * [`tpch`] — a TPC-H-shaped streaming schema (region, nation, supplier,
//!   partsupp, part, lineitem, orders, customer), the five-query workload
//!   of Fig. 7a plus the extended ten-query workload, and a tuple
//!   generator that preserves the key relationships and the
//!   high/low-selectivity attribute pairs the paper exploits. The real
//!   TPC-H SF-10 data set streamed through Kafka is substituted by this
//!   generator (see DESIGN.md).
//! * [`synthetic`] — the synthetic environments of the ILP experiments
//!   (Fig. 9): `n` input relations with uniform rates, pair-wise
//!   selectivity `1/rate`, and random queries of a given size; plus the
//!   4-way linear query scenario with a mid-run selectivity shift used in
//!   the adaptivity experiments (Fig. 8).
//! * [`zipf`] — a seeded Zipfian rank sampler for the skew experiments
//!   (hot-key distributions the uniform generators never produce).
//! * [`exactness`] — the fixtures of the engine-equivalence tests: two
//!   small chain catalogs, a seeded random stream, one rendering of a
//!   result multiset and the brute-force windowed reference join.

pub mod exactness;
pub mod synthetic;
pub mod tpch;
pub mod zipf;

pub use synthetic::{AdaptiveScenario, SyntheticEnv, SyntheticWorkloadConfig};
pub use tpch::{TpchGenerator, TpchWorkload};
pub use zipf::ZipfSampler;
