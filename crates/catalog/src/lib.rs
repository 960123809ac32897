//! # clash-catalog
//!
//! The catalog of streamed input relations and the data-characteristic
//! statistics that drive the optimizer.
//!
//! The paper's architecture (Fig. 2) contains a *statistics controller*
//! that samples input data per epoch and feeds rates and selectivities into
//! the ILP optimizer. This crate provides the passive side of that design:
//!
//! * [`Catalog`] — registry of streamed relations, their schemas, windows
//!   and store parallelism (number of partitions per store),
//! * [`Statistics`] — arrival rates and pair-wise equi-join selectivities,
//!   the inputs of the probe-cost model (Equation 1). The runtime's
//!   statistics collector builds a fresh snapshot per epoch, and the
//!   adaptive controller hands it to the optimizer by value.

pub mod catalog;
pub mod relation;
pub mod stats;

pub use catalog::Catalog;
pub use relation::RelationMeta;
pub use stats::Statistics;
