//! Multi-dimensional OLAP schema model for aggregate-aware caching.
//!
//! This crate provides the *logical* model underlying the EDBT 2000 paper
//! "Aggregate Aware Caching for Multi-Dimensional Queries" (Deshpande &
//! Naughton):
//!
//! * [`Dimension`] — a dimension with a value hierarchy. Each hierarchy
//!   level has a cardinality and a monotone *roll-up map* taking a value at
//!   level `l` to its ancestor at level `l - 1` (level 0 is the most
//!   aggregated level, level `h` the most detailed).
//! * [`Schema`] — an ordered set of dimensions plus a measure.
//! * [`Lattice`] — the lattice of group-bys formed by the per-dimension
//!   levels under the "can be computed from" partial order, with parent /
//!   child navigation, descendant counting, and the Lemma 1 path-count
//!   formula.
//!
//! # Conventions (kept identical to the paper)
//!
//! * A group-by is a level tuple `(l_1, …, l_n)`. `(0, …, 0)` is the most
//!   aggregated group-by and `(h_1, …, h_n)` is the *base* group-by.
//! * A **parent** of a group-by is one step *more detailed* (one coordinate
//!   `+1`); a **child** is one step more aggregated. Data flows from parents
//!   to children by aggregation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dimension;
mod error;
mod lattice;
mod schema;

pub use dimension::Dimension;
pub use error::SchemaError;
pub use lattice::{GroupById, Lattice, LevelIter};
pub use schema::Schema;

/// A group-by level tuple: one hierarchy level per dimension.
///
/// `(0, …, 0)` is the most aggregated group-by; `(h_1, …, h_n)` is the base.
pub type Level = Vec<u8>;
