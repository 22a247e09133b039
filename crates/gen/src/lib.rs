//! Schema and data generation for aggregate-aware caching experiments.
//!
//! The paper evaluates on the APB-1 benchmark (OLAP Council): five
//! dimensions with hierarchy sizes (6, 2, 3, 1, 1) — Product, Customer,
//! Time, Channel, Scenario — giving a 336-node group-by lattice, a
//! `HistSale` fact table of about one million 20-byte tuples at level
//! `(6, 2, 3, 1, 0)`, and a chunk census of 32 256 chunks across all
//! levels (Table 3).
//!
//! The original APB data generator is long gone; [`Apb1Config`] rebuilds
//! the *shape* of that benchmark — lattice, cardinalities, chunk counts,
//! tuple count, density — which is what drives every quantity the paper
//! measures. [`SyntheticSpec`] builds arbitrary smaller schemas for tests
//! and property checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apb1;
mod dataset;
mod synthetic;

pub use apb1::{apb1_chunk_counts, apb1_schema, hist_sale_gb, Apb1Config};
pub use dataset::Dataset;
pub use synthetic::{fig4_spec, SyntheticSpec};
