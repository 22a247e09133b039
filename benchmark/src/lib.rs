//! `bench_all`: the repo's wall-clock benchmark.
//!
//! Six end-to-end workloads over the APB-1 dataset, each run untraced
//! (end-to-end metrics) and traced (per-layer metrics from harness-side
//! spans), plus a `layers` pass of microbenchmarks over public functions.
//! See `benchmark/README.md` for the workloads, the metrics and how they
//! are expected to interact.
//!
//! Everything here sits outside the program under test: spans are taken
//! around calls into the crates, never inside them, and the program only
//! ever receives generated [`aggcache_core::QueryRequest`]s and
//! [`aggcache_core::DeltaBatch`]es, never a seed.

pub mod args;
pub mod driver;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod scratch;
pub mod span;
pub mod stats;
pub mod suite;
pub mod timed;
pub mod workloads;
