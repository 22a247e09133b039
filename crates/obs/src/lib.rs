//! Observability for the aggregate-aware cache: typed trace events, a
//! zero-cost-when-disabled [`Tracer`] trait, and a [`MetricsRegistry`]
//! that aggregates events into per-group-by-level counters and latency
//! histograms with a JSON exporter.
//!
//! This crate sits at the bottom of the workspace dependency graph (it
//! depends on nothing), so the cache, store and core layers can all emit
//! [`Event`]s. Events therefore use primitive field types: group-bys as
//! `u32` ids, chunks as `u64` numbers.
//!
//! # Time domains
//!
//! Two clocks run through the system and are **never mixed**:
//!
//! * **Virtual time** — deterministic milliseconds charged by the cost
//!   models (backend fetch cost, per-tuple aggregation rates). Identical
//!   across runs and hardware; this is what the paper's tables/figures
//!   report. Fields: `*_virtual_ms`; registry namespace: `virtual_us`.
//! * **Wall time** — measured nanoseconds of the real implementation.
//!   Fields: `*_ns`; registry namespace: `wall_ns`.
//!
//! Tracing reads both clocks but mutates neither: enabling a tracer
//! changes no virtual-time output bit.
//!
//! # Usage
//!
//! ```
//! use aggcache_obs::{Event, MetricsRegistry, RecordingTracer, Tracer};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(RecordingTracer::new());
//! recorder.emit(&Event::GroupBoost { chunks: 2, amount: 1.0 });
//! assert_eq!(recorder.len(), 1);
//!
//! let registry = MetricsRegistry::new();
//! registry.emit(&recorder.events()[0]);
//! assert_eq!(registry.counter("group_boosts"), 1);
//! ```

#![deny(missing_docs)]

mod event;
mod histogram;
pub mod json;
mod registry;
mod tracer;

pub use event::{Event, LookupOutcome, Tier};
pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use registry::{LevelStats, MetricsRegistry, TenantStats};
pub use tracer::{FanoutTracer, RecordingTracer, Tracer};
