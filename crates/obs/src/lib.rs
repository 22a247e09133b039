//! Observability for the aggregate-aware cache: typed trace events, a
//! zero-cost-when-disabled [`Tracer`] trait, a [`RecordingTracer`] that
//! keeps the event stream and a [`MetricsRegistry`] that counts it by kind.
//!
//! Tracers observe; no reported result is folded from them. The paper's
//! numbers come from the answers themselves (`QueryMetrics` and the
//! ledgers beside it).
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
//!   report. Fields: `*_virtual_ms`.
//! * **Wall time** — measured nanoseconds of the real implementation.
//!   Fields: `*_ns`.
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
//! assert_eq!(registry.counter("group_boost"), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod event;
pub mod json;
mod registry;
mod tracer;

pub use event::{Event, LookupOutcome, Tier};
pub use registry::MetricsRegistry;
pub use tracer::{RecordingTracer, Tracer};
