//! # aggcache — Aggregate Aware Caching for Multi-Dimensional Queries
//!
//! A Rust implementation of Deshpande & Naughton's EDBT 2000 paper:
//! a chunk-based OLAP middle-tier cache that answers queries not only from
//! chunks it holds, but by **aggregating cached chunks** across the
//! group-by lattice — with the paper's four lookup algorithms (ESM, ESMC,
//! VCM, VCMC), virtual-count and cost-table maintenance, and the two-level
//! replacement policy.
//!
//! ## Quick start
//!
//! ```
//! use aggcache::prelude::*;
//!
//! // A small synthetic cube: 2 dimensions, data at the lattice base.
//! let dataset = SyntheticSpec::new()
//!     .dim("product", vec![1, 3, 12], vec![1, 3, 6])
//!     .dim("store", vec![1, 8], vec![1, 4])
//!     .tuples(500)
//!     .build();
//!
//! let backend = Backend::new(dataset.fact, AggFn::Sum, BackendCostModel::default());
//! let mut manager = CacheManager::builder()
//!     .strategy(Strategy::Vcmc)
//!     .policy(PolicyKind::TwoLevel)
//!     .cache_bytes(64 * 1024)
//!     .build(backend)
//!     .unwrap();
//!
//! // First query: chunks come from the backend and are cached.
//! let grid = manager.grid().clone();
//! let base = grid.schema().lattice().base();
//! let q = QueryRequest::new(Query::full_group_by(&grid, base));
//! let r1 = manager.run(&q).unwrap();
//! assert!(!r1.metrics.complete_hit);
//!
//! // A roll-up query: never fetched, but computable from the cache.
//! let top = grid.schema().lattice().top();
//! let r2 = manager
//!     .run(&Query::full_group_by(&grid, top).into())
//!     .unwrap();
//! assert!(r2.metrics.complete_hit);
//! assert_eq!(r2.metrics.chunks_computed, 1);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`schema`] | dimensions, hierarchies, the group-by lattice |
//! | [`chunks`] | chunk geometry, closure property, chunk data |
//! | [`store`] | fact table, aggregation kernel, simulated backend |
//! | [`gen`] | APB-1-like and synthetic schema/data generation |
//! | [`cache`] | byte-budgeted chunk cache, benefit & two-level policies |
//! | [`core`] | ESM/ESMC/VCM/VCMC lookup, count/cost tables, manager |
//! | [`workload`] | drill-down/roll-up/proximity/random query streams |
//! | [`obs`] | trace events, tracer trait, metrics registry, exporters |
//! | [`cluster`] | sharded multi-node tier: hash ring, cooperative lookup |

#![warn(missing_docs)]

pub mod avg;

pub use aggcache_cache as cache;
pub use aggcache_chunks as chunks;
pub use aggcache_cluster as cluster;
pub use aggcache_core as core;
pub use aggcache_gen as gen;
pub use aggcache_obs as obs;
pub use aggcache_schema as schema;
pub use aggcache_store as store;
pub use aggcache_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use aggcache_cache::{
        AdmissionKind, CachedChunk, ChunkCache, CountMinSketch, Origin, PolicyKind,
    };
    pub use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey, ChunkNumber, PAPER_TUPLE_BYTES};
    pub use aggcache_cluster::{
        ClusterBuilder, ClusterError, ClusterManager, HashRing, NodeTraffic,
    };
    pub use aggcache_core::{
        CacheError, CacheManager, CacheManagerBuilder, CheckpointReport, ComputationPlan,
        ConfigError, CostTable, CountTable, ExecOutcome, LookupOutcome, LookupStats, ManagerConfig,
        PreloadReport, Query, QueryMetrics, QueryProbe, QueryRequest, QueryResult, RemoteMetrics,
        SessionMetrics, SpillMetrics, Strategy, UpdateMetrics, ValueQuery, WarmStartReport,
    };
    pub use aggcache_gen::{apb1_schema, Apb1Config, Dataset, SyntheticSpec};
    pub use aggcache_obs::{Event, MetricsRegistry, RecordingTracer, TenantStats, Tracer};
    pub use aggcache_schema::{Dimension, GroupById, Lattice, Level, Schema};
    pub use aggcache_store::{
        decode_record, encode_record, spill_checksum, AggFn, Backend, BackendCostModel,
        BackendSource, DeltaBatch, DeltaOp, DeltaRecord, DiskFaultProfile, EffectiveDelta,
        FactTable, FaultInjectingBackend, FaultInjectingSpillIo, FaultProfile, FsSpillIo,
        IndexRebuildReport, Lift, MessageCostModel, RetryPolicy, RetryingBackend, ScrubReport,
        SpillCheckpointStats, SpillConfig, SpillCostModel, SpillError, SpillIo, SpillRecord,
        SpillStore,
    };
    pub use aggcache_workload::{
        Arrival, MultiTenantConfig, QueryKind, QueryMix, QueryStream, TenantProfile, TrafficEngine,
        WorkloadConfig, WorkloadError,
    };
}
