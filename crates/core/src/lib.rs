//! The aggregate-aware cache: the primary contribution of Deshpande &
//! Naughton, *Aggregate Aware Caching for Multi-Dimensional Queries*
//! (EDBT 2000).
//!
//! An ordinary chunk cache answers a query chunk only when that exact chunk
//! is cached. An **active cache** also answers it when the chunk can be
//! *computed by aggregating other cached chunks* — possibly at mixed levels
//! of the group-by lattice. Two sub-problems arise (paper §1):
//!
//! 1. **Cache lookup** — is the chunk computable from the cache at all?
//!    * [`lookup::esm`] — the naive Exhaustive Search Method (§3.1),
//!      exploring every lattice path to the base group-by.
//!    * [`lookup::vcm`] — the Virtual Count Method (§4): a per-chunk count
//!      maintained by [`CountTable`] makes a negative answer O(1) and a
//!      positive answer explore exactly one path.
//! 2. **Optimal aggregation path** — which of the (many) successful paths
//!    aggregates the fewest tuples?
//!    * [`lookup::esmc`] — cost-based exhaustive search (§5.1).
//!    * [`lookup::vcmc`] — cost-based virtual counts (§5.2): [`CostTable`]
//!      additionally maintains the least cost and best parent per chunk,
//!      making optimal lookup O(path length).
//!
//! [`CacheManager`] assembles the full middle tier: probe, partition into
//! hits / computable / missing, aggregate in cache, batch-fetch misses from
//! the backend, admit results under a replacement policy, and keep the
//! count/cost tables consistent through insertions *and* evictions.
//!
//! The manager runs over any [`aggcache_store::BackendSource`]; when the
//! source reports an outage ([`aggcache_store::StoreError::is_outage`]) the
//! manager degrades gracefully — missing chunks are recomputed from cached
//! data at any cost, or the query fails with a typed
//! [`CacheError::BackendUnavailable`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cost;
mod counts;
mod error;
mod executor;
mod lookup;
mod manager;
mod metrics;
mod query;
mod request;
mod storage;

pub use cost::{CostTable, COST_INF, PARENT_NONE, PARENT_SELF};
pub use counts::CountTable;
pub use error::{CacheError, ConfigError};
pub use executor::{execute_plan, execute_plan_parallel};
pub use lookup::{
    esm, esmc, no_aggregation, vcm, vcmc, ComputationPlan, LookupOutcome, LookupStats, Strategy,
};
pub use manager::{CacheManager, CacheManagerBuilder, ManagerConfig, PreloadReport, QueryProbe};
pub use metrics::{
    QueryMetrics, SessionMetrics, CACHE_PER_TUPLE_US, LOOKUP_PER_NODE_US, UPDATE_PER_WRITE_US,
};
pub use query::{Query, QueryResult};
pub use request::{ExecOutcome, QueryRequest, RemoteMetrics, UpdateMetrics};

// The delta-batch vocabulary of [`CacheManager::ingest`] and the spill
// tier's ledger, re-exported so callers of the core crate need not depend
// on the store crate directly.
pub use aggcache_store::{DeltaBatch, DeltaOp, DeltaRecord, EffectiveDelta, SpillMetrics};
