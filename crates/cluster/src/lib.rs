//! A simulated sharded cache tier for the aggregate-aware cache.
//!
//! This crate lifts the single-node pipeline to N cooperating nodes:
//!
//! * [`HashRing`] — consistent hashing over packed chunk keys with
//!   virtual nodes, configurable replication and minimal-movement
//!   failover/failback.
//! * [`ClusterManager`] — routes each [`aggcache_core::QueryRequest`]'s
//!   chunks to their ring owners, runs each node's group through that
//!   node's own `CacheManager::run`, and on local misses first performs
//!   *cooperative lookup*: peers that can
//!   answer a chunk from cache ship it to the owner instead of the
//!   owner paying the backend.
//! * [`aggcache_store::MessageCostModel`] — per-hop and per-byte
//!   virtual costs, charged to [`aggcache_core::RemoteMetrics`] and kept
//!   strictly outside the local `QueryMetrics` totals.
//!
//! Everything is deterministic virtual time in one process: a 1-node
//! replication-1 cluster reproduces the non-clustered pipeline bit for
//! bit, which is the conformance anchor the integration tests pin.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod manager;
mod ring;

pub use error::ClusterError;
pub use manager::{ClusterBuilder, ClusterManager, NodeTraffic, DEFAULT_VNODES};
pub use ring::HashRing;
