//! The unified execution API: one request type and one outcome type for
//! single-node, multi-tenant and clustered execution.
//!
//! [`QueryRequest`] is a single value carrying the query plus its tenant
//! tag. The cluster tier routes every request the same way — each chunk
//! to its ring owner, peers probed before the backend — so there is
//! nothing else to say about one.

use aggcache_chunks::ChunkData;
use aggcache_store::SpillMetrics;

use crate::{Query, QueryMetrics, QueryResult};

/// One query submission: the query itself plus the tenant it is
/// attributed to.
///
/// ```ignore
/// let req = QueryRequest::new(query).tenant(3);
/// let out = manager.run(&req)?;
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// The chunk-granular query.
    pub query: Query,
    /// The tenant the query is attributed to (obs-layer breakdowns only;
    /// results and virtual time are tenant-independent).
    pub tenant: u32,
}

impl QueryRequest {
    /// A request attributed to tenant 0.
    pub fn new(query: Query) -> Self {
        Self { query, tenant: 0 }
    }

    /// Sets the tenant tag.
    pub fn tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Wraps plain queries into tenant-0 requests — the batch analogue of
    /// [`QueryRequest::from`].
    pub fn batch(queries: &[Query]) -> Vec<QueryRequest> {
        queries.iter().map(Self::from).collect()
    }
}

impl From<Query> for QueryRequest {
    fn from(query: Query) -> Self {
        Self::new(query)
    }
}

impl From<&Query> for QueryRequest {
    fn from(query: &Query) -> Self {
        Self::new(query.clone())
    }
}

/// Remote-execution accounting for one request: message hops and bytes
/// shipped between nodes, with their modeled virtual cost.
///
/// All zeros for a single [`crate::CacheManager`] and for a 1-node cluster
/// — which is what keeps the 1-node collapse bit-identical to the
/// non-clustered pipeline. Deliberately kept *outside* [`QueryMetrics`]:
/// `QueryMetrics::total_ms` remains exactly the sum of its four local
/// virtual components (an invariant `trace_check` enforces), and the
/// cluster-level end-to-end time is [`ExecOutcome::total_virtual_ms`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RemoteMetrics {
    /// Peer probe round trips performed on behalf of this request.
    pub probe_hops: u64,
    /// Peer serve round trips (a peer answered a chunk).
    pub serve_hops: u64,
    /// Payload bytes shipped between nodes (serves and replication).
    pub bytes_on_wire: u64,
    /// Chunks answered by a peer instead of the backend.
    pub remote_chunks: u64,
    /// Virtual milliseconds charged by the message-cost model.
    pub remote_virtual_ms: f64,
}

impl RemoteMetrics {
    /// Folds another request's remote accounting into this one.
    pub fn merge(&mut self, other: &RemoteMetrics) {
        self.probe_hops += other.probe_hops;
        self.serve_hops += other.serve_hops;
        self.bytes_on_wire += other.bytes_on_wire;
        self.remote_chunks += other.remote_chunks;
        self.remote_virtual_ms += other.remote_virtual_ms;
    }
}

/// Maintenance accounting for one [`crate::DeltaBatch`] ingestion: what the
/// delta did to the fact table, how it propagated up the lattice to
/// resident chunks, and its modeled virtual cost.
///
/// Deliberately kept *outside* [`QueryMetrics`], exactly like
/// [`RemoteMetrics`] and [`SpillMetrics`]: queries keep reporting
/// `total = backend + agg + lookup + update` bit-identically whether or not
/// deltas ever flowed, and `trace_check` keeps enforcing that sum. All
/// maintenance work — patching, invalidation, count/cost table upkeep — is
/// charged here and only here.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct UpdateMetrics {
    /// Delta batches ingested.
    pub delta_batches: u64,
    /// Fact tuples inserted.
    pub tuples_inserted: u64,
    /// Fact tuples removed by matched deletes.
    pub tuples_deleted: u64,
    /// Deletes that matched no fact tuple (ignored).
    pub deletes_unmatched: u64,
    /// Distinct base chunks the effective delta landed in.
    pub base_chunks_touched: u64,
    /// Resident chunks patched in place through the roll-up kernel.
    pub chunks_patched: u64,
    /// Aggregate cells written while patching.
    pub cells_patched: u64,
    /// Resident chunks invalidated (evicted to re-serve via the miss path).
    pub chunks_invalidated: u64,
    /// Stale spilled chunks dropped from the spill index.
    pub(crate) spill_invalidated: u64,
    /// Count/cost-table writes performed during maintenance.
    pub table_writes: u64,
    /// Virtual milliseconds charged for maintenance (roll-up work plus
    /// table writes), strictly outside any query's `QueryMetrics`.
    pub update_virtual_ms: f64,
}

impl UpdateMetrics {
    /// Folds another ingestion's accounting into this one.
    pub(crate) fn merge(&mut self, other: &UpdateMetrics) {
        self.delta_batches += other.delta_batches;
        self.tuples_inserted += other.tuples_inserted;
        self.tuples_deleted += other.tuples_deleted;
        self.deletes_unmatched += other.deletes_unmatched;
        self.base_chunks_touched += other.base_chunks_touched;
        self.chunks_patched += other.chunks_patched;
        self.cells_patched += other.cells_patched;
        self.chunks_invalidated += other.chunks_invalidated;
        self.spill_invalidated += other.spill_invalidated;
        self.table_writes += other.table_writes;
        self.update_virtual_ms += other.update_virtual_ms;
    }
}

/// The outcome of one [`QueryRequest`]: result cells, the local cost
/// breakdown, and (for clustered execution) the remote accounting.
#[derive(Debug)]
pub struct ExecOutcome {
    /// All result cells, at the query's group-by level.
    pub data: ChunkData,
    /// The local cost breakdown (bit-identical to what the non-clustered
    /// pipeline reports for the same work).
    pub metrics: QueryMetrics,
    /// Remote accounting; all zeros off-cluster.
    pub remote: RemoteMetrics,
    /// Spill-tier accounting; all zeros when no spill tier is attached.
    pub spill: SpillMetrics,
    /// End-to-end *latency* in virtual milliseconds under fan-out
    /// parallelism: a cluster executes a request's per-node sub-queries
    /// concurrently, so this is the slowest node group's local total plus
    /// that group's remote costs — while [`ExecOutcome::total_virtual_ms`]
    /// keeps charging the full *work* (every group summed). The two
    /// coincide for single-group and non-clustered execution.
    pub critical_path_ms: f64,
}

impl ExecOutcome {
    /// End-to-end virtual milliseconds of *work* including the message and
    /// spill cost models: `metrics.total_ms() + remote.remote_virtual_ms +
    /// spill.spill_virtual_ms`. For fanned-out cluster execution this sums
    /// every node group; the parallel-latency view is
    /// [`ExecOutcome::critical_path_ms`].
    pub fn total_virtual_ms(&self) -> f64 {
        self.metrics.total_ms() + self.remote.remote_virtual_ms + self.spill.spill_virtual_ms
    }

    /// Converts into the legacy [`QueryResult`]: keeps `data` and
    /// `metrics`, and drops `remote`, `spill` and `critical_path_ms`.
    pub fn into_result(self) -> QueryResult {
        QueryResult {
            data: self.data,
            metrics: self.metrics,
        }
    }
}

impl From<QueryResult> for ExecOutcome {
    fn from(r: QueryResult) -> Self {
        Self {
            critical_path_ms: r.metrics.total_ms(),
            data: r.data,
            metrics: r.metrics,
            remote: RemoteMetrics::default(),
            spill: SpillMetrics::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::GroupById;

    #[test]
    fn builder_chain_sets_context() {
        let q = Query::new(GroupById(0), vec![1, 2]);
        let req = QueryRequest::new(q.clone()).tenant(7);
        assert_eq!(req.query, q);
        assert_eq!(req.tenant, 7);
        let via_from: QueryRequest = (&q).into();
        assert_eq!(via_from.tenant, 0);
    }

    #[test]
    fn total_includes_remote_cost() {
        let mut out = ExecOutcome::from(QueryResult {
            data: ChunkData::new(1),
            metrics: QueryMetrics {
                backend_virtual_ms: 10.0,
                ..Default::default()
            },
        });
        out.remote.remote_virtual_ms = 2.5;
        out.spill.spill_virtual_ms = 0.5;
        assert!((out.total_virtual_ms() - 13.0).abs() < 1e-12);
        let r = out.into_result();
        assert!((r.metrics.total_ms() - 10.0).abs() < 1e-12);
    }
}
