//! The sharded cache tier: N per-node [`CacheManager`]s behind one
//! [`HashRing`], executing [`QueryRequest`]s with cooperative lookup and
//! a message-cost model.
//!
//! # Execution flow
//!
//! [`ClusterManager::run`] partitions the request's chunks by ring owner,
//! then drives each node through the same probe/apply split the
//! single-node pipeline uses:
//!
//! 1. **Route** — each chunk goes to its primary ring owner.
//! 2. **Probe** — the owner probes its sub-query immutably.
//! 3. **Cooperate** — each chunk the owner would send to the backend is
//!    first offered to its replica peers (then any other live node): a
//!    peer that holds it ships the cells to the owner, which admits them.
//!    Peer selection is gated by free summary checks (nodes exchange
//!    digests of their resident keys), so only peers whose summary claims
//!    the chunk are probed and a cold miss pays no hops. Probe and
//!    transfer hops are charged to [`RemoteMetrics`] at the
//!    [`MessageCostModel`]'s fixed rates — never to
//!    [`aggcache_core::QueryMetrics`], whose total remains exactly the
//!    sum of its four local components.
//! 4. **Apply** — the owner applies the original probe. Cooperative
//!    inserts bumped its cache version, so apply transparently re-probes
//!    and the shipped chunks are direct hits.
//! 5. **Replicate** — with replication > 1, chunks now resident at the
//!    owner are pushed to replica owners that lack them (bytes charged,
//!    no latency: replication rides outside the query's critical path).
//!
//! A 1-node replication-1 cluster skips steps 1, 3 and 5 entirely —
//! `run` collapses to `probe_as` + `apply` on the single node, which is
//! what makes it bit-identical to the non-clustered pipeline.

use std::sync::Arc;

use aggcache_cache::Origin;
use aggcache_chunks::{ChunkData, ChunkKey};
use aggcache_core::{CacheManager, ExecOutcome, Query, QueryMetrics, QueryRequest, RemoteMetrics};
use aggcache_obs::{Event, Tracer};
use aggcache_schema::GroupById;
use aggcache_store::MessageCostModel;

use crate::{ClusterError, HashRing};

/// Virtual nodes per node on the ring.
pub const DEFAULT_VNODES: u32 = 64;

/// Per-node cluster counters not tracked by the node's own manager.
#[derive(Debug, Default, Clone, Copy)]
struct NodeCounters {
    serves_out: u64,
    remote_chunks_in: u64,
    bytes_out: u64,
    handoffs_out: u64,
    handoffs_in: u64,
    downs: u64,
}

/// A per-node snapshot for observability: cache occupancy, hit counters
/// and cluster traffic attributed to the node.
#[derive(Debug, Clone, Copy)]
pub struct NodeStats {
    /// The node id.
    pub node: u32,
    /// Whether the node is live.
    pub alive: bool,
    /// Chunks resident in the node's cache.
    pub resident_chunks: usize,
    /// Accounting bytes used by the node's cache.
    pub used_bytes: usize,
    /// The node's cache budget.
    pub budget_bytes: usize,
    /// Cache-level hits (chunk granularity).
    pub cache_hits: u64,
    /// Cache-level misses.
    pub cache_misses: u64,
    /// Queries (sub-queries included) the node executed.
    pub queries: u64,
    /// Queries the node answered entirely from its cache.
    pub complete_hits: u64,
    /// Chunks this node served to peers.
    pub serves_out: u64,
    /// Chunks this node received from peers (cooperative fills).
    pub remote_chunks_in: u64,
    /// Payload bytes this node shipped (serves + handoffs).
    pub bytes_out: u64,
    /// Chunks this node handed off during rebalancing/replication.
    pub handoffs_out: u64,
    /// Chunks handed to this node.
    pub handoffs_in: u64,
    /// Times this node was killed.
    pub downs: u64,
}

/// Builder for [`ClusterManager`]: collect per-node managers, set the
/// replication factor, then [`ClusterBuilder::build`]. The ring carries
/// [`DEFAULT_VNODES`] virtual nodes per node.
///
/// Every node must be built over the **same** shared
/// [`aggcache_chunks::ChunkGrid`] `Arc` (same schema, same chunking) —
/// enforced at build time.
pub struct ClusterBuilder {
    nodes: Vec<CacheManager>,
    replication: usize,
    tracer: Option<Arc<dyn Tracer>>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// An empty builder: replication 1.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            replication: 1,
            tracer: None,
        }
    }

    /// Adds a node (its id is its position: first added is node 0).
    pub fn node(mut self, manager: CacheManager) -> Self {
        self.nodes.push(manager);
        self
    }

    /// Sets the replication factor (owners per key; capped by the live
    /// node count at lookup time).
    pub fn replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Attaches a tracer, propagated to every node so per-node events and
    /// cluster events land in the same sink.
    pub fn tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Validates and builds the cluster.
    pub fn build(self) -> Result<ClusterManager, ClusterError> {
        let Self {
            mut nodes,
            replication,
            tracer,
        } = self;
        if nodes.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        let grid = nodes[0].grid().clone();
        for (i, node) in nodes.iter().enumerate() {
            if !Arc::ptr_eq(node.grid(), &grid) {
                return Err(ClusterError::MismatchedGrids { node: i as u32 });
            }
            // `ClusterManager::run` merges each node's `QueryMetrics` and
            // its own `RemoteMetrics`; a node's disk traffic would vanish
            // from `ExecOutcome::total_virtual_ms`. Refuse rather than
            // mis-account.
            if node.spill_store().is_some() {
                return Err(ClusterError::BadConfig(format!(
                    "node {i} has a spill tier, which cluster execution does not account for"
                )));
            }
        }
        let ring = HashRing::new(nodes.len() as u32, replication, DEFAULT_VNODES)?;
        if let Some(t) = &tracer {
            for node in &mut nodes {
                node.set_tracer(Some(t.clone()));
            }
        }
        let counters = vec![NodeCounters::default(); nodes.len()];
        Ok(ClusterManager {
            nodes,
            ring,
            tracer,
            counters,
            session_remote: RemoteMetrics::default(),
            owners_buf: Vec::with_capacity(replication),
        })
    }
}

/// A simulated N-node sharded cache tier with cooperative lookup.
///
/// See the [crate docs](crate) for the execution flow. All state lives in
/// one process; "nodes" are independent [`CacheManager`]s over the same
/// backend dataset, and message costs are *modeled* (charged to virtual
/// time), not measured.
pub struct ClusterManager {
    nodes: Vec<CacheManager>,
    ring: HashRing,
    tracer: Option<Arc<dyn Tracer>>,
    counters: Vec<NodeCounters>,
    session_remote: RemoteMetrics,
    /// Scratch for owner lookups — avoids a per-chunk allocation.
    owners_buf: Vec<u32>,
}

impl std::fmt::Debug for ClusterManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterManager")
            .field("nodes", &self.nodes.len())
            .field("live", &self.ring.live_count())
            .field("replication", &self.ring.replication())
            .finish_non_exhaustive()
    }
}

impl ClusterManager {
    /// A fresh [`ClusterBuilder`].
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// Number of nodes (live or dead).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The ring (read access).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// A node's manager (read access — occupancy, session metrics).
    pub fn node(&self, node: u32) -> &CacheManager {
        &self.nodes[node as usize]
    }

    /// Cumulative remote accounting across every request this session.
    pub fn session_remote(&self) -> &RemoteMetrics {
        &self.session_remote
    }

    /// Attaches (or detaches) a tracer on the cluster and every node.
    pub fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        for node in &mut self.nodes {
            node.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Per-node observability snapshots.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let c = &self.counters[i];
                NodeStats {
                    node: i as u32,
                    alive: self.ring.is_alive(i as u32),
                    resident_chunks: m.cache().len(),
                    used_bytes: m.cache().used_bytes(),
                    budget_bytes: m.cache().budget_bytes(),
                    cache_hits: m.cache().hits(),
                    cache_misses: m.cache().misses(),
                    queries: m.session().queries,
                    complete_hits: m.session().complete_hits,
                    serves_out: c.serves_out,
                    remote_chunks_in: c.remote_chunks_in,
                    bytes_out: c.bytes_out,
                    handoffs_out: c.handoffs_out,
                    handoffs_in: c.handoffs_in,
                    downs: c.downs,
                }
            })
            .collect()
    }

    /// Kills a node: it leaves the ring (ownership fails over with
    /// minimal movement) and its cache contents are lost — count/cost
    /// tables are wound down chunk by chunk so a revived node starts
    /// cold *and consistent*. Idempotent.
    pub fn kill_node(&mut self, node: u32) {
        if !self.ring.is_alive(node) {
            return;
        }
        self.ring.set_alive(node, false);
        let _lost = self.nodes[node as usize].evict_unowned(|_| false);
        self.counters[node as usize].downs += 1;
        if let Some(t) = &self.tracer {
            t.emit(&Event::NodeDown { node });
        }
    }

    /// Revives a killed node with a cold cache; ownership fails back to
    /// exactly the pre-failure assignment. Idempotent.
    pub fn revive_node(&mut self, node: u32) {
        if node as usize >= self.nodes.len() || self.ring.is_alive(node) {
            return;
        }
        self.ring.set_alive(node, true);
        if let Some(t) = &self.tracer {
            t.emit(&Event::NodeUp { node });
        }
    }

    /// Key-slice handoff after membership changes: every live node drains
    /// chunks it no longer owns (count/cost tables updated per chunk) and
    /// ships them to their current primary owner. Returns the number of
    /// chunks moved.
    pub fn rebalance(&mut self) -> u64 {
        let mut moved = 0;
        let live: Vec<u32> = self.ring.live_nodes().collect();
        let ring = self.ring.clone();
        for &node in &live {
            let drained =
                self.nodes[node as usize].evict_unowned(|key| ring.owners(key).contains(&node));
            for (key, data, origin, benefit) in drained {
                let Some(target) = self.ring.primary(key) else {
                    continue;
                };
                let bytes = data.accounting_bytes() as u64;
                let (admitted, _) =
                    self.nodes[target as usize].insert_chunk(key, data, origin, benefit);
                moved += 1;
                self.counters[node as usize].handoffs_out += 1;
                self.counters[node as usize].bytes_out += bytes;
                if admitted {
                    self.counters[target as usize].handoffs_in += 1;
                }
                self.session_remote.bytes_on_wire += bytes;
                if let Some(t) = &self.tracer {
                    t.emit(&Event::Handoff {
                        gb: key.gb.0,
                        chunk: key.chunk,
                        from_node: node,
                        to_node: target,
                        bytes,
                    });
                }
            }
        }
        moved
    }

    /// Executes one request across the cluster. See the
    /// [crate docs](crate) for the flow; with one live node and
    /// replication 1 this is bit-identical to
    /// [`CacheManager::run`] on that node.
    pub fn run(&mut self, request: &QueryRequest) -> Result<ExecOutcome, ClusterError> {
        if self.ring.live_count() == 0 {
            return Err(ClusterError::NoLiveNodes);
        }
        let gb = request.query.gb;
        let groups = self.assign(&request.query);
        let cooperative = self.ring.live_count() > 1;
        let replicate = self.ring.replication() > 1 && self.ring.live_count() > 1;

        let mut remote = RemoteMetrics::default();
        let mut merged_data: Option<ChunkData> = None;
        let mut merged_metrics = QueryMetrics::default();
        let mut critical_path_ms = 0.0f64;
        let single_group = groups.len() == 1;
        if !single_group {
            merged_metrics.complete_hit = true;
        }

        for (node, chunks) in groups {
            let sub = Query::new(gb, chunks);
            let probe = self.nodes[node as usize].probe_as(&sub, request.tenant);
            // Per-group remote accounting, so the group's critical path
            // can include its own cooperative hops before folding into
            // the request totals.
            let mut group_remote = RemoteMetrics::default();
            if cooperative && !probe.missing().is_empty() {
                let missing: Vec<u64> = probe.missing().to_vec();
                for chunk in missing {
                    self.cooperative_fill(node, gb, chunk, request.tenant, &mut group_remote)?;
                }
                // Apply re-probes transparently: every admitted fill bumped
                // the owner's cache version, so shipped chunks land as
                // direct hits below.
            }
            let result = self.nodes[node as usize]
                .apply(&sub, probe)
                .map_err(ClusterError::Cache)?;
            if replicate {
                // Off the critical path: bytes only, no latency.
                self.replicate(gb, &sub.chunks, node, &mut group_remote);
            }
            // Node groups execute concurrently in a real deployment: the
            // request's latency is the slowest group's end-to-end path,
            // while the metrics below keep charging the summed work.
            critical_path_ms =
                critical_path_ms.max(result.metrics.total_ms() + group_remote.remote_virtual_ms);
            remote.merge(&group_remote);
            match &mut merged_data {
                None => {
                    merged_data = Some(result.data);
                    if single_group {
                        merged_metrics = result.metrics;
                    } else {
                        merged_metrics.merge(&result.metrics);
                    }
                }
                Some(data) => {
                    data.append(&result.data);
                    merged_metrics.merge(&result.metrics);
                }
            }
        }

        self.session_remote.merge(&remote);
        Ok(ExecOutcome {
            data: merged_data.unwrap_or_else(|| ChunkData::new(self.nodes[0].grid().num_dims())),
            metrics: merged_metrics,
            remote,
            // No node has a spill tier: `ClusterBuilder::build` refuses one.
            spill: aggcache_core::SpillMetrics::default(),
            critical_path_ms,
        })
    }

    /// Executes requests in order. Sequential by design: cross-node
    /// parallelism would make cooperative fills order-dependent, and the
    /// determinism contract (bit-identical across thread counts) matters
    /// more than simulated concurrency — parallelism stays inside each
    /// node's aggregation kernel.
    pub fn run_batch(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<Vec<ExecOutcome>, ClusterError> {
        requests.iter().map(|r| self.run(r)).collect()
    }

    /// Partitions a query's chunks into per-node sub-queries:
    /// `(node, chunks)` groups in first-appearance order, intra-group
    /// chunk order preserved. An empty query still routes (to the first
    /// live node) so its metrics match the single-node pipeline.
    fn assign(&self, query: &Query) -> Vec<(u32, Vec<u64>)> {
        if query.chunks.is_empty() {
            let node = self
                .ring
                .live_nodes()
                .next()
                .expect("live_count checked by run");
            return vec![(node, Vec::new())];
        }
        let mut groups: Vec<(u32, Vec<u64>)> = Vec::new();
        for &chunk in &query.chunks {
            let node = self
                .ring
                .primary(ChunkKey::new(query.gb, chunk))
                .expect("live_count checked by run");
            match groups.iter_mut().find(|(n, _)| *n == node) {
                Some((_, v)) => v.push(chunk),
                None => groups.push((node, vec![chunk])),
            }
        }
        groups
    }

    /// Offers one backend-bound chunk to peers. The first peer whose
    /// cache holds it executes the single-chunk query locally and ships
    /// the cells; the owner admits them. Peers are tried in replica-owner
    /// order first (they are the likeliest holders), then the remaining
    /// live nodes in id order.
    ///
    /// Probes are gated by a *summary check*: nodes are assumed to
    /// exchange compact digests of their resident key sets (the
    /// summary-cache / cache-digest technique), so a peer is only probed
    /// — and a probe hop only charged — when its summary claims the key.
    /// A cold miss that no peer can serve therefore costs nothing on the
    /// wire instead of a fruitless round trip per live node, which would
    /// make probe latency scale with cluster size.
    fn cooperative_fill(
        &mut self,
        owner: u32,
        gb: GroupById,
        chunk: u64,
        tenant: u32,
        remote: &mut RemoteMetrics,
    ) -> Result<(), ClusterError> {
        let key = ChunkKey::new(gb, chunk);
        let mut owners = std::mem::take(&mut self.owners_buf);
        self.ring.owners_into(key, &mut owners);
        let mut candidates: Vec<u32> = owners.iter().copied().filter(|&n| n != owner).collect();
        for n in self.ring.live_nodes() {
            if n != owner && !candidates.contains(&n) {
                candidates.push(n);
            }
        }
        owners.clear();
        self.owners_buf = owners;

        for peer in candidates {
            // Summary gate: free, models the periodically exchanged
            // digest of the peer's resident keys.
            if !self.nodes[peer as usize].cache().contains(&key) {
                continue;
            }
            remote.probe_hops += 1;
            remote.remote_virtual_ms += MessageCostModel::probe_ms();
            let single = Query::new(gb, vec![chunk]);
            let probe = self.nodes[peer as usize].probe_as(&single, tenant);
            if !probe.is_complete_hit() {
                // The cheap lookup raced a concurrent plan; treat as a miss.
                continue;
            }
            let served = self.nodes[peer as usize]
                .apply(&single, probe)
                .map_err(ClusterError::Cache)?;
            let bytes = served.data.accounting_bytes() as u64;
            let cost = MessageCostModel::transfer_ms(bytes);
            remote.serve_hops += 1;
            remote.remote_chunks += 1;
            remote.bytes_on_wire += bytes;
            remote.remote_virtual_ms += cost;
            self.counters[peer as usize].serves_out += 1;
            self.counters[peer as usize].bytes_out += bytes;
            self.counters[owner as usize].remote_chunks_in += 1;
            // Benefit: what answering remotely cost end to end — losing
            // this chunk means paying a peer (or the backend) again.
            let benefit = served.metrics.total_ms() + cost;
            self.nodes[owner as usize].insert_chunk(key, served.data, Origin::Computed, benefit);
            if let Some(t) = &self.tracer {
                t.emit(&Event::RemoteServe {
                    gb: gb.0,
                    chunk,
                    from_node: peer,
                    to_node: owner,
                    bytes,
                    virtual_ms: cost,
                });
            }
            return Ok(());
        }
        Ok(())
    }

    /// Pushes chunks resident at `node` to replica owners that lack them.
    /// Bytes are charged to the wire; no latency — replication is
    /// modeled off the query's critical path.
    fn replicate(&mut self, gb: GroupById, chunks: &[u64], node: u32, remote: &mut RemoteMetrics) {
        for &chunk in chunks {
            let key = ChunkKey::new(gb, chunk);
            let Some((data, origin, benefit, bytes)) = self.nodes[node as usize]
                .cache()
                .peek(&key)
                .map(|e| (e.data.clone(), e.origin, e.benefit, e.bytes as u64))
            else {
                continue;
            };
            let mut owners = std::mem::take(&mut self.owners_buf);
            self.ring.owners_into(key, &mut owners);
            for &other in &owners {
                if other == node || self.nodes[other as usize].cache().contains(&key) {
                    continue;
                }
                let (admitted, _) =
                    self.nodes[other as usize].insert_chunk(key, data.clone(), origin, benefit);
                remote.bytes_on_wire += bytes;
                self.counters[node as usize].handoffs_out += 1;
                self.counters[node as usize].bytes_out += bytes;
                if admitted {
                    self.counters[other as usize].handoffs_in += 1;
                }
                if let Some(t) = &self.tracer {
                    t.emit(&Event::Handoff {
                        gb: gb.0,
                        chunk,
                        from_node: node,
                        to_node: other,
                        bytes,
                    });
                }
            }
            owners.clear();
            self.owners_buf = owners;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_cache::PolicyKind;
    use aggcache_chunks::ChunkGrid;
    use aggcache_core::Strategy;
    use aggcache_obs::RecordingTracer;
    use aggcache_schema::{Dimension, Schema};
    use aggcache_store::{AggFn, Backend, BackendCostModel, FactTable};

    fn shared_grid() -> Arc<ChunkGrid> {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("x", vec![1, 2, 8]).unwrap(),
                    Dimension::flat("y", 4).unwrap(),
                ],
                "m",
            )
            .unwrap(),
        );
        Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 4], vec![1, 2]]).unwrap())
    }

    fn backend_for(grid: &Arc<ChunkGrid>) -> Backend {
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(2);
        for x in 0..8u32 {
            for y in 0..4u32 {
                cells.push(&[x, y], f64::from(x + y * 10));
            }
        }
        Backend::new(
            FactTable::load(grid.clone(), base, cells),
            AggFn::Sum,
            BackendCostModel::default(),
        )
    }

    fn node(grid: &Arc<ChunkGrid>) -> CacheManager {
        CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .build(backend_for(grid))
            .unwrap()
    }

    fn cluster(n: usize, replication: usize) -> ClusterManager {
        let grid = shared_grid();
        let mut b = ClusterManager::builder().replication(replication);
        for _ in 0..n {
            b = b.node(node(&grid));
        }
        b.build().unwrap()
    }

    fn base_query(c: &ClusterManager, chunks: Vec<u64>) -> QueryRequest {
        let base = c.node(0).grid().schema().lattice().base();
        QueryRequest::new(Query::new(base, chunks))
    }

    #[test]
    fn builder_rejects_bad_input() {
        assert!(matches!(
            ClusterManager::builder().build(),
            Err(ClusterError::NoNodes)
        ));
        // Mismatched grids: two nodes built over separate grid Arcs.
        let g1 = shared_grid();
        let g2 = shared_grid();
        let err = ClusterManager::builder()
            .node(node(&g1))
            .node(node(&g2))
            .build();
        assert!(matches!(
            err,
            Err(ClusterError::MismatchedGrids { node: 1 })
        ));
        let err = ClusterManager::builder()
            .node(node(&g1))
            .replication(0)
            .build();
        assert!(matches!(err, Err(ClusterError::BadConfig(_))));
    }

    #[test]
    fn builder_refuses_a_node_with_a_spill_tier() {
        let grid = shared_grid();
        let dir =
            std::env::temp_dir().join(format!("aggcache-cluster-spill-{}", std::process::id()));
        let spilling = CacheManager::builder()
            .cache_bytes(usize::MAX >> 1)
            .spill(aggcache_store::SpillConfig::new(&dir))
            .build(backend_for(&grid))
            .unwrap();
        let err = ClusterManager::builder()
            .node(node(&grid))
            .node(spilling)
            .build()
            .unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        match err {
            ClusterError::BadConfig(msg) => assert!(msg.contains("node 1"), "{msg}"),
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn single_node_matches_plain_manager() {
        let grid = shared_grid();
        let mut plain = node(&grid);
        let mut clustered = ClusterManager::builder().node(node(&grid)).build().unwrap();
        let base = grid.schema().lattice().base();
        for chunks in [vec![0, 1, 2], vec![1, 2], vec![3], vec![0, 1, 2, 3]] {
            let req = QueryRequest::new(Query::new(base, chunks));
            let a = plain.run(&req).unwrap();
            let b = clustered.run(&req).unwrap();
            assert_eq!(a.data, b.data);
            assert_eq!(a.metrics.total_ms(), b.metrics.total_ms());
            assert_eq!(a.metrics.chunks_hit, b.metrics.chunks_hit);
            assert_eq!(b.remote, RemoteMetrics::default());
        }
        assert_eq!(
            plain.session().total_ms,
            clustered.node(0).session().total_ms
        );
    }

    #[test]
    fn cooperative_serve_avoids_backend() {
        let mut c = cluster(3, 1);
        let req = base_query(&c, (0..4).collect());
        // Warm every node's slice, then fail one owner over: its slice is
        // re-fetched by, and cached at, the failover owners.
        c.run(&req).unwrap();
        let base = req.query.gb;
        let victim = c.ring().primary(ChunkKey::new(base, 0)).unwrap();
        c.kill_node(victim);
        c.run(&req).unwrap();
        c.revive_node(victim);
        let before: f64 = c.session_remote().remote_virtual_ms;
        // Ownership failed back to a cold node while its peers still hold
        // its chunks, so cooperation must serve them without touching the
        // backend.
        let out = c.run(&req).unwrap();
        assert_eq!(out.metrics.backend_virtual_ms, 0.0, "backend touched");
        assert!(out.remote.remote_chunks > 0, "no cooperative serves");
        assert!(out.remote.bytes_on_wire > 0);
        assert!(out.total_virtual_ms() > out.metrics.total_ms());
        assert!(c.session_remote().remote_virtual_ms > before);
        // The answer matches a fresh single-node oracle.
        let g = c.node(0).grid().clone();
        let mut oracle = ClusterManager::builder().node(node(&g)).build().unwrap();
        let mut want = oracle.run(&req).unwrap().data;
        let mut got = out.data;
        want.sort_by_coords();
        got.sort_by_coords();
        assert_eq!(got, want);
    }

    #[test]
    fn replication_pushes_copies() {
        let mut c = cluster(3, 2);
        let req = base_query(&c, (0..4).collect());
        c.run(&req).unwrap();
        // Every executed chunk should now be resident at >= 2 nodes.
        let base = c.node(0).grid().schema().lattice().base();
        for chunk in 0..4u64 {
            let key = ChunkKey::new(base, chunk);
            let copies = (0..3).filter(|&n| c.node(n).cache().contains(&key)).count();
            assert!(copies >= 2, "chunk {chunk} resident at {copies} nodes");
        }
        let handoffs: u64 = c.node_stats().iter().map(|s| s.handoffs_out).sum();
        assert!(handoffs > 0);
    }

    #[test]
    fn kill_failover_revive_rebalance_stay_consistent() {
        let mut c = cluster(3, 1);
        let req = base_query(&c, (0..4).collect());
        c.run(&req).unwrap();
        c.kill_node(1);
        assert_eq!(c.node(1).cache().len(), 0, "dead node kept chunks");
        // Queries still succeed with a node down.
        let out = c.run(&req).unwrap();
        assert!(!out.data.is_empty());
        c.revive_node(1);
        let moved = c.rebalance();
        // After failback + rebalance every resident chunk is at an owner.
        for n in 0..3u32 {
            for key in c.node(n).cache().keys() {
                assert!(
                    c.ring().owners(key).contains(&n),
                    "node {n} holds unowned chunk {key:?} after rebalance"
                );
            }
        }
        let _ = moved;
        // And queries still answer correctly.
        let out = c.run(&req).unwrap();
        assert!(!out.data.is_empty());
    }

    #[test]
    fn dead_cluster_errors() {
        let mut c = cluster(2, 1);
        c.kill_node(0);
        c.kill_node(1);
        let req = base_query(&c, vec![0]);
        assert!(matches!(c.run(&req), Err(ClusterError::NoLiveNodes)));
        c.revive_node(0);
        assert!(c.run(&req).is_ok());
    }

    #[test]
    fn cluster_events_reach_tracer() {
        let tracer = Arc::new(RecordingTracer::new());
        let grid = shared_grid();
        let mut b = ClusterManager::builder()
            .replication(2)
            .tracer(tracer.clone());
        for _ in 0..3 {
            b = b.node(node(&grid));
        }
        let mut c = b.build().unwrap();
        let req = base_query(&c, (0..4).collect());
        c.run(&req).unwrap();
        c.kill_node(2);
        c.revive_node(2);
        c.rebalance();
        let kinds: Vec<&'static str> = tracer.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"handoff"), "no handoff events");
        assert!(kinds.contains(&"node_down"));
        assert!(kinds.contains(&"node_up"));
    }
}
