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
//!    owner are handed to replica owners that lack them — the same
//!    bytes-only, off-the-critical-path handoff `rebalance` uses.
//!
//! Every request takes this one path. On a 1-node cluster steps 3 and 5
//! have no peer to talk to and the merge of one group is the identity,
//! which is what makes it bit-identical to the non-clustered pipeline.

use std::sync::Arc;

use aggcache_cache::Origin;
use aggcache_chunks::{ChunkData, ChunkKey};
use aggcache_core::{
    CacheError, CacheManager, ExecOutcome, Query, QueryMetrics, QueryRequest, QueryResult,
    RemoteMetrics,
};
use aggcache_obs::{Event, Tracer};
use aggcache_schema::GroupById;
use aggcache_store::MessageCostModel;

use crate::{ClusterError, HashRing};

/// Virtual nodes per node on the ring.
pub const DEFAULT_VNODES: u32 = 64;

/// Cluster traffic attributed to one node — what its own
/// [`CacheManager`] cannot see. Occupancy and hit counters are read from
/// [`ClusterManager::node`]`.cache()` / `.session()`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Chunks this node served to peers.
    pub serves_out: u64,
    /// Chunks this node received from peers (cooperative fills).
    pub remote_chunks_in: u64,
    /// Payload bytes this node shipped (serves + handoffs).
    pub bytes_out: u64,
    /// Chunks this node handed off during rebalancing/replication.
    pub handoffs_out: u64,
    /// Handed-off chunks this node admitted.
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
        let traffic = vec![NodeTraffic::default(); nodes.len()];
        // Replication above the node count is legal; an owner set is never
        // larger than the cluster.
        let owners_buf = Vec::with_capacity(replication.min(nodes.len()));
        Ok(ClusterManager {
            nodes,
            ring,
            tracer,
            traffic,
            session_remote: RemoteMetrics::default(),
            owners_buf,
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
    traffic: Vec<NodeTraffic>,
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

    /// The cluster traffic attributed to `node` so far.
    pub fn traffic(&self, node: u32) -> NodeTraffic {
        self.traffic[node as usize]
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
        self.traffic[node as usize].downs += 1;
        self.emit(Event::NodeDown { node });
    }

    /// Revives a killed node with a cold cache; ownership fails back to
    /// exactly the pre-failure assignment. Idempotent.
    pub fn revive_node(&mut self, node: u32) {
        if node as usize >= self.nodes.len() || self.ring.is_alive(node) {
            return;
        }
        self.ring.set_alive(node, true);
        self.emit(Event::NodeUp { node });
    }

    /// Key-slice handoff after membership changes: every live node drains
    /// chunks it no longer owns (count/cost tables updated per chunk) and
    /// ships them to their current primary owner. Returns the number of
    /// chunks moved.
    pub fn rebalance(&mut self) -> u64 {
        let mut moved = 0;
        let mut remote = RemoteMetrics::default();
        let live: Vec<u32> = self.ring.live_nodes().collect();
        let ring = self.ring.clone();
        for &node in &live {
            let drained =
                self.nodes[node as usize].evict_unowned(|key| ring.owners(key).contains(&node));
            for entry in drained {
                if let Some(target) = self.ring.primary(entry.0) {
                    self.handoff(node, target, entry, &mut remote);
                    moved += 1;
                }
            }
        }
        self.session_remote.merge(&remote);
        moved
    }

    /// Ships one drained or copied cache entry from node `from` to node
    /// `to`, which admits it under its own policy. Bytes are charged to
    /// the sender and to `remote`; no latency — handoffs ride outside any
    /// query's critical path.
    fn handoff(
        &mut self,
        from: u32,
        to: u32,
        (key, data, origin, benefit): (ChunkKey, ChunkData, Origin, f64),
        remote: &mut RemoteMetrics,
    ) {
        let bytes = data.accounting_bytes() as u64;
        let (admitted, _) = self.nodes[to as usize].insert_chunk(key, data, origin, benefit);
        self.traffic[from as usize].handoffs_out += 1;
        self.traffic[from as usize].bytes_out += bytes;
        self.traffic[to as usize].handoffs_in += u64::from(admitted);
        remote.bytes_on_wire += bytes;
        self.emit(Event::Handoff {
            gb: key.gb.0,
            chunk: key.chunk,
            from_node: from,
            to_node: to,
            bytes,
        });
    }

    fn emit(&self, event: Event) {
        if let Some(t) = &self.tracer {
            t.emit(&event);
        }
    }

    /// Executes one request across the cluster. See the
    /// [crate docs](crate) for the flow; with one live node and
    /// replication 1 this is bit-identical to
    /// [`CacheManager::run`] on that node.
    pub fn run(&mut self, request: &QueryRequest) -> Result<ExecOutcome, ClusterError> {
        if self.ring.live_count() == 0 {
            return Err(ClusterError::NoLiveNodes);
        }
        // The request boundary, before routing hashes a key no node has.
        let grid = self.nodes[0].grid();
        request.query.validate(grid).map_err(CacheError::Query)?;
        let gb = request.query.gb;
        let mut out = ExecOutcome {
            data: ChunkData::new(grid.num_dims()),
            // The identity of `QueryMetrics::merge` (`0 + x`, `true & x`):
            // a one-group request reports exactly its node's metrics.
            metrics: QueryMetrics {
                complete_hit: true,
                ..QueryMetrics::default()
            },
            remote: RemoteMetrics::default(),
            // No node has a spill tier: `ClusterBuilder::build` refuses one.
            spill: aggcache_core::SpillMetrics::default(),
            critical_path_ms: 0.0,
        };
        let mut groups = self.assign(&request.query).into_iter();
        let result = groups.try_for_each(|(node, chunks)| {
            // Per-group remote accounting, so the group's critical path
            // can include its own cooperative hops before folding into
            // the request totals.
            let mut remote = RemoteMetrics::default();
            let group = self.run_group(node, &Query::new(gb, chunks), request.tenant, &mut remote);
            out.remote.merge(&remote);
            let group = group?;
            // Node groups execute concurrently in a real deployment: the
            // request's latency is the slowest group's end-to-end path,
            // while the metrics keep charging the summed work.
            let path_ms = group.metrics.total_ms() + remote.remote_virtual_ms;
            out.critical_path_ms = out.critical_path_ms.max(path_ms);
            out.metrics.merge(&group.metrics);
            if out.data.is_empty() {
                out.data = group.data; // moved, not copied
            } else {
                out.data.append(&group.data);
            }
            Ok(())
        });
        // A failed request is charged too: its cooperative fills already
        // shipped, and the peers' `NodeTraffic` already counts them.
        self.session_remote.merge(&out.remote);
        result.map(|()| out)
    }

    /// Steps 2–5 of the flow for one node group: probe at the owner, offer
    /// its misses to peers, apply, replicate.
    fn run_group(
        &mut self,
        node: u32,
        sub: &Query,
        tenant: u32,
        remote: &mut RemoteMetrics,
    ) -> Result<QueryResult, ClusterError> {
        let live = self.ring.live_count();
        let probe = self.nodes[node as usize].probe_as(sub, tenant);
        if live > 1 {
            for chunk in probe.missing().to_vec() {
                self.cooperative_fill(node, sub.gb, chunk, tenant, remote)?;
            }
            // Apply re-probes transparently: every admitted fill bumped
            // the owner's cache version, so shipped chunks land as
            // direct hits below.
        }
        let result = self.nodes[node as usize]
            .apply(sub, probe)
            .map_err(ClusterError::Cache)?;
        if live > 1 && self.ring.replication() > 1 {
            self.replicate(sub.gb, &sub.chunks, node, remote);
        }
        Ok(result)
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
            self.traffic[peer as usize].serves_out += 1;
            self.traffic[peer as usize].bytes_out += bytes;
            self.traffic[owner as usize].remote_chunks_in += 1;
            // Benefit: what answering remotely cost end to end — losing
            // this chunk means paying a peer (or the backend) again.
            let benefit = served.metrics.total_ms() + cost;
            self.nodes[owner as usize].insert_chunk(key, served.data, Origin::Computed, benefit);
            self.emit(Event::RemoteServe {
                gb: gb.0,
                chunk,
                from_node: peer,
                to_node: owner,
                bytes,
                virtual_ms: cost,
            });
            return Ok(());
        }
        Ok(())
    }

    /// Pushes chunks resident at `node` to replica owners that lack them
    /// (off the critical path: see [`ClusterManager::handoff`]).
    fn replicate(&mut self, gb: GroupById, chunks: &[u64], node: u32, remote: &mut RemoteMetrics) {
        for &chunk in chunks {
            let key = ChunkKey::new(gb, chunk);
            let Some(entry) = self.nodes[node as usize]
                .cache()
                .peek(&key)
                .map(|e| (key, e.data.clone(), e.origin, e.benefit))
            else {
                continue;
            };
            let mut owners = std::mem::take(&mut self.owners_buf);
            self.ring.owners_into(key, &mut owners);
            for &other in &owners {
                if other != node && !self.nodes[other as usize].cache().contains(&key) {
                    self.handoff(node, other, entry.clone(), remote);
                }
            }
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
    fn replication_above_the_node_count_builds_and_serves() {
        // `usize::MAX` used to panic with "capacity overflow" in `build`.
        let mut c = cluster(2, usize::MAX);
        let request = base_query(&c, vec![0]);
        assert!(c.run(&request).is_ok());
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
    fn failed_request_still_charges_its_cooperative_fills() {
        use aggcache_store::{FaultInjectingBackend, FaultProfile};
        // Node 0's backend is permanently down; node 1's is healthy.
        let grid = shared_grid();
        let down = FaultInjectingBackend::new(
            backend_for(&grid),
            FaultProfile::fail_then_recover(u64::MAX),
        )
        .unwrap();
        let broken = CacheManager::builder()
            .cache_bytes(usize::MAX >> 1)
            .build(down)
            .unwrap();
        let mut c = ClusterManager::builder()
            .node(broken)
            .node(node(&grid))
            .build()
            .unwrap();
        let base = grid.schema().lattice().base();
        let mine: Vec<u64> = (0..grid.n_chunks(base))
            .filter(|&chunk| c.ring().primary(ChunkKey::new(base, chunk)) == Some(0))
            .collect();
        let (held, cold) = (mine[0], mine[1]);
        // With node 0 dead its slice lands on node 1, which caches `held`.
        c.kill_node(0);
        c.run(&base_query(&c, vec![held])).unwrap();
        c.revive_node(0);
        // Node 1 ships `held`; `cold` is nowhere and node 0 cannot fetch it.
        let err = c.run(&base_query(&c, vec![held, cold])).unwrap_err();
        assert!(matches!(err, ClusterError::Cache(_)), "{err:?}");
        let shipped: u64 = (0..2).map(|n| c.traffic(n).bytes_out).sum();
        assert!(shipped > 0, "the fill happened before the failure");
        assert_eq!(c.session_remote().bytes_on_wire, shipped);
        assert_eq!(
            c.session_remote().remote_chunks,
            c.traffic(0).remote_chunks_in
        );
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
        let handoffs: u64 = (0..3).map(|n| c.traffic(n).handoffs_out).sum();
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
