//! **Cluster sweep** (`fig_cluster`, beyond the paper) — node count ×
//! replication × failure rate vs aggregate hit ratio, virtual tail
//! latency and bytes on the wire.
//!
//! The paper's cache is a single process. This sweep shards the same
//! chunk space over an N-node simulated cluster (consistent-hash ring,
//! cooperative peer lookup, optional replication) and replays the
//! paper's query stream against it, keeping the **per-node** budget
//! fixed: an N-node cell has N× the aggregate RAM of the 1-node cell,
//! so the aggregate complete-hit ratio should *rise* with node count
//! while the message-cost model charges for every peer probe, remote
//! serve and replica push.
//!
//! Failure cells inject seeded churn: between query batches one live
//! node may be killed (its cache drained, ownership failing over to
//! ring successors) and any dead node is later revived and the ring
//! rebalanced, paying handoff bytes. The schedule derives from a
//! SplitMix64 stream, so every cell is bit-identical across runs and
//! thread counts — all reported numbers are virtual-time.

use crate::report::{f2, mean, Table, Tally};
use crate::rig::{apb_dataset, backend_for, builder_for, paper_stream};
use crate::sweep::{smoke_opts, Sweep};
use aggcache_cache::PolicyKind;
use aggcache_chunks::hash::SplitMix64;
use aggcache_cluster::{ClusterManager, NodeTraffic};
use aggcache_core::{QueryRequest, Strategy};
use aggcache_gen::Dataset;
use aggcache_obs::json::JsonObject;

/// Options for the cluster sweep.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Queries per cell.
    pub queries: usize,
    /// Workload seed (same paper stream in every cell).
    pub workload_seed: u64,
    /// Cache budget **per node** in accounting bytes. Fixed across node
    /// counts, so aggregate RAM scales with the cell's node count.
    pub node_cache_bytes: usize,
    /// Queries per batch; churn steps run between batches.
    pub batch: usize,
    /// Worker threads per node (wall-clock only; virtual outputs are
    /// identical).
    pub threads: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 60_000,
            seed: 0xA9B1,
            queries: 1_000,
            workload_seed: 2000,
            node_cache_bytes: 24 * 1024,
            batch: 25,
            threads: 1,
        }
    }
}

impl Opts {
    /// The smoke configuration used by CI: small dataset, short streams,
    /// a per-node budget tight enough that capacity is the binding
    /// constraint (the regime where scale-out pays).
    pub fn smoke() -> Self {
        Self {
            tuples: 8_000,
            queries: 300,
            node_cache_bytes: 8 * 1024,
            ..Self::default()
        }
    }
}

/// `fig_cluster`, as [`crate::sweep::sweep_main`] runs it.
pub const SWEEP: Sweep<Opts, ClusterResults> = Sweep {
    opts: smoke_opts!(Opts),
    run: run_experiment,
    render,
    check: None,
    exports: Some((to_json, to_csv, |r| r.cells.len())),
    traced: None,
};

/// The node counts swept.
pub const NODE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The replication factors swept.
pub const REPLICATIONS: [usize; 2] = [1, 2];

/// The per-batch failure rates swept (probability that a churn step
/// kills one live node).
pub const FAILURE_RATES: [f64; 2] = [0.0, 0.2];

/// Per-node outcome of one cell.
#[derive(Debug, Clone, Copy)]
pub struct NodeOutcome {
    /// Node id.
    pub node: u32,
    /// Queries (sub-queries included) the node executed.
    pub queries: u64,
    /// Chunks resident at the end of the run.
    pub resident_chunks: usize,
    /// Accounting bytes used at the end of the run.
    pub used_bytes: usize,
    /// Peer serves, cooperative fills and churn kills attributed to the
    /// node.
    pub traffic: NodeTraffic,
}

/// Outcome of one (nodes, replication, failure rate) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Nodes in the cell.
    pub nodes: usize,
    /// Replication factor.
    pub replication: usize,
    /// Per-batch kill probability.
    pub failure_rate: f64,
    /// Fraction of queries answered entirely from the cache tier
    /// (locally or by a peer).
    pub hit_ratio: f64,
    /// Fraction of chunk demands served without a backend fetch.
    pub chunk_hit_ratio: f64,
    /// Mean end-to-end virtual *latency* in milliseconds: node groups
    /// fan out in parallel, so this is the per-query critical path.
    pub avg_virtual_ms: f64,
    /// p95 end-to-end virtual latency (critical path) in milliseconds.
    pub p95_virtual_ms: f64,
    /// Mean virtual *work* per query in milliseconds: every node group's
    /// local total plus remote costs, summed.
    pub avg_work_ms: f64,
    /// Chunks served by peers instead of the backend.
    pub remote_chunks: u64,
    /// Payload bytes shipped between nodes (serves, replication and
    /// rebalance handoffs).
    pub bytes_on_wire: u64,
    /// Virtual milliseconds charged by the message-cost model.
    pub remote_virtual_ms: f64,
    /// Nodes killed by the churn schedule.
    pub kills: u64,
    /// Per-node breakdown, ordered by node id.
    pub per_node: Vec<NodeOutcome>,
}

/// One churn step between batches: revive-and-rebalance any dead node,
/// else maybe kill one. Kills and revivals never overlap in one step, so
/// every failure leaves a full batch of degraded operation behind it.
fn churn_step(
    cluster: &mut ClusterManager,
    rng: &mut SplitMix64,
    failure_rate: f64,
    kills: &mut u64,
) {
    let nodes = cluster.num_nodes() as u32;
    let dead: Vec<u32> = (0..nodes)
        .filter(|&n| !cluster.ring().is_alive(n))
        .collect();
    if !dead.is_empty() {
        for n in dead {
            cluster.revive_node(n);
        }
        cluster.rebalance();
        return;
    }
    if cluster.ring().live_count() > 1 && rng.next_f64() < failure_rate {
        let victim = (rng.next_u64() % u64::from(nodes)) as u32;
        cluster.kill_node(victim);
        *kills += 1;
    }
}

/// Replays the paper stream against one (nodes, replication, failure
/// rate) cluster. Deterministic for fixed opts: the workload, ring and
/// churn schedule are all seeded, and every reported number is
/// virtual-time, so two runs — at any thread count — produce
/// bit-identical cells.
pub fn run_cell(
    dataset: &Dataset,
    opts: Opts,
    nodes: usize,
    replication: usize,
    failure_rate: f64,
) -> CellResult {
    let requests =
        QueryRequest::batch(&paper_stream(dataset, opts.workload_seed).take_queries(opts.queries));
    let mut builder = ClusterManager::builder().replication(replication);
    for _ in 0..nodes {
        let (strategy, policy) = (Strategy::Vcmc, PolicyKind::TwoLevel);
        let node = builder_for(strategy, policy, opts.node_cache_bytes, opts.threads, None)
            .build(backend_for(dataset))
            .expect("sweep configuration is valid");
        builder = builder.node(node);
    }
    let mut cluster = builder.build().expect("sweep configuration is valid");
    // Distinct churn stream per cell shape, derived from the dataset seed.
    let mut rng = SplitMix64(
        opts.seed ^ (nodes as u64) << 32 ^ (replication as u64) << 16 ^ failure_rate.to_bits(),
    );
    let mut kills = 0u64;
    let mut tally = Tally::default();
    let mut total_lat_ms = 0.0;
    let mut lat: Vec<f64> = Vec::with_capacity(requests.len());
    for batch in requests.chunks(opts.batch.max(1)) {
        let outs = cluster
            .run_batch(batch)
            .expect("at least one node stays live");
        for o in &outs {
            tally.add(o);
            total_lat_ms += o.critical_path_ms;
            lat.push(o.critical_path_ms);
        }
        if failure_rate > 0.0 {
            churn_step(&mut cluster, &mut rng, failure_rate, &mut kills);
        }
    }
    lat.sort_by(f64::total_cmp);
    let p95 = if lat.is_empty() {
        0.0
    } else {
        lat[((lat.len() as f64 * 0.95).ceil() as usize).clamp(1, lat.len()) - 1]
    };
    // The session totals include rebalance handoff bytes, which per-query
    // outcomes do not see.
    let remote = *cluster.session_remote();
    let per_node = (0..nodes as u32)
        .map(|n| NodeOutcome {
            node: n,
            queries: cluster.node(n).session().queries,
            resident_chunks: cluster.node(n).cache().len(),
            used_bytes: cluster.node(n).cache().used_bytes(),
            traffic: cluster.traffic(n),
        })
        .collect();
    CellResult {
        nodes,
        replication,
        failure_rate,
        hit_ratio: tally.hit_ratio(),
        chunk_hit_ratio: tally.chunk_hit_ratio(),
        avg_virtual_ms: mean(total_lat_ms, tally.queries),
        p95_virtual_ms: p95,
        avg_work_ms: mean(tally.total_virtual_ms, tally.queries),
        remote_chunks: remote.remote_chunks,
        bytes_on_wire: remote.bytes_on_wire,
        remote_virtual_ms: remote.remote_virtual_ms,
        kills,
        per_node,
    }
}

/// Results of the full sweep.
pub struct ClusterResults {
    /// The swept cells, in (nodes, replication, failure rate) order.
    pub cells: Vec<CellResult>,
}

/// Runs the sweep over [`NODE_COUNTS`] × [`REPLICATIONS`] ×
/// [`FAILURE_RATES`].
pub fn run_experiment(opts: Opts) -> ClusterResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let mut cells = Vec::new();
    for &nodes in &NODE_COUNTS {
        for &replication in &REPLICATIONS {
            for &failure_rate in &FAILURE_RATES {
                cells.push(run_cell(&dataset, opts, nodes, replication, failure_rate));
            }
        }
    }
    ClusterResults { cells }
}

/// Renders the sweep as a table: one row per cell.
pub fn render(r: &ClusterResults) -> String {
    let mut out = String::from(
        "Cluster sweep: nodes x replication x failure rate (virtual time,\n\
         fixed per-node budget)\n\n",
    );
    let mut table = Table::new(&[
        "nodes",
        "repl",
        "fail",
        "hit %",
        "chunk hit %",
        "avg ms",
        "p95 ms",
        "work ms",
        "remote chunks",
        "wire KB",
        "kills",
    ]);
    for cell in &r.cells {
        table.row(vec![
            cell.nodes.to_string(),
            cell.replication.to_string(),
            f2(cell.failure_rate),
            f2(100.0 * cell.hit_ratio),
            f2(100.0 * cell.chunk_hit_ratio),
            f2(cell.avg_virtual_ms),
            f2(cell.p95_virtual_ms),
            f2(cell.avg_work_ms),
            cell.remote_chunks.to_string(),
            f2(cell.bytes_on_wire as f64 / 1000.0),
            cell.kills.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nShape: with the per-node budget fixed, aggregate RAM grows with\n\
         node count and the hit ratios rise, while sharding scatters the\n\
         aggregation lattice (fewer chunks computable from local\n\
         neighbours) and work grows with fan-out — latency stays flat\n\
         because node groups execute in parallel. Replication buys\n\
         failure cells back some hits (and enables cooperative serves)\n\
         at the cost of wire traffic; churn drains caches and pays\n\
         rebalance handoffs.\n",
    );
    out
}

/// Serializes the sweep as one JSON document. Virtual-time numbers only,
/// so the document is bit-identical across runs and thread counts.
pub fn to_json(opts: Opts, r: &ClusterResults) -> String {
    let mut out = String::with_capacity(1 << 14);
    JsonObject::open(&mut out)
        .field("experiment", "fig_cluster")
        .field("tuples", opts.tuples)
        .field("queries", opts.queries)
        .field("node_cache_bytes", opts.node_cache_bytes)
        .array("cells", &r.cells, |o, cell| {
            o.field("nodes", cell.nodes)
                .field("replication", cell.replication)
                .field("failure_rate", cell.failure_rate)
                .field("hit_ratio", cell.hit_ratio)
                .field("chunk_hit_ratio", cell.chunk_hit_ratio)
                .field("avg_virtual_ms", cell.avg_virtual_ms)
                .field("p95_virtual_ms", cell.p95_virtual_ms)
                .field("avg_work_ms", cell.avg_work_ms)
                .field("remote_chunks", cell.remote_chunks)
                .field("bytes_on_wire", cell.bytes_on_wire)
                .field("remote_virtual_ms", cell.remote_virtual_ms)
                .field("kills", cell.kills)
                .array("per_node", &cell.per_node, |o, n| {
                    o.field("node", n.node)
                        .field("queries", n.queries)
                        .field("resident_chunks", n.resident_chunks)
                        .field("used_bytes", n.used_bytes)
                        .field("serves_out", n.traffic.serves_out)
                        .field("remote_chunks_in", n.traffic.remote_chunks_in)
                        .field("downs", n.traffic.downs);
                });
        })
        .close();
    out
}

/// Serializes the per-node breakdown of every cell as CSV.
pub fn to_csv(r: &ClusterResults) -> String {
    let mut out = String::from(
        "nodes,replication,failure_rate,node,queries,resident_chunks,\
         used_bytes,serves_out,remote_chunks_in,downs\n",
    );
    for cell in &r.cells {
        for n in &cell.per_node {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                cell.nodes,
                cell.replication,
                cell.failure_rate,
                n.node,
                n.queries,
                n.resident_chunks,
                n.used_bytes,
                n.traffic.serves_out,
                n.traffic.remote_chunks_in,
                n.traffic.downs,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> Opts {
        Opts {
            tuples: 4_000,
            queries: 80,
            batch: 10,
            ..Opts::default()
        }
    }

    #[test]
    fn cells_are_deterministic_and_thread_invariant() {
        let ds = apb_dataset(4_000, 3);
        let a = run_cell(&ds, small_opts(), 4, 2, 0.3);
        let b = run_cell(&ds, small_opts(), 4, 2, 0.3);
        let threaded = Opts {
            threads: 4,
            ..small_opts()
        };
        let c = run_cell(&ds, threaded, 4, 2, 0.3);
        for other in [&b, &c] {
            assert_eq!(a.hit_ratio.to_bits(), other.hit_ratio.to_bits());
            assert_eq!(a.avg_virtual_ms.to_bits(), other.avg_virtual_ms.to_bits());
            assert_eq!(a.p95_virtual_ms.to_bits(), other.p95_virtual_ms.to_bits());
            assert_eq!(a.bytes_on_wire, other.bytes_on_wire);
            assert_eq!(a.remote_chunks, other.remote_chunks);
            assert_eq!(a.kills, other.kills);
            assert_eq!(a.per_node.len(), other.per_node.len());
            for (x, y) in a.per_node.iter().zip(&other.per_node) {
                assert_eq!(x.queries, y.queries);
                assert_eq!(x.resident_chunks, y.resident_chunks);
                assert_eq!(x.traffic, y.traffic);
            }
        }
    }

    #[test]
    fn scale_out_raises_chunk_hits_at_fixed_node_budget() {
        let ds = apb_dataset(8_000, 3);
        let opts = Opts::smoke();
        let one = run_cell(&ds, opts, 1, 1, 0.0);
        let four = run_cell(&ds, opts, 4, 1, 0.0);
        assert!(
            four.chunk_hit_ratio > one.chunk_hit_ratio,
            "4-node chunk hits {} not above 1-node {}",
            four.chunk_hit_ratio,
            one.chunk_hit_ratio
        );
        // At replication 1 every cached chunk lives at its primary, so
        // the summary gate finds no peer copies to serve.
        assert_eq!(one.remote_chunks, 0);
        assert_eq!(one.bytes_on_wire, 0);
        assert_eq!(four.remote_chunks, 0);
    }

    #[test]
    fn replication_enables_cooperative_serves() {
        let ds = apb_dataset(8_000, 3);
        let opts = Opts::smoke();
        let cell = run_cell(&ds, opts, 4, 2, 0.0);
        assert!(
            cell.remote_chunks > 0,
            "no cooperative serves at replication 2"
        );
        assert!(cell.bytes_on_wire > 0);
        assert!(cell.remote_virtual_ms > 0.0);
    }

    #[test]
    fn churn_cells_kill_and_recover() {
        let ds = apb_dataset(4_000, 3);
        let cell = run_cell(&ds, small_opts(), 3, 2, 0.8);
        assert!(cell.kills > 0, "churn schedule never fired at rate 0.8");
        let downs: u64 = cell.per_node.iter().map(|n| n.traffic.downs).sum();
        assert_eq!(downs, cell.kills);
        // Every node ends the run live and useful.
        assert!(cell.per_node.iter().all(|n| n.queries > 0));
    }

    #[test]
    fn exports_are_identical_across_runs() {
        let ds = apb_dataset(4_000, 3);
        let run = || ClusterResults {
            cells: vec![
                run_cell(&ds, small_opts(), 2, 1, 0.0),
                run_cell(&ds, small_opts(), 2, 2, 0.5),
            ],
        };
        let (a, b) = (run(), run());
        assert_eq!(to_json(small_opts(), &a), to_json(small_opts(), &b));
        assert_eq!(to_csv(&a), to_csv(&b));
        assert!(to_json(small_opts(), &a).contains("\"experiment\":\"fig_cluster\""));
        assert!(to_csv(&a).starts_with("nodes,replication,failure_rate,"));
    }
}
