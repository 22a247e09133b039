//! Conformance suite for the sharded cluster tier.
//!
//! Anchors held here:
//!
//! * **1-node collapse** — a 1-node replication-1 cluster reproduces the
//!   non-clustered pipeline bit for bit: answers, per-query metrics,
//!   session totals and the resident cache set, for every lookup
//!   strategy. The cluster tier is a strict superset of the single-node
//!   pipeline, not a fork of it.
//! * **Correctness under sharding** — an N-node cooperative cluster
//!   returns the same answer cells as a fresh single-node run of the
//!   same stream.
//! * **Table consistency** — per-node virtual count tables survive
//!   cooperative fills, node failure, revival and rebalancing: a
//!   from-scratch rebuild over each node's resident set matches the
//!   incrementally maintained table.
//! * **Determinism** — identical runs (any thread count) produce
//!   bit-identical virtual times and wire accounting.

mod common;

use aggcache::cluster::ClusterManager;
use aggcache::prelude::*;
use common::sorted_keys as cache_keys;

fn dataset() -> Dataset {
    common::apb_dataset(42)
}

fn node_manager(ds: &Dataset, strategy: Strategy, threads: usize, budget: usize) -> CacheManager {
    CacheManager::builder()
        .strategy(strategy)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(budget)
        .threads(threads)
        .build(common::backend(ds))
        .unwrap()
}

fn cluster(
    ds: &Dataset,
    n: usize,
    replication: usize,
    strategy: Strategy,
    threads: usize,
    budget: usize,
) -> ClusterManager {
    let mut b = ClusterManager::builder().replication(replication);
    for _ in 0..n {
        b = b.node(node_manager(ds, strategy, threads, budget));
    }
    b.build().unwrap()
}

fn stream_requests(ds: &Dataset, n: usize, seed: u64) -> Vec<QueryRequest> {
    QueryRequest::batch(&common::stream_queries(ds, n, seed))
}

const STRATEGIES: [Strategy; 5] = [
    Strategy::NoAggregation,
    Strategy::Esm,
    Strategy::Esmc {
        node_budget: Some(128),
    },
    Strategy::Vcm,
    Strategy::Vcmc,
];

/// Sorted answer cells with bit-exact values.
fn cells(data: &ChunkData) -> Vec<(Vec<u32>, u64)> {
    let mut d = data.clone();
    d.sort_by_coords();
    d.iter().map(|(c, v)| (c.to_vec(), v.to_bits())).collect()
}

fn metrics_bits(m: &QueryMetrics) -> Vec<u64> {
    vec![
        m.backend_virtual_ms.to_bits(),
        m.agg_virtual_ms.to_bits(),
        m.lookup_virtual_ms.to_bits(),
        m.update_virtual_ms.to_bits(),
        m.total_ms().to_bits(),
        m.chunks_hit as u64,
        m.chunks_computed as u64,
        m.chunks_missed as u64,
        m.table_writes,
        m.lookup_nodes,
        u64::from(m.complete_hit),
    ]
}

#[test]
fn one_node_cluster_is_bit_identical_to_plain_pipeline() {
    let ds = dataset();
    let budget = 120_000;
    for strategy in STRATEGIES {
        let requests = stream_requests(&ds, 60, 2_000);
        let mut plain = node_manager(&ds, strategy, 1, budget);
        let mut clustered = cluster(&ds, 1, 1, strategy, 1, budget);
        for req in &requests {
            let a = plain.run(req).unwrap();
            let b = clustered.run(req).unwrap();
            assert_eq!(
                cells(&a.data),
                cells(&b.data),
                "{strategy:?}: answer diverged"
            );
            assert_eq!(
                metrics_bits(&a.metrics),
                metrics_bits(&b.metrics),
                "{strategy:?}: metrics diverged"
            );
            assert_eq!(
                b.remote,
                RemoteMetrics::default(),
                "{strategy:?}: 1-node cluster charged remote costs"
            );
            assert_eq!(
                b.critical_path_ms.to_bits(),
                a.metrics.total_ms().to_bits(),
                "{strategy:?}: single-group critical path must equal the local total"
            );
        }
        assert_eq!(
            cache_keys(&plain),
            cache_keys(clustered.node(0)),
            "{strategy:?}: resident sets diverged"
        );
        assert_eq!(
            plain.session().total_ms.to_bits(),
            clustered.node(0).session().total_ms.to_bits(),
            "{strategy:?}: session totals diverged"
        );
        assert_eq!(*clustered.session_remote(), RemoteMetrics::default());
    }
}

#[test]
fn sharded_cluster_answers_match_single_node_oracle() {
    let ds = dataset();
    let requests = stream_requests(&ds, 60, 3_000);
    // Replication 2 and a tight per-node budget: primaries evict under
    // pressure while replicas still hold copies, which is what drives
    // summary-gated cooperative serves.
    let mut c = cluster(&ds, 4, 2, Strategy::Vcmc, 1, 60_000);
    let mut oracle = node_manager(&ds, Strategy::Vcmc, 1, usize::MAX >> 1);
    let outs = c.run_batch(&requests).unwrap();
    for (req, out) in requests.iter().zip(&outs) {
        let want = oracle.run(req).unwrap();
        assert_eq!(cells(&out.data), cells(&want.data), "answer diverged");
    }
    // The cooperative path actually fired.
    assert!(
        c.session_remote().remote_chunks > 0,
        "no cooperative serves in a 4-node session"
    );
    assert!(c.session_remote().bytes_on_wire > 0);
    assert!((0..4).any(|n| c.traffic(n).serves_out > 0));
    assert!((0..4).any(|n| c.traffic(n).remote_chunks_in > 0));
    // Every node took a share of the traffic.
    assert!((0..4).all(|n| c.node(n).session().queries > 0));
}

#[test]
fn malformed_request_is_refused_before_routing() {
    let ds = dataset();
    let mut c = cluster(&ds, 4, 2, Strategy::Vcmc, 1, 60_000);
    c.run_batch(&stream_requests(&ds, 10, 3_000)).unwrap();
    let state = |c: &ClusterManager| -> Vec<_> {
        (0..4)
            .map(|n| (c.node(n).version(), cache_keys(c.node(n))))
            .collect()
    };
    let before = state(&c);
    for bad in [
        Query::new(ds.fact_gb, vec![0, ds.grid.n_chunks(ds.fact_gb)]),
        Query::new(GroupById(777), vec![0]),
    ] {
        let refused = c.run(&QueryRequest::new(bad));
        let typed = matches!(refused, Err(ClusterError::Cache(CacheError::Query(_))));
        assert!(typed, "expected a typed refusal, got {refused:?}");
    }
    assert_eq!(state(&c), before);
}

#[test]
fn count_tables_stay_consistent_through_failures_and_rebalance() {
    let ds = dataset();
    for strategy in [Strategy::Vcm, Strategy::Vcmc] {
        let mut c = cluster(&ds, 3, 2, strategy, 1, 120_000);
        let check = |c: &ClusterManager, when: &str| {
            for n in 0..3u32 {
                let mgr = c.node(n);
                let cached: std::collections::HashSet<ChunkKey> = mgr.cache().keys().collect();
                let rebuilt = CountTable::rebuild_from(ds.grid.clone(), |k| cached.contains(&k));
                mgr.counts()
                    .unwrap_or_else(|| panic!("{strategy:?}: node {n} has no count table"))
                    .assert_same(&rebuilt);
                let _ = when;
            }
        };
        c.run_batch(&stream_requests(&ds, 40, 4_000)).unwrap();
        check(&c, "after warmup");
        c.kill_node(1);
        c.run_batch(&stream_requests(&ds, 20, 5_000)).unwrap();
        check(&c, "after failover");
        c.revive_node(1);
        c.rebalance();
        check(&c, "after rebalance");
        c.run_batch(&stream_requests(&ds, 20, 6_000)).unwrap();
        check(&c, "after failback");
    }
}

#[test]
fn cluster_sessions_are_deterministic_across_runs_and_threads() {
    let ds = dataset();
    let run = |threads: usize| {
        let mut c = cluster(&ds, 4, 2, Strategy::Vcmc, threads, 120_000);
        let outs = c.run_batch(&stream_requests(&ds, 50, 7_000)).unwrap();
        let digest: Vec<(u64, u64)> = outs
            .iter()
            .map(|o| (o.total_virtual_ms().to_bits(), o.critical_path_ms.to_bits()))
            .collect();
        (
            digest,
            c.session_remote().bytes_on_wire,
            c.session_remote().remote_virtual_ms.to_bits(),
        )
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a, b, "same-seed cluster runs diverged");
    let c = run(4);
    assert_eq!(a, c, "cluster session is thread-count dependent");
}
