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
//! * **Determinism** — identical runs produce bit-identical virtual times
//!   and wire accounting.
//! * **One copy of the facts** — every node's backend reads the dataset's
//!   own fact runs, not a copy of them.

mod common;

use aggcache::cluster::ClusterManager;
use aggcache::prelude::*;
use aggcache_bench::rig::{apb_dataset, backend_for, paper_stream};
use common::{cells, digest};

fn dataset() -> Dataset {
    apb_dataset(20_000, 42)
}

/// The resident chunks, their cells and replacement metadata, in key order.
fn cache_contents(mgr: &CacheManager) -> String {
    format!("{:?}", mgr.cache().entries_sorted())
}

fn node_manager(ds: &Dataset, strategy: Strategy, budget: usize) -> CacheManager {
    CacheManager::builder()
        .strategy(strategy)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(budget)
        .build(backend_for(ds))
        .unwrap()
}

fn cluster(
    ds: &Dataset,
    n: usize,
    replication: usize,
    strategy: Strategy,
    budget: usize,
) -> ClusterManager {
    let mut b = ClusterManager::builder().replication(replication);
    for _ in 0..n {
        b = b.node(node_manager(ds, strategy, budget));
    }
    b.build().unwrap()
}

fn stream_requests(ds: &Dataset, n: usize, seed: u64) -> Vec<QueryRequest> {
    QueryRequest::batch(&paper_stream(ds, seed).take_queries(n))
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

#[test]
fn one_node_cluster_is_bit_identical_to_plain_pipeline() {
    let ds = dataset();
    let budget = 120_000;
    for strategy in STRATEGIES {
        let requests = stream_requests(&ds, 60, 2_000);
        let mut plain = node_manager(&ds, strategy, budget);
        let mut clustered = cluster(&ds, 1, 1, strategy, budget);
        for req in &requests {
            let a = plain.run(req).unwrap();
            let b = clustered.run(req).unwrap();
            assert_eq!(digest(&a), digest(&b), "{strategy:?}: outcome diverged");
            assert_eq!(
                b.critical_path_ms.to_bits(),
                a.metrics.total_ms().to_bits(),
                "{strategy:?}: single-group critical path must equal the local total"
            );
        }
        assert_eq!(
            cache_contents(&plain),
            cache_contents(clustered.node(0)),
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
    let mut c = cluster(&ds, 4, 2, Strategy::Vcmc, 60_000);
    let mut oracle = node_manager(&ds, Strategy::Vcmc, usize::MAX >> 1);
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
    let mut c = cluster(&ds, 4, 2, Strategy::Vcmc, 60_000);
    c.run_batch(&stream_requests(&ds, 10, 3_000)).unwrap();
    let state = |c: &ClusterManager| -> Vec<_> {
        (0..4)
            .map(|n| (c.node(n).version(), cache_contents(c.node(n))))
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
        let mut c = cluster(&ds, 3, 2, strategy, 120_000);
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
fn every_node_shares_the_datasets_fact_runs() {
    let ds = dataset();
    let c = cluster(&ds, 4, 2, Strategy::Vcmc, 60_000);
    for n in 0..4u32 {
        let fact = c.node(n).backend().fact();
        for chunk in 0..ds.grid.n_chunks(ds.fact_gb) {
            let shared = std::ptr::eq(fact.chunk(chunk), ds.fact.chunk(chunk));
            assert!(shared, "node {n} holds its own copy of run {chunk}");
        }
    }
}

#[test]
fn cluster_sessions_are_deterministic_across_runs() {
    let ds = dataset();
    let run = || {
        let mut c = cluster(&ds, 4, 2, Strategy::Vcmc, 120_000);
        let outs = c.run_batch(&stream_requests(&ds, 50, 7_000)).unwrap();
        (
            outs.iter().map(digest).collect::<Vec<_>>(),
            c.session_remote().bytes_on_wire,
            c.session_remote().remote_virtual_ms.to_bits(),
        )
    };
    assert_eq!(run(), run(), "same-seed cluster runs diverged");
}
