//! Conformance suite for the sharded cluster tier.
//!
//! Anchors held here:
//!
//! * **1-node collapse** — a 1-node replication-1 cluster reproduces the
//!   non-clustered pipeline bit for bit: answers, per-query metrics,
//!   session totals and the resident cache set, for every lookup
//!   strategy, and over a spill tier. The cluster tier is a strict
//!   superset of the single-node pipeline, not a fork of it.
//! * **Spilling nodes** — each request's spill accounting is the sum of
//!   its node groups' own, and answers stay exact through failure,
//!   revival and rebalancing.
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
//! * **One copy of the cells** — replica pushes, peer fills and rebalance
//!   handoffs hand a chunk's buffer over instead of copying it, and a
//!   replica's cells outlive their owner's death unchanged.

mod common;

use aggcache::cluster::ClusterManager;
use aggcache::prelude::*;
use aggcache_bench::rig::{apb_dataset, backend_for, oracle_answer, paper_stream};
use common::{cells, digest};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// A process- and call-unique spill directory (removed by each test).
fn tmpdir() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aggcache-cluster-it-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn remove_dirs(dirs: &[PathBuf]) {
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A VCMC node over a spill tier in `dir`.
fn spilling_manager(ds: &Dataset, budget: usize, dir: &Path) -> CacheManager {
    CacheManager::builder()
        .strategy(Strategy::Vcmc)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(budget)
        .spill(SpillConfig::new(dir))
        .build(backend_for(ds))
        .unwrap()
}

/// Three spilling nodes at replication 1, and their spill directories.
fn spilling_cluster(ds: &Dataset, budget: usize) -> (ClusterManager, Vec<PathBuf>) {
    let dirs: Vec<PathBuf> = (0..3).map(|_| tmpdir()).collect();
    let mut b = ClusterManager::builder();
    for dir in &dirs {
        b = b.node(spilling_manager(ds, budget, dir));
    }
    (b.build().unwrap(), dirs)
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
    // Every strategy in RAM alone, then VCMC over a spill tier whose RAM
    // budget is tight enough to demote and promote.
    let dirs: Vec<PathBuf> = (0..2).map(|_| tmpdir()).collect();
    let ram_only = STRATEGIES.map(|strategy| {
        let nodes = (
            node_manager(&ds, strategy, budget),
            node_manager(&ds, strategy, budget),
        );
        (format!("{strategy:?}"), nodes)
    });
    let spilling = (
        "Vcmc over a spill tier".to_string(),
        (
            spilling_manager(&ds, 16 * 1024, &dirs[0]),
            spilling_manager(&ds, 16 * 1024, &dirs[1]),
        ),
    );
    for (label, (mut plain, node)) in ram_only.into_iter().chain([spilling]) {
        let requests = stream_requests(&ds, 60, 2_000);
        let mut clustered = ClusterManager::builder().node(node).build().unwrap();
        for req in &requests {
            let a = plain.run(req).unwrap();
            let b = clustered.run(req).unwrap();
            assert_eq!(digest(&a), digest(&b), "{label}: outcome diverged");
            assert_eq!(b.spill, a.spill, "{label}: spill accounting diverged");
            assert_eq!(
                b.critical_path_ms.to_bits(),
                a.critical_path_ms.to_bits(),
                "{label}: single-group critical path must equal the node's own"
            );
        }
        assert_eq!(
            cache_contents(&plain),
            cache_contents(clustered.node(0)),
            "{label}: resident sets diverged"
        );
        assert_eq!(
            plain.session().total_ms.to_bits(),
            clustered.node(0).session().total_ms.to_bits(),
            "{label}: session totals diverged"
        );
        assert_eq!(plain.session_spill(), clustered.node(0).session_spill());
        assert_eq!(*clustered.session_remote(), RemoteMetrics::default());
        if plain.spill_store().is_some() {
            let spill = plain.session_spill();
            assert!(
                spill.spill_writes > 0 && spill.spill_promotes > 0,
                "{spill:?}"
            );
        }
    }
    remove_dirs(&dirs);
}

#[test]
fn spilling_cluster_charges_each_request_its_groups_spill() {
    let ds = dataset();
    let (mut c, dirs) = spilling_cluster(&ds, 16 * 1024);
    let outs = c.run_batch(&stream_requests(&ds, 150, 8_000)).unwrap();
    // Churn-free at replication 1: every resident chunk sits at its owner,
    // so no peer ever serves and no fill or push demotes outside a run.
    assert_eq!(c.session_remote().remote_chunks, 0);
    let mut requests = SpillMetrics::default();
    outs.iter().for_each(|o| requests.merge(&o.spill));
    let mut nodes = SpillMetrics::default();
    (0..3).for_each(|n| nodes.merge(c.node(n).session_spill()));
    assert!(
        requests.spill_writes > 0 && requests.spill_reads > 0,
        "{requests:?}"
    );
    // The integer counters match exactly; virtual time is summed in
    // another order, so it matches to rounding.
    let virtual_ms = (requests.spill_virtual_ms, nodes.spill_virtual_ms);
    assert!(
        (virtual_ms.0 - virtual_ms.1).abs() <= 1e-9 * virtual_ms.1,
        "{virtual_ms:?}"
    );
    requests.spill_virtual_ms = nodes.spill_virtual_ms;
    assert_eq!(requests, nodes);
    remove_dirs(&dirs);
}

#[test]
fn spilling_cluster_answers_match_the_oracle_through_churn() {
    let ds = dataset();
    let (mut c, dirs) = spilling_cluster(&ds, 16 * 1024);
    let oracle = backend_for(&ds);
    let requests = stream_requests(&ds, 240, 9_000);
    // The last requests served while node 1 was down run again between
    // its revival and the rebalance, when its peers still hold its slice.
    let replay = &requests[150..170];
    let schedule = requests[..170].iter().chain(replay).chain(&requests[170..]);
    for (i, req) in schedule.enumerate() {
        match i {
            100 => c.kill_node(1),
            170 => c.revive_node(1),
            190 => {
                c.rebalance();
            }
            _ => {}
        }
        let out = c.run(req).unwrap();
        let want = oracle_answer(&oracle, &req.query);
        assert_eq!(cells(&out.data), cells(&want), "request {i} diverged");
    }
    let reads: u64 = (0..3).map(|n| c.node(n).session_spill().spill_reads).sum();
    assert!(reads > 0, "the spill tier never served");
    assert!(
        c.session_remote().remote_chunks > 0,
        "no cooperative serves"
    );
    remove_dirs(&dirs);
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

/// A request spanning several node groups is concatenated into one buffer
/// of exactly its cells: backend misses, hits and in-cache aggregations.
/// Replication 3 on three nodes puts every fetched chunk on every node, so
/// a roll-up is computable at whichever node owns it.
#[test]
fn multi_group_answers_carry_no_spare_capacity() {
    let ds = dataset();
    let mut c = cluster(&ds, 3, 3, Strategy::Vcmc, usize::MAX >> 1);
    let grid = c.node(0).grid().clone();
    let lattice = grid.schema().lattice().clone();
    let mut requests: Vec<QueryRequest> = vec![Query::full_group_by(&grid, ds.fact_gb).into()];
    requests.push(requests[0].clone());
    requests.extend(
        lattice
            .iter_ids_under(ds.fact_gb)
            .filter(|&gb| gb != ds.fact_gb && grid.n_chunks(gb) >= 8)
            .take(4)
            .map(|gb| Query::full_group_by(&grid, gb).into()),
    );
    let (mut missed, mut hit, mut computed) = (0, 0, 0);
    for req in &requests {
        let runs_before: u64 = (0..3).map(|n| c.node(n).session().queries).sum();
        let out = c.run(req).unwrap();
        let runs: u64 = (0..3).map(|n| c.node(n).session().queries).sum::<u64>() - runs_before;
        assert!(runs >= 2, "the request spans {runs} node group(s)");
        let d = &out.data;
        assert_eq!(
            d.heap_bytes(),
            d.len() * (2 * d.stride() + 2),
            "{} cells",
            d.len()
        );
        missed += out.metrics.chunks_missed;
        hit += out.metrics.chunks_hit;
        computed += out.metrics.chunks_computed;
    }
    assert!(
        missed > 0 && hit > 0 && computed > 0,
        "{missed} / {hit} / {computed}"
    );
    // No peer served a chunk, so each node run above was one group.
    assert_eq!(c.session_remote().remote_chunks, 0);
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

/// Every live node's resident buffers, by chunk in key order.
fn resident_buffers(c: &ClusterManager) -> BTreeMap<ChunkKey, Vec<(u32, Arc<ChunkData>)>> {
    let mut held: BTreeMap<ChunkKey, Vec<(u32, Arc<ChunkData>)>> = BTreeMap::new();
    for n in (0..c.num_nodes() as u32).filter(|&n| c.ring().is_alive(n)) {
        for (key, entry) in c.node(n).cache().entries_sorted() {
            held.entry(key)
                .or_default()
                .push((n, Arc::clone(&entry.data)));
        }
    }
    held
}

/// A 4-node VCMC session at ring replication 2, with a per-node budget
/// tight enough that owners evict what their replicas still hold, so
/// replica pushes and peer fills both fire.
fn replicated_session(ds: &Dataset) -> ClusterManager {
    let mut c = cluster(ds, 4, 2, Strategy::Vcmc, 60_000);
    c.run_batch(&stream_requests(ds, 60, 3_000)).unwrap();
    c
}

/// Owners that never aggregate and never refuse an insert only fetch,
/// fill from a peer, take a replica push or take a handoff, so at every
/// point a chunk resident on two nodes is one buffer. (An owner that
/// recomputes a chunk its replica holds, or that fetches it after
/// refusing a peer's copy, holds an equal second buffer: replacing the
/// replica's entry would reset its clock.)
#[test]
fn replicas_share_one_buffer() {
    let ds = dataset();
    let mut c = cluster(&ds, 4, 2, Strategy::NoAggregation, usize::MAX >> 1);
    let mut shared = 0;
    for (i, req) in stream_requests(&ds, 90, 3_000).iter().enumerate() {
        match i {
            30 => c.kill_node(1),
            60 => c.revive_node(1),
            _ => {}
        }
        c.run(req).unwrap();
        for (key, holders) in resident_buffers(&c) {
            let (first, rest) = holders.split_first().unwrap();
            for (n, data) in rest {
                assert!(
                    Arc::ptr_eq(&first.1, data),
                    "request {i}, {key:?}: nodes {} and {n} hold separate copies",
                    first.0
                );
                shared += 1;
            }
        }
    }
    assert!(shared > 0, "no chunk was ever resident on two nodes");
    assert!(c.session_remote().remote_chunks > 0, "no peer fills");
    // The process holds each buffer once, while each node still charges
    // its own copy.
    let held = resident_buffers(&c);
    let per_node: usize = held.values().flatten().map(|(_, d)| d.heap_bytes()).sum();
    let distinct: usize = held.values().map(|h| h[0].1.heap_bytes()).sum();
    assert!(
        distinct < per_node,
        "{distinct} B distinct vs {per_node} B per node"
    );
    let accounted: usize = (0..4).map(|n| c.node(n).cache().used_bytes()).sum();
    let charged: usize = held
        .values()
        .flatten()
        .map(|(_, d)| d.accounting_bytes())
        .sum();
    assert_eq!(accounted, charged);
}

#[test]
fn rebalance_moves_buffers_without_copying_them() {
    let ds = dataset();
    let mut c = replicated_session(&ds);
    c.kill_node(1);
    c.run_batch(&stream_requests(&ds, 30, 5_000)).unwrap();
    c.revive_node(1);
    let before = resident_buffers(&c);
    let moved = c.rebalance();
    assert!(moved > 0, "nothing to hand off");
    let after = resident_buffers(&c);
    let mut received = 0;
    for (key, holders) in &after {
        for (n, data) in holders {
            let was = before.get(key).map_or(&[][..], Vec::as_slice);
            assert!(
                was.iter().any(|(_, old)| Arc::ptr_eq(old, data)),
                "{key:?} at node {n}: a buffer no node held before the rebalance"
            );
            received += usize::from(!was.iter().any(|(m, _)| m == n));
        }
    }
    assert!(received > 0, "no node admitted a handed-off chunk");
}

#[test]
fn killing_the_owner_leaves_the_replica_intact() {
    let ds = dataset();
    let mut c = replicated_session(&ds);
    let oracle = backend_for(&ds);
    // A chunk its primary and its replica both hold.
    let (key, replica, before) = resident_buffers(&c)
        .into_iter()
        .filter(|(_, holders)| holders.len() == 2)
        .find_map(|(key, holders)| {
            let owners = c.ring().owners(key);
            let replica = holders.iter().find(|(n, _)| *n == owners[1])?;
            holders
                .iter()
                .any(|(n, _)| *n == owners[0])
                .then(|| (key, replica.0, cells(&replica.1)))
        })
        .expect("a chunk held by both of its owners");
    let primary = c.ring().primary(key).unwrap();
    c.kill_node(primary);
    let entry = c
        .node(replica)
        .cache()
        .peek(&key)
        .expect("the replica keeps its chunk");
    assert_eq!(cells(&entry.data), before, "the replica's cells changed");
    for req in stream_requests(&ds, 30, 8_000) {
        let out = c.run(&req).unwrap();
        assert_eq!(cells(&out.data), cells(&oracle_answer(&oracle, &req.query)));
    }
    let req = QueryRequest::new(Query::new(key.gb, vec![key.chunk]));
    let out = c.run(&req).unwrap();
    assert_eq!(cells(&out.data), cells(&oracle_answer(&oracle, &req.query)));
}
