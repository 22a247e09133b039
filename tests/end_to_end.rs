//! Full-system integration: the APB-1-shaped benchmark at reduced scale,
//! driven through pre-loading, a locality query stream, every strategy,
//! and both policies — with answers checked against the backend and the
//! acceleration tables cross-checked against a from-scratch rebuild.

use aggcache::prelude::*;
use aggcache_bench::rig::{apb_dataset, backend_for, oracle_answer};

fn dataset() -> Dataset {
    apb_dataset(20_000, 99)
}

fn run_session(
    dataset: &Dataset,
    strategy: Strategy,
    policy: PolicyKind,
    cache_bytes: usize,
    preload: bool,
    queries: usize,
) -> (CacheManager, u64) {
    let oracle = backend_for(dataset);
    let mut mgr = CacheManager::builder()
        .strategy(strategy)
        .policy(policy)
        .cache_bytes(cache_bytes)
        .build(backend_for(dataset))
        .unwrap();
    if preload {
        mgr.preload_best().unwrap();
    }
    let max_level = dataset.grid.geom(dataset.fact_gb).level().to_vec();
    let mut stream = QueryStream::new(dataset.grid.clone(), WorkloadConfig::paper(max_level, 77));
    let mut checked = 0u64;
    for i in 0..queries {
        let (q, kind) = stream.next_with_kind();
        let mut got = mgr.run(&(&q).into()).unwrap();
        // Spot-check every 5th answer against the backend oracle (checking
        // all of them is covered by the smaller oracle test).
        if i % 5 == 0 {
            got.data.sort_by_coords();
            let expected = oracle_answer(&oracle, &q);
            assert_eq!(got.data, expected, "query #{i} ({kind:?}) {q:?}");
            checked += 1;
        }
    }
    (mgr, checked)
}

#[test]
fn apb_stream_all_strategies_all_policies() {
    let ds = dataset();
    for strategy in [
        Strategy::NoAggregation,
        Strategy::Esm,
        Strategy::Vcm,
        Strategy::Vcmc,
    ] {
        for policy in [PolicyKind::Lru, PolicyKind::Benefit, PolicyKind::TwoLevel] {
            let (mgr, checked) = run_session(
                &ds,
                strategy,
                policy,
                200_000,
                policy == PolicyKind::TwoLevel,
                40,
            );
            assert!(checked >= 8);
            assert_eq!(mgr.session().queries, 40);
        }
    }
}

#[test]
fn vcm_tables_consistent_after_apb_stream() {
    let ds = dataset();
    let (mgr, _) = run_session(&ds, Strategy::Vcm, PolicyKind::TwoLevel, 120_000, true, 60);
    let cached: std::collections::HashSet<ChunkKey> = mgr.cache().keys().collect();
    let rebuilt = CountTable::rebuild_from(ds.grid.clone(), |k| cached.contains(&k));
    mgr.counts().unwrap().assert_same(&rebuilt);
}

#[test]
fn vcmc_costs_consistent_after_apb_stream() {
    let ds = dataset();
    let (mgr, _) = run_session(&ds, Strategy::Vcmc, PolicyKind::TwoLevel, 120_000, true, 60);
    // Count part must agree with rebuild; cost part must match plan leaves.
    let cached: std::collections::HashSet<ChunkKey> = mgr.cache().keys().collect();
    let rebuilt = CountTable::rebuild_from(ds.grid.clone(), |k| cached.contains(&k));
    mgr.counts().unwrap().assert_same(&rebuilt);
    let costs = mgr.costs().unwrap();
    let lattice = ds.grid.schema().lattice().clone();
    let mut inspected = 0;
    for gb in lattice.iter_ids_under(ds.fact_gb) {
        for chunk in (0..ds.grid.n_chunks(gb)).step_by(7) {
            let key = ChunkKey::new(gb, chunk);
            if let Some(cost) = costs.cost(key) {
                let outcome = mgr.lookup_chunk(key);
                let plan = outcome.plan.expect("computable");
                assert_eq!(plan.cost, u64::from(cost));
                let leaf_sum: u64 = plan
                    .leaves
                    .iter()
                    .map(|l| mgr.cache().peek(l).expect("leaf cached").data.len() as u64)
                    .sum();
                assert_eq!(leaf_sum, plan.cost, "{key:?}");
                inspected += 1;
            }
        }
    }
    assert!(
        inspected >= 10,
        "enough computable chunks inspected: {inspected}"
    );
}

#[test]
fn preload_then_aggregated_queries_never_touch_backend() {
    let ds = dataset();
    // Budget comfortably above the base table: pre-load takes the fact
    // level and every answerable query becomes a complete hit.
    let mut mgr = CacheManager::builder()
        .strategy(Strategy::Vcmc)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(4_000_000)
        .build(backend_for(&ds))
        .unwrap();
    let report = mgr.preload_best().unwrap().unwrap();
    assert_eq!(report.gb, ds.fact_gb);
    let lattice = ds.grid.schema().lattice().clone();
    for gb in lattice.iter_ids_under(ds.fact_gb).step_by(11) {
        let q = Query::new(gb, vec![0]);
        let m = mgr.run(&(&q).into()).unwrap().metrics;
        assert!(m.complete_hit, "{gb:?}");
    }
    assert_eq!(mgr.session().sum.backend_tuples, 0);
}

/// The budget charges a cached cell the paper's 20 bytes; on APB-1 every
/// coordinate fits 16 bits and every value this session caches
/// round-trips through `f32`, so a five-dimensional cell holds 14 bytes of
/// heap. Checked over every chunk of a manager filled to its budget.
#[test]
fn a_full_apb_cache_holds_less_heap_than_it_accounts() {
    let ds = dataset();
    let budget = 200_000;
    let (mgr, _) = run_session(&ds, Strategy::Vcmc, PolicyKind::TwoLevel, budget, true, 100);
    let cache = mgr.cache();
    assert!(
        cache.used_bytes() * 10 >= budget * 9,
        "{} of {budget} bytes used",
        cache.used_bytes()
    );
    let entries = cache.entries_sorted();
    let heap: usize = entries.iter().map(|(_, e)| e.data.heap_bytes()).sum();
    let accounted: usize = entries.iter().map(|(_, e)| e.data.accounting_bytes()).sum();
    assert!(
        heap * 10 <= accounted * 7,
        "{heap} heap bytes for {accounted} accounted"
    );
}
