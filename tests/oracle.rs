//! Cross-crate integration tests: every lookup strategy, run over a real
//! query stream, must return exactly the answers a brute-force oracle
//! computes from the raw fact table.

mod common;

use aggcache::prelude::*;
use common::{backend, oracle_answer};

fn stream_against_oracle(strategy: Strategy, policy: PolicyKind, cache_bytes: usize) {
    let dataset = SyntheticSpec::new()
        .dim("a", vec![1, 3, 9, 27], vec![1, 2, 4, 8])
        .dim("b", vec![1, 4, 12], vec![1, 2, 4])
        .dim("c", vec![1, 5], vec![1, 3])
        .tuples(4_000)
        .seed(17)
        .build();
    let grid = dataset.grid.clone();
    let oracle_backend = backend(&dataset);
    let mut manager = CacheManager::builder()
        .strategy(strategy)
        .policy(policy)
        .cache_bytes(cache_bytes)
        .build(backend(&dataset))
        .unwrap();

    let max_level = grid.schema().base_level();
    let mut stream = QueryStream::new(grid.clone(), WorkloadConfig::paper(max_level, 99));
    for i in 0..120 {
        let (q, kind) = stream.next_with_kind();
        let expected = oracle_answer(&oracle_backend, &q);
        let mut got = manager.run(&(&q).into()).unwrap();
        got.data.sort_by_coords();
        assert_eq!(
            got.data, expected,
            "strategy {strategy:?} policy {policy:?} query #{i} ({kind:?}) {q:?}"
        );
    }
}

#[test]
fn no_aggregation_matches_oracle() {
    stream_against_oracle(Strategy::NoAggregation, PolicyKind::Benefit, 64 * 1024);
}

#[test]
fn esm_matches_oracle() {
    stream_against_oracle(Strategy::Esm, PolicyKind::TwoLevel, 64 * 1024);
}

#[test]
fn esmc_matches_oracle() {
    stream_against_oracle(
        Strategy::Esmc {
            node_budget: Some(200_000),
        },
        PolicyKind::TwoLevel,
        64 * 1024,
    );
}

#[test]
fn vcm_matches_oracle() {
    stream_against_oracle(Strategy::Vcm, PolicyKind::TwoLevel, 64 * 1024);
}

#[test]
fn vcmc_matches_oracle() {
    stream_against_oracle(Strategy::Vcmc, PolicyKind::TwoLevel, 64 * 1024);
}

#[test]
fn vcmc_matches_oracle_under_heavy_eviction() {
    // A cache that holds only a handful of chunks: constant churn.
    stream_against_oracle(Strategy::Vcmc, PolicyKind::TwoLevel, 4 * 1024);
    stream_against_oracle(Strategy::Vcmc, PolicyKind::Benefit, 4 * 1024);
}

#[test]
fn vcm_matches_oracle_under_heavy_eviction() {
    stream_against_oracle(Strategy::Vcm, PolicyKind::TwoLevel, 4 * 1024);
}

#[test]
fn aggregate_functions_agree_with_oracle() {
    // Each aggregate function end-to-end: fetch base, compute the top.
    for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
        let dataset = SyntheticSpec::new()
            .dim("a", vec![1, 2, 6], vec![1, 2, 3])
            .dim("b", vec![1, 4], vec![1, 2])
            .tuples(300)
            .seed(5)
            .build();
        let grid = dataset.grid.clone();
        let backend = Backend::new(dataset.fact.clone(), agg, BackendCostModel::default());
        let expected = backend
            .fetch(grid.schema().lattice().top(), &[0])
            .unwrap()
            .chunks
            .remove(0)
            .1;
        let backend2 = Backend::new(dataset.fact.clone(), agg, BackendCostModel::default());
        let mut manager = CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .build(backend2)
            .unwrap();
        let base_q = Query::full_group_by(&grid, grid.schema().lattice().base());
        manager.run(&(&base_q).into()).unwrap();
        let top_q = Query::full_group_by(&grid, grid.schema().lattice().top());
        let r = manager.run(&(&top_q).into()).unwrap();
        assert!(r.metrics.complete_hit, "{agg:?} must aggregate in cache");
        assert_eq!(r.data, expected, "{agg:?}");
    }
}
