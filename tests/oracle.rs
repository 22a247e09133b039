//! Cross-crate integration tests: every lookup strategy, run over a real
//! query stream, must return exactly the answers a brute-force oracle
//! computes from the raw fact table.

mod common;

use aggcache::prelude::*;
use aggcache_bench::rig::{apb_dataset, backend_for, oracle_answer, paper_stream};
use common::cells;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

fn stream_against_oracle(strategy: Strategy, policy: PolicyKind, cache_bytes: usize) {
    let dataset = SyntheticSpec::new()
        .dim("a", vec![1, 3, 9, 27], vec![1, 2, 4, 8])
        .dim("b", vec![1, 4, 12], vec![1, 2, 4])
        .dim("c", vec![1, 5], vec![1, 3])
        .tuples(4_000)
        .seed(17)
        .build();
    let grid = dataset.grid.clone();
    let oracle_backend = backend_for(&dataset);
    let mut manager = CacheManager::builder()
        .strategy(strategy)
        .policy(policy)
        .cache_bytes(cache_bytes)
        .build(backend_for(&dataset))
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

/// One fact tuple of the ingest test's own model of the fact file.
type Tuple = (Vec<u32>, f64);

/// A random batch against `model`: fresh inserts (integer measures, so
/// SUMs stay exact in any order), deletes of live tuples — sometimes the
/// same one twice — and deletes that can match nothing.
fn random_batch(rng: &mut StdRng, model: &[Tuple], cards: &[u32]) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    for _ in 0..rng.gen_range(1..=8usize) {
        let live = &model[rng.gen_range(0..model.len())];
        match rng.gen_range(0..8u32) {
            0..=3 => {
                let coords: Vec<u32> = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
                batch.insert(&coords, f64::from(rng.gen_range(1..1000u32)));
            }
            4..=5 => {
                batch.delete(&live.0, live.1);
            }
            6 => {
                batch.delete(&live.0, live.1).delete(&live.0, live.1);
            }
            _ => {
                batch.delete(&live.0, live.1 + 0.5);
            }
        }
    }
    batch
}

/// The batch applied to the model in a straight line: every delete takes
/// the first live instance it matches among the pre-batch tuples, then the
/// inserts go to the end — per chunk, the order `FactTable::load` keeps.
fn apply_to_model(model: &mut Vec<Tuple>, batch: &DeltaBatch) {
    for rec in batch.records().iter().filter(|r| r.op == DeltaOp::Delete) {
        let same = |t: &Tuple| t.0 == rec.coords && t.1.to_bits() == rec.value.to_bits();
        if let Some(i) = model.iter().position(same) {
            model.remove(i);
        }
    }
    for rec in batch.records().iter().filter(|r| r.op == DeltaOp::Insert) {
        model.push((rec.coords.clone(), rec.value));
    }
}

/// Every other post-update oracle applies the batch to its shadow with the
/// `apply_delta` under test, so a wrongly rebuilt run of the fact table is
/// wrong on both sides. This one never calls it: the oracle backend is loaded fresh
/// from the test's own tuple list after every batch.
#[test]
fn ingest_answers_match_a_freshly_loaded_backend() {
    let ds = apb_dataset(20_000, 21);
    let (grid, gb) = (ds.grid.clone(), ds.fact_gb);
    let level = grid.geom(gb).level().to_vec();
    let cards: Vec<u32> = (0..grid.num_dims())
        .map(|d| grid.schema().dimension(d).cardinality(level[d]))
        .collect();
    let mut initial: Vec<Tuple> = Vec::new();
    for chunk in ds.fact.non_empty_chunks() {
        initial.extend(ds.fact.scan_chunk(chunk).map(|(c, v)| (c.to_vec(), v)));
    }
    let queries = paper_stream(&ds, 31).take_queries(16);
    let strategies = [
        Strategy::NoAggregation,
        Strategy::Esm,
        Strategy::Esmc {
            node_budget: Some(2_000),
        },
        Strategy::Vcm,
        Strategy::Vcmc,
    ];
    for (s, strategy) in strategies.into_iter().enumerate() {
        for agg in [AggFn::Sum, AggFn::Count] {
            let mut model = initial.clone();
            let mut rng = StdRng::seed_from_u64(0xDE17A + s as u64);
            let cost = BackendCostModel::default();
            let mut mgr = CacheManager::builder()
                .strategy(strategy)
                .policy(PolicyKind::TwoLevel)
                .cache_bytes(200_000)
                .build(Backend::new(ds.fact.clone(), agg, cost))
                .unwrap();
            for (round, reads) in queries.chunks(4).enumerate() {
                // Warm the cache on this round's reads, write, then ask
                // the same reads again: patched, invalidated and untouched
                // chunks all answer.
                for q in reads {
                    mgr.run(&q.into()).unwrap();
                }
                let batch = random_batch(&mut rng, &model, &cards);
                mgr.ingest(&batch).unwrap();
                apply_to_model(&mut model, &batch);
                let mut facts = ChunkData::new(grid.num_dims());
                for (coords, value) in &model {
                    facts.push(coords, *value);
                }
                let oracle = Backend::new(FactTable::load(grid.clone(), gb, facts), agg, cost);
                for (i, q) in reads.iter().enumerate() {
                    let got = mgr.run(&q.into()).unwrap();
                    let ctx = format!("{strategy:?} {agg:?} round {round} read {i} {q:?}");
                    assert_eq!(cells(&got.data), cells(&oracle_answer(&oracle, q)), "{ctx}");
                }
                if let Some(counts) = mgr.counts() {
                    let cached: HashSet<ChunkKey> = mgr.cache().keys().collect();
                    let rebuilt = CountTable::rebuild_from(grid.clone(), |k| cached.contains(&k));
                    counts.assert_same(&rebuilt);
                }
            }
            let u = mgr.session_updates();
            assert!(
                u.chunks_patched + u.chunks_invalidated > 0,
                "{strategy:?} {agg:?}: no batch reached a resident chunk"
            );
        }
    }
}
