//! Batch-equivalence and probe-stress tests for the query pipeline.
//!
//! The contract under test (DESIGN.md §6): [`CacheManager::run_batch`] is
//! the loop over [`CacheManager::run`] — so a windowed `run_batch` session
//! is *bit-identical* to a `run` loop over the same queries, for every
//! lookup strategy and every replacement policy. "Bit-identical" covers
//! the returned cells (compared via `f64::to_bits`), the per-query
//! virtual-time metrics, the final cache contents and the session totals.
//! The `&self` probe phase stays safe to call from many threads at once.

mod common;

use aggcache::core::{esm, LookupStats};
use aggcache::prelude::*;
use aggcache_bench::rig::{backend_for, paper_stream};
use common::{digest, synthetic_dataset as dataset};
use std::thread;

fn manager_for(
    ds: &Dataset,
    strategy: Strategy,
    policy: PolicyKind,
    cache_bytes: usize,
) -> CacheManager {
    CacheManager::builder()
        .strategy(strategy)
        .policy(policy)
        .cache_bytes(cache_bytes)
        .build(backend_for(ds))
        .unwrap()
}

/// A session's deterministic totals: everything but the wall-clock
/// fields of its summed metrics, floats in round-trip form.
fn session_view(s: &SessionMetrics) -> String {
    let sum = s.sum.without_wall_clock();
    format!("{:?}", SessionMetrics { sum, ..s.clone() })
}

/// Runs the full equivalence check for one strategy: for each policy,
/// `run_batch` (in windows) must match a `run` loop.
///
/// The cache budget is deliberately small — a fraction of the base cube —
/// so the stream churns through admissions and evictions and aggregation
/// runs over ever-changing plans.
fn assert_equivalence_for(strategy: Strategy) {
    let ds = dataset();
    let queries = paper_stream(&ds, 2_000).take_queries(36);
    let budget = 600 * PAPER_TUPLE_BYTES;
    for policy in [PolicyKind::Lru, PolicyKind::Benefit, PolicyKind::TwoLevel] {
        // Baseline: the plain `run` loop.
        let mut seq = manager_for(&ds, strategy, policy, budget);
        seq.preload_best().unwrap();
        let seq_results: Vec<ExecOutcome> = queries
            .iter()
            .map(|q| seq.run(&(q).into()).unwrap())
            .collect();

        let ctx = format!("{strategy:?}/{policy:?}");
        let mut bat = manager_for(&ds, strategy, policy, budget);
        bat.preload_best().unwrap();
        let mut bat_results = Vec::with_capacity(queries.len());
        for window in queries.chunks(9) {
            bat_results.extend(bat.run_batch(&QueryRequest::batch(window)).unwrap());
        }
        assert_eq!(bat_results.len(), seq_results.len());
        for (i, (s, b)) in seq_results.iter().zip(&bat_results).enumerate() {
            let ctx = format!("{ctx}, query {i}");
            assert_eq!(digest(s), digest(b), "{ctx}");
        }
        assert_eq!(
            format!("{:?}", seq.cache().entries_sorted()),
            format!("{:?}", bat.cache().entries_sorted()),
            "{ctx}: cache contents"
        );
        assert_eq!(
            session_view(seq.session()),
            session_view(bat.session()),
            "{ctx}"
        );
    }
}

#[test]
fn no_aggregation_batch_equals_sequential() {
    assert_equivalence_for(Strategy::NoAggregation);
}

#[test]
fn esm_batch_equals_sequential() {
    assert_equivalence_for(Strategy::Esm);
}

#[test]
fn esmc_batch_equals_sequential() {
    assert_equivalence_for(Strategy::Esmc { node_budget: None });
}

#[test]
fn esmc_bounded_batch_equals_sequential() {
    assert_equivalence_for(Strategy::Esmc {
        node_budget: Some(64),
    });
}

#[test]
fn vcm_batch_equals_sequential() {
    assert_equivalence_for(Strategy::Vcm);
}

#[test]
fn vcmc_batch_equals_sequential() {
    assert_equivalence_for(Strategy::Vcmc);
}

/// All chunk keys of a grid, across every group-by.
fn all_keys(grid: &ChunkGrid) -> Vec<ChunkKey> {
    grid.schema()
        .lattice()
        .iter_ids()
        .flat_map(|gb| (0..grid.n_chunks(gb)).map(move |c| ChunkKey::new(gb, c)))
        .collect()
}

/// Stress test: many reader threads hammer the immutable `&self` probe
/// phase while a writer inserts and evicts chunks between rounds. After
/// every round the paper's Property 1 oracle must hold for every chunk:
/// `count(c) > 0 ⇔ ESM(c)` — i.e. the count table the concurrent probes
/// read is exactly as trustworthy as an exhaustive search.
#[test]
fn concurrent_probes_with_interleaved_writer_keep_count_oracle() {
    let ds = dataset();
    let mut mgr = manager_for(
        &ds,
        Strategy::Vcm,
        PolicyKind::Benefit,
        4_000 * PAPER_TUPLE_BYTES,
    );
    let queries = paper_stream(&ds, 99).take_queries(24);
    let keys = all_keys(&ds.grid);
    let n_dims = ds.grid.num_dims();

    let cell = |seed: u64| {
        let mut d = ChunkData::new(n_dims);
        d.push(&vec![(seed % 3) as u32; n_dims], seed as f64);
        d
    };

    // Deterministic LCG so the insert/evict schedule is reproducible.
    let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
    let mut step = || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lcg >> 33
    };

    for round in 0..12 {
        // Writer: mutate cache + tables between probe rounds.
        for _ in 0..6 {
            let r = step();
            let key = keys[r as usize % keys.len()];
            if mgr.cache().contains(&key) {
                mgr.evict_chunk(key);
            } else {
                mgr.insert_chunk(key, cell(r), Origin::Backend, 1.0);
            }
        }

        // Readers: 8 threads probing concurrently through `&self`.
        thread::scope(|s| {
            let mgr = &mgr;
            let queries = &queries;
            for t in 0..8usize {
                s.spawn(move || {
                    for q in queries.iter().cycle().skip(t).take(queries.len()) {
                        let probe = mgr.probe_as(q, 0);
                        // Plans handed out by a probe may only reference
                        // chunks that are actually cached right now.
                        for plan in probe.plans() {
                            for leaf in &plan.leaves {
                                assert!(
                                    mgr.cache().contains(leaf),
                                    "probe plan references uncached leaf {leaf:?}"
                                );
                            }
                        }
                    }
                });
            }
        });

        // Oracle: VCM count table vs exhaustive search, for every chunk.
        let counts = mgr.counts().expect("VCM maintains a count table");
        for &key in &keys {
            let mut stats = LookupStats::default();
            let esm_says = esm(mgr.cache(), &ds.grid, key, &mut stats).is_some();
            assert_eq!(
                counts.is_computable(key),
                esm_says,
                "round {round}: count oracle violated at {key:?}"
            );
        }
    }
}

/// Probing from many threads is deterministic: every thread sees the very
/// same plans, misses and node counts as a single-threaded probe of the
/// frozen cache state.
#[test]
fn concurrent_probes_are_deterministic() {
    let ds = dataset();
    let mut mgr = manager_for(
        &ds,
        Strategy::Vcmc,
        PolicyKind::TwoLevel,
        2_000 * PAPER_TUPLE_BYTES,
    );
    mgr.preload_best().unwrap();
    for q in paper_stream(&ds, 11).take_queries(8) {
        mgr.run(&(&q).into()).unwrap();
    }

    let probe_queries = paper_stream(&ds, 12).take_queries(16);
    let reference: Vec<QueryProbe> = probe_queries.iter().map(|q| mgr.probe_as(q, 0)).collect();
    thread::scope(|s| {
        let mgr = &mgr;
        let probe_queries = &probe_queries;
        let reference = &reference;
        for _ in 0..8 {
            s.spawn(move || {
                for (q, r) in probe_queries.iter().zip(reference) {
                    let p = mgr.probe_as(q, 0);
                    assert_eq!(p.missing(), r.missing());
                    assert_eq!(p.version(), r.version());
                    assert_eq!(p.is_complete_hit(), r.is_complete_hit());
                    assert_eq!(p.plans().len(), r.plans().len());
                    for (pa, pb) in p.plans().iter().zip(r.plans()) {
                        assert_eq!(pa.target, pb.target);
                        assert_eq!(pa.leaves, pb.leaves);
                        assert_eq!(pa.cost, pb.cost);
                    }
                }
            });
        }
    });
}
