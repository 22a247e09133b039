//! Conformance suite for the admission-policy lab.
//!
//! Two guarantees are held here:
//!
//! * **Single-stream bit-identity** — a one-tenant `TrafficEngine` under
//!   the default `benefit_mean` admission reproduces the original
//!   single-stream pipeline bit for bit (same queries, same answers, same
//!   virtual costs), across every lookup strategy and thread count. The
//!   multi-tenant rig is a strict superset of the paper pipeline, not a
//!   fork of it.
//! * **Table consistency** — admission refusals must leave the virtual
//!   count tables exactly as consistent as admissions do: after a
//!   contended multi-tenant session under each admission policy, a
//!   from-scratch [`CountTable`] rebuild over the resident set matches
//!   the incrementally maintained table.

mod common;

use aggcache::cache::AdmissionKind;
use aggcache::prelude::*;
use common::{backend, stream_queries};

fn dataset() -> Dataset {
    common::apb_dataset(99)
}

fn manager(
    ds: &Dataset,
    strategy: Strategy,
    admission: AdmissionKind,
    threads: usize,
) -> CacheManager {
    CacheManager::builder()
        .strategy(strategy)
        .policy(PolicyKind::TwoLevel)
        .admission(admission)
        .cache_bytes(120_000)
        .threads(threads)
        .build(backend(ds))
        .unwrap()
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

/// A bit-exact digest of one query's outcome: the answer cells plus every
/// virtual-time and chunk-accounting field (wall-clock fields excluded by
/// construction).
type Digest = (Vec<(Vec<u32>, u64)>, Vec<u64>, [usize; 4], bool);

fn digest(r: ExecOutcome) -> Digest {
    let mut r = r.into_result();
    r.data.sort_by_coords();
    let cells: Vec<(Vec<u32>, u64)> = r
        .data
        .iter()
        .map(|(coords, v)| (coords.to_vec(), v.to_bits()))
        .collect();
    let m = &r.metrics;
    (
        cells,
        vec![
            m.backend_virtual_ms.to_bits(),
            m.agg_virtual_ms.to_bits(),
            m.lookup_virtual_ms.to_bits(),
            m.update_virtual_ms.to_bits(),
            m.total_ms().to_bits(),
        ],
        [
            m.chunks_hit,
            m.chunks_computed,
            m.chunks_missed,
            m.table_writes as usize,
        ],
        m.complete_hit,
    )
}

/// The original single-stream pipeline: `QueryStream` + `run_batch`.
fn single_stream_run(ds: &Dataset, strategy: Strategy, threads: usize) -> Vec<ExecOutcome> {
    let mut mgr = manager(ds, strategy, AdmissionKind::BenefitMean, threads);
    mgr.preload_best().unwrap();
    mgr.run_batch(&QueryRequest::batch(&stream_queries(ds, 60, 2000)))
        .unwrap()
}

/// The multi-tenant rig collapsed to one tenant, same seed.
fn one_tenant_run(ds: &Dataset, strategy: Strategy, threads: usize) -> Vec<ExecOutcome> {
    let mut mgr = manager(ds, strategy, AdmissionKind::BenefitMean, threads);
    mgr.preload_best().unwrap();
    let max_level = ds.grid.geom(ds.fact_gb).level().to_vec();
    let cfg = MultiTenantConfig::uniform(1, max_level, 2000);
    let mut engine = TrafficEngine::new(ds.grid.clone(), &cfg).unwrap();
    let requests = engine.requests(60);
    assert!(requests.iter().all(|r| r.tenant == 0));
    mgr.run_batch(&requests).unwrap()
}

#[test]
fn one_tenant_engine_matches_single_stream_for_every_strategy_and_threads() {
    let ds = dataset();
    for strategy in STRATEGIES {
        let reference: Vec<_> = single_stream_run(&ds, strategy, 1)
            .into_iter()
            .map(digest)
            .collect();
        for threads in [1usize, 4] {
            let single: Vec<_> = single_stream_run(&ds, strategy, threads)
                .into_iter()
                .map(digest)
                .collect();
            let tenant: Vec<_> = one_tenant_run(&ds, strategy, threads)
                .into_iter()
                .map(digest)
                .collect();
            assert_eq!(
                single, reference,
                "{strategy:?}: single-stream run not thread-invariant at {threads} threads"
            );
            assert_eq!(
                tenant, reference,
                "{strategy:?}: one-tenant engine diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn benefit_mean_admission_is_a_pure_noop() {
    // The default admission kind must leave the whole session identical —
    // including the cache's resident set — and never refuse an insert.
    let ds = dataset();
    let a = single_stream_run(&ds, Strategy::Vcmc, 1);
    let mut mgr = manager(&ds, Strategy::Vcmc, AdmissionKind::BenefitMean, 1);
    mgr.preload_best().unwrap();
    let b = mgr
        .run_batch(&QueryRequest::batch(&stream_queries(&ds, 60, 2000)))
        .unwrap();
    assert_eq!(mgr.cache().admission_rejects(), 0);
    let da: Vec<_> = a.into_iter().map(digest).collect();
    let db: Vec<_> = b.into_iter().map(digest).collect();
    assert_eq!(da, db);
}

/// Runs a contended multi-tenant session and cross-checks the virtual
/// count table against a from-scratch rebuild over the resident set.
fn assert_tables_consistent(strategy: Strategy, admission: AdmissionKind) {
    let ds = dataset();
    let mut mgr = CacheManager::builder()
        .strategy(strategy)
        .policy(PolicyKind::TwoLevel)
        .admission(admission)
        // Tight budget: the admission gate must actually fire.
        .cache_bytes(60_000)
        .build(backend(&ds))
        .unwrap();
    mgr.preload_best().unwrap();
    let max_level = ds.grid.geom(ds.fact_gb).level().to_vec();
    let cfg = MultiTenantConfig::contended(4, 1.2, max_level, 2000);
    let mut engine = TrafficEngine::new(ds.grid.clone(), &cfg).unwrap();
    let requests = engine.requests(120);
    mgr.run_batch(&requests).unwrap();

    let cached: std::collections::HashSet<ChunkKey> = mgr.cache().keys().collect();
    let rebuilt = CountTable::rebuild_from(ds.grid.clone(), |k| cached.contains(&k));
    mgr.counts().unwrap().assert_same(&rebuilt);
}

#[test]
fn count_tables_stay_consistent_under_every_admission_policy() {
    for admission in AdmissionKind::lab() {
        for strategy in [Strategy::Vcm, Strategy::Vcmc] {
            assert_tables_consistent(strategy, admission);
        }
    }
}

#[test]
fn frequency_filter_actually_rejects_under_contention() {
    // Guards against the gate silently degenerating to admit-everything:
    // in a contended skewed session the TinyLFU filter must refuse some
    // inserts, and refusals must never exceed insert attempts.
    let ds = dataset();
    let mut mgr = CacheManager::builder()
        .strategy(Strategy::Vcmc)
        .policy(PolicyKind::TwoLevel)
        .admission(AdmissionKind::tiny_lfu())
        .cache_bytes(60_000)
        .build(backend(&ds))
        .unwrap();
    let max_level = ds.grid.geom(ds.fact_gb).level().to_vec();
    let cfg = MultiTenantConfig::contended(4, 1.2, max_level, 2000);
    let mut engine = TrafficEngine::new(ds.grid.clone(), &cfg).unwrap();
    let requests = engine.requests(150);
    mgr.run_batch(&requests).unwrap();
    assert!(
        mgr.cache().admission_rejects() > 0,
        "tiny_lfu never fired on a contended stream"
    );
    let sketch = mgr
        .cache()
        .admission_sketch()
        .expect("tiny_lfu has a sketch");
    assert!(sketch.resets() > 0 || mgr.cache().admission_rejects() < 10_000);
}
