//! Chaos suite for the fault-tolerant backend stack (DESIGN.md §8).
//!
//! The contract under test: wrapping the simulated backend in the full
//! decorator stack — `RetryingBackend` over `FaultInjectingBackend` —
//! must be *bit-transparent* at fault rate 0 (identical answers, virtual
//! times, cache contents and session totals), fully deterministic per
//! fault seed, and must never corrupt an answer or
//! the replacement bookkeeping no matter how many fetches fail.

mod common;

use aggcache::prelude::*;
use aggcache_bench::rig::{backend_for, oracle_answer, paper_stream};
use common::{digest, synthetic_dataset as dataset, Digest};

fn manager_with(
    backend: impl BackendSource + 'static,
    strategy: Strategy,
    cache_bytes: usize,
) -> CacheManager {
    CacheManager::builder()
        .strategy(strategy)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(cache_bytes)
        .build(backend)
        .unwrap()
}

/// The full decorator stack at the given fault rate and seed.
fn decorated_manager(
    ds: &Dataset,
    strategy: Strategy,
    cache_bytes: usize,
    rate: f64,
    fault_seed: u64,
) -> CacheManager {
    let faulty =
        FaultInjectingBackend::new(backend_for(ds), FaultProfile::uniform(rate, fault_seed))
            .unwrap();
    let retrying = RetryingBackend::new(
        faulty,
        RetryPolicy {
            max_attempts: 3,
            seed: fault_seed,
        },
    )
    .unwrap();
    manager_with(retrying, strategy, cache_bytes)
}

/// Everything deterministic about one executed query, bit-exact. Failed
/// queries are captured by the chunks the error named.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Answered(Digest),
    Unavailable { chunks: Vec<u64> },
}

/// The resident chunks, their cells and replacement metadata, in key order.
fn cache_contents(mgr: &CacheManager) -> String {
    format!("{:?}", mgr.cache().entries_sorted())
}

fn run_stream(mgr: &mut CacheManager, queries: &[Query]) -> Vec<Outcome> {
    queries
        .iter()
        .map(|q| match mgr.run(&(q).into()) {
            Ok(r) => Outcome::Answered(digest(&r)),
            Err(CacheError::BackendUnavailable { chunks, .. }) => Outcome::Unavailable { chunks },
            Err(e) => panic!("unexpected error under faults: {e}"),
        })
        .collect()
}

/// A rate-0 `FaultInjectingBackend` under a `RetryingBackend` must be
/// invisible: per-query answers and virtual-time metrics, final cache
/// contents and session totals all bit-identical to the undecorated
/// backend, for every lookup strategy.
#[test]
fn zero_fault_rate_is_bit_transparent() {
    let ds = dataset();
    let queries = paper_stream(&ds, 2_000).take_queries(36);
    let budget = 600 * PAPER_TUPLE_BYTES;
    for strategy in [
        Strategy::NoAggregation,
        Strategy::Esm,
        Strategy::Esmc {
            node_budget: Some(128),
        },
        Strategy::Vcm,
        Strategy::Vcmc,
    ] {
        let ctx = format!("{strategy:?}");
        let mut plain = manager_with(backend_for(&ds), strategy, budget);
        let mut stacked = decorated_manager(&ds, strategy, budget, 0.0, 0xFA57);
        plain.preload_best().unwrap();
        stacked.preload_best().unwrap();

        for (i, q) in queries.iter().enumerate() {
            let ctx = format!("{ctx}, query {i}");
            let a = plain.run(&(q).into()).unwrap();
            let b = stacked.run(&(q).into()).unwrap();
            assert_eq!(digest(&a), digest(&b), "{ctx}");
            assert_eq!(b.metrics.chunks_degraded, 0, "{ctx}: nothing degrades");
        }

        assert_eq!(
            cache_contents(&plain),
            cache_contents(&stacked),
            "{ctx}: cache contents"
        );
        let (sa, sb) = (plain.session(), stacked.session());
        assert_eq!(sa.queries, sb.queries, "{ctx}");
        assert_eq!(sa.complete_hits, sb.complete_hits, "{ctx}");
        assert_eq!(
            sa.total_ms.to_bits(),
            sb.total_ms.to_bits(),
            "{ctx}: session total_ms"
        );
        assert_eq!(
            sa.sum.backend_virtual_ms.to_bits(),
            sb.sum.backend_virtual_ms.to_bits(),
            "{ctx}: session backend_virtual_ms"
        );
        assert_eq!(
            sb.degraded_queries, 0,
            "{ctx}: no degraded queries at rate 0"
        );
    }
}

/// For each fault seed, two identical faulty runs produce identical
/// per-query outcomes (answers, virtual times, failures) and identical
/// session totals.
#[test]
fn faulty_runs_are_deterministic_per_seed() {
    let ds = dataset();
    let queries = paper_stream(&ds, 2_000).take_queries(40);
    let budget = 600 * PAPER_TUPLE_BYTES;
    let strategy = Strategy::Esmc {
        node_budget: Some(64),
    };
    for fault_seed in [1u64, 7, 0xFA57] {
        let run = || {
            let mut mgr = decorated_manager(&ds, strategy, budget, 0.4, fault_seed);
            let _ = mgr.preload_best();
            let outcomes = run_stream(&mut mgr, &queries);
            let totals = (
                mgr.session().queries,
                mgr.session().degraded_queries,
                mgr.session().sum.chunks_degraded,
                mgr.session().total_ms.to_bits(),
                mgr.session().sum.backend_virtual_ms.to_bits(),
            );
            (outcomes, totals, cache_contents(&mgr))
        };
        assert_eq!(run(), run(), "seed {fault_seed:#x}: outcomes diverged");
    }
}

/// Faults change availability and virtual cost, never values: every query
/// a faulty manager *does* answer carries exactly the cells the healthy
/// manager returns for the same query.
#[test]
fn fault_injection_never_corrupts_answers() {
    let ds = dataset();
    let queries = paper_stream(&ds, 3_000).take_queries(200);
    // Tight budget: the cache churns, so fetches (and thus outages) keep
    // happening throughout the stream: 67 chunk fetches, and 3 queries
    // whose retries run out. The budgeted probe serves resident chunks from
    // the cache, so the stream is long enough to fetch that often.
    let budget = 200 * PAPER_TUPLE_BYTES;
    let strategy = Strategy::Esmc {
        node_budget: Some(64),
    };
    let oracle = backend_for(&ds);
    let mut mgr = decorated_manager(&ds, strategy, budget, 0.5, 0xC0A5);
    let _ = mgr.preload_best();
    let mut answered = 0u64;
    let mut failed = 0u64;
    for (i, q) in queries.iter().enumerate() {
        let expected = oracle_answer(&oracle, q);
        match mgr.run(&(q).into()) {
            Ok(mut r) => {
                answered += 1;
                r.data.sort_by_coords();
                assert_eq!(r.data, expected, "query #{i} answer corrupted under faults");
            }
            Err(CacheError::BackendUnavailable { .. }) => failed += 1,
            Err(e) => panic!("unexpected error under faults: {e}"),
        }
    }
    assert_eq!(answered + failed, queries.len() as u64);
    assert!(
        answered > 0,
        "fault rate 0.5 with retries must answer some queries"
    );
    assert!(
        failed > 0,
        "fault rate 0.5 should exhaust retries at least once"
    );
}

/// No lost or duplicated chunk inserts under heavy faults: after a faulty
/// stream full of failed fetches and aborted queries, the virtual-count
/// tables rebuilt from the surviving cache contents must match the
/// incrementally maintained ones exactly.
#[test]
fn count_tables_stay_consistent_under_faults() {
    let ds = dataset();
    let queries = paper_stream(&ds, 4_000).take_queries(80);
    // Tight enough that the stream keeps fetching (and failing) all the
    // way through, with eviction churn between failures.
    let budget = 200 * PAPER_TUPLE_BYTES;
    for fault_seed in [5u64, 0xFA57] {
        let mut mgr = decorated_manager(&ds, Strategy::Vcmc, budget, 0.5, fault_seed);
        let _ = mgr.preload_best();
        let mut failed = 0u64;
        for q in &queries {
            match mgr.run(&(q).into()) {
                Ok(_) => {}
                Err(CacheError::BackendUnavailable { .. }) => failed += 1,
                Err(e) => panic!("unexpected error under faults: {e}"),
            }
        }
        assert!(
            failed > 0,
            "seed {fault_seed:#x}: the stream should see outages"
        );
        let cached: Vec<ChunkKey> = mgr.cache().keys().collect();
        let reference = CountTable::rebuild_from(mgr.grid().clone(), |k| cached.contains(&k));
        mgr.counts().unwrap().assert_same(&reference);
    }
}

/// A permanent outage over a partially warm cache: queries are either
/// served degraded from cached data (all-or-nothing) or fail typed — and
/// a failed query leaves the cache untouched.
#[test]
fn permanent_outage_serves_degraded_or_fails_cleanly() {
    let ds = dataset();
    let queries = paper_stream(&ds, 5_000).take_queries(40);
    // Holds most of the base cube, but not all of it: some roll-ups stay
    // fully coverable (degraded-servable), some chunks are simply gone.
    let budget = 300 * PAPER_TUPLE_BYTES;
    let strategy = Strategy::Esmc {
        node_budget: Some(64),
    };
    let faulty =
        FaultInjectingBackend::new(backend_for(&ds), FaultProfile::fail_then_recover(u64::MAX))
            .unwrap();
    let retrying = RetryingBackend::new(
        faulty,
        RetryPolicy {
            max_attempts: 2,
            seed: 9,
        },
    )
    .unwrap();
    let mut down = manager_with(retrying, strategy, budget);
    assert!(down.preload_best().is_err(), "preload needs the backend");

    // Seed part of the base cube from a healthy twin — the budget holds
    // only a fraction of it, so some chunks stay degraded-servable and
    // some are genuinely gone.
    let base = ds.grid.schema().lattice().base();
    let healthy = backend_for(&ds);
    for (chunk, data) in healthy.fetch_group_by(base).unwrap().chunks {
        down.insert_chunk(ChunkKey::new(base, chunk), data, Origin::Backend, 1.0);
    }

    let mut degraded = 0u64;
    let mut failed = 0u64;
    for q in &queries {
        match down.run(&(q).into()) {
            Ok(r) => {
                assert_eq!(
                    r.metrics.chunks_degraded, r.metrics.chunks_missed,
                    "with the backend down every answered miss is degraded"
                );
                degraded += u64::from(r.metrics.chunks_degraded > 0);
            }
            Err(CacheError::BackendUnavailable { chunks, .. }) => {
                failed += 1;
                assert!(!chunks.is_empty(), "the error names the unservable chunks");
                // All-or-nothing: the failed query admitted none of the
                // chunks it could not serve (no partial phantom inserts).
                for &chunk in &chunks {
                    assert!(
                        !down.cache().contains(&ChunkKey::new(q.gb, chunk)),
                        "failed chunk {chunk} of {:?} must not be cached",
                        q.gb
                    );
                }
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        degraded > 0,
        "a warm cache must rescue some queries degraded"
    );
    assert!(
        failed > 0,
        "a partial cache with a dead backend must fail some"
    );
    assert_eq!(down.session().degraded_queries, degraded);
}
