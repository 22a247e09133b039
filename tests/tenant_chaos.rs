//! Chaos × multi-tenancy interaction suite: merged multi-tenant traffic
//! over the full fault-tolerant decorator stack (`RetryingBackend` over
//! `FaultInjectingBackend`).
//!
//! The contract: faults change availability and virtual cost, never
//! values — for every tenant, under every admission policy. And the
//! per-tenant attribution must stay conservative: every `query_done`
//! event carries its request's tenant, and tenant-level degraded and query
//! counts summed from those events equal the manager's session totals.

mod common;

use aggcache::cache::AdmissionKind;
use aggcache::prelude::*;
use aggcache_bench::rig::{backend_for, oracle_answer};
use common::synthetic_dataset as dataset;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Multi-tenant arrivals: all three lab profiles, Zipf-skewed.
fn tagged_arrivals(ds: &Dataset, n: usize, seed: u64) -> Vec<QueryRequest> {
    let max_level = ds.grid.geom(ds.fact_gb).level().to_vec();
    let cfg = MultiTenantConfig::contended(4, 1.2, max_level, seed);
    let mut engine = TrafficEngine::new(ds.grid.clone(), &cfg).unwrap();
    engine.requests(n)
}

/// A manager over the faulty retrying stack with the given admission.
fn chaotic_manager(ds: &Dataset, admission: AdmissionKind, rate: f64) -> CacheManager {
    let faulty =
        FaultInjectingBackend::new(backend_for(ds), FaultProfile::uniform(rate, 0xFA57)).unwrap();
    let retrying = RetryingBackend::new(
        faulty,
        RetryPolicy {
            max_attempts: 3,
            seed: 0xFA57,
        },
    )
    .unwrap();
    CacheManager::builder()
        .strategy(Strategy::Esmc {
            node_budget: Some(64),
        })
        .policy(PolicyKind::TwoLevel)
        .admission(admission)
        .cache_bytes(200 * PAPER_TUPLE_BYTES)
        .build(retrying)
        .unwrap()
}

#[test]
fn faulty_multi_tenant_streams_never_corrupt_answers() {
    let ds = dataset();
    let oracle = backend_for(&ds);
    let arrivals = tagged_arrivals(&ds, 80, 4_000);
    for admission in AdmissionKind::lab() {
        let mut mgr = chaotic_manager(&ds, admission, 0.5);
        let _ = mgr.preload_best();
        let (mut answered, mut failed, mut degraded) = (0u64, 0u64, 0u64);
        for (i, request) in arrivals.iter().enumerate() {
            let expected = oracle_answer(&oracle, &request.query);
            match mgr.run(request) {
                Ok(mut r) => {
                    answered += 1;
                    degraded += u64::from(r.metrics.chunks_degraded > 0);
                    r.data.sort_by_coords();
                    assert_eq!(
                        r.data, expected,
                        "{admission:?}: tenant {} query #{i} corrupted under faults",
                        request.tenant
                    );
                }
                Err(CacheError::BackendUnavailable { .. }) => failed += 1,
                Err(e) => panic!("{admission:?}: unexpected error under faults: {e}"),
            }
        }
        assert_eq!(answered + failed, arrivals.len() as u64);
        assert!(answered > 0, "{admission:?}: nothing answered at rate 0.5");
        assert_eq!(mgr.session().degraded_queries, degraded);
    }
}

#[test]
fn per_tenant_degraded_counts_sum_to_session_totals() {
    let ds = dataset();
    let arrivals = tagged_arrivals(&ds, 120, 5_000);
    for admission in AdmissionKind::lab() {
        let recorder = Arc::new(RecordingTracer::new());
        let mut mgr = chaotic_manager(&ds, admission, 0.4);
        mgr.set_tracer(Some(recorder.clone() as Arc<dyn Tracer>));
        let _ = mgr.preload_best();
        recorder.take();
        // Per tenant: queries, degraded chunks, degraded queries.
        let mut tenants: BTreeMap<u32, [u64; 3]> = BTreeMap::new();
        let mut failed = 0u64;
        for request in &arrivals {
            let answered = match mgr.run(request) {
                Ok(_) => true,
                Err(CacheError::BackendUnavailable { .. }) => false,
                Err(e) => panic!("{admission:?}: unexpected error under faults: {e}"),
            };
            failed += u64::from(!answered);
            let done: Vec<(u32, u64)> = recorder
                .take()
                .into_iter()
                .filter_map(|e| match e {
                    Event::QueryDone {
                        tenant,
                        chunks_degraded,
                        ..
                    } => Some((tenant, chunks_degraded)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                done.len(),
                usize::from(answered),
                "{admission:?}: one query_done per answered query"
            );
            for (event_tenant, degraded) in done {
                assert_eq!(
                    event_tenant, request.tenant,
                    "{admission:?}: query_done tenant"
                );
                let t = tenants.entry(event_tenant).or_default();
                t[0] += 1;
                t[1] += degraded;
                t[2] += u64::from(degraded > 0);
            }
        }
        assert!(
            tenants.len() > 1,
            "{admission:?}: expected several tenants to be attributed"
        );
        let sum = |i: usize| tenants.values().map(|t| t[i]).sum::<u64>();
        assert_eq!(
            sum(0) + failed,
            arrivals.len() as u64,
            "{admission:?}: answered queries must all be attributed to a tenant"
        );
        assert_eq!(
            sum(0),
            mgr.session().queries,
            "{admission:?}: tenant query counts vs session"
        );
        assert_eq!(
            sum(1),
            mgr.session().sum.chunks_degraded as u64,
            "{admission:?}: tenant degraded chunks vs session"
        );
        assert_eq!(
            sum(2),
            mgr.session().degraded_queries,
            "{admission:?}: tenant degraded queries vs session"
        );
        assert!(
            mgr.session().sum.chunks_degraded > 0,
            "{admission:?}: rate 0.4 should force some degraded serves"
        );
    }
}

#[test]
fn chaotic_multi_tenant_sessions_are_deterministic() {
    let ds = dataset();
    let arrivals = tagged_arrivals(&ds, 60, 6_000);
    let run = || {
        let mut mgr = chaotic_manager(&ds, AdmissionKind::tiny_lfu(), 0.4);
        let _ = mgr.preload_best();
        let mut outcomes = Vec::new();
        for request in &arrivals {
            match mgr.run(request) {
                Ok(r) => outcomes.push((
                    request.tenant,
                    true,
                    r.metrics.total_ms().to_bits(),
                    r.metrics.chunks_degraded,
                )),
                Err(CacheError::BackendUnavailable { .. }) => {
                    outcomes.push((request.tenant, false, 0, 0));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        (
            outcomes,
            mgr.session().sum.chunks_degraded,
            mgr.cache().admission_rejects(),
        )
    };
    assert_eq!(run(), run());
}
