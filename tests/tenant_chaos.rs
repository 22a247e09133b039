//! Chaos × multi-tenancy interaction suite: merged multi-tenant traffic
//! over the full fault-tolerant decorator stack (`RetryingBackend` over
//! `FaultInjectingBackend`).
//!
//! The contract: faults change availability and virtual cost, never
//! values — for every tenant, under every admission policy. And the
//! per-tenant attribution must stay conservative: tenant-level degraded
//! and query counts aggregated by the `MetricsRegistry` sum exactly to
//! the manager's session totals.

mod common;

use aggcache::cache::AdmissionKind;
use aggcache::obs::MetricsRegistry;
use aggcache::prelude::*;
use common::{backend as raw_backend, oracle_answer, synthetic_dataset as dataset};
use std::sync::Arc;

/// Multi-tenant arrivals: all three lab profiles, Zipf-skewed.
fn tagged_arrivals(ds: &Dataset, n: usize, seed: u64) -> Vec<(u32, Query)> {
    let max_level = ds.grid.geom(ds.fact_gb).level().to_vec();
    let cfg = MultiTenantConfig::contended(4, 1.2, max_level, seed);
    let mut engine = TrafficEngine::new(ds.grid.clone(), &cfg).unwrap();
    engine.tagged_queries(n)
}

/// A manager over the faulty retrying stack with the given admission.
fn chaotic_manager(ds: &Dataset, admission: AdmissionKind, rate: f64) -> CacheManager {
    let faulty =
        FaultInjectingBackend::new(raw_backend(ds), FaultProfile::uniform(rate, 0xFA57)).unwrap();
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
    let oracle = raw_backend(&ds);
    let arrivals = tagged_arrivals(&ds, 80, 4_000);
    for admission in AdmissionKind::lab() {
        let mut mgr = chaotic_manager(&ds, admission, 0.5);
        let _ = mgr.preload_best();
        let (mut answered, mut failed, mut degraded) = (0u64, 0u64, 0u64);
        for (i, (tenant, q)) in arrivals.iter().enumerate() {
            let expected = oracle_answer(&oracle, q);
            match mgr.run(&QueryRequest::new(q.clone()).tenant(*tenant)) {
                Ok(mut r) => {
                    answered += 1;
                    degraded += u64::from(r.metrics.chunks_degraded > 0);
                    r.data.sort_by_coords();
                    assert_eq!(
                        r.data, expected,
                        "{admission:?}: tenant {tenant} query #{i} corrupted under faults"
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
        let registry = Arc::new(MetricsRegistry::new());
        let mut mgr = chaotic_manager(&ds, admission, 0.4);
        mgr.set_tracer(Some(registry.clone() as Arc<dyn Tracer>));
        let _ = mgr.preload_best();
        let mut failed = 0u64;
        for (tenant, q) in &arrivals {
            match mgr.run(&QueryRequest::new(q.clone()).tenant(*tenant)) {
                Ok(_) => {}
                Err(CacheError::BackendUnavailable { .. }) => failed += 1,
                Err(e) => panic!("{admission:?}: unexpected error under faults: {e}"),
            }
        }
        let tenants = registry.tenants();
        assert!(
            tenants.len() > 1,
            "{admission:?}: expected several tenants to be attributed"
        );
        let sum = |f: fn(&TenantStats) -> u64| tenants.values().map(f).sum::<u64>();
        assert_eq!(
            sum(|t| t.queries) + failed,
            arrivals.len() as u64,
            "{admission:?}: answered queries must all be attributed to a tenant"
        );
        assert_eq!(
            sum(|t| t.queries),
            mgr.session().queries,
            "{admission:?}: tenant query counts vs session"
        );
        assert_eq!(
            sum(|t| t.chunks_degraded),
            mgr.session().sum.chunks_degraded as u64,
            "{admission:?}: tenant degraded chunks vs session"
        );
        assert_eq!(
            sum(|t| t.degraded_queries),
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
        for (tenant, q) in &arrivals {
            match mgr.run(&QueryRequest::new(q.clone()).tenant(*tenant)) {
                Ok(r) => outcomes.push((
                    *tenant,
                    true,
                    r.metrics.total_ms().to_bits(),
                    r.metrics.chunks_degraded,
                )),
                Err(CacheError::BackendUnavailable { .. }) => {
                    outcomes.push((*tenant, false, 0, 0));
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
