//! **Multi-tenant sweep** (`fig_tenants`, beyond the paper) — profile
//! family × tenant count × popularity skew × admission policy vs
//! per-tenant hit ratio and tail latency.
//!
//! The paper replays one analyst's stream; this experiment replays the
//! open-loop merged traffic of N tenants with Zipf-distributed popularity
//! against one shared (deliberately tight) cache budget, under each of
//! the two admission policies in the lab:
//!
//! * `benefit_mean` — the replacement layer's CLOCK bar, admission is a
//!   no-op (the pre-admission behaviour, bit for bit);
//! * `tiny_lfu` — a count-min-sketch frequency filter on packed chunk
//!   keys: a candidate only displaces a resident it out-references.
//!
//! Two profile families are swept. `mixed` round-robins analyst
//! drill-down sessions, dashboard refresh storms and ad-hoc scanners;
//! `scan` makes every tenant a scanner — under Zipf level popularity its
//! traffic is a hot aggregated head plus a long one-hit-wonder tail, the
//! regime frequency-based admission exists for.
//!
//! Expected shape (Szépkúti's point that hit-ratio conclusions flip with
//! workload skew): on single-tenant or skew-concentrated `mixed` traffic
//! the stream is recency-dominated and the frequency filter only delays
//! warm-up, so `benefit_mean` wins; on contended uniform `mixed` traffic
//! and on skewed `scan` traffic the filter protects the frequent head
//! from pollution and wins on aggregate hit ratio.
//!
//! All reported numbers are virtual-time, so every cell is bit-identical
//! across runs.

use crate::report::{f2, mean, quantile, Table, Tally};
use crate::rig::{apb_dataset, backend_for, builder_for};
use crate::sweep::{smoke_opts, Sweep};
use aggcache_cache::{AdmissionKind, PolicyKind};
use aggcache_core::Strategy;
use aggcache_gen::Dataset;
use aggcache_obs::json::JsonObject;
use aggcache_workload::{MultiTenantConfig, TenantProfile, TrafficEngine};
use std::collections::BTreeMap;

/// Options for the multi-tenant sweep.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Arrivals (queries) per cell.
    pub queries: usize,
}

/// Base workload seed (tenant 0 inherits it verbatim).
const WORKLOAD_SEED: u64 = 2000;
/// Shared cache budget in accounting bytes. Deliberately tight —
/// admission only matters when tenants contend for room.
const CACHE_BYTES: usize = 64 * 1024;

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 60_000,
            seed: 0xA9B1,
            queries: 1_200,
        }
    }
}

impl Opts {
    /// The smoke configuration used by CI: small dataset, short streams.
    pub fn smoke() -> Self {
        Self {
            tuples: 8_000,
            queries: 150,
            ..Self::default()
        }
    }
}

/// `fig_tenants`, as [`crate::sweep::sweep_main`] runs it.
pub const SWEEP: Sweep<Opts, TenantResults> = Sweep {
    opts: smoke_opts!(Opts),
    run: run_experiment,
    render,
    check: None,
    exports: Some(to_json),
    traced: None,
};

/// The tenant counts swept.
pub(crate) const TENANT_COUNTS: [u32; 3] = [1, 4, 8];

/// The Zipf popularity skews swept (also applied to level popularity).
pub(crate) const SKEWS: [f64; 2] = [0.0, 1.2];

/// The profile families swept.
pub(crate) const FAMILIES: [&str; 2] = ["mixed", "scan"];

/// The tenant profiles of a family.
pub(crate) fn family_profiles(family: &str) -> Vec<TenantProfile> {
    match family {
        "scan" => vec![TenantProfile::ad_hoc_scan()],
        _ => TenantProfile::lab(),
    }
}

/// Per-tenant outcome of one cell, distilled to virtual-time numbers.
#[derive(Debug, Clone)]
pub(crate) struct TenantOutcome {
    /// Tenant id.
    pub(crate) tenant: u32,
    /// Queries the tenant issued.
    pub(crate) queries: u64,
    /// Fraction of its queries answered entirely from the cache.
    pub(crate) complete_hit_ratio: f64,
    /// Fraction of its chunk demands served without a backend fetch.
    pub(crate) chunk_hit_ratio: f64,
    /// Mean per-query virtual latency in milliseconds.
    pub(crate) avg_virtual_ms: f64,
    /// p95 per-query virtual latency in microseconds (nearest rank).
    pub(crate) p95_virtual_us: f64,
    /// p99 per-query virtual latency in microseconds (nearest rank).
    pub(crate) p99_virtual_us: f64,
}

/// Outcome of one (family, tenants, skew, admission) cell.
#[derive(Debug, Clone)]
pub(crate) struct CellResult {
    /// Profile family of the cell.
    pub(crate) family: &'static str,
    /// Tenants in the cell.
    pub(crate) tenants: u32,
    /// Zipf skew of the cell.
    pub(crate) skew: f64,
    /// Admission policy of the cell.
    pub(crate) admission: AdmissionKind,
    /// Aggregate complete-hit ratio over all queries.
    pub(crate) hit_ratio: f64,
    /// Aggregate chunk-hit ratio over all chunk demands.
    pub(crate) chunk_hit_ratio: f64,
    /// Inserts refused by the admission policy.
    pub(crate) admission_rejects: u64,
    /// Mean virtual latency over all queries, in milliseconds.
    pub(crate) avg_virtual_ms: f64,
    /// p95 virtual latency over all queries, in microseconds.
    pub(crate) p95_virtual_us: f64,
    /// Per-tenant breakdown, ordered by tenant id.
    pub(crate) per_tenant: Vec<TenantOutcome>,
}

/// One tenant's answers, folded in arrival order: the tally plus each
/// query's virtual latency in microseconds, for the tail quantiles.
fn outcome(tenant: u32, (tally, latency_us): &mut (Tally, Vec<f64>)) -> TenantOutcome {
    TenantOutcome {
        tenant,
        queries: tally.queries,
        complete_hit_ratio: tally.hit_ratio(),
        chunk_hit_ratio: tally.chunk_hit_ratio(),
        avg_virtual_ms: mean(tally.total_virtual_ms, tally.queries),
        p95_virtual_us: quantile(latency_us, 0.95),
        p99_virtual_us: quantile(latency_us, 0.99),
    }
}

/// Runs one merged multi-tenant stream under one admission policy.
/// Deterministic for fixed opts: every reported number is virtual-time,
/// so two runs produce bit-identical cells.
pub(crate) fn run_cell(
    dataset: &Dataset,
    opts: Opts,
    family: &'static str,
    tenants: u32,
    skew: f64,
    admission: AdmissionKind,
) -> CellResult {
    let max_level = dataset.grid.geom(dataset.fact_gb).level().to_vec();
    let cfg = MultiTenantConfig {
        profiles: family_profiles(family),
        ..MultiTenantConfig::contended(tenants, skew, max_level, WORKLOAD_SEED)
    };
    let mut engine =
        TrafficEngine::new(dataset.grid.clone(), &cfg).expect("sweep configuration is valid");
    let requests = engine.requests(opts.queries);

    let (strategy, policy) = (Strategy::Vcmc, PolicyKind::TwoLevel);
    let mut mgr = builder_for(strategy, policy, CACHE_BYTES, None)
        .admission(admission)
        .build(backend_for(dataset))
        .expect("sweep configuration is valid");
    let outcomes = mgr
        .run_batch(&requests)
        .expect("fault-free backend answers everything");

    let mut by_tenant: BTreeMap<u32, (Tally, Vec<f64>)> = BTreeMap::new();
    let mut all = Vec::with_capacity(requests.len());
    for (request, out) in requests.iter().zip(&outcomes) {
        let latency_us = out.metrics.total_ms() * 1000.0;
        let (tally, latency) = by_tenant.entry(request.tenant).or_default();
        tally.add(out);
        latency.push(latency_us);
        all.push(latency_us);
    }
    // The cell adds up its tenants' sums in ascending tenant order.
    let mut total = Tally::default();
    by_tenant.values().for_each(|(tally, _)| total.merge(tally));
    CellResult {
        family,
        tenants,
        skew,
        admission,
        hit_ratio: total.hit_ratio(),
        chunk_hit_ratio: total.chunk_hit_ratio(),
        admission_rejects: mgr.cache().admission_rejects(),
        avg_virtual_ms: mean(total.total_virtual_ms, total.queries),
        p95_virtual_us: quantile(&mut all, 0.95),
        per_tenant: by_tenant.iter_mut().map(|(&t, s)| outcome(t, s)).collect(),
    }
}

/// Results of the full sweep.
pub struct TenantResults {
    /// The swept cells, in (family, tenants, skew, admission) order.
    pub(crate) cells: Vec<CellResult>,
}

/// Runs the sweep over `FAMILIES` × `TENANT_COUNTS` × `SKEWS` × the
/// admission lab.
pub fn run_experiment(opts: Opts) -> TenantResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let mut cells = Vec::new();
    for &family in &FAMILIES {
        for &tenants in &TENANT_COUNTS {
            for &skew in &SKEWS {
                for admission in AdmissionKind::lab() {
                    cells.push(run_cell(&dataset, opts, family, tenants, skew, admission));
                }
            }
        }
    }
    TenantResults { cells }
}

/// Renders the sweep as a table: one row per cell, aggregate numbers plus
/// the hottest and coldest tenant's hit ratios.
pub fn render(r: &TenantResults) -> String {
    let mut out = String::from(
        "Multi-tenant sweep: profiles x tenants x skew x admission (virtual time)\n\n",
    );
    let mut table = Table::new(&[
        "profiles",
        "tenants",
        "skew",
        "admission",
        "hit %",
        "chunk hit %",
        "rejects",
        "avg ms",
        "t0 hit %",
        "tN hit %",
    ]);
    for cell in &r.cells {
        let pct = |o: Option<&TenantOutcome>| f2(100.0 * o.map_or(0.0, |o| o.complete_hit_ratio));
        table.row(vec![
            cell.family.to_string(),
            cell.tenants.to_string(),
            f2(cell.skew),
            cell.admission.name().to_string(),
            f2(100.0 * cell.hit_ratio),
            f2(100.0 * cell.chunk_hit_ratio),
            cell.admission_rejects.to_string(),
            f2(cell.avg_virtual_ms),
            pct(cell.per_tenant.first()),
            pct(cell.per_tenant.last()),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nShape: recency-dominated cells (single tenant, skewed mixed\n\
         traffic) favour admit-everything; contended uniform mixed cells\n\
         and skewed scan cells favour the tiny_lfu frequency filter, which\n\
         keeps the hot aggregated head resident through scan pollution.\n",
    );
    out
}

/// Serializes the sweep as one JSON document. Virtual-time numbers only,
/// so the document is bit-identical across runs.
pub(crate) fn to_json(opts: Opts, r: &TenantResults) -> String {
    let mut out = String::with_capacity(1 << 14);
    JsonObject::open(&mut out)
        .field("experiment", "fig_tenants")
        .field("tuples", opts.tuples)
        .field("queries", opts.queries)
        .field("cache_bytes", CACHE_BYTES)
        .array("cells", &r.cells, |o, cell| {
            o.field("family", cell.family)
                .field("tenants", cell.tenants)
                .field("skew", cell.skew)
                .field("admission", cell.admission.name())
                .field("hit_ratio", cell.hit_ratio)
                .field("chunk_hit_ratio", cell.chunk_hit_ratio)
                .field("admission_rejects", cell.admission_rejects)
                .field("avg_virtual_ms", cell.avg_virtual_ms)
                .field("p95_virtual_us", cell.p95_virtual_us)
                .array("per_tenant", &cell.per_tenant, |o, t| {
                    o.field("tenant", t.tenant)
                        .field("queries", t.queries)
                        .field("complete_hit_ratio", t.complete_hit_ratio)
                        .field("chunk_hit_ratio", t.chunk_hit_ratio)
                        .field("avg_virtual_ms", t.avg_virtual_ms)
                        .field("p95_virtual_us", t.p95_virtual_us)
                        .field("p99_virtual_us", t.p99_virtual_us);
                });
        })
        .close();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::assert_golden;
    use std::sync::OnceLock;

    /// `fig_tenants --smoke`, run once per test pass; every test reads it.
    fn smoke() -> &'static TenantResults {
        static RUN: OnceLock<TenantResults> = OnceLock::new();
        RUN.get_or_init(|| (SWEEP.run)(Opts::smoke()))
    }

    #[test]
    fn golden() {
        assert_golden("tenants", &SWEEP, Opts::smoke(), smoke());
    }

    #[test]
    fn every_tenant_is_accounted() {
        for cell in &smoke().cells {
            assert_eq!(cell.per_tenant.len(), cell.tenants as usize);
            let sum: u64 = cell.per_tenant.iter().map(|t| t.queries).sum();
            assert_eq!(sum, Opts::smoke().queries as u64);
        }
    }
}
