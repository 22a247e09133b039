//! **Multi-tenant sweep** (`fig_tenants`, beyond the paper) — profile
//! family × tenant count × popularity skew × admission policy vs
//! per-tenant hit ratio and tail latency.
//!
//! The paper replays one analyst's stream; this experiment replays the
//! open-loop merged traffic of N tenants with Zipf-distributed popularity
//! against one shared (deliberately tight) cache budget, under each of
//! the three admission policies in the lab:
//!
//! * `benefit_mean` — the replacement layer's CLOCK bar, admission is a
//!   no-op (the pre-admission behaviour, bit for bit);
//! * `two_level` — the paper's policy as an admission gate: computed
//!   chunks are only admitted under pressure when their benefit clears
//!   the resident mean;
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
//! across runs and thread counts.

use crate::report::{f2, mean, Table};
use crate::rig::{apb_dataset, backend_for, builder_for};
use crate::sweep::{smoke_opts, Sweep};
use aggcache_cache::{AdmissionKind, PolicyKind};
use aggcache_core::Strategy;
use aggcache_gen::Dataset;
use aggcache_obs::json::JsonObject;
use aggcache_obs::{MetricsRegistry, TenantStats, Tracer};
use aggcache_workload::{MultiTenantConfig, TenantProfile, TrafficEngine};
use std::sync::Arc;

/// Options for the multi-tenant sweep.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Arrivals (queries) per cell.
    pub queries: usize,
    /// Base workload seed (tenant 0 inherits it verbatim).
    pub workload_seed: u64,
    /// Shared cache budget in accounting bytes. Deliberately tight —
    /// admission only matters when tenants contend for room.
    pub cache_bytes: usize,
    /// Worker threads (wall-clock only; virtual outputs are identical).
    pub threads: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 60_000,
            seed: 0xA9B1,
            queries: 1_200,
            workload_seed: 2000,
            cache_bytes: 64 * 1024,
            threads: 1,
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
    exports: Some((to_json, to_csv, |r| r.cells.len())),
    traced: None,
};

/// The tenant counts swept.
pub const TENANT_COUNTS: [u32; 3] = [1, 4, 8];

/// The Zipf popularity skews swept (also applied to level popularity).
pub const SKEWS: [f64; 2] = [0.0, 1.2];

/// The profile families swept.
pub const FAMILIES: [&str; 2] = ["mixed", "scan"];

/// The tenant profiles of a family.
pub fn family_profiles(family: &str) -> Vec<TenantProfile> {
    match family {
        "scan" => vec![TenantProfile::ad_hoc_scan()],
        _ => TenantProfile::lab(),
    }
}

/// Per-tenant outcome of one cell, distilled to virtual-time numbers.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant id.
    pub tenant: u32,
    /// Queries the tenant issued.
    pub queries: u64,
    /// Fraction of its queries answered entirely from the cache.
    pub complete_hit_ratio: f64,
    /// Fraction of its chunk demands served without a backend fetch.
    pub chunk_hit_ratio: f64,
    /// Mean per-query virtual latency in milliseconds.
    pub avg_virtual_ms: f64,
    /// p95 per-query virtual latency in microseconds (log2-bucket upper
    /// bound).
    pub p95_virtual_us: f64,
    /// p99 per-query virtual latency in microseconds (log2-bucket upper
    /// bound).
    pub p99_virtual_us: f64,
}

/// Outcome of one (family, tenants, skew, admission) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Profile family of the cell.
    pub family: &'static str,
    /// Tenants in the cell.
    pub tenants: u32,
    /// Zipf skew of the cell.
    pub skew: f64,
    /// Admission policy of the cell.
    pub admission: AdmissionKind,
    /// Aggregate complete-hit ratio over all queries.
    pub hit_ratio: f64,
    /// Aggregate chunk-hit ratio over all chunk demands.
    pub chunk_hit_ratio: f64,
    /// Inserts refused by the admission policy.
    pub admission_rejects: u64,
    /// Mean virtual latency over all queries, in milliseconds.
    pub avg_virtual_ms: f64,
    /// p95 virtual latency over all queries, in microseconds.
    pub p95_virtual_us: f64,
    /// Per-tenant breakdown, ordered by tenant id.
    pub per_tenant: Vec<TenantOutcome>,
}

fn outcome(tenant: u32, s: &TenantStats) -> TenantOutcome {
    TenantOutcome {
        tenant,
        queries: s.queries,
        complete_hit_ratio: s.complete_hit_ratio(),
        chunk_hit_ratio: s.chunk_hit_ratio(),
        avg_virtual_ms: mean(s.total_virtual_ms, s.queries),
        p95_virtual_us: s.latency_virtual_us.quantile(0.95).unwrap_or(0.0),
        p99_virtual_us: s.latency_virtual_us.quantile(0.99).unwrap_or(0.0),
    }
}

/// Runs one merged multi-tenant stream under one admission policy.
/// Deterministic for fixed opts: every reported number is virtual-time,
/// so two runs — at any thread count — produce bit-identical cells.
pub fn run_cell(
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
        ..MultiTenantConfig::contended(tenants, skew, max_level, opts.workload_seed)
    };
    let mut engine =
        TrafficEngine::new(dataset.grid.clone(), &cfg).expect("sweep configuration is valid");
    let requests = engine.requests(opts.queries);

    let registry = Arc::new(MetricsRegistry::new());
    let (strategy, policy) = (Strategy::Vcmc, PolicyKind::TwoLevel);
    let tracer = Some(registry.clone() as Arc<dyn Tracer>);
    let mut mgr = builder_for(strategy, policy, opts.cache_bytes, opts.threads, tracer)
        .admission(admission)
        .build(backend_for(dataset))
        .expect("sweep configuration is valid");
    mgr.run_batch(&requests)
        .expect("fault-free backend answers everything");

    let stats = registry.tenants();
    let mut total = TenantStats::default();
    for s in stats.values() {
        total.queries += s.queries;
        total.complete_hits += s.complete_hits;
        total.chunks_hit += s.chunks_hit;
        total.chunks_computed += s.chunks_computed;
        total.chunks_missed += s.chunks_missed;
        total.total_virtual_ms += s.total_virtual_ms;
    }
    let per_tenant: Vec<TenantOutcome> = stats.iter().map(|(&t, s)| outcome(t, s)).collect();
    let all = registry
        .virtual_histogram("query_total")
        .unwrap_or_default();
    CellResult {
        family,
        tenants,
        skew,
        admission,
        hit_ratio: total.complete_hit_ratio(),
        chunk_hit_ratio: total.chunk_hit_ratio(),
        admission_rejects: mgr.cache().admission_rejects(),
        avg_virtual_ms: mean(total.total_virtual_ms, total.queries),
        p95_virtual_us: all.quantile(0.95).unwrap_or(0.0),
        per_tenant,
    }
}

/// Results of the full sweep.
pub struct TenantResults {
    /// The swept cells, in (family, tenants, skew, admission) order.
    pub cells: Vec<CellResult>,
}

/// Runs the sweep over [`FAMILIES`] × [`TENANT_COUNTS`] × [`SKEWS`] × the
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
/// so the document is bit-identical across runs and thread counts.
pub fn to_json(opts: Opts, r: &TenantResults) -> String {
    let mut out = String::with_capacity(1 << 14);
    JsonObject::open(&mut out)
        .field("experiment", "fig_tenants")
        .field("tuples", opts.tuples)
        .field("queries", opts.queries)
        .field("cache_bytes", opts.cache_bytes)
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

/// Serializes the per-tenant breakdown of every cell as CSV.
pub fn to_csv(r: &TenantResults) -> String {
    let mut out = String::from(
        "family,tenants,skew,admission,tenant,queries,complete_hit_ratio,\
         chunk_hit_ratio,avg_virtual_ms,p95_virtual_us,p99_virtual_us\n",
    );
    for cell in &r.cells {
        for t in &cell.per_tenant {
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.6},{:.6},{:.6},{},{}\n",
                cell.family,
                cell.tenants,
                cell.skew,
                cell.admission.name(),
                t.tenant,
                t.queries,
                t.complete_hit_ratio,
                t.chunk_hit_ratio,
                t.avg_virtual_ms,
                t.p95_virtual_us,
                t.p99_virtual_us,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> Opts {
        Opts {
            tuples: 4_000,
            queries: 60,
            ..Opts::default()
        }
    }

    #[test]
    fn cells_are_deterministic_and_thread_invariant() {
        let ds = apb_dataset(4_000, 3);
        let a = run_cell(
            &ds,
            small_opts(),
            "mixed",
            3,
            1.2,
            AdmissionKind::tiny_lfu(),
        );
        let b = run_cell(
            &ds,
            small_opts(),
            "mixed",
            3,
            1.2,
            AdmissionKind::tiny_lfu(),
        );
        let threaded = Opts {
            threads: 4,
            ..small_opts()
        };
        let c = run_cell(&ds, threaded, "mixed", 3, 1.2, AdmissionKind::tiny_lfu());
        for other in [&b, &c] {
            assert_eq!(a.hit_ratio.to_bits(), other.hit_ratio.to_bits());
            assert_eq!(a.admission_rejects, other.admission_rejects);
            assert_eq!(a.avg_virtual_ms.to_bits(), other.avg_virtual_ms.to_bits());
            assert_eq!(a.p95_virtual_us.to_bits(), other.p95_virtual_us.to_bits());
            assert_eq!(a.per_tenant.len(), other.per_tenant.len());
            for (x, y) in a.per_tenant.iter().zip(&other.per_tenant) {
                assert_eq!(x.queries, y.queries);
                assert_eq!(
                    x.complete_hit_ratio.to_bits(),
                    y.complete_hit_ratio.to_bits()
                );
                assert_eq!(x.p99_virtual_us.to_bits(), y.p99_virtual_us.to_bits());
            }
        }
    }

    #[test]
    fn exports_are_identical_across_runs() {
        let ds = apb_dataset(4_000, 3);
        let run = || TenantResults {
            cells: vec![
                run_cell(
                    &ds,
                    small_opts(),
                    "scan",
                    2,
                    1.2,
                    AdmissionKind::BenefitMean,
                ),
                run_cell(&ds, small_opts(), "scan", 2, 1.2, AdmissionKind::tiny_lfu()),
            ],
        };
        let (a, b) = (run(), run());
        assert_eq!(to_json(small_opts(), &a), to_json(small_opts(), &b));
        assert_eq!(to_csv(&a), to_csv(&b));
        assert!(to_json(small_opts(), &a).contains("\"admission\":\"tiny_lfu\""));
        assert!(to_csv(&a).starts_with("family,tenants,skew,admission,"));
    }

    #[test]
    fn every_tenant_is_accounted() {
        let ds = apb_dataset(4_000, 3);
        let cell = run_cell(&ds, small_opts(), "mixed", 4, 0.0, AdmissionKind::TwoLevel);
        assert_eq!(cell.per_tenant.len(), 4);
        let sum: u64 = cell.per_tenant.iter().map(|t| t.queries).sum();
        assert_eq!(sum, small_opts().queries as u64);
    }
}
