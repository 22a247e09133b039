//! Query-stream experiment runner (paper §7.2).

use crate::report::{mean, MinMaxAvg};
use crate::rig::{backend_for, builder_for, paper_stream};
use aggcache_cache::PolicyKind;
use aggcache_chunks::PAPER_TUPLE_BYTES;
use aggcache_core::{CacheError, PreloadReport, Strategy};
use aggcache_gen::Dataset;
use aggcache_obs::Tracer;
use aggcache_schema::GroupById;
use aggcache_store::BackendSource;
use std::sync::Arc;

/// What a run pre-loads before its stream: the two-level policy's choice
/// (§6.3, rule 3) or one of its two ablations.
#[derive(Debug, Clone, Copy)]
pub enum Preload {
    /// Nothing: the stream starts on a cold cache.
    None,
    /// The group-by with the most lattice descendants that fits
    /// ([`aggcache_core::CacheManager::preload_best`]).
    MaxDescendants,
    /// The most detailed group-by that fits, ignoring descendant counts.
    MostDetailed,
}

/// Configuration of one stream run.
#[derive(Debug, Clone, Copy)]
pub struct StreamRun {
    /// Lookup strategy.
    pub strategy: Strategy,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Cache budget (accounting bytes).
    pub cache_bytes: usize,
    /// What to pre-load before the stream.
    pub preload: Preload,
    /// Number of queries (paper: 100).
    pub queries: usize,
    /// Workload seed (shared across configurations so every run sees the
    /// identical stream).
    pub seed: u64,
    /// Two-level group clock-boost (ablation knob; true = paper behaviour).
    pub group_boost: bool,
}

impl StreamRun {
    /// The paper-default run at the given strategy/policy/budget.
    pub fn paper(strategy: Strategy, policy: PolicyKind, cache_bytes: usize) -> Self {
        Self {
            strategy,
            policy,
            cache_bytes,
            preload: Preload::MaxDescendants,
            queries: 100,
            seed: 2000,
            group_boost: true,
        }
    }
}

/// The metrics the paper reports for a stream run.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// % of queries answered entirely from the cache (Fig. 7, Table 4).
    pub complete_hit_pct: f64,
    /// Mean end-to-end virtual time per query in ms (Figs. 8, 9).
    pub avg_ms: f64,
    /// Mean per-query time over *complete-hit* queries only (Table 4,
    /// Fig. 10), split into the paper's three components.
    pub hit_lookup_ms: MinMaxAvg,
    /// Aggregation time (virtual ms) over complete-hit queries.
    pub hit_agg_ms: MinMaxAvg,
    /// Update (table-maintenance) time over complete-hit queries.
    pub hit_update_ms: MinMaxAvg,
    /// Mean total ms over complete-hit queries.
    pub hit_total_ms: f64,
    /// What was pre-loaded, if anything.
    pub preload: Option<PreloadReport>,
    /// Total tuples aggregated in cache across the stream.
    pub tuples_aggregated: u64,
    /// Total base tuples scanned at the backend across the stream.
    pub backend_tuples: u64,
    /// Queries answered, from any source.
    pub(crate) answered: u64,
    /// Queries answered from the cache alone by the normal lookup path.
    pub(crate) complete_hits: u64,
    /// Queries that failed with `BackendUnavailable`.
    pub(crate) failed: u64,
    /// Queries whose misses were served degraded: answered from the cache
    /// despite a backend outage.
    pub(crate) degraded_queries: u64,
    /// Chunks served degraded across the stream.
    pub(crate) chunks_degraded: u64,
}

/// Scalar summary averaged over several workload seeds (the paper used a
/// single 100-query stream; averaging smooths single-stream variance
/// without changing any trend).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AveragedResult {
    /// Mean complete-hit percentage.
    pub(crate) complete_hit_pct: f64,
    /// Mean per-query end-to-end virtual ms.
    pub(crate) avg_ms: f64,
    /// Mean lookup virtual ms over complete-hit queries.
    pub(crate) hit_lookup_ms: f64,
    /// Mean aggregation virtual ms over complete-hit queries.
    pub(crate) hit_agg_ms: f64,
    /// Mean update virtual ms over complete-hit queries.
    pub(crate) hit_update_ms: f64,
    /// Mean total virtual ms over complete-hit queries.
    pub(crate) hit_total_ms: f64,
}

/// Runs `repeats` streams with consecutive seeds and averages the summary.
pub(crate) fn run_stream_averaged(
    dataset: &Dataset,
    run: StreamRun,
    repeats: u64,
) -> AveragedResult {
    let mut acc = AveragedResult::default();
    let n = repeats.max(1);
    for i in 0..n {
        let r = run_stream(
            dataset,
            backend_for(dataset),
            StreamRun {
                seed: run.seed + i,
                ..run
            },
            None,
        );
        acc.complete_hit_pct += r.complete_hit_pct;
        acc.avg_ms += r.avg_ms;
        acc.hit_lookup_ms += r.hit_lookup_ms.avg();
        acc.hit_agg_ms += r.hit_agg_ms.avg();
        acc.hit_update_ms += r.hit_update_ms.avg();
        acc.hit_total_ms += r.hit_total_ms;
    }
    let d = n as f64;
    AveragedResult {
        complete_hit_pct: acc.complete_hit_pct / d,
        avg_ms: acc.avg_ms / d,
        hit_lookup_ms: acc.hit_lookup_ms / d,
        hit_agg_ms: acc.hit_agg_ms / d,
        hit_update_ms: acc.hit_update_ms / d,
        hit_total_ms: acc.hit_total_ms / d,
    }
}

/// The most detailed group-by (largest level sum) whose estimated size
/// fits `cache_bytes`.
fn most_detailed_fitting(dataset: &Dataset, cache_bytes: usize) -> Option<GroupById> {
    let schema = dataset.grid.schema();
    let lattice = schema.lattice();
    let n_facts = dataset.fact.num_tuples();
    let fits = |&gb: &GroupById| {
        let cells = schema.estimated_distinct_cells(&lattice.level_of(gb), n_facts);
        cells * PAPER_TUPLE_BYTES as u64 <= cache_bytes as u64
    };
    let detail = |&gb: &GroupById| {
        lattice
            .level_of(gb)
            .iter()
            .map(|&l| u32::from(l))
            .sum::<u32>()
    };
    lattice
        .iter_ids_under(dataset.fact_gb)
        .filter(fits)
        .max_by_key(detail)
}

/// Replays one configuration's stream over `backend` (the dataset's own,
/// [`backend_for`], or a decorated one), with `tracer`, if any, attached
/// to the manager.
///
/// Every run with the same `seed` sees the identical query stream, so
/// strategies and policies are compared on exactly the same workload, as
/// in the paper. A backend outage the cache cannot route around fails its
/// query, and one that refuses the pre-load leaves the cache cold; any
/// other error panics. Tracing observes wall-clock time but never virtual
/// time, so a traced run produces a bit-identical [`StreamResult`] to an
/// untraced one.
pub fn run_stream(
    dataset: &Dataset,
    backend: impl BackendSource + 'static,
    run: StreamRun,
    tracer: Option<Arc<dyn Tracer>>,
) -> StreamResult {
    let mut mgr = builder_for(run.strategy, run.policy, run.cache_bytes, tracer)
        .group_boost(run.group_boost)
        .build(backend)
        .expect("stream-run configuration is valid");
    let preload = match run.preload {
        Preload::None => Ok(None),
        Preload::MaxDescendants => mgr.preload_best(),
        Preload::MostDetailed => most_detailed_fitting(dataset, run.cache_bytes)
            .map_or(Ok(None), |gb| mgr.preload_group_by(gb).map(Some)),
    };
    let preload = match preload {
        Ok(report) => report,
        Err(CacheError::Store(e)) if e.is_outage() => None,
        Err(e) => panic!("pre-load failed: {e}"),
    };

    let mut stream = paper_stream(dataset, run.seed);

    let mut hit_lookup = MinMaxAvg::default();
    let mut hit_agg = MinMaxAvg::default();
    let mut hit_update = MinMaxAvg::default();
    let mut hit_total = 0.0f64;
    let mut hits = 0u64;

    for _ in 0..run.queries {
        let (query, _) = stream.next_with_kind();
        let m = match mgr.run(&(&query).into()) {
            Ok(result) => result.metrics,
            Err(CacheError::BackendUnavailable { .. }) => continue,
            Err(e) => panic!("stream query failed: {e}"),
        };
        if m.complete_hit {
            hits += 1;
            hit_lookup.add(m.lookup_virtual_ms);
            hit_agg.add(m.agg_virtual_ms);
            hit_update.add(m.update_virtual_ms);
            hit_total += m.total_ms();
        }
    }

    let s = mgr.session();
    StreamResult {
        complete_hit_pct: 100.0 * s.complete_hit_ratio(),
        avg_ms: s.avg_ms(),
        hit_lookup_ms: hit_lookup,
        hit_agg_ms: hit_agg,
        hit_update_ms: hit_update,
        hit_total_ms: mean(hit_total, hits),
        preload,
        tuples_aggregated: s.sum.tuples_aggregated,
        backend_tuples: s.sum.backend_tuples,
        answered: s.queries,
        complete_hits: s.complete_hits,
        failed: run.queries as u64 - s.queries,
        degraded_queries: s.degraded_queries,
        chunks_degraded: s.sum.chunks_degraded as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{apb_dataset, MB};

    #[test]
    fn stream_run_produces_metrics() {
        let ds = apb_dataset(5_000, 3);
        let r = run_stream(
            &ds,
            backend_for(&ds),
            StreamRun {
                strategy: Strategy::Vcmc,
                policy: PolicyKind::TwoLevel,
                cache_bytes: MB,
                preload: Preload::MaxDescendants,
                queries: 20,
                seed: 7,
                group_boost: true,
            },
            None,
        );
        assert!(r.complete_hit_pct >= 0.0 && r.complete_hit_pct <= 100.0);
        assert!(r.avg_ms >= 0.0);
        assert!(r.preload.is_some());
    }

    #[test]
    fn same_seed_same_stream() {
        let ds = apb_dataset(5_000, 3);
        // Two fifths of the ≈100 kB base table: the stream evicts, and
        // VCMC's cheaper plans leave it a different hit % from VCM's.
        let mk = |strategy| StreamRun {
            strategy,
            policy: PolicyKind::TwoLevel,
            cache_bytes: 40 * 1024,
            preload: Preload::MaxDescendants,
            queries: 100,
            seed: 11,
            group_boost: true,
        };
        // ESM and VCM pick the same plan for every chunk (the counts only
        // cut short the searches that fail), so on one stream they hit,
        // admit and evict alike, and aggregate the same tuples.
        let a = run_stream(&ds, backend_for(&ds), mk(Strategy::Esm), None);
        let b = run_stream(&ds, backend_for(&ds), mk(Strategy::Vcm), None);
        assert!(a.complete_hit_pct < 100.0, "the budget must bite");
        assert_eq!(a.complete_hit_pct.to_bits(), b.complete_hit_pct.to_bits());
        assert_eq!(a.hit_agg_ms.avg().to_bits(), b.hit_agg_ms.avg().to_bits());
    }
}
