//! Query-stream experiment runner (paper §7.2).

use crate::report::{mean, MinMaxAvg};
use crate::rig::{backend_for, builder_for, paper_stream};
use aggcache_cache::PolicyKind;
use aggcache_core::{PreloadReport, Strategy};
use aggcache_gen::Dataset;
use aggcache_obs::Tracer;
use std::sync::Arc;

/// Configuration of one stream run.
#[derive(Debug, Clone, Copy)]
pub struct StreamRun {
    /// Lookup strategy.
    pub strategy: Strategy,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Cache budget (accounting bytes).
    pub cache_bytes: usize,
    /// Pre-load the cache per the two-level policy before the stream.
    pub preload: bool,
    /// Number of queries (paper: 100).
    pub queries: usize,
    /// Workload seed (shared across configurations so every run sees the
    /// identical stream).
    pub seed: u64,
    /// Two-level group clock-boost (ablation knob; true = paper behaviour).
    pub group_boost: bool,
    /// Worker threads for sharded aggregation. Only wall-clock time is
    /// affected; all virtual-time outputs are bit-identical at any setting.
    pub threads: usize,
}

impl StreamRun {
    /// The paper-default run at the given strategy/policy/budget.
    pub fn paper(strategy: Strategy, policy: PolicyKind, cache_bytes: usize) -> Self {
        Self {
            strategy,
            policy,
            cache_bytes,
            preload: true,
            queries: 100,
            seed: 2000,
            group_boost: true,
            threads: 1,
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
}

/// Scalar summary averaged over several workload seeds (the paper used a
/// single 100-query stream; averaging smooths single-stream variance
/// without changing any trend).
#[derive(Debug, Clone, Copy, Default)]
pub struct AveragedResult {
    /// Mean complete-hit percentage.
    pub complete_hit_pct: f64,
    /// Mean per-query end-to-end virtual ms.
    pub avg_ms: f64,
    /// Mean lookup virtual ms over complete-hit queries.
    pub hit_lookup_ms: f64,
    /// Mean aggregation virtual ms over complete-hit queries.
    pub hit_agg_ms: f64,
    /// Mean update virtual ms over complete-hit queries.
    pub hit_update_ms: f64,
    /// Mean total virtual ms over complete-hit queries.
    pub hit_total_ms: f64,
}

/// Runs `repeats` streams with consecutive seeds and averages the summary.
pub fn run_stream_averaged(dataset: &Dataset, run: StreamRun, repeats: u64) -> AveragedResult {
    let mut acc = AveragedResult::default();
    let n = repeats.max(1);
    for i in 0..n {
        let r = run_stream(
            dataset,
            StreamRun {
                seed: run.seed + i,
                ..run
            },
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

/// Runs one configuration against (a clone of) the dataset's fact table.
///
/// Every run with the same `seed` sees the identical query stream, so
/// strategies and policies are compared on exactly the same workload, as
/// in the paper.
pub fn run_stream(dataset: &Dataset, run: StreamRun) -> StreamResult {
    run_stream_traced(dataset, run, None)
}

/// [`run_stream`] with an optional [`Tracer`] attached to the manager.
///
/// Tracing observes wall-clock time but never virtual time, so a traced
/// run produces a bit-identical [`StreamResult`] to an untraced one.
pub fn run_stream_traced(
    dataset: &Dataset,
    run: StreamRun,
    tracer: Option<Arc<dyn Tracer>>,
) -> StreamResult {
    let mut mgr = builder_for(
        run.strategy,
        run.policy,
        run.cache_bytes,
        run.threads,
        tracer,
    )
    .group_boost(run.group_boost)
    .build(backend_for(dataset))
    .expect("stream-run configuration is valid");
    let preload = if run.preload {
        mgr.preload_best()
            .expect("preload group-bys are backend-computable")
    } else {
        None
    };

    let mut stream = paper_stream(dataset, run.seed);

    let mut hit_lookup = MinMaxAvg::default();
    let mut hit_agg = MinMaxAvg::default();
    let mut hit_update = MinMaxAvg::default();
    let mut hit_total = 0.0f64;
    let mut hits = 0u64;

    for _ in 0..run.queries {
        let (query, _) = stream.next_with_kind();
        let result = mgr
            .run(&(&query).into())
            .expect("stream stays within the fact level");
        let m = result.metrics;
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
            StreamRun {
                strategy: Strategy::Vcmc,
                policy: PolicyKind::TwoLevel,
                cache_bytes: MB,
                preload: true,
                queries: 20,
                seed: 7,
                group_boost: true,
                threads: 1,
            },
        );
        assert!(r.complete_hit_pct >= 0.0 && r.complete_hit_pct <= 100.0);
        assert!(r.avg_ms >= 0.0);
        assert!(r.preload.is_some());
    }

    #[test]
    fn same_seed_same_stream() {
        let ds = apb_dataset(5_000, 3);
        let mk = |strategy| StreamRun {
            strategy,
            policy: PolicyKind::TwoLevel,
            cache_bytes: MB,
            preload: true,
            queries: 15,
            seed: 11,
            group_boost: true,
            threads: 1,
        };
        // VCM and VCMC answer the same set of queries from the cache, so
        // their complete-hit percentages must be identical.
        let a = run_stream(&ds, mk(Strategy::Vcm));
        let b = run_stream(&ds, mk(Strategy::Vcmc));
        assert_eq!(a.complete_hit_pct, b.complete_hit_pct);
    }
}
