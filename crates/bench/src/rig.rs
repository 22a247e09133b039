//! Shared experiment setup: the APB-1 dataset (and the options and `main`
//! of the binaries that need nothing else), manager construction, the
//! paper's query stream, the brute-force oracle and sweep scratch space.

use crate::args::Args;
use aggcache_cache::PolicyKind;
use aggcache_chunks::ChunkData;
use aggcache_core::{CacheManager, CacheManagerBuilder, Query, Strategy};
use aggcache_gen::{Apb1Config, Dataset};
use aggcache_obs::Tracer;
use aggcache_store::{AggFn, Backend, BackendCostModel};
use aggcache_workload::{QueryStream, WorkloadConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// One megabyte of accounting bytes.
pub(crate) const MB: usize = 1_000_000;

/// The cache sizes of the paper's query-stream experiments (§7.2).
pub(crate) const PAPER_CACHE_SIZES_MB: [usize; 4] = [10, 15, 20, 25];

/// Builds the APB-1-like dataset used by all experiments.
///
/// `tuples` defaults to the paper's one million; smaller values scale the
/// experiment down proportionally (useful for quick runs).
pub fn apb_dataset(tuples: u64, seed: u64) -> Dataset {
    Apb1Config {
        n_tuples: tuples,
        density: 0.7,
        seed,
    }
    .build()
}

/// Options of the experiments that need only the dataset (Tables 2, 3 and
/// unit A).
#[derive(Debug, Clone, Copy)]
pub struct DatasetOpts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for DatasetOpts {
    fn default() -> Self {
        Self {
            tuples: 1_000_000,
            seed: 0xA9B1,
        }
    }
}

/// The `main` of `table2`, `table3` and `unit_aggregation_benefit`: reads
/// `--tuples --seed` and prints `run`'s report.
pub fn dataset_main(run: fn(DatasetOpts) -> String) {
    let a = Args::parse();
    let d = DatasetOpts::default();
    let opts = DatasetOpts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
    };
    a.finish();
    println!("{}", run(opts));
}

/// Wraps a dataset's fact table in a backend with the default cost model.
/// The backend shares the dataset's runs, so one generated dataset feeds
/// many manager configurations without a copy of its facts.
pub fn backend_for(dataset: &Dataset) -> Backend {
    Backend::new(
        dataset.fact.clone(),
        AggFn::Sum,
        BackendCostModel::default(),
    )
}

/// The builder chain every experiment's manager starts from. Callers add
/// what is theirs (a spill tier, an admission policy) and `build` over
/// [`backend_for`] or a decorated backend.
pub(crate) fn builder_for(
    strategy: Strategy,
    policy: PolicyKind,
    cache_bytes: usize,
    tracer: Option<Arc<dyn Tracer>>,
) -> CacheManagerBuilder {
    let builder = CacheManager::builder()
        .strategy(strategy)
        .policy(policy)
        .cache_bytes(cache_bytes);
    match tracer {
        Some(tracer) => builder.tracer(tracer),
        None => builder,
    }
}

/// Builds an untraced manager over (a clone of) the dataset's fact table.
pub(crate) fn manager_for(
    dataset: &Dataset,
    strategy: Strategy,
    policy: PolicyKind,
    cache_bytes: usize,
) -> CacheManager {
    builder_for(strategy, policy, cache_bytes, None)
        .build(backend_for(dataset))
        .expect("bench configuration is valid")
}

/// The paper's §7.2 query stream over `dataset`, seeded.
pub fn paper_stream(dataset: &Dataset, seed: u64) -> QueryStream {
    let max_level = dataset.grid.geom(dataset.fact_gb).level().to_vec();
    QueryStream::new(dataset.grid.clone(), WorkloadConfig::paper(max_level, seed))
}

/// The brute-force oracle: the query's chunks fetched straight from
/// `backend` (a pristine one, or a shadow that received exactly the same
/// delta batches), bypassing cache, spill and faults entirely, sorted by
/// coordinates.
pub fn oracle_answer(backend: &Backend, q: &Query) -> ChunkData {
    let mut want = ChunkData::new(backend.grid().num_dims());
    for (_, data) in backend
        .fetch(q.gb, &q.chunks)
        .expect("oracle backend cannot fail")
        .chunks
    {
        want.append(&data);
    }
    want.sort_by_coords();
    want
}

/// Whether `got` — a manager's answer to `q`, cells in any order — is
/// exactly [`oracle_answer`].
pub(crate) fn matches_oracle(backend: &Backend, q: &Query, got: &ChunkData) -> bool {
    let mut got = got.clone();
    got.sort_by_coords();
    got == oracle_answer(backend, q)
}

/// Process-unique scratch root for a sweep's spill directories; never
/// serialized into any output.
pub(crate) fn scratch_root(sweep: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aggcache-{sweep}-{}", std::process::id()))
}

/// Human label of a strategy for report tables.
pub(crate) fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::NoAggregation => "NoAgg",
        Strategy::Esm => "ESM",
        Strategy::Esmc { .. } => "ESMC",
        Strategy::Vcm => "VCM",
        Strategy::Vcmc => "VCMC",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rig_builds_small_dataset() {
        let ds = apb_dataset(2_000, 1);
        assert!(ds.num_tuples() > 1_500);
        let mgr = manager_for(&ds, Strategy::Vcm, PolicyKind::TwoLevel, MB);
        assert_eq!(mgr.cache().budget_bytes(), MB);
    }
}
