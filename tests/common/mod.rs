//! Fixtures shared by the integration suites: the datasets, the paper-mix
//! query stream, the brute-force oracle and the bit-exact comparators.
//! Every suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use aggcache::prelude::*;

/// A 3-dimensional cube small enough to sweep a full strategy × policy
/// matrix quickly, but with enough lattice structure (3 × 2 × 2 levels)
/// for drill-downs, roll-ups and computable (degraded-servable) hits.
pub fn synthetic_dataset() -> Dataset {
    SyntheticSpec::new()
        .dim("product", vec![1, 3, 12], vec![1, 3, 6])
        .dim("store", vec![1, 8], vec![1, 4])
        .dim("time", vec![1, 4], vec![1, 2])
        .tuples(2_500)
        .seed(7)
        .build()
}

/// The APB-1-shaped benchmark at reduced scale.
pub fn apb_dataset(seed: u64) -> Dataset {
    Apb1Config {
        n_tuples: 20_000,
        density: 0.7,
        seed,
    }
    .build()
}

/// A pristine SUM backend over the dataset's fact table.
pub fn backend(ds: &Dataset) -> Backend {
    Backend::new(ds.fact.clone(), AggFn::Sum, BackendCostModel::default())
}

/// A deterministic paper-mix query stream over the dataset's grid.
pub fn stream_queries(ds: &Dataset, n: usize, seed: u64) -> Vec<Query> {
    let max_level = ds.grid.geom(ds.fact_gb).level().to_vec();
    let mut stream = QueryStream::new(ds.grid.clone(), WorkloadConfig::paper(max_level, seed));
    stream.take_queries(n)
}

/// Brute-force oracle: the query's chunks straight from a pristine
/// backend — independent of all cache, spill and fault machinery — sorted
/// by coordinates.
pub fn oracle_answer(backend: &Backend, q: &Query) -> ChunkData {
    let mut out = ChunkData::new(backend.grid().num_dims());
    for (_, data) in backend.fetch(q.gb, &q.chunks).unwrap().chunks {
        out.append(&data);
    }
    out.sort_by_coords();
    out
}

pub fn assert_data_bit_identical(a: &ChunkData, b: &ChunkData, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: cell counts differ");
    for i in 0..a.len() {
        assert_eq!(a.coords_of(i), b.coords_of(i), "{ctx}: coords of cell {i}");
        assert_eq!(
            a.value_of(i).to_bits(),
            b.value_of(i).to_bits(),
            "{ctx}: value bits of cell {i} ({} vs {})",
            a.value_of(i),
            b.value_of(i),
        );
    }
}

/// The resident chunk keys in a canonical order.
pub fn sorted_keys(mgr: &CacheManager) -> Vec<ChunkKey> {
    let mut keys: Vec<ChunkKey> = mgr.cache().keys().collect();
    keys.sort_by_key(|k| (k.gb.index(), k.chunk));
    keys
}
