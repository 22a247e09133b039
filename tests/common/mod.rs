//! What the integration suites share beyond the experiment rig
//! (`aggcache_bench::rig`, which provides the APB-1 dataset, the backend,
//! the paper stream and the oracle): a small synthetic cube, and one
//! bit-exact digest of a query outcome. Every suite compiles its own copy
//! of this module and uses a subset.
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

/// Everything deterministic about one executed query. The accounting is
/// compared through `{:?}`, which prints floats in round-trip form, so
/// equal text is equal bits and a new field is compared without an edit.
#[derive(Debug, PartialEq, Eq)]
pub struct Digest {
    /// The answer cells sorted by coordinates, values as bits.
    pub cells: Vec<(Vec<u32>, u64)>,
    /// `metrics.without_wall_clock()`, `remote` and `spill`.
    pub accounting: String,
    /// The bits of `critical_path_ms`.
    pub critical_path: u64,
}

pub fn digest(o: &ExecOutcome) -> Digest {
    Digest {
        cells: cells(&o.data),
        accounting: format!(
            "{:?} {:?} {:?}",
            o.metrics.without_wall_clock(),
            o.remote,
            o.spill
        ),
        critical_path: o.critical_path_ms.to_bits(),
    }
}

/// Cells sorted by coordinates, values as bits: an answer compared
/// bit-exactly and in any order.
pub fn cells(data: &ChunkData) -> Vec<(Vec<u32>, u64)> {
    let mut data = data.clone();
    data.sort_by_coords();
    data.iter()
        .map(|(c, v)| (c.to_vec(), v.to_bits()))
        .collect()
}
