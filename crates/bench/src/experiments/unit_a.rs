//! **Unit experiment A** (§7.1 "Benefit of Aggregation") — in-cache
//! aggregation vs. computing the same result at the backend.
//!
//! The paper measured aggregating in cache to be about 8× faster than the
//! backend, a ratio "highly dependent on the network, the backend database
//! … and the presence of indices". Our backend *is* the cost model, so
//! this experiment validates that the default model reproduces the ≈8×
//! gap: for every answerable group-by it compares the virtual cost of one
//! backend query computing the whole group-by against the virtual cost of
//! aggregating it from the cached base chunks, and also reports the real
//! CPU times of both paths (which are near-identical — the gap the paper
//! saw comes from the network/SQL overheads the model adds).

use crate::report::{f2, MinMaxAvg, Table};
use crate::rig::{apb_dataset, backend_for};
use aggcache_cache::{ChunkCache, Origin, PolicyKind};
use aggcache_chunks::ChunkKey;
use aggcache_core::{esm, execute_plan, LookupStats, CACHE_PER_TUPLE_US};
use std::time::Instant;

/// Options for unit experiment A: the dataset only.
pub use crate::rig::DatasetOpts as Opts;

/// Runs the experiment and renders the report.
pub fn run(opts: Opts) -> String {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let backend = backend_for(&dataset);
    let lattice = dataset.grid.schema().lattice().clone();

    // Warm a cache with every base-table chunk.
    let mut cache = ChunkCache::new(usize::MAX >> 1, PolicyKind::Benefit);
    let fetch = backend.fetch_group_by(dataset.fact_gb).unwrap();
    for (chunk, data) in fetch.chunks {
        cache.insert(
            ChunkKey::new(dataset.fact_gb, chunk),
            data,
            Origin::Backend,
            1.0,
        );
    }

    let mut virtual_ratio = MinMaxAvg::default();
    let mut real_cache_ms = MinMaxAvg::default();
    let mut real_backend_ms = MinMaxAvg::default();

    // One whole-group-by aggregation per answerable group-by, mirroring
    // the paper's unit queries ("sum of UnitSales at different levels of
    // aggregation").
    for gb in lattice.iter_ids_under(dataset.fact_gb) {
        if gb == dataset.fact_gb {
            continue; // no aggregation needed at the fact level itself
        }
        // In-cache: aggregate every chunk of the group-by from the cached
        // base chunks (real work + virtual cost).
        let mut tuples_total = 0u64;
        let t = Instant::now();
        for chunk in 0..dataset.grid.n_chunks(gb) {
            let mut stats = LookupStats::default();
            let plan = esm(&cache, &dataset.grid, ChunkKey::new(gb, chunk), &mut stats)
                .expect("base cached → everything computable");
            let (_, tuples) = execute_plan(&dataset.grid, &cache, backend.agg(), &plan);
            tuples_total += tuples;
        }
        real_cache_ms.add(t.elapsed().as_secs_f64() * 1e3);
        let cache_ms = tuples_total as f64 * CACHE_PER_TUPLE_US / 1000.0;

        // Backend: one batched SQL query for the same group-by.
        let t = Instant::now();
        let fetched = backend.fetch_group_by(gb).unwrap();
        real_backend_ms.add(t.elapsed().as_secs_f64() * 1e3);

        virtual_ratio.add(fetched.virtual_ms / cache_ms.max(1e-9));
    }

    let mut out = String::from("Unit experiment A: benefit of aggregating in the cache\n(one whole-group-by aggregation per answerable group-by)\n\n");
    let mut table = Table::new(&["metric", "min", "max", "avg"]);
    table.row(vec![
        "backend/cache virtual cost ratio".into(),
        f2(virtual_ratio.min),
        f2(virtual_ratio.max),
        f2(virtual_ratio.avg()),
    ]);
    table.row(vec![
        "real in-cache aggregation (ms)".into(),
        f2(real_cache_ms.min),
        f2(real_cache_ms.max),
        f2(real_cache_ms.avg()),
    ]);
    table.row(vec![
        "real backend compute (ms)".into(),
        f2(real_backend_ms.min),
        f2(real_backend_ms.max),
        f2(real_backend_ms.avg()),
    ]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nPaper: cache aggregation ≈ 8× faster than the backend on average.\n\
         Modeled ratio here: {:.1}× (group-bys measured: {}).\n",
        virtual_ratio.avg(),
        virtual_ratio.count(),
    ));
    out
}
