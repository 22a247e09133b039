use crate::ComputationPlan;
use aggcache_cache::ChunkCache;
use aggcache_chunks::{ChunkData, ChunkGrid};
use aggcache_obs::Tracer;
use aggcache_store::{aggregate_to_chunk, AggFn, Lift};

/// Executes a [`ComputationPlan`]: aggregates the plan's cached leaf chunks
/// (at whatever mixed levels they live) straight up into the target chunk
/// in a single pass — legal because the cube's aggregate is distributive.
/// The kernel is told the target chunk and the leaves' total length, so it
/// accumulates into a dense array over the chunk's cell box wherever that
/// box is small next to the input ([`aggregate_to_chunk`]).
///
/// Returns the computed chunk's cells and the number of tuples aggregated
/// (the realized cost, which equals `plan.cost` whenever plan costs are
/// exact).
///
/// # Panics
///
/// Panics if a leaf is missing from the cache — the caller must pin plan
/// leaves between lookup and execution — or does not roll up into the
/// plan's target chunk.
pub fn execute_plan(
    grid: &ChunkGrid,
    cache: &ChunkCache,
    agg: AggFn,
    plan: &ComputationPlan,
) -> (ChunkData, u64) {
    execute_plan_parallel_traced(grid, cache, agg, plan, 1, None)
}

/// Plans cheaper than this (in cells to aggregate) run single-threaded:
/// below it, spawning scoped threads costs more than the aggregation.
pub const PARALLEL_MIN_COST: u64 = 8_192;

/// [`execute_plan`] on `threads` scoped threads: the same kernel, each
/// worker owning a share of the target chunk's cell box and combining its
/// cells in the sequential order ([`aggregate_to_chunk`]), so the result is
/// bit-identical to [`execute_plan`] — including floating-point SUM, which
/// leaf-sharding would silently re-associate.
///
/// A plan below [`PARALLEL_MIN_COST`] runs on the calling thread alone.
///
/// # Panics
///
/// As [`execute_plan`].
pub fn execute_plan_parallel(
    grid: &ChunkGrid,
    cache: &ChunkCache,
    agg: AggFn,
    plan: &ComputationPlan,
    threads: usize,
) -> (ChunkData, u64) {
    execute_plan_parallel_traced(grid, cache, agg, plan, threads, None)
}

/// [`execute_plan_parallel`] with an optional [`Tracer`] receiving one
/// `ShardAgg` event per worker. Tracing never changes the computed cells.
pub fn execute_plan_parallel_traced(
    grid: &ChunkGrid,
    cache: &ChunkCache,
    agg: AggFn,
    plan: &ComputationPlan,
    threads: usize,
    tracer: Option<&dyn Tracer>,
) -> (ChunkData, u64) {
    let threads = if plan.cost < PARALLEL_MIN_COST {
        1
    } else {
        threads
    };
    // Resolved once; workers share the read-only borrows.
    let leaves: Vec<_> = plan
        .leaves
        .iter()
        .map(|leaf| {
            let entry = cache
                .peek(leaf)
                .expect("plan leaf evicted before execution; pin leaves");
            (*leaf, &entry.data)
        })
        .collect();
    aggregate_to_chunk(
        grid,
        plan.target,
        &leaves,
        agg,
        Lift::Lifted,
        threads,
        tracer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{esm, LookupStats};
    use aggcache_cache::{Origin, PolicyKind};
    use aggcache_chunks::ChunkKey;
    use aggcache_schema::{Dimension, Schema};
    use aggcache_store::{Aggregator, Backend, BackendCostModel, FactTable};
    use std::sync::Arc;

    /// End-to-end: cache the base level via backend fetches, compute an
    /// aggregated chunk from the cache, and verify against a direct backend
    /// computation.
    #[test]
    fn cache_computed_chunk_matches_backend() {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("x", vec![1, 2, 6]).unwrap(),
                    Dimension::flat("y", 4).unwrap(),
                ],
                "m",
            )
            .unwrap(),
        );
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 3], vec![1, 2]]).unwrap());
        let lattice = grid.schema().lattice().clone();
        let base = lattice.base();
        let mut cells = ChunkData::new(2);
        for x in 0..6u32 {
            for y in 0..4u32 {
                cells.push(&[x, y], f64::from(x * 7 + y));
            }
        }
        let backend = Backend::new(
            FactTable::load(grid.clone(), base, cells),
            AggFn::Sum,
            BackendCostModel::default(),
        );

        let mut cache = ChunkCache::new(usize::MAX, PolicyKind::Benefit);
        let fetched = backend.fetch_group_by(base).unwrap();
        for (chunk, data) in fetched.chunks {
            cache.insert(ChunkKey::new(base, chunk), data, Origin::Backend, 1.0);
        }

        for (gb, _) in lattice.iter_levels() {
            for chunk in 0..grid.n_chunks(gb) {
                let key = ChunkKey::new(gb, chunk);
                let mut stats = LookupStats::default();
                let plan = esm(&cache, &grid, key, &mut stats).expect("full base → computable");
                let (data, tuples) = execute_plan(&grid, &cache, AggFn::Sum, &plan);
                let expected = backend.fetch(gb, &[chunk]).unwrap();
                assert_eq!(data, expected.chunks[0].1, "chunk {key:?}");
                assert_eq!(tuples, plan.cost);
            }
        }
    }

    /// The same fork on the paper's lattice: the HistSale level of
    /// `Apb1Config::small()` cached, one chunk of every group-by it can
    /// answer computed through `execute_plan` — dense boxes at the
    /// aggregated nodes, sparse at the detailed ones — equals the backend's
    /// answer and the same leaves rolled into a level-wide
    /// `Aggregator::new`, bit for bit.
    #[test]
    fn every_apb1_group_by_matches_the_backend_and_the_level_wide_kernel() {
        let dataset = aggcache_gen::Apb1Config::small().build();
        let grid = dataset.grid.clone();
        let fact_gb = dataset.fact_gb;
        let backend = Backend::new(dataset.fact, AggFn::Sum, BackendCostModel::default());
        let mut cache = ChunkCache::new(usize::MAX, PolicyKind::Benefit);
        for (chunk, data) in backend.fetch_group_by(fact_gb).unwrap().chunks {
            cache.insert(ChunkKey::new(fact_gb, chunk), data, Origin::Backend, 1.0);
        }
        let lattice = grid.schema().lattice();
        let mut answered = 0;
        for (gb, level) in lattice.iter_levels() {
            let key = ChunkKey::new(gb, u64::from(gb.0) % grid.n_chunks(gb));
            let mut stats = LookupStats::default();
            let Some(plan) = esm(&cache, &grid, key, &mut stats) else {
                assert!(!lattice.computable_from(gb, fact_gb));
                continue;
            };
            answered += 1;
            let (data, tuples) = execute_plan(&grid, &cache, AggFn::Sum, &plan);
            assert_eq!(tuples, plan.cost);
            let mut whole = Aggregator::new(grid.schema(), &level, AggFn::Sum);
            for leaf in &plan.leaves {
                let cells = &cache.peek(leaf).unwrap().data;
                whole.add_chunk(grid.geom(leaf.gb).level(), cells, Lift::Lifted);
            }
            let whole = whole.finish();
            assert_eq!(data.len(), whole.len(), "chunk {key:?}");
            for (i, (c, v)) in data.iter().enumerate() {
                assert_eq!(c, whole.coords_of(i), "chunk {key:?}");
                assert_eq!(
                    v.to_bits(),
                    whole.value_of(i).to_bits(),
                    "chunk {key:?} {c:?}"
                );
            }
            // The backend adds the facts themselves, in another order.
            let fetched = backend.fetch(key.gb, &[key.chunk]).unwrap();
            let fetched = &fetched.chunks[0].1;
            assert_eq!(data.raw_coords(), fetched.raw_coords(), "chunk {key:?}");
            for (v, w) in data.raw_values().iter().zip(fetched.raw_values()) {
                assert!((v - w).abs() <= 1e-9 * w.abs(), "chunk {key:?}: {v} vs {w}");
            }
        }
        assert_eq!(answered, 168);
    }

    #[test]
    fn parallel_execution_is_bit_identical() {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("x", vec![1, 2, 6]).unwrap(),
                    Dimension::flat("y", 4).unwrap(),
                ],
                "m",
            )
            .unwrap(),
        );
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 3], vec![1, 2]]).unwrap());
        let lattice = grid.schema().lattice().clone();
        let base = lattice.base();
        let mut cells = ChunkData::new(2);
        for x in 0..6u32 {
            for y in 0..4u32 {
                // Non-associative float mix: re-association would change bits.
                cells.push(&[x, y], 0.1 + f64::from(x) * 1e9 + f64::from(y).sin());
            }
        }
        let backend = Backend::new(
            FactTable::load(grid.clone(), base, cells),
            AggFn::Sum,
            BackendCostModel::default(),
        );
        let mut cache = ChunkCache::new(usize::MAX, PolicyKind::Benefit);
        for (chunk, data) in backend.fetch_group_by(base).unwrap().chunks {
            cache.insert(ChunkKey::new(base, chunk), data, Origin::Backend, 1.0);
        }
        for gb in lattice.iter_ids() {
            for chunk in 0..grid.n_chunks(gb) {
                let mut stats = LookupStats::default();
                let mut plan = esm(&cache, &grid, ChunkKey::new(gb, chunk), &mut stats).unwrap();
                // Force the parallel path regardless of the real plan cost.
                plan.cost = plan.cost.max(PARALLEL_MIN_COST);
                let (seq, seq_tuples) = execute_plan(&grid, &cache, AggFn::Sum, &plan);
                for threads in [2usize, 3, 8] {
                    let (par, par_tuples) =
                        execute_plan_parallel(&grid, &cache, AggFn::Sum, &plan, threads);
                    assert_eq!(par_tuples, seq_tuples);
                    assert_eq!(par.len(), seq.len());
                    for i in 0..par.len() {
                        assert_eq!(par.coords_of(i), seq.coords_of(i));
                        assert_eq!(
                            par.value_of(i).to_bits(),
                            seq.value_of(i).to_bits(),
                            "gb {gb:?} chunk {chunk} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    /// A target of one row has one owner: at eight threads seven shares
    /// are empty and do nothing, and the answer is `execute_plan`'s.
    #[test]
    fn a_single_row_target_runs_at_eight_threads() {
        let schema = Arc::new(Schema::new(vec![Dimension::flat("x", 4).unwrap()], "m").unwrap());
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2]]).unwrap());
        let lattice = grid.schema().lattice();
        let mut cache = ChunkCache::new(usize::MAX, PolicyKind::Benefit);
        for chunk in 0..2u32 {
            let mut cells = ChunkData::new(1);
            for x in 2 * chunk..2 * chunk + 2 {
                cells.push(&[x], 0.1 + f64::from(x) * 1e9);
            }
            let key = ChunkKey::new(lattice.base(), u64::from(chunk));
            cache.insert(key, cells, Origin::Backend, 1.0);
        }
        for target in [
            ChunkKey::new(lattice.top(), 0),
            ChunkKey::new(lattice.base(), 1),
        ] {
            let mut stats = LookupStats::default();
            let mut plan = esm(&cache, &grid, target, &mut stats).unwrap();
            plan.cost = PARALLEL_MIN_COST;
            let seq = execute_plan(&grid, &cache, AggFn::Sum, &plan);
            let par = execute_plan_parallel(&grid, &cache, AggFn::Sum, &plan, 8);
            assert_eq!(par, seq, "{target:?}");
            assert!(!seq.0.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "plan leaf evicted")]
    fn panics_on_missing_leaf() {
        let schema = Arc::new(Schema::new(vec![Dimension::flat("x", 2).unwrap()], "m").unwrap());
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 1]]).unwrap());
        let cache = ChunkCache::new(usize::MAX, PolicyKind::Benefit);
        let plan = ComputationPlan {
            target: ChunkKey::new(grid.schema().lattice().top(), 0),
            leaves: vec![ChunkKey::new(grid.schema().lattice().base(), 0)],
            cost: 0,
            direct_hit: false,
        };
        let _ = execute_plan(&grid, &cache, AggFn::Sum, &plan);
    }

    #[test]
    #[should_panic(expected = "does not roll up into target chunk")]
    fn panics_on_a_leaf_outside_the_target() {
        let schema = Arc::new(Schema::new(vec![Dimension::flat("x", 4).unwrap()], "m").unwrap());
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2]]).unwrap());
        let base = grid.schema().lattice().base();
        let mut cache = ChunkCache::new(usize::MAX, PolicyKind::Benefit);
        let mut cells = ChunkData::new(1);
        cells.push(&[3], 1.0);
        cache.insert(ChunkKey::new(base, 1), cells, Origin::Backend, 1.0);
        // Base chunk 1 is chunk 0's sibling: its cell would alias one of
        // chunk 0's in a box keyed relative to chunk 0.
        let plan = ComputationPlan {
            target: ChunkKey::new(base, 0),
            leaves: vec![ChunkKey::new(base, 1)],
            cost: 1,
            direct_hit: false,
        };
        let _ = execute_plan(&grid, &cache, AggFn::Sum, &plan);
    }
}
