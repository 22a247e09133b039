use aggcache_chunks::hash::mix64;
use aggcache_chunks::{ChunkData, ChunkGrid, ChunkNumber};
use aggcache_schema::GroupById;
use aggcache_store::FactTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// A complete generated dataset: chunk grid (and through it the schema)
/// and a chunk-clustered fact table at a designated group-by.
#[derive(Debug)]
pub struct Dataset {
    /// The chunk grid.
    pub grid: Arc<ChunkGrid>,
    /// The group-by the fact data lives at (for APB-1: `(6, 2, 3, 1, 0)`).
    pub fact_gb: GroupById,
    /// The fact table.
    pub fact: FactTable,
}

impl Dataset {
    /// Generates a dataset by sampling `n_tuples` fact tuples over the
    /// chunks of `fact_gb`.
    ///
    /// `density` in `(0, 1]` controls how evenly chunks fill: 1.0 spreads
    /// tuples uniformly over chunk capacity; lower values draw each chunk's
    /// weight towards a random factor, producing the uneven chunk sizes of
    /// real OLAP data. Tuple values are uniform in `[1, 1000]`.
    pub fn generate(
        grid: Arc<ChunkGrid>,
        fact_gb: GroupById,
        n_tuples: u64,
        density: f64,
        seed: u64,
    ) -> Self {
        assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let geom = grid.geom(fact_gb);
        let level = geom.level().to_vec();
        let n_dims = grid.num_dims();
        let n_chunks = geom.total_chunks();

        // Per-chunk weights: capacity scaled by a density-controlled jitter.
        let capacities: Vec<u64> = (0..n_chunks)
            .map(|c| grid.base_cells_under(fact_gb, c))
            .collect();
        let weights: Vec<f64> = capacities
            .iter()
            .map(|&cap| {
                let jitter: f64 = rng.gen();
                cap as f64 * (density + (1.0 - density) * jitter)
            })
            .collect();
        let total_weight: f64 = weights.iter().sum();

        let mut cells = ChunkData::with_capacity(n_dims, n_tuples as usize);
        let mut coords = vec![0u32; n_dims];
        for c in 0..n_chunks {
            let share = weights[c as usize] / total_weight;
            let want = ((n_tuples as f64 * share).round() as u64).min(capacities[c as usize]);
            sample_chunk_cells(&grid, fact_gb, c, want, &mut rng, &mut |local| {
                decode_local(&grid, fact_gb, c, &level, local, &mut coords);
                let v = f64::from(rng_value(local));
                (coords.clone(), v)
            })
            .into_iter()
            .for_each(|(co, v)| cells.push(&co, v));
        }

        let fact = FactTable::load(grid.clone(), fact_gb, cells);
        Self {
            grid,
            fact_gb,
            fact,
        }
    }

    /// Total tuples in the fact table.
    pub fn num_tuples(&self) -> u64 {
        self.fact.num_tuples()
    }
}

/// Deterministic per-cell value in `[1, 1000]` derived from the local cell
/// index (keeps generation order-independent).
fn rng_value(local: u64) -> u32 {
    (mix64(local) % 1000) as u32 + 1
}

/// Samples `want` distinct local cell indices within the chunk's value box
/// and maps each through `emit`.
fn sample_chunk_cells(
    grid: &ChunkGrid,
    gb: GroupById,
    chunk: ChunkNumber,
    want: u64,
    rng: &mut StdRng,
    emit: &mut impl FnMut(u64) -> (Vec<u32>, f64),
) -> Vec<(Vec<u32>, f64)> {
    let capacity = grid.base_cells_under(gb, chunk);
    let mut out = Vec::with_capacity(want as usize);
    if want == 0 {
        return out;
    }
    if want * 2 >= capacity {
        // Dense chunk: choose by per-cell Bernoulli-ish selection over a
        // random permutation-free pass (keep the first `want` of a shuffled
        // index set would need O(capacity) memory; capacity is small here).
        let mut indices: Vec<u64> = (0..capacity).collect();
        // Partial Fisher-Yates: shuffle only the prefix we need.
        for i in 0..want {
            let j = rng.gen_range(i..capacity);
            indices.swap(i as usize, j as usize);
        }
        for &local in indices.iter().take(want as usize) {
            out.push(emit(local));
        }
    } else {
        let mut seen: HashSet<u64> = HashSet::with_capacity(want as usize * 2);
        while (out.len() as u64) < want {
            let local = rng.gen_range(0..capacity);
            if seen.insert(local) {
                out.push(emit(local));
            }
        }
    }
    out
}

/// Decodes a local cell index within `chunk`'s value box into absolute
/// value coordinates at `level`.
fn decode_local(
    grid: &ChunkGrid,
    gb: GroupById,
    chunk: ChunkNumber,
    level: &[u8],
    mut local: u64,
    out: &mut [u32],
) {
    let geom = grid.geom(gb);
    // Row-major over the per-dimension value ranges of the chunk.
    let n = out.len();
    let mut spans = vec![(0u32, 0u32); n];
    let mut widths = vec![0u64; n];
    for d in 0..n {
        let c = geom.coord(chunk, d);
        let (lo, hi) = grid.dim(d).value_range(level[d], c);
        spans[d] = (lo, hi);
        widths[d] = u64::from(hi - lo);
    }
    for d in (0..n).rev() {
        out[d] = spans[d].0 + (local % widths[d]) as u32;
        local /= widths[d];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, Schema};

    fn small_grid() -> Arc<ChunkGrid> {
        let schema = Arc::new(
            Schema::new(vec![
                Dimension::balanced("a", vec![1, 3, 12]).unwrap(),
                Dimension::flat("b", 8).unwrap(),
            ])
            .unwrap(),
        );
        Arc::new(ChunkGrid::build(schema, &[vec![1, 3, 6], vec![1, 2]]).unwrap())
    }

    #[test]
    fn generates_requested_volume() {
        let grid = small_grid();
        let base = grid.schema().lattice().base();
        let ds = Dataset::generate(grid, base, 50, 1.0, 7);
        // Rounding per chunk can drift slightly; stay within 20%.
        assert!(
            ds.num_tuples() >= 40 && ds.num_tuples() <= 60,
            "{}",
            ds.num_tuples()
        );
    }

    #[test]
    fn coordinates_are_in_range() {
        let grid = small_grid();
        let base = grid.schema().lattice().base();
        let ds = Dataset::generate(grid.clone(), base, 60, 0.7, 3);
        let geom = grid.geom(base);
        for c in 0..geom.total_chunks() {
            for (coords, v) in ds.fact.scan_chunk(c) {
                assert!(coords[0] < 12 && coords[1] < 8);
                assert!((1.0..=1000.0).contains(&v));
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let grid = small_grid();
        let base = grid.schema().lattice().base();
        let a = Dataset::generate(grid.clone(), base, 40, 0.7, 11);
        let b = Dataset::generate(grid.clone(), base, 40, 0.7, 11);
        assert_eq!(a.num_tuples(), b.num_tuples());
        let ca: Vec<_> = a.fact.scan_chunk(0).map(|(c, v)| (c.to_vec(), v)).collect();
        let cb: Vec<_> = b.fact.scan_chunk(0).map(|(c, v)| (c.to_vec(), v)).collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn different_seeds_differ() {
        let grid = small_grid();
        let base = grid.schema().lattice().base();
        let a = Dataset::generate(grid.clone(), base, 40, 0.7, 1);
        let b = Dataset::generate(grid.clone(), base, 40, 0.7, 2);
        let ca: Vec<_> = (0..grid.n_chunks(base))
            .flat_map(|c| {
                a.fact
                    .scan_chunk(c)
                    .map(|(x, _)| x.to_vec())
                    .collect::<Vec<_>>()
            })
            .collect();
        let cb: Vec<_> = (0..grid.n_chunks(base))
            .flat_map(|c| {
                b.fact
                    .scan_chunk(c)
                    .map(|(x, _)| x.to_vec())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_ne!(ca, cb);
    }

    #[test]
    fn no_duplicate_cells_within_chunk() {
        let grid = small_grid();
        let base = grid.schema().lattice().base();
        let ds = Dataset::generate(grid.clone(), base, 80, 1.0, 5);
        for c in 0..grid.n_chunks(base) {
            let coords: Vec<Vec<u32>> = ds.fact.scan_chunk(c).map(|(x, _)| x.to_vec()).collect();
            let set: HashSet<Vec<u32>> = coords.iter().cloned().collect();
            assert_eq!(set.len(), coords.len());
        }
    }

    #[test]
    fn fact_at_aggregated_gb() {
        let grid = small_grid();
        let gb = grid.schema().lattice().id_of(&[2, 0]).unwrap();
        let ds = Dataset::generate(grid.clone(), gb, 10, 1.0, 9);
        assert!(ds.num_tuples() >= 8);
        for c in 0..grid.n_chunks(gb) {
            for (coords, _) in ds.fact.scan_chunk(c) {
                assert!(coords[1] == 0, "dim b must be at its single level-0 value");
            }
        }
    }
}
