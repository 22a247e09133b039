use aggcache_chunks::hash::{mix64, PackedSet};
use aggcache_chunks::{Buf, ChunkData, ChunkGrid, Coord, NARROW_MAX};
use aggcache_schema::GroupById;
use aggcache_store::FactTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    /// chunks of `fact_gb`, each chunk straight into its own run.
    ///
    /// `density` in `(0, 1]` controls how evenly chunks fill: 1.0 spreads
    /// tuples uniformly over chunk capacity; lower values draw each chunk's
    /// weight towards a random factor, producing the uneven chunk sizes of
    /// real OLAP data. Tuple values are uniform in `[1, 1000]`.
    ///
    /// A chunk's capacity, and the range its cell indices are drawn from,
    /// is its count of *base-level* cells, while an index decodes to
    /// coordinates at `fact_gb`'s level. Where `fact_gb` aggregates a
    /// dimension, several indices decode to one cell, so a chunk's tuples
    /// have distinct indices but may repeat coordinates (the 1M-tuple
    /// APB-1 dataset holds 134 such repeats), as a real fact table may.
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

        // Scratch reused across chunks: the chunk's value box (start and
        // width per dimension), one decoded tuple, and the two draws' state.
        let mut spans = vec![(0u32, 0u64); n_dims];
        let mut scratch = Scratch {
            cell: vec![0u32; n_dims],
            indices: Vec::new(),
            seen: PackedSet::default(),
        };
        let mut runs = Vec::with_capacity(n_chunks as usize);
        for (c, &capacity) in (0..n_chunks).zip(&capacities) {
            let share = weights[c as usize] / total_weight;
            let want = ((n_tuples as f64 * share).round() as u64).min(capacity);
            for (d, span) in spans.iter_mut().enumerate() {
                let (lo, hi) = grid.dim(d).value_range(geom.level()[d], geom.coord(c, d));
                *span = (lo, u64::from(hi - lo));
            }
            let narrow = spans.iter().all(|&(lo, width)| {
                width == 1 || u64::from(lo) + width <= u64::from(NARROW_MAX) + 1
            });
            let (rng, scratch) = (&mut rng, &mut scratch);
            runs.push(if narrow {
                sample_run::<u16>(rng, &spans, want, capacity, scratch)
            } else {
                sample_run::<u32>(rng, &spans, want, capacity, scratch)
            });
        }

        let fact = FactTable::from_runs(grid.clone(), fact_gb, runs);
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

/// Scratch [`sample_run`] reuses across chunks: one decoded tuple, and the
/// two draws' state.
struct Scratch {
    cell: Vec<u32>,
    indices: Vec<u64>,
    seen: PackedSet,
}

/// One chunk's run: `want` of the `capacity` cell indices of the value box
/// `spans` (start and width per dimension), written straight at their
/// widths — coordinates at `C`, which the caller has checked holds the
/// box, and values at `u16`, which holds every value in `[1, 1000]`. A
/// dimension the box is one value wide along is held once.
fn sample_run<C: Coord>(
    rng: &mut StdRng,
    spans: &[(u32, u64)],
    want: u64,
    capacity: u64,
    scratch: &mut Scratch,
) -> ChunkData
where
    Buf<u32>: From<Vec<C>>,
{
    let Scratch {
        cell,
        indices,
        seen,
    } = scratch;
    let stored: Vec<&(u32, u64)> = spans.iter().filter(|&&(_, width)| width > 1).collect();
    let cell = &mut cell[..stored.len()];
    let mut coords: Vec<C> = Vec::with_capacity(want as usize * stored.len());
    let mut values: Vec<u16> = Vec::with_capacity(want as usize);
    // Row-major over the box: the last dimension varies fastest. A
    // dimension one value wide adds nothing to an index.
    let mut push = |index: u64| {
        let mut rest = index;
        for (x, &&(lo, width)) in cell.iter_mut().zip(&stored).rev() {
            *x = lo + (rest % width) as u32;
            rest /= width;
        }
        coords.extend(cell.iter().map(|&x| C::from_u32(x)));
        values.push(rng_value(index));
    };
    if want * 2 >= capacity {
        // Asked for at least half its cells: the first `want` of a
        // partial Fisher-Yates shuffle of every index.
        indices.clear();
        indices.extend(0..capacity);
        for i in 0..want {
            let j = rng.gen_range(i..capacity);
            indices.swap(i as usize, j as usize);
        }
        for &index in &indices[..want as usize] {
            push(index);
        }
    } else {
        // Otherwise draw indices, rejecting repeats.
        seen.clear();
        let mut drawn = 0;
        while drawn < want {
            let index = rng.gen_range(0..capacity);
            if seen.insert(index) {
                push(index);
                drawn += 1;
            }
        }
    }
    let constants: Vec<Option<u32>> = spans
        .iter()
        .map(|&(lo, width)| (width == 1).then_some(lo))
        .collect();
    ChunkData::from_stored(&constants, coords, values)
}

/// Deterministic per-cell value in `[1, 1000]` derived from the local cell
/// index (keeps generation order-independent).
fn rng_value(local: u64) -> u16 {
    (mix64(local) % 1000) as u16 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_chunks::{Coords, Values};
    use aggcache_schema::{Dimension, Schema};
    use std::collections::HashSet;

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
                assert!(coords.get(0) < 12 && coords.get(1) < 8);
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

    /// Each run is written at its narrowest widths: `u16` values, and
    /// `u16` coordinates unless its chunk's box reaches past them along a
    /// dimension it is more than one value wide along. It stores no column
    /// its box holds at one value: that one is held once, at the box's.
    #[test]
    fn runs_are_written_at_their_widths() {
        let schema = Arc::new(
            Schema::new(vec![
                Dimension::balanced("a", vec![1, 70_000]).unwrap(),
                Dimension::flat("b", 2).unwrap(),
            ])
            .unwrap(),
        );
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 4], vec![1, 2]]).unwrap());
        let base = grid.schema().lattice().base();
        let ds = Dataset::generate(grid.clone(), base, 400, 1.0, 5);
        for c in 0..grid.n_chunks(base) {
            let run = ds.fact.chunk(c);
            let cell_box = grid.cell_box(base, c);
            let past_u16 = cell_box[0].1 > NARROW_MAX + 1;
            assert!(!run.is_empty());
            assert_eq!(
                matches!(run.stored_coords(), Coords::Wide(_)),
                past_u16,
                "chunk {c}"
            );
            assert!(matches!(run.raw_values(), Values::U16(_)), "chunk {c}");
            assert_eq!(
                run.columns()[1].constant(),
                Some(cell_box[1].0),
                "chunk {c}"
            );
            for (&(lo, hi), col) in cell_box.iter().zip(run.columns()) {
                let one_value = (hi - lo == 1).then_some(lo);
                assert_eq!(col.constant(), one_value, "chunk {c}");
            }
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
                assert!(
                    coords.get(1) == 0,
                    "dim b must be at its single level-0 value"
                );
            }
        }
    }
}
