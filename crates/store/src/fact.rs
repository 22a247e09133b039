use crate::delta::{delete_multiset, DeltaBatch, DeltaOp, EffectiveDelta};
use aggcache_chunks::{ChunkData, ChunkError, ChunkGrid, ChunkNumber};
use aggcache_schema::GroupById;
use std::ops::Range;
use std::sync::Arc;

/// The base fact table with the paper's *chunked file organization*:
/// tuples sorted (clustered) by chunk number, with an offset index mapping
/// each chunk to its tuple run — the in-memory analogue of "building a
/// clustered index on the chunk number for the fact file" (§7).
///
/// The table lives at a fixed group-by — for APB-1, HistSale lives at
/// `(6, 2, 3, 1, 0)`: detailed in Product/Customer/Time/Channel, fully
/// aggregated in Scenario.
#[derive(Debug, Clone)]
pub struct FactTable {
    grid: Arc<ChunkGrid>,
    gb: GroupById,
    data: ChunkData,
    /// `offsets[c] .. offsets[c + 1]` is the tuple range of chunk `c`.
    offsets: Vec<u64>,
}

impl FactTable {
    /// Loads raw fact tuples (value coordinates at `gb`'s level) and
    /// clusters them by chunk number. Duplicate coordinates are kept as
    /// separate tuples, as in a real fact table.
    pub fn load(grid: Arc<ChunkGrid>, gb: GroupById, cells: ChunkData) -> Self {
        let geom = grid.geom(gb);
        let level = geom.level().to_vec();
        let n_dims = grid.num_dims();
        let n_chunks = geom.total_chunks();

        // Chunk number per tuple via the per-dimension value→chunk tables.
        let tables: Vec<&[u32]> = (0..n_dims)
            .map(|d| grid.dim(d).chunk_of_table(level[d]))
            .collect();
        let mut chunk_nums: Vec<u64> = Vec::with_capacity(cells.len());
        let mut chunk_coords = vec![0u32; n_dims];
        for i in 0..cells.len() {
            let c = cells.coords_of(i);
            for d in 0..n_dims {
                chunk_coords[d] = tables[d][c[d] as usize];
            }
            chunk_nums.push(geom.linearize(&chunk_coords));
        }

        // Counting sort by chunk number (stable, O(n + chunks)).
        let mut counts = vec![0u64; n_chunks as usize + 1];
        for &cn in &chunk_nums {
            counts[cn as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut sorted = ChunkData::with_capacity(n_dims, cells.len());
        // Build a permutation rather than moving cells twice.
        let mut order = vec![0u64; cells.len()];
        let mut cursor = counts;
        for (i, &cn) in chunk_nums.iter().enumerate() {
            order[cursor[cn as usize] as usize] = i as u64;
            cursor[cn as usize] += 1;
        }
        for &i in &order {
            sorted.push(cells.coords_of(i as usize), cells.value_of(i as usize));
        }

        Self {
            grid,
            gb,
            data: sorted,
            offsets,
        }
    }

    /// The group-by the fact data lives at.
    #[inline]
    pub fn gb(&self) -> GroupById {
        self.gb
    }

    /// The grid this table is chunked under.
    #[inline]
    pub fn grid(&self) -> &Arc<ChunkGrid> {
        &self.grid
    }

    /// Total number of tuples.
    #[inline]
    pub fn num_tuples(&self) -> u64 {
        self.data.len() as u64
    }

    /// Number of tuples in `chunk`.
    #[inline]
    pub fn tuples_in(&self, chunk: ChunkNumber) -> u64 {
        self.offsets[chunk as usize + 1] - self.offsets[chunk as usize]
    }

    /// The tuple run of `chunk` as a cell range of the clustered fact
    /// file — what the aggregation kernel scans
    /// ([`Aggregator::add_chunk_range`](crate::Aggregator::add_chunk_range)).
    #[inline]
    pub fn chunk_cells(&self, chunk: ChunkNumber) -> (&ChunkData, Range<usize>) {
        let lo = self.offsets[chunk as usize] as usize;
        let hi = self.offsets[chunk as usize + 1] as usize;
        (&self.data, lo..hi)
    }

    /// Iterates the `(coords, value)` tuples of `chunk`.
    pub fn scan_chunk(&self, chunk: ChunkNumber) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        let (data, range) = self.chunk_cells(chunk);
        range.map(move |i| (data.coords_of(i), data.value_of(i)))
    }

    /// Applies a batch of inserts and deletes, re-clustering the fact file,
    /// and reports the [`EffectiveDelta`] that actually landed.
    ///
    /// The batch is validated first ([`DeltaBatch::validate`]); on error
    /// the table is untouched. Deletes match on coordinates plus exact
    /// value bits and remove **one** tuple instance each; deletes that
    /// match nothing are counted in
    /// [`unmatched_deletes`](EffectiveDelta::unmatched_deletes) and
    /// otherwise ignored. Re-clustering reuses the counting-sort build of
    /// [`FactTable::load`], so the updated table is bit-identical to one
    /// loaded fresh from the post-update tuple set.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<EffectiveDelta, ChunkError> {
        batch.validate(&self.grid, self.gb)?;
        let n_dims = self.grid.num_dims();

        // Remove one resident instance per delete, matched on coords +
        // value bits. Scanning the clustered file keeps the order (and so
        // the rebuilt table) deterministic.
        let mut pending = delete_multiset(batch);
        let mut kept = ChunkData::with_capacity(n_dims, self.data.len());
        let mut deleted = ChunkData::new(n_dims);
        if pending.is_empty() {
            kept.append(&self.data);
        } else {
            let mut probe = (Vec::with_capacity(n_dims), 0u64);
            for i in 0..self.data.len() {
                let coords = self.data.coords_of(i);
                let value = self.data.value_of(i);
                probe.0.clear();
                probe.0.extend_from_slice(coords);
                probe.1 = value.to_bits();
                match pending.get_mut(&probe) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        deleted.push(coords, value);
                    }
                    _ => kept.push(coords, value),
                }
            }
        }
        let unmatched_deletes: u64 = pending.values().sum();

        let mut inserted = ChunkData::new(n_dims);
        for rec in batch.records() {
            if rec.op == DeltaOp::Insert {
                inserted.push(&rec.coords, rec.value);
            }
        }

        // Base chunks touched by the effective changes.
        let geom = self.grid.geom(self.gb);
        let level = geom.level().to_vec();
        let tables: Vec<&[u32]> = (0..n_dims)
            .map(|d| self.grid.dim(d).chunk_of_table(level[d]))
            .collect();
        let mut chunk_coords = vec![0u32; n_dims];
        let mut base_chunks: Vec<ChunkNumber> = inserted
            .iter()
            .chain(deleted.iter())
            .map(|(c, _)| {
                for d in 0..n_dims {
                    chunk_coords[d] = tables[d][c[d] as usize];
                }
                geom.linearize(&chunk_coords)
            })
            .collect();
        base_chunks.sort_unstable();
        base_chunks.dedup();

        if !(inserted.is_empty() && deleted.is_empty()) {
            kept.append(&inserted);
            *self = FactTable::load(self.grid.clone(), self.gb, kept);
        }
        Ok(EffectiveDelta {
            inserted,
            deleted,
            unmatched_deletes,
            base_chunks,
        })
    }

    /// All chunk numbers that contain at least one tuple.
    pub fn non_empty_chunks(&self) -> Vec<ChunkNumber> {
        (0..self.offsets.len() - 1)
            .filter(|&c| self.offsets[c + 1] > self.offsets[c])
            .map(|c| c as ChunkNumber)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, Schema};

    fn grid() -> Arc<ChunkGrid> {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("a", vec![1, 2, 8]).unwrap(),
                    Dimension::flat("b", 4).unwrap(),
                ],
                "m",
            )
            .unwrap(),
        );
        Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 4], vec![1, 2]]).unwrap())
    }

    fn table() -> FactTable {
        let grid = grid();
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(2);
        // Insert in scrambled order; value encodes the coords.
        for a in (0..8u32).rev() {
            for b in 0..4u32 {
                cells.push(&[a, b], f64::from(a * 100 + b));
            }
        }
        FactTable::load(grid, base, cells)
    }

    #[test]
    fn clusters_by_chunk() {
        let t = table();
        assert_eq!(t.num_tuples(), 32);
        let geom = t.grid().geom(t.gb());
        // Every chunk's tuples map back to that chunk.
        for c in 0..geom.total_chunks() {
            for (coords, _) in t.scan_chunk(c) {
                let a_chunk = t.grid().dim(0).chunk_of_value(2, coords[0]);
                let b_chunk = t.grid().dim(1).chunk_of_value(1, coords[1]);
                assert_eq!(geom.linearize(&[a_chunk, b_chunk]), c);
            }
        }
        let total: u64 = (0..geom.total_chunks()).map(|c| t.tuples_in(c)).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn chunk_cells_tile_the_fact_file_in_chunk_order() {
        let t = table();
        let mut next = 0usize;
        for c in 0..t.grid().n_chunks(t.gb()) {
            let (_, range) = t.chunk_cells(c);
            assert_eq!(range.start, next, "gap or overlap before chunk {c}");
            assert_eq!(range.len() as u64, t.tuples_in(c));
            next = range.end;
        }
        assert_eq!(next as u64, t.num_tuples());
    }

    #[test]
    fn keeps_duplicate_tuples() {
        let grid = grid();
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(2);
        cells.push(&[0, 0], 1.0);
        cells.push(&[0, 0], 2.0);
        let t = FactTable::load(grid, base, cells);
        assert_eq!(t.num_tuples(), 2);
        assert_eq!(t.tuples_in(0), 2);
    }

    #[test]
    fn non_empty_chunks_lists_filled_only() {
        let grid = grid();
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(2);
        cells.push(&[7, 3], 1.0); // last chunk only
        let t = FactTable::load(grid, base, cells);
        let geom = t.grid().geom(t.gb());
        assert_eq!(t.non_empty_chunks(), vec![geom.total_chunks() - 1]);
    }

    #[test]
    fn apply_delta_inserts_and_reclusters() {
        let mut t = table();
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 7.0).insert(&[7, 3], 9.0);
        let eff = t.apply_delta(&batch).unwrap();
        assert_eq!(t.num_tuples(), 34);
        assert_eq!(eff.inserted.len(), 2);
        assert!(eff.deleted.is_empty());
        assert_eq!(eff.unmatched_deletes, 0);
        let geom = t.grid().geom(t.gb());
        let last = geom.total_chunks() - 1;
        assert_eq!(eff.base_chunks, vec![0, last]);
        // Rebuilt table is bit-identical to a fresh load of the same set.
        let mut cells = ChunkData::new(2);
        for a in (0..8u32).rev() {
            for b in 0..4u32 {
                cells.push(&[a, b], f64::from(a * 100 + b));
            }
        }
        cells.push(&[0, 0], 7.0);
        cells.push(&[7, 3], 9.0);
        let fresh = FactTable::load(t.grid().clone(), t.gb(), cells);
        assert_eq!(t.data, fresh.data);
        assert_eq!(t.offsets, fresh.offsets);
    }

    #[test]
    fn apply_delta_deletes_one_instance_on_exact_match() {
        let grid = grid();
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(2);
        cells.push(&[0, 0], 1.0);
        cells.push(&[0, 0], 1.0);
        cells.push(&[0, 0], 2.0);
        let mut t = FactTable::load(grid, base, cells);
        let mut batch = DeltaBatch::new();
        // One matched delete, one value-mismatch, one coord-mismatch.
        batch
            .delete(&[0, 0], 1.0)
            .delete(&[0, 0], 3.0)
            .delete(&[5, 1], 1.0);
        let eff = t.apply_delta(&batch).unwrap();
        assert_eq!(t.num_tuples(), 2);
        assert_eq!(eff.deleted.len(), 1);
        assert_eq!(eff.unmatched_deletes, 2);
        assert_eq!(eff.base_chunks, vec![0]);
        // The duplicate's second instance survives.
        assert_eq!(t.tuples_in(0), 2);
    }

    #[test]
    fn apply_delta_validates_before_mutating() {
        let mut t = table();
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 7.0).insert(&[8, 0], 1.0);
        assert!(matches!(
            t.apply_delta(&batch).unwrap_err(),
            ChunkError::CellOutOfRange {
                record: 1,
                dim: 0,
                ..
            }
        ));
        // Nothing landed, not even the valid first record.
        assert_eq!(t.num_tuples(), 32);
    }

    #[test]
    fn apply_delta_empty_batch_is_noop() {
        let mut t = table();
        let before = t.data.clone();
        let eff = t.apply_delta(&DeltaBatch::new()).unwrap();
        assert!(eff.is_empty());
        assert_eq!(eff.num_tuples(), 0);
        assert_eq!(t.data, before);
    }

    #[test]
    fn fact_table_at_non_base_level() {
        // Data can live above the lattice bottom (the HistSale situation).
        let grid = grid();
        let gb = grid.schema().lattice().id_of(&[2, 0]).unwrap();
        let mut cells = ChunkData::new(2);
        for a in 0..8u32 {
            cells.push(&[a, 0], 1.0);
        }
        let t = FactTable::load(grid.clone(), gb, cells);
        assert_eq!(t.num_tuples(), 8);
        assert_eq!(grid.n_chunks(gb), 4);
        assert_eq!(t.tuples_in(0), 2);
    }
}
