use crate::delta::{delete_multiset, DeltaBatch, DeltaOp, DeltaRecord, EffectiveDelta};
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

    /// Applies a batch of inserts and deletes by editing the clustered
    /// fact file in place through its chunk index, and reports the
    /// [`EffectiveDelta`] that actually landed.
    ///
    /// The batch is validated first ([`DeltaBatch::validate`]); on error
    /// the table is untouched. Deletes match on coordinates plus exact
    /// value bits against the **pre-batch** file — a delete naming a tuple
    /// the same batch inserts is unmatched — and a multiset count of *n*
    /// removes the first *n* instances in file order. Deletes that match
    /// nothing are counted in
    /// [`unmatched_deletes`](EffectiveDelta::unmatched_deletes) and
    /// otherwise ignored; a batch whose effective delta is empty leaves
    /// the file and its index untouched.
    ///
    /// A tuple's chunk is a function of its coordinates, so only the runs
    /// of the chunks the batch names are scanned. A changed chunk's new run
    /// is its survivors in order followed by its inserts in batch order —
    /// what the stable counting sort of [`FactTable::load`] yields — so the
    /// updated table is bit-identical to one loaded fresh from the
    /// post-update tuple set. The cost is the touched runs plus one move of
    /// each span of the file between two changed runs; no second copy of
    /// the file is made, and a batch that does not grow it never
    /// reallocates.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<EffectiveDelta, ChunkError> {
        batch.validate(&self.grid, self.gb)?;
        let n_dims = self.grid.num_dims();

        // Each record's base chunk, through the tables `load` clusters by.
        // The stable sort keeps batch order within a chunk.
        let geom = self.grid.geom(self.gb);
        let level = geom.level();
        let tables: Vec<&[u32]> = (0..n_dims)
            .map(|d| self.grid.dim(d).chunk_of_table(level[d]))
            .collect();
        let mut chunk_coords = vec![0u32; n_dims];
        let mut by_chunk: Vec<(ChunkNumber, &DeltaRecord)> = batch
            .records()
            .iter()
            .map(|rec| {
                for d in 0..n_dims {
                    chunk_coords[d] = tables[d][rec.coords[d] as usize];
                }
                (geom.linearize(&chunk_coords), rec)
            })
            .collect();
        by_chunk.sort_by_key(|&(chunk, _)| chunk);

        // Ascending chunk × in-run order is file-scan order, which
        // `deleted` (and the float sums patched from it) depends on.
        let mut pending = delete_multiset(batch);
        let mut probe = (Vec::with_capacity(n_dims), 0u64);
        let mut deleted = ChunkData::new(n_dims);
        let mut edits: Vec<RunEdit> = Vec::new();
        for group in by_chunk.chunk_by(|a, b| a.0 == b.0) {
            let chunk = group[0].0;
            let has_delete = group.iter().any(|(_, rec)| rec.op == DeltaOp::Delete);
            let (_, old) = self.chunk_cells(chunk);
            let mut new = ChunkData::with_capacity(n_dims, old.len() + group.len());
            for (coords, value) in self.scan_chunk(chunk) {
                let goes = has_delete && {
                    probe.0.clear();
                    probe.0.extend_from_slice(coords);
                    probe.1 = value.to_bits();
                    let due = pending.get_mut(&probe).filter(|n| **n > 0);
                    due.map(|n| *n -= 1).is_some()
                };
                if goes {
                    deleted.push(coords, value);
                } else {
                    new.push(coords, value);
                }
            }
            let survivors = new.len();
            for (_, rec) in group {
                if rec.op == DeltaOp::Insert {
                    new.push(&rec.coords, rec.value);
                }
            }
            // A run changed if it lost a tuple or gained one.
            if survivors < old.len() || survivors < new.len() {
                edits.push(RunEdit { chunk, old, new });
            }
        }
        let unmatched_deletes: u64 = pending.values().sum();

        let mut inserted = ChunkData::new(n_dims);
        for rec in batch.records() {
            if rec.op == DeltaOp::Insert {
                inserted.push(&rec.coords, rec.value);
            }
        }

        if !edits.is_empty() {
            // `shift[j]`: how far the span after `edits[j]` moves, in tuples.
            let mut total = 0isize;
            let shift: Vec<isize> = edits
                .iter()
                .map(|e| {
                    total += e.new.len() as isize - e.old.len() as isize;
                    total
                })
                .collect();
            let (mut coords, mut values) = std::mem::take(&mut self.data).into_raw();
            splice(&mut coords, n_dims, &edits, &shift, |e| e.new.raw_coords());
            splice(&mut values, 1, &edits, &shift, |e| e.new.raw_values());
            self.data = ChunkData::from_raw(n_dims, coords, values);
            for (j, e) in edits.iter().enumerate() {
                let until = edits
                    .get(j + 1)
                    .map_or(self.offsets.len() - 1, |e| e.chunk as usize);
                for offset in &mut self.offsets[e.chunk as usize + 1..=until] {
                    *offset = offset.wrapping_add_signed(shift[j] as i64);
                }
            }
        }
        Ok(EffectiveDelta {
            inserted,
            deleted,
            unmatched_deletes,
            base_chunks: edits.iter().map(|e| e.chunk).collect(),
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

/// One chunk's run as [`FactTable::apply_delta`] rewrites it: where the
/// run sat in the pre-batch file, and the run that replaces it.
struct RunEdit {
    chunk: ChunkNumber,
    old: Range<usize>,
    new: ChunkData,
}

/// Replaces each edit's old run in `buf` (`width` slots per tuple) with its
/// new one, moving every span of the file between two edited runs once.
/// `shift[j]` is how far the span after `edits[j]` moves, in tuples.
///
/// Left-shifting spans move first, in ascending order, then right-shifting
/// spans in descending order: a span's destination lies between those of
/// its neighbours, so a left-shifting span can only overlap sources to its
/// left, which have already moved, and a right-shifting one only sources to
/// its right. The new runs land last, from their side buffers.
fn splice<T: Copy + Default>(
    buf: &mut Vec<T>,
    width: usize,
    edits: &[RunEdit],
    shift: &[isize],
    new_run: impl Fn(&RunEdit) -> &[T],
) {
    let old_len = buf.len() / width;
    let new_len = old_len.wrapping_add_signed(shift[shift.len() - 1]);
    if new_len > old_len {
        buf.resize(new_len * width, T::default());
    }
    let mut move_span = |(j, &by): (usize, &isize)| {
        let start = edits[j].old.end;
        let end = edits.get(j + 1).map_or(old_len, |e| e.old.start);
        let dest = start.wrapping_add_signed(by);
        buf.copy_within(start * width..end * width, dest * width);
    };
    let spans = || shift.iter().enumerate();
    spans().filter(|(_, &by)| by < 0).for_each(&mut move_span);
    spans()
        .rev()
        .filter(|(_, &by)| by > 0)
        .for_each(&mut move_span);
    let mut before = 0;
    for (e, &after) in edits.iter().zip(shift) {
        let dest = e.old.start.wrapping_add_signed(before) * width;
        let run = new_run(e);
        buf[dest..dest + run.len()].copy_from_slice(run);
        before = after;
    }
    buf.truncate(new_len * width);
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, Schema};
    use proptest::prelude::*;

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
        assert_chunk_cells_tile(&table());
    }

    fn assert_chunk_cells_tile(t: &FactTable) {
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

    #[test]
    fn apply_delta_edits_the_file_in_place() {
        let mut t = table();
        let buffers = |t: &FactTable| (t.data.raw_coords().as_ptr(), t.data.raw_values().as_ptr());
        let before = buffers(&t);
        // Delete-only, in the first, a middle and the last chunk: the file
        // shrinks inside the buffers it already has.
        let mut batch = DeltaBatch::new();
        batch
            .delete(&[0, 0], 0.0)
            .delete(&[3, 2], 302.0)
            .delete(&[7, 3], 703.0);
        let eff = t.apply_delta(&batch).unwrap();
        assert_eq!(eff.deleted.len(), 3);
        assert_eq!(t.num_tuples(), 29);
        assert_eq!(buffers(&t), before, "a delete-only batch never reallocates");
        assert_chunk_cells_tile(&t);

        // Every delete unmatched: nothing is written at all.
        let (data, offsets) = (t.data.clone(), t.offsets.clone());
        let offsets_at = t.offsets.as_ptr();
        let mut batch = DeltaBatch::new();
        batch.delete(&[0, 0], 0.0).delete(&[1, 1], 12345.0);
        let eff = t.apply_delta(&batch).unwrap();
        assert!(eff.is_empty());
        assert_eq!(eff.unmatched_deletes, 2);
        assert_eq!((&t.data, &t.offsets), (&data, &offsets));
        assert_eq!(buffers(&t), before);
        assert_eq!(t.offsets.as_ptr(), offsets_at);
    }

    /// A fact tuple of the property test's model.
    type Tuple = ([u32; 2], f64);

    /// One generated step, resolved against the model when its batch is
    /// built (`pick` wraps around the live tuples).
    #[derive(Debug, Clone)]
    enum Op {
        Insert(Tuple),
        /// Delete `times` instances of a live tuple: more than it has
        /// duplicates leaves the rest unmatched.
        DeleteLive {
            pick: usize,
            times: usize,
        },
        /// A live tuple's coordinates, its value one ulp off.
        DeleteUlpOff {
            pick: usize,
        },
        /// Coordinates that may or may not hold tuples, a value none has.
        DeleteAbsent([u32; 2]),
        /// A tuple the same batch inserts: unmatched, deletes see the
        /// pre-batch file.
        DeleteOwnInsert {
            coords: [u32; 2],
            delete_first: bool,
        },
        /// Every live tuple of one chunk.
        EmptyChunk(ChunkNumber),
    }

    fn arb_tuple() -> impl Strategy<Value = Tuple> {
        // Three measures over 32 cells: duplicates are common.
        (0u32..8, 0u32..4, 0u32..3).prop_map(|(a, b, v)| ([a, b], f64::from(v)))
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_tuple().prop_map(Op::Insert),
            arb_tuple().prop_map(Op::Insert),
            (0usize..64, 1usize..=3).prop_map(|(pick, times)| Op::DeleteLive { pick, times }),
            (0usize..64).prop_map(|pick| Op::DeleteUlpOff { pick }),
            arb_tuple().prop_map(|(coords, _)| Op::DeleteAbsent(coords)),
            (arb_tuple(), proptest::bool::ANY).prop_map(|((coords, _), delete_first)| {
                Op::DeleteOwnInsert {
                    coords,
                    delete_first,
                }
            }),
            (0u64..8).prop_map(Op::EmptyChunk),
        ]
    }

    /// The chunk of `coords`, from the grid's per-value lookups rather
    /// than the tables `load` and `apply_delta` share.
    fn chunk_of(grid: &ChunkGrid, gb: GroupById, coords: &[u32]) -> ChunkNumber {
        let a_chunk = grid.dim(0).chunk_of_value(2, coords[0]);
        let b_chunk = grid.dim(1).chunk_of_value(1, coords[1]);
        grid.geom(gb).linearize(&[a_chunk, b_chunk])
    }

    fn batch_of(grid: &ChunkGrid, gb: GroupById, model: &[Tuple], ops: &[Op]) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        let live = |pick: usize| (!model.is_empty()).then(|| model[pick % model.len()]);
        for op in ops {
            match *op {
                Op::Insert((coords, value)) => {
                    batch.insert(&coords, value);
                }
                Op::DeleteLive { pick, times } => {
                    for (coords, value) in live(pick).into_iter().cycle().take(times) {
                        batch.delete(&coords, value);
                    }
                }
                Op::DeleteUlpOff { pick } => {
                    if let Some((coords, value)) = live(pick) {
                        batch.delete(&coords, f64::from_bits(value.to_bits() + 1));
                    }
                }
                Op::DeleteAbsent(coords) => {
                    batch.delete(&coords, 99.0);
                }
                Op::DeleteOwnInsert {
                    coords,
                    delete_first,
                } => {
                    if delete_first {
                        batch.delete(&coords, 77.0).insert(&coords, 77.0);
                    } else {
                        batch.insert(&coords, 77.0).delete(&coords, 77.0);
                    }
                }
                Op::EmptyChunk(chunk) => {
                    for (coords, value) in model {
                        if chunk_of(grid, gb, coords) == chunk {
                            batch.delete(coords, *value);
                        }
                    }
                }
            }
        }
        batch
    }

    fn cells_of<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> ChunkData {
        let mut cells = ChunkData::new(2);
        for (coords, value) in tuples {
            cells.push(coords, *value);
        }
        cells
    }

    fn assert_same_bits(got: &ChunkData, want: &ChunkData, what: &str) {
        assert_eq!(got.raw_coords(), want.raw_coords(), "{what}: coords");
        let bits = |d: &ChunkData| {
            d.raw_values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(got), bits(want), "{what}: value bits");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `apply_delta` against a straight-line reference that shares no
        /// code with it: scan the model in file order against the delete
        /// list, then `FactTable::load` the survivors and the inserts.
        #[test]
        fn apply_delta_matches_a_reload_of_the_model(
            initial in proptest::collection::vec(arb_tuple(), 0..24),
            batches in proptest::collection::vec(proptest::collection::vec(arb_op(), 0..=4), 4),
        ) {
            let grid = grid();
            let gb = grid.schema().lattice().base();
            let mut model = initial;
            let mut t = FactTable::load(grid.clone(), gb, cells_of(&model));
            for ops in &batches {
                let batch = batch_of(&grid, gb, &model, ops);
                let eff = t.apply_delta(&batch).unwrap();

                // File order is the stable chunk order of the model.
                let mut file = model.clone();
                file.sort_by_key(|(coords, _)| chunk_of(&grid, gb, coords));
                let mut pending: Vec<Tuple> = Vec::new();
                let mut inserts: Vec<Tuple> = Vec::new();
                for rec in batch.records() {
                    let tuple = ([rec.coords[0], rec.coords[1]], rec.value);
                    match rec.op {
                        DeltaOp::Delete => pending.push(tuple),
                        DeltaOp::Insert => inserts.push(tuple),
                    }
                }
                let mut deleted: Vec<Tuple> = Vec::new();
                model.clear();
                for tuple in file {
                    let due = |d: &Tuple| d.0 == tuple.0 && d.1.to_bits() == tuple.1.to_bits();
                    match pending.iter().position(due) {
                        Some(k) => {
                            pending.remove(k);
                            deleted.push(tuple);
                        }
                        None => model.push(tuple),
                    }
                }
                model.extend(&inserts);
                let mut base_chunks: Vec<ChunkNumber> = deleted
                    .iter()
                    .chain(&inserts)
                    .map(|(coords, _)| chunk_of(&grid, gb, coords))
                    .collect();
                base_chunks.sort_unstable();
                base_chunks.dedup();

                let fresh = FactTable::load(grid.clone(), gb, cells_of(&model));
                assert_same_bits(&t.data, &fresh.data, "fact file");
                prop_assert_eq!(&t.offsets, &fresh.offsets);
                assert_chunk_cells_tile(&t);
                assert_same_bits(&eff.inserted, &cells_of(&inserts), "inserted");
                assert_same_bits(&eff.deleted, &cells_of(&deleted), "deleted");
                prop_assert_eq!(eff.unmatched_deletes, pending.len() as u64);
                prop_assert_eq!(&eff.base_chunks, &base_chunks);
            }
        }
    }
}
