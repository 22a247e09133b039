use crate::delta::{delete_multiset, DeltaBatch, DeltaOp, DeltaRecord, EffectiveDelta};
use aggcache_chunks::{CellCoords, ChunkData, ChunkError, ChunkGrid, ChunkNumber};
use aggcache_schema::GroupById;
use std::fmt;
use std::sync::Arc;

/// The base fact table with the paper's *chunked file organization*: the
/// tuples of each chunk of its group-by held together as one run, in load
/// order — what "building a clustered index on the chunk number for the
/// fact file" (§7) gives a reader, with the chunk number as the only
/// address.
///
/// The table lives at a fixed group-by — for APB-1, HistSale lives at
/// `(6, 2, 3, 1, 0)`: detailed in Product/Customer/Time/Channel, fully
/// aggregated in Scenario.
///
/// Runs are immutable and shared: `clone` copies one pointer per chunk,
/// so every backend built from one table reads the same tuples. A clone
/// is a snapshot — [`apply_delta`](Self::apply_delta) replaces the runs
/// it rewrites and never writes into a shared one.
#[derive(Clone)]
pub struct FactTable {
    grid: Arc<ChunkGrid>,
    gb: GroupById,
    /// `runs[c]` holds the tuples of chunk `c`, at exact capacity.
    runs: Vec<Arc<ChunkData>>,
    num_tuples: u64,
}

/// A summary: the tuples themselves are a million lines at paper scale.
impl fmt::Debug for FactTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FactTable")
            .field("gb", &self.gb)
            .field("chunks", &self.runs.len())
            .field("tuples", &self.num_tuples)
            .finish_non_exhaustive()
    }
}

impl FactTable {
    /// Loads raw fact tuples (value coordinates at `gb`'s level) and
    /// clusters them by chunk number, keeping load order within a chunk.
    /// Duplicate coordinates are kept as separate tuples, as in a real
    /// fact table.
    pub fn load(grid: Arc<ChunkGrid>, gb: GroupById, cells: ChunkData) -> Self {
        let level = grid.geom(gb).level();
        let chunk_nums = grid.chunk_numbers(level, gb, &cells);

        // A size pass, then one push per tuple into its chunk's run.
        let mut sizes = vec![0usize; grid.n_chunks(gb) as usize];
        for &cn in &chunk_nums {
            sizes[cn as usize] += 1;
        }
        let mut runs: Vec<ChunkData> = sizes
            .iter()
            .map(|&n| ChunkData::with_capacity(cells.n_dims(), n))
            .collect();
        for (&cn, (coords, value)) in chunk_nums.iter().zip(cells.iter()) {
            runs[cn as usize].push(coords, value);
        }
        Self::from_runs(grid, gb, runs)
    }

    /// Takes tuples that arrive already clustered: `runs[c]` is the run of
    /// chunk `c` of `gb`, in the order it is to be scanned, at the capacity
    /// it keeps. Panics unless there is exactly one run per chunk; a debug
    /// build also checks that every tuple lies in its run's chunk.
    pub fn from_runs(grid: Arc<ChunkGrid>, gb: GroupById, runs: Vec<ChunkData>) -> Self {
        assert_eq!(
            runs.len() as u64,
            grid.n_chunks(gb),
            "one run per chunk of the group-by"
        );
        debug_assert!(
            runs.iter().enumerate().all(|(c, run)| {
                grid.chunk_numbers(grid.geom(gb).level(), gb, run)
                    .iter()
                    .all(|&cn| cn == c as ChunkNumber)
            }),
            "a tuple lies outside its run's chunk"
        );
        Self {
            grid,
            gb,
            num_tuples: runs.iter().map(|run| run.len() as u64).sum(),
            runs: runs.into_iter().map(Arc::new).collect(),
        }
    }

    /// The group-by the fact data lives at.
    #[inline]
    pub fn gb(&self) -> GroupById {
        self.gb
    }

    /// The grid this table is chunked under.
    #[inline]
    pub(crate) fn grid(&self) -> &Arc<ChunkGrid> {
        &self.grid
    }

    /// Total number of tuples.
    #[inline]
    pub fn num_tuples(&self) -> u64 {
        self.num_tuples
    }

    /// Number of tuples in `chunk`.
    #[inline]
    pub fn tuples_in(&self, chunk: ChunkNumber) -> u64 {
        self.runs[chunk as usize].len() as u64
    }

    /// The tuples of `chunk`, in load order — what the aggregation kernel
    /// scans ([`ChunkAggregator::add_source_chunk`](crate::ChunkAggregator::add_source_chunk)).
    #[inline]
    pub fn chunk(&self, chunk: ChunkNumber) -> &ChunkData {
        &self.runs[chunk as usize]
    }

    /// Iterates the `(coords, value)` tuples of `chunk`.
    pub fn scan_chunk(
        &self,
        chunk: ChunkNumber,
    ) -> impl Iterator<Item = (CellCoords<'_>, f64)> + '_ {
        self.chunk(chunk).iter()
    }

    /// Applies a batch of inserts and deletes by rebuilding the runs of the
    /// chunks it names, and reports the [`EffectiveDelta`] that actually
    /// landed.
    ///
    /// The batch is validated first ([`DeltaBatch::validate`]); on error
    /// the table is untouched. Deletes match on coordinates plus exact
    /// value bits against the **pre-batch** table — a delete naming a tuple
    /// the same batch inserts is unmatched — and a multiset count of *n*
    /// removes the first *n* instances in scan order (ascending chunk, run
    /// order within it). Deletes that match nothing are counted in
    /// [`unmatched_deletes`](EffectiveDelta::unmatched_deletes) and
    /// otherwise ignored; a run that neither loses nor gains a tuple is
    /// not written.
    ///
    /// A tuple's chunk is a function of its coordinates, so only the runs
    /// of the chunks the batch names are scanned. A changed chunk's new run
    /// is its survivors in order followed by its inserts in batch order —
    /// what [`FactTable::load`]'s push per tuple yields — so the updated
    /// table is bit-identical, run by run, to one loaded fresh from the
    /// post-update tuple set. The cost is the touched runs; every other
    /// run stays where it is.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<EffectiveDelta, ChunkError> {
        batch.validate(&self.grid, self.gb)?;
        let n_dims = self.grid.num_dims();

        // Each record's base chunk, through the tables `load` clusters by,
        // read off the records' coordinates held whole (values unused).
        // The stable sort keeps batch order within a chunk.
        let coords: Vec<u32> = batch
            .records()
            .iter()
            .flat_map(|rec| rec.coords.iter().copied())
            .collect();
        let tuples = ChunkData::from_stored(&vec![None; n_dims], coords, vec![0u16; batch.len()]);
        let level = self.grid.geom(self.gb).level();
        let mut by_chunk: Vec<(ChunkNumber, &DeltaRecord)> = self
            .grid
            .chunk_numbers(level, self.gb, &tuples)
            .into_iter()
            .zip(batch.records())
            .collect();
        by_chunk.sort_by_key(|&(chunk, _)| chunk);

        // Ascending chunk × in-run order is scan order, which `deleted`
        // (and the float sums patched from it) depends on.
        let mut pending = delete_multiset(batch);
        let mut probe = (Vec::with_capacity(n_dims), 0u64);
        let mut deleted = ChunkData::new(n_dims);
        let mut base_chunks = Vec::new();
        for group in by_chunk.chunk_by(|a, b| a.0 == b.0) {
            let chunk = group[0].0;
            let old = &self.runs[chunk as usize];
            // Survivors are copied a stretch at a time, between deletes.
            let mut new = ChunkData::with_capacity(n_dims, old.len() + group.len());
            let mut kept_from = 0;
            let has_delete = group.iter().any(|(_, rec)| rec.op == DeltaOp::Delete);
            if has_delete {
                for (i, (coords, value)) in old.iter().enumerate() {
                    probe.0.clear();
                    probe.0.extend(coords.iter());
                    probe.1 = value.to_bits();
                    let due = pending.get_mut(&probe).filter(|n| **n > 0);
                    if due.map(|n| *n -= 1).is_some() {
                        new.extend_from(old, kept_from..i);
                        deleted.push(coords, value);
                        kept_from = i + 1;
                    }
                }
            }
            new.extend_from(old, kept_from..old.len());
            let survivors = new.len();
            for (_, rec) in group {
                if rec.op == DeltaOp::Insert {
                    new.push(&rec.coords, rec.value);
                }
            }
            // A run changed if it lost a tuple or gained one.
            if survivors < old.len() || survivors < new.len() {
                self.num_tuples = self.num_tuples - old.len() as u64 + new.len() as u64;
                new.shrink_to_fit();
                self.runs[chunk as usize] = Arc::new(new);
                base_chunks.push(chunk);
            }
        }
        let unmatched_deletes: u64 = pending.values().sum();

        let mut inserted = ChunkData::new(n_dims);
        for rec in batch.records() {
            if rec.op == DeltaOp::Insert {
                inserted.push(&rec.coords, rec.value);
            }
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
        (0..self.runs.len() as ChunkNumber)
            .filter(|&c| self.tuples_in(c) > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, Schema};
    use proptest::prelude::*;

    /// Every coordinate of every cell, row-major, whatever the layout.
    fn all_coords(d: &ChunkData) -> Vec<u32> {
        d.iter().flat_map(|(c, _)| c.iter()).collect()
    }

    fn grid() -> Arc<ChunkGrid> {
        let schema = Arc::new(
            Schema::new(vec![
                Dimension::balanced("a", vec![1, 2, 8]).unwrap(),
                Dimension::flat("b", 4).unwrap(),
            ])
            .unwrap(),
        );
        Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 4], vec![1, 2]]).unwrap())
    }

    /// Every cell once, in scrambled order; the value encodes the coords.
    fn cells() -> ChunkData {
        let mut cells = ChunkData::new(2);
        for a in (0..8u32).rev() {
            for b in 0..4u32 {
                cells.push(&[a, b], f64::from(a * 100 + b));
            }
        }
        cells
    }

    fn table() -> FactTable {
        let grid = grid();
        let base = grid.schema().lattice().base();
        FactTable::load(grid, base, cells())
    }

    #[test]
    fn clusters_by_chunk() {
        let t = table();
        assert_eq!(t.num_tuples(), 32);
        let geom = t.grid().geom(t.gb());
        // Every chunk's tuples map back to that chunk.
        for c in 0..geom.total_chunks() {
            for (coords, _) in t.scan_chunk(c) {
                let a_chunk = t.grid().dim(0).chunk_of_value(2, coords.get(0));
                let b_chunk = t.grid().dim(1).chunk_of_value(1, coords.get(1));
                assert_eq!(geom.linearize(&[a_chunk, b_chunk]), c);
            }
        }
        let total: u64 = (0..geom.total_chunks()).map(|c| t.tuples_in(c)).sum();
        assert_eq!(total, 32);
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
    fn from_runs_over_loads_runs_is_bit_equal_to_load() {
        let mut cells = cells();
        cells.push(&[0, 0], 1.0);
        cells.push(&[0, 0], 1.0);
        let grid = grid();
        let base = grid.schema().lattice().base();
        let loaded = FactTable::load(grid.clone(), base, cells);
        let runs = loaded.runs.iter().map(|r| ChunkData::clone(r)).collect();
        let t = FactTable::from_runs(grid, base, runs);
        assert_eq!(t.num_tuples(), loaded.num_tuples());
        assert_eq!(t.runs.len(), loaded.runs.len());
        for (c, (got, want)) in t.runs.iter().zip(&loaded.runs).enumerate() {
            assert_same_bits(got, want, &format!("run of chunk {c}"));
            assert_eq!(got.heap_bytes(), want.heap_bytes(), "run {c} capacity");
        }
    }

    #[test]
    #[should_panic(expected = "one run per chunk")]
    fn from_runs_refuses_a_wrong_run_count() {
        let grid = grid();
        let base = grid.schema().lattice().base();
        let runs = vec![ChunkData::new(2); grid.n_chunks(base) as usize - 1];
        FactTable::from_runs(grid, base, runs);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside its run's chunk")]
    fn from_runs_refuses_a_tuple_in_the_wrong_run() {
        let grid = grid();
        let base = grid.schema().lattice().base();
        let mut runs = vec![ChunkData::new(2); grid.n_chunks(base) as usize];
        runs[0].push(&[7, 3], 1.0);
        FactTable::from_runs(grid, base, runs);
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
        let mut cells = cells();
        cells.push(&[0, 0], 7.0);
        cells.push(&[7, 3], 9.0);
        let fresh = FactTable::load(t.grid().clone(), t.gb(), cells);
        assert_eq!(t.runs, fresh.runs);
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
        let before = t.runs.clone();
        let eff = t.apply_delta(&DeltaBatch::new()).unwrap();
        assert!(eff.is_empty());
        assert_eq!(eff.num_tuples(), 0);
        assert_eq!(t.runs, before);
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
    fn apply_delta_writes_nothing_when_every_delete_is_unmatched() {
        let mut t = table();
        let runs_at =
            |t: &FactTable| -> Vec<*const ChunkData> { t.runs.iter().map(Arc::as_ptr).collect() };
        let (runs, at) = (t.runs.clone(), runs_at(&t));
        let mut batch = DeltaBatch::new();
        batch.delete(&[0, 0], 1.0).delete(&[1, 1], 12345.0);
        let eff = t.apply_delta(&batch).unwrap();
        assert!(eff.is_empty());
        assert_eq!(eff.unmatched_deletes, 2);
        assert_eq!((t.num_tuples(), &t.runs), (32, &runs));
        assert_eq!(runs_at(&t), at, "an unchanged run is not reassigned");
    }

    #[test]
    fn a_chunk_named_in_non_adjacent_records_is_survivors_then_inserts_in_batch_order() {
        let mut t = table();
        let last = t.grid().n_chunks(t.gb()) - 1;
        let before: Vec<(Vec<u32>, f64)> = t.scan_chunk(0).map(|(c, v)| (c.to_vec(), v)).collect();
        // Chunk 0, the last chunk, then chunk 0 again — a delete and a
        // second insert behind another chunk's record.
        let mut batch = DeltaBatch::new();
        batch
            .insert(&[0, 0], 7.0)
            .insert(&[7, 3], 9.0)
            .delete(&[0, 0], 0.0)
            .insert(&[1, 1], 8.0);
        let eff = t.apply_delta(&batch).unwrap();
        assert_eq!(eff.base_chunks, vec![0, last]);
        assert_eq!(eff.deleted.len(), 1);
        let mut want: Vec<(Vec<u32>, f64)> = before
            .into_iter()
            .filter(|(c, v)| !(c[..] == [0, 0] && *v == 0.0))
            .collect();
        want.push((vec![0, 0], 7.0));
        want.push((vec![1, 1], 8.0));
        let got: Vec<(Vec<u32>, f64)> = t.scan_chunk(0).map(|(c, v)| (c.to_vec(), v)).collect();
        assert_eq!(got, want);
        assert_eq!(t.num_tuples(), 34);
    }

    #[test]
    fn a_clone_shares_every_run_and_stays_a_snapshot_through_a_delta() {
        let a = table();
        let mut b = a.clone();
        let chunks = 0..a.grid().n_chunks(a.gb());
        for c in chunks.clone() {
            assert!(std::ptr::eq(a.chunk(c), b.chunk(c)), "run {c} copied");
        }
        let before: Vec<ChunkData> = a.runs.iter().map(|r| ChunkData::clone(r)).collect();

        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 7.0).delete(&[7, 3], 703.0);
        let eff = b.apply_delta(&batch).unwrap();
        assert_eq!(eff.base_chunks, vec![0, chunks.end - 1]);

        for c in chunks.clone() {
            assert_same_bits(a.chunk(c), &before[c as usize], &format!("a's run {c}"));
        }
        let mut cells_after = ChunkData::new(2);
        for (coords, value) in cells().iter() {
            if !(coords == [7, 3] && value == 703.0) {
                cells_after.push(coords, value);
            }
        }
        cells_after.push(&[0, 0], 7.0);
        let fresh = FactTable::load(a.grid().clone(), a.gb(), cells_after);
        for c in chunks.clone() {
            assert_same_bits(b.chunk(c), fresh.chunk(c), &format!("b's run {c}"));
            let rewritten = eff.base_chunks.contains(&c);
            assert_eq!(std::ptr::eq(a.chunk(c), b.chunk(c)), !rewritten, "run {c}");
        }
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
        assert_eq!(all_coords(got), all_coords(want), "{what}: coords");
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
                prop_assert_eq!(t.num_tuples(), model.len() as u64);
                for (c, (got, want)) in t.runs.iter().zip(&fresh.runs).enumerate() {
                    assert_same_bits(got, want, &format!("run of chunk {c}"));
                }
                assert_same_bits(&eff.inserted, &cells_of(&inserts), "inserted");
                assert_same_bits(&eff.deleted, &cells_of(&deleted), "deleted");
                prop_assert_eq!(eff.unmatched_deletes, pending.len() as u64);
                prop_assert_eq!(&eff.base_chunks, &base_chunks);
            }
        }
    }
}
