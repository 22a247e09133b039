use crate::delta::{delete_multiset, DeltaBatch, DeltaOp, DeltaRecord, EffectiveDelta};
use aggcache_chunks::{ChunkData, ChunkError, ChunkGrid, ChunkNumber};
use aggcache_schema::GroupById;
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
#[derive(Debug, Clone)]
pub struct FactTable {
    grid: Arc<ChunkGrid>,
    gb: GroupById,
    /// `runs[c]` holds the tuples of chunk `c`, at exact capacity.
    runs: Vec<ChunkData>,
    num_tuples: u64,
}

/// The chunk of `gb` each of `tuples` (value coordinates at `gb`'s level)
/// lies in: per dimension, the value→chunk table and the linearization
/// weight of its chunk coordinate.
fn chunk_numbers<'a>(
    grid: &ChunkGrid,
    gb: GroupById,
    tuples: impl Iterator<Item = &'a [u32]>,
) -> Vec<ChunkNumber> {
    let geom = grid.geom(gb);
    let dims: Vec<(&[u32], u64)> = (0..grid.num_dims())
        .map(|d| (grid.dim(d).chunk_of_table(geom.level()[d]), geom.weight(d)))
        .collect();
    let chunk_of = |coords: &[u32]| -> ChunkNumber {
        let parts = dims.iter().zip(coords);
        parts
            .map(|(&(table, w), &c)| w * u64::from(table[c as usize]))
            .sum()
    };
    tuples.map(chunk_of).collect()
}

impl FactTable {
    /// Loads raw fact tuples (value coordinates at `gb`'s level) and
    /// clusters them by chunk number, keeping load order within a chunk.
    /// Duplicate coordinates are kept as separate tuples, as in a real
    /// fact table.
    pub fn load(grid: Arc<ChunkGrid>, gb: GroupById, cells: ChunkData) -> Self {
        let chunk_nums = chunk_numbers(&grid, gb, cells.iter().map(|(coords, _)| coords));

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
        Self {
            grid,
            gb,
            runs,
            num_tuples: cells.len() as u64,
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
        self.num_tuples
    }

    /// Number of tuples in `chunk`.
    #[inline]
    pub fn tuples_in(&self, chunk: ChunkNumber) -> u64 {
        self.runs[chunk as usize].len() as u64
    }

    /// The tuples of `chunk`, in load order — what the aggregation kernel
    /// scans ([`Aggregator::add_source_chunk`](crate::Aggregator::add_source_chunk)).
    #[inline]
    pub fn chunk(&self, chunk: ChunkNumber) -> &ChunkData {
        &self.runs[chunk as usize]
    }

    /// Iterates the `(coords, value)` tuples of `chunk`.
    pub fn scan_chunk(&self, chunk: ChunkNumber) -> impl Iterator<Item = (&[u32], f64)> + '_ {
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

        // Each record's base chunk, through the tables `load` clusters by.
        // The stable sort keeps batch order within a chunk.
        let coords = batch.records().iter().map(|rec| &rec.coords[..]);
        let mut by_chunk: Vec<(ChunkNumber, &DeltaRecord)> =
            chunk_numbers(&self.grid, self.gb, coords)
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
            let has_delete = group.iter().any(|(_, rec)| rec.op == DeltaOp::Delete);
            let old = &self.runs[chunk as usize];
            let mut new = ChunkData::with_capacity(n_dims, old.len() + group.len());
            for (coords, value) in old.iter() {
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
                self.num_tuples = self.num_tuples - old.len() as u64 + new.len() as u64;
                new.shrink_to_fit();
                self.runs[chunk as usize] = new;
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
        let runs_at = |t: &FactTable| -> Vec<*const f64> {
            t.runs.iter().map(|r| r.raw_values().as_ptr()).collect()
        };
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
