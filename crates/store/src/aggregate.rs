use aggcache_chunks::{
    Buf, ChunkData, ChunkGrid, ChunkKey, Column, Coord, Coords, ValueVec, Values, NARROW_MAX,
};
use aggcache_schema::Schema;

/// A distributive aggregate function over the cube measure.
///
/// Distributivity is what makes in-cache aggregation legal: partial
/// aggregates at any level combine into aggregates at any more aggregated
/// level. `Avg` is intentionally absent — compute it as `Sum / Count` over
/// two cubes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Sum of the measure (the paper's `sum(UnitSales)`).
    Sum,
    /// Count of base tuples.
    Count,
    /// Minimum of the measure.
    Min,
    /// Maximum of the measure.
    Max,
}

impl AggFn {
    /// Maps a *raw fact* measure into the cube's value domain: what a single
    /// base tuple contributes.
    #[inline]
    pub fn lift(self, v: f64) -> f64 {
        match self {
            AggFn::Sum | AggFn::Min | AggFn::Max => v,
            AggFn::Count => 1.0,
        }
    }

    /// The value [`AggFn::combine`] returns every non-NaN operand from
    /// unchanged, bit for bit: `-0.0` for SUM and COUNT (`-0.0 + v` is `v`
    /// under round-to-nearest even for `v = ±0.0`, where `+0.0` would turn a
    /// lone `-0.0` into `+0.0`), `+∞` for MIN, `−∞` for MAX. The dense
    /// kernel fills its cells with it, so a cell's first contribution needs
    /// no test.
    #[inline]
    pub(crate) fn identity(self) -> f64 {
        match self {
            AggFn::Sum | AggFn::Count => -0.0,
            AggFn::Min => f64::INFINITY,
            AggFn::Max => f64::NEG_INFINITY,
        }
    }

    /// Combines two partial aggregates.
    ///
    /// NaN policy: **propagate**. A NaN measure poisons every aggregate it
    /// contributes to, exactly as SUM already behaves (`x + NaN = NaN`).
    /// `f64::min`/`f64::max` instead silently prefer the non-NaN operand,
    /// which would make a NaN measure vanish at aggregated levels while
    /// base-level scans keep it — the same cell would answer differently
    /// depending on which lattice level served it.
    ///
    /// What the kernel guarantees on top of that, for all four functions
    /// and whether a target box is held dense or sparse: NaN in ⇒ NaN out;
    /// every non-NaN result is `to_bits`-identical across the two
    /// representations, `-0.0`, `±∞` and subnormals included. What it does
    /// not: the payload and signalling bits of a NaN are not preserved —
    /// the dense side combines even a cell's only contribution with
    /// `AggFn::identity`, and MIN/MAX answer the canonical `f64::NAN`.
    #[inline]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            AggFn::Sum | AggFn::Count => a + b,
            AggFn::Min => {
                if a.is_nan() || b.is_nan() {
                    f64::NAN
                } else {
                    a.min(b)
                }
            }
            AggFn::Max => {
                if a.is_nan() || b.is_nan() {
                    f64::NAN
                } else {
                    a.max(b)
                }
            }
        }
    }
}

/// Whether input cells are raw fact tuples (to be lifted) or already-lifted
/// cube cells (to be combined as-is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lift {
    /// Input values are raw fact measures.
    Raw,
    /// Input values are cube aggregates (e.g. cached chunks).
    Lifted,
}

/// The box of target cells an aggregation lands in — a whole level
/// ([`Aggregator::new`]) or one chunk's [`ChunkGrid::cell_box`]
/// ([`Aggregator::for_chunk`]) — with the row-major codec over it: cell
/// `c` has key `Σ_d weights[d] · (c_d − lo[d])`, so ascending keys are
/// ascending coordinates. A `u64` key always exists because
/// [`Schema::new`] refuses a schema whose base-level cell space overflows
/// `u64`, and no box is larger than that.
#[derive(Debug)]
struct CellBox<'s> {
    schema: &'s Schema,
    level: Vec<u8>,
    lo: Vec<u32>,
    len: Vec<u32>,
    weights: Vec<u64>,
    cells: u64,
    /// The dimensions the box is longer than one value along. A dead one
    /// adds 0 to every key, so neither keying nor decoding visits it.
    live: Vec<usize>,
    /// `Σ_d weights[d] · lo[d]`: the key of the box's first cell in
    /// level-wide terms, subtracted through [`SourceKeys`]'s offset.
    base: u64,
}

/// One live dimension as [`SourceKeys`] keys it: its column's position in
/// a source cell's stored coordinates, its memoised roll-up table from the
/// source level and its box weight.
type KeyDim<'s> = (usize, &'s [u32], u64);

/// How the cells of one source chunk key into a [`CellBox`]: the live
/// dimensions its cells may still vary along, and `offset`, what every key
/// shares — the box's `base` subtracted, the folded dimensions' share added
/// ([`CellBox::source`]). Every key is below `cells`.
struct SourceKeys<'s> {
    dims: Vec<KeyDim<'s>>,
    offset: u64,
    cells: u64,
}

impl<'s> CellBox<'s> {
    fn new(schema: &'s Schema, level: &[u8], ranges: impl Iterator<Item = (u32, u32)>) -> Self {
        let (lo, len): (Vec<u32>, Vec<u32>) = ranges.map(|(lo, hi)| (lo, hi - lo)).unzip();
        debug_assert_eq!(lo.len(), schema.num_dims());
        let mut weights = vec![0u64; lo.len()];
        let mut cells = 1u64;
        for d in (0..lo.len()).rev() {
            weights[d] = cells;
            cells *= u64::from(len[d]);
        }
        let live: Vec<usize> = (0..lo.len()).filter(|&d| len[d] > 1).collect();
        let base = live.iter().map(|&d| weights[d] * u64::from(lo[d])).sum();
        Self {
            schema,
            level: level.to_vec(),
            lo,
            len,
            weights,
            cells,
            live,
            base,
        }
    }

    fn whole_level(schema: &'s Schema, level: &[u8]) -> Self {
        let cards = (0..level.len()).map(|d| (0, schema.dimension(d).cardinality(level[d])));
        Self::new(schema, level, cards)
    }

    fn of_chunk(grid: &'s ChunkGrid, target: ChunkKey) -> Self {
        let level = grid.geom(target.gb).level();
        let ranges = grid.cell_box(target.gb, target.chunk);
        Self::new(grid.schema(), level, ranges.into_iter())
    }

    /// The innermost live dimension. Its weight is 1 (only dead dimensions
    /// follow it), so the keys along it are contiguous: a *row*.
    fn inner(&self) -> usize {
        self.live.last().copied().unwrap_or(self.lo.len() - 1)
    }

    /// The keying of a chunk's cells at level `from`, laid out as
    /// `columns`. A live dimension is *folded* — its share of every key
    /// moves into the offset — where the chunk holds it once, or where
    /// `span` knows the range the cells lie in (a source chunk's
    /// [`ChunkGrid::cell_box`]) and its two ends roll up to one value.
    fn source(
        &self,
        from: &[u8],
        columns: &[Column],
        span: impl Fn(usize) -> Option<(u32, u32)>,
    ) -> SourceKeys<'s> {
        let mut keys = SourceKeys {
            dims: Vec::with_capacity(self.live.len()),
            offset: 0u64.wrapping_sub(self.base),
            cells: self.cells,
        };
        for &d in &self.live {
            let dimension = self.schema.dimension(d);
            let table = dimension.composed_rollup(from[d], self.level[d]);
            let w = self.weights[d];
            let folded = match (columns[d], span(d)) {
                (Column::Constant(c), _) => table[c as usize],
                (_, Some((lo, hi))) if table[lo as usize] == table[hi as usize - 1] => {
                    table[lo as usize]
                }
                (Column::Stored(j), _) => {
                    keys.dims.push((j as usize, table, w));
                    continue;
                }
            };
            keys.offset = keys.offset.wrapping_add(w * u64::from(folded));
        }
        keys
    }

    /// The coordinates of cell `key`, into `out` (which already holds `lo`
    /// along every dead dimension).
    #[inline]
    fn decode(&self, mut key: u64, out: &mut [u32]) {
        for &d in &self.live {
            out[d] = self.lo[d] + (key / self.weights[d]) as u32;
            key %= self.weights[d];
        }
        debug_assert!((0..out.len()).all(|d| out[d] - self.lo[d] < self.len[d]));
    }
}

impl SourceKeys<'_> {
    /// Hands `put` the target key and raw value of each cell of `data`, in
    /// order, straight off the columnar arrays: a key is the offset plus,
    /// per dimension left, a lookup and a multiply-add, and equals "roll
    /// each coordinate up, then Horner-encode"; a value widens to `f64`
    /// exactly. The loop is compiled once per coordinate width, per value
    /// width and per dimension count up to APB-1's five, with the count
    /// fixed, and once over a slice beyond; the widths and the count are
    /// matched once per chunk. Which cells lie in the box is a per-*chunk*
    /// check ([`ChunkAggregator::add_source_chunk`]).
    #[inline(always)]
    fn for_each_cell(&self, data: &ChunkData, put: impl FnMut(u64, f64)) {
        let n = data.stride();
        match (data.stored_coords(), data.raw_values()) {
            (Coords::U16(c), Values::U16(v)) => self.for_each_cell_at(c, n, v, put),
            (Coords::U16(c), Values::Wide(v)) => self.for_each_cell_at(c, n, v, put),
            (Coords::Wide(c), Values::U16(v)) => self.for_each_cell_at(c, n, v, put),
            (Coords::Wide(c), Values::Wide(v)) => self.for_each_cell_at(c, n, v, put),
        }
    }

    /// [`SourceKeys::for_each_cell`] at one pair of widths.
    #[inline(always)]
    fn for_each_cell_at<C: Coord, V: Copy + Into<f64>>(
        &self,
        coords: &[C],
        n: usize,
        values: &[V],
        mut put: impl FnMut(u64, f64),
    ) {
        if self.dims.is_empty() {
            // One key for every cell; the chunk may store no column.
            return values.iter().for_each(|&v| put(self.offset, v.into()));
        }
        let cells = coords.chunks_exact(n).zip(values);
        match *self.dims.as_slice() {
            [a] => self.keyed(cells, [a], put),
            [a, b] => self.keyed(cells, [a, b], put),
            [a, b, c] => self.keyed(cells, [a, b, c], put),
            [a, b, c, d] => self.keyed(cells, [a, b, c, d], put),
            [a, b, c, d, e] => self.keyed(cells, [a, b, c, d, e], put),
            _ => self.keyed(cells, self.dims.as_slice(), put),
        }
    }

    /// [`SourceKeys::for_each_cell`]'s loop, over `dims`.
    #[inline(always)]
    fn keyed<'c, 't, C: Coord, V: Copy + Into<f64> + 'c>(
        &self,
        cells: impl Iterator<Item = (&'c [C], &'c V)>,
        dims: impl AsRef<[KeyDim<'t>]>,
        mut put: impl FnMut(u64, f64),
    ) {
        for (c, &v) in cells {
            let mut key = self.offset;
            for &(d, table, w) in dims.as_ref() {
                key = key.wrapping_add(w * u64::from(table[c[d].index()]));
            }
            debug_assert!(key < self.cells, "a source cell outside the target box");
            put(key, v.into());
        }
    }
}

/// Folds `values`, widened exactly, into `acc` in order: one register, no
/// store until the caller's.
#[inline(always)]
fn fold_values<V: Copy + Into<f64>>(
    values: &[V],
    acc: f64,
    lift: impl Fn(f64) -> f64,
    combine: impl Fn(f64, f64) -> f64,
) -> f64 {
    values.iter().fold(acc, |a, &v| combine(a, lift(v.into())))
}

/// A target box at most this many times the cells about to be rolled into
/// it is held dense. On the complete-hit workload on a 2-core box, three
/// traced runs each of 2, 8 and 32 read medians of 7.8, 7.1 and 7.9 ns per
/// input cell, with every setting's runs spread over 5.8–7.9: no measured
/// difference, so the smallest: ≤ 18 transient bytes per input cell.
const DENSE_BOX_PER_INPUT_CELL: u64 = 2;

/// The target cells of one aggregation, keyed by [`CellBox`] key.
enum Cells {
    /// One slot per cell of the box, pre-filled with [`AggFn::identity`],
    /// plus a map of the slots some input cell reached — a byte each, not
    /// a bit: a store with no load, where a bitmap makes every add a
    /// read-modify-write of a word all its neighbours share.
    Dense { vals: Vec<f64>, occupied: Vec<u8> },
    /// Every `(key, value)` pair in arrival order, for a box much larger
    /// than its input: [`Aggregator::finish`] sorts them by key once, stably,
    /// and folds each run of equal keys.
    Sparse(Vec<(u64, f64)>),
}

impl Cells {
    /// The ingest loop: each cell of `data` keyed, lifted and combined
    /// into its target cell in one pass, in input order, with `lift` and
    /// `combine` compiled in. The dense side has no first-touch test —
    /// combining into the identity *is* the first touch — so it has no
    /// data-dependent branch; the sparse side defers every combine to
    /// `finish`.
    #[inline(always)]
    fn add(
        &mut self,
        keys: &SourceKeys,
        data: &ChunkData,
        lift: impl Fn(f64) -> f64,
        combine: impl Fn(f64, f64) -> f64,
    ) {
        match self {
            // Every cell lands on one target cell: fold them in a register
            // and store once, rather than load and store per cell with each
            // add waiting on the previous store. Same combines, same order.
            Cells::Dense { vals, occupied } if keys.dims.is_empty() && !data.is_empty() => {
                let k = keys.offset as usize;
                debug_assert!(
                    keys.offset < keys.cells,
                    "a source cell outside the target box"
                );
                vals[k] = match data.raw_values() {
                    Values::U16(v) => fold_values(v, vals[k], lift, combine),
                    Values::Wide(v) => fold_values(v, vals[k], lift, combine),
                };
                occupied[k] = 1;
            }
            Cells::Dense { vals, occupied } => keys.for_each_cell(data, |key, v| {
                let k = key as usize;
                vals[k] = combine(vals[k], lift(v));
                occupied[k] = 1;
            }),
            Cells::Sparse(run) => keys.for_each_cell(data, |key, v| run.push((key, lift(v)))),
        }
    }
}

/// Bits per digit of [`radix_sort_by_key`]: one byte, so each pass's
/// [`RADIX`] counters stay in L1.
const RADIX_BITS: u32 = 8;
const RADIX: usize = 1 << RADIX_BITS;

/// Sorts `pairs` by key, stably — equal keys keep their arrival order — given
/// that every key is below `bound`: an LSD radix sort with one pass per
/// digit of `bound − 1`, all digits counted in one read, and a digit every
/// key shares skipped.
fn radix_sort_by_key(pairs: Vec<(u64, f64)>, bound: u64) -> Vec<(u64, f64)> {
    let digits = (u64::BITS - bound.saturating_sub(1).leading_zeros()).div_ceil(RADIX_BITS);
    let digit = |key: u64, d: u32| (key >> (d * RADIX_BITS)) as usize & (RADIX - 1);
    let mut counts = vec![0usize; digits as usize * RADIX];
    for &(key, _) in &pairs {
        for (d, count) in (0..digits).zip(counts.chunks_exact_mut(RADIX)) {
            count[digit(key, d)] += 1;
        }
    }
    let mut from = pairs;
    let mut to = Vec::new();
    for (d, count) in (0..digits).zip(counts.chunks_exact(RADIX)) {
        if count.contains(&from.len()) {
            continue;
        }
        let mut next = [0usize; RADIX];
        let mut sum = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = sum;
            sum += c;
        }
        to.resize(from.len(), (0, 0.0));
        for &(key, v) in &from {
            let slot = &mut next[digit(key, d)];
            to[*slot] = (key, v);
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    from
}

/// Streaming aggregator rolling cells from arbitrary source levels up to
/// one target level.
///
/// This is the aggregation kernel shared by the backend (fact tuples →
/// requested chunks) and the cache executor (cached chunks at mixed levels →
/// a computed chunk). Costs are linear in the number of cells added,
/// matching the paper's §5 cost model. [`Aggregator::new`] targets a whole
/// level; [`Aggregator::for_chunk`] builds a [`ChunkAggregator`] targeting
/// one chunk.
pub struct Aggregator<'s> {
    cell_box: CellBox<'s>,
    agg: AggFn,
    cells: Cells,
    cells_added: u64,
}

impl<'s> Aggregator<'s> {
    /// Creates an aggregator producing cells anywhere at level `target`
    /// with `agg`, fed by [`Aggregator::add_chunk`]: the box is the whole
    /// level, held sparse — input pairs are appended, and sorted by key
    /// once, in [`Aggregator::finish`].
    pub fn new(schema: &'s Schema, target: &[u8], agg: AggFn) -> Self {
        Self {
            cell_box: CellBox::whole_level(schema, target),
            agg,
            cells: Cells::Sparse(Vec::new()),
            cells_added: 0,
        }
    }

    /// Creates an aggregator producing the cells of one chunk, `target`,
    /// from source chunks lying under it
    /// ([`ChunkAggregator::add_source_chunk`]). By the closure property
    /// every such cell lands in the chunk's [`ChunkGrid::cell_box`]: cells
    /// are keyed relative to that box and, when it is at most twice
    /// `expected_cells` (the cells about to be added), accumulated in a
    /// dense array; otherwise appended as `(key, value)` pairs and sorted
    /// once in [`Aggregator::finish`] — a choice `finish` never shows
    /// ([`AggFn::combine`]).
    pub fn for_chunk(
        grid: &'s ChunkGrid,
        target: ChunkKey,
        agg: AggFn,
        expected_cells: u64,
    ) -> ChunkAggregator<'s> {
        let cell_box = CellBox::of_chunk(grid, target);
        let cells = if cell_box.cells <= DENSE_BOX_PER_INPUT_CELL.saturating_mul(expected_cells) {
            let slots = usize::try_from(cell_box.cells).expect("a dense box is addressable");
            Cells::Dense {
                vals: vec![agg.identity(); slots],
                occupied: vec![0; slots],
            }
        } else {
            // Exactly the pairs about to be appended: the run never regrows.
            let pairs = usize::try_from(expected_cells).expect("a sparse run is addressable");
            Cells::Sparse(Vec::with_capacity(pairs))
        };
        ChunkAggregator {
            grid,
            target,
            kernel: Self {
                cell_box,
                agg,
                cells,
                cells_added: 0,
            },
        }
    }

    /// Adds an entire [`ChunkData`] of cells at level `from`, rolling them
    /// up into the target level: cells stream off the columnar arrays
    /// against the dimensions' memoised roll-up tables and combine into
    /// their target cells in input order.
    pub fn add_chunk(&mut self, from: &[u8], data: &ChunkData, lift: Lift) {
        let keys = self.cell_box.source(from, data.columns(), |_| None);
        self.add(keys, data, lift);
    }

    /// [`Cells::add`], compiled once per combine: SUM and COUNT add, MIN,
    /// MAX, and COUNT of raw facts adds `1.0` ([`AggFn::lift`]).
    fn add(&mut self, keys: SourceKeys, data: &ChunkData, lift: Lift) {
        self.cells_added += data.len() as u64;
        let (cells, keys) = (&mut self.cells, &keys);
        match self.agg {
            AggFn::Count if lift == Lift::Raw => cells.add(keys, data, |_| 1.0, |a, v| a + v),
            AggFn::Sum | AggFn::Count => cells.add(keys, data, |v| v, |a, v| a + v),
            AggFn::Min => cells.add(keys, data, |v| v, |a, v| AggFn::Min.combine(a, v)),
            AggFn::Max => cells.add(keys, data, |v| v, |a, v| AggFn::Max.combine(a, v)),
        }
    }

    /// Number of input cells consumed so far — the paper's aggregation cost
    /// unit ("number of tuples aggregated").
    pub fn cells_added(&self) -> u64 {
        self.cells_added
    }

    /// Finishes into coordinate-sorted [`ChunkData`] at the target level,
    /// storing the box's live columns and holding each dead one once: its
    /// coordinates at the narrow width when the box's upper corner fits it
    /// along the live ones, its values at `u16` until one does not fit,
    /// then at `f64` ([`ValueVec`]); every value is accumulated at `f64`.
    /// Row-major box keys *are* coordinate order: the dense side walks its
    /// slots in place — no collect, no sort — dividing once per row. The
    /// sparse side radix-sorts its pairs by key, stably, then folds each
    /// run of equal keys from its first value in arrival order — the order
    /// the dense side combines in, so both answer the same bits — and
    /// decodes once per distinct key.
    pub fn finish(self) -> ChunkData {
        let b = &self.cell_box;
        if b.live.iter().all(|&d| b.lo[d] + b.len[d] <= NARROW_MAX + 1) {
            self.finish_at::<u16>()
        } else {
            self.finish_at::<u32>()
        }
    }

    /// [`Aggregator::finish`] at one width.
    fn finish_at<C: Coord>(self) -> ChunkData
    where
        Buf<u32>: From<Vec<C>>,
    {
        let cell_box = &self.cell_box;
        let (live, n) = (&cell_box.live, cell_box.live.len());
        let mut cell = cell_box.lo.clone();
        let (coords, values) = match self.cells {
            Cells::Dense { vals, occupied } => {
                let reached = occupied.iter().filter(|&&o| o != 0).count();
                let mut coords: Vec<C> = Vec::with_capacity(reached * n);
                let mut values = ValueVec::with_capacity(reached);
                let inner = cell_box.inner();
                let row_len = cell_box.len[inner] as usize;
                for (row, slots) in occupied.chunks(row_len).enumerate() {
                    if slots.iter().all(|&o| o == 0) {
                        continue;
                    }
                    let start = row * row_len;
                    cell_box.decode(start as u64, &mut cell);
                    for (i, _) in slots.iter().enumerate().filter(|&(_, &o)| o != 0) {
                        cell[inner] = cell_box.lo[inner] + i as u32;
                        coords.extend(live.iter().map(|&d| C::from_u32(cell[d])));
                        values.push(vals[start + i]);
                    }
                }
                (coords, values)
            }
            Cells::Sparse(run) => {
                let mut cells = radix_sort_by_key(run, cell_box.cells);
                let agg = self.agg;
                cells.dedup_by(|next, kept| {
                    let same = next.0 == kept.0;
                    if same {
                        kept.1 = agg.combine(kept.1, next.1);
                    }
                    same
                });
                let mut coords: Vec<C> = Vec::with_capacity(cells.len() * n);
                let mut values = ValueVec::with_capacity(cells.len());
                for (key, v) in cells {
                    cell_box.decode(key, &mut cell);
                    coords.extend(live.iter().map(|&d| C::from_u32(cell[d])));
                    values.push(v);
                }
                (coords, values)
            }
        };
        let constants: Vec<Option<u32>> = (cell_box.lo.iter().zip(&cell_box.len))
            .map(|(&lo, &len)| (len == 1).then_some(lo))
            .collect();
        ChunkData::from_stored(&constants, coords, values)
    }
}

/// An aggregator whose target is one chunk ([`Aggregator::for_chunk`]).
/// Its box is the chunk's, and a cell from outside the chunk could alias a
/// neighbour inside it, so it takes only whole source chunks that roll up
/// into the target, and has no [`Aggregator::add_chunk`]:
///
/// ```compile_fail,E0599
/// # use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey};
/// # use aggcache_store::{AggFn, Aggregator, Lift};
/// fn misuse(grid: &ChunkGrid, target: ChunkKey, level: &[u8], cells: &ChunkData) {
///     let mut kernel = Aggregator::for_chunk(grid, target, AggFn::Sum, 0);
///     kernel.add_chunk(level, cells, Lift::Raw);
/// }
/// ```
pub struct ChunkAggregator<'s> {
    grid: &'s ChunkGrid,
    target: ChunkKey,
    kernel: Aggregator<'s>,
}

impl ChunkAggregator<'_> {
    /// Adds the cells of source chunk `src` — a cached chunk, or one
    /// chunk's run of the fact table — as [`Aggregator::add_chunk`] does.
    ///
    /// # Panics
    ///
    /// In release builds too, unless `src` rolls up into the target chunk:
    /// a cell from elsewhere would land outside the box or, worse, on a
    /// neighbour inside it. By closure that is O(dims) per chunk, not per cell,
    /// and so is finding the dimensions the chunk's cells all share one
    /// target value along: those cost nothing per cell.
    pub fn add_source_chunk(&mut self, src: ChunkKey, data: &ChunkData, lift: Lift) {
        let (grid, target) = (self.grid, self.target);
        assert!(
            grid.schema().lattice().computable_from(target.gb, src.gb)
                && grid.ascend_chunk(src.gb, src.chunk, target.gb) == target.chunk,
            "source chunk {src:?} does not roll up into target chunk {target:?}"
        );
        let (geom, c) = (grid.geom(src.gb), src.chunk);
        let level = geom.level();
        let span = |d| Some(grid.dim(d).value_range(level[d], geom.coord(c, d)));
        let keys = self.kernel.cell_box.source(level, data.columns(), span);
        self.kernel.add(keys, data, lift);
    }

    /// [`Aggregator::finish`].
    pub fn finish(self) -> ChunkData {
        self.kernel.finish()
    }

    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.kernel.cells, Cells::Dense { .. })
    }
}

/// One-shot convenience: aggregates `sources` (level, cells) up to `target`.
pub fn aggregate_to_level(
    schema: &Schema,
    sources: &[(&[u8], &ChunkData)],
    target: &[u8],
    agg: AggFn,
    lift: Lift,
) -> ChunkData {
    let mut kernel = Aggregator::new(schema, target, agg);
    for (level, data) in sources {
        kernel.add_chunk(level, data, lift);
    }
    kernel.finish()
}

/// [`aggregate_to_level`] and the input cells it consumed; `threads` is
/// ignored. Kept for `benchmark/` only: ROADMAP item 1(a) removes it.
#[doc(hidden)]
pub fn aggregate_to_level_parallel(
    schema: &Schema,
    sources: &[(&[u8], &ChunkData)],
    target: &[u8],
    agg: AggFn,
    lift: Lift,
    _threads: usize,
) -> (ChunkData, u64) {
    let cells = sources.iter().map(|(_, d)| d.len() as u64).sum();
    (
        aggregate_to_level(schema, sources, target, agg, lift),
        cells,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aggcache_schema::{Dimension, GroupById};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                Dimension::balanced("a", vec![1, 2, 4]).unwrap(),
                Dimension::flat("b", 3).unwrap(),
            ])
            .unwrap(),
        )
    }

    fn base_cells() -> ChunkData {
        // 4 x 3 base grid, value = a*10 + b.
        let mut d = ChunkData::new(2);
        for a in 0..4u32 {
            for b in 0..3u32 {
                d.push(&[a, b], f64::from(a * 10 + b));
            }
        }
        d
    }

    /// `schema()` chunked so that boxes of one cell, one row and several
    /// rows all occur: two chunks along `a` below its top level, two along
    /// `b`'s three base values.
    fn grid() -> ChunkGrid {
        ChunkGrid::build(schema(), &[vec![1, 2, 2], vec![1, 2]]).unwrap()
    }

    /// `cells` (at `gb`'s level) split by the chunk of `gb` each lies in,
    /// keeping their order.
    fn by_chunk(grid: &ChunkGrid, gb: GroupById, cells: &ChunkData) -> Vec<ChunkData> {
        let geom = grid.geom(gb);
        let mut out = vec![ChunkData::new(cells.n_dims()); geom.total_chunks() as usize];
        for (c, v) in cells.iter() {
            let cc: Vec<u32> = (c.iter().enumerate())
                .map(|(d, x)| grid.dim(d).chunk_of_value(geom.level()[d], x))
                .collect();
            out[geom.linearize(&cc) as usize].push(c, v);
        }
        out
    }

    /// The chunks of `gb` holding `cells` that lie under `target`, in
    /// chunk order, as `for_chunk` sources.
    fn sources_under<'a>(
        grid: &ChunkGrid,
        target: ChunkKey,
        gb: GroupById,
        cells: &'a [ChunkData],
    ) -> Vec<(ChunkKey, &'a ChunkData)> {
        grid.chunks_under(target.gb, target.chunk, gb)
            .into_iter()
            .map(|c| (ChunkKey::new(gb, c), &cells[c as usize]))
            .collect()
    }

    /// `target` computed through `for_chunk`, with `expected_cells` picking
    /// the representation: `u64::MAX` forces dense, 0 forces sparse.
    fn chunk_result(
        grid: &ChunkGrid,
        target: ChunkKey,
        sources: &[(ChunkKey, &ChunkData)],
        agg: AggFn,
        lift: Lift,
        expected_cells: u64,
    ) -> ChunkData {
        let mut kernel = Aggregator::for_chunk(grid, target, agg, expected_cells);
        assert_eq!(kernel.is_dense(), expected_cells > 0);
        for &(src, data) in sources {
            kernel.add_source_chunk(src, data, lift);
        }
        let added: usize = sources.iter().map(|(_, d)| d.len()).sum();
        assert_eq!(kernel.kernel.cells_added, added as u64);
        kernel.finish()
    }

    /// The roll-up written the slow way, independent of the kernel's keys
    /// and tables: each coordinate walked up the dimension's raw roll-up
    /// chain ([`Dimension::ancestor_value`]), combined per target
    /// coordinate in input order.
    pub(crate) fn reference_rollup(
        schema: &Schema,
        sources: &[(&[u8], &ChunkData)],
        target: &[u8],
        agg: AggFn,
        lift: Lift,
    ) -> ChunkData {
        let n = schema.num_dims();
        let mut cells: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (from, data) in sources {
            for (coords, v) in data.iter() {
                let v = match lift {
                    Lift::Raw => agg.lift(v),
                    Lift::Lifted => v,
                };
                let dst: Vec<u32> = (0..n)
                    .map(|d| {
                        schema
                            .dimension(d)
                            .ancestor_value(from[d], target[d], coords.get(d))
                    })
                    .collect();
                cells
                    .entry(dst)
                    .and_modify(|acc| *acc = agg.combine(*acc, v))
                    .or_insert(v);
            }
        }
        let mut out = ChunkData::with_capacity(n, cells.len());
        for (coords, v) in cells {
            out.push(&coords, v);
        }
        out
    }

    /// Same cells, same order, same `f64` bit patterns.
    pub(crate) fn assert_same_bits(got: &ChunkData, want: &ChunkData, ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}");
        for (i, (c, v)) in got.iter().enumerate() {
            assert_eq!(c, want.coords_of(i), "{ctx}");
            assert_eq!(v.to_bits(), want.value_of(i).to_bits(), "{ctx} cell {c:?}");
        }
    }

    #[test]
    fn sum_to_top_matches_total() {
        let s = schema();
        let base = base_cells();
        let out = aggregate_to_level(&s, &[(&[2, 1], &base)], &[0, 0], AggFn::Sum, Lift::Raw);
        assert_eq!(out.len(), 1);
        let total: f64 = base.raw_values().iter().sum();
        assert_eq!(out.value_of(0), total);
        assert_eq!(out.coords_of(0), &[0, 0]);
    }

    #[test]
    fn partial_rollup_keeps_dimension() {
        let s = schema();
        let base = base_cells();
        // Roll up dim a from level 2 (4 values) to level 1 (2 values).
        let out = aggregate_to_level(&s, &[(&[2, 1], &base)], &[1, 1], AggFn::Sum, Lift::Raw);
        assert_eq!(out.len(), 2 * 3);
        // Cell (0, 0) = a in {0,1}, b = 0 → 0 + 10 = 10.
        assert_eq!(out.coords_of(0), &[0, 0]);
        assert_eq!(out.value_of(0), 10.0);
        // Cell (1, 2) = a in {2,3}, b = 2 → 22 + 32 = 54.
        let idx = (0..out.len())
            .find(|&i| out.coords_of(i) == [1, 2])
            .unwrap();
        assert_eq!(out.value_of(idx), 54.0);
    }

    #[test]
    fn count_lifts_tuples_to_one() {
        let s = schema();
        let base = base_cells();
        let out = aggregate_to_level(&s, &[(&[2, 1], &base)], &[0, 0], AggFn::Count, Lift::Raw);
        assert_eq!(out.value_of(0), 12.0);
        // Combining already-lifted counts must sum them, not re-lift.
        let half = aggregate_to_level(&s, &[(&[2, 1], &base)], &[1, 1], AggFn::Count, Lift::Raw);
        let out2 = aggregate_to_level(&s, &[(&[1, 1], &half)], &[0, 0], AggFn::Count, Lift::Lifted);
        assert_eq!(out2.value_of(0), 12.0);
    }

    #[test]
    fn min_max_aggregate() {
        let s = schema();
        let base = base_cells();
        let mn = aggregate_to_level(&s, &[(&[2, 1], &base)], &[0, 0], AggFn::Min, Lift::Raw);
        let mx = aggregate_to_level(&s, &[(&[2, 1], &base)], &[0, 0], AggFn::Max, Lift::Raw);
        assert_eq!(mn.value_of(0), 0.0);
        assert_eq!(mx.value_of(0), 32.0);
    }

    #[test]
    fn two_step_equals_one_step() {
        let s = schema();
        let base = base_cells();
        let mid = aggregate_to_level(&s, &[(&[2, 1], &base)], &[1, 1], AggFn::Sum, Lift::Raw);
        let two = aggregate_to_level(&s, &[(&[1, 1], &mid)], &[0, 1], AggFn::Sum, Lift::Lifted);
        let one = aggregate_to_level(&s, &[(&[2, 1], &base)], &[0, 1], AggFn::Sum, Lift::Raw);
        assert_eq!(two, one);
    }

    #[test]
    fn mixed_level_sources_combine() {
        let s = schema();
        let base = base_cells();
        // Split base into two halves, roll one up first, then combine both
        // straight to the top — mimics a mixed-level computation path.
        let mut lo = ChunkData::new(2);
        let mut hi = ChunkData::new(2);
        for (c, v) in base.iter() {
            if c.get(0) < 2 {
                lo.push(c, v);
            } else {
                hi.push(c, v);
            }
        }
        let hi_rolled = aggregate_to_level(&s, &[(&[2, 1], &hi)], &[1, 1], AggFn::Sum, Lift::Raw);
        let mut a = Aggregator::new(&s, &[0, 0], AggFn::Sum);
        a.add_chunk(&[2, 1], &lo, Lift::Raw);
        a.add_chunk(&[1, 1], &hi_rolled, Lift::Lifted);
        let out = a.finish();
        let total: f64 = base.raw_values().iter().sum();
        assert_eq!(out.value_of(0), total);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cells_added_counts_inputs() {
        let s = schema();
        let base = base_cells();
        let mut a = Aggregator::new(&s, &[0, 0], AggFn::Sum);
        a.add_chunk(&[2, 1], &base, Lift::Raw);
        assert_eq!(a.cells_added(), 12);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let s = schema();
        let a = Aggregator::new(&s, &[0, 0], AggFn::Sum);
        assert_eq!(a.cells_added(), 0);
        let out = a.finish();
        assert!(out.is_empty());
    }

    #[test]
    fn identity_level_keeps_cells() {
        let s = schema();
        let base = base_cells();
        let out = aggregate_to_level(&s, &[(&[2, 1], &base)], &[2, 1], AggFn::Sum, Lift::Raw);
        assert_eq!(out.len(), base.len());
        let total_in: f64 = base.raw_values().iter().sum();
        let total_out: f64 = out.raw_values().iter().sum();
        assert_eq!(total_in, total_out);
    }

    #[test]
    fn min_of_negative_values() {
        let s = schema();
        let mut d = ChunkData::new(2);
        d.push(&[0, 0], -5.0);
        d.push(&[1, 0], 3.0);
        let out = aggregate_to_level(&s, &[(&[2, 1], &d)], &[0, 0], AggFn::Min, Lift::Raw);
        assert_eq!(out.value_of(0), -5.0);
    }

    #[test]
    fn nan_measure_propagates_through_min_max() {
        // Regression: `f64::min`/`f64::max` silently prefer the non-NaN
        // operand, so a NaN measure would vanish at aggregated levels while
        // a base-level scan keeps it. The policy is propagate: a NaN input
        // poisons every aggregate it contributes to, like SUM already does.
        let s = schema();
        let mut d = ChunkData::new(2);
        d.push(&[0, 0], 1.0);
        d.push(&[1, 0], f64::NAN);
        d.push(&[2, 1], 4.0);
        for agg in [AggFn::Min, AggFn::Max, AggFn::Sum] {
            // The top cell sees the NaN regardless of operand order.
            let top = aggregate_to_level(&s, &[(&[2, 1], &d)], &[0, 0], agg, Lift::Raw);
            assert!(
                top.value_of(0).is_nan(),
                "{agg:?} must propagate NaN to the top"
            );
            // A cell the NaN does not contribute to stays clean: at level
            // (1,1), coords (0,0)+(1,0) roll into a-cell 0, (2,1) into 1.
            let mid = aggregate_to_level(&s, &[(&[2, 1], &d)], &[1, 1], agg, Lift::Raw);
            let clean = (0..mid.len())
                .find(|&i| mid.coords_of(i) == [1, 1])
                .unwrap();
            assert_eq!(mid.value_of(clean), 4.0, "{agg:?} clean cell poisoned");
            let poisoned = (0..mid.len())
                .find(|&i| mid.coords_of(i) == [0, 0])
                .unwrap();
            assert!(mid.value_of(poisoned).is_nan());
            // Both representations of a chunk's box answer the same: the
            // chunks of a level, side by side, are the level-wide answer —
            // NaN where it is NaN, the same bits everywhere else.
            let g = grid();
            let lattice = s.lattice();
            let by_base = by_chunk(&g, lattice.base(), &d);
            for (level, whole) in [([0u8, 0], &top), ([1, 1], &mid)] {
                let gb = lattice.id_of(&level).unwrap();
                for expected_cells in [u64::MAX, 0] {
                    let mut got = ChunkData::new(2);
                    for chunk in 0..g.n_chunks(gb) {
                        let target = ChunkKey::new(gb, chunk);
                        let sources = sources_under(&g, target, lattice.base(), &by_base);
                        let cells =
                            chunk_result(&g, target, &sources, agg, Lift::Raw, expected_cells);
                        got.append(&cells);
                    }
                    got.sort_by_coords();
                    assert_eq!(got.len(), whole.len());
                    for (i, (c, v)) in got.iter().enumerate() {
                        assert_eq!(c, whole.coords_of(i));
                        let want = whole.value_of(i);
                        assert!(
                            (v.is_nan() && want.is_nan()) || v.to_bits() == want.to_bits(),
                            "{agg:?} {level:?} cell {c:?}: {v} vs {want}"
                        );
                    }
                }
            }
        }
        // COUNT never looks at the measure: NaN tuples still count.
        let cnt = aggregate_to_level(&s, &[(&[2, 1], &d)], &[0, 0], AggFn::Count, Lift::Raw);
        assert_eq!(cnt.value_of(0), 3.0);
    }

    /// `base_cells` with values that exercise float non-associativity, so
    /// any reordering or re-bracketing of a SUM would flip bits.
    fn jagged_cells() -> ChunkData {
        let mut jagged = ChunkData::new(2);
        for (i, (c, _)) in base_cells().iter().enumerate() {
            jagged.push(c, 0.1 + i as f64 * 1e10 + (i as f64).sin());
        }
        jagged
    }

    #[test]
    fn add_chunk_is_bit_identical_to_the_row_reference() {
        let s = schema();
        let jagged = jagged_cells();
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
            for lift in [Lift::Raw, Lift::Lifted] {
                for target in [[0u8, 0], [1, 1], [2, 1], [0, 1]] {
                    let mut kernel = Aggregator::new(&s, &target, agg);
                    kernel.add_chunk(&[2, 1], &jagged, lift);
                    assert_eq!(kernel.cells_added(), jagged.len() as u64);
                    let want = reference_rollup(&s, &[(&[2, 1], &jagged)], &target, agg, lift);
                    assert_same_bits(
                        &kernel.finish(),
                        &want,
                        &format!("{agg:?} {lift:?} {target:?}"),
                    );
                }
            }
        }
    }

    /// Every target chunk of the test grid, four functions, both lifts,
    /// from base chunks and — lifted — from mixed levels in one aggregator:
    /// the dense side, the sparse side and the row-at-a-time reference
    /// agree cell for cell, bit for bit.
    #[test]
    fn for_chunk_is_bit_identical_to_the_row_reference_on_both_sides() {
        let g = grid();
        let s = g.schema();
        let lattice = s.lattice();
        let base = lattice.base();
        let base_level = s.base_level();
        let by_base = by_chunk(&g, base, &jagged_cells());
        let mid = lattice.id_of(&[1, 1]).unwrap();
        let mid_level = lattice.level_of(mid);
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
            // Level (1,1) as cached chunks: lifted cells, rolled up per chunk.
            let by_mid: Vec<ChunkData> = (0..g.n_chunks(mid))
                .map(|c| {
                    let under = sources_under(&g, ChunkKey::new(mid, c), base, &by_base);
                    let under: Vec<(&[u8], &ChunkData)> =
                        under.iter().map(|&(_, d)| (&base_level[..], d)).collect();
                    reference_rollup(s, &under, &mid_level, agg, Lift::Raw)
                })
                .collect();
            for gb in lattice.iter_ids() {
                let level = lattice.level_of(gb);
                for chunk in 0..g.n_chunks(gb) {
                    let target = ChunkKey::new(gb, chunk);
                    let from_base = sources_under(&g, target, base, &by_base);
                    let mut inputs = vec![(Lift::Raw, from_base.clone())];
                    if lattice.computable_from(gb, mid) {
                        // Mixed levels: the first base chunk's share arrives
                        // as its (1,1) ancestor, the rest as base chunks
                        // that ancestor does not cover.
                        let first = from_base[0].0;
                        let above = g.ascend_chunk(base, first.chunk, mid);
                        let mut mixed = vec![(ChunkKey::new(mid, above), &by_mid[above as usize])];
                        mixed.extend(
                            from_base
                                .iter()
                                .filter(|(k, _)| g.ascend_chunk(base, k.chunk, mid) != above),
                        );
                        inputs.push((Lift::Lifted, mixed));
                    }
                    inputs.push((Lift::Lifted, from_base));
                    for (lift, sources) in inputs {
                        let leveled: Vec<(&[u8], &ChunkData)> = sources
                            .iter()
                            .map(|&(k, d)| (g.geom(k.gb).level(), d))
                            .collect();
                        let want = reference_rollup(s, &leveled, &level, agg, lift);
                        for expected_cells in [u64::MAX, 0] {
                            let got = chunk_result(&g, target, &sources, agg, lift, expected_cells);
                            let ctx = format!("{agg:?} {lift:?} {target:?} x{expected_cells}");
                            assert_same_bits(&got, &want, &ctx);
                        }
                    }
                }
            }
        }
    }

    /// A level of 70,000 values: a chunk whose box reaches past `u16`
    /// finishes at `u32`, every other at `u16`, and either way each roll-up
    /// — per chunk on the dense and the sparse side, from source chunks of
    /// both widths, and level-wide — equals the row reference bit for bit.
    #[test]
    fn a_level_past_u16_rolls_up_bit_identically_at_both_widths() {
        let s = Arc::new(
            Schema::new(vec![
                Dimension::balanced("a", vec![1, 7, 70_000]).unwrap(),
                Dimension::flat("b", 3).unwrap(),
            ])
            .unwrap(),
        );
        let g = ChunkGrid::build(s.clone(), &[vec![1, 2, 4], vec![1, 2]]).unwrap();
        let lattice = s.lattice();
        let (base, base_level) = (lattice.base(), s.base_level());
        let mut cells = ChunkData::new(2);
        let edges = [0, NARROW_MAX - 1, NARROW_MAX, NARROW_MAX + 1, 69_999];
        let spread = (0..600u32).map(|i| i * 116_663 % 70_000);
        for (i, a) in edges.into_iter().chain(spread).enumerate() {
            cells.push(&[a, i as u32 % 3], 0.1 + i as f64 * 1e10 + (i as f64).sin());
        }
        let by_base = by_chunk(&g, base, &cells);
        let wide = |d: &ChunkData| matches!(d.stored_coords(), Coords::Wide(_));
        assert!(by_base.iter().any(wide) && by_base.iter().any(|d| !d.is_empty() && !wide(d)));
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
            for gb in lattice.iter_ids() {
                let level = lattice.level_of(gb);
                for chunk in 0..g.n_chunks(gb) {
                    let target = ChunkKey::new(gb, chunk);
                    let sources = sources_under(&g, target, base, &by_base);
                    let leveled: Vec<(&[u8], &ChunkData)> =
                        sources.iter().map(|&(_, d)| (&base_level[..], d)).collect();
                    let want = reference_rollup(&s, &leveled, &level, agg, Lift::Raw);
                    let past_u16 = g
                        .cell_box(gb, chunk)
                        .iter()
                        .any(|&(_, hi)| hi > NARROW_MAX + 1);
                    for expected_cells in [u64::MAX, 0] {
                        let got =
                            chunk_result(&g, target, &sources, agg, Lift::Raw, expected_cells);
                        let ctx = format!("{agg:?} {target:?} x{expected_cells}");
                        assert_same_bits(&got, &want, &ctx);
                        assert_eq!(wide(&got), past_u16, "{ctx}");
                    }
                }
                let all = [(&base_level[..], &cells)];
                let got = aggregate_to_level(&s, &all, &level, agg, Lift::Raw);
                let want = reference_rollup(&s, &all, &level, agg, Lift::Raw);
                assert_same_bits(&got, &want, &format!("{agg:?} level {level:?}"));
            }
        }
    }

    /// The rule is a function of (box cells, expected cells): dense up to
    /// and including a box twice the input, sparse from one cell beyond —
    /// a box of one cell included, and an empty input on either side
    /// finishes empty.
    #[test]
    fn dense_iff_the_box_is_at_most_twice_the_expected_input() {
        let g = grid();
        for gb in g.schema().lattice().iter_ids() {
            for chunk in 0..g.n_chunks(gb) {
                let cells: u64 = g
                    .cell_box(gb, chunk)
                    .iter()
                    .map(|&(lo, hi)| u64::from(hi - lo))
                    .product();
                let at = cells.div_ceil(DENSE_BOX_PER_INPUT_CELL);
                for (expected_cells, dense) in [(at, true), (at - 1, false), (u64::MAX, true)] {
                    let kernel = Aggregator::for_chunk(
                        &g,
                        ChunkKey::new(gb, chunk),
                        AggFn::Sum,
                        expected_cells,
                    );
                    assert_eq!(
                        kernel.is_dense(),
                        dense,
                        "{cells} cells, {expected_cells} expected"
                    );
                    assert_eq!(kernel.kernel.cells_added, 0);
                    assert!(kernel.finish().is_empty());
                }
            }
        }
        let top = ChunkKey::new(g.schema().lattice().top(), 0);
        assert!(Aggregator::for_chunk(&g, top, AggFn::Min, 1).is_dense());
        let whole_level = Aggregator::new(g.schema(), &[0, 0], AggFn::Min);
        assert!(matches!(whole_level.cells, Cells::Sparse(_)));
    }

    /// One special value per base cell, alone in its cell at the base
    /// level and meeting its neighbours at the aggregated ones; cells
    /// (2, 2) and (3, *) stay empty.
    fn special_cells() -> ChunkData {
        let specials = [
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
        ];
        let mut cells = ChunkData::new(2);
        for (i, &v) in specials.iter().enumerate() {
            cells.push(&[i as u32 / 3, i as u32 % 3], v);
        }
        cells
    }

    /// What the identity fill must not disturb: a lone `-0.0` comes back
    /// `-0.0` (a `+0.0` fill would answer `+0.0`), `±∞` and subnormals keep
    /// their bits, a cell nothing reached is absent (not an identity-valued
    /// cell), and a cell reached only by the identity's own value is
    /// present.
    #[test]
    fn special_values_keep_their_bits_on_both_sides() {
        let g = grid();
        let s = g.schema();
        let lattice = s.lattice();
        let base = lattice.base();
        let base_level = s.base_level();
        let by_base = by_chunk(&g, base, &special_cells());
        for agg in [AggFn::Sum, AggFn::Min, AggFn::Max] {
            for gb in lattice.iter_ids() {
                let level = lattice.level_of(gb);
                for chunk in 0..g.n_chunks(gb) {
                    let target = ChunkKey::new(gb, chunk);
                    let sources = sources_under(&g, target, base, &by_base);
                    let leveled: Vec<(&[u8], &ChunkData)> =
                        sources.iter().map(|&(_, d)| (&base_level[..], d)).collect();
                    let want = reference_rollup(s, &leveled, &level, agg, Lift::Raw);
                    for expected_cells in [u64::MAX, 0] {
                        let got =
                            chunk_result(&g, target, &sources, agg, Lift::Raw, expected_cells);
                        // `∞ + −∞` is the one NaN these inputs can make.
                        for (i, (c, v)) in got.iter().enumerate() {
                            assert_eq!(c, want.coords_of(i));
                            let w = want.value_of(i);
                            assert!(
                                (v.is_nan() && w.is_nan()) || v.to_bits() == w.to_bits(),
                                "{agg:?} {target:?} cell {c:?}: {v:e} vs {w:e}"
                            );
                        }
                        assert_eq!(got.len(), want.len());
                    }
                }
            }
        }
    }

    /// A source chunk holding a column once that the target box is live
    /// along — its value range in the source chunk is wider than one
    /// target value, so only the constant folds it — rolls up bit for bit
    /// as the reference does, dense and sparse, for every function and
    /// lift, whether one column or every column is held once.
    #[test]
    fn a_constant_column_live_in_the_target_is_bit_identical_to_the_reference() {
        let g = grid();
        let s = g.schema();
        let lattice = s.lattice();
        let (base, base_level) = (lattice.base(), s.base_level());
        // `b` is 0 or 2 only: constant within each base chunk, though the
        // first spans `b`-values 0 and 1. The second set also holds `a` once.
        let cell_sets = [
            (0..4u32).flat_map(|a| [[a, 0], [a, 2]]).collect::<Vec<_>>(),
            [0, 2u32]
                .into_iter()
                .flat_map(|a| [[a, 0], [a, 2]])
                .collect(),
        ];
        let full = [Column::Stored(0), Column::Stored(1)];
        let mut folded = 0;
        for set in &cell_sets {
            let mut cells = ChunkData::new(2);
            for (i, c) in set.iter().chain(set).enumerate() {
                let x = i as f64;
                cells.push(c, 0.1 + x * 1e10 + x.sin());
            }
            let by_base = by_chunk(&g, base, &cells);
            assert!(by_base.iter().any(|d| d.len() > 1 && d.stride() < 2));
            for gb in lattice.iter_ids() {
                let level = lattice.level_of(gb);
                for chunk in 0..g.n_chunks(gb) {
                    let target = ChunkKey::new(gb, chunk);
                    let sources = sources_under(&g, target, base, &by_base);
                    let cell_box = CellBox::of_chunk(&g, target);
                    folded += sources
                        .iter()
                        .filter(|(src, d)| {
                            let span = g.cell_box(src.gb, src.chunk);
                            let keyed = |cols: &[Column]| {
                                cell_box
                                    .source(&base_level, cols, |k| Some(span[k]))
                                    .dims
                                    .len()
                            };
                            !d.is_empty() && keyed(d.columns()) < keyed(&full)
                        })
                        .count();
                    let leveled: Vec<(&[u8], &ChunkData)> =
                        sources.iter().map(|&(_, d)| (&base_level[..], d)).collect();
                    for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
                        for lift in [Lift::Raw, Lift::Lifted] {
                            let want = reference_rollup(s, &leveled, &level, agg, lift);
                            for expected_cells in [u64::MAX, 0] {
                                let got =
                                    chunk_result(&g, target, &sources, agg, lift, expected_cells);
                                let ctx = format!("{agg:?} {lift:?} {target:?} x{expected_cells}");
                                assert_same_bits(&got, &want, &ctx);
                            }
                        }
                    }
                }
            }
        }
        assert!(folded > 0, "no source held a live column once");
    }

    /// Keys through the memoised tables equal "roll each coordinate up,
    /// subtract the box corner, Horner-encode": dead dimensions contribute
    /// nothing, a dimension the source span rolls up to one value along, or
    /// one the source holds once, is folded into the offset, and an empty
    /// input yields no key.
    #[test]
    fn source_keys_match_manual_encoding() {
        let s = schema();
        let from = [2u8, 1];
        let mut d = ChunkData::new(2);
        for i in 0..300u32 {
            d.push(&[2 + i % 2, i % 3], f64::from(i));
        }
        // Box: a-values {1} at level 1 (dead), b-values 0..3 at level 1.
        let dead_a = CellBox::new(&s, &[1, 1], [(1, 2), (0, 3)].into_iter());
        // Box: a-values 2..4, b-values 1..3 — a corner away from the origin.
        let corner = CellBox::new(&s, &[2, 1], [(2, 4), (1, 3)].into_iter());
        // Box: all of level (1,1); base a-values 2..4 all roll up to 1.
        let whole = CellBox::new(&s, &[1, 1], [(0, 2), (0, 3)].into_iter());
        // A one-cell or empty slice holds both its columns once: both fold.
        let cases = [
            (&dead_a, None, 0..d.len(), 1),
            (&corner, None, 1..3, 2),
            (&corner, None, 1..2, 0),
            (&corner, Some([(2, 4), (1, 2)]), 0..d.len(), 1),
            (&whole, Some([(2, 4), (0, 3)]), 0..d.len(), 1),
            (&whole, None, 0..0, 0),
        ];
        for (cell_box, span, range, dims_left) in cases {
            let mut slice = ChunkData::new(2);
            let mut want = Vec::new();
            for i in range {
                let c = d.coords_of(i);
                if span.is_some_and(|span| {
                    (0..2).any(|k| c.get(k) < span[k].0 || c.get(k) >= span[k].1)
                }) {
                    continue;
                }
                slice.push(c, d.value_of(i));
                let key: u64 = (0..2)
                    .map(|k| {
                        let up =
                            s.dimension(k)
                                .ancestor_value(from[k], cell_box.level[k], c.get(k));
                        cell_box.weights[k] * u64::from(up - cell_box.lo[k])
                    })
                    .sum();
                want.push((key, d.value_of(i)));
            }
            let keys = cell_box.source(&from, slice.columns(), |k| span.map(|span| span[k]));
            assert_eq!(keys.dims.len(), dims_left, "{span:?}");
            let mut got = Vec::new();
            keys.for_each_cell(&slice, |key, v| got.push((key, v)));
            assert_eq!(got, want, "{span:?}");
        }
    }

    /// Four functions, both lifts and both sides over one grid with chunk 0
    /// of `n` flat dimensions of 2 and 3 values, the first `live` at their
    /// base level and the rest rolled away: every arm of
    /// [`SourceKeys::for_each_cell`] and of the combine agrees with the row
    /// reference bit for bit — six dimensions reach the slice arm.
    #[test]
    fn every_ingest_arm_is_bit_identical_to_the_row_reference() {
        const N: usize = 6;
        let dims = (0..N).map(|d| Dimension::flat(format!("f{d}"), 2 + d as u32 % 2).unwrap());
        let schema = Arc::new(Schema::new(dims.collect()).unwrap());
        let g = ChunkGrid::build(schema, &vec![vec![1, 1]; N]).unwrap();
        let s = g.schema();
        let base = s.lattice().base();
        // Every base cell twice, in two orders, with jagged values.
        let mut cells = ChunkData::new(N);
        let all: u32 = (0..N).map(|d| 2 + d as u32 % 2).product();
        for pass in 0..2u32 {
            for i in 0..all {
                let j = if pass == 0 { i } else { (i * 7 + 3) % all };
                let mut rest = j;
                let c: Vec<u32> = (0..N as u32)
                    .map(|d| {
                        let v = rest % (2 + d % 2);
                        rest /= 2 + d % 2;
                        v
                    })
                    .collect();
                let x = f64::from(pass * all + i);
                cells.push(&c, 0.1 + x * 1e10 + x.sin());
            }
        }
        let sources = [(ChunkKey::new(base, 0), &cells)];
        let span = g.cell_box(base, 0);
        for live in 0..=N {
            let level: Vec<u8> = (0..N).map(|d| u8::from(d < live)).collect();
            let target = ChunkKey::new(s.lattice().id_of(&level).unwrap(), 0);
            let cell_box = CellBox::of_chunk(&g, target);
            assert_eq!(
                cell_box
                    .source(&s.base_level(), cells.columns(), |d| Some(span[d]))
                    .dims
                    .len(),
                live
            );
            for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
                for lift in [Lift::Raw, Lift::Lifted] {
                    let want =
                        reference_rollup(s, &[(&s.base_level()[..], &cells)], &level, agg, lift);
                    for expected_cells in [u64::MAX, 0] {
                        let got = chunk_result(&g, target, &sources, agg, lift, expected_cells);
                        let ctx = format!("{live} live {agg:?} {lift:?} x{expected_cells}");
                        assert_same_bits(&got, &want, &ctx);
                    }
                }
            }
        }
    }

    /// Under target chunk (1,1,1), base chunks 0 and 3 along `a` lie under
    /// one level-1 value each and chunks 1 and 2 straddle two, while every
    /// base chunk along `c` lies under one value: the fold fires for some
    /// sources of one aggregator and not for others, and every target of
    /// the grid still agrees with the row reference bit for bit.
    #[test]
    fn folded_dimensions_are_bit_identical_to_the_row_reference() {
        let schema = Schema::new(vec![
            Dimension::balanced("a", vec![1, 3, 12]).unwrap(),
            Dimension::flat("b", 3).unwrap(),
            Dimension::balanced("c", vec![1, 2, 4]).unwrap(),
        ])
        .unwrap();
        let g = ChunkGrid::build(
            Arc::new(schema),
            &[vec![1, 1, 4], vec![1, 1], vec![1, 1, 2]],
        )
        .unwrap();
        let s = g.schema();
        let lattice = s.lattice();
        let base = lattice.base();
        let base_level = s.base_level();
        let mut cells = ChunkData::new(3);
        for n in 0..2 * 144u32 {
            let j = n * 97 % 144;
            let x = f64::from(n);
            cells.push(&[j % 12, j / 12 % 3, j / 36], 0.1 + x * 1e10 + x.sin());
        }
        let by_base = by_chunk(&g, base, &cells);
        let mid = ChunkKey::new(lattice.id_of(&[1, 1, 1]).unwrap(), 0);
        let mid_box = CellBox::of_chunk(&g, mid);
        let left: BTreeSet<usize> = sources_under(&g, mid, base, &by_base)
            .iter()
            .map(|(src, data)| {
                let span = g.cell_box(src.gb, src.chunk);
                mid_box
                    .source(&base_level, data.columns(), |d| Some(span[d]))
                    .dims
                    .len()
            })
            .collect();
        assert_eq!(left, BTreeSet::from([1, 2]));
        for gb in lattice.iter_ids() {
            let level = lattice.level_of(gb);
            for chunk in 0..g.n_chunks(gb) {
                let target = ChunkKey::new(gb, chunk);
                let sources = sources_under(&g, target, base, &by_base);
                let leveled: Vec<(&[u8], &ChunkData)> =
                    sources.iter().map(|&(_, d)| (&base_level[..], d)).collect();
                for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
                    for lift in [Lift::Raw, Lift::Lifted] {
                        let want = reference_rollup(s, &leveled, &level, agg, lift);
                        for expected_cells in [u64::MAX, 0] {
                            let got = chunk_result(&g, target, &sources, agg, lift, expected_cells);
                            let ctx = format!("{agg:?} {lift:?} {target:?} x{expected_cells}");
                            assert_same_bits(&got, &want, &ctx);
                        }
                    }
                }
            }
        }
    }

    /// `jagged_cells`' coordinates at each value width: `f64` if `wide`.
    /// At `u16` the values are whole numbers up to 65,535 whose sums pass
    /// it; at `f64` a `-0.0` and a NaN are among the jagged values, which
    /// make a SUM's bits depend on its order.
    fn jagged_cells_at(wide: bool) -> ChunkData {
        let mut cells = ChunkData::new(2);
        for (i, (c, v)) in jagged_cells().iter().enumerate() {
            let v = match (wide, i) {
                (false, _) => (i * 40_009 % 65_536) as f64,
                (_, 4) => -0.0,
                (_, 7) => f64::NAN,
                (true, _) => v,
            };
            cells.push(c, v);
        }
        assert_eq!(is_wide(cells.raw_values()), wide);
        cells
    }

    /// Whether `values` are held at `f64`.
    fn is_wide(values: Values) -> bool {
        matches!(values, Values::Wide(_))
    }

    /// The value widths, `u16` then `f64`.
    const WIDTHS: [bool; 2] = [false, true];

    /// A source chunk every cell of which lands on one target cell is
    /// folded in a register on the dense side; at each value width it
    /// answers the row reference's bits, and so does the sparse side.
    #[test]
    fn a_fully_folded_source_chunk_is_bit_identical_at_each_value_width() {
        let g = grid();
        let s = g.schema();
        let lattice = s.lattice();
        let (base, base_level) = (lattice.base(), s.base_level());
        for wide in WIDTHS {
            let by_base = by_chunk(&g, base, &jagged_cells_at(wide));
            let mut folded = 0;
            for gb in lattice.iter_ids() {
                let level = lattice.level_of(gb);
                for chunk in 0..g.n_chunks(gb) {
                    let target = ChunkKey::new(gb, chunk);
                    let sources = sources_under(&g, target, base, &by_base);
                    let cell_box = CellBox::of_chunk(&g, target);
                    folded += sources
                        .iter()
                        .filter(|(src, d)| {
                            let span = g.cell_box(src.gb, src.chunk);
                            d.len() > 1
                                && cell_box
                                    .source(&base_level, d.columns(), |d| Some(span[d]))
                                    .dims
                                    .is_empty()
                        })
                        .count();
                    let leveled: Vec<(&[u8], &ChunkData)> =
                        sources.iter().map(|&(_, d)| (&base_level[..], d)).collect();
                    for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
                        for lift in [Lift::Raw, Lift::Lifted] {
                            let want = reference_rollup(s, &leveled, &level, agg, lift);
                            for expected_cells in [u64::MAX, 0] {
                                let got =
                                    chunk_result(&g, target, &sources, agg, lift, expected_cells);
                                let ctx = format!(
                                    "wide {wide} {agg:?} {lift:?} {target:?} x{expected_cells}"
                                );
                                assert_same_bits(&got, &want, &ctx);
                            }
                        }
                    }
                }
            }
            assert!(folded > 10, "{folded} fully folded source chunks");
        }
    }

    /// Source chunks at each value width in one aggregator — per chunk on
    /// both sides, and level-wide — answer the row reference's bits; the
    /// output is at the narrowest width that holds every output value.
    #[test]
    fn narrow_and_wide_sources_mix_in_one_aggregator() {
        let g = grid();
        let s = g.schema();
        let lattice = s.lattice();
        let (base, base_level) = (lattice.base(), s.base_level());
        let by_width = WIDTHS.map(|w| by_chunk(&g, base, &jagged_cells_at(w)));
        let mixed: Vec<ChunkData> = (0..by_width[0].len())
            .map(|c| by_width[c % WIDTHS.len()][c].clone())
            .collect();
        for w in WIDTHS {
            assert!(mixed
                .iter()
                .any(|d| !d.is_empty() && is_wide(d.raw_values()) == w));
        }
        let narrowest = |d: &ChunkData| is_wide(d.raw_values()) != d.raw_values().fits_u16();
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
            for lift in [Lift::Raw, Lift::Lifted] {
                for gb in lattice.iter_ids() {
                    let level = lattice.level_of(gb);
                    for chunk in 0..g.n_chunks(gb) {
                        let target = ChunkKey::new(gb, chunk);
                        let sources = sources_under(&g, target, base, &mixed);
                        let leveled: Vec<(&[u8], &ChunkData)> =
                            sources.iter().map(|&(_, d)| (&base_level[..], d)).collect();
                        let want = reference_rollup(s, &leveled, &level, agg, lift);
                        for expected_cells in [u64::MAX, 0] {
                            let got = chunk_result(&g, target, &sources, agg, lift, expected_cells);
                            let ctx = format!("{agg:?} {lift:?} {target:?} x{expected_cells}");
                            assert_same_bits(&got, &want, &ctx);
                            assert!(narrowest(&got), "{ctx}");
                        }
                    }
                    let all: Vec<(&[u8], &ChunkData)> =
                        mixed.iter().map(|d| (&base_level[..], d)).collect();
                    let got = aggregate_to_level(s, &all, &level, agg, lift);
                    let want = reference_rollup(s, &all, &level, agg, lift);
                    let ctx = format!("{agg:?} {lift:?} level {level:?}");
                    assert_same_bits(&got, &want, &ctx);
                    assert!(narrowest(&got), "{ctx}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not roll up into target chunk")]
    fn for_chunk_refuses_a_source_chunk_from_elsewhere() {
        let g = grid();
        let lattice = g.schema().lattice();
        let mid = lattice.id_of(&[1, 1]).unwrap();
        // Base chunk 3 lies under (1,1) chunk 3, not chunk 0.
        assert_eq!(g.ascend_chunk(lattice.base(), 3, mid), 3);
        let mut kernel = Aggregator::for_chunk(&g, ChunkKey::new(mid, 0), AggFn::Sum, u64::MAX);
        let stray = ChunkData::new(2);
        kernel.add_source_chunk(ChunkKey::new(lattice.base(), 3), &stray, Lift::Raw);
    }

    /// The sparse side at scale: 4,000 cells from four sources, each base
    /// cell arriving two or three times in scrambled order — across sources
    /// and out of key order — with jagged values and every special value,
    /// NaN included. The base box is 4 · 256 · 256 = 2¹⁸ cells with weights
    /// 2¹⁶, 2⁸, 1, so a key's bytes are its coordinates: three radix
    /// digits, and when every cell has the same `b`, a digit every key
    /// shares. Reordering equal keys flips SUM bits.
    #[test]
    fn sparse_side_is_bit_identical_to_the_row_reference_at_scale() {
        let s = Schema::new(vec![
            Dimension::balanced("a", vec![1, 2, 4]).unwrap(),
            Dimension::flat("b", 256).unwrap(),
            Dimension::balanced("c", vec![1, 16, 256]).unwrap(),
        ])
        .unwrap();
        let specials = [
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            f64::NAN,
        ];
        let base_level = s.base_level();
        for shared_b in [None, Some(7)] {
            let sources: Vec<ChunkData> = (0..4u64)
                .map(|src| {
                    let mut d = ChunkData::new(3);
                    for n in src * 1000..(src + 1) * 1000 {
                        let j = (n * 2_654_435_761 % 1500) as u32;
                        let b = shared_b.unwrap_or(j / 4 % 256);
                        let v = if n % 61 == 0 {
                            specials[(n / 61) as usize % specials.len()]
                        } else {
                            let x = n as f64;
                            (0.1 + x * 1e10 + x.sin()) * if n % 2 == 0 { 1.0 } else { -1.0 }
                        };
                        d.push(&[j % 4, b, j * 131 % 256], v);
                    }
                    d
                })
                .collect();
            let leveled: Vec<(&[u8], &ChunkData)> =
                sources.iter().map(|d| (&base_level[..], d)).collect();
            for target in [[2u8, 1, 2], [1, 1, 2], [2, 1, 1], [2, 0, 2], [0, 0, 0]] {
                for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
                    for lift in [Lift::Raw, Lift::Lifted] {
                        let mut kernel = Aggregator::new(&s, &target, agg);
                        for d in &sources {
                            kernel.add_chunk(&base_level, d, lift);
                        }
                        let want = reference_rollup(&s, &leveled, &target, agg, lift);
                        let ctx = format!("b {shared_b:?} {agg:?} {lift:?} {target:?}");
                        assert_same_bits(&kernel.finish(), &want, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn output_is_sorted_by_coords() {
        let s = schema();
        let mut d = ChunkData::new(2);
        d.push(&[3, 2], 1.0);
        d.push(&[0, 0], 1.0);
        d.push(&[1, 2], 1.0);
        let out = aggregate_to_level(&s, &[(&[2, 1], &d)], &[2, 1], AggFn::Sum, Lift::Raw);
        let mut prev: Option<Vec<u32>> = None;
        for (c, _) in out.iter() {
            if let Some(p) = &prev {
                assert!(p.as_slice() < &c.to_vec()[..]);
            }
            prev = Some(c.to_vec());
        }
    }
}
