use aggcache_chunks::hash::FxBuildHasher;
use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey};
use aggcache_obs::{Event, Tracer};
use aggcache_schema::Schema;
use std::collections::HashMap;
use std::time::Instant;

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
    pub fn identity(self) -> f64 {
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
    /// [`AggFn::identity`], and MIN/MAX answer the canonical `f64::NAN`.
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
///
/// An aggregator may own only a *share* of its box ([`CellBox::share`]):
/// the keys `first..first + mine`, re-keyed from 0.
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
    /// `Σ_d weights[d] · lo[d] + first`: the key of the share's first cell
    /// in level-wide terms, subtracted once per cell.
    base: u64,
    /// The whole-box key of the share's first cell.
    first: u64,
    /// Cells in the share: a cell is this aggregator's iff its key is below it.
    mine: u64,
}

/// How the cells of one source level key into a [`CellBox`]: per live
/// dimension its index, the dimension's memoised roll-up table and the box
/// weight, and the box's `base`.
struct SourceKeys<'s> {
    dims: Vec<(usize, &'s [u32], u64)>,
    base: u64,
    /// The share's `first` and the cells of the whole box: every key plus
    /// the former is below the latter.
    first: u64,
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
            first: 0,
            mine: cells,
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

    /// Part `p` of `of` of a whole box: a contiguous run of whole rows,
    /// keyed from 0 by moving the corner every key subtracts to its first
    /// cell. The parts, in order, tile the box; with fewer rows than parts
    /// some own nothing.
    fn share(mut self, p: usize, of: usize) -> Self {
        let row_len = u64::from(self.len[self.inner()]);
        let rows = u128::from(self.cells / row_len);
        let key_at = |p: usize| (p as u128 * rows / of as u128) as u64 * row_len;
        self.first = key_at(p);
        self.mine = key_at(p + 1) - self.first;
        self.base += self.first;
        self
    }

    fn source(&self, from: &[u8]) -> SourceKeys<'s> {
        let dim = |&d: &usize| {
            let dimension = self.schema.dimension(d);
            let table = dimension.composed_rollup(from[d], self.level[d]);
            (d, table, self.weights[d])
        };
        SourceKeys {
            dims: self.live.iter().map(dim).collect(),
            base: self.base,
            first: self.first,
            cells: self.cells,
        }
    }

    /// The coordinates of the share's cell `key`, into `out` (which already
    /// holds `lo` along every dead dimension).
    #[inline]
    fn decode(&self, key: u64, out: &mut [u32]) {
        let mut key = self.first + key;
        for &d in &self.live {
            out[d] = self.lo[d] + (key / self.weights[d]) as u32;
            key %= self.weights[d];
        }
        debug_assert!((0..out.len()).all(|d| out[d] - self.lo[d] < self.len[d]));
    }
}

/// Cells keyed per pass of [`SourceKeys::keyed_blocks`]: the key scratch
/// stays in L1 beside the slice of each column it is computed from.
const KEY_BLOCK: usize = 256;

impl SourceKeys<'_> {
    /// Hands `sink` the target keys and raw values of the cells of `data`,
    /// in order, a block at a time straight off the columnar arrays. Keys
    /// are computed one live dimension at a time — a lookup and a
    /// multiply-add per cell, table and weight in registers — and equal
    /// "roll each coordinate up, then Horner-encode", less the share's
    /// `first`: a cell of the box before the share wraps past any share's
    /// size, one after it keys at `mine` or more. Which cells lie in the box
    /// is a per-*chunk* check ([`Aggregator::add_source_chunk`]).
    #[inline]
    fn keyed_blocks(&self, data: &ChunkData, mut sink: impl FnMut(&[u64], &[f64])) {
        let n = data.n_dims();
        let mut keys = [0u64; KEY_BLOCK];
        let blocks = data.raw_coords().chunks(KEY_BLOCK * n);
        for (coords, values) in blocks.zip(data.raw_values().chunks(KEY_BLOCK)) {
            let keys = &mut keys[..values.len()];
            keys.fill(0u64.wrapping_sub(self.base));
            for &(d, table, w) in &self.dims {
                for (key, c) in keys.iter_mut().zip(coords.chunks_exact(n)) {
                    *key = key.wrapping_add(w * u64::from(table[c[d] as usize]));
                }
            }
            debug_assert!(
                keys.iter()
                    .all(|&key| key.wrapping_add(self.first) < self.cells),
                "a source cell rolls up outside the target box"
            );
            sink(keys, values);
        }
    }
}

/// `(key, cube value)` pairs of one keyed block: raw fact measures lifted.
#[inline]
fn lifted<'a>(
    keys: &'a [u64],
    values: &'a [f64],
    agg: AggFn,
    lift: Lift,
) -> impl Iterator<Item = (u64, f64)> + 'a {
    keys.iter().zip(values).map(move |(&key, &v)| match lift {
        Lift::Raw => (key, agg.lift(v)),
        Lift::Lifted => (key, v),
    })
}

type CellMap = HashMap<u64, f64, FxBuildHasher>;

/// A target box at most this many times the cells about to be rolled into
/// it is held dense. 2, 8 and 32 measured within 2 % of each other on the
/// complete-hit workload, so the smallest: ≤ 18 transient bytes per input cell.
const DENSE_BOX_PER_INPUT_CELL: u64 = 2;

/// The target cells of one aggregation, keyed by [`CellBox`] key.
enum Cells {
    /// One slot per cell of the box, pre-filled with [`AggFn::identity`],
    /// plus a map of the slots some input cell reached — a byte each, not
    /// a bit: a store with no load, where a bitmap makes every add a
    /// read-modify-write of a word all its neighbours share.
    Dense { vals: Vec<f64>, occupied: Vec<u8> },
    /// Only the cells reached, for a box much larger than its input.
    Sparse(CellMap),
}

impl Cells {
    /// The ingest loop: combines each pair into its target cell, in order.
    /// The dense side has no first-touch test — combining into the
    /// identity *is* the first touch — so it has no data-dependent branch.
    #[inline]
    fn fold(&mut self, agg: AggFn, pairs: impl Iterator<Item = (u64, f64)>) {
        match self {
            Cells::Dense { vals, occupied } => {
                for (key, v) in pairs {
                    let k = key as usize;
                    vals[k] = agg.combine(vals[k], v);
                    occupied[k] = 1;
                }
            }
            Cells::Sparse(map) => {
                for (key, v) in pairs {
                    map.entry(key)
                        .and_modify(|acc| *acc = agg.combine(*acc, v))
                        .or_insert(v);
                }
            }
        }
    }
}

/// Streaming aggregator rolling cells from arbitrary source levels up to
/// one target level.
///
/// This is the aggregation kernel shared by the backend (fact tuples →
/// requested chunks) and the cache executor (cached chunks at mixed levels →
/// a computed chunk). Costs are linear in the number of cells added,
/// matching the paper's §5 cost model.
pub struct Aggregator<'s> {
    cell_box: CellBox<'s>,
    /// The grid and target chunk of an aggregator built by
    /// [`Aggregator::for_chunk`]: what every source chunk is checked
    /// against.
    chunk: Option<(&'s ChunkGrid, ChunkKey)>,
    agg: AggFn,
    cells: Cells,
    cells_added: u64,
}

impl<'s> Aggregator<'s> {
    /// Creates an aggregator producing cells anywhere at level `target`
    /// with `agg`: the box is the whole level, held sparse.
    pub fn new(schema: &'s Schema, target: &[u8], agg: AggFn) -> Self {
        Self::share(CellBox::whole_level(schema, target), None, agg, 0, (0, 1))
    }

    /// Creates an aggregator producing the cells of one chunk, `target`,
    /// from source chunks lying under it ([`Aggregator::add_source_chunk`]).
    /// By the closure property every such cell lands in the chunk's
    /// [`ChunkGrid::cell_box`]: cells are keyed relative to that box and,
    /// when it is at most twice `expected_cells` (the cells about to be
    /// added), accumulated in a dense array instead of a hash map — a
    /// choice [`Aggregator::finish`] never shows ([`AggFn::combine`]).
    pub fn for_chunk(
        grid: &'s ChunkGrid,
        target: ChunkKey,
        agg: AggFn,
        expected_cells: u64,
    ) -> Self {
        let chunk = Some((grid, target));
        let cell_box = CellBox::of_chunk(grid, target);
        Self::share(cell_box, chunk, agg, expected_cells, (0, 1))
    }

    /// An aggregator owning part `p` of `of` of `cell_box`
    /// ([`CellBox::share`]). Dense or sparse is decided on the *whole* box,
    /// so every share holds its cells the way the undivided aggregator
    /// would — the same representation, hence the same bits.
    fn share(
        cell_box: CellBox<'s>,
        chunk: Option<(&'s ChunkGrid, ChunkKey)>,
        agg: AggFn,
        expected_cells: u64,
        (p, of): (usize, usize),
    ) -> Self {
        let dense = cell_box.cells <= DENSE_BOX_PER_INPUT_CELL.saturating_mul(expected_cells);
        let cell_box = cell_box.share(p, of);
        let cells = if dense {
            let slots = usize::try_from(cell_box.mine).expect("a dense box is addressable");
            Cells::Dense {
                vals: vec![agg.identity(); slots],
                occupied: vec![0; slots],
            }
        } else {
            Cells::Sparse(CellMap::default())
        };
        Self {
            cell_box,
            chunk,
            agg,
            cells,
            cells_added: 0,
        }
    }

    /// Adds an entire [`ChunkData`] of cells at level `from`, rolling them
    /// up into the target level: cells stream off the columnar arrays
    /// against the dimensions' memoised roll-up tables and those the
    /// aggregator owns combine into their target cells in input order.
    pub fn add_chunk(&mut self, from: &[u8], data: &ChunkData, lift: Lift) {
        self.cells_added += data.len() as u64;
        let (agg, cells, mine) = (self.agg, &mut self.cells, self.cell_box.mine);
        if mine == 0 {
            return;
        }
        let whole = mine == self.cell_box.cells;
        self.cell_box
            .source(from)
            .keyed_blocks(data, |keys, values| {
                let pairs = lifted(keys, values, agg, lift);
                if whole {
                    cells.fold(agg, pairs)
                } else {
                    cells.fold(agg, pairs.filter(|&(key, _)| key < mine))
                }
            });
    }

    /// [`Aggregator::add_chunk`] for the cells of source chunk `src` — a
    /// cached chunk, or one chunk's run of the fact table — into an
    /// aggregator built by [`Aggregator::for_chunk`].
    ///
    /// # Panics
    ///
    /// In release builds too, unless `src` rolls up into the target chunk:
    /// a cell from elsewhere would land outside the box or, worse, on a
    /// neighbour inside it. By closure that is O(dims) per chunk, not per cell.
    pub fn add_source_chunk(&mut self, src: ChunkKey, data: &ChunkData, lift: Lift) {
        let (grid, target) = self
            .chunk
            .expect("add_source_chunk needs an aggregator built by for_chunk");
        assert!(
            grid.schema().lattice().computable_from(target.gb, src.gb)
                && grid.ascend_chunk(src.gb, src.chunk, target.gb) == target.chunk,
            "source chunk {src:?} does not roll up into target chunk {target:?}"
        );
        self.add_chunk(grid.geom(src.gb).level(), data, lift);
    }

    /// Number of input cells consumed so far — the paper's aggregation cost
    /// unit ("number of tuples aggregated").
    pub fn cells_added(&self) -> u64 {
        self.cells_added
    }

    /// Finishes into coordinate-sorted [`ChunkData`] at the target level.
    /// Row-major box keys *are* coordinate order: the dense side walks its
    /// slots in place — no collect, no sort — dividing once per row. So the
    /// shares of a box, finished and appended in order, are the box.
    pub fn finish(self) -> ChunkData {
        let cell_box = &self.cell_box;
        let n = cell_box.lo.len();
        let mut coords = cell_box.lo.clone();
        match self.cells {
            Cells::Dense { vals, occupied } => {
                let reached = occupied.iter().filter(|&&o| o != 0).count();
                let mut out = ChunkData::with_capacity(n, reached);
                let inner = cell_box.inner();
                let row_len = cell_box.len[inner] as usize;
                for (row, slots) in occupied.chunks(row_len).enumerate() {
                    if slots.iter().all(|&o| o == 0) {
                        continue;
                    }
                    let start = row * row_len;
                    cell_box.decode(start as u64, &mut coords);
                    for (i, _) in slots.iter().enumerate().filter(|&(_, &o)| o != 0) {
                        coords[inner] = cell_box.lo[inner] + i as u32;
                        out.push(&coords, vals[start + i]);
                    }
                }
                out
            }
            Cells::Sparse(map) => {
                let mut cells: Vec<(u64, f64)> = map.into_iter().collect();
                cells.sort_unstable_by_key(|&(key, _)| key);
                let mut out = ChunkData::with_capacity(n, cells.len());
                for (key, v) in cells {
                    cell_box.decode(key, &mut coords);
                    out.push(&coords, v);
                }
                out
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.cells, Cells::Dense { .. })
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
    aggregate_to_level_parallel(schema, sources, target, agg, lift, 1).0
}

/// [`aggregate_to_level`] on `threads` workers, each owning a share of the
/// level-wide box ([`aggregate_to_chunk`] has the argument). Returns the
/// aggregated cells and the number of input cells consumed (the paper's
/// aggregation cost).
pub fn aggregate_to_level_parallel(
    schema: &Schema,
    sources: &[(&[u8], &ChunkData)],
    target: &[u8],
    agg: AggFn,
    lift: Lift,
    threads: usize,
) -> (ChunkData, u64) {
    let cells = in_shares(threads, None, |part| {
        let cell_box = CellBox::whole_level(schema, target);
        let mut share = Aggregator::share(cell_box, None, agg, 0, part);
        for (level, data) in sources {
            share.add_chunk(level, data, lift);
        }
        share
    });
    (cells, sources.iter().map(|(_, d)| d.len() as u64).sum())
}

/// Rolls `sources` — chunks lying under `target` — up into that chunk's
/// cells on `threads` workers, the caller being the first. Returns the
/// cells and the number of input cells consumed.
///
/// One kernel at any thread count: worker `p` builds share `p` of the
/// [`Aggregator::for_chunk`] box (a run of its rows), is fed **every**
/// source, and combines only the cells it owns, in input order. Each cell
/// so has one owner, which sees its contributions in the sequential order
/// and holds it the way the undivided box would: the shares appended in
/// order are bit-identical to `threads = 1`, floating-point SUM included.
/// The price: every worker keys all of the input (`threads ×` the keying
/// in total), so two threads match one per tuple rather than halve it.
/// With a `tracer` and `threads > 1`, each worker emits one `ShardAgg`.
///
/// # Panics
///
/// As [`Aggregator::add_source_chunk`], once per source per worker.
pub fn aggregate_to_chunk(
    grid: &ChunkGrid,
    target: ChunkKey,
    sources: &[(ChunkKey, &ChunkData)],
    agg: AggFn,
    lift: Lift,
    threads: usize,
    tracer: Option<&dyn Tracer>,
) -> (ChunkData, u64) {
    let expected = sources.iter().map(|(_, d)| d.len() as u64).sum();
    let cells = in_shares(threads, tracer, |part| {
        let cell_box = CellBox::of_chunk(grid, target);
        let mut share = Aggregator::share(cell_box, Some((grid, target)), agg, expected, part);
        for &(src, data) in sources {
            share.add_source_chunk(src, data, lift);
        }
        share
    });
    (cells, expected)
}

/// Runs `fill((p, of))` — share `p` of `of` of one box, fed every source —
/// on `of = threads` scoped workers and appends the finished shares in
/// order.
fn in_shares<'s>(
    threads: usize,
    tracer: Option<&dyn Tracer>,
    fill: impl Fn((usize, usize)) -> Aggregator<'s> + Sync,
) -> ChunkData {
    let of = threads.max(1);
    let work = |p: usize| {
        let start = Instant::now();
        let cells = fill((p, of)).finish();
        if let Some(tracer) = tracer.filter(|_| of > 1) {
            tracer.emit(&Event::ShardAgg {
                shard: p as u32,
                shards: of as u32,
                cells: cells.len() as u64,
                wall_ns: start.elapsed().as_nanos() as u64,
            });
        }
        cells
    };
    std::thread::scope(|s| {
        let work = &work;
        let others: Vec<_> = (1..of).map(|p| s.spawn(move || work(p))).collect();
        let mut cells = work(0);
        for other in others {
            // A worker's panic (a source from elsewhere) is the caller's.
            cells.append(
                &other
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        cells
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aggcache_schema::{Dimension, GroupById};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("a", vec![1, 2, 4]).unwrap(),
                    Dimension::flat("b", 3).unwrap(),
                ],
                "m",
            )
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
            let cc: Vec<u32> = (0..c.len())
                .map(|d| grid.dim(d).chunk_of_value(geom.level()[d], c[d]))
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
        grid.enumerate_region(gb, &grid.cover_at(target.gb, target.chunk, gb))
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
        assert_eq!(kernel.cells_added(), added as u64);
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
                            .ancestor_value(from[d], target[d], coords[d])
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
            if c[0] < 2 {
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
    fn sharded_merge_is_bit_identical_to_sequential() {
        let s = schema();
        let jagged = jagged_cells();
        let sources: [(&[u8], &ChunkData); 1] = [(&[2, 1], &jagged)];
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
            for target in [[0u8, 0], [1, 1], [2, 1], [0, 1]] {
                let expected = aggregate_to_level(&s, &sources, &target, agg, Lift::Raw);
                for threads in [1usize, 2, 3, 8] {
                    let (got, cells) =
                        aggregate_to_level_parallel(&s, &sources, &target, agg, Lift::Raw, threads);
                    assert_eq!(cells, jagged.len() as u64);
                    assert_same_bits(
                        &got,
                        &expected,
                        &format!("{agg:?} {target:?} threads={threads}"),
                    );
                }
            }
        }
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

    /// The shares of a box — each fed every source, finished, appended in
    /// order — are the undivided `for_chunk` result, bit for bit: every
    /// target chunk of the test grid and of one with a single chunk per
    /// level (a base box of four rows), dense and sparse, cut in 2, 3 and 8,
    /// over jagged sums and over −0.0, ±∞, subnormals and a NaN.
    #[test]
    fn shares_appended_in_order_are_the_undivided_box() {
        let mut specials = special_cells();
        specials.push(&[2, 2], f64::NAN);
        let one_chunk = ChunkGrid::build(schema(), &[vec![1, 1, 1], vec![1, 1]]).unwrap();
        let (mut one_cell, mut outermost_only, mut most_rows) = (false, false, 0);
        for g in [grid(), one_chunk] {
            let lattice = g.schema().lattice();
            let base = lattice.base();
            for cells in [jagged_cells(), specials.clone()] {
                let by_base = by_chunk(&g, base, &cells);
                for gb in lattice.iter_ids() {
                    for chunk in 0..g.n_chunks(gb) {
                        let target = ChunkKey::new(gb, chunk);
                        let whole = CellBox::of_chunk(&g, target);
                        one_cell |= whole.cells == 1;
                        outermost_only |= whole.live == [0];
                        most_rows =
                            most_rows.max(whole.cells / u64::from(whole.len[whole.inner()]));
                        let sources = sources_under(&g, target, base, &by_base);
                        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
                            for expected_cells in [u64::MAX, 0] {
                                let want = chunk_result(
                                    &g,
                                    target,
                                    &sources,
                                    agg,
                                    Lift::Raw,
                                    expected_cells,
                                );
                                for of in [2usize, 3, 8] {
                                    let mut got = ChunkData::new(2);
                                    let mut owned = 0;
                                    for p in 0..of {
                                        let mut share = Aggregator::share(
                                            CellBox::of_chunk(&g, target),
                                            Some((&g, target)),
                                            agg,
                                            expected_cells,
                                            (p, of),
                                        );
                                        assert_eq!(share.is_dense(), expected_cells > 0);
                                        assert_eq!(share.cell_box.first, owned);
                                        owned += share.cell_box.mine;
                                        for &(src, data) in &sources {
                                            share.add_source_chunk(src, data, Lift::Raw);
                                        }
                                        got.append(&share.finish());
                                    }
                                    assert_eq!(owned, whole.cells);
                                    let ctx = format!("{agg:?} {target:?} x{expected_cells} /{of}");
                                    assert_same_bits(&got, &want, &ctx);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Among them: a one-cell box, a box live along the outermost
        // dimension only, and none with as many rows as the widest cut.
        assert!(one_cell && outermost_only);
        assert_eq!(most_rows, 4);
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
                    assert_eq!(kernel.cells_added(), 0);
                    assert!(kernel.finish().is_empty());
                }
            }
        }
        let top = ChunkKey::new(g.schema().lattice().top(), 0);
        assert!(Aggregator::for_chunk(&g, top, AggFn::Min, 1).is_dense());
        assert!(!Aggregator::new(g.schema(), &[0, 0], AggFn::Min).is_dense());
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

    /// Keys through the memoised tables equal "roll each coordinate up,
    /// subtract the box corner, Horner-encode" — across block boundaries
    /// and for inputs that end mid-block, dead dimensions contributing
    /// nothing.
    #[test]
    fn keyed_blocks_match_manual_encoding() {
        let s = schema();
        let mut d = ChunkData::new(2);
        for i in 0..(2 * KEY_BLOCK as u32 + 44) {
            d.push(&[2 + i % 2, i % 3], f64::from(i));
        }
        // Box: a-values {1} at level 1 (dead), b-values 0..3 at level 1.
        let dead_a = CellBox::new(&s, &[1, 1], [(1, 2), (0, 3)].into_iter());
        // Box: a-values 2..4, b-values 1..3 — a corner away from the origin.
        let corner = CellBox::new(&s, &[2, 1], [(2, 4), (1, 3)].into_iter());
        for (cell_box, range) in [
            (&dead_a, 0..d.len()),
            (&dead_a, 3..KEY_BLOCK + 9),
            (&corner, 1..2),
        ] {
            let mut slice = ChunkData::new(2);
            let mut want = Vec::new();
            for i in range {
                slice.push(d.coords_of(i), d.value_of(i));
                let key: u64 = (0..2)
                    .map(|k| {
                        let to = cell_box.level[k];
                        let up = s
                            .dimension(k)
                            .ancestor_value([2, 1][k], to, d.coords_of(i)[k]);
                        cell_box.weights[k] * u64::from(up - cell_box.lo[k])
                    })
                    .sum();
                want.push((key, d.value_of(i)));
            }
            let mut got = Vec::new();
            cell_box
                .source(&[2, 1])
                .keyed_blocks(&slice, |keys, values| {
                    got.extend(lifted(keys, values, AggFn::Sum, Lift::Raw));
                });
            assert_eq!(got, want);
        }
        assert_eq!(dead_a.source(&[2, 1]).dims.len(), 1);
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
                assert!(p.as_slice() < c);
            }
            prev = Some(c.to_vec());
        }
    }
}
