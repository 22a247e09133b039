use aggcache_chunks::hash::FxBuildHasher;
use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey};
use aggcache_schema::Schema;
use std::collections::HashMap;
use std::ops::Range;

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
    /// `Σ_d weights[d] · lo[d]`: the key of the box's corner in level-wide
    /// terms, subtracted once per cell.
    base: u64,
}

/// How the cells of one source level key into a [`CellBox`]: per live
/// dimension its index, the dimension's memoised roll-up table and the box
/// weight, and the box's `base`.
struct SourceKeys<'s> {
    dims: Vec<(usize, &'s [u32], u64)>,
    base: u64,
    /// Cells in the box: every key is below it.
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

    fn source(&self, from: &[u8]) -> SourceKeys<'s> {
        let dim = |&d: &usize| {
            let dimension = self.schema.dimension(d);
            let table = dimension.composed_rollup(from[d], self.level[d]);
            (d, table, self.weights[d])
        };
        SourceKeys {
            dims: self.live.iter().map(dim).collect(),
            base: self.base,
            cells: self.cells,
        }
    }

    /// The coordinates of the cell `key`, into `out` (which already holds
    /// `lo` along every dead dimension).
    #[inline]
    fn decode(&self, mut key: u64, out: &mut [u32]) {
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
    /// Hands `sink` the target keys and raw values of the cells `range` of
    /// `data`, in order, a block at a time straight off the columnar arrays.
    /// Keys are computed one live dimension at a time — a lookup and a
    /// multiply-add per cell, table and weight in registers — and equal
    /// "roll each coordinate up, then Horner-encode". Which cells lie in the
    /// box is a per-*chunk* check ([`Aggregator::add_source_chunk`]).
    #[inline]
    fn keyed_blocks(
        &self,
        data: &ChunkData,
        range: Range<usize>,
        mut sink: impl FnMut(&[u64], &[f64]),
    ) {
        let n = data.n_dims();
        let mut keys = [0u64; KEY_BLOCK];
        for start in range.clone().step_by(KEY_BLOCK) {
            let end = range.end.min(start + KEY_BLOCK);
            let keys = &mut keys[..end - start];
            keys.fill(0u64.wrapping_sub(self.base));
            let coords = &data.raw_coords()[start * n..end * n];
            for &(d, table, w) in &self.dims {
                for (key, c) in keys.iter_mut().zip(coords.chunks_exact(n)) {
                    *key = key.wrapping_add(w * u64::from(table[c[d] as usize]));
                }
            }
            debug_assert!(
                keys.iter().all(|&key| key < self.cells),
                "a source cell rolls up outside the target box"
            );
            sink(keys, &data.raw_values()[start..end]);
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
        Self {
            cell_box: CellBox::whole_level(schema, target),
            chunk: None,
            agg,
            cells: Cells::Sparse(CellMap::default()),
            cells_added: 0,
        }
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
        let level = grid.geom(target.gb).level();
        let ranges = grid.cell_box(target.gb, target.chunk);
        let cell_box = CellBox::new(grid.schema(), level, ranges.into_iter());
        let cells = if cell_box.cells <= DENSE_BOX_PER_INPUT_CELL.saturating_mul(expected_cells) {
            let slots = usize::try_from(cell_box.cells).expect("a dense box is addressable");
            Cells::Dense {
                vals: vec![agg.identity(); slots],
                occupied: vec![0; slots],
            }
        } else {
            Cells::Sparse(CellMap::default())
        };
        Self {
            cell_box,
            chunk: Some((grid, target)),
            agg,
            cells,
            cells_added: 0,
        }
    }

    /// Adds an entire [`ChunkData`] of cells at level `from`, rolling them
    /// up into the target level: cells stream off the columnar arrays
    /// against the dimensions' memoised roll-up tables and combine into
    /// their target cells in input order.
    pub fn add_chunk(&mut self, from: &[u8], data: &ChunkData, lift: Lift) {
        self.cells_added += data.len() as u64;
        let (agg, cells) = (self.agg, &mut self.cells);
        self.cell_box
            .source(from)
            .keyed_blocks(data, 0..data.len(), |keys, values| {
                cells.fold(agg, lifted(keys, values, agg, lift))
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

    /// Folds another aggregator (same schema, target and function) into this
    /// one, combining cells present in both with the aggregate's combine
    /// rule and summing the consumed-cell counts. Defined on level-wide
    /// aggregators ([`Aggregator::new`]) only.
    ///
    /// When the two aggregators hold *disjoint* target cells (the shards of
    /// [`aggregate_to_level_parallel`]) no key collides, so the merged
    /// state — and hence [`Aggregator::finish`] — is bit-identical to one
    /// aggregator fed both inputs. Overlapping aggregators merge with
    /// correct SUM/COUNT/MIN/MAX semantics but, for floating-point SUM, in
    /// merge order rather than input order.
    pub fn merge(&mut self, other: Aggregator<'s>) {
        assert_eq!(
            self.cell_box.level, other.cell_box.level,
            "merge targets differ"
        );
        assert_eq!(self.agg, other.agg, "merge aggregate functions differ");
        assert!(
            self.chunk.is_none() && other.chunk.is_none(),
            "merge is defined on level-wide aggregators"
        );
        let Cells::Sparse(theirs) = other.cells else {
            unreachable!("a level-wide aggregator holds its cells sparse")
        };
        self.cells.fold(self.agg, theirs.into_iter());
        self.cells_added += other.cells_added;
    }

    /// Number of input cells consumed so far — the paper's aggregation cost
    /// unit ("number of tuples aggregated").
    pub fn cells_added(&self) -> u64 {
        self.cells_added
    }

    /// Finishes into coordinate-sorted [`ChunkData`] at the target level.
    /// Row-major box keys *are* coordinate order: the dense side walks its
    /// slots in place — no collect, no sort — dividing once per row.
    pub fn finish(self) -> ChunkData {
        let cell_box = &self.cell_box;
        let n = cell_box.lo.len();
        let mut coords = cell_box.lo.clone();
        match self.cells {
            Cells::Dense { vals, occupied } => {
                let reached = occupied.iter().filter(|&&o| o != 0).count();
                let mut out = ChunkData::with_capacity(n, reached);
                // A row: the keys along the innermost live dimension, whose
                // weight is 1 (only dead dimensions follow it).
                let inner = cell_box.live.last().copied().unwrap_or(n - 1);
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

/// Parallel, bit-exact counterpart of [`aggregate_to_level`]: a two-phase
/// exchange across `threads` worker threads. Returns the aggregated cells
/// and the number of input cells consumed (the paper's aggregation cost).
///
/// * **Phase A (partition)** — the input cell stream is split into
///   `threads` contiguous ranges; each worker rolls its cells up to the
///   target level, encodes them with the target codec and appends
///   `(key, value)` to the owning shard's bucket (`key % threads`),
///   preserving input order. Every cell is rolled up and encoded exactly
///   once, so total work matches the sequential kernel.
/// * **Phase B (reduce)** — each shard folds its buckets *in range order*
///   into a partial [`Aggregator`]; the disjoint partials are then folded
///   together with [`Aggregator::merge`].
///
/// Because the buckets partition by target cell and are consumed in range
/// order, every target cell sees its contributions in exactly the global
/// input order — so the result is bit-identical to the sequential kernel,
/// including non-associative floating-point SUM.
///
/// Runs the sequential kernel when `threads <= 1` or the input is empty.
pub fn aggregate_to_level_parallel(
    schema: &Schema,
    sources: &[(&[u8], &ChunkData)],
    target: &[u8],
    agg: AggFn,
    lift: Lift,
    threads: usize,
) -> (ChunkData, u64) {
    aggregate_to_level_parallel_traced(schema, sources, target, agg, lift, threads, None)
}

/// [`aggregate_to_level_parallel`] with an optional trace sink: each
/// partition worker (phase 0) and each shard reducer (phase 1) emits one
/// `ShardAgg` event carrying its cell count and wall-clock time, so load
/// imbalance across the exchange is visible per shard. Tracing never
/// touches the aggregation itself — results stay bit-identical.
pub fn aggregate_to_level_parallel_traced(
    schema: &Schema,
    sources: &[(&[u8], &ChunkData)],
    target: &[u8],
    agg: AggFn,
    lift: Lift,
    threads: usize,
    tracer: Option<&dyn aggcache_obs::Tracer>,
) -> (ChunkData, u64) {
    let total: usize = sources.iter().map(|(_, d)| d.len()).sum();
    if threads <= 1 || total == 0 {
        let mut a = Aggregator::new(schema, target, agg);
        for (level, data) in sources {
            a.add_chunk(level, data, lift);
        }
        let cells = a.cells_added();
        return (a.finish(), cells);
    }
    let nshards = threads.min(total);
    let shard_agg = |phase: u8, shard: usize, cells: u64, start: std::time::Instant| {
        if let Some(tracer) = tracer {
            tracer.emit(&aggcache_obs::Event::ShardAgg {
                phase,
                shard: shard as u32,
                shards: nshards as u32,
                cells,
                wall_ns: start.elapsed().as_nanos() as u64,
            });
        }
    };

    // Phase A: contiguous global cell ranges → per-shard ordered runs.
    let bounds: Vec<usize> = (0..=nshards).map(|i| i * total / nshards).collect();
    let runs: Vec<Vec<Vec<(u64, f64)>>> = std::thread::scope(|s| {
        let (bounds, shard_agg) = (&bounds, &shard_agg);
        let handles: Vec<_> = (0..nshards)
            .map(|r| {
                s.spawn(move || {
                    let t_start = std::time::Instant::now();
                    let (lo, hi) = (bounds[r], bounds[r + 1]);
                    // Expected bucket fill is range/nshards; slight headroom
                    // avoids most reallocation without overcommitting.
                    let headroom = (hi - lo) / nshards + (hi - lo) / (4 * nshards) + 8;
                    let mut buckets: Vec<Vec<(u64, f64)>> =
                        (0..nshards).map(|_| Vec::with_capacity(headroom)).collect();
                    let level_box = CellBox::whole_level(schema, target);
                    let mut pos = 0usize;
                    for &(level, data) in sources {
                        let len = data.len();
                        let start = lo.saturating_sub(pos).min(len);
                        let end = hi.saturating_sub(pos).min(len);
                        if start < end {
                            let keys = level_box.source(level);
                            keys.keyed_blocks(data, start..end, |keys, values| {
                                for (key, v) in lifted(keys, values, agg, lift) {
                                    buckets[(key % nshards as u64) as usize].push((key, v));
                                }
                            });
                        }
                        pos += len;
                    }
                    shard_agg(0, r, (hi - lo) as u64, t_start);
                    buckets
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Phase B: per-shard reduction in range order, then a disjoint merge.
    let partials: Vec<Aggregator> = std::thread::scope(|s| {
        let (runs, shard_agg) = (&runs, &shard_agg);
        let handles: Vec<_> = (0..nshards)
            .map(|t| {
                s.spawn(move || {
                    let t_start = std::time::Instant::now();
                    let mut a = Aggregator::new(schema, target, agg);
                    for range in runs {
                        a.cells_added += range[t].len() as u64;
                        a.cells.fold(agg, range[t].iter().copied());
                    }
                    shard_agg(1, t, a.cells_added(), t_start);
                    a
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut it = partials.into_iter();
    let mut merged = it.next().expect("nshards >= 1");
    for partial in it {
        merged.merge(partial);
    }
    let cells = merged.cells_added();
    (merged.finish(), cells)
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
            // The merge path combines through the same kernel.
            let mut a = Aggregator::new(&s, &[0, 0], agg);
            a.add_chunk(&[2, 1], &d, Lift::Raw);
            let mut b = Aggregator::new(&s, &[0, 0], agg);
            b.add_chunk(&[2, 1], &base_cells(), Lift::Raw);
            a.merge(b);
            assert!(a.finish().value_of(0).is_nan(), "{agg:?} merge lost NaN");
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
        // One special per base cell, alone in its cell at the base level
        // and meeting its neighbours at the aggregated ones; cells (3, *)
        // stay empty.
        let mut cells = ChunkData::new(2);
        for (i, &v) in specials.iter().enumerate() {
            cells.push(&[i as u32 / 3, i as u32 % 3], v);
        }
        let by_base = by_chunk(&g, base, &cells);
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
    /// and for sub-ranges, dead dimensions contributing nothing.
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
            let mut want = Vec::new();
            for i in range.clone() {
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
                .keyed_blocks(&d, range, |keys, values| {
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
    fn merge_combines_overlapping_cells() {
        let s = schema();
        let mut a = Aggregator::new(&s, &[0, 0], AggFn::Sum);
        let mut b = Aggregator::new(&s, &[0, 0], AggFn::Sum);
        let base = base_cells();
        a.add_chunk(&[2, 1], &base, Lift::Raw);
        b.add_chunk(&[2, 1], &base, Lift::Raw);
        a.merge(b);
        assert_eq!(a.cells_added(), 24);
        let total: f64 = base.raw_values().iter().sum();
        assert_eq!(a.finish().value_of(0), total * 2.0);
    }

    #[test]
    #[should_panic(expected = "merge aggregate functions differ")]
    fn merge_rejects_mismatched_aggregates() {
        let s = schema();
        let mut a = Aggregator::new(&s, &[0, 0], AggFn::Sum);
        let b = Aggregator::new(&s, &[0, 0], AggFn::Min);
        a.merge(b);
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
