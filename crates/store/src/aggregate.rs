use aggcache_chunks::hash::FxBuildHasher;
use aggcache_chunks::ChunkData;
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

    /// Combines two partial aggregates.
    ///
    /// NaN policy: **propagate**. A NaN measure poisons every aggregate it
    /// contributes to, exactly as SUM already behaves (`x + NaN = NaN`).
    /// `f64::min`/`f64::max` instead silently prefer the non-NaN operand,
    /// which would make a NaN measure vanish at aggregated levels while
    /// base-level scans keep it — the same cell would answer differently
    /// depending on which lattice level served it.
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

/// Composed per-dimension roll-up lookup tables from one group-by level to
/// a more aggregated one. `None` entries are identity (level unchanged).
#[derive(Debug)]
pub struct Rollup {
    maps: Vec<Option<Vec<u32>>>,
}

impl Rollup {
    /// Builds the roll-up from `from` to `to` (`to <= from` componentwise).
    pub fn new(schema: &Schema, from: &[u8], to: &[u8]) -> Self {
        debug_assert_eq!(from.len(), schema.num_dims());
        debug_assert_eq!(to.len(), schema.num_dims());
        let maps = (0..schema.num_dims())
            .map(|d| {
                debug_assert!(to[d] <= from[d], "target must be more aggregated");
                (from[d] != to[d]).then(|| schema.dimension(d).composed_rollup(from[d], to[d]))
            })
            .collect();
        Self { maps }
    }

    /// Maps source coordinates to target coordinates.
    #[inline]
    pub fn map_into(&self, src: &[u32], dst: &mut [u32]) {
        for (d, m) in self.maps.iter().enumerate() {
            dst[d] = match m {
                Some(table) => table[src[d] as usize],
                None => src[d],
            };
        }
    }
}

/// Row-major value-coordinate codec for a level: one `u64` keys each cell
/// of the hash-aggregation map. It exists for every level because
/// [`Schema::new`] refuses a schema whose base-level cell space overflows
/// `u64`, and no other level is larger.
#[derive(Debug)]
struct Codec {
    weights: Vec<u64>,
    cards: Vec<u32>,
}

impl Codec {
    fn new(schema: &Schema, level: &[u8]) -> Self {
        let n = schema.num_dims();
        let cards: Vec<u32> = (0..n)
            .map(|d| schema.dimension(d).cardinality(level[d]))
            .collect();
        let mut weights = vec![0u64; n];
        let mut total = 1u64;
        for d in (0..n).rev() {
            weights[d] = total;
            total *= u64::from(cards[d]);
        }
        Self { weights, cards }
    }

    #[inline]
    fn decode(&self, mut key: u64, out: &mut [u32]) {
        for (d, slot) in out.iter_mut().enumerate() {
            *slot = (key / self.weights[d]) as u32;
            key %= self.weights[d];
        }
        debug_assert!(out.iter().zip(&self.cards).all(|(&c, &k)| c < k));
    }

    /// Fuses a roll-up with this codec into per-dimension contribution
    /// tables: `table[d][src] = weights[d] * rollup_d(src)`, so summing
    /// `table[d][coords[d]]` over dimensions yields exactly the row-major
    /// key of the rolled-up coordinates — one lookup and add per dimension
    /// in the aggregation hot loop ([`ChunkData::encoded_coords_range`]),
    /// with no scratch coordinate buffer. The products cannot overflow:
    /// every rolled-up coordinate is below its target cardinality, and the
    /// full target cell space fits a `u64`.
    fn contribution_tables(&self, schema: &Schema, from: &[u8], rollup: &Rollup) -> Vec<Vec<u64>> {
        (0..schema.num_dims())
            .map(|d| {
                let card = schema.dimension(d).cardinality(from[d]) as usize;
                let w = self.weights[d];
                match &rollup.maps[d] {
                    Some(map) => {
                        debug_assert_eq!(map.len(), card);
                        map.iter().map(|&t| w * u64::from(t)).collect()
                    }
                    None => (0..card as u64).map(|c| w * c).collect(),
                }
            })
            .collect()
    }
}

/// The fused roll-up×codec contribution tables into one target level, built
/// once per source level. Streams usually touch a handful of levels, so a
/// linear scan beats hashing.
struct LevelTables<'s> {
    schema: &'s Schema,
    target: Vec<u8>,
    codec: Codec,
    levels: Vec<(Vec<u8>, Vec<Vec<u64>>)>,
}

impl<'s> LevelTables<'s> {
    fn new(schema: &'s Schema, target: &[u8]) -> Self {
        Self {
            schema,
            target: target.to_vec(),
            codec: Codec::new(schema, target),
            levels: Vec::new(),
        }
    }

    fn for_source(&mut self, from: &[u8]) -> &[Vec<u64>] {
        let i = match self.levels.iter().position(|(l, _)| l == from) {
            Some(i) => i,
            None => {
                let rollup = Rollup::new(self.schema, from, &self.target);
                let tables = self.codec.contribution_tables(self.schema, from, &rollup);
                self.levels.push((from.to_vec(), tables));
                self.levels.len() - 1
            }
        };
        &self.levels[i].1
    }
}

/// The cells `range` of `data` as `(target key, cube value)` pairs, in
/// order: keyed through `tables`, raw fact measures lifted.
#[inline]
fn keyed_cells<'a>(
    data: &'a ChunkData,
    tables: &'a [Vec<u64>],
    range: Range<usize>,
    agg: AggFn,
    lift: Lift,
) -> impl Iterator<Item = (u64, f64)> + 'a {
    data.encoded_coords_range(tables, range)
        .map(move |(key, v)| match lift {
            Lift::Raw => (key, agg.lift(v)),
            Lift::Lifted => (key, v),
        })
}

type CellMap = HashMap<u64, f64, FxBuildHasher>;

/// The ingest loop: combines each pair into its target cell, in order.
#[inline]
fn upsert(cells: &mut CellMap, agg: AggFn, pairs: impl Iterator<Item = (u64, f64)>) {
    for (key, v) in pairs {
        cells
            .entry(key)
            .and_modify(|acc| *acc = agg.combine(*acc, v))
            .or_insert(v);
    }
}

/// Streaming hash-aggregator rolling cells from arbitrary source levels up
/// to one target level.
///
/// This is the aggregation kernel shared by the backend (fact tuples →
/// requested chunks) and the cache executor (cached chunks at mixed levels →
/// a computed chunk). Costs are linear in the number of cells added,
/// matching the paper's §5 cost model.
pub struct Aggregator<'s> {
    tables: LevelTables<'s>,
    agg: AggFn,
    cells: CellMap,
    cells_added: u64,
}

impl<'s> Aggregator<'s> {
    /// Creates an aggregator producing cells at `target` with `agg`.
    pub fn new(schema: &'s Schema, target: &[u8], agg: AggFn) -> Self {
        Self {
            tables: LevelTables::new(schema, target),
            agg,
            cells: CellMap::default(),
            cells_added: 0,
        }
    }

    /// Adds an entire [`ChunkData`] of cells at level `from`, rolling them
    /// up into the target level.
    pub fn add_chunk(&mut self, from: &[u8], data: &ChunkData, lift: Lift) {
        self.add_chunk_range(from, data, 0..data.len(), lift);
    }

    /// Adds the cells `range` of `data` — how the backend scans one chunk's
    /// tuple run out of the clustered fact file.
    ///
    /// Cells stream off the columnar arrays through
    /// [`ChunkData::encoded_coords_range`] against the fused roll-up×codec
    /// tables and combine into their target cells in input order.
    pub fn add_chunk_range(
        &mut self,
        from: &[u8],
        data: &ChunkData,
        range: Range<usize>,
        lift: Lift,
    ) {
        self.cells_added += range.len() as u64;
        let tables = self.tables.for_source(from);
        upsert(
            &mut self.cells,
            self.agg,
            keyed_cells(data, tables, range, self.agg, lift),
        );
    }

    /// Folds another aggregator (same schema, target and function) into this
    /// one, combining cells present in both with the aggregate's combine
    /// rule and summing the consumed-cell counts.
    ///
    /// When the two aggregators hold *disjoint* target cells (the shards of
    /// [`aggregate_to_level_parallel`]) no key collides, so the merged
    /// state — and hence [`Aggregator::finish`] — is bit-identical to one
    /// aggregator fed both inputs. Overlapping aggregators merge with
    /// correct SUM/COUNT/MIN/MAX semantics but, for floating-point SUM, in
    /// merge order rather than input order.
    pub fn merge(&mut self, other: Aggregator<'s>) {
        assert_eq!(
            self.tables.target, other.tables.target,
            "merge targets differ"
        );
        assert_eq!(self.agg, other.agg, "merge aggregate functions differ");
        let agg = self.agg;
        for (key, v) in other.cells {
            self.cells
                .entry(key)
                .and_modify(|acc| *acc = agg.combine(*acc, v))
                .or_insert(v);
        }
        self.cells_added += other.cells_added;
    }

    /// Number of input cells consumed so far — the paper's aggregation cost
    /// unit ("number of tuples aggregated").
    pub fn cells_added(&self) -> u64 {
        self.cells_added
    }

    /// Finishes into coordinate-sorted [`ChunkData`] at the target level.
    pub fn finish(self) -> ChunkData {
        let n = self.tables.schema.num_dims();
        let mut keys: Vec<(u64, f64)> = self.cells.into_iter().collect();
        keys.sort_unstable_by_key(|&(k, _)| k);
        let mut out = ChunkData::with_capacity(n, keys.len());
        let mut coords = vec![0u32; n];
        for (k, v) in keys {
            self.tables.codec.decode(k, &mut coords);
            out.push(&coords, v);
        }
        out
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
                    let mut levels = LevelTables::new(schema, target);
                    let mut pos = 0usize;
                    for &(level, data) in sources {
                        let len = data.len();
                        let start = lo.saturating_sub(pos).min(len);
                        let end = hi.saturating_sub(pos).min(len);
                        if start < end {
                            let tables = levels.for_source(level);
                            for (key, v) in keyed_cells(data, tables, start..end, agg, lift) {
                                buckets[(key % nshards as u64) as usize].push((key, v));
                            }
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
                        upsert(&mut a.cells, agg, range[t].iter().copied());
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
    use aggcache_schema::Dimension;
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

    /// The roll-up written the slow way, independent of the fused tables:
    /// each coordinate through [`Rollup::map_into`], combined per target
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
        let mut dst = vec![0u32; n];
        for (from, data) in sources {
            let rollup = Rollup::new(schema, from, target);
            for (coords, v) in data.iter() {
                let v = match lift {
                    Lift::Raw => agg.lift(v),
                    Lift::Lifted => v,
                };
                rollup.map_into(coords, &mut dst);
                cells
                    .entry(dst.clone())
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
    fn rollup_identity_maps_pass_through() {
        let s = schema();
        let r = Rollup::new(&s, &[2, 1], &[2, 1]);
        let mut dst = [9u32, 9];
        r.map_into(&[3, 2], &mut dst);
        assert_eq!(dst, [3, 2]);
        // Mixed: only dim 0 rolls up.
        let r = Rollup::new(&s, &[2, 1], &[1, 1]);
        r.map_into(&[3, 2], &mut dst);
        assert_eq!(dst[1], 2);
        assert_eq!(dst[0], s.dimension(0).ancestor_value(2, 1, 3));
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
