use crate::{ChunkData, Column};
use crate::{ChunkError, ChunkKey, ChunkNumber, Coord, Coords, DimChunking, PACK_CHUNK_BITS};
use aggcache_schema::{GroupById, Schema};
use std::sync::Arc;

/// Chunk-count and linearization geometry of one group-by.
///
/// A chunk at a group-by is addressed by per-dimension chunk coordinates,
/// linearized row-major (last dimension fastest) into a [`ChunkNumber`].
#[derive(Debug, Clone)]
pub struct LevelGeometry {
    level: Vec<u8>,
    n_chunks: Vec<u32>,
    weights: Vec<u64>,
    total: u64,
}

impl LevelGeometry {
    fn new(level: Vec<u8>, n_chunks: Vec<u32>) -> Result<Self, ChunkError> {
        let mut weights = vec![0u64; n_chunks.len()];
        let mut w: u64 = 1;
        for d in (0..n_chunks.len()).rev() {
            weights[d] = w;
            w = w
                .checked_mul(u64::from(n_chunks[d]))
                .ok_or_else(|| ChunkError::TooManyChunks {
                    level: level.clone(),
                })?;
        }
        Ok(Self {
            level,
            n_chunks,
            weights,
            total: w,
        })
    }

    /// The group-by level this geometry describes.
    #[inline]
    pub fn level(&self) -> &[u8] {
        &self.level
    }

    /// Total number of chunks at this group-by.
    #[inline]
    pub fn total_chunks(&self) -> u64 {
        self.total
    }

    /// Linearizes per-dimension chunk coordinates.
    #[inline]
    pub fn linearize(&self, coords: &[u32]) -> ChunkNumber {
        debug_assert_eq!(coords.len(), self.weights.len());
        coords
            .iter()
            .zip(&self.weights)
            .map(|(&c, &w)| u64::from(c) * w)
            .sum()
    }

    /// Writes the per-dimension chunk coordinates of `chunk` into `out`.
    #[inline]
    pub fn delinearize(&self, chunk: ChunkNumber, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.weights.len());
        for (d, slot) in out.iter_mut().enumerate() {
            *slot = ((chunk / self.weights[d]) % u64::from(self.n_chunks[d])) as u32;
        }
    }

    /// The chunk coordinate of `chunk` along dimension `d`.
    #[inline]
    pub fn coord(&self, chunk: ChunkNumber, d: usize) -> u32 {
        ((chunk / self.weights[d]) % u64::from(self.n_chunks[d])) as u32
    }

    /// The linearization weight of dimension `d`.
    #[inline]
    pub fn weight(&self, d: usize) -> u64 {
        self.weights[d]
    }
}

/// Whole-schema chunk addressing: the chunking of every dimension plus a
/// precomputed [`LevelGeometry`] for every group-by in the lattice.
///
/// This is the geometric core of chunk-based caching: it implements the
/// paper's `GetParentChunkNumbers` ([`ChunkGrid::parent_chunks`]) and
/// `GetChildChunkNumber` ([`ChunkGrid::child_chunk`]) functions, plus the
/// two placements every other layer asks of it: the chunk a tuple lands in
/// ([`ChunkGrid::chunk_numbers`]) and the fact-table chunks under any chunk
/// ([`ChunkGrid::chunks_under`]: what the backend scans for a missing
/// chunk, the paper's selection predicate).
#[derive(Debug, Clone)]
pub struct ChunkGrid {
    schema: Arc<Schema>,
    dims: Vec<DimChunking>,
    /// Indexed by `GroupById`.
    geoms: Vec<LevelGeometry>,
    /// Id stride of one level step along each dimension in the lattice.
    lattice_weights: Vec<u32>,
}

impl ChunkGrid {
    /// Builds a grid from per-dimension, per-level chunk counts.
    ///
    /// Refuses a grid some of whose chunk keys would not survive
    /// [`ChunkKey::pack`](crate::ChunkKey::pack) — more group-bys than the
    /// id bits hold, or more chunks at one group-by than
    /// `PACK_CHUNK_BITS` hold — so no two keys of a built grid share a
    /// packed `u64`.
    pub fn build(schema: Arc<Schema>, chunks_per_level: &[Vec<u32>]) -> Result<Self, ChunkError> {
        assert_eq!(
            chunks_per_level.len(),
            schema.num_dims(),
            "one chunk-count vector per dimension"
        );
        let dims: Vec<DimChunking> = schema
            .dimensions()
            .iter()
            .zip(chunks_per_level)
            .map(|(d, counts)| DimChunking::build(d, counts))
            .collect::<Result<_, _>>()?;
        let lattice = schema.lattice();
        if u64::from(lattice.num_group_bys()) > 1 << (64 - PACK_CHUNK_BITS) {
            return Err(ChunkError::TooManyChunks {
                level: schema.base_level(),
            });
        }
        let mut geoms = Vec::with_capacity(lattice.num_group_bys() as usize);
        for (_, level) in lattice.iter_levels() {
            let n_chunks: Vec<u32> = level
                .iter()
                .enumerate()
                .map(|(d, &l)| dims[d].n_chunks(l))
                .collect();
            let geom = LevelGeometry::new(level, n_chunks)?;
            if geom.total > 1 << PACK_CHUNK_BITS {
                return Err(ChunkError::TooManyChunks { level: geom.level });
            }
            geoms.push(geom);
        }
        let lattice_weights = (0..dims.len())
            .map(|d| lattice_weight(lattice, d))
            .collect();
        Ok(Self {
            schema,
            dims,
            geoms,
            lattice_weights,
        })
    }

    /// The schema this grid chunks.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The chunking of dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> &DimChunking {
        &self.dims[d]
    }

    /// Number of dimensions.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// The geometry of group-by `gb`.
    #[inline]
    pub fn geom(&self, gb: GroupById) -> &LevelGeometry {
        &self.geoms[gb.index()]
    }

    /// [`ChunkGrid::geom`] for a group-by id that arrived from outside
    /// (a request): an id the lattice does not have is a typed error, not
    /// an index panic.
    pub fn checked_geom(&self, gb: GroupById) -> Result<&LevelGeometry, ChunkError> {
        self.geoms
            .get(gb.index())
            .ok_or(ChunkError::UnknownGroupBy {
                gb: gb.0,
                group_bys: self.geoms.len(),
            })
    }

    /// Whether `key` names a chunk of this grid — for a key that arrived
    /// from outside (a peer's probe, a spill directory another schema may
    /// have written).
    pub fn has_chunk(&self, key: ChunkKey) -> bool {
        self.checked_geom(key.gb)
            .is_ok_and(|geom| key.chunk < geom.total_chunks())
    }

    /// Number of chunks at group-by `gb`.
    #[inline]
    pub fn n_chunks(&self, gb: GroupById) -> u64 {
        self.geoms[gb.index()].total_chunks()
    }

    /// Total number of chunks across **all** group-bys — the size of the
    /// virtual-count array (paper Table 3). Equals
    /// `Π_d (Σ_l n_chunks(d, l))`.
    pub fn total_chunk_census(&self) -> u64 {
        self.dims.iter().map(DimChunking::total_chunks).product()
    }

    /// `GetParentChunkNumbers` (paper §3): the chunks of the parent group-by
    /// (one step more detailed along `dim`) that aggregate into `chunk` of
    /// `gb`. Appends them to `out` and returns the parent group-by id.
    ///
    /// The parent chunks form a contiguous run along `dim` thanks to the
    /// closure property.
    pub fn parent_chunks_into(
        &self,
        gb: GroupById,
        chunk: ChunkNumber,
        dim: usize,
        out: &mut Vec<ChunkNumber>,
    ) -> GroupById {
        let geom = self.geom(gb);
        let level_d = geom.level()[dim];
        let parent_gb = GroupById(gb.0 + self.lattice_weights[dim]);
        let pgeom = self.geom(parent_gb);
        // Base number with dimension `dim` zeroed, re-linearized in the
        // parent geometry (only dim's count differs between the two).
        let mut base: u64 = 0;
        for d in 0..self.dims.len() {
            if d != dim {
                base += u64::from(geom.coord(chunk, d)) * pgeom.weight(d);
            }
        }
        let (lo, hi) = self.dims[dim].detail_range(level_d, geom.coord(chunk, dim));
        out.reserve((hi - lo) as usize);
        for r in lo..hi {
            out.push(base + u64::from(r) * pgeom.weight(dim));
        }
        parent_gb
    }

    /// Convenience wrapper around [`ChunkGrid::parent_chunks_into`].
    pub fn parent_chunks(
        &self,
        gb: GroupById,
        chunk: ChunkNumber,
        dim: usize,
    ) -> (GroupById, Vec<ChunkNumber>) {
        let mut v = Vec::new();
        let p = self.parent_chunks_into(gb, chunk, dim, &mut v);
        (p, v)
    }

    /// `GetChildChunkNumber` (paper §4.1): the chunk of the child group-by
    /// (one step more aggregated along `dim`) that `chunk` of `gb`
    /// contributes to. Returns `(child_gb, child_chunk)`.
    pub fn child_chunk(
        &self,
        gb: GroupById,
        chunk: ChunkNumber,
        dim: usize,
    ) -> (GroupById, ChunkNumber) {
        let geom = self.geom(gb);
        let level_d = geom.level()[dim];
        debug_assert!(level_d > 0, "no child along a level-0 dimension");
        let child_gb = GroupById(gb.0 - self.lattice_weights[dim]);
        let cgeom = self.geom(child_gb);
        let mut num: u64 = 0;
        for d in 0..self.dims.len() {
            let coord = if d == dim {
                self.dims[d].agg_chunk(level_d, geom.coord(chunk, d))
            } else {
                geom.coord(chunk, d)
            };
            num += u64::from(coord) * cgeom.weight(d);
        }
        (child_gb, num)
    }

    /// The chunk of `gb` each tuple of `tuples` lands in, where the tuples
    /// are value coordinates at level `from` (at or below `gb`'s level
    /// componentwise): per dimension, the value rolls up to `gb`'s level
    /// through the composed roll-up table, then the value→chunk table and
    /// the linearization weight place it. The composed table is the
    /// identity when `from` is `gb`'s own level. A column the tuples hold
    /// once is placed once, for all of them.
    pub fn chunk_numbers(
        &self,
        from: &[u8],
        gb: GroupById,
        tuples: &ChunkData,
    ) -> Vec<ChunkNumber> {
        let geom = self.geom(gb);
        let mut shared = 0;
        let mut dims: Vec<(&[u32], &[u32], u64)> = Vec::with_capacity(tuples.stride());
        for (d, col) in tuples.columns().iter().enumerate() {
            let level = geom.level()[d];
            let rollup = self.schema.dimension(d).composed_rollup(from[d], level);
            let (table, w) = (self.dims[d].chunk_of_table(level), geom.weight(d));
            match *col {
                Column::Constant(c) => shared += w * u64::from(table[rollup[c as usize] as usize]),
                Column::Stored(_) => dims.push((rollup, table, w)),
            }
        }
        match tuples.stored_coords() {
            Coords::U16(c) => chunk_numbers_at(&dims, shared, tuples.len(), c),
            Coords::Wide(c) => chunk_numbers_at(&dims, shared, tuples.len(), c),
        }
    }

    /// The chunks of group-by `to` (more detailed than `gb` componentwise)
    /// under `chunk` of `gb`, ascending: the chunks a computation of
    /// `chunk` from `to` reads, such as a backend scan of the fact table.
    pub fn chunks_under(
        &self,
        gb: GroupById,
        chunk: ChunkNumber,
        to: GroupById,
    ) -> Vec<ChunkNumber> {
        self.enumerate_region(to, &self.cover_at(gb, chunk, to))
    }

    /// The per-dimension chunk ranges at group-by `to` (more detailed than
    /// `gb` componentwise) covering `chunk` of `gb`.
    fn cover_at(&self, gb: GroupById, chunk: ChunkNumber, to: GroupById) -> Vec<(u32, u32)> {
        let geom = self.geom(gb);
        let to_level = self.geom(to).level();
        debug_assert!(
            self.schema.lattice().computable_from(gb, to),
            "target must be more detailed"
        );
        (0..self.dims.len())
            .map(|d| {
                let c = geom.coord(chunk, d);
                self.dims[d].descend_range(geom.level()[d], to_level[d], (c, c + 1))
            })
            .collect()
    }

    /// The ancestor chunk at group-by `to` (more aggregated than `gb`) that
    /// `chunk` of `gb` rolls up into.
    pub fn ascend_chunk(&self, gb: GroupById, chunk: ChunkNumber, to: GroupById) -> ChunkNumber {
        let geom = self.geom(gb);
        let tgeom = self.geom(to);
        debug_assert!(self.schema.lattice().computable_from(to, gb));
        let mut num = 0u64;
        for d in 0..self.dims.len() {
            let c =
                self.dims[d].ascend_chunk(geom.level()[d], tgeom.level()[d], geom.coord(chunk, d));
            num += u64::from(c) * tgeom.weight(d);
        }
        num
    }

    /// The cell box of `chunk` of `gb`: per dimension, the half-open range
    /// of values (at `gb`'s own level) a cell of that chunk can carry. By
    /// the closure property every cell of every chunk that
    /// [ascends](ChunkGrid::ascend_chunk) to this one rolls up into it.
    pub fn cell_box(&self, gb: GroupById, chunk: ChunkNumber) -> Vec<(u32, u32)> {
        let geom = self.geom(gb);
        (0..self.dims.len())
            .map(|d| self.dims[d].value_range(geom.level()[d], geom.coord(chunk, d)))
            .collect()
    }

    /// Enumerates the chunk numbers of the axis-aligned region given by
    /// per-dimension chunk-coordinate ranges (half-open) at group-by `gb`.
    pub fn enumerate_region(&self, gb: GroupById, ranges: &[(u32, u32)]) -> Vec<ChunkNumber> {
        let geom = self.geom(gb);
        debug_assert_eq!(ranges.len(), self.dims.len());
        let count: u64 = ranges.iter().map(|&(lo, hi)| u64::from(hi - lo)).product();
        let mut out = Vec::with_capacity(count as usize);
        let mut coords: Vec<u32> = ranges.iter().map(|&(lo, _)| lo).collect();
        if ranges.iter().any(|&(lo, hi)| lo >= hi) {
            return out;
        }
        loop {
            out.push(geom.linearize(&coords));
            // Odometer increment.
            let mut d = self.dims.len();
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                coords[d] += 1;
                if coords[d] < ranges[d].1 {
                    break;
                }
                coords[d] = ranges[d].0;
            }
        }
    }

    /// The number of base-table cells (value combinations) covered by
    /// `chunk` of `gb` — an upper bound on the tuples a backend scan reads.
    pub fn base_cells_under(&self, gb: GroupById, chunk: ChunkNumber) -> u64 {
        let base = self.schema.lattice().base();
        let cover = self.cover_at(gb, chunk, base);
        let base_level = self.schema.base_level();
        cover
            .iter()
            .enumerate()
            .map(|(d, &(lo, hi))| {
                let (vlo, _) = self.dims[d].value_range(base_level[d], lo);
                let (_, vhi) = self.dims[d].value_range(base_level[d], hi - 1);
                u64::from(vhi - vlo)
            })
            .product()
    }
}

/// The lattice id stride of one level step along dimension `d`.
fn lattice_weight(lattice: &aggcache_schema::Lattice, d: usize) -> u32 {
    // Reconstruct the weight from two adjacent ids; the lattice does not
    // expose weights directly. id(level + e_d) - id(level) is constant.
    let mut level = vec![0u8; lattice.num_dims()];
    let zero = lattice.id_of(&level).expect("valid");
    level[d] = 1;
    let one = lattice
        .id_of(&level)
        .expect("dimension has at least one hierarchy level");
    one.0 - zero.0
}

/// [`ChunkGrid::chunk_numbers`] at one width over `n` tuples' stored
/// coordinates, given each stored dimension's roll-up table, value→chunk
/// table and weight, and what the constant ones add.
fn chunk_numbers_at<C: Coord>(
    dims: &[(&[u32], &[u32], u64)],
    shared: u64,
    n: usize,
    tuples: &[C],
) -> Vec<ChunkNumber> {
    let chunk_of = |i: usize| -> ChunkNumber {
        let parts = dims.iter().zip(&tuples[i * dims.len()..]);
        parts.fold(shared, |num, (&(rollup, table, w), &c)| {
            num + w * u64::from(table[rollup[c.index()] as usize])
        })
    };
    (0..n).map(chunk_of).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::Dimension;
    use proptest::prelude::*;

    fn grid() -> ChunkGrid {
        let schema = Arc::new(
            Schema::new(vec![
                Dimension::balanced("a", vec![1, 4, 12]).unwrap(),
                Dimension::balanced("b", vec![1, 6]).unwrap(),
            ])
            .unwrap(),
        );
        ChunkGrid::build(schema, &[vec![1, 2, 4], vec![1, 3]]).unwrap()
    }

    #[test]
    fn geometry_totals() {
        let g = grid();
        let lattice = g.schema().lattice().clone();
        let base = lattice.base();
        assert_eq!(g.n_chunks(base), 4 * 3);
        assert_eq!(g.n_chunks(lattice.top()), 1);
        // Census: (1 + 2 + 4) * (1 + 3) = 28.
        assert_eq!(g.total_chunk_census(), 28);
        let census: u64 = lattice.iter_ids().map(|id| g.n_chunks(id)).sum();
        assert_eq!(census, 28);
    }

    #[test]
    fn refuses_a_grid_whose_chunk_numbers_outgrow_the_packed_key() {
        // Two flat dimensions at one chunk per value.
        let square = |values: u32| {
            let schema = Schema::new(vec![
                Dimension::flat("a", values).unwrap(),
                Dimension::flat("b", values).unwrap(),
            ])
            .unwrap();
            ChunkGrid::build(Arc::new(schema), &[vec![1, values], vec![1, values]])
        };
        // 2^42 base chunks: distinct keys would share a packed u64.
        assert_eq!(
            square(1 << 21).unwrap_err(),
            ChunkError::TooManyChunks { level: vec![1, 1] }
        );
        // Exactly 2^40: the largest chunk number is 2^40 - 1, which fits.
        let g = square(1 << 20).unwrap();
        assert_eq!(
            g.n_chunks(g.schema().lattice().base()),
            1 << PACK_CHUNK_BITS
        );
    }

    #[test]
    fn linearize_round_trip() {
        let g = grid();
        for gb in g.schema().lattice().iter_ids() {
            let geom = g.geom(gb);
            let mut coords = vec![0u32; 2];
            for c in 0..geom.total_chunks() {
                geom.delinearize(c, &mut coords);
                assert_eq!(geom.linearize(&coords), c);
            }
        }
    }

    #[test]
    fn parent_chunks_cover_child() {
        let g = grid();
        let lattice = g.schema().lattice();
        for gb in lattice.iter_ids() {
            for (dim, parent_gb) in lattice.parents(gb) {
                for chunk in 0..g.n_chunks(gb) {
                    let (pgb, parents) = g.parent_chunks(gb, chunk, dim);
                    assert_eq!(pgb, parent_gb);
                    assert!(!parents.is_empty());
                    // Every parent chunk maps back to this chunk.
                    for &p in &parents {
                        let (cgb, cchunk) = g.child_chunk(parent_gb, p, dim);
                        assert_eq!(cgb, gb);
                        assert_eq!(cchunk, chunk);
                    }
                    // And no other parent chunk does.
                    let all_mapping: Vec<u64> = (0..g.n_chunks(parent_gb))
                        .filter(|&p| g.child_chunk(parent_gb, p, dim).1 == chunk)
                        .collect();
                    assert_eq!(all_mapping, parents);
                }
            }
        }
    }

    #[test]
    fn cover_at_base_is_consistent_with_parent_walk() {
        let g = grid();
        let lattice = g.schema().lattice();
        let base = lattice.base();
        let top = lattice.top();
        let cover = g.cover_at(top, 0, base);
        assert_eq!(cover, vec![(0, 4), (0, 3)]);
        let region = g.enumerate_region(base, &cover);
        assert_eq!(region.len(), 12);
    }

    #[test]
    fn ascend_inverts_cover() {
        let g = grid();
        let lattice = g.schema().lattice();
        for gb in lattice.iter_ids() {
            let base = lattice.base();
            for chunk in 0..g.n_chunks(gb) {
                for b in g.chunks_under(gb, chunk, base) {
                    assert_eq!(g.ascend_chunk(base, b, gb), chunk);
                }
            }
        }
    }

    #[test]
    fn cell_box_holds_every_value_that_ascends_into_the_chunk() {
        let g = grid();
        let schema = g.schema().clone();
        let lattice = schema.lattice();
        let (base, base_level) = (lattice.base(), schema.base_level());
        for gb in lattice.iter_ids() {
            let level = lattice.level_of(gb);
            let mut cells = 0u64;
            for chunk in 0..g.n_chunks(gb) {
                let target = g.cell_box(gb, chunk);
                cells += target
                    .iter()
                    .map(|&(lo, hi)| u64::from(hi - lo))
                    .product::<u64>();
                for b in g.chunks_under(gb, chunk, base) {
                    for (d, &(lo, hi)) in g.cell_box(base, b).iter().enumerate() {
                        for v in lo..hi {
                            let up = schema
                                .dimension(d)
                                .ancestor_value(base_level[d], level[d], v);
                            assert!(target[d].0 <= up && up < target[d].1);
                        }
                    }
                }
            }
            // The boxes of a group-by's chunks tile its level.
            assert_eq!(cells, schema.cells_at(&level));
        }
    }

    #[test]
    fn enumerate_region_is_row_major() {
        let g = grid();
        let base = g.schema().lattice().base();
        let chunks = g.enumerate_region(base, &[(1, 3), (0, 2)]);
        assert_eq!(chunks, vec![3, 4, 6, 7]);
        assert!(g.enumerate_region(base, &[(1, 1), (0, 2)]).is_empty());
    }

    #[test]
    fn base_cells_under_counts_values() {
        let g = grid();
        let lattice = g.schema().lattice();
        assert_eq!(g.base_cells_under(lattice.top(), 0), 12 * 6);
        let base = lattice.base();
        let total: u64 = (0..g.n_chunks(base))
            .map(|c| g.base_cells_under(base, c))
            .sum();
        assert_eq!(total, 12 * 6);
    }

    /// Three dimensions with uneven per-level chunkings, for the placement
    /// properties.
    fn uneven_grid() -> ChunkGrid {
        let schema = Arc::new(
            Schema::new(vec![
                Dimension::balanced("a", vec![1, 3, 7, 20]).unwrap(),
                Dimension::balanced("b", vec![1, 6]).unwrap(),
                Dimension::balanced("c", vec![1, 2, 9]).unwrap(),
            ])
            .unwrap(),
        );
        ChunkGrid::build(schema, &[vec![1, 2, 3, 5], vec![1, 4], vec![1, 2, 3]]).unwrap()
    }

    /// A level per dimension from raw draws: `draws[d]` reduced into
    /// `0..=ceiling[d]`.
    fn level_under(draws: &[u8], ceiling: &[u8]) -> Vec<u8> {
        draws
            .iter()
            .zip(ceiling)
            .map(|(&r, &c)| r % (c + 1))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `chunk_numbers` from any level at or below the group-by's places
        /// each tuple where the per-coordinate walk does: the ancestor
        /// value, its chunk, the linearized chunk coordinates.
        #[test]
        fn chunk_numbers_match_the_per_coordinate_walk(
            from_draws in proptest::collection::vec(0u8..8, 3),
            gb_draws in proptest::collection::vec(0u8..8, 3),
            raw in proptest::collection::vec(proptest::collection::vec(0u32..1000, 3), 0..24),
        ) {
            let g = uneven_grid();
            let schema = g.schema().clone();
            let from = level_under(&from_draws, &schema.base_level());
            let level = level_under(&gb_draws, &from);
            let gb = schema.lattice().id_of(&level).unwrap();
            let tuples: Vec<Vec<u32>> = raw
                .iter()
                .map(|t| {
                    let dims = t.iter().enumerate();
                    dims.map(|(d, &v)| v % schema.dimension(d).cardinality(from[d])).collect()
                })
                .collect();
            let flat: Vec<u32> = tuples.concat();
            let values = vec![0.0; tuples.len()];
            let got = g.chunk_numbers(&from, gb, &ChunkData::from_raw(3, flat, values));
            let want: Vec<ChunkNumber> = tuples
                .iter()
                .map(|t| {
                    let coords: Vec<u32> = (0..3)
                        .map(|d| {
                            let rolled = schema.dimension(d).ancestor_value(from[d], level[d], t[d]);
                            g.dim(d).chunk_of_value(level[d], rolled)
                        })
                        .collect();
                    g.geom(gb).linearize(&coords)
                })
                .collect();
            prop_assert_eq!(got, want);
        }

        /// `chunks_under` is ascending and holds exactly the chunks of the
        /// more detailed group-by that ascend onto the chunk.
        #[test]
        fn chunks_under_is_the_ascending_preimage_of_ascend_chunk(
            to_draws in proptest::collection::vec(0u8..8, 3),
            gb_draws in proptest::collection::vec(0u8..8, 3),
            chunk_draw in 0u64..1000,
        ) {
            let g = uneven_grid();
            let lattice = g.schema().lattice();
            let to_level = level_under(&to_draws, &g.schema().base_level());
            let to = lattice.id_of(&to_level).unwrap();
            let gb = lattice.id_of(&level_under(&gb_draws, &to_level)).unwrap();
            let chunk = chunk_draw % g.n_chunks(gb);
            let under = g.chunks_under(gb, chunk, to);
            prop_assert!(under.windows(2).all(|w| w[0] < w[1]), "{:?}", under);
            let preimage: Vec<ChunkNumber> = (0..g.n_chunks(to))
                .filter(|&t| g.ascend_chunk(to, t, gb) == chunk)
                .collect();
            prop_assert_eq!(under, preimage);
        }
    }
}
