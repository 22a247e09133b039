use aggcache_chunks::{ChunkData, ChunkError, ChunkGrid, ChunkNumber};
use aggcache_schema::GroupById;

use crate::QueryMetrics;

/// A multi-dimensional query, already normalized to chunk granularity: a
/// group-by level and the set of chunks needed to answer it (paper §2 —
/// "the query is analyzed to determine what chunks are needed").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The group-by the query aggregates to.
    pub gb: GroupById,
    /// The chunks the query covers.
    pub chunks: Vec<ChunkNumber>,
}

impl Query {
    /// A query for an explicit chunk list.
    pub fn new(gb: GroupById, chunks: Vec<ChunkNumber>) -> Self {
        Self { gb, chunks }
    }

    /// A query for an axis-aligned region given by per-dimension half-open
    /// chunk-coordinate ranges.
    pub fn from_region(grid: &ChunkGrid, gb: GroupById, ranges: &[(u32, u32)]) -> Self {
        Self {
            gb,
            chunks: grid.enumerate_region(gb, ranges),
        }
    }

    /// The request boundary: the group-by is one of `grid`'s and every
    /// chunk number is below its chunk count. [`crate::CacheManager`]
    /// checks this before a request touches the cache, so the lookups
    /// behind it may index by chunk number.
    pub fn validate(&self, grid: &ChunkGrid) -> Result<(), ChunkError> {
        let geom = grid.checked_geom(self.gb)?;
        let max = geom.total_chunks();
        match self.chunks.iter().find(|&&chunk| chunk >= max) {
            None => Ok(()),
            Some(&chunk) => Err(ChunkError::ChunkOutOfRange {
                level: geom.level().to_vec(),
                chunk,
                max,
            }),
        }
    }

    /// A query for every chunk of a group-by.
    pub fn full_group_by(grid: &ChunkGrid, gb: GroupById) -> Self {
        Self {
            gb,
            chunks: (0..grid.n_chunks(gb)).collect(),
        }
    }
}

/// The answer to a [`Query`]: the union of the requested chunks' cells plus
/// the cost breakdown.
#[derive(Debug)]
pub struct QueryResult {
    /// All result cells, at the query's group-by level.
    pub data: ChunkData,
    /// The cost breakdown.
    pub metrics: QueryMetrics,
}

/// A *semantic* query: a group-by level plus per-dimension half-open
/// **value** ranges — what an application actually asks for, before the
/// middle tier normalizes it to chunk granularity (paper §2: "the query is
/// analyzed to determine what chunks are needed to answer it").
///
/// Chunks overlapping the ranges are fetched/computed through the cache
/// (and cached whole, so neighbouring queries reuse them); result cells
/// outside the exact ranges are filtered out afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueQuery {
    /// The group-by the query aggregates to.
    pub gb: GroupById,
    /// Per-dimension half-open value-id ranges at the group-by's level.
    pub ranges: Vec<(u32, u32)>,
}

impl ValueQuery {
    /// Creates a value-range query. Ranges must be within the level's
    /// cardinalities and non-empty — [`ValueQuery::validate`] checks it.
    pub fn new(gb: GroupById, ranges: Vec<(u32, u32)>) -> Self {
        Self { gb, ranges }
    }

    /// The request boundary: the group-by is one of `grid`'s and every
    /// range is non-empty and within its dimension's cardinality at that
    /// level (`lo < hi ≤ cardinality`), which is what
    /// [`ValueQuery::to_chunk_query`] indexes by.
    pub fn validate(&self, grid: &ChunkGrid) -> Result<(), ChunkError> {
        let level = grid.checked_geom(self.gb)?.level();
        for (dim, (&range, &l)) in self.ranges.iter().zip(level).enumerate() {
            let cardinality = grid.schema().dimension(dim).cardinality(l);
            if range.0 >= range.1 || range.1 > cardinality {
                return Err(ChunkError::BadValueRange {
                    dim,
                    range,
                    cardinality,
                });
            }
        }
        Ok(())
    }

    /// The chunk-granular [`Query`] covering these ranges.
    pub fn to_chunk_query(&self, grid: &ChunkGrid) -> Query {
        let level = grid.geom(self.gb).level().to_vec();
        let chunk_ranges: Vec<(u32, u32)> = self
            .ranges
            .iter()
            .enumerate()
            .map(|(d, &(lo, hi))| {
                debug_assert!(lo < hi, "empty value range");
                let clo = grid.dim(d).chunk_of_value(level[d], lo);
                let chi = grid.dim(d).chunk_of_value(level[d], hi - 1) + 1;
                (clo, chi)
            })
            .collect();
        Query::from_region(grid, self.gb, &chunk_ranges)
    }

    /// Whether a result cell's coordinates fall inside the exact ranges.
    #[inline]
    pub fn contains(&self, coords: &[u32]) -> bool {
        coords
            .iter()
            .zip(&self.ranges)
            .all(|(&c, &(lo, hi))| c >= lo && c < hi)
    }

    /// Filters chunk-granular result cells down to the exact ranges.
    pub fn filter(&self, data: &ChunkData) -> ChunkData {
        let mut out = ChunkData::with_capacity(data.n_dims(), data.len());
        for (coords, v) in data.iter() {
            if self.contains(coords) {
                out.push(coords, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, Schema};
    use std::sync::Arc;

    #[test]
    fn value_query_covers_and_filters() {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::flat("a", 8).unwrap(),
                    Dimension::flat("b", 6).unwrap(),
                ],
                "m",
            )
            .unwrap(),
        );
        let grid = ChunkGrid::build(schema, &[vec![1, 4], vec![1, 3]]).unwrap();
        let base = grid.schema().lattice().base();
        // Values a in [3, 6), b in [1, 4): chunks a ∈ {1, 2}, b ∈ {0, 1}.
        let vq = ValueQuery::new(base, vec![(3, 6), (1, 4)]);
        let cq = vq.to_chunk_query(&grid);
        assert_eq!(cq.chunks, vec![3, 4, 6, 7]); // (1,0),(1,1),(2,0),(2,1)
                                                 // Filtering keeps only in-range cells.
        let mut data = ChunkData::new(2);
        data.push(&[3, 1], 1.0); // inside
        data.push(&[2, 1], 2.0); // a below range (chunk 1 overlap)
        data.push(&[5, 3], 3.0); // inside
        data.push(&[5, 4], 4.0); // b above range
        let filtered = vq.filter(&data);
        assert_eq!(filtered.len(), 2);
        assert!(vq.contains(&[3, 1]) && !vq.contains(&[6, 1]));
    }

    #[test]
    fn single_value_query_is_one_chunk() {
        let schema = Arc::new(Schema::new(vec![Dimension::flat("a", 8).unwrap()], "m").unwrap());
        let grid = ChunkGrid::build(schema, &[vec![1, 4]]).unwrap();
        let base = grid.schema().lattice().base();
        let vq = ValueQuery::new(base, vec![(5, 6)]);
        assert_eq!(vq.to_chunk_query(&grid).chunks.len(), 1);
    }

    #[test]
    fn region_query_enumerates_chunks() {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::flat("a", 4).unwrap(),
                    Dimension::flat("b", 4).unwrap(),
                ],
                "m",
            )
            .unwrap(),
        );
        let grid = ChunkGrid::build(schema, &[vec![1, 2], vec![1, 2]]).unwrap();
        let base = grid.schema().lattice().base();
        let q = Query::from_region(&grid, base, &[(0, 2), (1, 2)]);
        assert_eq!(q.chunks, vec![1, 3]);
        let full = Query::full_group_by(&grid, base);
        assert_eq!(full.chunks.len(), 4);
    }
}
