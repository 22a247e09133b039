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

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, Schema};
    use std::sync::Arc;

    #[test]
    fn region_query_enumerates_chunks() {
        let schema = Arc::new(
            Schema::new(vec![
                Dimension::flat("a", 4).unwrap(),
                Dimension::flat("b", 4).unwrap(),
            ])
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
