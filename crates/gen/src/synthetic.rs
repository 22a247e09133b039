use crate::Dataset;
use aggcache_chunks::ChunkGrid;
use aggcache_schema::{Dimension, Schema};
use std::sync::Arc;

/// Builder for small synthetic schemas, used by tests, property checks and
/// examples that don't need the full APB-1 shape.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    dims: Vec<(String, Vec<u32>, Vec<u32>)>,
    n_tuples: u64,
    density: f64,
    seed: u64,
}

impl SyntheticSpec {
    /// Starts an empty spec.
    pub fn new() -> Self {
        Self {
            dims: Vec::new(),
            n_tuples: 1_000,
            density: 1.0,
            seed: 42,
        }
    }

    /// Adds a dimension with the given level cardinalities (index 0 = most
    /// aggregated) and per-level chunk counts.
    pub fn dim(
        mut self,
        name: impl Into<String>,
        cardinalities: Vec<u32>,
        chunks: Vec<u32>,
    ) -> Self {
        self.dims.push((name.into(), cardinalities, chunks));
        self
    }

    /// Sets the number of fact tuples (default 1000).
    pub fn tuples(mut self, n: u64) -> Self {
        self.n_tuples = n;
        self
    }

    /// Sets the fill-skew density (default 1.0).
    pub fn density(mut self, d: f64) -> Self {
        self.density = d;
        self
    }

    /// Sets the RNG seed (default 42).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Builds just the grid (schema + chunking), without data.
    pub fn build_grid(&self) -> Arc<ChunkGrid> {
        let dims = self
            .dims
            .iter()
            .map(|(name, cards, _)| Dimension::balanced(name.clone(), cards.clone()).unwrap())
            .collect();
        let schema = Arc::new(Schema::new(dims).unwrap());
        let counts: Vec<Vec<u32>> = self.dims.iter().map(|(_, _, c)| c.clone()).collect();
        Arc::new(ChunkGrid::build(schema, &counts).unwrap())
    }

    /// Builds the grid and generates fact data at the lattice base.
    pub fn build(&self) -> Dataset {
        let grid = self.build_grid();
        let base = grid.schema().lattice().base();
        Dataset::generate(grid, base, self.n_tuples, self.density, self.seed)
    }
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// A ready-made tiny 2-D spec (the paper's Figure 4 lattice shape: two
/// dimensions with hierarchy size 1, four base chunks).
pub fn fig4_spec() -> SyntheticSpec {
    SyntheticSpec::new()
        .dim("x", vec![1, 4], vec![1, 2])
        .dim("y", vec![1, 4], vec![1, 2])
        .tuples(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_dataset_at_base() {
        let ds = SyntheticSpec::new()
            .dim("a", vec![1, 2, 8], vec![1, 2, 4])
            .dim("b", vec![1, 6], vec![1, 3])
            .tuples(30)
            .build();
        assert!(ds.num_tuples() >= 25);
        assert_eq!(ds.fact_gb, ds.grid.schema().lattice().base());
    }

    #[test]
    fn fig4_shape() {
        let grid = fig4_spec().build_grid();
        let lattice = grid.schema().lattice();
        assert_eq!(lattice.num_group_bys(), 4);
        assert_eq!(grid.n_chunks(lattice.base()), 4);
        assert_eq!(grid.n_chunks(lattice.top()), 1);
    }
}
