use crate::Dataset;
use aggcache_chunks::ChunkGrid;
use aggcache_schema::{Dimension, GroupById, Schema};
use std::sync::Arc;

/// Builds the APB-1-shaped schema of the paper's evaluation (§7):
///
/// | Dimension | Hierarchy size | Level cardinalities (0 → base) |
/// |-----------|----------------|--------------------------------|
/// | Product   | 6              | 1, 4, 15, 75, 300, 900, 9000   |
/// | Customer  | 2              | 1, 90, 900                     |
/// | Time      | 3              | 1, 2, 8, 24                    |
/// | Channel   | 1              | 1, 10                          |
/// | Scenario  | 1              | 1, 2                           |
///
/// The lattice has `7·3·4·2·2 = 336` group-bys, exactly as the paper
/// states. Channel's base cardinality of 10 matches the paper's generator
/// parameter "number of channels = 10".
pub fn apb1_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Dimension::balanced("Product", vec![1, 4, 15, 75, 300, 900, 9000]).unwrap(),
            Dimension::balanced("Customer", vec![1, 90, 900]).unwrap(),
            Dimension::balanced("Time", vec![1, 2, 8, 24]).unwrap(),
            Dimension::flat("Channel", 10).unwrap(),
            Dimension::flat("Scenario", 2).unwrap(),
        ])
        .unwrap(),
    )
}

/// The per-dimension, per-level chunk counts used for the APB-1 grid.
///
/// Chosen so that the total chunk census across all 336 group-bys is
/// `32 · 14 · 8 · 3 · 3 = 32 256` — the exact figure of the paper's
/// Table 3 (space overhead of the virtual-count arrays).
pub fn apb1_chunk_counts() -> Vec<Vec<u32>> {
    vec![
        vec![1, 1, 2, 4, 6, 8, 10], // Product  (Σ = 32)
        vec![1, 4, 9],              // Customer (Σ = 14)
        vec![1, 1, 2, 4],           // Time     (Σ = 8)
        vec![1, 2],                 // Channel  (Σ = 3)
        vec![1, 2],                 // Scenario (Σ = 3)
    ]
}

/// Configuration for generating the APB-1-like dataset.
#[derive(Debug, Clone, Copy)]
pub struct Apb1Config {
    /// Number of fact tuples (paper: ≈ one million).
    pub n_tuples: u64,
    /// Fill-skew density (paper's generator parameter: 0.7).
    pub density: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Apb1Config {
    fn default() -> Self {
        Self {
            n_tuples: 1_000_000,
            density: 0.7,
            seed: 0xA9B1,
        }
    }
}

impl Apb1Config {
    /// A scaled-down configuration for tests and quick runs (~50 k tuples).
    pub fn small() -> Self {
        Self {
            n_tuples: 50_000,
            ..Self::default()
        }
    }

    /// Builds the grid and generates the dataset. The fact table (HistSale)
    /// lives at level `(6, 2, 3, 1, 0)` — detailed in Product, Customer,
    /// Time and Channel, aggregated in Scenario — exactly as in the paper.
    pub fn build(self) -> Dataset {
        let schema = apb1_schema();
        let grid = Arc::new(ChunkGrid::build(schema, &apb1_chunk_counts()).unwrap());
        let fact_gb = hist_sale_gb(&grid);
        Dataset::generate(grid, fact_gb, self.n_tuples, self.density, self.seed)
    }
}

/// The group-by id of the HistSale fact level `(6, 2, 3, 1, 0)`.
pub fn hist_sale_gb(grid: &ChunkGrid) -> GroupById {
    grid.schema().lattice().id_of(&[6, 2, 3, 1, 0]).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_has_336_nodes() {
        let s = apb1_schema();
        assert_eq!(s.lattice().num_group_bys(), 336);
    }

    #[test]
    fn census_matches_paper_table3() {
        let schema = apb1_schema();
        let grid = ChunkGrid::build(schema, &apb1_chunk_counts()).unwrap();
        assert_eq!(grid.total_chunk_census(), 32_256);
    }

    #[test]
    fn hist_sale_has_720_chunks() {
        let schema = apb1_schema();
        let grid = ChunkGrid::build(schema, &apb1_chunk_counts()).unwrap();
        let gb = hist_sale_gb(&grid);
        // 10 · 9 · 4 · 2 · 1 chunks.
        assert_eq!(grid.n_chunks(gb), 720);
    }

    #[test]
    fn small_dataset_generates() {
        let ds = Apb1Config {
            n_tuples: 5_000,
            ..Apb1Config::default()
        }
        .build();
        let n = ds.num_tuples();
        assert!(n > 4_000 && n < 6_000, "{n}");
        // Scenario coordinate is the single level-0 value everywhere.
        let some_chunk = ds.fact.non_empty_chunks()[0];
        for (coords, _) in ds.fact.scan_chunk(some_chunk) {
            assert_eq!(coords.get(4), 0);
        }
    }
}
