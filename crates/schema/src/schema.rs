use crate::{Dimension, Lattice, Level, SchemaError};

/// A multi-dimensional schema: an ordered set of dimensions and a measure.
///
/// The schema owns the group-by [`Lattice`] induced by its dimensions'
/// hierarchy sizes. All level tuples used with the schema follow the paper's
/// order convention: coordinate `d` of a tuple is the hierarchy level of
/// dimension `d`, with 0 the most aggregated.
#[derive(Debug, Clone)]
pub struct Schema {
    dimensions: Vec<Dimension>,
    measure: String,
    lattice: Lattice,
}

impl Schema {
    /// Builds a schema from dimensions and a measure name.
    ///
    /// Refuses ([`SchemaError::TooManyCells`]) a schema whose base-level
    /// cell space overflows `u64`: the aggregation kernel keys every cell
    /// of a level by one row-major `u64`.
    pub fn new(
        dimensions: Vec<Dimension>,
        measure: impl Into<String>,
    ) -> Result<Self, SchemaError> {
        if dimensions.is_empty() {
            return Err(SchemaError::NoDimensions);
        }
        let sizes: Vec<u8> = dimensions.iter().map(Dimension::hierarchy_size).collect();
        let lattice = Lattice::new(&sizes)?;
        dimensions
            .iter()
            .zip(&sizes)
            .try_fold(1u64, |cells, (d, &h)| {
                cells.checked_mul(u64::from(d.cardinality(h)))
            })
            .ok_or(SchemaError::TooManyCells)?;
        Ok(Self {
            dimensions,
            measure: measure.into(),
            lattice,
        })
    }

    /// Number of dimensions.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.dimensions.len()
    }

    /// The dimensions, in schema order.
    #[inline]
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dimensions
    }

    /// Dimension `d`.
    #[inline]
    pub fn dimension(&self, d: usize) -> &Dimension {
        &self.dimensions[d]
    }

    /// The measure name (e.g. `UnitSales`).
    #[inline]
    pub fn measure(&self) -> &str {
        &self.measure
    }

    /// The group-by lattice.
    #[inline]
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The base level tuple `(h_1, …, h_n)`.
    pub fn base_level(&self) -> Level {
        self.dimensions
            .iter()
            .map(Dimension::hierarchy_size)
            .collect()
    }

    /// Total number of cells (value combinations) at the given level:
    /// `Π card_d(l_d)`. Saturates at `u64::MAX`.
    pub fn cells_at(&self, level: &[u8]) -> u64 {
        debug_assert_eq!(level.len(), self.dimensions.len());
        level.iter().enumerate().fold(1u64, |acc, (d, &l)| {
            acc.saturating_mul(u64::from(self.dimensions[d].cardinality(l)))
        })
    }

    /// Expected number of *non-empty* cells at `level` when `n` facts are
    /// spread uniformly over the base cells: `D · (1 − e^(−n/D))` with `D`
    /// the cell count at `level`. Used by pre-loading to estimate group-by
    /// sizes without scanning (paper §6.3).
    pub fn estimated_distinct_cells(&self, level: &[u8], n_facts: u64) -> u64 {
        let d = self.cells_at(level) as f64;
        let n = n_facts as f64;
        (d * (1.0 - (-n / d).exp())).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            vec![
                Dimension::balanced("a", vec![1, 2, 4]).unwrap(),
                Dimension::flat("b", 6).unwrap(),
            ],
            "m",
        )
        .unwrap()
    }

    #[test]
    fn lattice_matches_dimensions() {
        let s = schema();
        assert_eq!(s.lattice().num_group_bys(), 3 * 2);
        assert_eq!(s.base_level(), vec![2, 1]);
    }

    #[test]
    fn cells_at_levels() {
        let s = schema();
        assert_eq!(s.cells_at(&[2, 1]), 24);
        assert_eq!(s.cells_at(&[0, 0]), 1);
        assert_eq!(s.cells_at(&[1, 1]), 12);
    }

    #[test]
    fn estimated_distinct_is_bounded() {
        let s = schema();
        // With many facts, every cell is expected to be filled.
        assert_eq!(s.estimated_distinct_cells(&[2, 1], 100_000), 24);
        // With zero facts, nothing is filled.
        assert_eq!(s.estimated_distinct_cells(&[2, 1], 0), 0);
        // Monotone in n.
        let few = s.estimated_distinct_cells(&[2, 1], 5);
        let more = s.estimated_distinct_cells(&[2, 1], 20);
        assert!(few <= more && more <= 24);
    }

    #[test]
    fn refuses_a_cell_space_beyond_u64() {
        let flat = |n: usize| {
            let dims = (0..n)
                .map(|d| Dimension::flat(format!("d{d}"), 1 << 17).unwrap())
                .collect();
            Schema::new(dims, "m")
        };
        // 2^68 cells.
        assert_eq!(flat(4).unwrap_err(), SchemaError::TooManyCells);
        // 2^51 cells.
        assert_eq!(flat(3).unwrap().cells_at(&[1, 1, 1]), 1 << 51);
    }

    #[test]
    fn rejects_empty_schema() {
        assert!(matches!(
            Schema::new(vec![], "m").unwrap_err(),
            SchemaError::NoDimensions
        ));
    }
}
