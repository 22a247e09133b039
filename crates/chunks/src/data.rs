/// Tuple size used for cache-budget accounting, matching the paper's setup
/// (§7: "each of 20 bytes"). The in-memory representation differs, but
/// budgets and sizes are expressed in these accounting bytes so that cache
/// sizes like "10 MB" mean the same thing they meant in the paper.
pub const PAPER_TUPLE_BYTES: usize = 20;

/// The cells of a chunk (or of a query result spanning several chunks), as
/// a structure of arrays: `n_dims` value coordinates per cell plus one
/// measure value.
///
/// Coordinates are value ids *at the chunk's group-by level* — a cell of a
/// chunk at level `(0, 2)` stores a level-0 id for dimension 0 and a level-2
/// id for dimension 1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChunkData {
    n_dims: usize,
    coords: Vec<u32>,
    values: Vec<f64>,
}

impl ChunkData {
    /// Creates an empty container for cells with `n_dims` coordinates.
    pub fn new(n_dims: usize) -> Self {
        Self {
            n_dims,
            coords: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty container with room for `cells` cells.
    pub fn with_capacity(n_dims: usize, cells: usize) -> Self {
        Self {
            n_dims,
            coords: Vec::with_capacity(cells * n_dims),
            values: Vec::with_capacity(cells),
        }
    }

    /// Builds a container from parallel raw arrays.
    ///
    /// `coords.len()` must equal `values.len() * n_dims`.
    pub fn from_raw(n_dims: usize, coords: Vec<u32>, values: Vec<f64>) -> Self {
        assert_eq!(coords.len(), values.len() * n_dims);
        Self {
            n_dims,
            coords,
            values,
        }
    }

    /// Number of coordinate slots per cell.
    #[inline]
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the container holds no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends a cell.
    #[inline]
    pub fn push(&mut self, coords: &[u32], value: f64) {
        debug_assert_eq!(coords.len(), self.n_dims);
        self.coords.extend_from_slice(coords);
        self.values.push(value);
    }

    /// The coordinates of cell `i`.
    #[inline]
    pub fn coords_of(&self, i: usize) -> &[u32] {
        &self.coords[i * self.n_dims..(i + 1) * self.n_dims]
    }

    /// The measure value of cell `i`.
    #[inline]
    pub fn value_of(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Mutable measure value of cell `i`.
    #[inline]
    pub fn value_of_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.values[i]
    }

    /// Iterates over `(coords, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        self.coords
            .chunks_exact(self.n_dims)
            .zip(self.values.iter().copied())
    }

    /// The flattened coordinate array (`len() * n_dims()` entries).
    #[inline]
    pub fn raw_coords(&self) -> &[u32] {
        &self.coords
    }

    /// The measure array.
    #[inline]
    pub fn raw_values(&self) -> &[f64] {
        &self.values
    }

    /// Accounting size in bytes (paper convention: 20 bytes per tuple).
    #[inline]
    pub fn accounting_bytes(&self) -> usize {
        self.len() * PAPER_TUPLE_BYTES
    }

    /// Actual in-memory payload size in bytes.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.coords.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// Appends all cells of `other` (same arity required).
    pub fn append(&mut self, other: &ChunkData) {
        assert_eq!(self.n_dims, other.n_dims, "arity mismatch");
        self.coords.extend_from_slice(&other.coords);
        self.values.extend_from_slice(&other.values);
    }

    /// Sorts cells lexicographically by coordinates (for deterministic
    /// comparison in tests and stable output).
    pub fn sort_by_coords(&mut self) {
        let n = self.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| self.coords_of(a as usize).cmp(self.coords_of(b as usize)));
        let mut coords = Vec::with_capacity(self.coords.len());
        let mut values = Vec::with_capacity(n);
        for &i in &order {
            coords.extend_from_slice(self.coords_of(i as usize));
            values.push(self.values[i as usize]);
        }
        self.coords = coords;
        self.values = values;
    }

    /// Shrinks the backing buffers to fit (cached chunks are immutable once
    /// built, so excess capacity is pure waste).
    pub fn shrink_to_fit(&mut self) {
        self.coords.shrink_to_fit();
        self.values.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut d = ChunkData::new(2);
        d.push(&[1, 2], 3.0);
        d.push(&[0, 5], 7.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.coords_of(0), &[1, 2]);
        assert_eq!(d.value_of(1), 7.0);
        let cells: Vec<_> = d.iter().collect();
        assert_eq!(cells[1], (&[0u32, 5][..], 7.0));
    }

    #[test]
    fn accounting_bytes_use_paper_tuple_size() {
        let mut d = ChunkData::new(5);
        for i in 0..10 {
            d.push(&[i, 0, 0, 0, 0], 1.0);
        }
        assert_eq!(d.accounting_bytes(), 200);
    }

    #[test]
    fn sort_by_coords_orders_lexicographically() {
        let mut d = ChunkData::new(2);
        d.push(&[2, 0], 1.0);
        d.push(&[0, 9], 2.0);
        d.push(&[2, 0], 3.0); // duplicate coords keep both cells
        d.push(&[0, 1], 4.0);
        d.sort_by_coords();
        assert_eq!(d.coords_of(0), &[0, 1]);
        assert_eq!(d.coords_of(1), &[0, 9]);
        assert_eq!(d.coords_of(2), &[2, 0]);
        assert_eq!(d.value_of(0), 4.0);
    }

    #[test]
    fn from_raw_checks_arity() {
        let d = ChunkData::from_raw(2, vec![1, 2, 3, 4], vec![1.0, 2.0]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    #[should_panic]
    fn from_raw_rejects_mismatch() {
        let _ = ChunkData::from_raw(2, vec![1, 2, 3], vec![1.0, 2.0]);
    }
}
