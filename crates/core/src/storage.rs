use aggcache_chunks::hash::PackedMap;
use aggcache_chunks::{ChunkGrid, ChunkKey};

/// Storage layout of the per-chunk acceleration arrays.
///
/// The paper sizes its arrays densely (1 B/chunk for VCM, 6 B/chunk for
/// VCMC over the full 32 256-chunk census) but notes that "sparse array
/// representation can be used to reduce storage" (§7, Table 3 discussion):
/// most chunks of most group-bys are neither cached nor computable, so
/// their cells hold the default value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TableKind {
    /// One slot per chunk of every group-by, allocated up front.
    Dense,
    /// A hash map holding only non-default cells.
    Sparse,
}

/// A per-chunk cell array over the whole cube, dense or sparse. The sparse
/// map is keyed by packed chunk keys ([`ChunkKey::pack`]) behind the fast
/// deterministic hasher — count/cost maintenance hits these cells on every
/// probe and admission.
#[derive(Debug)]
pub(crate) enum Cells<T> {
    Dense(Vec<Vec<T>>),
    Sparse { default: T, map: PackedMap<T> },
}

impl<T: Copy + PartialEq> Cells<T> {
    pub(crate) fn new(grid: &ChunkGrid, kind: TableKind, default: T) -> Self {
        match kind {
            TableKind::Dense => Cells::Dense(
                grid.schema()
                    .lattice()
                    .iter_ids()
                    .map(|gb| vec![default; grid.n_chunks(gb) as usize])
                    .collect(),
            ),
            TableKind::Sparse => Cells::Sparse {
                default,
                map: PackedMap::default(),
            },
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: ChunkKey) -> T {
        match self {
            Cells::Dense(v) => v[key.gb.index()][key.chunk as usize],
            Cells::Sparse { default, map } => map.get(&key.pack()).copied().unwrap_or(*default),
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, key: ChunkKey, value: T) {
        match self {
            Cells::Dense(v) => v[key.gb.index()][key.chunk as usize] = value,
            Cells::Sparse { default, map } => {
                if value == *default {
                    map.remove(&key.pack());
                } else {
                    map.insert(key.pack(), value);
                }
            }
        }
    }

    /// Approximate resident memory of the array in bytes. Dense: exactly
    /// one `T` per chunk of the census. Sparse: per-entry key + value +
    /// an estimated hash-table overhead factor of 2× on slots. The sparse
    /// estimate deliberately keeps the logical [`ChunkKey`] size (the
    /// in-memory packed key is smaller) so Table 3 figures stay comparable
    /// across revisions.
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            Cells::Dense(v) => v.iter().map(|g| g.len() * std::mem::size_of::<T>()).sum(),
            Cells::Sparse { map, .. } => {
                map.len() * (std::mem::size_of::<ChunkKey>() + std::mem::size_of::<T>()) * 2
            }
        }
    }

    /// Number of non-default cells (sparse occupancy; dense tables report
    /// their full slot count — occupancy is a sparse-layout statistic).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn occupied(&self) -> usize {
        match self {
            Cells::Dense(v) => v.iter().map(Vec::len).sum(),
            Cells::Sparse { map, .. } => map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, GroupById, Schema};
    use std::sync::Arc;

    fn grid() -> ChunkGrid {
        let schema = Arc::new(Schema::new(vec![Dimension::flat("a", 8).unwrap()], "m").unwrap());
        ChunkGrid::build(schema, &[vec![1, 4]]).unwrap()
    }

    #[test]
    fn dense_and_sparse_agree() {
        let g = grid();
        let mut dense: Cells<u8> = Cells::new(&g, TableKind::Dense, 0);
        let mut sparse: Cells<u8> = Cells::new(&g, TableKind::Sparse, 0);
        let keys = [
            ChunkKey::new(GroupById(0), 0),
            ChunkKey::new(GroupById(1), 2),
            ChunkKey::new(GroupById(1), 3),
        ];
        for (i, &k) in keys.iter().enumerate() {
            dense.set(k, i as u8 + 1);
            sparse.set(k, i as u8 + 1);
        }
        dense.set(keys[1], 0);
        sparse.set(keys[1], 0);
        for gb in g.schema().lattice().iter_ids() {
            for c in 0..g.n_chunks(gb) {
                let k = ChunkKey::new(gb, c);
                assert_eq!(dense.get(k), sparse.get(k), "{k:?}");
            }
        }
        // Setting back to default removed the sparse entry.
        assert_eq!(sparse.occupied(), 2);
    }

    #[test]
    fn resident_bytes_reflect_layout() {
        let g = grid();
        let dense: Cells<u32> = Cells::new(&g, TableKind::Dense, u32::MAX);
        // Census = 1 + 4 chunks, 4 bytes each.
        assert_eq!(dense.resident_bytes(), 5 * 4);
        let mut sparse: Cells<u32> = Cells::new(&g, TableKind::Sparse, u32::MAX);
        assert_eq!(sparse.resident_bytes(), 0);
        sparse.set(ChunkKey::new(GroupById(0), 0), 7);
        assert!(sparse.resident_bytes() > 0);
    }
}
