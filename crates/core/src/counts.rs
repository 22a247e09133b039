use crate::storage::{Cells, TableKind};
use aggcache_chunks::{ChunkGrid, ChunkKey};
use std::sync::Arc;

/// The virtual-count table of the VCM method (paper §4).
///
/// For every chunk of every group-by, the table stores a count defined as
/// (Definition 1):
///
/// > the number of parents of that node through which there is a successful
/// > computation path, plus one if the chunk is directly present in the
/// > cache.
///
/// Property 1 — `count > 0` iff the chunk is computable from the cache —
/// makes negative lookups O(1). Counts are maintained incrementally on
/// every cache insert ([`CountTable::on_insert`], the paper's
/// `VCM_InsertUpdateCount`) and eviction ([`CountTable::on_evict`]);
/// updates propagate towards more aggregated group-bys only when a chunk
/// switches between computable and non-computable, which is what keeps the
/// amortized update cost low (Lemma 2).
///
/// Storage is one byte per chunk over the whole chunk census — for the
/// APB-1 grid, 32 256 bytes, exactly the paper's Table 3 figure — or a
/// sparse map holding only non-zero counts ([`CountTable::new_sparse`],
/// the paper's suggested optimization).
///
/// Base-data deltas ([`crate::CacheManager::ingest`]) keep the table
/// consistent through the same two hooks: a chunk patched in place is
/// re-admitted (an evict/insert pair at its new size), and a chunk
/// invalidated — including a COUNT chunk whose tuple count reached zero —
/// leaves through [`CountTable::on_evict`] like any other eviction, so
/// Property 1 holds across updates without any table-specific delta code.
#[derive(Debug)]
pub struct CountTable {
    grid: Arc<ChunkGrid>,
    counts: Cells<u8>,
    /// Total count-cell writes since construction (instrumentation for
    /// Lemma 2 and Table 2).
    updates: u64,
}

impl CountTable {
    /// Allocates a zeroed dense table for every chunk of every group-by.
    pub fn new(grid: Arc<ChunkGrid>) -> Self {
        Self::with_kind(grid, TableKind::Dense)
    }

    /// Creates a sparse table holding only non-zero counts.
    pub fn new_sparse(grid: Arc<ChunkGrid>) -> Self {
        Self::with_kind(grid, TableKind::Sparse)
    }

    /// Creates a table with the given storage layout.
    pub(crate) fn with_kind(grid: Arc<ChunkGrid>, kind: TableKind) -> Self {
        let counts = Cells::new(&grid, kind, 0u8);
        Self {
            grid,
            counts,
            updates: 0,
        }
    }

    /// The count of a chunk.
    #[inline]
    pub fn count(&self, key: ChunkKey) -> u8 {
        self.counts.get(key)
    }

    /// Property 1: computable iff the count is non-zero.
    #[inline]
    pub fn is_computable(&self, key: ChunkKey) -> bool {
        self.counts.get(key) > 0
    }

    /// Total count-cell writes performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Approximate resident memory of the array as actually laid out
    /// (sparse tables shrink with cache occupancy).
    pub fn resident_bytes(&self) -> usize {
        self.counts.resident_bytes()
    }

    /// `VCM_InsertUpdateCount` (paper §4.1): a chunk was inserted into the
    /// cache. Returns the number of count cells written.
    pub fn on_insert(&mut self, key: ChunkKey) -> u64 {
        let before = self.updates;
        self.bump(key);
        self.updates - before
    }

    /// Count maintenance on eviction (the delete analogue of
    /// `VCM_InsertUpdateCount`). Returns the number of count cells written.
    pub fn on_evict(&mut self, key: ChunkKey) -> u64 {
        let before = self.updates;
        self.drop_count(key);
        self.updates - before
    }

    /// Increments a chunk's count; when the chunk becomes *newly
    /// computable* (0 → 1), checks each child group-by: if every sibling
    /// chunk at this level is now computable, the child gains a successful
    /// path through this group-by and is bumped recursively.
    fn bump(&mut self, key: ChunkKey) {
        let c = self
            .counts
            .get(key)
            .checked_add(1)
            .expect("count overflow: more parents than u8?");
        self.counts.set(key, c);
        self.updates += 1;
        if c > 1 {
            // Was already computable — no path status changed below us.
            return;
        }
        self.propagate(key, true);
    }

    /// Decrements a chunk's count; when it becomes non-computable (1 → 0),
    /// every child whose path through this group-by was previously
    /// successful loses that path and is dropped recursively.
    fn drop_count(&mut self, key: ChunkKey) {
        let c = self.counts.get(key);
        debug_assert!(c > 0, "dropping a zero count");
        self.counts.set(key, c - 1);
        self.updates += 1;
        if c > 1 {
            return;
        }
        self.propagate(key, false);
    }

    /// Shared child-propagation for both directions. `inserting` selects the
    /// sibling test:
    /// * insert: the path through this group-by *becomes* successful iff all
    ///   siblings (including this chunk, now at count ≥ 1) are computable;
    /// * evict: the path *was* successful iff all siblings other than this
    ///   chunk (now at count 0) are computable.
    fn propagate(&mut self, key: ChunkKey, inserting: bool) {
        let mut siblings: Vec<aggcache_chunks::ChunkNumber> = Vec::new();
        for dim in 0..self.grid.num_dims() {
            if self.grid.geom(key.gb).level()[dim] == 0 {
                continue; // no child along a fully aggregated dimension
            }
            let (child_gb, child_chunk) = self.grid.child_chunk(key.gb, key.chunk, dim);
            siblings.clear();
            self.grid
                .parent_chunks_into(child_gb, child_chunk, dim, &mut siblings);
            let ok = siblings.iter().all(|&s| {
                (!inserting && s == key.chunk) || self.counts.get(ChunkKey::new(key.gb, s)) > 0
            });
            if ok {
                let child = ChunkKey::new(child_gb, child_chunk);
                if inserting {
                    self.bump(child);
                } else {
                    self.drop_count(child);
                }
            }
        }
    }

    /// Rebuilds the whole table from scratch given the set of cached chunks
    /// — an O(census) reference implementation used to cross-check the
    /// incremental maintenance in tests.
    pub fn rebuild_from(grid: Arc<ChunkGrid>, cached: impl Fn(ChunkKey) -> bool) -> Self {
        let lattice = grid.schema().lattice().clone();
        let mut table = Self::new(grid.clone());
        // Process group-bys from most detailed to most aggregated so that
        // parent counts are final before children are computed.
        let mut ids: Vec<aggcache_schema::GroupById> = lattice.iter_ids().collect();
        ids.sort_by_key(|&id| {
            std::cmp::Reverse(
                lattice
                    .level_of(id)
                    .iter()
                    .map(|&l| u32::from(l))
                    .sum::<u32>(),
            )
        });
        let mut parents: Vec<aggcache_chunks::ChunkNumber> = Vec::new();
        for gb in ids {
            for chunk in 0..grid.n_chunks(gb) {
                let key = ChunkKey::new(gb, chunk);
                let mut count = u8::from(cached(key));
                for (dim, pgb) in lattice.parents(gb) {
                    parents.clear();
                    grid.parent_chunks_into(gb, chunk, dim, &mut parents);
                    if parents
                        .iter()
                        .all(|&p| table.counts.get(ChunkKey::new(pgb, p)) > 0)
                    {
                        count += 1;
                    }
                }
                table.counts.set(key, count);
            }
        }
        table.updates = 0;
        table
    }

    /// Asserts equality with another table (test helper).
    #[doc(hidden)]
    pub fn assert_same(&self, other: &Self) {
        for gb in self.grid.schema().lattice().iter_ids() {
            for chunk in 0..self.grid.n_chunks(gb) {
                let key = ChunkKey::new(gb, chunk);
                assert_eq!(
                    self.counts.get(key),
                    other.counts.get(key),
                    "count mismatch at {key:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, GroupById, Schema};

    /// The paper's Figure 4 lattice: two dimensions of hierarchy size 1,
    /// 4 chunks at (1,1), 2 at (1,0) and (0,1), 1 at (0,0).
    fn fig4_grid() -> Arc<ChunkGrid> {
        let schema = Arc::new(
            Schema::new(vec![
                Dimension::balanced("x", vec![1, 4]).unwrap(),
                Dimension::balanced("y", vec![1, 4]).unwrap(),
            ])
            .unwrap(),
        );
        Arc::new(ChunkGrid::build(schema, &[vec![1, 2], vec![1, 2]]).unwrap())
    }

    fn ids(grid: &ChunkGrid) -> (GroupById, GroupById, GroupById, GroupById) {
        let l = grid.schema().lattice();
        (
            l.id_of(&[1, 1]).unwrap(),
            l.id_of(&[1, 0]).unwrap(),
            l.id_of(&[0, 1]).unwrap(),
            l.id_of(&[0, 0]).unwrap(),
        )
    }

    /// Reproduces the paper's Example 4 (Figure 4): cache contains chunks
    /// 0, 2, 3 of (1,1); chunk 0 of (0,1); chunk 0 of (0,0).
    #[test]
    fn example4_counts() {
        let grid = fig4_grid();
        let (b11, b10, b01, b00) = ids(&grid);
        let mut t = CountTable::new(grid.clone());
        t.on_insert(ChunkKey::new(b11, 0));
        t.on_insert(ChunkKey::new(b11, 2));
        t.on_insert(ChunkKey::new(b11, 3));
        t.on_insert(ChunkKey::new(b01, 0));
        t.on_insert(ChunkKey::new(b00, 0));

        // (1,1): cached chunks have count 1, missing chunk 1 has count 0.
        assert_eq!(t.count(ChunkKey::new(b11, 0)), 1);
        assert_eq!(t.count(ChunkKey::new(b11, 1)), 0);
        assert_eq!(t.count(ChunkKey::new(b11, 2)), 1);
        assert_eq!(t.count(ChunkKey::new(b11, 3)), 1);

        // (1,0): chunk 1 computable from (1,1) chunks 2,3 → count 1;
        // chunk 0 needs (1,1) chunks 0,1 → not computable.
        assert_eq!(t.count(ChunkKey::new(b10, 0)), 0);
        assert_eq!(t.count(ChunkKey::new(b10, 1)), 1);

        // (0,1): chunk 0 cached (+1) plus a successful parent path through
        // (1,1) (chunks 0 and 2) → 2.
        assert_eq!(t.count(ChunkKey::new(b01, 0)), 2);
        assert_eq!(t.count(ChunkKey::new(b01, 1)), 0);

        // (0,0): cached (+1); no complete parent-level path → 1.
        assert_eq!(t.count(ChunkKey::new(b00, 0)), 1);
    }

    #[test]
    fn full_base_makes_everything_computable() {
        let grid = fig4_grid();
        let (b11, b10, b01, b00) = ids(&grid);
        let mut t = CountTable::new(grid.clone());
        for c in 0..4 {
            t.on_insert(ChunkKey::new(b11, c));
        }
        for gb in [b11, b10, b01, b00] {
            for c in 0..grid.n_chunks(gb) {
                assert!(t.is_computable(ChunkKey::new(gb, c)), "{gb:?}/{c}");
            }
        }
        // (0,0): not cached, but paths through both (1,0) and (0,1) → 2.
        assert_eq!(t.count(ChunkKey::new(b00, 0)), 2);
        // (1,0): path through (1,1) only → 1 each.
        assert_eq!(t.count(ChunkKey::new(b10, 0)), 1);
    }

    #[test]
    fn evict_reverses_insert() {
        let grid = fig4_grid();
        let (b11, _, _, _) = ids(&grid);
        let mut t = CountTable::new(grid.clone());
        let keys: Vec<ChunkKey> = (0..4).map(|c| ChunkKey::new(b11, c)).collect();
        for &k in &keys {
            t.on_insert(k);
        }
        for &k in &keys {
            t.on_evict(k);
        }
        let fresh = CountTable::new(grid);
        t.assert_same(&fresh);
    }

    #[test]
    fn count_matches_rebuild_after_mixed_ops() {
        let grid = fig4_grid();
        let (b11, b10, b01, _) = ids(&grid);
        let mut t = CountTable::new(grid.clone());
        let mut cached: std::collections::HashSet<ChunkKey> = Default::default();
        let ops: Vec<(bool, ChunkKey)> = vec![
            (true, ChunkKey::new(b11, 0)),
            (true, ChunkKey::new(b11, 1)),
            (true, ChunkKey::new(b10, 1)),
            (true, ChunkKey::new(b11, 2)),
            (true, ChunkKey::new(b11, 3)),
            (false, ChunkKey::new(b11, 1)),
            (true, ChunkKey::new(b01, 0)),
            (false, ChunkKey::new(b11, 0)),
            (false, ChunkKey::new(b10, 1)),
        ];
        for (ins, key) in ops {
            if ins {
                cached.insert(key);
                t.on_insert(key);
            } else {
                cached.remove(&key);
                t.on_evict(key);
            }
            let reference = CountTable::rebuild_from(grid.clone(), |k| cached.contains(&k));
            t.assert_same(&reference);
        }
    }

    /// A sparse table must behave identically to a dense one through a
    /// mixed insert/evict workload, while holding only non-zero cells.
    #[test]
    fn sparse_matches_dense() {
        let grid = fig4_grid();
        let (b11, b10, b01, b00) = ids(&grid);
        let mut dense = CountTable::new(grid.clone());
        let mut sparse = CountTable::new_sparse(grid.clone());
        let ops: Vec<(bool, ChunkKey)> = vec![
            (true, ChunkKey::new(b11, 0)),
            (true, ChunkKey::new(b11, 1)),
            (true, ChunkKey::new(b11, 2)),
            (true, ChunkKey::new(b11, 3)),
            (true, ChunkKey::new(b00, 0)),
            (false, ChunkKey::new(b11, 2)),
            (true, ChunkKey::new(b01, 1)),
            (false, ChunkKey::new(b11, 0)),
        ];
        for (ins, key) in ops {
            if ins {
                dense.on_insert(key);
                sparse.on_insert(key);
            } else {
                dense.on_evict(key);
                sparse.on_evict(key);
            }
            dense.assert_same(&sparse);
        }
        // On this 9-chunk census the per-entry overhead dominates; the
        // sparse win appears at census scale (the table3 binary reports
        // it). Here just check both layouts report something sensible.
        assert_eq!(dense.resident_bytes() as u64, grid.total_chunk_census());
        assert!(sparse.resident_bytes() > 0);
        let _ = b10;
    }

    #[test]
    fn update_cost_is_bounded_by_lemma2() {
        // Lemma 2: inserting at level (l_1 … l_n) writes at most
        // n · Π (l_i + 1) counts.
        let grid = fig4_grid();
        let lattice = grid.schema().lattice().clone();
        for (gb, level) in lattice.iter_levels() {
            let mut t = CountTable::new(grid.clone());
            let bound: u64 =
                grid.num_dims() as u64 * level.iter().map(|&l| u64::from(l) + 1).product::<u64>();
            for chunk in 0..grid.n_chunks(gb) {
                let writes = t.on_insert(ChunkKey::new(gb, chunk));
                assert!(
                    writes <= bound.max(1),
                    "insert at {level:?} wrote {writes} counts, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn array_bytes_equals_census() {
        let grid = fig4_grid();
        let t = CountTable::new(grid.clone());
        assert_eq!(t.resident_bytes() as u64, grid.total_chunk_census());
    }
}
