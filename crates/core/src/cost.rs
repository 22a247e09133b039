use crate::storage::{Cells, TableKind};
use crate::CountTable;
use aggcache_chunks::{ChunkGrid, ChunkKey, ChunkNumber};
use aggcache_schema::GroupById;
use std::sync::Arc;

/// Sentinel cost for a chunk that is not computable from the cache.
pub const COST_INF: u32 = u32::MAX;

/// `BestParent` sentinel: chunk is not computable.
pub const PARENT_NONE: u8 = 0xFF;

/// `BestParent` sentinel: the cheapest way to obtain the chunk is the chunk
/// itself, directly from the cache.
pub const PARENT_SELF: u8 = 0xFE;

/// The cost/best-parent table of the VCMC method (paper §5.2).
///
/// In addition to the virtual counts, VCMC stores for every computable
/// chunk the *least cost* of computing it and the parent group-by through
/// which the least-cost path passes. Cost is the paper's linear model: the
/// number of tuples aggregated, i.e. the total size of the cached leaf
/// chunks a computation reads:
///
/// * `cost(c) = size(c)` when `c` is cached;
/// * `cost(c) = min over parent group-bys P of Σ cost(parent chunks at P)`
///   otherwise (and the minimum of both when cached).
///
/// Updates propagate on insert/evict in the two cases the paper names:
/// when a chunk switches computability, and when its least cost changes.
/// Storage per chunk: 1 byte count + 4 bytes cost + 1 byte best-parent —
/// the 6 bytes/chunk of Table 3. (An auxiliary cached-size array is kept
/// internally so evictions can be processed without consulting the cache;
/// it is an implementation detail outside the paper's accounting.)
///
/// Base-data deltas ([`crate::CacheManager::ingest`]) reach this table
/// only through the ordinary insert/evict hooks: a patched chunk is
/// re-admitted at its new size (updating the cached-size array and any
/// least-cost path that read it), an invalidated chunk is evicted. The
/// cell writes those hooks perform are counted by `updates()` and charged
/// to [`crate::UpdateMetrics::table_writes`] — never to the query-side
/// [`crate::QueryMetrics::table_writes`].
#[derive(Debug)]
pub struct CostTable {
    grid: Arc<ChunkGrid>,
    counts: CountTable,
    /// Least cost per chunk; `COST_INF` when not computable.
    cost: Cells<u32>,
    /// Best parent per chunk: a dimension index, `PARENT_SELF`, or
    /// `PARENT_NONE`.
    best: Cells<u8>,
    /// Size (tuples) of the chunk while cached, else `COST_INF`.
    direct: Cells<u32>,
    updates: u64,
    /// Scratch for [`CostTable::recompute`]'s parent-chunk lists, reused
    /// across calls so a relaxation allocates nothing.
    parents: Vec<ChunkNumber>,
}

impl CostTable {
    /// Allocates a dense table for every chunk of every group-by.
    pub fn new(grid: Arc<ChunkGrid>) -> Self {
        Self::with_kind(grid, TableKind::Dense)
    }

    /// Creates a sparse table holding only cells of computable chunks.
    pub fn new_sparse(grid: Arc<ChunkGrid>) -> Self {
        Self::with_kind(grid, TableKind::Sparse)
    }

    /// Creates a table with the given storage layout.
    pub(crate) fn with_kind(grid: Arc<ChunkGrid>, kind: TableKind) -> Self {
        Self {
            counts: CountTable::with_kind(grid.clone(), kind),
            cost: Cells::new(&grid, kind, COST_INF),
            best: Cells::new(&grid, kind, PARENT_NONE),
            direct: Cells::new(&grid, kind, COST_INF),
            grid,
            updates: 0,
            parents: Vec::new(),
        }
    }

    /// The embedded virtual-count table.
    pub(crate) fn counts(&self) -> &CountTable {
        &self.counts
    }

    /// Least cost of computing `key` from the cache (tuples aggregated), or
    /// `None` if not computable. O(1) — this is what lets a cost-based
    /// optimizer decide cache-vs-backend without doing the aggregation
    /// (paper §5.2).
    #[inline]
    pub fn cost(&self, key: ChunkKey) -> Option<u32> {
        let c = self.cost.get(key);
        (c != COST_INF).then_some(c)
    }

    /// The best parent marker of `key`: a dimension index, [`PARENT_SELF`]
    /// or [`PARENT_NONE`].
    #[inline]
    pub(crate) fn best_parent(&self, key: ChunkKey) -> u8 {
        self.best.get(key)
    }

    /// Total cost/best/count cell writes so far.
    pub fn updates(&self) -> u64 {
        self.updates + self.counts.updates()
    }

    /// Approximate resident memory of the arrays as actually laid out.
    pub fn resident_bytes(&self) -> usize {
        self.counts.resident_bytes()
            + self.cost.resident_bytes()
            + self.best.resident_bytes()
            + self.direct.resident_bytes()
    }

    /// A chunk of `size` tuples was inserted into the cache. Returns the
    /// number of table-cell writes performed.
    pub fn on_insert(&mut self, key: ChunkKey, size: u32) -> u64 {
        let before = self.updates();
        self.counts.on_insert(key);
        self.direct.set(key, size);
        self.relax_from(key);
        self.updates() - before
    }

    /// A chunk was evicted from the cache. Returns the number of table-cell
    /// writes performed.
    pub fn on_evict(&mut self, key: ChunkKey) -> u64 {
        let before = self.updates();
        self.counts.on_evict(key);
        self.direct.set(key, COST_INF);
        self.relax_from(key);
        self.updates() - before
    }

    /// Relaxes `key` and everything below it, lending the recursion the
    /// table's scratch buffer.
    fn relax_from(&mut self, key: ChunkKey) {
        let mut parents = std::mem::take(&mut self.parents);
        self.relax(key.gb, key.chunk, &mut parents);
        self.parents = parents;
    }

    /// Recomputes `chunk`'s (cost, best-parent) from the current state of
    /// its parents, and recursively relaxes children when the value
    /// changed. Values move monotonically within one insert (down) or evict
    /// (up), so the recursion terminates.
    fn relax(&mut self, gb: GroupById, chunk: ChunkNumber, parents: &mut Vec<ChunkNumber>) {
        let key = ChunkKey::new(gb, chunk);
        let (new_cost, new_best) = self.recompute(gb, chunk, parents);
        let old_cost = self.cost.get(key);
        let old_best = self.best.get(key);
        if new_cost == old_cost && new_best == old_best {
            return;
        }
        self.cost.set(key, new_cost);
        self.best.set(key, new_best);
        self.updates += 2;
        if new_cost == old_cost {
            // Only the best-parent label changed; children's sums are
            // unaffected.
            return;
        }
        for dim in 0..self.grid.num_dims() {
            if self.grid.geom(gb).level()[dim] == 0 {
                continue;
            }
            let (child_gb, child_chunk) = self.grid.child_chunk(gb, chunk, dim);
            self.relax(child_gb, child_chunk, parents);
        }
    }

    /// The (cost, best-parent) of a chunk given current parent costs.
    /// `parents` is scratch: its contents on entry and exit mean nothing.
    fn recompute(
        &self,
        gb: GroupById,
        chunk: ChunkNumber,
        parents: &mut Vec<ChunkNumber>,
    ) -> (u32, u8) {
        let mut best_cost = self.direct.get(ChunkKey::new(gb, chunk));
        let mut best_parent = if best_cost != COST_INF {
            PARENT_SELF
        } else {
            PARENT_NONE
        };
        for dim in 0..self.grid.num_dims() {
            let geom = self.grid.geom(gb);
            if u32::from(geom.level()[dim])
                >= u32::from(self.grid.schema().lattice().hierarchy_size(dim))
            {
                continue; // already at the most detailed level on this dim
            }
            parents.clear();
            let parent_gb = self.grid.parent_chunks_into(gb, chunk, dim, parents);
            let mut sum: u64 = 0;
            let mut ok = true;
            for &p in parents.iter() {
                let c = self.cost.get(ChunkKey::new(parent_gb, p));
                if c == COST_INF {
                    ok = false;
                    break;
                }
                sum += u64::from(c);
            }
            if ok {
                let sum = sum.min(u64::from(COST_INF - 1)) as u32;
                if sum < best_cost {
                    best_cost = sum;
                    best_parent = dim as u8;
                }
            }
        }
        (best_cost, best_parent)
    }

    /// Exhaustive reference: the true minimum cost of every chunk given the
    /// cached sizes, computed by dynamic programming from the base level
    /// down. Used to cross-check incremental maintenance in tests.
    #[doc(hidden)]
    pub fn oracle_costs(
        grid: &Arc<ChunkGrid>,
        cached_size: impl Fn(ChunkKey) -> Option<u32>,
    ) -> Vec<Vec<u32>> {
        let lattice = grid.schema().lattice().clone();
        let mut cost: Vec<Vec<u32>> = lattice
            .iter_ids()
            .map(|gb| vec![COST_INF; grid.n_chunks(gb) as usize])
            .collect();
        let mut ids: Vec<GroupById> = lattice.iter_ids().collect();
        ids.sort_by_key(|&id| {
            std::cmp::Reverse(
                lattice
                    .level_of(id)
                    .iter()
                    .map(|&l| u32::from(l))
                    .sum::<u32>(),
            )
        });
        let mut parents: Vec<ChunkNumber> = Vec::new();
        for gb in ids {
            for chunk in 0..grid.n_chunks(gb) {
                let mut best = cached_size(ChunkKey::new(gb, chunk)).unwrap_or(COST_INF);
                for (_, pgb) in lattice.parents(gb) {
                    // Which dimension is this parent along?
                    let dim = (0..grid.num_dims())
                        .find(|&d| lattice.level_of(pgb)[d] == lattice.level_of(gb)[d] + 1)
                        .unwrap();
                    parents.clear();
                    grid.parent_chunks_into(gb, chunk, dim, &mut parents);
                    let mut sum = 0u64;
                    let mut ok = true;
                    for &p in &parents {
                        let c = cost[pgb.index()][p as usize];
                        if c == COST_INF {
                            ok = false;
                            break;
                        }
                        sum += u64::from(c);
                    }
                    if ok {
                        best = best.min(sum.min(u64::from(COST_INF - 1)) as u32);
                    }
                }
                cost[gb.index()][chunk as usize] = best;
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, Schema};

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

    #[test]
    fn cached_chunk_costs_its_size() {
        let grid = fig4_grid();
        let (b11, _, _, _) = ids(&grid);
        let mut t = CostTable::new(grid);
        t.on_insert(ChunkKey::new(b11, 0), 10);
        assert_eq!(t.cost(ChunkKey::new(b11, 0)), Some(10));
        assert_eq!(t.best_parent(ChunkKey::new(b11, 0)), PARENT_SELF);
        assert_eq!(t.cost(ChunkKey::new(b11, 1)), None);
        assert_eq!(t.best_parent(ChunkKey::new(b11, 1)), PARENT_NONE);
    }

    /// The paper's Figure 5 situation: multiple paths with different costs;
    /// the table must hold the cheapest.
    #[test]
    fn min_cost_path_is_chosen() {
        let grid = fig4_grid();
        let (b11, b10, b01, b00) = ids(&grid);
        let mut t = CostTable::new(grid);
        // Base chunks, sizes 5 each → (1,1) costs 5 per chunk.
        for c in 0..4 {
            t.on_insert(ChunkKey::new(b11, c), 5);
        }
        // A cached, small (0,1) level: 2 chunks of size 2.
        t.on_insert(ChunkKey::new(b01, 0), 2);
        t.on_insert(ChunkKey::new(b01, 1), 2);
        // (0,0): via (0,1) costs 2+2=4; via (1,0) costs 5·4=20 (each (1,0)
        // chunk costs 10 from base). The best path must go through (0,1).
        assert_eq!(t.cost(ChunkKey::new(b00, 0)), Some(4));
        let bp = t.best_parent(ChunkKey::new(b00, 0));
        // Dimension 1 steps (0,0) → (0,1).
        assert_eq!(bp, 1);
        // And (1,0) chunks cost 10 via the base level, which is their
        // parent along dimension 1 (level (1,0) → (1,1)).
        assert_eq!(t.cost(ChunkKey::new(b10, 0)), Some(10));
        assert_eq!(t.best_parent(ChunkKey::new(b10, 0)), 1);
    }

    #[test]
    fn insert_decreases_costs_evict_increases() {
        let grid = fig4_grid();
        let (b11, _, b01, b00) = ids(&grid);
        let mut t = CostTable::new(grid);
        for c in 0..4 {
            t.on_insert(ChunkKey::new(b11, c), 5);
        }
        assert_eq!(t.cost(ChunkKey::new(b00, 0)), Some(20));
        t.on_insert(ChunkKey::new(b01, 0), 2);
        t.on_insert(ChunkKey::new(b01, 1), 2);
        assert_eq!(t.cost(ChunkKey::new(b00, 0)), Some(4));
        t.on_evict(ChunkKey::new(b01, 0));
        // (0,1) chunk 0 falls back to its parent path (cost 10); the top
        // goes to 10+2 = 12 via (0,1)… or 20 via (1,0) → 12.
        assert_eq!(t.cost(ChunkKey::new(b01, 0)), Some(10));
        assert_eq!(t.cost(ChunkKey::new(b00, 0)), Some(12));
        t.on_evict(ChunkKey::new(b01, 1));
        assert_eq!(t.cost(ChunkKey::new(b00, 0)), Some(20));
    }

    #[test]
    fn costs_match_oracle_through_random_ops() {
        use std::collections::HashMap;
        let grid = fig4_grid();
        let lattice = grid.schema().lattice().clone();
        let mut t = CostTable::new(grid.clone());
        let mut cached: HashMap<ChunkKey, u32> = HashMap::new();
        // Deterministic pseudo-random op sequence over all chunks.
        let mut state = 0x12345u64;
        let all_keys: Vec<ChunkKey> = lattice
            .iter_ids()
            .flat_map(|gb| (0..grid.n_chunks(gb)).map(move |c| ChunkKey::new(gb, c)))
            .collect();
        for step in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = all_keys[(state >> 33) as usize % all_keys.len()];
            if let std::collections::hash_map::Entry::Vacant(e) = cached.entry(key) {
                let size = (state % 20) as u32 + 1;
                e.insert(size);
                t.on_insert(key, size);
            } else {
                cached.remove(&key);
                t.on_evict(key);
            }
            let oracle = CostTable::oracle_costs(&grid, |k| cached.get(&k).copied());
            for &k in &all_keys {
                let oracle_cost = oracle[k.gb.index()][k.chunk as usize];
                let got = t.cost(k).unwrap_or(COST_INF);
                assert_eq!(got, oracle_cost, "cost mismatch at {k:?} after step {step}");
            }
            // Count/cost computability must agree (Property 1 both ways).
            for &k in &all_keys {
                assert_eq!(t.counts().is_computable(k), t.cost(k).is_some());
            }
        }
    }

    /// A sparse table must behave identically to a dense one — same
    /// costs, same best parents, same write counts — through a mixed
    /// insert/evict workload over every chunk of the lattice.
    #[test]
    fn sparse_matches_dense() {
        let grid = fig4_grid();
        let lattice = grid.schema().lattice().clone();
        let mut dense = CostTable::new(grid.clone());
        let mut sparse = CostTable::new_sparse(grid.clone());
        let all_keys: Vec<ChunkKey> = lattice
            .iter_ids()
            .flat_map(|gb| (0..grid.n_chunks(gb)).map(move |c| ChunkKey::new(gb, c)))
            .collect();
        let mut cached = std::collections::HashSet::new();
        let mut state = 0x5eed_u64;
        for step in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = all_keys[(state >> 33) as usize % all_keys.len()];
            if cached.insert(key) {
                let size = (state % 20) as u32 + 1;
                assert_eq!(dense.on_insert(key, size), sparse.on_insert(key, size));
            } else {
                cached.remove(&key);
                assert_eq!(dense.on_evict(key), sparse.on_evict(key));
            }
            for &k in &all_keys {
                assert_eq!(dense.cost(k), sparse.cost(k), "{k:?} after step {step}");
                assert_eq!(dense.best_parent(k), sparse.best_parent(k), "{k:?}");
            }
            dense.counts().assert_same(sparse.counts());
        }
        assert_eq!(dense.updates(), sparse.updates());
    }

    #[test]
    fn table3_accounting() {
        let grid = fig4_grid();
        let t = CostTable::new(grid.clone());
        // Table 3's 6 bytes per chunk (count, cost, best parent), plus the
        // 4-byte cached-size array outside the paper's accounting.
        assert_eq!(
            t.resident_bytes() as u64,
            (6 + 4) * grid.total_chunk_census()
        );
    }

    #[test]
    fn vcm_updates_stop_but_vcmc_updates_propagate() {
        // Paper Table 2's observation: after loading the base level,
        // loading an aggregated level writes no *count* cells (everything
        // is already computable) but does write *cost* cells (costs drop).
        let grid = fig4_grid();
        let (b11, b10, _, _) = ids(&grid);
        let mut vcm = CountTable::new(grid.clone());
        let mut vcmc = CostTable::new(grid.clone());
        for c in 0..4 {
            vcm.on_insert(ChunkKey::new(b11, c));
            vcmc.on_insert(ChunkKey::new(b11, c), 5);
        }
        // Now load (1,0): VCM writes only the chunk's own cell (+1 each,
        // no propagation); VCMC propagates cost changes further.
        let mut vcm_writes = 0;
        let mut vcmc_writes = 0;
        for c in 0..2 {
            vcm_writes += vcm.on_insert(ChunkKey::new(b10, c));
            vcmc_writes += vcmc.on_insert(ChunkKey::new(b10, c), 3);
        }
        assert_eq!(vcm_writes, 2, "counts must not propagate");
        assert!(
            vcmc_writes > 2,
            "cost updates must propagate ({vcmc_writes} writes)"
        );
    }
}
