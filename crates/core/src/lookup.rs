use crate::{CostTable, CountTable, PARENT_NONE, PARENT_SELF};
use aggcache_cache::ChunkCache;
use aggcache_chunks::{ChunkGrid, ChunkKey, ChunkNumber};

/// Which lookup algorithm the cache manager runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Plain chunk cache: only direct hits, no aggregation (the baseline of
    /// paper Fig. 9).
    NoAggregation,
    /// Exhaustive Search Method (§3.1): recursively explores lattice paths,
    /// stopping at the first success.
    Esm,
    /// Cost-based ESM (§5.1): explores **all** paths to find the cheapest.
    /// `node_budget` caps visited nodes (`None` = unbounded, as in the
    /// paper); when exceeded the lookup gives up and reports a miss.
    Esmc {
        /// Maximum nodes to visit before giving up.
        node_budget: Option<u64>,
    },
    /// Virtual Count Method (§4): O(1) negative lookups via [`CountTable`].
    Vcm,
    /// Cost-based VCM (§5.2): O(path) optimal lookups via [`CostTable`].
    Vcmc,
}

impl Strategy {
    /// Stable lowercase name, used in trace events and exports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::NoAggregation => "no_aggregation",
            Self::Esm => "esm",
            Self::Esmc { .. } => "esmc",
            Self::Vcm => "vcm",
            Self::Vcmc => "vcmc",
        }
    }
}

/// Statistics of one lookup, for the paper's complexity comparisons.
#[derive(Debug, Default, Clone, Copy)]
pub struct LookupStats {
    /// Number of (group-by, chunk) nodes visited.
    pub nodes_visited: u64,
}

/// The outcome of one chunk lookup: the plan (when the chunk is answerable
/// from the cache) plus the lookup statistics.
///
/// A named struct rather than a tuple so new per-lookup fields (e.g. remote
/// ownership information in the cluster tier) can be added without another
/// breaking signature change.
#[derive(Debug, Default, Clone)]
pub struct LookupOutcome {
    /// How to obtain the chunk from the cache, or `None` on a miss.
    pub plan: Option<ComputationPlan>,
    /// Lookup statistics (nodes visited).
    pub stats: LookupStats,
}

impl LookupOutcome {
    /// Whether the chunk is answerable from the cache (directly or by
    /// aggregation).
    pub fn answerable(&self) -> bool {
        self.plan.is_some()
    }

    /// Whether the chunk itself is resident (no aggregation needed).
    pub fn direct_hit(&self) -> bool {
        self.plan.as_ref().is_some_and(|p| p.direct_hit)
    }
}

/// A successful lookup: how to obtain the chunk from the cache.
///
/// `leaves` are the cached chunks (possibly at several different group-by
/// levels) whose cells aggregate exactly into the target chunk — thanks to
/// the closure property their regions partition the target's region. When
/// the target itself is cached the plan is the single leaf `target`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputationPlan {
    /// The chunk being computed.
    pub target: ChunkKey,
    /// The cached chunks to aggregate.
    pub leaves: Vec<ChunkKey>,
    /// Total tuples to aggregate (sum of leaf sizes) — the paper's linear
    /// cost.
    pub cost: u64,
    /// Whether the target is directly cached (no aggregation needed).
    pub direct_hit: bool,
}

fn leaf_size(cache: &ChunkCache, key: &ChunkKey) -> u64 {
    cache.peek(key).map_or(0, |e| e.data.len() as u64)
}

/// Direct-lookup-only baseline: a plan iff the chunk itself is cached.
pub fn no_aggregation(
    cache: &ChunkCache,
    key: ChunkKey,
    stats: &mut LookupStats,
) -> Option<ComputationPlan> {
    stats.nodes_visited += 1;
    cache.contains(&key).then(|| ComputationPlan {
        target: key,
        leaves: vec![key],
        cost: leaf_size(cache, &key),
        direct_hit: true,
    })
}

/// The Exhaustive Search Method (paper §3.1).
///
/// If the chunk is cached, done. Otherwise try each parent group-by in
/// turn: the chunk is computable through a parent iff *every* covering
/// parent chunk is (recursively) computable. Stops at the first successful
/// path; worst case explores the factorially-many paths of Lemma 1 times
/// the chunk fan-out.
pub fn esm(
    cache: &ChunkCache,
    grid: &ChunkGrid,
    key: ChunkKey,
    stats: &mut LookupStats,
) -> Option<ComputationPlan> {
    let mut leaves = Vec::new();
    if esm_rec(cache, grid, key, stats, &mut leaves) {
        let cost = leaves.iter().map(|l| leaf_size(cache, l)).sum();
        let direct_hit = leaves.len() == 1 && leaves[0] == key;
        Some(ComputationPlan {
            target: key,
            leaves,
            cost,
            direct_hit,
        })
    } else {
        None
    }
}

fn esm_rec(
    cache: &ChunkCache,
    grid: &ChunkGrid,
    key: ChunkKey,
    stats: &mut LookupStats,
    leaves: &mut Vec<ChunkKey>,
) -> bool {
    stats.nodes_visited += 1;
    if cache.contains(&key) {
        leaves.push(key);
        return true;
    }
    let lattice = grid.schema().lattice();
    let mut parents: Vec<ChunkNumber> = Vec::new();
    for dim in 0..grid.num_dims() {
        if grid.geom(key.gb).level()[dim] >= lattice.hierarchy_size(dim) {
            continue;
        }
        parents.clear();
        let parent_gb = grid.parent_chunks_into(key.gb, key.chunk, dim, &mut parents);
        let mark = leaves.len();
        let mut success = true;
        for &p in parents.iter() {
            if !esm_rec(cache, grid, ChunkKey::new(parent_gb, p), stats, leaves) {
                success = false;
                break;
            }
        }
        if success {
            return true;
        }
        leaves.truncate(mark);
    }
    false
}

/// The cost-based Exhaustive Search Method (paper §5.1).
///
/// Unlike [`esm`], does not stop at the first successful path: it searches
/// every path (including through chunks that are themselves cached) for the
/// cheapest one. The paper finds its lookup times "unreasonable" when the
/// cache is warm — reproduced faithfully here, with an optional node budget
/// as a safety valve.
pub fn esmc(
    cache: &ChunkCache,
    grid: &ChunkGrid,
    key: ChunkKey,
    stats: &mut LookupStats,
    node_budget: Option<u64>,
) -> Option<ComputationPlan> {
    let mut aborted = false;
    let result = esmc_rec(cache, grid, key, stats, node_budget, &mut aborted);
    if aborted {
        return None;
    }
    result.map(|(cost, leaves)| {
        let direct_hit = leaves.len() == 1 && leaves[0] == key;
        ComputationPlan {
            target: key,
            leaves,
            cost,
            direct_hit,
        }
    })
}

fn esmc_rec(
    cache: &ChunkCache,
    grid: &ChunkGrid,
    key: ChunkKey,
    stats: &mut LookupStats,
    node_budget: Option<u64>,
    aborted: &mut bool,
) -> Option<(u64, Vec<ChunkKey>)> {
    stats.nodes_visited += 1;
    if let Some(budget) = node_budget {
        if stats.nodes_visited > budget {
            *aborted = true;
            return None;
        }
    }
    let mut best: Option<(u64, Vec<ChunkKey>)> = None;
    if cache.contains(&key) {
        best = Some((leaf_size(cache, &key), vec![key]));
    }
    let lattice = grid.schema().lattice();
    let mut parents: Vec<ChunkNumber> = Vec::new();
    for dim in 0..grid.num_dims() {
        if *aborted {
            return None;
        }
        if grid.geom(key.gb).level()[dim] >= lattice.hierarchy_size(dim) {
            continue;
        }
        parents.clear();
        let parent_gb = grid.parent_chunks_into(key.gb, key.chunk, dim, &mut parents);
        let mut total = 0u64;
        let mut all_leaves: Vec<ChunkKey> = Vec::new();
        let mut ok = true;
        for &p in parents.iter() {
            match esmc_rec(
                cache,
                grid,
                ChunkKey::new(parent_gb, p),
                stats,
                node_budget,
                aborted,
            ) {
                Some((c, ls)) => {
                    total += c;
                    all_leaves.extend(ls);
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && best.as_ref().is_none_or(|(bc, _)| total < *bc) {
            best = Some((total, all_leaves));
        }
    }
    best
}

/// The Virtual Count Method (paper §4).
///
/// The count array short-circuits: a zero count answers "not computable" in
/// O(1); a non-zero count guarantees some path succeeds, and the recursion
/// follows exactly one successful path (the first parent whose covering
/// chunks all have non-zero counts, or the chunk itself when cached).
pub fn vcm(
    counts: &CountTable,
    cache: &ChunkCache,
    grid: &ChunkGrid,
    key: ChunkKey,
    stats: &mut LookupStats,
) -> Option<ComputationPlan> {
    stats.nodes_visited += 1;
    if !counts.is_computable(key) {
        return None;
    }
    let mut leaves = Vec::new();
    vcm_rec(counts, cache, grid, key, stats, &mut leaves);
    let cost = leaves.iter().map(|l| leaf_size(cache, l)).sum();
    let direct_hit = leaves.len() == 1 && leaves[0] == key;
    Some(ComputationPlan {
        target: key,
        leaves,
        cost,
        direct_hit,
    })
}

fn vcm_rec(
    counts: &CountTable,
    cache: &ChunkCache,
    grid: &ChunkGrid,
    key: ChunkKey,
    stats: &mut LookupStats,
    leaves: &mut Vec<ChunkKey>,
) {
    stats.nodes_visited += 1;
    if cache.contains(&key) {
        leaves.push(key);
        return;
    }
    let lattice = grid.schema().lattice();
    let mut parents: Vec<ChunkNumber> = Vec::new();
    for dim in 0..grid.num_dims() {
        if grid.geom(key.gb).level()[dim] >= lattice.hierarchy_size(dim) {
            continue;
        }
        parents.clear();
        let parent_gb = grid.parent_chunks_into(key.gb, key.chunk, dim, &mut parents);
        if parents
            .iter()
            .all(|&p| counts.is_computable(ChunkKey::new(parent_gb, p)))
        {
            for &p in parents.iter() {
                vcm_rec(
                    counts,
                    cache,
                    grid,
                    ChunkKey::new(parent_gb, p),
                    stats,
                    leaves,
                );
            }
            return;
        }
    }
    unreachable!("non-zero count guarantees a successful path (Property 1)");
}

/// The cost-based Virtual Count Method (paper §5.2).
///
/// Follows the `BestParent` pointers maintained by [`CostTable`]: the plan
/// found is the *minimum-cost* computation, and the lookup itself is O(size
/// of the plan).
pub fn vcmc(
    costs: &CostTable,
    cache: &ChunkCache,
    grid: &ChunkGrid,
    key: ChunkKey,
    stats: &mut LookupStats,
) -> Option<ComputationPlan> {
    stats.nodes_visited += 1;
    let total = costs.cost(key)?;
    let mut leaves = Vec::new();
    vcmc_rec(costs, grid, key, stats, &mut leaves);
    let direct_hit = leaves.len() == 1 && leaves[0] == key;
    debug_assert!(leaves.iter().all(|l| cache.contains(l)));
    Some(ComputationPlan {
        target: key,
        leaves,
        cost: u64::from(total),
        direct_hit,
    })
}

fn vcmc_rec(
    costs: &CostTable,
    grid: &ChunkGrid,
    key: ChunkKey,
    stats: &mut LookupStats,
    leaves: &mut Vec<ChunkKey>,
) {
    stats.nodes_visited += 1;
    match costs.best_parent(key) {
        PARENT_SELF => leaves.push(key),
        PARENT_NONE => unreachable!("finite cost guarantees a best parent"),
        dim => {
            let mut parents: Vec<ChunkNumber> = Vec::new();
            let parent_gb = grid.parent_chunks_into(key.gb, key.chunk, dim as usize, &mut parents);
            for &p in &parents {
                vcmc_rec(costs, grid, ChunkKey::new(parent_gb, p), stats, leaves);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_cache::{Origin, PolicyKind};
    use aggcache_chunks::ChunkData;
    use aggcache_schema::{Dimension, GroupById, Schema};
    use std::sync::Arc;

    fn fig4_grid() -> Arc<ChunkGrid> {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("x", vec![1, 4]).unwrap(),
                    Dimension::balanced("y", vec![1, 4]).unwrap(),
                ],
                "m",
            )
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

    fn chunk(cells: usize) -> ChunkData {
        let mut d = ChunkData::new(2);
        for i in 0..cells {
            d.push(&[i as u32, 0], 1.0);
        }
        d
    }

    /// A test harness holding a cache plus both tables kept in sync.
    struct Rig {
        grid: Arc<ChunkGrid>,
        cache: ChunkCache,
        counts: CountTable,
        costs: CostTable,
    }

    impl Rig {
        fn new() -> Self {
            let grid = fig4_grid();
            Self {
                cache: ChunkCache::new(usize::MAX, PolicyKind::Benefit),
                counts: CountTable::new(grid.clone()),
                costs: CostTable::new(grid.clone()),
                grid,
            }
        }

        fn add(&mut self, key: ChunkKey, cells: usize) {
            let out = self.cache.insert(key, chunk(cells), Origin::Backend, 1.0);
            assert!(out.admitted && out.evicted.is_empty());
            self.counts.on_insert(key);
            self.costs.on_insert(key, cells as u32);
        }

        fn evict(&mut self, key: ChunkKey) {
            assert!(self.cache.remove(&key));
            self.counts.on_evict(key);
            self.costs.on_evict(key);
        }
    }

    #[test]
    fn all_methods_agree_on_computability() {
        let mut rig = Rig::new();
        let (b11, b10, b01, b00) = ids(&rig.grid);
        rig.add(ChunkKey::new(b11, 0), 4);
        rig.add(ChunkKey::new(b11, 2), 4);
        rig.add(ChunkKey::new(b11, 3), 4);
        rig.add(ChunkKey::new(b01, 0), 2);

        let all: Vec<ChunkKey> = [b11, b10, b01, b00]
            .iter()
            .flat_map(|&gb| (0..rig.grid.n_chunks(gb)).map(move |c| ChunkKey::new(gb, c)))
            .collect();
        for key in all {
            let mut s = LookupStats::default();
            let e = esm(&rig.cache, &rig.grid, key, &mut s).is_some();
            let ec = esmc(&rig.cache, &rig.grid, key, &mut s, None).is_some();
            let v = vcm(&rig.counts, &rig.cache, &rig.grid, key, &mut s).is_some();
            let vc = vcmc(&rig.costs, &rig.cache, &rig.grid, key, &mut s).is_some();
            assert_eq!(e, v, "{key:?}");
            assert_eq!(e, ec, "{key:?}");
            assert_eq!(e, vc, "{key:?}");
        }
    }

    #[test]
    fn esm_finds_mixed_level_plan() {
        // The paper's motivating case: chunk 0 of (0,1) needs (1,1) chunks
        // 0 and 2; chunk 0 cached directly, chunk 2 cached → computable.
        let mut rig = Rig::new();
        let (b11, _, b01, _) = ids(&rig.grid);
        rig.add(ChunkKey::new(b11, 0), 3);
        rig.add(ChunkKey::new(b11, 2), 5);
        let mut s = LookupStats::default();
        let plan = esm(&rig.cache, &rig.grid, ChunkKey::new(b01, 0), &mut s).unwrap();
        assert!(!plan.direct_hit);
        assert_eq!(plan.leaves.len(), 2);
        assert_eq!(plan.cost, 8);
    }

    #[test]
    fn vcm_negative_lookup_is_one_node() {
        let rig = Rig::new();
        let (_, _, _, b00) = ids(&rig.grid);
        let mut s = LookupStats::default();
        assert!(vcm(
            &rig.counts,
            &rig.cache,
            &rig.grid,
            ChunkKey::new(b00, 0),
            &mut s
        )
        .is_none());
        assert_eq!(s.nodes_visited, 1);
        // ESM on the same empty cache must recurse (it cannot know the
        // answer without exploring); on this tiny lattice that is 5 nodes,
        // and it grows factorially with hierarchy sizes (Lemma 1).
        let mut s2 = LookupStats::default();
        assert!(esm(&rig.cache, &rig.grid, ChunkKey::new(b00, 0), &mut s2).is_none());
        assert!(s2.nodes_visited > 1, "{}", s2.nodes_visited);
    }

    #[test]
    fn vcmc_returns_min_cost_plan() {
        let mut rig = Rig::new();
        let (b11, _, b01, b00) = ids(&rig.grid);
        for c in 0..4 {
            rig.add(ChunkKey::new(b11, c), 5);
        }
        rig.add(ChunkKey::new(b01, 0), 2);
        rig.add(ChunkKey::new(b01, 1), 2);
        let mut s = LookupStats::default();
        let plan = vcmc(
            &rig.costs,
            &rig.cache,
            &rig.grid,
            ChunkKey::new(b00, 0),
            &mut s,
        )
        .unwrap();
        assert_eq!(plan.cost, 4, "must choose the cheap (0,1) path");
        assert_eq!(plan.leaves.len(), 2);
        assert!(plan.leaves.iter().all(|l| l.gb == b01));
        // ESMC agrees on the optimum.
        let mut s2 = LookupStats::default();
        let eplan = esmc(&rig.cache, &rig.grid, ChunkKey::new(b00, 0), &mut s2, None).unwrap();
        assert_eq!(eplan.cost, 4);
        // ESM (first path) may pick a more expensive one; its cost is ≥.
        let mut s3 = LookupStats::default();
        let splan = esm(&rig.cache, &rig.grid, ChunkKey::new(b00, 0), &mut s3).unwrap();
        assert!(splan.cost >= 4);
    }

    #[test]
    fn esmc_explores_more_than_esm_when_warm() {
        let mut rig = Rig::new();
        let (b11, _, _, b00) = ids(&rig.grid);
        for c in 0..4 {
            rig.add(ChunkKey::new(b11, c), 5);
        }
        let mut s_esm = LookupStats::default();
        esm(&rig.cache, &rig.grid, ChunkKey::new(b00, 0), &mut s_esm).unwrap();
        let mut s_esmc = LookupStats::default();
        esmc(
            &rig.cache,
            &rig.grid,
            ChunkKey::new(b00, 0),
            &mut s_esmc,
            None,
        )
        .unwrap();
        assert!(
            s_esmc.nodes_visited > s_esm.nodes_visited,
            "esmc {} vs esm {}",
            s_esmc.nodes_visited,
            s_esm.nodes_visited
        );
    }

    #[test]
    fn esmc_node_budget_aborts() {
        let mut rig = Rig::new();
        let (b11, _, _, b00) = ids(&rig.grid);
        for c in 0..4 {
            rig.add(ChunkKey::new(b11, c), 5);
        }
        let mut s = LookupStats::default();
        let r = esmc(
            &rig.cache,
            &rig.grid,
            ChunkKey::new(b00, 0),
            &mut s,
            Some(3),
        );
        assert!(r.is_none());
        assert!(s.nodes_visited <= 5);
    }

    #[test]
    fn plans_survive_eviction_updates() {
        let mut rig = Rig::new();
        let (b11, _, b01, b00) = ids(&rig.grid);
        for c in 0..4 {
            rig.add(ChunkKey::new(b11, c), 5);
        }
        rig.add(ChunkKey::new(b01, 0), 2);
        rig.add(ChunkKey::new(b01, 1), 2);
        rig.evict(ChunkKey::new(b01, 0));
        let mut s = LookupStats::default();
        let plan = vcmc(
            &rig.costs,
            &rig.cache,
            &rig.grid,
            ChunkKey::new(b00, 0),
            &mut s,
        )
        .unwrap();
        // Best is now 2 (cached (0,1) chunk 1) + 10 ((1,1) pair) = 12.
        assert_eq!(plan.cost, 12);
        for leaf in &plan.leaves {
            assert!(rig.cache.contains(leaf), "leaf {leaf:?} must be cached");
        }
    }

    #[test]
    fn direct_hit_plans() {
        let mut rig = Rig::new();
        let (b11, _, _, _) = ids(&rig.grid);
        rig.add(ChunkKey::new(b11, 1), 7);
        for strategy_plan in [
            no_aggregation(
                &rig.cache,
                ChunkKey::new(b11, 1),
                &mut LookupStats::default(),
            ),
            esm(
                &rig.cache,
                &rig.grid,
                ChunkKey::new(b11, 1),
                &mut LookupStats::default(),
            ),
            vcm(
                &rig.counts,
                &rig.cache,
                &rig.grid,
                ChunkKey::new(b11, 1),
                &mut LookupStats::default(),
            ),
            vcmc(
                &rig.costs,
                &rig.cache,
                &rig.grid,
                ChunkKey::new(b11, 1),
                &mut LookupStats::default(),
            ),
        ] {
            let plan = strategy_plan.unwrap();
            assert!(plan.direct_hit);
            assert_eq!(plan.leaves, vec![ChunkKey::new(b11, 1)]);
            assert_eq!(plan.cost, 7);
        }
    }

    #[test]
    fn no_aggregation_misses_computable_chunks() {
        let mut rig = Rig::new();
        let (b11, b10, _, _) = ids(&rig.grid);
        for c in 0..4 {
            rig.add(ChunkKey::new(b11, c), 5);
        }
        let mut s = LookupStats::default();
        assert!(no_aggregation(&rig.cache, ChunkKey::new(b10, 0), &mut s).is_none());
        assert!(esm(&rig.cache, &rig.grid, ChunkKey::new(b10, 0), &mut s).is_some());
    }
}
