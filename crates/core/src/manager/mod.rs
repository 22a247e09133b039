//! The middle-tier query processor, split by what owns which state:
//! `config` (the builder), `pipeline` (probe → aggregate → fetch → admit;
//! ledger: [`SessionMetrics`]), `tiering` (the spill tier; ledger:
//! [`crate::SpillMetrics`]), `maintenance` (delta ingestion; ledger:
//! [`UpdateMetrics`]) — and, here, the [`CacheManager`] struct, the
//! count/cost tables and the one admission/eviction path they all use.

mod config;
mod maintenance;
mod pipeline;
mod tiering;

pub use config::{CacheManagerBuilder, ManagerConfig};
pub use pipeline::QueryProbe;
pub use tiering::{CheckpointReport, WarmStartReport};

use crate::error::CacheError;
use crate::lookup::{esm, esmc, no_aggregation, vcm, vcmc, LookupOutcome, LookupStats, Strategy};
use crate::request::UpdateMetrics;
use crate::{CostTable, CountTable, SessionMetrics};
use aggcache_cache::{ChunkCache, Origin};
use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey, PAPER_TUPLE_BYTES};
use aggcache_obs::{Event, Tracer};
use aggcache_schema::{GroupById, Level};
use aggcache_store::BackendSource;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;
use tiering::Tiering;

/// What a cache pre-load did (paper §6.3, rule 3: pre-load "a group-by that
/// fits in the cache and has the maximum number of descendents").
#[derive(Debug, Clone)]
pub struct PreloadReport {
    /// The chosen group-by.
    pub gb: GroupById,
    /// Its level tuple.
    pub level: Level,
    /// Number of lattice descendants (the maximized quantity).
    pub descendants: u64,
    /// Chunks loaded.
    pub chunks: u64,
    /// Accounting bytes loaded.
    pub bytes: usize,
    /// Virtual backend cost of the load.
    pub virtual_ms: f64,
}

/// The lookup strategy's bookkeeping: VCM's counts, VCMC's costs, or
/// nothing. [`CacheManager::lookup_chunk`] dispatches on it, so "VCM
/// without a count table" cannot be written.
enum Tables {
    None,
    Counts(CountTable),
    Costs(CostTable),
}

impl Tables {
    /// Propagates an insert and reports the table delta to `tracer`.
    fn on_insert(&mut self, key: ChunkKey, size: u32, tracer: Option<&dyn Tracer>) {
        let writes = match self {
            Tables::None => return,
            Tables::Counts(t) => t.on_insert(key),
            Tables::Costs(t) => t.on_insert(key, size),
        };
        self.trace(key, writes, false, tracer);
    }

    /// Propagates an eviction and reports the table delta to `tracer`.
    fn on_evict(&mut self, key: ChunkKey, tracer: Option<&dyn Tracer>) {
        let writes = match self {
            Tables::None => return,
            Tables::Counts(t) => t.on_evict(key),
            Tables::Costs(t) => t.on_evict(key),
        };
        self.trace(key, writes, true, tracer);
    }

    fn trace(&self, key: ChunkKey, writes: u64, evict: bool, tracer: Option<&dyn Tracer>) {
        let Some(tracer) = tracer else { return };
        let (gb, chunk) = (key.gb.0, key.chunk);
        tracer.emit(&match self {
            Tables::None => return,
            Tables::Counts(_) => Event::CountUpdate {
                gb,
                chunk,
                writes,
                evict,
            },
            Tables::Costs(_) => Event::CostUpdate {
                gb,
                chunk,
                writes,
                evict,
            },
        });
    }

    /// Total table-cell writes so far (0 when no table is maintained).
    fn updates(&self) -> u64 {
        match self {
            Tables::None => 0,
            Tables::Counts(t) => t.updates(),
            Tables::Costs(t) => t.updates(),
        }
    }
}

/// The middle-tier query processor: an *active cache* in front of the
/// backend database (paper §2, §7).
///
/// For each query the manager probes the cache chunk by chunk, partitions
/// the chunks into direct hits / computable-by-aggregation / missing,
/// aggregates the computable ones from cached data, fetches the missing
/// ones in one batched backend call, and admits new chunks under the
/// replacement policy — keeping the virtual-count (VCM) or cost (VCMC)
/// tables consistent across every insertion and eviction.
///
/// Construct via [`CacheManager::builder`]. An attached [`Tracer`] observes
/// every step; tracing never changes results or virtual-time metrics.
pub struct CacheManager {
    backend: Box<dyn BackendSource>,
    grid: Arc<ChunkGrid>,
    cache: ChunkCache,
    tables: Tables,
    config: ManagerConfig,
    session: SessionMetrics,
    /// Bumped on every mutation that can change a probe's outcome (any
    /// admission, replacement or eviction — which covers every count/cost
    /// table change). Clock touches, pins and boosts do *not* bump it: they
    /// only steer *future* evictions. A [`QueryProbe`] carries the version
    /// it was computed against; apply re-probes iff the versions differ,
    /// so a probe taken before an interleaved mutation (a cluster tier's
    /// cooperative fill) is never applied stale.
    version: u64,
    /// Shared with the cache, the backend and the spill tier.
    tracer: Option<Arc<dyn Tracer>>,
    /// Monotonic probe-id source; atomic because probes run against
    /// `&self`, possibly from several threads.
    probe_seq: AtomicU64,
    /// The disk spill tier and its ledger; inert until a store is attached.
    tiering: Tiering,
    /// Maintenance accounting across every [`CacheManager::ingest`] —
    /// strictly outside [`crate::QueryMetrics`], so it never leaks into the
    /// per-query `total = backend + agg + lookup + update` identity.
    update_session: UpdateMetrics,
}

impl std::fmt::Debug for CacheManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheManager")
            .field("config", &self.config)
            .field("version", &self.version)
            .field("traced", &self.tracer.is_some())
            .finish_non_exhaustive()
    }
}

impl CacheManager {
    /// A validating [`CacheManagerBuilder`] — the primary construction path.
    pub fn builder() -> CacheManagerBuilder {
        CacheManagerBuilder::new()
    }

    fn from_parts(backend: Box<dyn BackendSource>, config: ManagerConfig) -> Self {
        let grid = backend.grid().clone();
        Self {
            cache: ChunkCache::with_admission(config.cache_bytes, config.policy, config.admission),
            tables: match config.strategy {
                Strategy::Vcm => Tables::Counts(CountTable::new(grid.clone())),
                Strategy::Vcmc => Tables::Costs(CostTable::new(grid.clone())),
                _ => Tables::None,
            },
            grid,
            backend,
            config,
            session: SessionMetrics::default(),
            version: 0,
            tracer: None,
            probe_seq: AtomicU64::new(0),
            tiering: Tiering::default(),
            update_session: UpdateMetrics::default(),
        }
    }

    /// Emits `event()` if a tracer is attached; builds nothing otherwise.
    fn emit(&self, event: impl FnOnce() -> Event) {
        if let Some(tracer) = &self.tracer {
            tracer.emit(&event());
        }
    }

    /// Attaches (or with `None`, detaches) a tracer, propagating it to the
    /// chunk cache, the backend and the spill tier so their events land in
    /// the same sink.
    pub fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        self.cache.set_tracer(tracer.clone());
        self.backend.set_tracer(tracer.clone());
        self.tiering.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The chunk grid.
    pub fn grid(&self) -> &Arc<ChunkGrid> {
        &self.grid
    }

    /// The backend source (the simulated backend or a decorator stack).
    pub fn backend(&self) -> &dyn BackendSource {
        self.backend.as_ref()
    }

    /// The cache (read access).
    pub fn cache(&self) -> &ChunkCache {
        &self.cache
    }

    /// The configuration.
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// The VCM count table, when the strategy maintains one.
    pub fn counts(&self) -> Option<&CountTable> {
        match &self.tables {
            Tables::Counts(t) => Some(t),
            Tables::Costs(t) => Some(t.counts()),
            Tables::None => None,
        }
    }

    /// The VCMC cost table, when the strategy maintains one.
    pub fn costs(&self) -> Option<&CostTable> {
        match &self.tables {
            Tables::Costs(t) => Some(t),
            _ => None,
        }
    }

    /// Session-level metric aggregates.
    pub fn session(&self) -> &SessionMetrics {
        &self.session
    }

    /// The current cache version: bumped on every admission, replacement
    /// or eviction. Probes taken at an older version are re-computed
    /// before being applied.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Clears session metrics (e.g. after warm-up), spill and maintenance
    /// accounting included.
    pub fn reset_session(&mut self) {
        self.session = SessionMetrics::default();
        self.tiering.reset_session();
        self.update_session = UpdateMetrics::default();
    }

    /// Runs one cache lookup without executing anything — the probe used by
    /// the paper's Table 1 lookup-time experiment and by the cluster tier's
    /// cooperative peer probes. Returns the plan (if the chunk is
    /// answerable) together with the lookup statistics. A key outside the
    /// grid is a miss that visited nothing.
    pub fn lookup_chunk(&self, key: ChunkKey) -> LookupOutcome {
        let (cache, grid) = (&self.cache, &*self.grid);
        let mut stats = LookupStats::default();
        if !grid.has_chunk(key) {
            return LookupOutcome { plan: None, stats };
        }
        // The strategy only tells the table-less searches apart.
        let plan = match (&self.tables, self.config.strategy) {
            (Tables::Counts(t), _) => vcm(t, cache, grid, key, &mut stats),
            (Tables::Costs(t), _) => vcmc(t, cache, grid, key, &mut stats),
            (Tables::None, Strategy::Esm) => esm(cache, grid, key, &mut stats),
            (Tables::None, Strategy::Esmc { node_budget }) => {
                esmc(cache, grid, key, &mut stats, node_budget)
            }
            (Tables::None, _) => no_aggregation(cache, key, &mut stats),
        };
        LookupOutcome { plan, stats }
    }

    /// The single admission path: inserts a chunk (fetched, computed,
    /// promoted or handed over), hands the victims to the spill tier, and
    /// keeps the count/cost tables consistent — including the replace case
    /// (a key already cached counts as an eviction of the old entry, or its
    /// count would be incremented twice and never return to zero). Returns
    /// whether the chunk was admitted and the wall-clock nanoseconds the
    /// count/cost-table maintenance took (the paper's Table 2 "update
    /// time") — the cache insert and the victims' spill writes are not
    /// table updates and are not in it.
    ///
    /// A *refused* replace leaves the old entry resident (the cache checks
    /// feasibility before dropping it), so the old entry's `on_evict` fires
    /// only when the replacement actually lands — a refused insert must not
    /// wind the count tables down for a chunk that is still cached.
    pub fn insert_chunk(
        &mut self,
        key: ChunkKey,
        data: ChunkData,
        origin: Origin,
        benefit: f64,
    ) -> (bool, u64) {
        let replacing = self.cache.contains(&key);
        let size = data.len() as u32;
        let outcome = self.cache.insert(key, data, origin, benefit);
        self.tiering.demote(&outcome.evicted, key);
        let t = Instant::now();
        let tracer = self.tracer.as_deref();
        // The old entry under `key` went when its replacement landed — or,
        // on the cache's defensive refuse-after-partial-eviction path, is
        // reported among the victims.
        let old_entry_gone = outcome.admitted || outcome.evicted.iter().any(|(k, _)| *k == key);
        if replacing && old_entry_gone {
            self.tables.on_evict(key, tracer);
        }
        for (victim, _) in outcome.evicted.iter().filter(|(k, _)| *k != key) {
            self.tables.on_evict(*victim, tracer);
        }
        if outcome.admitted {
            self.tables.on_insert(key, size, tracer);
        }
        // A refused insert (old entry retained, nothing evicted) leaves
        // probe-relevant state untouched, so outstanding probes stay valid.
        if outcome.admitted || !outcome.evicted.is_empty() {
            self.version += 1;
        }
        (outcome.admitted, t.elapsed().as_nanos() as u64)
    }

    /// Removes a chunk explicitly (test/experiment support), propagating
    /// table updates. Returns the table-maintenance nanoseconds.
    pub fn evict_chunk(&mut self, key: ChunkKey) -> u64 {
        if !self.cache.remove(&key) {
            return 0;
        }
        self.version += 1;
        let t = Instant::now();
        self.tables.on_evict(key, self.tracer.as_deref());
        t.elapsed().as_nanos() as u64
    }

    /// Ownership-aware eviction: removes every resident chunk for which
    /// `owned` returns `false`, propagating count/cost-table updates, and
    /// returns the drained entries for handoff to their new owner (the
    /// cluster tier, after a ring membership change). An empty drain
    /// leaves the cache version untouched, so probes stay valid.
    pub fn evict_unowned(
        &mut self,
        owned: impl FnMut(ChunkKey) -> bool,
    ) -> Vec<(ChunkKey, ChunkData, Origin, f64)> {
        let drained = self.cache.evict_unowned(owned);
        if !drained.is_empty() {
            self.version += 1;
            for (key, ..) in &drained {
                self.tables.on_evict(*key, self.tracer.as_deref());
            }
        }
        drained
    }

    /// Pre-loads the cache per the two-level policy: the group-by with the
    /// most lattice descendants whose estimated size fits the budget
    /// (among group-bys the backend can answer). Returns `None` when
    /// nothing fits.
    pub fn preload_best(&mut self) -> Result<Option<PreloadReport>, CacheError> {
        let lattice = self.grid.schema().lattice().clone();
        let schema = self.grid.schema().clone();
        let fact_gb = self.backend.fact().gb();
        let n_facts = self.backend.fact().num_tuples();
        let budget = self.cache.budget_bytes() as u64;
        let mut best: Option<(u64, u64, GroupById)> = None;
        for gb in lattice.iter_ids_under(fact_gb) {
            let level = lattice.level_of(gb);
            let est_bytes =
                schema.estimated_distinct_cells(&level, n_facts) * PAPER_TUPLE_BYTES as u64;
            if est_bytes > budget {
                continue;
            }
            let desc = lattice.descendant_count(gb);
            // Maximize descendants; tie-break towards the larger (more
            // detailed, more useful) group-by.
            if best.is_none_or(|(bd, be, _)| desc > bd || (desc == bd && est_bytes > be)) {
                best = Some((desc, est_bytes, gb));
            }
        }
        let Some((descendants, _, gb)) = best else {
            return Ok(None);
        };
        Ok(Some(self.preload_group_by(gb, descendants)?))
    }

    /// Pre-loads every chunk of an explicitly chosen group-by from the
    /// backend ([`CacheManager::preload_best`] makes the two-level
    /// policy's choice; this entry point serves the pre-loading ablation).
    pub fn preload_group_by(
        &mut self,
        gb: GroupById,
        descendants: u64,
    ) -> Result<PreloadReport, CacheError> {
        let fetch = self.backend.fetch_group_by(gb)?;
        let n = fetch.chunks.len().max(1);
        let per_chunk_benefit = fetch.virtual_ms / n as f64;
        let mut bytes = 0usize;
        let mut loaded = 0u64;
        for (chunk, data) in fetch.chunks {
            let b = data.accounting_bytes();
            let (admitted, _) = self.insert_chunk(
                ChunkKey::new(gb, chunk),
                data,
                Origin::Backend,
                per_chunk_benefit,
            );
            if admitted {
                bytes += b;
                loaded += 1;
            }
        }
        Ok(PreloadReport {
            gb,
            level: self.grid.geom(gb).level().to_vec(),
            descendants,
            chunks: loaded,
            bytes,
            virtual_ms: fetch.virtual_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    //! Shared fixtures for the manager's test modules, plus the tests of
    //! the admission/eviction path itself.
    pub(super) use super::*;
    pub(super) use crate::{Query, QueryMetrics};
    pub(super) use aggcache_cache::PolicyKind;
    pub(super) use aggcache_obs::RecordingTracer;
    use aggcache_schema::{Dimension, Schema};
    pub(super) use aggcache_store::{AggFn, Backend, BackendCostModel, FactTable, SpillConfig};

    pub(super) fn backend_with(agg: AggFn) -> Backend {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("x", vec![1, 2, 8]).unwrap(),
                    Dimension::flat("y", 4).unwrap(),
                ],
                "m",
            )
            .unwrap(),
        );
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 4], vec![1, 2]]).unwrap());
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(2);
        for x in 0..8u32 {
            for y in 0..4u32 {
                cells.push(&[x, y], f64::from(x + y * 10));
            }
        }
        Backend::new(
            FactTable::load(grid, base, cells),
            agg,
            BackendCostModel::default(),
        )
    }

    pub(super) fn make_backend() -> Backend {
        backend_with(AggFn::Sum)
    }

    pub(super) fn manager(strategy: Strategy) -> CacheManager {
        CacheManager::builder()
            .strategy(strategy)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .build(make_backend())
            .unwrap()
    }

    pub(super) fn oracle(mgr: &CacheManager, q: &Query) -> ChunkData {
        let mut all = ChunkData::new(mgr.grid().num_dims());
        for (_, data) in mgr.backend().fetch(q.gb, &q.chunks).unwrap().chunks {
            all.append(&data);
        }
        all.sort_by_coords();
        all
    }

    pub(super) fn run_and_check(mgr: &mut CacheManager, q: &Query) -> QueryMetrics {
        let expected = oracle(mgr, q);
        let mut r = mgr.run(&(q).into()).unwrap();
        r.data.sort_by_coords();
        assert_eq!(r.data, expected, "wrong answer for {q:?}");
        r.metrics
    }

    /// Asserts the incrementally maintained count table equals one rebuilt
    /// from scratch over the current RAM population (Property 1).
    pub(super) fn assert_counts_consistent(mgr: &CacheManager) {
        let rebuilt = CountTable::rebuild_from(mgr.grid().clone(), |k| mgr.cache().contains(&k));
        rebuilt.assert_same(mgr.counts().expect("VCM strategy maintains counts"));
    }

    pub(super) fn spill_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aggcache-mgr-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(super) fn spill_manager(tag: &str, cache_bytes: usize) -> CacheManager {
        CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(cache_bytes)
            .spill(SpillConfig::new(spill_dir(tag)))
            .build(make_backend())
            .unwrap()
    }

    pub(super) fn spill_manager_over(dir: std::path::PathBuf, cache_bytes: usize) -> CacheManager {
        CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(cache_bytes)
            .spill(SpillConfig::new(dir))
            .build(make_backend())
            .unwrap()
    }

    #[test]
    fn tables_stay_consistent_under_eviction_pressure() {
        // Tiny cache: 8 tuples worth of space → constant eviction churn.
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(8 * PAPER_TUPLE_BYTES)
            .build(make_backend())
            .unwrap();
        let lattice = mgr.grid().schema().lattice().clone();
        let ids: Vec<GroupById> = lattice.iter_ids().collect();
        for (i, &gb) in ids.iter().cycle().take(40).enumerate() {
            let q = Query::new(gb, vec![(i as u64) % mgr.grid().n_chunks(gb)]);
            let _ = run_and_check(&mut mgr, &q);
        }
        // Cross-check the cost table against a rebuild from cache contents.
        let cached: Vec<ChunkKey> = mgr.cache().keys().collect();
        let reference = CountTable::rebuild_from(mgr.grid().clone(), |k| cached.contains(&k));
        mgr.counts().unwrap().assert_same(&reference);
    }

    #[test]
    fn refused_oversized_replace_keeps_entry_and_count_tables() {
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(10 * PAPER_TUPLE_BYTES)
            .build(make_backend())
            .unwrap();
        let grid = mgr.grid().clone();
        let n_dims = grid.num_dims();
        let key = ChunkKey::new(grid.schema().lattice().base(), 0);
        let cells = |n: u32| {
            let mut d = ChunkData::new(n_dims);
            for i in 0..n {
                d.push(&vec![i; n_dims], 1.0);
            }
            d
        };
        let (admitted, _) = mgr.insert_chunk(key, cells(4), Origin::Backend, 1.0);
        assert!(admitted);
        let version = mgr.version();
        // Replacement bigger than the whole budget: must be refused with
        // the old entry, count tables and probe version all untouched.
        let (admitted, _) = mgr.insert_chunk(key, cells(11), Origin::Backend, 1.0);
        assert!(!admitted);
        assert!(mgr.cache().contains(&key), "old entry must survive refusal");
        assert_eq!(mgr.cache().peek(&key).unwrap().data.len(), 4);
        assert_eq!(mgr.cache().used_bytes(), 4 * PAPER_TUPLE_BYTES);
        assert_eq!(mgr.version(), version, "refusal changes nothing probes see");
        let reference = CountTable::rebuild_from(grid.clone(), |k| k == key);
        mgr.counts().unwrap().assert_same(&reference);
    }

    #[test]
    fn preload_best_picks_fitting_group_by() {
        // Budget that fits the whole base (32 tuples = 640 bytes).
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(1000)
            .build(make_backend())
            .unwrap();
        let report = mgr.preload_best().unwrap().unwrap();
        let base = mgr.grid().schema().lattice().base();
        assert_eq!(report.gb, base, "base has the most descendants and fits");
        // Everything is now a complete hit.
        let top = mgr.grid().schema().lattice().top();
        let m = mgr
            .run(&Query::full_group_by(&mgr.grid().clone(), top).into())
            .unwrap();
        assert!(m.metrics.complete_hit);
    }

    #[test]
    fn preload_respects_budget() {
        // Budget too small for the base (needs 640), fits (1,1) (8 cells ≤
        // 12 estimated) or similar.
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(300)
            .build(make_backend())
            .unwrap();
        let report = mgr.preload_best().unwrap().unwrap();
        assert!(report.bytes <= 300, "{report:?}");
        let base = mgr.grid().schema().lattice().base();
        assert_ne!(report.gb, base);
    }

    #[test]
    fn replacement_keeps_counts_consistent() {
        // Regression: re-inserting an already-cached chunk (duplicate
        // chunks in one query, or pre-loading after queries) must not
        // double-increment counts.
        let mut mgr = manager(Strategy::Vcm);
        let grid = mgr.grid().clone();
        let lattice = grid.schema().lattice().clone();
        let base = lattice.base();
        // Duplicate chunk in a single query.
        let _ = run_and_check(&mut mgr, &Query::new(base, vec![0, 0, 1]));
        // Pre-load after the cache already holds chunks of the same level.
        let _ = mgr.preload_best().unwrap();
        let cached: Vec<ChunkKey> = mgr.cache().keys().collect();
        let reference = CountTable::rebuild_from(grid.clone(), |k| cached.contains(&k));
        mgr.counts().unwrap().assert_same(&reference);
        // Evicting everything returns every count to zero.
        for key in cached {
            mgr.evict_chunk(key);
        }
        let empty = CountTable::new(grid);
        mgr.counts().unwrap().assert_same(&empty);
    }

    #[test]
    fn version_tracks_mutations_not_probes() {
        let mut mgr = manager(Strategy::Vcm);
        let base = mgr.grid().schema().lattice().base();
        assert_eq!(mgr.version(), 0);
        let q = Query::new(base, vec![0]);
        let probe = mgr.probe(&q);
        assert_eq!(mgr.version(), 0, "probing must not mutate");
        assert!(!probe.is_complete_hit());
        mgr.run(&(&q).into()).unwrap();
        let after_fetch = mgr.version();
        assert!(after_fetch > 0, "admission must bump the version");
        // A pure direct-hit query mutates nothing (clock touches are not
        // probe-relevant).
        mgr.run(&(&q).into()).unwrap();
        assert_eq!(mgr.version(), after_fetch);
        let key = ChunkKey::new(base, 0);
        mgr.evict_chunk(key);
        assert!(
            mgr.version() > after_fetch,
            "eviction must bump the version"
        );
    }
}
