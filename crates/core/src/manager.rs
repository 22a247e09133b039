use crate::error::{CacheError, ConfigError};
use crate::executor::execute_plan_parallel_traced;
use crate::lookup::{esm, lookup, ComputationPlan, LookupOutcome, LookupStats, Strategy};
use crate::request::{ExecOutcome, QueryRequest, SpillMetrics, UpdateMetrics};
use crate::{CostTable, CountTable, Query, QueryMetrics, QueryResult, SessionMetrics};
use aggcache_cache::{AdmissionKind, ChunkCache, Origin, PolicyKind};
use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey, ChunkNumber, PAPER_TUPLE_BYTES};
use aggcache_obs::{Event, LookupOutcome as ChunkLookupKind, Tracer};
use aggcache_schema::{GroupById, Level, SchemaError};
use aggcache_store::{
    AggFn, Aggregator, BackendSource, DeltaBatch, EffectiveDelta, Lift, Rollup, SpillConfig,
    SpillError, SpillStore, StoreError, ORIGIN_BACKEND, ORIGIN_COMPUTED, ORIGIN_SPILLED,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the middle-tier cache manager.
///
/// Construct validated configurations through [`CacheManagerBuilder`]
/// (`CacheManager::builder()`); the struct stays public and `Copy` so
/// experiments can snapshot and tweak it.
#[derive(Debug, Clone, Copy)]
pub struct ManagerConfig {
    /// The cache-lookup algorithm.
    pub strategy: Strategy,
    /// The replacement policy.
    pub policy: PolicyKind,
    /// The admission policy gating inserts that would evict. The default
    /// ([`AdmissionKind::BenefitMean`]) admits every feasible insert — the
    /// historical behaviour, bit-identical to builds before the admission
    /// lab existed.
    pub admission: AdmissionKind,
    /// Cache budget in accounting bytes (20 bytes/tuple, as in the paper).
    pub cache_bytes: usize,
    /// Virtual microseconds charged per tuple aggregated in the cache.
    /// Together with the backend cost model's ≈4 µs/tuple + per-query
    /// overhead, the default of 0.5 µs reproduces the paper's observed ≈8×
    /// advantage of in-cache aggregation (§7.1).
    pub cache_per_tuple_us: f64,
    /// Virtual microseconds charged per lattice node visited during
    /// lookup. Node visits and tuple aggregations are both small
    /// memory-bound operations; the default of 0.2 µs (≈0.4× the
    /// aggregation rate) reproduces the magnitude of the paper's Table 4
    /// speedups and Figure 10 breakdown on its 1997 hardware.
    pub lookup_per_node_us: f64,
    /// Virtual microseconds charged per count/cost table cell written.
    pub update_per_write_us: f64,
    /// Whether the two-level policy's group clock-boost is applied when a
    /// group of chunks computes an aggregate (§6.3 rule 2). On by default;
    /// disabling it is an ablation knob.
    pub group_boost: bool,
    /// Storage layout of the count/cost tables: dense per-chunk arrays
    /// (the paper's Table 3 accounting) or sparse maps holding only
    /// non-default cells (the paper's suggested optimization).
    pub table_kind: crate::TableKind,
    /// Worker threads for batched execution: [`CacheManager::run_batch`]
    /// probes queries concurrently across this many threads and shards
    /// large in-cache aggregations across them. `1` (the default) keeps
    /// every path single-threaded. Results are bit-identical at any
    /// setting; only wall-clock time changes.
    pub threads: usize,
    /// Cost-based cache-vs-backend arbitration (paper §5.2: VCMC "can
    /// return the least cost of computing a chunk instantaneously … very
    /// useful for a cost-based optimizer, which can then decide whether to
    /// aggregate in the cache or go to the backend"). When enabled, a
    /// computable chunk is still fetched from the backend if the modeled
    /// backend cost (e.g. served from a materialized aggregate) undercuts
    /// the in-cache aggregation cost. Off by default — the paper's main
    /// experiments always aggregate in cache when possible.
    pub optimizer: bool,
}

impl ManagerConfig {
    fn defaults(strategy: Strategy, policy: PolicyKind, cache_bytes: usize) -> Self {
        Self {
            strategy,
            policy,
            admission: AdmissionKind::BenefitMean,
            cache_bytes,
            cache_per_tuple_us: 0.5,
            lookup_per_node_us: 0.2,
            update_per_write_us: 1.0,
            group_boost: true,
            threads: 1,
            table_kind: crate::TableKind::Dense,
            optimizer: false,
        }
    }

    /// Checks the invariants [`CacheManagerBuilder`] enforces: a positive
    /// cache budget, at least one thread, finite non-negative virtual-time
    /// rates, and a positive ESMC node budget.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cache_bytes == 0 {
            return Err(ConfigError::ZeroCacheBudget);
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if let Strategy::Esmc {
            node_budget: Some(0),
        } = self.strategy
        {
            return Err(ConfigError::ZeroNodeBudget);
        }
        for (name, value) in [
            ("cache_per_tuple_us", self.cache_per_tuple_us),
            ("lookup_per_node_us", self.lookup_per_node_us),
            ("update_per_write_us", self.update_per_write_us),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(ConfigError::InvalidRate { name, value });
            }
        }
        Ok(())
    }
}

/// Validating builder for [`CacheManager`] — the one construction path that
/// can also attach a [`Tracer`].
///
/// ```
/// # use aggcache_core::{CacheManager, Strategy};
/// # use aggcache_cache::PolicyKind;
/// # fn demo(backend: aggcache_store::Backend) -> Result<(), aggcache_core::ConfigError> {
/// let manager = CacheManager::builder()
///     .strategy(Strategy::Vcmc)
///     .policy(PolicyKind::TwoLevel)
///     .cache_bytes(1 << 20)
///     .threads(4)
///     .build(backend)?;
/// # let _ = manager; Ok(())
/// # }
/// ```
pub struct CacheManagerBuilder {
    config: ManagerConfig,
    cache_bytes: Option<usize>,
    tracer: Option<Arc<dyn Tracer>>,
    spill: Option<SpillConfig>,
}

impl Default for CacheManagerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheManagerBuilder {
    /// A builder with the paper's defaults (VCMC strategy, two-level
    /// policy) and **no cache budget** — [`CacheManagerBuilder::build`]
    /// fails with [`ConfigError::MissingCacheBudget`] until
    /// [`CacheManagerBuilder::cache_bytes`] is called.
    pub fn new() -> Self {
        Self {
            config: ManagerConfig::defaults(Strategy::Vcmc, PolicyKind::TwoLevel, 0),
            cache_bytes: None,
            tracer: None,
            spill: None,
        }
    }

    /// A builder pre-filled from an existing config (budget included).
    pub fn from_config(config: ManagerConfig) -> Self {
        Self {
            cache_bytes: Some(config.cache_bytes),
            config,
            tracer: None,
            spill: None,
        }
    }

    /// Sets the cache-lookup strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Sets the replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the admission policy (default: [`AdmissionKind::BenefitMean`],
    /// the historical admit-everything-feasible behaviour).
    pub fn admission(mut self, admission: AdmissionKind) -> Self {
        self.config.admission = admission;
        self
    }

    /// Sets the cache budget in accounting bytes (required, must be > 0).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Sets the worker-thread count for batched execution (must be ≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Enables or disables the two-level policy's group boost.
    pub fn group_boost(mut self, on: bool) -> Self {
        self.config.group_boost = on;
        self
    }

    /// Sets the count/cost table storage layout.
    pub fn table_kind(mut self, kind: crate::TableKind) -> Self {
        self.config.table_kind = kind;
        self
    }

    /// Enables or disables the §5.2 cost-based cache-vs-backend arbitration.
    pub fn optimizer(mut self, on: bool) -> Self {
        self.config.optimizer = on;
        self
    }

    /// Sets the virtual µs charged per tuple aggregated in cache.
    pub fn cache_per_tuple_us(mut self, rate: f64) -> Self {
        self.config.cache_per_tuple_us = rate;
        self
    }

    /// Sets the virtual µs charged per lattice node visited during lookup.
    pub fn lookup_per_node_us(mut self, rate: f64) -> Self {
        self.config.lookup_per_node_us = rate;
        self
    }

    /// Sets the virtual µs charged per count/cost table cell written.
    pub fn update_per_write_us(mut self, rate: f64) -> Self {
        self.config.update_per_write_us = rate;
        self
    }

    /// Attaches a tracer receiving every [`Event`] the manager, cache,
    /// backend and aggregation kernel emit. Without one, tracing costs a
    /// single `Option` check per site.
    pub fn tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a disk spill tier (see `docs/FORMAT.md` for the on-disk
    /// format): evicted chunks are demoted to `config.dir` instead of
    /// being dropped, missing chunks are promoted back from disk before
    /// the backend is asked, and — if the directory holds a checkpoint
    /// from a previous session — the manager warm-starts from it during
    /// [`CacheManagerBuilder::build`]. Without this call nothing touches
    /// disk and the manager is bit-identical to pre-spill builds.
    pub fn spill(mut self, config: SpillConfig) -> Self {
        self.spill = Some(config);
        self
    }

    /// The validated configuration this builder would construct with.
    pub fn config(&self) -> Result<ManagerConfig, ConfigError> {
        let mut config = self.config;
        config.cache_bytes = self.cache_bytes.ok_or(ConfigError::MissingCacheBudget)?;
        config.validate()?;
        Ok(config)
    }

    /// Validates the configuration and builds the manager over `backend` —
    /// the simulated [`aggcache_store::Backend`] or any other
    /// [`BackendSource`] (e.g. a fault-injecting / retrying decorator
    /// stack).
    pub fn build(self, backend: impl BackendSource + 'static) -> Result<CacheManager, ConfigError> {
        self.build_boxed(Box::new(backend))
    }

    /// Like [`CacheManagerBuilder::build`], for a source already boxed as a
    /// trait object — useful when the decorator stack is chosen at runtime.
    pub fn build_boxed(self, backend: Box<dyn BackendSource>) -> Result<CacheManager, ConfigError> {
        let config = self.config()?;
        let mut manager = CacheManager::from_parts(backend, config);
        if self.tracer.is_some() {
            manager.set_tracer(self.tracer);
        }
        if let Some(spill) = self.spill {
            manager
                .attach_spill(spill)
                .map_err(|e| ConfigError::Spill {
                    reason: e.to_string(),
                })?;
        }
        Ok(manager)
    }
}

/// What a cache pre-load did (paper §6.3's third rule: "pre-load the cache
/// with a group-by that fits in the cache and has the maximum number of
/// descendents in the lattice").
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

enum Tables {
    None,
    Counts(CountTable),
    Costs(CostTable),
}

impl Tables {
    /// Propagates an insert; returns the table cells written.
    fn on_insert(&mut self, key: ChunkKey, size: u32) -> u64 {
        match self {
            Tables::None => 0,
            Tables::Counts(t) => t.on_insert(key),
            Tables::Costs(t) => t.on_insert(key, size),
        }
    }

    /// Propagates an eviction; returns the table cells written.
    fn on_evict(&mut self, key: ChunkKey) -> u64 {
        match self {
            Tables::None => 0,
            Tables::Counts(t) => t.on_evict(key),
            Tables::Costs(t) => t.on_evict(key),
        }
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
/// ones from the backend in one batched call, and admits new chunks under
/// the configured replacement policy — keeping the virtual-count (VCM) or
/// cost (VCMC) tables consistent across every insertion and eviction.
///
/// Construct via [`CacheManager::builder`]. An attached [`Tracer`] observes
/// every probe, plan, fetch, admission, eviction and table delta; tracing
/// never changes results or virtual-time metrics.
pub struct CacheManager {
    backend: Box<dyn BackendSource>,
    grid: Arc<ChunkGrid>,
    cache: ChunkCache,
    tables: Tables,
    config: ManagerConfig,
    session: SessionMetrics,
    /// Monotonic counter bumped on every mutation that can change a probe's
    /// outcome (any admission, replacement or eviction — which also covers
    /// every count/cost-table change). Clock touches, pins and benefit
    /// boosts do *not* bump it: they only influence which entries a *future*
    /// eviction picks, not what the cache can answer now. A [`QueryProbe`]
    /// carries the version it was computed against; apply re-probes iff the
    /// versions differ, which is what makes batched execution bit-identical
    /// to the sequential loop.
    version: u64,
    /// The attached tracer, shared with the cache and backend. `None` (the
    /// default) reduces every emission site to one branch.
    tracer: Option<Arc<dyn Tracer>>,
    /// Monotonic probe-id source; atomic because concurrent batch probes
    /// run against `&self`.
    probe_seq: AtomicU64,
    /// The disk spill tier, when one was attached via
    /// [`CacheManagerBuilder::spill`]. `None` (the default) keeps every
    /// path bit-identical to pre-spill builds.
    spill: Option<SpillStore>,
    /// Spill accounting for the query currently being applied; reset at
    /// the start of every apply and harvested by the `run*` entry points.
    spill_query: SpillMetrics,
    /// Session-cumulative spill accounting (includes warm-start and
    /// checkpoint traffic, which no single query owns).
    spill_session: SpillMetrics,
    /// Query virtual time accumulated towards the next proactive scrub
    /// pass (only advances when the spill tier has a scrub interval).
    scrub_accum_ms: f64,
    /// Session-cumulative base-data maintenance accounting across every
    /// [`CacheManager::ingest`]. Strictly outside [`QueryMetrics`]:
    /// maintenance time never leaks into the paper's per-query
    /// `total = backend + agg + lookup + update` identity.
    update_session: UpdateMetrics,
}

/// What a warm start recovered from the spill tier's checkpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmStartReport {
    /// Chunks re-admitted into RAM.
    pub chunks: u64,
    /// Serialized bytes read from disk.
    pub bytes: u64,
    /// Virtual milliseconds charged for the recovery reads.
    pub virtual_ms: f64,
}

/// What a [`CacheManager::checkpoint`] wrote to the spill tier.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointReport {
    /// Resident chunks recorded in the checkpoint.
    pub chunks: u64,
    /// Serialized bytes written (0 for chunks already spilled).
    pub bytes: u64,
    /// Resident chunks whose write failed and were salvaged past
    /// (excluded from the checkpoint, never aborting it).
    pub failed: u64,
    /// Virtual milliseconds charged for the checkpoint writes.
    pub virtual_ms: f64,
}

/// Maps a RAM-side [`Origin`] to its on-disk code (`docs/FORMAT.md` §origin).
fn origin_code(origin: Origin) -> u8 {
    match origin {
        Origin::Backend => ORIGIN_BACKEND,
        Origin::Computed => ORIGIN_COMPUTED,
        Origin::Spilled => ORIGIN_SPILLED,
    }
}

/// Maps an on-disk origin code back to a RAM-side [`Origin`]. Unknown
/// codes (a future format revision) conservatively map to the lowest
/// replacement tier.
fn origin_from_code(code: u8) -> Origin {
    match code {
        ORIGIN_BACKEND => Origin::Backend,
        ORIGIN_COMPUTED => Origin::Computed,
        _ => Origin::Spilled,
    }
}

/// One group-by's view of an effective delta: the target chunk of every
/// effective insert/delete (parallel to [`EffectiveDelta::inserted`] /
/// [`EffectiveDelta::deleted`]) plus sorted membership sets for the
/// affected-chunk test. Built lazily during [`CacheManager::ingest`] —
/// only group-bys with resident or spilled chunks pay for the mapping.
struct GbDelta {
    ins_chunks: Vec<ChunkNumber>,
    del_chunks: Vec<ChunkNumber>,
    ins_set: Vec<ChunkNumber>,
    del_set: Vec<ChunkNumber>,
}

impl GbDelta {
    fn build(grid: &ChunkGrid, fact_level: &[u8], gb: GroupById, eff: &EffectiveDelta) -> Self {
        let gb_level = grid.geom(gb).level();
        debug_assert!(
            gb_level.iter().zip(fact_level).all(|(g, f)| g <= f),
            "resident chunks always live at levels computable from the fact table"
        );
        let rollup = Rollup::new(grid.schema(), fact_level, gb_level);
        let ins_chunks = delta_target_chunks(grid, &rollup, gb, &eff.inserted);
        let del_chunks = delta_target_chunks(grid, &rollup, gb, &eff.deleted);
        let mut ins_set = ins_chunks.clone();
        ins_set.sort_unstable();
        ins_set.dedup();
        let mut del_set = del_chunks.clone();
        del_set.sort_unstable();
        del_set.dedup();
        Self {
            ins_chunks,
            del_chunks,
            ins_set,
            del_set,
        }
    }

    /// Whether any effective insert or delete lands in `chunk`.
    fn affects(&self, chunk: ChunkNumber) -> bool {
        self.ins_set.binary_search(&chunk).is_ok() || self.del_set.binary_search(&chunk).is_ok()
    }

    /// Whether any effective delete lands in `chunk`.
    fn has_deletes(&self, chunk: ChunkNumber) -> bool {
        self.del_set.binary_search(&chunk).is_ok()
    }
}

/// The `gb`-level chunk each fact tuple of `data` rolls up into, in order.
fn delta_target_chunks(
    grid: &ChunkGrid,
    rollup: &Rollup,
    gb: GroupById,
    data: &ChunkData,
) -> Vec<ChunkNumber> {
    let geom = grid.geom(gb);
    let level = geom.level();
    let n = grid.num_dims();
    let mut rolled = vec![0u32; n];
    let mut chunk_coords = vec![0u32; n];
    let mut out = Vec::with_capacity(data.len());
    for (coords, _) in data.iter() {
        rollup.map_into(coords, &mut rolled);
        for d in 0..n {
            chunk_coords[d] = grid.dim(d).chunk_of_value(level[d], rolled[d]);
        }
        out.push(geom.linearize(&chunk_coords));
    }
    out
}

/// The outcome of the immutable probe phase of one query: the partition of
/// its chunks into computation plans (direct hits included) and backend
/// misses, stamped with the cache version it was computed against.
///
/// Produced by [`CacheManager::probe`] with `&self` only — many probes can
/// run concurrently over one manager — and consumed by the mutating apply
/// phase ([`CacheManager::run_batch`] / [`CacheManager::run`]).
#[derive(Debug)]
pub struct QueryProbe {
    plans: Vec<ComputationPlan>,
    missing: Vec<u64>,
    lookup_nodes: u64,
    chunks_demoted: usize,
    lookup_ns: u64,
    probe_ns: u64,
    version: u64,
    trace_id: u64,
    tenant: u32,
}

impl QueryProbe {
    /// The computation plans (direct hits and in-cache aggregations).
    pub fn plans(&self) -> &[ComputationPlan] {
        &self.plans
    }

    /// The chunks that must be fetched from the backend.
    pub fn missing(&self) -> &[u64] {
        &self.missing
    }

    /// Whether the query would be answered entirely from the cache.
    pub fn is_complete_hit(&self) -> bool {
        self.missing.is_empty()
    }

    /// The cache version this probe was computed against.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The tenant the probe is attributed to (0 unless probed via
    /// [`CacheManager::probe_as`]).
    pub fn tenant(&self) -> u32 {
        self.tenant
    }
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
        let tables = match config.strategy {
            Strategy::Vcm => Tables::Counts(CountTable::with_kind(grid.clone(), config.table_kind)),
            Strategy::Vcmc => Tables::Costs(CostTable::with_kind(grid.clone(), config.table_kind)),
            _ => Tables::None,
        };
        Self {
            cache: ChunkCache::with_admission(config.cache_bytes, config.policy, config.admission),
            grid,
            backend,
            tables,
            config,
            session: SessionMetrics::default(),
            version: 0,
            tracer: None,
            probe_seq: AtomicU64::new(0),
            spill: None,
            spill_query: SpillMetrics::default(),
            spill_session: SpillMetrics::default(),
            scrub_accum_ms: 0.0,
            update_session: UpdateMetrics::default(),
        }
    }

    /// Attaches (or with `None`, detaches) a tracer, propagating it to the
    /// chunk cache and the backend so their events land in the same sink.
    pub fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        self.cache.set_tracer(tracer.clone());
        self.backend.set_tracer(tracer.clone());
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

    /// Clears session metrics (e.g. after warm-up), spill accounting
    /// included.
    pub fn reset_session(&mut self) {
        self.session = SessionMetrics::default();
        self.spill_session = SpillMetrics::default();
        self.update_session = UpdateMetrics::default();
    }

    /// The attached spill tier, if any (read access).
    pub fn spill_store(&self) -> Option<&SpillStore> {
        self.spill.as_ref()
    }

    /// Mutable spill-store access — fault-injection test support.
    #[doc(hidden)]
    pub fn spill_store_mut(&mut self) -> Option<&mut SpillStore> {
        self.spill.as_mut()
    }

    /// Session-cumulative spill accounting: every demotion, promotion,
    /// warm-start and checkpoint since construction (or the last
    /// [`CacheManager::reset_session`]). All zeros without a spill tier.
    pub fn session_spill(&self) -> &SpillMetrics {
        &self.spill_session
    }

    /// Session-cumulative base-data maintenance accounting: every
    /// [`CacheManager::ingest`] since construction (or the last
    /// [`CacheManager::reset_session`]). All zeros until the first ingest.
    pub fn session_updates(&self) -> &UpdateMetrics {
        &self.update_session
    }

    /// Folds a spill charge into the current query's scratch and the
    /// session cumulative in one step.
    fn charge_spill(&mut self, delta: &SpillMetrics) {
        self.spill_query.merge(delta);
        self.spill_session.merge(delta);
    }

    /// Folds any `.corrupt` tombstones the spill store purged (cap
    /// enforcement) into the session spill accounting — background
    /// hygiene no single query owns.
    fn fold_corrupt_purged(&mut self) {
        let purged = match self.spill.as_mut() {
            Some(store) => store.take_corrupt_purged(),
            None => return,
        };
        if purged > 0 {
            self.spill_session.merge(&SpillMetrics {
                corrupt_purged: purged,
                ..SpillMetrics::default()
            });
        }
    }

    /// Attaches a spill tier and warm-starts from its checkpoint, if one
    /// exists. Called by [`CacheManagerBuilder::build`] when
    /// [`CacheManagerBuilder::spill`] was used; public so a spill tier can
    /// also be attached to an already-built manager.
    ///
    /// Warm start re-admits every chunk the checkpoint marked resident, in
    /// ascending packed-key order, with its original origin and benefit —
    /// through the normal admission path, so count/cost tables are rebuilt
    /// exactly as if the chunks had just been inserted. Recovery reads are
    /// charged to the spill cost model (session accounting, not any
    /// query's), and one [`Event::WarmStart`] is emitted. Returns `None`
    /// when the directory held no checkpoint.
    ///
    /// Attachment *self-heals* rather than failing: a missing or corrupt
    /// index was already scavenged by [`SpillStore::open`] (reported here
    /// via [`Event::IndexRebuild`]), a resident record that fails its
    /// checksum is quarantined and skipped (the chunk is simply a cold
    /// miss later), and transient read errors retry under the store's
    /// policy. Only an unopenable directory or invalid configuration is
    /// an error.
    pub fn attach_spill(
        &mut self,
        config: SpillConfig,
    ) -> Result<Option<WarmStartReport>, SpillError> {
        let mut store = SpillStore::open(config)?;
        if let Some(rebuild) = store.take_index_rebuild() {
            self.spill_session.merge(&SpillMetrics {
                index_rebuilds: 1,
                spill_corrupt: rebuild.quarantined,
                spill_quarantined: rebuild.quarantined,
                ..SpillMetrics::default()
            });
            if let Some(tracer) = &self.tracer {
                tracer.emit(&Event::IndexRebuild {
                    scanned: rebuild.scanned,
                    recovered: rebuild.recovered,
                    quarantined: rebuild.quarantined,
                });
            }
        }
        let resident = store.resident_entries();
        let mut report = WarmStartReport::default();
        let mut delta = SpillMetrics::default();
        for (key, code, benefit, disk_bytes) in resident {
            let read_ms = store.cost().read_ms(disk_bytes);
            let outcome = store.read_retrying(key);
            delta.spill_retries += outcome.attempts - 1;
            delta.spill_virtual_ms += outcome.retry_virtual_ms;
            report.virtual_ms += outcome.retry_virtual_ms;
            match outcome.result {
                Ok(Some(record)) => {
                    report.chunks += 1;
                    report.bytes += disk_bytes;
                    report.virtual_ms += read_ms;
                    delta.spill_reads += 1;
                    delta.bytes_read += disk_bytes;
                    delta.spill_virtual_ms += read_ms;
                    self.admit_chunk(key, record.data, origin_from_code(code), benefit);
                }
                Ok(None) => {}
                Err(e) if e.is_corruption() => {
                    // The checkpointed record is damaged: charge the
                    // wasted read, set the file aside, and warm-start
                    // without it — the chunk is re-fetched on first miss.
                    report.virtual_ms += read_ms;
                    delta.spill_virtual_ms += read_ms;
                    delta.spill_corrupt += 1;
                    if store.quarantine(key).is_some() {
                        delta.spill_quarantined += 1;
                    }
                    if let Some(tracer) = &self.tracer {
                        tracer.emit(&Event::SpillCorrupt {
                            gb: key.gb.0,
                            chunk: key.chunk,
                            reason: e.class_name(),
                        });
                        tracer.emit(&Event::SpillQuarantine {
                            gb: key.gb.0,
                            chunk: key.chunk,
                            bytes: disk_bytes,
                        });
                    }
                }
                // Retries exhausted on a transient error: skip the chunk.
                // It stays indexed and can still be promoted on demand.
                Err(_) => {}
            }
        }
        if delta != SpillMetrics::default() {
            self.spill_session.merge(&delta);
        }
        if report.chunks > 0 {
            if let Some(tracer) = &self.tracer {
                tracer.emit(&Event::WarmStart {
                    chunks: report.chunks,
                    bytes: report.bytes,
                    virtual_ms: report.virtual_ms,
                });
            }
        }
        // Demotions only start once the store is in place: warm-start
        // evictions (budget smaller than the checkpoint) fall back to
        // plain drops, whose chunks are still on disk anyway.
        self.cache.set_capture_evicted(true);
        self.spill = Some(store);
        self.fold_corrupt_purged();
        Ok(if report.chunks > 0 {
            Some(report)
        } else {
            None
        })
    }

    /// Writes a checkpoint of the current RAM-resident population to the
    /// spill tier, so the next session's [`CacheManager::attach_spill`]
    /// warm-starts from it. Every resident chunk is (re)written and marked
    /// resident, replacing any previous checkpoint's marks; writes are
    /// charged to the spill cost model (session accounting).
    ///
    /// Checkpoints are salvaged record-by-record: a chunk whose write
    /// fails (ENOSPC, injected fault, OS error) is skipped and counted in
    /// [`CheckpointReport::failed`] while the rest of the checkpoint
    /// proceeds. Fails with [`SpillError::NotAttached`] when no spill
    /// tier is attached, or when the index itself cannot be persisted.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, SpillError> {
        let Some(store) = self.spill.as_mut() else {
            return Err(SpillError::NotAttached);
        };
        let entries = self.cache.entries_sorted();
        let stats = store.checkpoint(
            entries
                .into_iter()
                .map(|(key, e)| (key, origin_code(e.origin), e.benefit, &e.data)),
        )?;
        // One per-op charge per chunk plus the byte rate over the total.
        let cost = store.cost();
        let virtual_ms = stats.chunks as f64 * cost.write_per_op_ms
            + stats.bytes as f64 * cost.write_per_byte_us / 1000.0;
        self.spill_session.merge(&SpillMetrics {
            spill_writes: stats.chunks,
            bytes_written: stats.bytes,
            demote_failures: stats.failed,
            spill_virtual_ms: virtual_ms,
            ..SpillMetrics::default()
        });
        Ok(CheckpointReport {
            chunks: stats.chunks,
            bytes: stats.bytes,
            failed: stats.failed,
            virtual_ms,
        })
    }

    /// Runs one cache lookup without executing anything — the probe used by
    /// the paper's Table 1 lookup-time experiment and by the cluster tier's
    /// cooperative peer probes. Returns the plan (if the chunk is
    /// answerable) together with the lookup statistics.
    pub fn lookup_chunk(&self, key: ChunkKey) -> LookupOutcome {
        let (counts, costs) = match &self.tables {
            Tables::Counts(t) => (Some(t), None),
            Tables::Costs(t) => (Some(t.counts()), Some(t)),
            Tables::None => (None, None),
        };
        let mut stats = LookupStats::default();
        let plan = lookup(
            self.config.strategy,
            &self.cache,
            &self.grid,
            counts,
            costs,
            key,
            &mut stats,
        );
        LookupOutcome { plan, stats }
    }

    /// Inserts a chunk (fetched or computed elsewhere) into the cache,
    /// propagating table updates for the insert and any evictions.
    /// Returns whether it was admitted and the wall-clock nanoseconds spent
    /// on count/cost maintenance (the paper's Table 2 "update time").
    pub fn insert_chunk(
        &mut self,
        key: ChunkKey,
        data: ChunkData,
        origin: Origin,
        benefit: f64,
    ) -> (bool, u64) {
        self.admit_chunk(key, data, origin, benefit)
    }

    /// Emits the count/cost-table delta of one insert/evict, if a tracer is
    /// attached and a table is maintained.
    fn trace_table_update(&self, key: ChunkKey, writes: u64, evict: bool) {
        let Some(tracer) = &self.tracer else { return };
        let event = match &self.tables {
            Tables::None => return,
            Tables::Counts(_) => Event::CountUpdate {
                gb: key.gb.0,
                chunk: key.chunk,
                writes,
                evict,
            },
            Tables::Costs(_) => Event::CostUpdate {
                gb: key.gb.0,
                chunk: key.chunk,
                writes,
                evict,
            },
        };
        tracer.emit(&event);
    }

    /// The single admission path: inserts into the cache and keeps the
    /// count/cost tables consistent — including the replace case (a key
    /// already cached counts as an eviction of the old entry, otherwise its
    /// count would be incremented twice and never return to zero).
    ///
    /// A *refused* replace leaves the old entry resident (the cache checks
    /// feasibility before dropping it), so the old entry's `on_evict` fires
    /// only when the replacement actually lands — a refused insert must not
    /// wind the count tables down for a chunk that is still cached.
    fn admit_chunk(
        &mut self,
        key: ChunkKey,
        data: ChunkData,
        origin: Origin,
        benefit: f64,
    ) -> (bool, u64) {
        let t = Instant::now();
        let replacing = self.cache.contains(&key);
        let size = data.len() as u32;
        let outcome = self.cache.insert(key, data, origin, benefit);
        self.demote_evicted(key);
        if replacing && (outcome.admitted || outcome.evicted.contains(&key)) {
            // The old entry under `key` was dropped to make room for its
            // replacement (the `evicted` arm covers the cache's defensive
            // refuse-after-partial-eviction path, which already reports the
            // destroyed old entry as a victim).
            let writes = self.tables.on_evict(key);
            self.trace_table_update(key, writes, true);
        }
        for evicted in outcome.evicted.iter().filter(|&&e| e != key) {
            let writes = self.tables.on_evict(*evicted);
            self.trace_table_update(*evicted, writes, true);
        }
        if outcome.admitted {
            let writes = self.tables.on_insert(key, size);
            self.trace_table_update(key, writes, false);
        }
        // A refused insert (old entry retained, nothing evicted) leaves
        // probe-relevant state untouched, so outstanding probes stay valid.
        if outcome.admitted || !outcome.evicted.is_empty() {
            self.version += 1;
        }
        (outcome.admitted, t.elapsed().as_nanos() as u64)
    }

    /// Demotes the replacement-policy victims of the last insert to the
    /// spill tier instead of letting them drop. A no-op without an
    /// attached spill tier (the capture buffer stays empty). The old entry
    /// under a replaced key is *not* preserved — its replacement
    /// supersedes it — and a victim whose bytes are already on disk (an
    /// evicted promotion) is re-marked for free.
    ///
    /// A failed disk write degrades to a plain eviction: the victim is
    /// gone from RAM either way, and the caller's `on_evict` propagation —
    /// which never depends on this demotion — keeps the count/cost tables
    /// consistent (the mirror of PR 4's refused-replace fix).
    fn demote_evicted(&mut self, inserted: ChunkKey) {
        let victims = self.cache.drain_evicted();
        if victims.is_empty() {
            return;
        }
        let Some(store) = self.spill.as_mut() else {
            return;
        };
        let mut delta = SpillMetrics::default();
        for (vkey, entry) in victims {
            if vkey == inserted || (entry.origin == Origin::Spilled && store.contains(vkey)) {
                continue;
            }
            let bytes =
                match store.write(vkey, origin_code(entry.origin), entry.benefit, &entry.data) {
                    Ok(bytes) => bytes,
                    // The disk refused (ENOSPC, injected fault, OS error):
                    // degrade to a plain eviction, counted but never fatal —
                    // the victim was leaving RAM regardless.
                    Err(_) => {
                        delta.demote_failures += 1;
                        continue;
                    }
                };
            let virtual_ms = store.cost().write_ms(bytes);
            delta.spill_writes += 1;
            delta.bytes_written += bytes;
            delta.spill_virtual_ms += virtual_ms;
            if let Some(tracer) = &self.tracer {
                tracer.emit(&Event::SpillWrite {
                    gb: vkey.gb.0,
                    chunk: vkey.chunk,
                    bytes,
                    virtual_ms,
                });
            }
        }
        if delta != SpillMetrics::default() {
            self.charge_spill(&delta);
        }
    }

    /// Serves what it can of a query's miss set from the spill tier:
    /// reads each spilled chunk (charged to the spill cost model), appends
    /// its cells to the result, and offers it back to the RAM cache at the
    /// lowest replacement tier ([`Origin::Spilled`]) with its recorded
    /// benefit. Returns the chunks still missing — the backend's share.
    ///
    /// Recovery semantics: transient read errors retry under the store's
    /// [`aggcache_store::RetryPolicy`]; a record that fails its checksum
    /// or decode is *quarantined* (counted, evented, file set aside) and
    /// the chunk falls back to the normal miss path — answers are never
    /// built from corrupt bytes, corruption costs time, never
    /// correctness.
    fn promote_from_spill(
        &mut self,
        gb: GroupById,
        missing: &[u64],
        result: &mut ChunkData,
        metrics: &mut QueryMetrics,
    ) -> Vec<u64> {
        let mut still_missing = Vec::with_capacity(missing.len());
        let mut delta = SpillMetrics::default();
        for &chunk in missing {
            let key = ChunkKey::new(gb, chunk);
            let (outcome, bytes, read_ms) = {
                let store = self.spill.as_ref().expect("spill attached");
                if !store.contains(key) {
                    still_missing.push(chunk);
                    continue;
                }
                let bytes = store.bytes_of(key).unwrap_or(0);
                (store.read_retrying(key), bytes, store.cost().read_ms(bytes))
            };
            delta.spill_retries += outcome.attempts - 1;
            delta.spill_virtual_ms += outcome.retry_virtual_ms;
            match outcome.result {
                Ok(Some(record)) => {
                    delta.spill_reads += 1;
                    delta.bytes_read += bytes;
                    delta.spill_virtual_ms += read_ms;
                    if let Some(tracer) = &self.tracer {
                        tracer.emit(&Event::SpillRead {
                            gb: gb.0,
                            chunk,
                            bytes,
                            virtual_ms: read_ms,
                        });
                    }
                    result.append(&record.data);
                    let (admitted, update_ns) =
                        self.admit_chunk(key, record.data, Origin::Spilled, record.benefit);
                    metrics.update_ns += update_ns;
                    delta.spill_promotes += u64::from(admitted);
                    if let Some(tracer) = &self.tracer {
                        tracer.emit(&Event::SpillPromote {
                            gb: gb.0,
                            chunk,
                            admitted,
                        });
                    }
                }
                Ok(None) => still_missing.push(chunk),
                Err(e) if e.is_corruption() => {
                    // Damaged record: charge the wasted read, set the
                    // file aside, re-serve through the normal miss path.
                    delta.spill_virtual_ms += read_ms;
                    delta.spill_corrupt += 1;
                    if let Some(store) = self.spill.as_mut() {
                        if store.quarantine(key).is_some() {
                            delta.spill_quarantined += 1;
                        }
                    }
                    if let Some(tracer) = &self.tracer {
                        tracer.emit(&Event::SpillCorrupt {
                            gb: gb.0,
                            chunk,
                            reason: e.class_name(),
                        });
                        tracer.emit(&Event::SpillQuarantine {
                            gb: gb.0,
                            chunk,
                            bytes,
                        });
                    }
                    still_missing.push(chunk);
                }
                // Transient errors exhausted their retries: the file may
                // be intact, so leave it spilled and serve this miss from
                // the backend.
                Err(_) => still_missing.push(chunk),
            }
        }
        if delta != SpillMetrics::default() {
            self.charge_spill(&delta);
        }
        self.fold_corrupt_purged();
        still_missing
    }

    /// Removes a chunk explicitly (test/experiment support), propagating
    /// table updates. Returns the table-maintenance nanoseconds.
    pub fn evict_chunk(&mut self, key: ChunkKey) -> u64 {
        if self.cache.remove(&key) {
            self.version += 1;
            let t = Instant::now();
            let writes = self.tables.on_evict(key);
            self.trace_table_update(key, writes, true);
            t.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Applies a batch of base-data inserts/updates/deletes (an update is
    /// the standard delete-plus-insert encoding) and maintains the cache
    /// *incrementally*: the batch lands in the fact table's base chunks,
    /// then propagates upward through the lattice to every resident
    /// descendant chunk.
    ///
    /// Per-chunk policy, by aggregate function:
    ///
    /// * **COUNT** is self-maintainable under inserts and deletes: the
    ///   chunk's share of the delta is rolled up through the columnar
    ///   kernel and patched in place (deletes enter as negative deltas).
    ///   A cell whose count returns to zero is dropped; a chunk left with
    ///   no cells is evicted and leaves the count/cost tables
    ///   (reason `"emptied"`).
    /// * **SUM** is self-maintainable under inserts only (a zero sum is a
    ///   legitimate value, so a patched chunk could not tell "no tuples"
    ///   from "sums to zero"). Insert-only chunks are patched; chunks hit
    ///   by a delete are invalidated (reason `"sum_delete"`).
    /// * **MIN/MAX** are not self-maintainable: deleting the current
    ///   extremum needs the runner-up, which the chunk no longer holds.
    ///   Every affected chunk is invalidated (reason `"min_max"`) and
    ///   re-serves through the normal miss path.
    ///
    /// Patches and invalidations run through the normal table-maintaining
    /// admission/eviction paths, so `CountTable`/VCMC stay consistent
    /// with the cache contents; stale spilled copies leave the spill
    /// index. All maintenance cost lands in the returned
    /// [`UpdateMetrics`] (and the session cumulative,
    /// [`CacheManager::session_updates`]) — strictly outside
    /// [`QueryMetrics`], preserving the per-query
    /// `total = backend + agg + lookup + update` identity bit-for-bit.
    ///
    /// An empty batch is a guaranteed no-op: no fact-table write, no
    /// version bump, no events — answers, cache contents and metrics stay
    /// bit-identical to a session that never called this.
    ///
    /// Fails with [`CacheError::Delta`] when the batch fails validation
    /// (wrong coordinate arity or an out-of-range coordinate); the fact
    /// table, the cache and every table are untouched.
    pub fn ingest(&mut self, batch: &DeltaBatch) -> Result<UpdateMetrics, CacheError> {
        if batch.is_empty() {
            return Ok(UpdateMetrics::default());
        }
        let writes_before = self.tables.updates();
        let eff = self.backend.apply_delta(batch)?;
        let mut m = UpdateMetrics {
            delta_batches: 1,
            tuples_inserted: eff.inserted.len() as u64,
            tuples_deleted: eff.deleted.len() as u64,
            deletes_unmatched: eff.unmatched_deletes,
            base_chunks_touched: eff.base_chunks.len() as u64,
            ..UpdateMetrics::default()
        };
        let rolled_up = if eff.is_empty() {
            0
        } else {
            self.propagate_delta(&eff, &mut m)
        };
        m.table_writes = self.tables.updates() - writes_before;
        m.update_virtual_ms =
            (eff.num_tuples() + rolled_up) as f64 * self.config.cache_per_tuple_us / 1000.0
                + m.table_writes as f64 * self.config.update_per_write_us / 1000.0;
        self.update_session.merge(&m);
        if let Some(tracer) = &self.tracer {
            tracer.emit(&Event::DeltaIngest {
                inserts: m.tuples_inserted,
                deletes: m.tuples_deleted,
                unmatched: m.deletes_unmatched,
                base_chunks: m.base_chunks_touched,
                patched: m.chunks_patched,
                invalidated: m.chunks_invalidated,
                table_writes: m.table_writes,
                virtual_ms: m.update_virtual_ms,
            });
        }
        Ok(m)
    }

    /// Pushes an effective delta up the lattice: every resident chunk a
    /// delta tuple rolls into is patched in place or invalidated per the
    /// policy documented on [`CacheManager::ingest`], then stale spilled
    /// copies are dropped. Returns the tuples rolled through the
    /// aggregation kernel, for the virtual-time charge.
    fn propagate_delta(&mut self, eff: &EffectiveDelta, m: &mut UpdateMetrics) -> u64 {
        let grid = self.grid.clone();
        let agg = self.backend.agg();
        let fact_level = grid.geom(self.backend.fact().gb()).level().to_vec();
        let mut per_gb: HashMap<u32, GbDelta> = HashMap::new();
        let mut rolled_up: u64 = 0;

        // Deterministic sweep order: ascending packed key, like every
        // other whole-cache enumeration.
        let mut resident: Vec<ChunkKey> = self.cache.keys().collect();
        resident.sort_unstable_by_key(|k| k.pack());
        for key in resident {
            let gbd = per_gb
                .entry(key.gb.0)
                .or_insert_with(|| GbDelta::build(&grid, &fact_level, key.gb, eff));
            if !gbd.affects(key.chunk) {
                continue;
            }
            let deletes_here = gbd.has_deletes(key.chunk);
            // Re-check residency: an earlier re-admission may have evicted
            // this chunk as a policy victim (the spill sweep below catches
            // any demoted copy).
            let Some((old_data, origin, benefit)) = self
                .cache
                .peek(&key)
                .map(|e| (e.data.clone(), e.origin, e.benefit))
            else {
                continue;
            };
            let reason = match agg {
                AggFn::Min | AggFn::Max => Some("min_max"),
                AggFn::Sum if deletes_here => Some("sum_delete"),
                AggFn::Sum | AggFn::Count => None,
            };
            if let Some(reason) = reason {
                self.invalidate_resident(key, reason, m);
                continue;
            }
            // Self-maintainable: roll the chunk's share of the delta up
            // to the chunk's level (deletes as negated lifted values),
            // then fold the delta cells into the cached cells.
            let gb_level = grid.geom(key.gb).level();
            let mut patch = Aggregator::new(grid.schema(), gb_level, agg);
            patch.add(
                &fact_level,
                eff.inserted
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| gbd.ins_chunks[*i] == key.chunk)
                    .map(|(_, (c, v))| (c, agg.lift(v))),
                Lift::Lifted,
            );
            patch.add(
                &fact_level,
                eff.deleted
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| gbd.del_chunks[*i] == key.chunk)
                    .map(|(_, (c, v))| (c, -agg.lift(v))),
                Lift::Lifted,
            );
            let tuples = patch.cells_added();
            let delta_cells = patch.finish();
            let mut merged = Aggregator::new(grid.schema(), gb_level, agg);
            merged.add_chunk(gb_level, &old_data, Lift::Lifted);
            merged.add_chunk(gb_level, &delta_cells, Lift::Lifted);
            rolled_up += tuples + merged.cells_added();
            let merged_data = merged.finish();
            // COUNT cells whose count returned to zero hold no tuples:
            // drop them so the patched chunk matches a fresh recompute.
            let new_data = if matches!(agg, AggFn::Count) {
                let mut kept = ChunkData::with_capacity(grid.num_dims(), merged_data.len());
                for (c, v) in merged_data.iter().filter(|&(_, v)| v != 0.0) {
                    kept.push(c, v);
                }
                kept
            } else {
                merged_data
            };
            m.cells_patched += delta_cells.len() as u64;
            if new_data.is_empty() {
                // Every cell's count hit zero: the chunk holds nothing,
                // so it leaves the cache and the presence index.
                self.invalidate_resident(key, "emptied", m);
                continue;
            }
            let (admitted, _table_ns) = self.admit_chunk(key, new_data, origin, benefit);
            if admitted {
                m.chunks_patched += 1;
                if let Some(tracer) = &self.tracer {
                    tracer.emit(&Event::ChunkPatch {
                        gb: key.gb.0,
                        chunk: key.chunk,
                        cells: delta_cells.len() as u64,
                        tuples,
                    });
                }
            } else {
                // A refused replace keeps the OLD (now stale) entry
                // resident — evict it rather than ever serve pre-update
                // data. (The cache's defensive refuse-after-partial-
                // eviction path may already have destroyed it, which
                // `evict_chunk` absorbs as a no-op.)
                self.invalidate_resident(key, "refused", m);
            }
        }

        // Stale spilled copies: any on-disk chunk the delta touches is
        // dropped from the spill index — conservatively including copies
        // demoted during the sweep above, which are re-fetched rather
        // than trusted. `keys()` is ascending, so the sweep stays
        // deterministic.
        let spilled: Vec<ChunkKey> = self
            .spill
            .as_ref()
            .map(SpillStore::keys)
            .unwrap_or_default();
        for key in spilled {
            let affected = per_gb
                .entry(key.gb.0)
                .or_insert_with(|| GbDelta::build(&grid, &fact_level, key.gb, eff))
                .affects(key.chunk);
            if !affected {
                continue;
            }
            let store = self.spill.as_mut().expect("spilled keys imply a store");
            if matches!(store.remove(key), Ok(true)) {
                m.spill_invalidated += 1;
                if let Some(tracer) = &self.tracer {
                    tracer.emit(&Event::ChunkInvalidate {
                        gb: key.gb.0,
                        chunk: key.chunk,
                        reason: "spilled",
                    });
                }
            }
        }
        rolled_up
    }

    /// Evicts one resident chunk staled by a delta through the normal
    /// table-maintaining path, and reports it.
    fn invalidate_resident(&mut self, key: ChunkKey, reason: &'static str, m: &mut UpdateMetrics) {
        self.evict_chunk(key);
        m.chunks_invalidated += 1;
        if let Some(tracer) = &self.tracer {
            tracer.emit(&Event::ChunkInvalidate {
                gb: key.gb.0,
                chunk: key.chunk,
                reason,
            });
        }
    }

    /// Ownership-aware eviction: removes every resident chunk for which
    /// `owned` returns `false`, propagating count/cost-table updates, and
    /// returns the drained entries so the caller can hand them to their
    /// new owner (the cluster tier's key-slice handoff after a ring
    /// membership change). An empty drain leaves the cache version
    /// untouched, so probes stay valid.
    pub fn evict_unowned(
        &mut self,
        owned: impl FnMut(ChunkKey) -> bool,
    ) -> Vec<(ChunkKey, ChunkData, Origin, f64)> {
        let drained = self.cache.evict_unowned(owned);
        if !drained.is_empty() {
            self.version += 1;
            for (key, ..) in &drained {
                let writes = self.tables.on_evict(*key);
                self.trace_table_update(*key, writes, true);
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
    /// backend (the two-level policy's heuristic choice is
    /// [`CacheManager::preload_best`]; this entry point supports the
    /// pre-loading ablation).
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

    /// The immutable probe phase: partitions the query's chunks into
    /// computation plans and backend misses (paper: answerable / missing)
    /// and applies the cost-based §5.2 arbitration — all against `&self`,
    /// so any number of probes can run concurrently.
    ///
    /// The result is stamped with the current cache [version]; applying a
    /// probe after an intervening mutation transparently re-probes.
    ///
    /// [version]: CacheManager::version
    pub fn probe(&self, query: &Query) -> QueryProbe {
        self.probe_as(query, 0)
    }

    /// Like [`CacheManager::probe`], attributing the query to `tenant`.
    /// Attribution changes only the tenant tag on the closing
    /// [`Event::QueryDone`] (and thus the per-tenant breakdowns in
    /// `MetricsRegistry`); results, cache state and virtual time are
    /// untouched.
    pub fn probe_as(&self, query: &Query, tenant: u32) -> QueryProbe {
        let t_probe = Instant::now();
        let trace_id = match &self.tracer {
            Some(tracer) => {
                let id = self.probe_seq.fetch_add(1, Ordering::Relaxed);
                tracer.emit(&Event::ProbeStart {
                    query: id,
                    gb: query.gb.0,
                    chunks: query.chunks.len() as u64,
                    version: self.version,
                    strategy: self.config.strategy.name(),
                });
                id
            }
            None => 0,
        };
        let mut lookup_nodes = 0u64;
        let mut chunks_demoted = 0usize;

        let t_lookup = Instant::now();
        let mut plans: Vec<ComputationPlan> = Vec::new();
        let mut missing: Vec<u64> = Vec::new();
        for &chunk in &query.chunks {
            let key = ChunkKey::new(query.gb, chunk);
            let LookupOutcome { plan, stats } = self.lookup_chunk(key);
            if let Some(tracer) = &self.tracer {
                let outcome = match &plan {
                    Some(p) if p.direct_hit => ChunkLookupKind::Hit,
                    Some(_) => ChunkLookupKind::Computable,
                    None => ChunkLookupKind::Miss,
                };
                tracer.emit(&Event::ChunkLookup {
                    query: trace_id,
                    gb: query.gb.0,
                    chunk,
                    outcome,
                    nodes: stats.nodes_visited,
                });
            }
            match plan {
                Some(plan) => plans.push(plan),
                None => missing.push(chunk),
            }
            lookup_nodes += stats.nodes_visited;
        }
        let lookup_ns = t_lookup.elapsed().as_nanos() as u64;

        // Cost-based arbitration (§5.2): computable chunks whose in-cache
        // aggregation would cost more than the backend's marginal price are
        // demoted to backend fetches. The per-query overhead is charged
        // only when this query wouldn't hit the backend anyway.
        if self.config.optimizer {
            let mut will_fetch = !missing.is_empty();
            let cost_model = *self.backend.cost_model();
            let per_tuple_us = self.config.cache_per_tuple_us;
            plans.retain(|plan| {
                if plan.direct_hit {
                    return true;
                }
                let cache_ms = plan.cost as f64 * per_tuple_us / 1000.0;
                let Some(scan) = self.backend.estimate_scan(query.gb, &[plan.target.chunk]) else {
                    return true;
                };
                let marginal = cost_model.per_tuple_us * scan as f64 / 1000.0;
                let overhead = if will_fetch {
                    0.0
                } else {
                    cost_model.per_query_ms
                };
                if cache_ms > marginal + overhead {
                    missing.push(plan.target.chunk);
                    will_fetch = true;
                    chunks_demoted += 1;
                    false
                } else {
                    true
                }
            });
        }

        let probe_ns = t_probe.elapsed().as_nanos() as u64;
        if let Some(tracer) = &self.tracer {
            let hits = plans.iter().filter(|p| p.direct_hit).count() as u64;
            tracer.emit(&Event::ProbeEnd {
                query: trace_id,
                gb: query.gb.0,
                version: self.version,
                hits,
                computable: plans.len() as u64 - hits,
                missing: missing.len() as u64,
                demoted: chunks_demoted as u64,
                wall_ns: probe_ns,
            });
        }

        QueryProbe {
            plans,
            missing,
            lookup_nodes,
            chunks_demoted,
            lookup_ns,
            probe_ns,
            version: self.version,
            trace_id,
            tenant,
        }
    }

    /// The mutating apply phase: executes a probe's plans (aggregating in
    /// cache), batch-fetches its misses from the backend, admits results
    /// under the replacement policy and keeps the count/cost tables
    /// consistent.
    ///
    /// If the cache mutated since the probe was taken (version mismatch)
    /// the probe is recomputed first, so the outcome — results, cache
    /// state and virtual-time metrics — is always exactly what a fresh
    /// sequential [`CacheManager::run`] would produce.
    pub fn apply(&mut self, query: &Query, probe: QueryProbe) -> Result<QueryResult, CacheError> {
        let t_apply = Instant::now();
        self.spill_query = SpillMetrics::default();
        let probe = if probe.version == self.version {
            probe
        } else {
            self.probe_as(query, probe.tenant)
        };
        let QueryProbe {
            plans,
            missing,
            lookup_nodes,
            chunks_demoted,
            lookup_ns,
            probe_ns,
            version: _,
            trace_id,
            tenant,
        } = probe;
        let mut metrics = QueryMetrics {
            lookup_ns,
            probe_ns,
            lookup_nodes,
            chunks_demoted,
            ..QueryMetrics::default()
        };
        let n_dims = self.grid.num_dims();
        let writes_before = self.tables.updates();

        self.pin_leaves(&plans);

        let mut result = ChunkData::new(n_dims);

        // Phase 2: answer from the cache (direct hits + aggregations).
        for plan in &plans {
            if plan.direct_hit {
                metrics.chunks_hit += 1;
                if let Some(entry) = self.cache.get(&plan.target) {
                    result.append(&entry.data);
                }
            } else {
                metrics.chunks_computed += 1;
                self.compute_and_admit(plan, &mut result, &mut metrics, |tuples| {
                    let mut levels: Vec<u32> = plan.leaves.iter().map(|l| l.gb.0).collect();
                    levels.sort_unstable();
                    levels.dedup();
                    Event::PlanChosen {
                        query: trace_id,
                        gb: plan.target.gb.0,
                        chunk: plan.target.chunk,
                        leaves: plan.leaves.len() as u64,
                        levels,
                        predicted_tuples: plan.cost,
                        actual_tuples: tuples,
                    }
                });
            }
        }
        self.unpin_leaves(&plans);

        // Phase 3: promote spilled chunks, then one batched backend query
        // for whatever is still missing. `complete_hit` keeps meaning
        // "answered from RAM alone", so it is decided by the pre-promotion
        // miss set; promoted chunks likewise stay counted in
        // `chunks_missed` — the spill tier changes where a miss is served
        // from, not whether the RAM cache missed.
        let had_missing = !missing.is_empty();
        metrics.chunks_missed = missing.len();
        let missing = if had_missing && self.spill.is_some() {
            self.promote_from_spill(query.gb, &missing, &mut result, &mut metrics)
        } else {
            missing
        };
        if !missing.is_empty() {
            match self.backend.fetch(query.gb, &missing) {
                Ok(fetch) => {
                    metrics.backend_virtual_ms += fetch.virtual_ms;
                    metrics.backend_tuples += fetch.tuples_scanned;
                    let per_chunk_benefit = fetch.virtual_ms / missing.len() as f64;
                    for (chunk, data) in fetch.chunks {
                        result.append(&data);
                        let key = ChunkKey::new(query.gb, chunk);
                        let (_, update_ns) =
                            self.admit_chunk(key, data, Origin::Backend, per_chunk_benefit);
                        metrics.update_ns += update_ns;
                    }
                }
                // Graceful degradation: the backend is down (retries, if
                // any, already exhausted). The outage's virtual time is
                // charged, then each missing chunk is re-probed for an
                // aggregation path at any cost.
                Err(err) if err.is_outage() => {
                    metrics.backend_virtual_ms += err.virtual_ms();
                    if let Some(tracer) = &self.tracer {
                        let attempts = match &err {
                            StoreError::Unavailable { attempts, .. } => *attempts,
                            _ => 1,
                        };
                        tracer.emit(&Event::FetchFailed {
                            gb: query.gb.0,
                            chunks: missing.len() as u64,
                            attempts,
                            virtual_ms: err.virtual_ms(),
                        });
                    }
                    self.serve_degraded(query, &missing, &mut result, &mut metrics)?;
                }
                Err(err) => return Err(err.into()),
            }
        }

        metrics.complete_hit = !had_missing;
        metrics.table_writes = self.tables.updates() - writes_before;
        metrics.apply_ns = t_apply.elapsed().as_nanos() as u64;
        self.finish_metrics(&mut metrics, trace_id, query.gb, tenant);
        self.maybe_scrub(metrics.total_ms());
        Ok(QueryResult {
            data: result,
            metrics,
        })
    }

    /// Pins every plan leaf: inserting computed chunks mid-query must not
    /// evict the inputs of a later plan.
    fn pin_leaves(&mut self, plans: &[ComputationPlan]) {
        for leaf in plans.iter().flat_map(|p| &p.leaves) {
            self.cache.pin(*leaf);
        }
    }

    fn unpin_leaves(&mut self, plans: &[ComputationPlan]) {
        for leaf in plans.iter().flat_map(|p| &p.leaves) {
            self.cache.unpin(leaf);
        }
    }

    /// Executes one aggregation plan: rolls its leaves up into the target
    /// chunk, charges the aggregation to `metrics`, emits `event(tuples)`,
    /// rewards the leaves and admits the computed chunk.
    fn compute_and_admit(
        &mut self,
        plan: &ComputationPlan,
        result: &mut ChunkData,
        metrics: &mut QueryMetrics,
        event: impl FnOnce(u64) -> Event,
    ) {
        let t_agg = Instant::now();
        let (data, tuples) = execute_plan_parallel_traced(
            &self.grid,
            &self.cache,
            self.backend.agg(),
            plan,
            self.config.threads,
            self.tracer.as_deref(),
        );
        metrics.agg_ns += t_agg.elapsed().as_nanos() as u64;
        if let Some(tracer) = &self.tracer {
            tracer.emit(&event(tuples));
        }
        metrics.tuples_aggregated += tuples;
        let benefit_ms = tuples as f64 * self.config.cache_per_tuple_us / 1000.0;
        metrics.agg_virtual_ms += benefit_ms;
        result.append(&data);
        // Two-level policy: reward the group that made this aggregation
        // possible (§6.3, rule 2).
        if self.config.group_boost {
            self.cache.boost_group(plan.leaves.iter(), benefit_ms);
        }
        for leaf in &plan.leaves {
            let _ = self.cache.get(leaf); // LRU touch
        }
        // Benefit of the computed chunk, per policy. Two-level: the
        // aggregation cost (§6.1 — it can be reproduced from its
        // still-cached inputs). Plain benefit / LRU baselines (\[DRSN98\]):
        // the *backend* recomputation cost — which is what makes aggregated
        // computed chunks displace detailed base chunks there, the weakness
        // the two-level policy fixes (§7.2's Fig. 7 discussion).
        let benefit = match self.config.policy {
            PolicyKind::TwoLevel => benefit_ms,
            _ => {
                let (per_query, marginal) = self
                    .backend
                    .estimate_fetch_ms(plan.target.gb, &[plan.target.chunk])
                    .unwrap_or((0.0, benefit_ms));
                per_query + marginal
            }
        };
        let (_, update_ns) = self.admit_chunk(plan.target, data, Origin::Computed, benefit);
        metrics.update_ns += update_ns;
    }

    /// Advances the scrub clock by one query's virtual time and runs
    /// proactive scrub passes as the configured interval elapses (a
    /// no-op unless the spill tier was configured with
    /// [`SpillConfig::scrub_interval_ms`]). Scrub costs are charged to
    /// the *session* spill accounting only — background maintenance no
    /// single query owns, and strictly outside [`QueryMetrics`]. Driven
    /// by deterministic virtual time, the schedule is bit-identical
    /// across runs and thread counts.
    fn maybe_scrub(&mut self, query_ms: f64) {
        let Some(interval) = self.spill.as_ref().and_then(|s| s.scrub_interval_ms()) else {
            return;
        };
        self.scrub_accum_ms += query_ms;
        while self.scrub_accum_ms >= interval {
            self.scrub_accum_ms -= interval;
            let report = self.spill.as_mut().expect("spill attached").scrub();
            self.spill_session.merge(&SpillMetrics {
                spill_corrupt: report.corrupt,
                spill_quarantined: report.quarantined,
                spill_retries: report.retries,
                scrub_passes: 1,
                spill_virtual_ms: report.virtual_ms,
                ..SpillMetrics::default()
            });
            if let Some(tracer) = &self.tracer {
                tracer.emit(&Event::ScrubPass {
                    scanned: report.scanned,
                    corrupt: report.corrupt,
                    quarantined: report.quarantined,
                    virtual_ms: report.virtual_ms,
                });
            }
        }
        self.fold_corrupt_purged();
    }

    /// The backend-outage fallback: serves each missing chunk *degraded*
    /// by computing it from cached data at any cost — an exhaustive ESM
    /// search, ignoring the configured strategy's budget and the §5.2
    /// arbitration, because the backend alternative no longer exists.
    ///
    /// All-or-nothing: every chunk is planned before anything mutates, so
    /// a query that cannot be fully served fails with
    /// [`CacheError::BackendUnavailable`] leaving the cache untouched.
    /// Served chunks are admitted like any computed chunk and reported via
    /// [`Event::DegradedServe`].
    fn serve_degraded(
        &mut self,
        query: &Query,
        missing: &[u64],
        result: &mut ChunkData,
        metrics: &mut QueryMetrics,
    ) -> Result<(), CacheError> {
        let mut plans = Vec::with_capacity(missing.len());
        let mut unservable = Vec::new();
        for &chunk in missing {
            let key = ChunkKey::new(query.gb, chunk);
            let mut stats = LookupStats::default();
            match esm(&self.cache, &self.grid, key, &mut stats) {
                Some(plan) => plans.push(plan),
                None => unservable.push(chunk),
            }
            metrics.lookup_nodes += stats.nodes_visited;
        }
        if !unservable.is_empty() {
            return Err(CacheError::BackendUnavailable {
                gb: query.gb,
                chunks: unservable,
            });
        }
        self.pin_leaves(&plans);
        for plan in &plans {
            metrics.chunks_degraded += 1;
            self.compute_and_admit(plan, result, metrics, |tuples| Event::DegradedServe {
                gb: plan.target.gb.0,
                chunk: plan.target.chunk,
                leaves: plan.leaves.len() as u64,
                tuples,
            });
        }
        self.unpin_leaves(&plans);
        Ok(())
    }

    /// Executes one [`QueryRequest`] through the active cache: one probe,
    /// one apply. The request's routing/consistency hints are cluster-tier
    /// concerns and are ignored here (a single manager *is* its only
    /// node); the tenant tag feeds the obs layer's per-tenant breakdowns.
    ///
    /// The returned [`ExecOutcome`] carries the result data and metrics
    /// plus an all-zero [`crate::RemoteMetrics`] and this request's
    /// [`SpillMetrics`] (all-zero without an attached spill tier).
    pub fn run(&mut self, request: &QueryRequest) -> Result<ExecOutcome, CacheError> {
        let probe = self.probe_as(&request.query, request.tenant);
        let result = self.apply(&request.query, probe)?;
        let spill = self.spill_query;
        let mut out = ExecOutcome::from(result);
        out.critical_path_ms += spill.spill_virtual_ms;
        out.spill = spill;
        Ok(out)
    }

    /// Executes a batch of [`QueryRequest`]s: the probe phase runs for all
    /// requests concurrently across [`ManagerConfig::threads`] scoped
    /// threads, then the apply phase runs sequentially in submission order
    /// (the cache is single-writer, like the paper's middle tier).
    ///
    /// Probes invalidated by an earlier request's admissions/evictions are
    /// transparently re-probed during their apply, so the returned
    /// outcomes, the final cache contents and every virtual-time metric
    /// are **identical** to running [`CacheManager::run`] over the
    /// requests in a loop — batching changes wall-clock time only.
    pub fn run_batch(&mut self, requests: &[QueryRequest]) -> Result<Vec<ExecOutcome>, CacheError> {
        let tagged: Vec<(u32, &Query)> = requests.iter().map(|r| (r.tenant, &r.query)).collect();
        Ok(self
            .execute_batch_inner(&tagged)?
            .into_iter()
            .map(|(result, spill)| {
                let mut out = ExecOutcome::from(result);
                out.critical_path_ms += spill.spill_virtual_ms;
                out.spill = spill;
                out
            })
            .collect())
    }

    /// Threaded probe + sequential apply; each result is paired with its
    /// query's spill accounting (all zeros without a spill tier).
    fn execute_batch_inner(
        &mut self,
        queries: &[(u32, &Query)],
    ) -> Result<Vec<(QueryResult, SpillMetrics)>, CacheError> {
        let threads = self.config.threads.clamp(1, queries.len().max(1));
        let probes: Vec<QueryProbe> = if threads <= 1 {
            queries
                .iter()
                .map(|&(tenant, q)| self.probe_as(q, tenant))
                .collect()
        } else {
            let this: &CacheManager = self;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            queries
                                .iter()
                                .enumerate()
                                .skip(t)
                                .step_by(threads)
                                .map(|(i, &(tenant, q))| (i, this.probe_as(q, tenant)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let mut slots: Vec<Option<QueryProbe>> = queries.iter().map(|_| None).collect();
                for handle in handles {
                    for (i, probe) in handle.join().expect("probe thread panicked") {
                        slots[i] = Some(probe);
                    }
                }
                slots
                    .into_iter()
                    .map(|p| p.expect("every query probed"))
                    .collect()
            })
        };
        queries
            .iter()
            .zip(probes)
            .map(|(&(_, query), probe)| {
                let result = self.apply(query, probe)?;
                Ok((result, self.spill_query))
            })
            .collect()
    }

    /// Executes a semantic value-range query: validates its arity against
    /// the schema, normalizes it to chunks, runs it through the active
    /// cache, and filters the result cells to the exact ranges.
    pub fn execute_values(&mut self, query: &crate::ValueQuery) -> Result<QueryResult, CacheError> {
        let n_dims = self.grid.num_dims();
        if query.ranges.len() != n_dims {
            return Err(CacheError::Schema(SchemaError::BadLevelArity {
                expected: n_dims,
                got: query.ranges.len(),
            }));
        }
        let chunk_query = query.to_chunk_query(&self.grid.clone());
        let result = self.run(&QueryRequest::new(chunk_query))?;
        Ok(QueryResult {
            data: query.filter(&result.data),
            metrics: result.metrics,
        })
    }

    fn finish_metrics(
        &mut self,
        metrics: &mut QueryMetrics,
        trace_id: u64,
        gb: GroupById,
        tenant: u32,
    ) {
        metrics.lookup_virtual_ms =
            metrics.lookup_nodes as f64 * self.config.lookup_per_node_us / 1000.0;
        metrics.update_virtual_ms =
            metrics.table_writes as f64 * self.config.update_per_write_us / 1000.0;
        self.session.record(metrics);
        if let Some(tracer) = &self.tracer {
            tracer.emit(&Event::QueryDone {
                query: trace_id,
                tenant,
                gb: gb.0,
                complete_hit: metrics.complete_hit,
                chunks_hit: metrics.chunks_hit as u64,
                chunks_computed: metrics.chunks_computed as u64,
                chunks_missed: metrics.chunks_missed as u64,
                chunks_demoted: metrics.chunks_demoted as u64,
                chunks_degraded: metrics.chunks_degraded as u64,
                tuples_aggregated: metrics.tuples_aggregated,
                backend_tuples: metrics.backend_tuples,
                lookup_nodes: metrics.lookup_nodes,
                table_writes: metrics.table_writes,
                backend_virtual_ms: metrics.backend_virtual_ms,
                agg_virtual_ms: metrics.agg_virtual_ms,
                lookup_virtual_ms: metrics.lookup_virtual_ms,
                update_virtual_ms: metrics.update_virtual_ms,
                total_virtual_ms: metrics.total_ms(),
                probe_ns: metrics.probe_ns,
                apply_ns: metrics.apply_ns,
                agg_ns: metrics.agg_ns,
                lookup_ns: metrics.lookup_ns,
                update_ns: metrics.update_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_obs::RecordingTracer;
    use aggcache_schema::{Dimension, Schema};
    use aggcache_store::{
        AggFn, Backend, BackendCostModel, DiskFaultProfile, FactTable, FaultInjectingBackend,
        FaultProfile, RetryPolicy, RetryingBackend,
    };

    fn make_backend() -> Backend {
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
            AggFn::Sum,
            BackendCostModel::default(),
        )
    }

    fn manager(strategy: Strategy) -> CacheManager {
        CacheManager::builder()
            .strategy(strategy)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .build(make_backend())
            .unwrap()
    }

    fn oracle(mgr: &CacheManager, q: &Query) -> ChunkData {
        let mut all = ChunkData::new(mgr.grid().num_dims());
        for (_, data) in mgr.backend().fetch(q.gb, &q.chunks).unwrap().chunks {
            all.append(&data);
        }
        all.sort_by_coords();
        all
    }

    fn run_and_check(mgr: &mut CacheManager, q: &Query) -> QueryMetrics {
        let expected = oracle(mgr, q);
        let mut r = mgr.run(&(q).into()).unwrap();
        r.data.sort_by_coords();
        assert_eq!(r.data, expected, "wrong answer for {q:?}");
        r.metrics
    }

    #[test]
    fn first_query_misses_second_hits() {
        for strategy in [
            Strategy::NoAggregation,
            Strategy::Esm,
            Strategy::Vcm,
            Strategy::Vcmc,
        ] {
            let mut mgr = manager(strategy);
            let base = mgr.grid().schema().lattice().base();
            let q = Query::new(base, vec![0, 1, 2]);
            let m1 = run_and_check(&mut mgr, &q);
            assert_eq!(m1.chunks_missed, 3);
            assert!(!m1.complete_hit);
            let m2 = run_and_check(&mut mgr, &q);
            assert_eq!(m2.chunks_hit, 3);
            assert!(m2.complete_hit);
            assert_eq!(m2.backend_virtual_ms, 0.0);
        }
    }

    #[test]
    fn rollup_after_base_is_complete_hit_with_aggregation() {
        for strategy in [Strategy::Esm, Strategy::Vcm, Strategy::Vcmc] {
            let mut mgr = manager(strategy);
            let lattice = mgr.grid().schema().lattice().clone();
            let base = lattice.base();
            let top = lattice.top();
            let grid = mgr.grid().clone();
            run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
            let m = run_and_check(&mut mgr, &Query::full_group_by(&grid, top));
            assert!(m.complete_hit, "{strategy:?}");
            assert_eq!(m.chunks_computed, 1);
            assert!(m.tuples_aggregated > 0);
        }
    }

    #[test]
    fn no_aggregation_goes_to_backend_for_rollups() {
        let mut mgr = manager(Strategy::NoAggregation);
        let lattice = mgr.grid().schema().lattice().clone();
        let grid = mgr.grid().clone();
        run_and_check(&mut mgr, &Query::full_group_by(&grid, lattice.base()));
        let m = run_and_check(&mut mgr, &Query::full_group_by(&grid, lattice.top()));
        assert!(!m.complete_hit);
        assert_eq!(m.chunks_missed, 1);
    }

    #[test]
    fn computed_chunks_are_cached_for_reuse() {
        let mut mgr = manager(Strategy::Vcmc);
        let lattice = mgr.grid().schema().lattice().clone();
        let grid = mgr.grid().clone();
        run_and_check(&mut mgr, &Query::full_group_by(&grid, lattice.base()));
        let top_q = Query::full_group_by(&grid, lattice.top());
        let m1 = run_and_check(&mut mgr, &top_q);
        assert_eq!(m1.chunks_computed, 1);
        // Second time: the computed chunk is a direct hit.
        let m2 = run_and_check(&mut mgr, &top_q);
        assert_eq!(m2.chunks_hit, 1);
        assert_eq!(m2.chunks_computed, 0);
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
    fn session_metrics_accumulate() {
        let mut mgr = manager(Strategy::Vcm);
        let base = mgr.grid().schema().lattice().base();
        let _ = mgr.run(&Query::new(base, vec![0]).into()).unwrap();
        let _ = mgr.run(&Query::new(base, vec![0]).into()).unwrap();
        assert_eq!(mgr.session().queries, 2);
        assert_eq!(mgr.session().complete_hits, 1);
        mgr.reset_session();
        assert_eq!(mgr.session().queries, 0);
    }

    #[test]
    fn optimizer_demotes_expensive_plans_to_backend() {
        // Backend with a materialized aggregate at the exact query level:
        // the backend answers the top from 1 tuple, while the cache's best
        // plan aggregates the whole cached base. With an expensive
        // in-cache rate, the optimizer must go to the backend.
        let plain = make_backend();
        let lattice = plain.grid().schema().lattice().clone();
        let top = lattice.top();
        let backend = Backend::new(
            plain.fact().clone(),
            aggcache_store::AggFn::Sum,
            aggcache_store::BackendCostModel {
                per_query_ms: 0.1,
                per_tuple_us: 1.0,
                per_result_tuple_us: 0.0,
            },
        )
        .with_materialized(&[top])
        .unwrap();
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .cache_per_tuple_us(50.0) // busy middle tier
            .optimizer(true)
            .build(backend)
            .unwrap();
        let grid = mgr.grid().clone();
        mgr.run(&Query::full_group_by(&grid, lattice.base()).into())
            .unwrap();
        let m = mgr
            .run(&Query::full_group_by(&grid, top).into())
            .unwrap()
            .metrics;
        assert_eq!(m.chunks_demoted, 1, "plan should be demoted");
        assert_eq!(m.chunks_missed, 1);
        assert!(!m.complete_hit);
        // With the optimizer off, the same chunk is computed in cache.
        let plain2 = make_backend();
        let backend2 = Backend::new(
            plain2.fact().clone(),
            aggcache_store::AggFn::Sum,
            aggcache_store::BackendCostModel::default(),
        )
        .with_materialized(&[top])
        .unwrap();
        let mut mgr2 = CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .cache_per_tuple_us(50.0)
            .optimizer(false)
            .build(backend2)
            .unwrap();
        mgr2.run(&Query::full_group_by(&grid, lattice.base()).into())
            .unwrap();
        let m2 = mgr2
            .run(&Query::full_group_by(&grid, top).into())
            .unwrap()
            .metrics;
        assert_eq!(m2.chunks_demoted, 0);
        assert_eq!(m2.chunks_computed, 1);
        assert!(m2.complete_hit);
    }

    #[test]
    fn optimizer_keeps_cheap_plans_in_cache() {
        // Default rates: in-cache aggregation is ~8x cheaper, so nothing
        // is demoted and results still match the oracle.
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .optimizer(true)
            .build(make_backend())
            .unwrap();
        let lattice = mgr.grid().schema().lattice().clone();
        let grid = mgr.grid().clone();
        run_and_check(&mut mgr, &Query::full_group_by(&grid, lattice.base()));
        let m = run_and_check(&mut mgr, &Query::full_group_by(&grid, lattice.top()));
        assert_eq!(m.chunks_demoted, 0);
        assert!(m.complete_hit);
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
    fn sparse_tables_answer_identically() {
        let mk = |kind| {
            CacheManager::builder()
                .strategy(Strategy::Vcmc)
                .policy(PolicyKind::TwoLevel)
                .cache_bytes(usize::MAX >> 1)
                .table_kind(kind)
                .build(make_backend())
                .unwrap()
        };
        let mut dense = mk(crate::TableKind::Dense);
        let mut sparse = mk(crate::TableKind::Sparse);
        let lattice = dense.grid().schema().lattice().clone();
        for gb in lattice.iter_ids() {
            let q = Query::new(gb, vec![0]);
            let a = dense.run(&(&q).into()).unwrap();
            let b = sparse.run(&(&q).into()).unwrap();
            assert_eq!(a.data, b.data);
            assert_eq!(a.metrics.complete_hit, b.metrics.complete_hit);
        }
        // Table contents agree exactly.
        dense
            .counts()
            .unwrap()
            .assert_same(sparse.counts().unwrap());
    }

    #[test]
    fn execute_batch_matches_sequential_loop() {
        for threads in [1usize, 2, 8] {
            for strategy in [
                Strategy::NoAggregation,
                Strategy::Esm,
                Strategy::Vcm,
                Strategy::Vcmc,
            ] {
                let mk = || {
                    CacheManager::builder()
                        .strategy(strategy)
                        .policy(PolicyKind::TwoLevel)
                        .cache_bytes(usize::MAX >> 1)
                        .threads(threads)
                        .build(make_backend())
                        .unwrap()
                };
                let mut seq = mk();
                let mut bat = mk();
                let lattice = seq.grid().schema().lattice().clone();
                let grid = seq.grid().clone();
                let queries: Vec<Query> = lattice
                    .iter_ids()
                    .map(|gb| Query::full_group_by(&grid, gb))
                    .collect();
                let seq_results: Vec<ExecOutcome> = queries
                    .iter()
                    .map(|q| seq.run(&(q).into()).unwrap())
                    .collect();
                let bat_results = bat.run_batch(&QueryRequest::batch(&queries)).unwrap();
                assert_eq!(seq_results.len(), bat_results.len());
                for (a, b) in seq_results.iter().zip(&bat_results) {
                    assert_eq!(a.data, b.data, "{strategy:?} threads={threads}");
                    assert_eq!(a.metrics.lookup_nodes, b.metrics.lookup_nodes);
                    assert_eq!(a.metrics.complete_hit, b.metrics.complete_hit);
                    assert_eq!(a.metrics.table_writes, b.metrics.table_writes);
                }
                let mut ka: Vec<ChunkKey> = seq.cache().keys().collect();
                let mut kb: Vec<ChunkKey> = bat.cache().keys().collect();
                ka.sort_unstable();
                kb.sort_unstable();
                assert_eq!(ka, kb, "cache contents diverged");
            }
        }
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

    #[test]
    fn stale_probe_is_reprobed_on_apply() {
        let mut mgr = manager(Strategy::Vcm);
        let base = mgr.grid().schema().lattice().base();
        let q = Query::new(base, vec![0, 1]);
        let stale = mgr.probe(&q);
        // Mutate between probe and apply: the probe's version is now old.
        mgr.run(&Query::new(base, vec![0]).into()).unwrap();
        assert_ne!(stale.version(), mgr.version());
        let r = mgr.apply(&q, stale).unwrap();
        // A fresh probe sees chunk 0 cached: exactly one miss, not two.
        assert_eq!(r.metrics.chunks_missed, 1);
        assert_eq!(r.metrics.chunks_hit, 1);
    }

    #[test]
    fn empty_chunk_results_are_negative_cached() {
        let schema = Arc::new(Schema::new(vec![Dimension::flat("x", 4).unwrap()], "m").unwrap());
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 4]]).unwrap());
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(1);
        cells.push(&[0], 5.0);
        let backend = Backend::new(
            FactTable::load(grid, base, cells),
            AggFn::Sum,
            BackendCostModel::default(),
        );
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(10_000)
            .build(backend)
            .unwrap();
        // Chunk 3 is empty; first query fetches it, second hits the cached
        // empty chunk.
        let m1 = mgr.run(&Query::new(base, vec![3]).into()).unwrap().metrics;
        assert_eq!(m1.chunks_missed, 1);
        let m2 = mgr.run(&Query::new(base, vec![3]).into()).unwrap().metrics;
        assert!(m2.complete_hit);
        assert_eq!(m2.chunks_hit, 1);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert_eq!(
            CacheManager::builder().build(make_backend()).unwrap_err(),
            ConfigError::MissingCacheBudget
        );
        assert_eq!(
            CacheManager::builder()
                .cache_bytes(0)
                .build(make_backend())
                .unwrap_err(),
            ConfigError::ZeroCacheBudget
        );
        assert_eq!(
            CacheManager::builder()
                .cache_bytes(1000)
                .threads(0)
                .build(make_backend())
                .unwrap_err(),
            ConfigError::ZeroThreads
        );
        assert_eq!(
            CacheManager::builder()
                .cache_bytes(1000)
                .strategy(Strategy::Esmc {
                    node_budget: Some(0)
                })
                .build(make_backend())
                .unwrap_err(),
            ConfigError::ZeroNodeBudget
        );
        let err = CacheManager::builder()
            .cache_bytes(1000)
            .cache_per_tuple_us(f64::NAN)
            .build(make_backend())
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::InvalidRate {
                name: "cache_per_tuple_us",
                ..
            }
        ));
        // Unbounded ESMC is fine.
        assert!(CacheManager::builder()
            .cache_bytes(1000)
            .strategy(Strategy::Esmc { node_budget: None })
            .build(make_backend())
            .is_ok());
    }

    /// A manager over a permanently-down backend (every fetch fails, with
    /// `attempts` retry attempts before giving up).
    fn down_manager(strategy: Strategy, attempts: u32) -> CacheManager {
        CacheManager::builder()
            .strategy(strategy)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .build(
                RetryingBackend::new(
                    FaultInjectingBackend::new(
                        make_backend(),
                        FaultProfile::fail_then_recover(u64::MAX),
                    )
                    .unwrap(),
                    RetryPolicy {
                        max_attempts: attempts,
                        ..RetryPolicy::default()
                    },
                )
                .unwrap(),
            )
            .unwrap()
    }

    /// Seeds the whole base level straight into the cache (bypassing the
    /// down backend).
    fn seed_base(mgr: &mut CacheManager) {
        let base = mgr.grid().schema().lattice().base();
        for (chunk, data) in make_backend().fetch_group_by(base).unwrap().chunks {
            mgr.insert_chunk(ChunkKey::new(base, chunk), data, Origin::Backend, 1.0);
        }
    }

    #[test]
    fn degraded_serve_answers_from_cache_when_backend_is_down() {
        // NoAggregation treats every rollup as a miss, so the top query
        // must go to the (down) backend — and is then served degraded by
        // the at-any-cost fallback from the seeded base.
        let mut mgr = down_manager(Strategy::NoAggregation, 2);
        seed_base(&mut mgr);
        let grid = mgr.grid().clone();
        let top = grid.schema().lattice().top();
        // Oracle from a healthy twin backend (the manager's own is down).
        let mut expected = ChunkData::new(grid.num_dims());
        for (_, data) in make_backend().fetch_group_by(top).unwrap().chunks {
            expected.append(&data);
        }
        expected.sort_by_coords();
        let mut r = mgr.run(&Query::full_group_by(&grid, top).into()).unwrap();
        r.data.sort_by_coords();
        assert_eq!(r.data, expected, "degraded answer is still correct");
        assert_eq!(r.metrics.chunks_degraded, 1);
        assert_eq!(r.metrics.chunks_missed, 1);
        assert!(!r.metrics.complete_hit, "degraded serve is not a hit");
        assert!(
            r.metrics.backend_virtual_ms > 0.0,
            "the failed attempts' virtual time is charged"
        );
        assert_eq!(mgr.session().chunks_degraded, 1);
        assert_eq!(mgr.session().degraded_queries, 1);
        // The degraded chunk was admitted: the next query is a direct hit
        // and no longer touches the backend.
        let m2 = mgr
            .run(&Query::full_group_by(&grid, top).into())
            .unwrap()
            .metrics;
        assert!(m2.complete_hit);
        assert_eq!(m2.chunks_hit, 1);
    }

    #[test]
    fn cold_cache_outage_returns_backend_unavailable() {
        let mut mgr = down_manager(Strategy::Vcmc, 3);
        let base = mgr.grid().schema().lattice().base();
        match mgr.run(&Query::new(base, vec![0, 1]).into()).unwrap_err() {
            CacheError::BackendUnavailable { gb, chunks } => {
                assert_eq!(gb, base);
                assert_eq!(chunks, vec![0, 1]);
            }
            other => panic!("expected BackendUnavailable, got {other:?}"),
        }
        // Nothing was admitted by the failed query.
        assert_eq!(mgr.cache().keys().count(), 0);
    }

    #[test]
    fn degradation_emits_fetch_failed_and_degraded_serve_events() {
        let tracer = Arc::new(RecordingTracer::new());
        let mut mgr = down_manager(Strategy::NoAggregation, 2);
        mgr.set_tracer(Some(tracer.clone()));
        seed_base(&mut mgr);
        let grid = mgr.grid().clone();
        let top = grid.schema().lattice().top();
        mgr.run(&Query::full_group_by(&grid, top).into()).unwrap();
        let events = tracer.take();
        let kinds: Vec<&'static str> = events.iter().map(|e| e.kind()).collect();
        for expected in ["fetch_retry", "fetch_failed", "degraded_serve"] {
            assert!(kinds.contains(&expected), "missing {expected}: {kinds:?}");
        }
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::FetchFailed { attempts: 2, .. })));
    }

    #[test]
    fn tracer_observes_probe_plan_and_query_events() {
        let tracer = Arc::new(RecordingTracer::new());
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .build(make_backend())
            .unwrap();
        let grid = mgr.grid().clone();
        let lattice = grid.schema().lattice().clone();
        mgr.run(&Query::full_group_by(&grid, lattice.base()).into())
            .unwrap();
        mgr.run(&Query::full_group_by(&grid, lattice.top()).into())
            .unwrap();
        let events = tracer.take();
        let kinds: Vec<&'static str> = events.iter().map(|e| e.kind()).collect();
        for expected in [
            "probe_start",
            "chunk_lookup",
            "probe_end",
            "backend_fetch",
            "cache_insert",
            "cost_update",
            "plan_chosen",
            "query_done",
        ] {
            assert!(kinds.contains(&expected), "missing {expected}: {kinds:?}");
        }
        // The second query's rollup is a computable plan over the base.
        let plan = events
            .iter()
            .find_map(|e| match e {
                Event::PlanChosen {
                    leaves,
                    predicted_tuples,
                    actual_tuples,
                    ..
                } => Some((*leaves, *predicted_tuples, *actual_tuples)),
                _ => None,
            })
            .expect("plan_chosen emitted");
        assert!(plan.0 > 0);
        assert_eq!(plan.1, plan.2, "VCMC cost prediction is exact");
        // Virtual metrics in query_done stay consistent with the sum.
        for e in &events {
            if let Event::QueryDone {
                backend_virtual_ms,
                agg_virtual_ms,
                lookup_virtual_ms,
                update_virtual_ms,
                total_virtual_ms,
                ..
            } = e
            {
                let sum =
                    backend_virtual_ms + agg_virtual_ms + lookup_virtual_ms + update_virtual_ms;
                assert_eq!(sum.to_bits(), total_virtual_ms.to_bits());
            }
        }
    }

    #[test]
    fn tracing_does_not_change_results_or_virtual_time() {
        let mk = |tracer: Option<Arc<dyn Tracer>>| {
            let mut builder = CacheManager::builder()
                .strategy(Strategy::Vcmc)
                .policy(PolicyKind::TwoLevel)
                .cache_bytes(2000);
            if let Some(t) = tracer {
                builder = builder.tracer(t);
            }
            builder.build(make_backend()).unwrap()
        };
        let mut plain = mk(None);
        let mut traced = mk(Some(Arc::new(RecordingTracer::new())));
        let grid = plain.grid().clone();
        let lattice = grid.schema().lattice().clone();
        let queries: Vec<Query> = lattice
            .iter_ids()
            .map(|gb| Query::full_group_by(&grid, gb))
            .collect();
        for q in &queries {
            let a = plain.run(&(q).into()).unwrap();
            let b = traced.run(&(q).into()).unwrap();
            assert_eq!(a.data, b.data);
            assert_eq!(
                a.metrics.total_ms().to_bits(),
                b.metrics.total_ms().to_bits()
            );
            assert_eq!(a.metrics.table_writes, b.metrics.table_writes);
        }
        assert_eq!(
            plain.session().total_ms.to_bits(),
            traced.session().total_ms.to_bits()
        );
    }

    #[test]
    fn execute_values_rejects_bad_arity() {
        let mut mgr = manager(Strategy::Vcmc);
        let base = mgr.grid().schema().lattice().base();
        let bad = crate::ValueQuery::new(base, vec![(0, 1)]); // grid has 2 dims
        match mgr.execute_values(&bad) {
            Err(CacheError::Schema(SchemaError::BadLevelArity { expected, got })) => {
                assert_eq!((expected, got), (2, 1));
            }
            other => panic!("expected BadLevelArity, got {other:?}"),
        }
    }

    fn spill_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aggcache-mgr-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spill_manager(tag: &str, cache_bytes: usize) -> CacheManager {
        CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(cache_bytes)
            .spill(SpillConfig::new(spill_dir(tag)))
            .build(make_backend())
            .unwrap()
    }

    /// Asserts the incrementally maintained count table equals one rebuilt
    /// from scratch over the current RAM population (Property 1).
    fn assert_counts_consistent(mgr: &CacheManager) {
        let rebuilt = CountTable::rebuild_from(mgr.grid().clone(), |k| mgr.cache().contains(&k));
        rebuilt.assert_same(mgr.counts().expect("VCM strategy maintains counts"));
    }

    #[test]
    fn eviction_demotes_to_spill_and_miss_promotes_from_disk() {
        // Budget of exactly two 80-byte base chunks.
        let mut mgr = spill_manager("demote", 160);
        let base = mgr.grid().schema().lattice().base();
        for chunk in 0..3 {
            run_and_check(&mut mgr, &Query::new(base, vec![chunk]));
        }
        // Chunk 0 was evicted to make room for chunk 2 — demoted, not lost.
        let store = mgr.spill_store().unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.contains(ChunkKey::new(base, 0)));
        assert_eq!(mgr.session_spill().spill_writes, 1);
        assert_counts_consistent(&mgr);

        // Re-query the demoted chunk: served from disk, not the backend.
        let q = Query::new(base, vec![0]);
        let expected = oracle(&mgr, &q);
        let mut out = mgr.run(&(&q).into()).unwrap();
        out.data.sort_by_coords();
        assert_eq!(out.data, expected);
        assert_eq!(out.metrics.backend_virtual_ms, 0.0);
        assert_eq!(
            out.metrics.chunks_missed, 1,
            "spill serve is still a RAM miss"
        );
        assert!(!out.metrics.complete_hit);
        assert_eq!(out.spill.spill_reads, 1);
        assert!(out.spill.spill_virtual_ms > 0.0);
        // The RAM cache is full of backend-tier chunks, which a spilled-tier
        // promotion may not displace — the promotion is refused but the
        // query is still answered from the read bytes.
        assert_eq!(out.spill.spill_promotes, 0);
        // Spill cost stays outside QueryMetrics; the end-to-end total adds it.
        assert!(
            (out.total_virtual_ms() - out.metrics.total_ms() - out.spill.spill_virtual_ms).abs()
                < 1e-12
        );
        assert_counts_consistent(&mgr);
    }

    #[test]
    fn promotion_is_admitted_when_room_exists() {
        let mut mgr = spill_manager("promote", usize::MAX >> 1);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        mgr.checkpoint().unwrap();
        mgr.evict_chunk(ChunkKey::new(base, 0));
        assert_counts_consistent(&mgr);

        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert_eq!(m.backend_virtual_ms, 0.0);
        assert_eq!(mgr.session_spill().spill_reads, 1);
        assert_eq!(mgr.session_spill().spill_promotes, 1);
        assert_counts_consistent(&mgr);
        // Promoted chunk is now RAM-resident: the next query is a pure hit.
        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(m.complete_hit);
        assert_eq!(mgr.session_spill().spill_reads, 1, "no second disk read");
    }

    #[test]
    fn warm_start_matches_never_restarted_oracle() {
        let dir = spill_dir("warm");
        let grid;
        let top_q;
        // Session A: populate (fetched + computed chunks), checkpoint.
        let mut a = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .spill(SpillConfig::new(dir.clone()))
            .build(make_backend())
            .unwrap();
        {
            grid = a.grid().clone();
            let lattice = grid.schema().lattice().clone();
            run_and_check(&mut a, &Query::full_group_by(&grid, lattice.base()));
            top_q = Query::full_group_by(&grid, lattice.top());
            run_and_check(&mut a, &top_q);
            let report = a.checkpoint().unwrap();
            assert!(report.chunks > 0);
            assert!(report.virtual_ms > 0.0);
        }
        // Session B: a fresh manager over the same directory warm-starts.
        let mut b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .spill(SpillConfig::new(dir))
            .build(make_backend())
            .unwrap();
        assert!(b.session_spill().spill_reads > 0, "warm start read chunks");
        // Same RAM population, bit-identical count tables.
        assert_eq!(
            b.cache().entries_sorted().len(),
            a.cache().entries_sorted().len()
        );
        b.counts().unwrap().assert_same(a.counts().unwrap());
        assert_counts_consistent(&b);
        // Identical answers with identical local metrics: a complete hit
        // with zero backend cost, same as the never-restarted session.
        let mut ra = a.run(&(&top_q).into()).unwrap();
        let mut rb = b.run(&(&top_q).into()).unwrap();
        ra.data.sort_by_coords();
        rb.data.sort_by_coords();
        assert_eq!(ra.data, rb.data);
        assert!(rb.metrics.complete_hit);
        assert_eq!(
            ra.metrics.total_ms().to_bits(),
            rb.metrics.total_ms().to_bits()
        );
    }

    #[test]
    fn attach_spill_reports_warm_start() {
        let dir = spill_dir("report");
        let mut a = spill_manager_over(dir.clone(), 160);
        let base = a.grid().schema().lattice().base();
        run_and_check(&mut a, &Query::new(base, vec![0]));
        a.checkpoint().unwrap();
        drop(a);
        let mut b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .build(make_backend())
            .unwrap();
        let report = b
            .attach_spill(SpillConfig::new(dir))
            .unwrap()
            .expect("checkpoint present");
        assert_eq!(report.chunks, 1);
        assert!(report.bytes > 0);
        assert!(report.virtual_ms > 0.0);
        let m = run_and_check(&mut b, &Query::new(base, vec![0]));
        assert!(m.complete_hit);
    }

    fn spill_manager_over(dir: std::path::PathBuf, cache_bytes: usize) -> CacheManager {
        CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(cache_bytes)
            .spill(SpillConfig::new(dir))
            .build(make_backend())
            .unwrap()
    }

    /// The PR 8 bugfix regression: a demotion whose disk write fails must
    /// degrade to a plain eviction — `on_evict` still fires, so the count
    /// tables stay consistent with the RAM population, and the chunk is
    /// simply re-fetched from the backend next time.
    #[test]
    fn failed_spill_write_falls_back_to_plain_eviction() {
        let mut mgr = spill_manager("failwrite", 160);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        run_and_check(&mut mgr, &Query::new(base, vec![1]));
        mgr.spill_store_mut().unwrap().fail_next_writes(1);
        // Evicts chunk 0; its demotion write fails.
        run_and_check(&mut mgr, &Query::new(base, vec![2]));
        let store = mgr.spill_store().unwrap();
        assert_eq!(store.len(), 0, "failed write must not land in the index");
        assert!(!mgr.cache().contains(&ChunkKey::new(base, 0)));
        assert_eq!(mgr.session_spill().spill_writes, 0);
        // The fix: the count table wound down despite the failed demotion.
        assert_counts_consistent(&mgr);
        // And the chunk is served by the backend again, correctly.
        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(m.backend_virtual_ms > 0.0);
        assert_counts_consistent(&mgr);
    }

    #[test]
    fn spill_events_reach_the_tracer() {
        let tracer = Arc::new(RecordingTracer::new());
        let dir = spill_dir("events");
        let mut a = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .tracer(tracer.clone())
            .spill(SpillConfig::new(dir.clone()))
            .build(make_backend())
            .unwrap();
        let base = a.grid().schema().lattice().base();
        for chunk in 0..3 {
            let q = Query::new(base, vec![chunk]);
            let _ = a.run(&(&q).into()).unwrap();
        }
        let _ = a.run(&(&Query::new(base, vec![0])).into()).unwrap();
        a.checkpoint().unwrap();
        let kinds: Vec<&'static str> = tracer.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"spill_write"));
        assert!(kinds.contains(&"spill_read"));
        assert!(kinds.contains(&"spill_promote"));
        drop(a);
        // A traced warm start emits the warm_start event.
        let tracer2 = Arc::new(RecordingTracer::new());
        let _b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .tracer(tracer2.clone())
            .spill(SpillConfig::new(dir))
            .build(make_backend())
            .unwrap();
        let kinds: Vec<&'static str> = tracer2.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"warm_start"));
    }

    /// Flips one byte in the spill file of `key` under `dir`, simulating
    /// at-rest corruption between sessions.
    fn corrupt_chunk_file(dir: &std::path::Path, key: ChunkKey) {
        let path = dir.join(format!("{:016x}.chunk", key.pack()));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
    }

    /// The tentpole's recovery guarantee, end to end: a chunk file
    /// corrupted at rest between sessions must not fail the warm start
    /// (pre-PR it surfaced as a `ConfigError::Spill` build error) and must
    /// never corrupt an answer — the damaged record is quarantined and the
    /// chunk re-served through the normal backend miss path.
    #[test]
    fn corrupted_checkpoint_record_self_heals_on_warm_start() {
        let dir = spill_dir("heal");
        let base;
        {
            let mut a = spill_manager_over(dir.clone(), usize::MAX >> 1);
            base = a.grid().schema().lattice().base();
            run_and_check(&mut a, &Query::new(base, vec![0, 1]));
            a.checkpoint().unwrap();
        }
        corrupt_chunk_file(&dir, ChunkKey::new(base, 0));
        let tracer = Arc::new(RecordingTracer::new());
        let mut b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .spill(SpillConfig::new(dir))
            .build(make_backend())
            .unwrap();
        // The damaged record was quarantined during recovery, the intact
        // one warm-started.
        assert_eq!(b.session_spill().spill_corrupt, 1);
        assert_eq!(b.session_spill().spill_quarantined, 1);
        assert!(b.cache().contains(&ChunkKey::new(base, 1)));
        assert!(!b.cache().contains(&ChunkKey::new(base, 0)));
        assert!(!b.spill_store().unwrap().contains(ChunkKey::new(base, 0)));
        let kinds: Vec<&'static str> = tracer.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"spill_corrupt"));
        assert!(kinds.contains(&"spill_quarantine"));
        assert_counts_consistent(&b);
        // The chunk is re-fetched from the backend, answer vs oracle.
        let m = run_and_check(&mut b, &Query::new(base, vec![0]));
        assert!(m.backend_virtual_ms > 0.0, "served via the miss path");
        assert_counts_consistent(&b);
    }

    /// Corruption discovered at promotion time (after a clean warm start)
    /// quarantines the record and falls through to the backend.
    #[test]
    fn corrupt_promotion_read_falls_back_to_backend() {
        let mut mgr = spill_manager("corruptpromote", usize::MAX >> 1);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        mgr.checkpoint().unwrap();
        mgr.evict_chunk(ChunkKey::new(base, 0));
        corrupt_chunk_file(mgr.spill_store().unwrap().dir(), ChunkKey::new(base, 0));
        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(m.backend_virtual_ms > 0.0, "backend re-fetch, not disk");
        assert_eq!(mgr.session_spill().spill_corrupt, 1);
        assert_eq!(mgr.session_spill().spill_quarantined, 1);
        assert_eq!(mgr.session_spill().spill_reads, 0);
        assert!(!mgr.spill_store().unwrap().contains(ChunkKey::new(base, 0)));
        assert_counts_consistent(&mgr);
    }

    /// A deleted index is scavenged from the data files at attach time and
    /// reported through the obs layer.
    #[test]
    fn missing_index_is_scavenged_and_reported() {
        let dir = spill_dir("scavengemgr");
        let base;
        {
            let mut a = spill_manager_over(dir.clone(), usize::MAX >> 1);
            base = a.grid().schema().lattice().base();
            run_and_check(&mut a, &Query::new(base, vec![0, 1]));
            a.checkpoint().unwrap();
        }
        std::fs::remove_file(dir.join("spill.idx")).unwrap();
        let tracer = Arc::new(RecordingTracer::new());
        let b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .spill(SpillConfig::new(dir))
            .build(make_backend())
            .unwrap();
        assert_eq!(b.session_spill().index_rebuilds, 1);
        assert_eq!(b.spill_store().unwrap().len(), 2);
        let rebuilds: Vec<_> = tracer
            .events()
            .iter()
            .filter(|e| e.kind() == "index_rebuild")
            .cloned()
            .collect();
        assert_eq!(rebuilds.len(), 1);
        match rebuilds[0] {
            Event::IndexRebuild {
                scanned,
                recovered,
                quarantined,
            } => {
                assert_eq!((scanned, recovered, quarantined), (2, 2, 0));
            }
            ref other => panic!("expected IndexRebuild, got {other:?}"),
        }
        // Scavenged records are non-resident: no RAM repopulation happened.
        assert!(!b.cache().contains(&ChunkKey::new(base, 0)));
    }

    /// ENOSPC mid-demotion degrades to the plain-eviction path: counted,
    /// never fatal, count tables stay consistent.
    #[test]
    fn enospc_demotions_degrade_to_plain_evictions() {
        let dir = spill_dir("enospcmgr");
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .spill(SpillConfig::new(dir).fault(DiskFaultProfile {
                enospc_after_bytes: Some(0),
                ..DiskFaultProfile::default()
            }))
            .build(make_backend())
            .unwrap();
        let base = mgr.grid().schema().lattice().base();
        for chunk in 0..3 {
            run_and_check(&mut mgr, &Query::new(base, vec![chunk]));
        }
        assert_eq!(mgr.session_spill().spill_writes, 0);
        assert_eq!(mgr.session_spill().demote_failures, 1);
        assert_eq!(mgr.spill_store().unwrap().len(), 0);
        assert_counts_consistent(&mgr);
    }

    /// The virtual-time scrub scheduler runs a pass once enough query time
    /// accrues, quarantining silently-corrupted records ahead of demand.
    #[test]
    fn scrub_pass_quarantines_ahead_of_demand() {
        let tracer = Arc::new(RecordingTracer::new());
        let dir = spill_dir("scrubmgr");
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .spill(SpillConfig::new(dir).scrub_interval_ms(1.0))
            .build(make_backend())
            .unwrap();
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        mgr.checkpoint().unwrap();
        corrupt_chunk_file(mgr.spill_store().unwrap().dir(), ChunkKey::new(base, 0));
        // Any query accrues far more than 1 virtual ms, firing the scrub.
        run_and_check(&mut mgr, &Query::new(base, vec![1]));
        assert!(mgr.session_spill().scrub_passes >= 1);
        assert_eq!(mgr.session_spill().spill_corrupt, 1);
        assert_eq!(mgr.session_spill().spill_quarantined, 1);
        assert!(!mgr.spill_store().unwrap().contains(ChunkKey::new(base, 0)));
        let kinds: Vec<&'static str> = tracer.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"scrub_pass"));
        // The chunk itself is still RAM-resident (checkpoint does not
        // evict), so answers stay intact; only the dead disk copy is gone.
        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(m.complete_hit);
        assert_counts_consistent(&mgr);
    }

    /// A scrub interval with no corruption present just verifies records:
    /// passes are counted and charged, nothing is quarantined.
    #[test]
    fn clean_scrub_passes_quarantine_nothing() {
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .spill(SpillConfig::new(spill_dir("scrubclean")).scrub_interval_ms(1.0))
            .build(make_backend())
            .unwrap();
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        mgr.checkpoint().unwrap();
        let before = mgr.session_spill().spill_virtual_ms;
        run_and_check(&mut mgr, &Query::new(base, vec![1]));
        assert!(mgr.session_spill().scrub_passes >= 1);
        assert_eq!(mgr.session_spill().spill_quarantined, 0);
        assert_eq!(mgr.spill_store().unwrap().len(), 1);
        assert!(
            mgr.session_spill().spill_virtual_ms > before,
            "scrub reads are charged to SpillMetrics"
        );
    }

    /// A partially failing checkpoint salvages what it can and reports the
    /// casualties.
    #[test]
    fn checkpoint_reports_failed_records() {
        let mut mgr = spill_manager("ckptfail", usize::MAX >> 1);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0, 1]));
        mgr.spill_store_mut().unwrap().fail_next_writes(1);
        let report = mgr.checkpoint().unwrap();
        assert_eq!(report.failed, 1);
        assert_eq!(report.chunks, 1);
        assert_eq!(mgr.session_spill().demote_failures, 1);
        assert_eq!(mgr.spill_store().unwrap().len(), 1);
    }

    /// Checkpointing without a spill tier is a typed error, not a panic.
    #[test]
    fn checkpoint_without_spill_tier_is_not_attached() {
        let mut mgr = manager(Strategy::Vcm);
        match mgr.checkpoint() {
            Err(SpillError::NotAttached) => {}
            other => panic!("expected NotAttached, got {other:?}"),
        }
        // And it converts into the unified error surface.
        let e: CacheError = SpillError::NotAttached.into();
        assert!(matches!(e, CacheError::Spill(SpillError::NotAttached)));
    }

    // ──────────────────── base-data delta ingestion ────────────────────

    fn backend_with(agg: AggFn) -> Backend {
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

    fn manager_with(strategy: Strategy, agg: AggFn) -> CacheManager {
        CacheManager::builder()
            .strategy(strategy)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .build(backend_with(agg))
            .unwrap()
    }

    /// Makes every chunk of every group-by resident.
    fn populate_lattice(mgr: &mut CacheManager) {
        let grid = mgr.grid().clone();
        let lattice = grid.schema().lattice().clone();
        for gb in lattice.iter_ids() {
            run_and_check(mgr, &Query::full_group_by(&grid, gb));
        }
    }

    /// Re-checks every group-by's full answer against the (post-update)
    /// backend oracle.
    fn check_lattice(mgr: &mut CacheManager) {
        let grid = mgr.grid().clone();
        let lattice = grid.schema().lattice().clone();
        for gb in lattice.iter_ids() {
            run_and_check(mgr, &Query::full_group_by(&grid, gb));
        }
    }

    #[test]
    fn ingest_empty_batch_is_a_guaranteed_no_op() {
        let tracer = Arc::new(RecordingTracer::new());
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .build(make_backend())
            .unwrap();
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        let version = mgr.version();
        let events_before = tracer.events().len();
        let m = mgr.ingest(&DeltaBatch::new()).unwrap();
        assert_eq!(m, UpdateMetrics::default());
        assert_eq!(mgr.version(), version, "no version bump");
        assert_eq!(mgr.session_updates(), &UpdateMetrics::default());
        assert_eq!(tracer.events().len(), events_before, "no events");
    }

    #[test]
    fn ingest_patches_sum_chunks_for_insert_only_batches() {
        let mut mgr = manager(Strategy::Vcm);
        populate_lattice(&mut mgr);
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 100.0).insert(&[7, 3], 50.0);
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!(m.delta_batches, 1);
        assert_eq!(m.tuples_inserted, 2);
        assert_eq!(m.tuples_deleted, 0);
        assert_eq!(m.base_chunks_touched, 2);
        assert!(m.chunks_patched > 0, "resident descendants patch in place");
        assert_eq!(m.chunks_invalidated, 0, "insert-only SUM never invalidates");
        assert!(m.cells_patched > 0);
        assert!(m.update_virtual_ms > 0.0);
        assert_counts_consistent(&mgr);
        // Every post-update answer matches a fresh recompute, and every
        // query stays a complete hit: the patches really landed in place.
        let grid = mgr.grid().clone();
        let lattice = grid.schema().lattice().clone();
        for gb in lattice.iter_ids() {
            let mq = run_and_check(&mut mgr, &Query::full_group_by(&grid, gb));
            assert!(mq.complete_hit, "patched chunks stay resident");
        }
    }

    #[test]
    fn ingest_invalidates_sum_chunks_hit_by_deletes() {
        let mut mgr = manager(Strategy::Vcm);
        populate_lattice(&mut mgr);
        // Delete one real tuple (value x + 10y) and insert elsewhere.
        let mut batch = DeltaBatch::new();
        batch.delete(&[5, 2], 25.0).insert(&[0, 0], 7.0);
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!(m.tuples_deleted, 1);
        assert_eq!(m.deletes_unmatched, 0);
        assert!(
            m.chunks_invalidated > 0,
            "delete-hit SUM chunks re-serve via the miss path"
        );
        assert!(m.chunks_patched > 0, "insert-only chunks still patch");
        assert_counts_consistent(&mgr);
        // The invalidated base chunk is a miss now; answers are right
        // across the whole lattice afterwards.
        let grid = mgr.grid().clone();
        let base = grid.schema().lattice().base();
        let mq = run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
        assert!(!mq.complete_hit);
        check_lattice(&mut mgr);
        assert_counts_consistent(&mgr);
    }

    #[test]
    fn ingest_count_patches_through_deletes_and_drops_emptied_chunks() {
        let mut mgr = manager_with(Strategy::Vcm, AggFn::Count);
        populate_lattice(&mut mgr);
        let base = mgr.grid().schema().lattice().base();
        // Remove every tuple of base chunk 0 (x in {0,1} × y in {0,1}).
        let mut batch = DeltaBatch::new();
        for x in 0..2u32 {
            for y in 0..2u32 {
                batch.delete(&[x, y], f64::from(x + y * 10));
            }
        }
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!(m.tuples_deleted, 4);
        assert!(m.chunks_patched > 0, "COUNT deletes patch in place");
        assert_eq!(
            m.chunks_invalidated, 1,
            "exactly the fully-emptied base chunk leaves the cache"
        );
        assert!(
            !mgr.cache().contains(&ChunkKey::new(base, 0)),
            "a chunk whose tuple count hit zero leaves the presence index"
        );
        assert_counts_consistent(&mgr);
        check_lattice(&mut mgr);
        assert_counts_consistent(&mgr);
    }

    #[test]
    fn ingest_invalidates_every_affected_min_max_chunk() {
        for agg in [AggFn::Min, AggFn::Max] {
            let mut mgr = manager_with(Strategy::Vcm, agg);
            populate_lattice(&mut mgr);
            let mut batch = DeltaBatch::new();
            batch.insert(&[3, 1], -5.0);
            let m = mgr.ingest(&batch).unwrap();
            assert_eq!(m.chunks_patched, 0, "MIN/MAX is never patched in place");
            assert!(m.chunks_invalidated > 0, "{agg:?}");
            assert_counts_consistent(&mgr);
            check_lattice(&mut mgr);
            assert_counts_consistent(&mgr);
        }
    }

    #[test]
    fn ingest_rejects_malformed_batches_with_typed_errors() {
        let mut mgr = manager(Strategy::Vcm);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        let version = mgr.version();
        let tuples = mgr.backend().fact().num_tuples();
        let mut bad_arity = DeltaBatch::new();
        bad_arity.insert(&[1, 2, 3], 1.0);
        assert!(matches!(
            mgr.ingest(&bad_arity),
            Err(CacheError::Delta(
                aggcache_chunks::ChunkError::BadCellArity { .. }
            ))
        ));
        let mut oob = DeltaBatch::new();
        oob.insert(&[0, 99], 1.0);
        assert!(matches!(
            mgr.ingest(&oob),
            Err(CacheError::Delta(
                aggcache_chunks::ChunkError::CellOutOfRange { .. }
            ))
        ));
        assert_eq!(mgr.version(), version, "a failed ingest mutates nothing");
        assert_eq!(mgr.backend().fact().num_tuples(), tuples);
        assert_eq!(mgr.session_updates(), &UpdateMetrics::default());
    }

    #[test]
    fn ingest_counts_unmatched_deletes_without_propagating() {
        let mut mgr = manager(Strategy::Vcm);
        let grid = mgr.grid().clone();
        let base = grid.schema().lattice().base();
        run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
        let version = mgr.version();
        let mut batch = DeltaBatch::new();
        batch.delete(&[0, 0], 12345.0); // right coords, wrong value bits
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!(m.deletes_unmatched, 1);
        assert_eq!(m.tuples_deleted, 0);
        assert_eq!(m.chunks_patched + m.chunks_invalidated, 0);
        assert_eq!(m.delta_batches, 1, "the batch is still recorded");
        assert_eq!(mgr.version(), version);
        let mq = run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
        assert!(mq.complete_hit, "nothing was disturbed");
    }

    #[test]
    fn ingest_drops_stale_spilled_copies() {
        let mut mgr = spill_manager("ingeststale", 160);
        let base = mgr.grid().schema().lattice().base();
        for chunk in 0..3 {
            run_and_check(&mut mgr, &Query::new(base, vec![chunk]));
        }
        // Chunk 0 was demoted to disk; an insert landing in it stales the
        // on-disk copy.
        assert!(mgr.spill_store().unwrap().contains(ChunkKey::new(base, 0)));
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 1000.0);
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!(m.spill_invalidated, 1);
        assert!(!mgr.spill_store().unwrap().contains(ChunkKey::new(base, 0)));
        // The re-query comes from the backend (fresh data), not disk.
        let mq = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(mq.backend_virtual_ms > 0.0);
        assert_counts_consistent(&mgr);
    }

    #[test]
    fn ingest_events_reach_the_tracer() {
        let tracer = Arc::new(RecordingTracer::new());
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .build(make_backend())
            .unwrap();
        let grid = mgr.grid().clone();
        let lattice = grid.schema().lattice().clone();
        for gb in lattice.iter_ids() {
            let _ = mgr.run(&Query::full_group_by(&grid, gb).into()).unwrap();
        }
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 3.0).delete(&[5, 2], 25.0);
        let m = mgr.ingest(&batch).unwrap();
        assert!(m.chunks_patched > 0 && m.chunks_invalidated > 0);
        let kinds: Vec<&'static str> = tracer.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"delta_ingest"));
        assert!(kinds.contains(&"chunk_patch"));
        assert!(kinds.contains(&"chunk_invalidate"));
    }

    #[test]
    fn ingest_cost_stays_outside_query_metrics() {
        let mut mgr = manager(Strategy::Vcmc);
        let grid = mgr.grid().clone();
        let base = grid.schema().lattice().base();
        run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
        let queries_before = mgr.session().queries;
        let mut batch = DeltaBatch::new();
        batch.insert(&[2, 2], 4.0);
        let m1 = mgr.ingest(&batch).unwrap();
        let m2 = mgr.ingest(&batch).unwrap();
        assert!(m1.update_virtual_ms > 0.0);
        assert!(m1.table_writes > 0, "VCMC table maintenance is recorded");
        let s = mgr.session_updates();
        assert_eq!(s.delta_batches, 2);
        assert_eq!(s.tuples_inserted, 2);
        assert!(
            (s.update_virtual_ms - m1.update_virtual_ms - m2.update_virtual_ms).abs() < 1e-12,
            "session accounting is the sum of per-batch accounting"
        );
        // Ingest is not a query: per-query session aggregates are
        // untouched, and the next query's total identity holds bitwise.
        assert_eq!(mgr.session().queries, queries_before);
        let mq = run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
        assert_eq!(
            mq.total_ms(),
            mq.backend_virtual_ms + mq.agg_virtual_ms + mq.lookup_virtual_ms + mq.update_virtual_ms
        );
        mgr.reset_session();
        assert_eq!(mgr.session_updates(), &UpdateMetrics::default());
    }

    /// Satellite regression: `.corrupt` tombstones past the retention cap
    /// are purged, and the purge is visible in `SpillMetrics`.
    #[test]
    fn quarantine_purge_folds_into_spill_metrics() {
        let dir = spill_dir("purgefold");
        let base;
        {
            let mut a = spill_manager_over(dir.clone(), usize::MAX >> 1);
            base = a.grid().schema().lattice().base();
            run_and_check(&mut a, &Query::new(base, vec![0]));
            a.checkpoint().unwrap();
        }
        corrupt_chunk_file(&dir, ChunkKey::new(base, 0));
        // Cap of zero: the quarantine tombstone is purged immediately.
        let b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .spill(SpillConfig::new(dir.clone()).max_corrupt_files(0))
            .build(make_backend())
            .unwrap();
        assert_eq!(b.session_spill().spill_quarantined, 1);
        assert_eq!(b.session_spill().corrupt_purged, 1);
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".corrupt"))
            .collect();
        assert!(leftovers.is_empty(), "tombstones past the cap are deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
