//! The per-query pipeline (paper §2, §7): probe the cache, aggregate what
//! it can compute, fetch the misses, admit the results — and its ledger
//! ([`QueryMetrics`], folded into [`crate::SessionMetrics`]).

use super::CacheManager;
use crate::error::CacheError;
use crate::executor::execute_plan_parallel_traced;
use crate::lookup::{esm, ComputationPlan, LookupOutcome, LookupStats};
use crate::metrics::{LOOKUP_PER_NODE_US, UPDATE_PER_WRITE_US};
use crate::request::{ExecOutcome, QueryRequest};
use crate::{Query, QueryMetrics, QueryResult};
use aggcache_cache::{Origin, PolicyKind};
use aggcache_chunks::{ChunkData, ChunkError, ChunkKey};
use aggcache_obs::{Event, LookupOutcome as ChunkLookupKind};
use aggcache_schema::{GroupById, SchemaError};
use aggcache_store::StoreError;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The outcome of the immutable probe phase of one query: its chunks
/// partitioned into computation plans (direct hits included) and backend
/// misses, stamped with the cache version it was computed against.
/// Produced with `&self` only — many probes can run concurrently over one
/// manager — and consumed by the mutating [`CacheManager::apply`].
#[derive(Debug)]
pub struct QueryProbe {
    plans: Vec<ComputationPlan>,
    missing: Vec<u64>,
    /// The probe's share of the query's metrics; apply fills in the rest.
    metrics: QueryMetrics,
    version: u64,
    trace_id: u64,
    tenant: u32,
    /// Why the query failed [`Query::validate`]; such a probe looked
    /// nothing up and [`CacheManager::apply`] returns the error.
    invalid: Option<ChunkError>,
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
}

impl CacheManager {
    /// The immutable probe phase: partitions the query's chunks into
    /// computation plans and backend misses (paper: answerable / missing)
    /// and applies the cost-based §5.2 arbitration — all against `&self`,
    /// so any number of probes can run concurrently. Applying a probe
    /// after an intervening mutation transparently re-probes.
    pub fn probe(&self, query: &Query) -> QueryProbe {
        self.probe_as(query, 0)
    }

    /// Like [`CacheManager::probe`], attributing the query to `tenant`.
    /// Attribution changes only the tenant tag on the closing
    /// [`Event::QueryDone`] (and thus the per-tenant breakdowns in
    /// `MetricsRegistry`); results, cache state and virtual time are
    /// untouched. A query that fails [`Query::validate`] is not looked up:
    /// its probe carries the error for [`CacheManager::apply`] to return.
    pub fn probe_as(&self, query: &Query, tenant: u32) -> QueryProbe {
        if let Err(invalid) = query.validate(&self.grid) {
            return QueryProbe {
                plans: Vec::new(),
                missing: Vec::new(),
                metrics: QueryMetrics::default(),
                version: self.version,
                trace_id: 0,
                tenant,
                invalid: Some(invalid),
            };
        }
        let t_probe = Instant::now();
        let trace_id = match &self.tracer {
            Some(_) => self.probe_seq.fetch_add(1, Ordering::Relaxed),
            None => 0,
        };
        self.emit(|| Event::ProbeStart {
            query: trace_id,
            gb: query.gb.0,
            chunks: query.chunks.len() as u64,
            version: self.version,
            strategy: self.config.strategy.name(),
        });
        let mut metrics = QueryMetrics::default();

        let t_lookup = Instant::now();
        let mut plans: Vec<ComputationPlan> = Vec::new();
        let mut missing: Vec<u64> = Vec::new();
        for &chunk in &query.chunks {
            let key = ChunkKey::new(query.gb, chunk);
            let LookupOutcome { plan, stats } = self.lookup_chunk(key);
            self.emit(|| Event::ChunkLookup {
                query: trace_id,
                gb: query.gb.0,
                chunk,
                outcome: match &plan {
                    Some(p) if p.direct_hit => ChunkLookupKind::Hit,
                    Some(_) => ChunkLookupKind::Computable,
                    None => ChunkLookupKind::Miss,
                },
                nodes: stats.nodes_visited,
            });
            match plan {
                Some(plan) => plans.push(plan),
                None => missing.push(chunk),
            }
            metrics.lookup_nodes += stats.nodes_visited;
        }
        metrics.lookup_ns = t_lookup.elapsed().as_nanos() as u64;

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
                    metrics.chunks_demoted += 1;
                    false
                } else {
                    true
                }
            });
        }

        metrics.probe_ns = t_probe.elapsed().as_nanos() as u64;
        self.emit(|| {
            let hits = plans.iter().filter(|p| p.direct_hit).count() as u64;
            Event::ProbeEnd {
                query: trace_id,
                gb: query.gb.0,
                version: self.version,
                hits,
                computable: plans.len() as u64 - hits,
                missing: missing.len() as u64,
                demoted: metrics.chunks_demoted as u64,
                wall_ns: metrics.probe_ns,
            }
        });

        QueryProbe {
            plans,
            missing,
            metrics,
            version: self.version,
            trace_id,
            tenant,
            invalid: None,
        }
    }

    /// The mutating apply phase: executes a probe's plans (aggregating in
    /// cache), batch-fetches its misses from the backend, and admits
    /// results under the replacement policy. If the cache mutated since the
    /// probe was taken (version mismatch) the probe is recomputed first, so
    /// results, cache state and virtual-time metrics are always exactly
    /// what a fresh sequential [`CacheManager::run`] would produce. An
    /// invalid query fails with [`CacheError::Query`] before anything
    /// mutates.
    pub fn apply(&mut self, query: &Query, probe: QueryProbe) -> Result<QueryResult, CacheError> {
        let t_apply = Instant::now();
        let probe = if probe.version == self.version {
            probe
        } else {
            self.probe_as(query, probe.tenant)
        };
        if let Some(invalid) = probe.invalid {
            return Err(CacheError::Query(invalid));
        }
        self.tiering.begin_query();
        let (plans, trace_id) = (&probe.plans, probe.trace_id);
        let mut metrics = probe.metrics;
        let writes_before = self.tables.updates();
        let mut data = ChunkData::new(self.grid.num_dims());

        self.pin_leaves(plans, true);

        // Phase 2: answer from the cache (direct hits + aggregations).
        for plan in plans {
            if plan.direct_hit {
                metrics.chunks_hit += 1;
                if let Some(entry) = self.cache.get(&plan.target) {
                    data.append(&entry.data);
                }
            } else {
                metrics.chunks_computed += 1;
                self.compute_and_admit(plan, &mut data, &mut metrics, |tuples| {
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
        self.pin_leaves(plans, false);

        // Phase 3: promote spilled chunks, then one batched backend query
        // for whatever is still missing. `complete_hit` keeps meaning
        // "answered from RAM alone", so it is decided by the pre-promotion
        // miss set; promoted chunks likewise stay counted in
        // `chunks_missed` — the spill tier changes where a miss is served
        // from, not whether the RAM cache missed.
        metrics.chunks_missed = probe.missing.len();
        metrics.complete_hit = probe.missing.is_empty();
        let missing = self.promote_from_spill(query.gb, probe.missing, &mut data, &mut metrics);
        if !missing.is_empty() {
            match self.backend.fetch(query.gb, &missing) {
                Ok(fetch) => {
                    metrics.backend_virtual_ms += fetch.virtual_ms;
                    metrics.backend_tuples += fetch.tuples_scanned;
                    let per_chunk_benefit = fetch.virtual_ms / missing.len() as f64;
                    for (chunk, cells) in fetch.chunks {
                        data.append(&cells);
                        let key = ChunkKey::new(query.gb, chunk);
                        let (_, update_ns) =
                            self.insert_chunk(key, cells, Origin::Backend, per_chunk_benefit);
                        metrics.update_ns += update_ns;
                    }
                }
                // Graceful degradation: the backend is down (retries, if
                // any, already exhausted). The outage's virtual time is
                // charged, then each missing chunk is re-probed for an
                // aggregation path at any cost.
                Err(err) if err.is_outage() => {
                    metrics.backend_virtual_ms += err.virtual_ms();
                    self.emit(|| Event::FetchFailed {
                        gb: query.gb.0,
                        chunks: missing.len() as u64,
                        attempts: match &err {
                            StoreError::Unavailable { attempts, .. } => *attempts,
                            _ => 1,
                        },
                        virtual_ms: err.virtual_ms(),
                    });
                    self.serve_degraded(query, &missing, &mut data, &mut metrics)?;
                }
                Err(err) => return Err(err.into()),
            }
        }

        metrics.table_writes = self.tables.updates() - writes_before;
        metrics.apply_ns = t_apply.elapsed().as_nanos() as u64;
        self.finish_metrics(&mut metrics, trace_id, query.gb, probe.tenant);
        self.tiering.end_query(metrics.total_ms());
        Ok(QueryResult { data, metrics })
    }

    /// Pins (or releases) every plan leaf: inserting computed chunks
    /// mid-query must not evict the inputs of a later plan.
    fn pin_leaves(&mut self, plans: &[ComputationPlan], pinned: bool) {
        for leaf in plans.iter().flat_map(|p| &p.leaves) {
            if pinned {
                self.cache.pin(*leaf);
            } else {
                self.cache.unpin(leaf);
            }
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
        self.emit(|| event(tuples));
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
        // Benefit of the computed chunk. Two-level: the aggregation cost
        // (§6.1 — it can be reproduced from its still-cached inputs). Plain
        // benefit / LRU baselines (\[DRSN98\]): the *backend* recomputation
        // cost — which lets computed chunks displace detailed base chunks
        // there, the weakness the two-level policy fixes (§7.2, Fig. 7).
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
        let (_, update_ns) = self.insert_chunk(plan.target, data, Origin::Computed, benefit);
        metrics.update_ns += update_ns;
    }

    /// The backend-outage fallback: serves each missing chunk *degraded*
    /// by computing it from cached data at any cost — an exhaustive ESM
    /// search, ignoring the configured strategy's budget and the §5.2
    /// arbitration, because the backend alternative no longer exists.
    /// All-or-nothing: every chunk is planned before anything mutates, so
    /// a query that cannot be fully served fails with
    /// [`CacheError::BackendUnavailable`] leaving the cache untouched.
    /// Served chunks are admitted like any computed chunk.
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
        self.pin_leaves(&plans, true);
        for plan in &plans {
            metrics.chunks_degraded += 1;
            self.compute_and_admit(plan, result, metrics, |tuples| Event::DegradedServe {
                gb: plan.target.gb.0,
                chunk: plan.target.chunk,
                leaves: plan.leaves.len() as u64,
                tuples,
            });
        }
        self.pin_leaves(&plans, false);
        Ok(())
    }

    /// Executes one [`QueryRequest`] through the active cache: one probe,
    /// one apply. The tenant tag feeds the obs layer's per-tenant
    /// breakdowns.
    /// The [`ExecOutcome`] carries an all-zero [`crate::RemoteMetrics`] and
    /// this request's [`crate::SpillMetrics`] (zero without a spill tier),
    /// its disk time on the critical path.
    pub fn run(&mut self, request: &QueryRequest) -> Result<ExecOutcome, CacheError> {
        let probe = self.probe_as(&request.query, request.tenant);
        let mut out = ExecOutcome::from(self.apply(&request.query, probe)?);
        out.spill = self.tiering.last_query();
        out.critical_path_ms += out.spill.spill_virtual_ms;
        Ok(out)
    }

    /// Executes a batch of [`QueryRequest`]s in submission order: exactly
    /// a loop over [`CacheManager::run`] (the cache is single-writer, like
    /// the paper's middle tier), stopping at the first error.
    pub fn run_batch(&mut self, requests: &[QueryRequest]) -> Result<Vec<ExecOutcome>, CacheError> {
        requests.iter().map(|r| self.run(r)).collect()
    }

    /// Executes a semantic value-range query: validates its arity against
    /// the schema and its ranges against the level's cardinalities,
    /// normalizes it to chunks, runs it through the active cache, and
    /// filters the result cells to the exact ranges.
    pub fn execute_values(&mut self, query: &crate::ValueQuery) -> Result<QueryResult, CacheError> {
        let n_dims = self.grid.num_dims();
        if query.ranges.len() != n_dims {
            return Err(CacheError::Schema(SchemaError::BadLevelArity {
                expected: n_dims,
                got: query.ranges.len(),
            }));
        }
        query.validate(&self.grid).map_err(CacheError::Query)?;
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
        metrics.lookup_virtual_ms = metrics.lookup_nodes as f64 * LOOKUP_PER_NODE_US / 1000.0;
        metrics.update_virtual_ms = metrics.table_writes as f64 * UPDATE_PER_WRITE_US / 1000.0;
        self.session.record(metrics);
        self.emit(|| Event::QueryDone {
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

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;
    use aggcache_obs::Tracer;
    use aggcache_schema::{Dimension, Schema};
    use aggcache_store::{FaultInjectingBackend, FaultProfile, RetryPolicy, RetryingBackend};
    use std::sync::Arc;

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

    /// `run_batch` is the loop over `run`, and `threads` selects only the
    /// aggregation exchange: answers, counters and cache contents do not
    /// depend on either.
    #[test]
    fn run_batch_matches_sequential_loop() {
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
    fn run_batch_probes_each_request_once() {
        // A budget of a few chunks: nearly every apply admits or evicts,
        // so a probe taken ahead of its apply would be stale and redone.
        let tracer = Arc::new(RecordingTracer::new());
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(2000)
            .tracer(tracer.clone())
            .build(make_backend())
            .unwrap();
        let grid = mgr.grid().clone();
        let queries: Vec<Query> = grid
            .schema()
            .lattice()
            .iter_ids()
            .map(|gb| Query::full_group_by(&grid, gb))
            .collect();
        let outs = mgr.run_batch(&QueryRequest::batch(&queries)).unwrap();
        assert_eq!(outs.len(), queries.len());
        assert!(mgr.version() > 1, "the budget is meant to churn");
        let probes = tracer
            .take()
            .iter()
            .filter(|e| e.kind() == "probe_start")
            .count();
        assert_eq!(probes, queries.len(), "one probe per request");
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
        assert_eq!(mgr.session().sum.chunks_degraded, 1);
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
}
