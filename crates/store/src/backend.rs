use crate::{AggFn, Aggregator, DeltaBatch, EffectiveDelta, FactTable, Lift};
use aggcache_chunks::{ChunkData, ChunkError, ChunkGrid, ChunkKey, ChunkNumber};
use aggcache_obs::{Event, Tracer};
use aggcache_schema::GroupById;
use std::fmt;
use std::sync::Arc;

/// Errors returned by a backend source.
///
/// [`StoreError::NotComputable`] is *permanent*: retrying can never help.
/// The other variants model the failure regimes of a real remote database
/// — transient errors, timeouts, and exhausted retries — and each carries
/// the virtual milliseconds wasted on the failed communication so callers
/// can charge the outage to virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The requested group-by is more detailed than the fact data along
    /// some dimension — no backend query can answer it.
    NotComputable {
        /// The requested group-by.
        requested: GroupById,
        /// The group-by the fact data lives at.
        fact: GroupById,
    },
    /// The fetch failed with a transient error (dropped connection, busy
    /// server); an immediate or backed-off retry may succeed.
    Transient {
        /// Monotonic fetch sequence number at the failing source, for
        /// correlating deterministic fault injections.
        fetch_seq: u64,
        /// Virtual milliseconds wasted on the failed round trip.
        virtual_ms: f64,
    },
    /// The fetch exceeded its per-attempt timeout budget.
    Timeout {
        /// Virtual milliseconds charged for the timed-out attempt (the
        /// full timeout budget — the caller waited that long).
        virtual_ms: f64,
    },
    /// Every retry attempt failed; the backend is considered down for
    /// this fetch.
    Unavailable {
        /// Attempts made before giving up.
        attempts: u32,
        /// Total virtual milliseconds wasted across all attempts,
        /// including backoff delays.
        virtual_ms: f64,
    },
}

impl StoreError {
    /// Whether a retry may succeed (`Transient` or `Timeout`).
    pub fn is_retryable(&self) -> bool {
        matches!(self, Self::Transient { .. } | Self::Timeout { .. })
    }

    /// Whether the error is an availability failure rather than a
    /// permanent semantic one — the class a serving layer may degrade on
    /// (`Transient`, `Timeout` or `Unavailable`).
    pub fn is_outage(&self) -> bool {
        !matches!(self, Self::NotComputable { .. })
    }

    /// Virtual milliseconds wasted on the failure (0 for the permanent
    /// [`StoreError::NotComputable`], which costs nothing: the middle tier
    /// rejects it without a backend round trip).
    pub fn virtual_ms(&self) -> f64 {
        match self {
            Self::NotComputable { .. } => 0.0,
            Self::Transient { virtual_ms, .. }
            | Self::Timeout { virtual_ms }
            | Self::Unavailable { virtual_ms, .. } => *virtual_ms,
        }
    }

    /// Stable lowercase class name, used in trace events.
    pub fn class_name(&self) -> &'static str {
        match self {
            Self::NotComputable { .. } => "not_computable",
            Self::Transient { .. } => "transient",
            Self::Timeout { .. } => "timeout",
            Self::Unavailable { .. } => "unavailable",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotComputable { requested, fact } => write!(
                f,
                "group-by {requested:?} is not computable from fact data at {fact:?}"
            ),
            Self::Transient {
                fetch_seq,
                virtual_ms,
            } => write!(
                f,
                "transient backend error on fetch #{fetch_seq} ({virtual_ms} virtual ms wasted)"
            ),
            Self::Timeout { virtual_ms } => {
                write!(f, "backend fetch timed out after {virtual_ms} virtual ms")
            }
            Self::Unavailable {
                attempts,
                virtual_ms,
            } => write!(
                f,
                "backend unavailable: {attempts} attempts failed ({virtual_ms} virtual ms wasted)"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Virtual cost model of the remote backend database.
///
/// The paper measured in-cache aggregation to be ≈8× faster than going to
/// the backend, a factor "highly dependent on the network, the backend
/// database … and the presence of indices" (§7.1). Rather than sleeping to
/// fake a network, every fetch is charged *virtual milliseconds* from this
/// model; experiment harnesses report virtual time for end-to-end numbers
/// and wall-clock time for algorithmic costs.
#[derive(Debug, Clone, Copy)]
pub struct BackendCostModel {
    /// Fixed cost per fetch call: connection setup, SQL round trip,
    /// optimizer overhead. One fetch = one SQL statement (the paper batches
    /// all missing chunks of a query into a single statement).
    pub per_query_ms: f64,
    /// Scan-and-aggregate cost per base tuple read.
    pub per_tuple_us: f64,
    /// Transfer cost per result tuple shipped to the middle tier.
    pub per_result_tuple_us: f64,
}

impl Default for BackendCostModel {
    fn default() -> Self {
        // Calibrated to the paper's environment: a commercial RDBMS on a
        // separate machine reached over the network, where one SQL round
        // trip costs hundreds of milliseconds and whole-group-by
        // aggregation queries end up ≈8× the cost of aggregating the same
        // data in the middle-tier cache (§7.1). With the middle tier's
        // 0.5 µs/tuple aggregation rate, a full scan of the 1M-tuple fact
        // table costs (300 + 4000 + 500) / 500 ≈ 9.6× the in-cache cost,
        // and aggregated group-bys land near 8.6×.
        Self {
            per_query_ms: 300.0,
            per_tuple_us: 4.0,
            per_result_tuple_us: 0.5,
        }
    }
}

impl BackendCostModel {
    /// The virtual cost of a fetch scanning `scanned` base tuples and
    /// returning `returned` result tuples.
    pub fn fetch_ms(&self, scanned: u64, returned: u64) -> f64 {
        self.per_query_ms
            + self.per_tuple_us * scanned as f64 / 1000.0
            + self.per_result_tuple_us * returned as f64 / 1000.0
    }
}

/// The result of one backend fetch (one simulated SQL statement).
#[derive(Debug)]
pub struct FetchResult {
    /// The requested chunks, in request order. Chunks whose region holds no
    /// data come back as empty [`ChunkData`] — they are still valid,
    /// cacheable results.
    pub chunks: Vec<(ChunkNumber, ChunkData)>,
    /// Virtual milliseconds charged by the cost model.
    pub virtual_ms: f64,
    /// Base tuples scanned.
    pub tuples_scanned: u64,
    /// Result tuples produced.
    pub result_tuples: u64,
}

/// The simulated remote backend: executes multi-chunk aggregation queries
/// against the chunked [`FactTable`], charging virtual costs.
///
/// Optionally holds **materialized aggregates** — pre-computed group-by
/// tables, the warehouse-side optimization of Harinarayan et al. that the
/// paper's §7.1 names as one of the factors behind the backend-vs-cache
/// ratio. A fetch answers from the smallest table that can compute the
/// requested group-by, exactly like a view-matching optimizer.
pub struct Backend {
    fact: FactTable,
    /// Pre-computed aggregate tables (values already lifted), as a DBA
    /// would maintain them. Their construction cost is not charged — it
    /// happened offline.
    materialized: Vec<FactTable>,
    agg: AggFn,
    cost: BackendCostModel,
    /// Optional trace sink: emits one `BackendFetch` per fetch call.
    tracer: Option<Arc<dyn Tracer>>,
}

impl fmt::Debug for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backend")
            .field("fact", &self.fact)
            .field("materialized", &self.materialized)
            .field("agg", &self.agg)
            .field("cost", &self.cost)
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl Backend {
    /// Wraps a fact table with an aggregate function and cost model.
    pub fn new(fact: FactTable, agg: AggFn, cost: BackendCostModel) -> Self {
        Self {
            fact,
            materialized: Vec::new(),
            agg,
            cost,
            tracer: None,
        }
    }

    /// Installs (or removes) the trace event sink.
    pub fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        self.tracer = tracer;
    }

    /// Adds pre-computed aggregate tables at the given group-bys. Each must
    /// be computable from the fact data. Returns `self` for chaining.
    pub fn with_materialized(mut self, gbs: &[GroupById]) -> Result<Self, StoreError> {
        for &gb in gbs {
            let table = self.materialize(gb)?;
            self.materialized.push(table);
        }
        // Prefer scanning the smallest usable table.
        self.materialized.sort_by_key(FactTable::num_tuples);
        Ok(self)
    }

    /// Computes group-by `gb` in full from the best current source and
    /// loads it as a table of its own.
    fn materialize(&self, gb: GroupById) -> Result<FactTable, StoreError> {
        let grid = self.fact.grid();
        let mut cells = ChunkData::new(grid.num_dims());
        for (_, data) in self.fetch_group_by(gb)?.chunks {
            cells.append(&data);
        }
        Ok(FactTable::load(grid.clone(), gb, cells))
    }

    /// The group-bys with materialized aggregates.
    pub fn materialized_gbs(&self) -> Vec<GroupById> {
        self.materialized.iter().map(FactTable::gb).collect()
    }

    /// The smallest table (materialized aggregate or the fact table itself)
    /// that can answer group-by `gb`, along with how its values must be
    /// interpreted. `None` if nothing can (more detailed than the facts).
    fn best_source(&self, gb: GroupById) -> Option<(&FactTable, Lift)> {
        let lattice = self.fact.grid().schema().lattice();
        self.materialized
            .iter()
            .find(|t| lattice.computable_from(gb, t.gb()))
            .map(|t| (t, Lift::Lifted))
            .or_else(|| {
                lattice
                    .computable_from(gb, self.fact.gb())
                    .then_some((&self.fact, Lift::Raw))
            })
    }

    /// The grid the backend serves.
    pub fn grid(&self) -> &Arc<ChunkGrid> {
        self.fact.grid()
    }

    /// The fact table.
    pub fn fact(&self) -> &FactTable {
        &self.fact
    }

    /// The aggregate function the cube is built over.
    pub fn agg(&self) -> AggFn {
        self.agg
    }

    /// The cost model.
    pub fn cost_model(&self) -> &BackendCostModel {
        &self.cost
    }

    /// Executes one batched fetch: computes each requested chunk of `gb`
    /// by scanning the covering base chunks and rolling up. This mirrors
    /// the paper's translation of missing chunk numbers into the selection
    /// predicate of a single SQL statement.
    pub fn fetch(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Result<FetchResult, StoreError> {
        let grid = self.fact.grid();
        let Some((source, lift)) = self.best_source(gb) else {
            return Err(StoreError::NotComputable {
                requested: gb,
                fact: self.fact.gb(),
            });
        };
        let mut out = Vec::with_capacity(chunks.len());
        let mut scanned = 0u64;
        let mut returned = 0u64;
        for &chunk in chunks {
            let cover = grid.cover_at(gb, chunk, source.gb());
            let source_chunks = grid.enumerate_region(source.gb(), &cover);
            let run_cells: u64 = source_chunks.iter().map(|&sc| source.tuples_in(sc)).sum();
            scanned += run_cells;
            let mut agg =
                Aggregator::for_chunk(grid, ChunkKey::new(gb, chunk), self.agg, run_cells);
            for sc in source_chunks {
                agg.add_source_chunk(ChunkKey::new(source.gb(), sc), source.chunk(sc), lift);
            }
            let data = agg.finish();
            returned += data.len() as u64;
            out.push((chunk, data));
        }
        let virtual_ms = self.cost.fetch_ms(scanned, returned);
        if let Some(tracer) = &self.tracer {
            tracer.emit(&Event::BackendFetch {
                gb: gb.0,
                chunks: chunks.len() as u64,
                tuples_scanned: scanned,
                result_tuples: returned,
                virtual_ms,
            });
        }
        Ok(FetchResult {
            chunks: out,
            virtual_ms,
            tuples_scanned: scanned,
            result_tuples: returned,
        })
    }

    /// Applies a batch of base-data inserts/deletes to the fact table and
    /// refreshes every materialized aggregate from the updated facts, so
    /// subsequent fetches answer from post-update data regardless of which
    /// source the view-matching optimizer picks.
    ///
    /// Like [`Backend::with_materialized`], the refresh models the DBA's
    /// offline maintenance pipeline: it charges no virtual time and emits
    /// no trace events. On a validation error nothing changes.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<EffectiveDelta, ChunkError> {
        let eff = self.fact.apply_delta(batch)?;
        if !eff.is_empty() && !self.materialized.is_empty() {
            let gbs = self.materialized_gbs();
            self.materialized.clear();
            let tracer = self.tracer.take();
            for gb in gbs {
                let table = self
                    .materialize(gb)
                    .expect("materialized group-by was computable before the delta");
                self.materialized.push(table);
            }
            self.materialized.sort_by_key(FactTable::num_tuples);
            self.tracer = tracer;
        }
        Ok(eff)
    }

    /// Computes **all** chunks of a group-by in one scan of the fact table —
    /// used for cache pre-loading (paper §6.3). Returns `(chunk, data)`
    /// pairs for every chunk, including empty ones, plus the virtual cost.
    pub fn fetch_group_by(&self, gb: GroupById) -> Result<FetchResult, StoreError> {
        let n = self.fact.grid().n_chunks(gb);
        let all: Vec<ChunkNumber> = (0..n).collect();
        self.fetch(gb, &all)
    }

    /// Exact number of source tuples a fetch of these chunks would scan,
    /// accounting for materialized aggregates — the statistic a cost-based
    /// optimizer uses to weigh cache aggregation against a backend trip
    /// (paper §5.2). `None` if the group-by is not answerable.
    pub fn estimate_scan(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<u64> {
        let grid = self.fact.grid();
        let (source, _) = self.best_source(gb)?;
        let mut total = 0u64;
        for &chunk in chunks {
            let cover = grid.cover_at(gb, chunk, source.gb());
            for sc in grid.enumerate_region(source.gb(), &cover) {
                total += source.tuples_in(sc);
            }
        }
        Some(total)
    }

    /// Modeled cost of fetching these chunks, split into the per-query
    /// overhead and the marginal scan cost (result-transfer cost is
    /// estimated at one result tuple per source tuple scanned upper bound —
    /// negligible at the default rates).
    pub fn estimate_fetch_ms(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<(f64, f64)> {
        let scanned = self.estimate_scan(gb, chunks)?;
        let marginal = self.cost.per_tuple_us * scanned as f64 / 1000.0;
        Some((self.cost.per_query_ms, marginal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, Schema};

    fn backend() -> Backend {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("a", vec![1, 2, 8]).unwrap(),
                    Dimension::flat("b", 4).unwrap(),
                ],
                "m",
            )
            .unwrap(),
        );
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 4], vec![1, 2]]).unwrap());
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(2);
        for a in 0..8u32 {
            for b in 0..4u32 {
                cells.push(&[a, b], 1.0);
            }
        }
        let fact = FactTable::load(grid, base, cells);
        Backend::new(fact, AggFn::Sum, BackendCostModel::default())
    }

    #[test]
    fn fetch_top_chunk_sums_everything() {
        let b = backend();
        let top = b.grid().schema().lattice().top();
        let r = b.fetch(top, &[0]).unwrap();
        assert_eq!(r.chunks.len(), 1);
        assert_eq!(r.chunks[0].1.value_of(0), 32.0);
        assert_eq!(r.tuples_scanned, 32);
        assert_eq!(r.result_tuples, 1);
        assert!(r.virtual_ms > b.cost_model().per_query_ms);
    }

    #[test]
    fn fetch_base_chunk_is_identity() {
        let b = backend();
        let base = b.grid().schema().lattice().base();
        let r = b.fetch(base, &[0]).unwrap();
        let data = &r.chunks[0].1;
        assert_eq!(data.len() as u64, b.fact().tuples_in(0));
        // Scanned exactly the one chunk.
        assert_eq!(r.tuples_scanned, b.fact().tuples_in(0));
    }

    #[test]
    fn fetch_partial_level_respects_chunks() {
        let b = backend();
        let lattice = b.grid().schema().lattice().clone();
        let gb = lattice.id_of(&[1, 1]).unwrap();
        // Level (1,1): dim a has 2 chunks (2 values), dim b has 2 chunks.
        let r = b.fetch(gb, &[0, 3]).unwrap();
        assert_eq!(r.chunks.len(), 2);
        let total: f64 = r.chunks.iter().flat_map(|(_, d)| d.raw_values()).sum();
        // Chunks 0 and 3 are half the grid.
        assert_eq!(total, 16.0);
    }

    #[test]
    fn empty_region_returns_empty_chunk() {
        let schema = Arc::new(Schema::new(vec![Dimension::flat("a", 4).unwrap()], "m").unwrap());
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2]]).unwrap());
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(1);
        cells.push(&[0], 5.0);
        let fact = FactTable::load(grid, base, cells);
        let b = Backend::new(fact, AggFn::Sum, BackendCostModel::default());
        let r = b.fetch(base, &[1]).unwrap();
        assert!(r.chunks[0].1.is_empty());
        assert_eq!(r.result_tuples, 0);
    }

    #[test]
    fn rejects_more_detailed_than_fact() {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("a", vec![1, 2, 8]).unwrap(),
                    Dimension::flat("b", 4).unwrap(),
                ],
                "m",
            )
            .unwrap(),
        );
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 4], vec![1, 2]]).unwrap());
        // Fact data lives at (2, 0) — aggregated in b.
        let gb = grid.schema().lattice().id_of(&[2, 0]).unwrap();
        let mut cells = ChunkData::new(2);
        cells.push(&[0, 0], 1.0);
        let fact = FactTable::load(grid.clone(), gb, cells);
        let b = Backend::new(fact, AggFn::Sum, BackendCostModel::default());
        let base = grid.schema().lattice().base();
        assert!(matches!(
            b.fetch(base, &[0]).unwrap_err(),
            StoreError::NotComputable { .. }
        ));
        // But anything at or above (2, 0) works.
        assert!(b.fetch(gb, &[0]).is_ok());
    }

    #[test]
    fn fetch_group_by_covers_all_chunks() {
        let b = backend();
        let lattice = b.grid().schema().lattice().clone();
        let gb = lattice.id_of(&[2, 0]).unwrap();
        let r = b.fetch_group_by(gb).unwrap();
        assert_eq!(r.chunks.len() as u64, b.grid().n_chunks(gb));
        let total: f64 = r.chunks.iter().flat_map(|(_, d)| d.raw_values()).sum();
        assert_eq!(total, 32.0);
    }

    #[test]
    fn materialized_aggregate_is_preferred() {
        let b = backend();
        let lattice = b.grid().schema().lattice().clone();
        let mid = lattice.id_of(&[1, 1]).unwrap();
        let top = lattice.top();
        // Materialize (1,1): 2x2 values summed from 32 tuples.
        let gbs = [mid];
        let b = Backend::new(b.fact().clone(), AggFn::Sum, BackendCostModel::default())
            .with_materialized(&gbs)
            .unwrap();
        assert_eq!(b.materialized_gbs(), vec![mid]);
        // The top chunk is now computed from the 8-cell aggregate (2 x 4
        // values at level (1,1)), not the 32-tuple fact table.
        let r = b.fetch(top, &[0]).unwrap();
        assert_eq!(r.tuples_scanned, 8);
        assert_eq!(r.chunks[0].1.value_of(0), 32.0);
        // A group-by not covered by the aggregate still scans the facts.
        let base = lattice.base();
        let r = b.fetch(base, &[0]).unwrap();
        assert_eq!(r.chunks[0].1.len() as u64, b.fact().tuples_in(0));
    }

    /// Every tuple of `t` in clustered (scan) order.
    fn clustered(t: &FactTable) -> ChunkData {
        let mut all = ChunkData::new(t.grid().num_dims());
        for c in 0..t.grid().n_chunks(t.gb()) {
            for (coords, v) in t.scan_chunk(c) {
                all.push(coords, v);
            }
        }
        all
    }

    #[test]
    fn fetch_matches_the_row_reference_at_every_level() {
        use crate::aggregate::tests::{assert_same_bits, reference_rollup};
        let grid = backend().grid().clone();
        let lattice = grid.schema().lattice().clone();
        // Jagged measures (SUM order shows in the last bits), scrambled
        // load order, and a duplicate coordinate in every third cell.
        let mut cells = ChunkData::new(2);
        for i in (0..32u32).rev() {
            let v = 0.1 + f64::from(i) * 1e10 + f64::from(i).sin();
            cells.push(&[i % 8, i / 8], v);
            if i % 3 == 0 {
                cells.push(&[i % 8, i / 8], -v / 7.0);
            }
        }
        let fact = FactTable::load(grid.clone(), lattice.base(), cells);
        let fact_level = grid.geom(fact.gb()).level().to_vec();
        let mid = lattice.id_of(&[1, 1]).unwrap();
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
            let plain = Backend::new(fact.clone(), agg, BackendCostModel::default());
            let with_mv = Backend::new(fact.clone(), agg, BackendCostModel::default())
                .with_materialized(&[mid])
                .unwrap();
            let facts = clustered(&fact);
            let view = clustered(&with_mv.materialized[0]);
            for gb in lattice.iter_ids() {
                let level = lattice.level_of(gb);
                let reference = |from: &[u8], cells: &ChunkData, lift: Lift| {
                    reference_rollup(grid.schema(), &[(from, cells)], &level, agg, lift)
                };
                let from_facts = reference(&fact_level, &facts, Lift::Raw);
                let from_view = if lattice.computable_from(gb, mid) {
                    reference(&lattice.level_of(mid), &view, Lift::Lifted)
                } else {
                    from_facts.clone()
                };
                for (backend, want) in [(&plain, &from_facts), (&with_mv, &from_view)] {
                    // Chunks partition the group-by's cells, so sorting
                    // their concatenation gives the reference's order.
                    let mut got = ChunkData::new(2);
                    for (_, data) in backend.fetch_group_by(gb).unwrap().chunks {
                        got.append(&data);
                    }
                    got.sort_by_coords();
                    assert_same_bits(&got, want, &format!("{agg:?} {level:?}"));
                }
            }
        }
    }

    /// The paper's APB-1 lattice (`aggcache_gen::apb1_schema` and its
    /// chunk counts, which this crate cannot depend on), 20,000 scattered
    /// facts at the HistSale level: one chunk of each of the 168 group-bys
    /// the facts can answer, fetched through `for_chunk`, equals the same
    /// fact chunks rolled into a level-wide `Aggregator::new` — and the
    /// sweep crosses the dense/sparse rule in both directions.
    #[test]
    fn every_apb1_group_by_agrees_with_the_level_wide_kernel_on_both_sides() {
        use crate::aggregate::tests::assert_same_bits;
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("Product", vec![1, 4, 15, 75, 300, 900, 9000]).unwrap(),
                    Dimension::balanced("Customer", vec![1, 90, 900]).unwrap(),
                    Dimension::balanced("Time", vec![1, 2, 8, 24]).unwrap(),
                    Dimension::flat("Channel", 10).unwrap(),
                    Dimension::flat("Scenario", 2).unwrap(),
                ],
                "UnitSales",
            )
            .unwrap(),
        );
        let counts = [
            vec![1, 1, 2, 4, 6, 8, 10],
            vec![1, 4, 9],
            vec![1, 1, 2, 4],
            vec![1, 2],
            vec![1, 2],
        ];
        let grid = Arc::new(ChunkGrid::build(schema, &counts).unwrap());
        let lattice = grid.schema().lattice().clone();
        let fact_gb = lattice.id_of(&[6, 2, 3, 1, 0]).unwrap();
        let mut cells = ChunkData::new(5);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            // SplitMix-style scramble; measures jagged so SUM order shows.
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            let r = x >> 11;
            let coords = [
                (r % 9000) as u32,
                (r / 9000 % 900) as u32,
                (r / 8_100_000 % 24) as u32,
                (r / 194_400_000 % 10) as u32,
                0,
            ];
            cells.push(&coords, 0.1 + (r % 1000) as f64 * 1e7 + (r as f64).sin());
        }
        let fact = FactTable::load(grid.clone(), fact_gb, cells);
        let fact_level = lattice.level_of(fact_gb);
        let backend = Backend::new(fact, AggFn::Sum, BackendCostModel::default());
        let (mut dense, mut sparse, mut answerable) = (0, 0, 0);
        for gb in lattice.iter_ids() {
            let chunk = u64::from(gb.0) % grid.n_chunks(gb);
            let Ok(fetched) = backend.fetch(gb, &[chunk]) else {
                assert!(!lattice.computable_from(gb, fact_gb));
                continue;
            };
            answerable += 1;
            let scanned = backend.estimate_scan(gb, &[chunk]).unwrap();
            assert_eq!(fetched.tuples_scanned, scanned);
            let target = ChunkKey::new(gb, chunk);
            if Aggregator::for_chunk(&grid, target, AggFn::Sum, scanned).is_dense() {
                dense += 1;
            } else {
                sparse += 1;
            }
            let mut whole = Aggregator::new(grid.schema(), &lattice.level_of(gb), AggFn::Sum);
            let cover = grid.cover_at(gb, chunk, fact_gb);
            for sc in grid.enumerate_region(fact_gb, &cover) {
                whole.add_chunk(&fact_level, backend.fact().chunk(sc), Lift::Raw);
            }
            assert_eq!(whole.cells_added(), scanned);
            assert_same_bits(
                &fetched.chunks[0].1,
                &whole.finish(),
                &format!("{target:?}"),
            );
        }
        assert_eq!(answerable, 168);
        assert!(dense > 0 && sparse > 0, "{dense} dense, {sparse} sparse");
    }

    #[test]
    fn materialized_results_match_fact_scan() {
        let plain = backend();
        let lattice = plain.grid().schema().lattice().clone();
        let mid = lattice.id_of(&[1, 1]).unwrap();
        let with_mv = Backend::new(
            plain.fact().clone(),
            AggFn::Sum,
            BackendCostModel::default(),
        )
        .with_materialized(&[mid])
        .unwrap();
        for gb in lattice.iter_ids() {
            let a = plain.fetch_group_by(gb).unwrap();
            let b = with_mv.fetch_group_by(gb).unwrap();
            for ((ca, da), (cb, db)) in a.chunks.iter().zip(&b.chunks) {
                assert_eq!(ca, cb);
                assert_eq!(da, db, "answers must not depend on the source at {gb:?}");
            }
        }
    }

    #[test]
    fn apply_delta_refreshes_materialized_aggregates() {
        use crate::DeltaBatch;
        let plain = backend();
        let lattice = plain.grid().schema().lattice().clone();
        let mid = lattice.id_of(&[1, 1]).unwrap();
        let mut b = Backend::new(
            plain.fact().clone(),
            AggFn::Sum,
            BackendCostModel::default(),
        )
        .with_materialized(&[mid])
        .unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 100.0).delete(&[7, 3], 1.0);
        let eff = b.apply_delta(&batch).unwrap();
        assert_eq!(eff.inserted.len(), 1);
        assert_eq!(eff.deleted.len(), 1);
        // Every group-by — including ones served by the materialized view —
        // matches a backend freshly loaded from the post-update facts.
        let fresh = Backend::new(b.fact().clone(), AggFn::Sum, BackendCostModel::default());
        for gb in lattice.iter_ids() {
            let got = b.fetch_group_by(gb).unwrap();
            let want = fresh.fetch_group_by(gb).unwrap();
            for ((ca, da), (cb, db)) in got.chunks.iter().zip(&want.chunks) {
                assert_eq!(ca, cb);
                assert_eq!(da, db, "stale materialized answer at {gb:?}");
            }
        }
        // The mid view still answers the top from 8 cells, not the facts.
        let r = b.fetch(lattice.top(), &[0]).unwrap();
        assert_eq!(r.tuples_scanned, 8);
        assert_eq!(r.chunks[0].1.value_of(0), 32.0 + 100.0 - 1.0);
    }

    #[test]
    fn estimate_scan_matches_fetch() {
        let b = backend();
        let lattice = b.grid().schema().lattice().clone();
        for gb in lattice.iter_ids() {
            let chunks: Vec<u64> = (0..b.grid().n_chunks(gb)).collect();
            let est = b.estimate_scan(gb, &chunks).unwrap();
            let real = b.fetch(gb, &chunks).unwrap().tuples_scanned;
            assert_eq!(est, real);
        }
        let (per_query, marginal) = b.estimate_fetch_ms(lattice.top(), &[0]).unwrap();
        assert_eq!(per_query, b.cost_model().per_query_ms);
        assert!(marginal > 0.0);
    }

    #[test]
    fn smallest_materialization_wins() {
        let plain = backend();
        let lattice = plain.grid().schema().lattice().clone();
        let mid = lattice.id_of(&[1, 1]).unwrap();
        let coarse = lattice.id_of(&[0, 1]).unwrap();
        let b = Backend::new(
            plain.fact().clone(),
            AggFn::Sum,
            BackendCostModel::default(),
        )
        .with_materialized(&[mid, coarse])
        .unwrap();
        // (0,1) has 4 cells, (1,1) has 8; the top should use (0,1).
        let r = b.fetch(lattice.top(), &[0]).unwrap();
        assert_eq!(r.tuples_scanned, 4);
    }

    #[test]
    fn cost_model_charges_components() {
        let m = BackendCostModel {
            per_query_ms: 10.0,
            per_tuple_us: 1000.0,
            per_result_tuple_us: 500.0,
        };
        assert_eq!(m.fetch_ms(10, 4), 10.0 + 10.0 + 2.0);
    }
}
