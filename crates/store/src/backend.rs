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
    pub(crate) fn is_retryable(&self) -> bool {
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
    pub(crate) fn class_name(&self) -> &'static str {
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
    pub(crate) per_tuple_us: f64,
    /// Transfer cost per result tuple shipped to the middle tier.
    pub(crate) per_result_tuple_us: f64,
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
pub struct Backend {
    fact: FactTable,
    agg: AggFn,
    cost: BackendCostModel,
    /// Optional trace sink: emits one `BackendFetch` per fetch call.
    tracer: Option<Arc<dyn Tracer>>,
}

impl fmt::Debug for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backend")
            .field("fact", &self.fact)
            .field("agg", &self.agg)
            .field("cost", &self.cost)
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl Backend {
    /// Wraps a fact table with an aggregate function and cost model.
    /// Backends built from clones of one table share its runs: a clone
    /// costs one pointer per chunk, and each backend's deltas stay its own
    /// ([`FactTable`]).
    pub fn new(fact: FactTable, agg: AggFn, cost: BackendCostModel) -> Self {
        Self {
            fact,
            agg,
            cost,
            tracer: None,
        }
    }

    /// Installs (or removes) the trace event sink.
    pub(crate) fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        self.tracer = tracer;
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
    pub(crate) fn cost_model(&self) -> &BackendCostModel {
        &self.cost
    }

    /// Executes one batched fetch: computes each requested chunk of `gb`
    /// by scanning the covering base chunks and rolling up. This mirrors
    /// the paper's translation of missing chunk numbers into the selection
    /// predicate of a single SQL statement.
    pub fn fetch(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Result<FetchResult, StoreError> {
        let grid = self.fact.grid();
        let fact_gb = self.fact.gb();
        if !grid.schema().lattice().computable_from(gb, fact_gb) {
            return Err(StoreError::NotComputable {
                requested: gb,
                fact: fact_gb,
            });
        }
        let mut out = Vec::with_capacity(chunks.len());
        let mut scanned = 0u64;
        let mut returned = 0u64;
        for &chunk in chunks {
            let source_chunks = grid.chunks_under(gb, chunk, fact_gb);
            let run_cells: u64 = source_chunks
                .iter()
                .map(|&sc| self.fact.tuples_in(sc))
                .sum();
            scanned += run_cells;
            let mut agg =
                Aggregator::for_chunk(grid, ChunkKey::new(gb, chunk), self.agg, run_cells);
            for sc in source_chunks {
                agg.add_source_chunk(ChunkKey::new(fact_gb, sc), self.fact.chunk(sc), Lift::Raw);
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

    /// Applies a batch of base-data inserts/deletes to the fact table. It
    /// charges no virtual time and emits no trace events; on a validation
    /// error nothing changes.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<EffectiveDelta, ChunkError> {
        self.fact.apply_delta(batch)
    }

    /// Computes **all** chunks of a group-by in one scan of the fact table —
    /// used for cache pre-loading (paper §6.3). Returns `(chunk, data)`
    /// pairs for every chunk, including empty ones, plus the virtual cost.
    pub fn fetch_group_by(&self, gb: GroupById) -> Result<FetchResult, StoreError> {
        let n = self.fact.grid().n_chunks(gb);
        let all: Vec<ChunkNumber> = (0..n).collect();
        self.fetch(gb, &all)
    }

    /// Exact number of fact tuples a fetch of these chunks would scan
    /// (paper §5.2's cost statistic). `None` if the group-by is not
    /// answerable.
    pub(crate) fn estimate_scan(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<u64> {
        let grid = self.fact.grid();
        let fact_gb = self.fact.gb();
        if !grid.schema().lattice().computable_from(gb, fact_gb) {
            return None;
        }
        let mut total = 0u64;
        for &chunk in chunks {
            for sc in grid.chunks_under(gb, chunk, fact_gb) {
                total += self.fact.tuples_in(sc);
            }
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, Schema};

    fn backend() -> Backend {
        let schema = Arc::new(
            Schema::new(vec![
                Dimension::balanced("a", vec![1, 2, 8]).unwrap(),
                Dimension::flat("b", 4).unwrap(),
            ])
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
        let total: f64 = r
            .chunks
            .iter()
            .flat_map(|(_, d)| d.raw_values().iter())
            .sum();
        // Chunks 0 and 3 are half the grid.
        assert_eq!(total, 16.0);
    }

    #[test]
    fn empty_region_returns_empty_chunk() {
        let schema = Arc::new(Schema::new(vec![Dimension::flat("a", 4).unwrap()]).unwrap());
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
            Schema::new(vec![
                Dimension::balanced("a", vec![1, 2, 8]).unwrap(),
                Dimension::flat("b", 4).unwrap(),
            ])
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
        let total: f64 = r
            .chunks
            .iter()
            .flat_map(|(_, d)| d.raw_values().iter())
            .sum();
        assert_eq!(total, 32.0);
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
        let facts = clustered(&fact);
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
            let backend = Backend::new(fact.clone(), agg, BackendCostModel::default());
            for gb in lattice.iter_ids() {
                let level = lattice.level_of(gb);
                let want = reference_rollup(
                    grid.schema(),
                    &[(&fact_level, &facts)],
                    &level,
                    agg,
                    Lift::Raw,
                );
                // Chunks partition the group-by's cells, so sorting their
                // concatenation gives the reference's order.
                let mut got = ChunkData::new(2);
                for (_, data) in backend.fetch_group_by(gb).unwrap().chunks {
                    got.append(&data);
                }
                got.sort_by_coords();
                assert_same_bits(&got, &want, &format!("{agg:?} {level:?}"));
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
            Schema::new(vec![
                Dimension::balanced("Product", vec![1, 4, 15, 75, 300, 900, 9000]).unwrap(),
                Dimension::balanced("Customer", vec![1, 90, 900]).unwrap(),
                Dimension::balanced("Time", vec![1, 2, 8, 24]).unwrap(),
                Dimension::flat("Channel", 10).unwrap(),
                Dimension::flat("Scenario", 2).unwrap(),
            ])
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
            for sc in grid.chunks_under(gb, chunk, fact_gb) {
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
    fn estimate_scan_matches_fetch() {
        let b = backend();
        let lattice = b.grid().schema().lattice().clone();
        for gb in lattice.iter_ids() {
            let chunks: Vec<u64> = (0..b.grid().n_chunks(gb)).collect();
            let est = b.estimate_scan(gb, &chunks).unwrap();
            let real = b.fetch(gb, &chunks).unwrap().tuples_scanned;
            assert_eq!(est, real);
        }
        let (per_query, marginal) =
            crate::BackendSource::estimate_fetch_ms(&b, lattice.top(), &[0]).unwrap();
        assert_eq!(per_query, b.cost_model().per_query_ms);
        assert!(marginal > 0.0);
    }

    #[test]
    fn debug_output_does_not_grow_with_the_fact_table() {
        let grid = backend().grid().clone();
        let base = grid.schema().lattice().base();
        let debug_len = |n: u32| {
            let mut cells = ChunkData::new(2);
            for i in 0..n {
                cells.push(&[i % 8, i / 8 % 4], f64::from(i));
            }
            let b = Backend::new(
                FactTable::load(grid.clone(), base, cells),
                AggFn::Sum,
                BackendCostModel::default(),
            );
            // The tuple count is printed; its digits are all that may grow.
            format!("{b:?}").len() - n.to_string().len()
        };
        assert_eq!(debug_len(200), debug_len(20_000));
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
