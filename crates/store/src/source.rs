//! The pluggable backend abstraction.
//!
//! The paper assumes the backend database always answers a chunk fetch; a
//! production middle tier cannot. [`BackendSource`] turns the concrete
//! simulated [`Backend`] into one implementation among several, so fault
//! injection ([`crate::FaultInjectingBackend`]) and retry/backoff
//! ([`crate::RetryingBackend`]) compose as decorators around it — and a
//! future real database client can slot in behind the same interface.

use crate::{
    AggFn, Backend, BackendCostModel, DeltaBatch, EffectiveDelta, FactTable, FetchResult,
    StoreError,
};
use aggcache_chunks::{ChunkError, ChunkGrid, ChunkNumber};
use aggcache_obs::Tracer;
use aggcache_schema::GroupById;
use std::fmt;
use std::sync::Arc;

/// A source of chunk data behind the middle-tier cache: the simulated
/// in-memory [`Backend`], a fault-injecting wrapper, a retrying decorator —
/// or, in a real deployment, a remote database client.
///
/// The contract mirrors the paper's backend interface: one [`fetch`] is one
/// batched SQL statement computing the requested chunks of one group-by,
/// charged *virtual* milliseconds by a [`BackendCostModel`]. Implementations
/// must be deterministic given their construction parameters: the same
/// sequence of calls yields the same results, costs and errors, which is
/// what keeps every experiment and the chaos suite reproducible.
///
/// `Send + Sync` are required because the cache manager's probe runs
/// against `&self` and may be called from several threads.
///
/// [`fetch`]: BackendSource::fetch
pub trait BackendSource: Send + Sync + fmt::Debug {
    /// The chunk grid this source serves.
    fn grid(&self) -> &Arc<ChunkGrid>;

    /// The underlying fact table (used for pre-load sizing and as the
    /// oracle in tests).
    fn fact(&self) -> &FactTable;

    /// The aggregate function the cube is built over.
    fn agg(&self) -> AggFn;

    /// The virtual cost model fetches are charged against.
    fn cost_model(&self) -> &BackendCostModel;

    /// Executes one batched fetch: computes each requested chunk of `gb`,
    /// returning the chunk data and the virtual cost — or an error when the
    /// group-by is not answerable ([`StoreError::NotComputable`]) or the
    /// backend failed ([`StoreError::is_outage`]).
    fn fetch(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Result<FetchResult, StoreError>;

    /// Computes **all** chunks of a group-by in one scan — used for cache
    /// pre-loading (paper §6.3).
    fn fetch_group_by(&self, gb: GroupById) -> Result<FetchResult, StoreError> {
        let n = self.grid().n_chunks(gb);
        let all: Vec<ChunkNumber> = (0..n).collect();
        self.fetch(gb, &all)
    }

    /// Exact number of source tuples a fetch of these chunks would scan
    /// (paper §5.2's cost statistic); `None` if the group-by is not
    /// answerable. Estimation is a pure computation: it never fails, is
    /// never retried, and costs no virtual time.
    fn estimate_scan(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<u64>;

    /// Modeled cost of fetching these chunks, split into per-query
    /// overhead and marginal scan cost.
    fn estimate_fetch_ms(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<(f64, f64)> {
        let scanned = self.estimate_scan(gb, chunks)?;
        let cost = self.cost_model();
        Some((
            cost.per_query_ms,
            cost.per_tuple_us * scanned as f64 / 1000.0,
        ))
    }

    /// Applies a batch of base-data inserts/deletes to the backing fact
    /// data, returning the effective delta that landed. Validation errors leave the source untouched.
    ///
    /// Maintenance is a *local* data-plane operation — it models the
    /// warehouse's own load pipeline, not a client round trip — so it is
    /// infallible with respect to outages and charged no backend virtual
    /// time; the cache layer charges its own maintenance cost.
    fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<EffectiveDelta, ChunkError>;

    /// Installs (or with `None`, removes) the trace event sink. Decorators
    /// forward the tracer to their inner source so every layer's events
    /// land in the same sink.
    fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>);
}

impl BackendSource for Backend {
    fn grid(&self) -> &Arc<ChunkGrid> {
        Backend::grid(self)
    }

    fn fact(&self) -> &FactTable {
        Backend::fact(self)
    }

    fn agg(&self) -> AggFn {
        Backend::agg(self)
    }

    fn cost_model(&self) -> &BackendCostModel {
        Backend::cost_model(self)
    }

    fn fetch(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Result<FetchResult, StoreError> {
        Backend::fetch(self, gb, chunks)
    }

    fn fetch_group_by(&self, gb: GroupById) -> Result<FetchResult, StoreError> {
        Backend::fetch_group_by(self, gb)
    }

    fn estimate_scan(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<u64> {
        Backend::estimate_scan(self, gb, chunks)
    }

    fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<EffectiveDelta, ChunkError> {
        Backend::apply_delta(self, batch)
    }

    fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        Backend::set_tracer(self, tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_chunks::ChunkData;
    use aggcache_schema::{Dimension, Schema};

    fn backend() -> Backend {
        let schema = Arc::new(Schema::new(vec![Dimension::flat("a", 4).unwrap()]).unwrap());
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2]]).unwrap());
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(1);
        for a in 0..4u32 {
            cells.push(&[a], 1.0);
        }
        Backend::new(
            FactTable::load(grid, base, cells),
            AggFn::Sum,
            BackendCostModel::default(),
        )
    }

    #[test]
    fn trait_and_inherent_calls_agree() {
        let b = backend();
        let src: &dyn BackendSource = &b;
        let top = src.grid().schema().lattice().top();
        let via_trait = src.fetch(top, &[0]).unwrap();
        let via_inherent = Backend::fetch(&b, top, &[0]).unwrap();
        assert_eq!(via_trait.chunks, via_inherent.chunks);
        assert_eq!(
            via_trait.virtual_ms.to_bits(),
            via_inherent.virtual_ms.to_bits()
        );
        assert_eq!(
            src.estimate_scan(top, &[0]),
            Backend::estimate_scan(&b, top, &[0])
        );
    }

    #[test]
    fn default_fetch_group_by_covers_all_chunks() {
        let b = backend();
        let src: &dyn BackendSource = &b;
        let base = src.grid().schema().lattice().base();
        let r = src.fetch_group_by(base).unwrap();
        assert_eq!(r.chunks.len() as u64, src.grid().n_chunks(base));
    }
}
