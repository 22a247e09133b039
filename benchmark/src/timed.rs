//! A [`BackendSource`] decorator that records one `fetch` span per
//! backend call and changes nothing else.

use crate::span::Spans;
use aggcache_chunks::{ChunkError, ChunkGrid, ChunkNumber};
use aggcache_obs::Tracer;
use aggcache_schema::GroupById;
use aggcache_store::{
    AggFn, BackendCostModel, BackendSource, DeltaBatch, EffectiveDelta, FactTable, FetchResult,
    StoreError,
};
use std::sync::Arc;

/// Span name of a backend call.
pub const FETCH: &str = "fetch";

/// Wraps a backend so every `fetch` shows up as a span under whatever
/// harness span is open (normally `apply`). Results, virtual cost and
/// errors pass through untouched.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    spans: Spans,
}

impl<B: BackendSource> TimedBackend<B> {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: B, spans: Spans) -> Self {
        Self { inner, spans }
    }
}

impl<B: BackendSource> BackendSource for TimedBackend<B> {
    fn grid(&self) -> &Arc<ChunkGrid> {
        self.inner.grid()
    }

    fn fact(&self) -> &FactTable {
        self.inner.fact()
    }

    fn agg(&self) -> AggFn {
        self.inner.agg()
    }

    fn cost_model(&self) -> &BackendCostModel {
        self.inner.cost_model()
    }

    fn fetch(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Result<FetchResult, StoreError> {
        let _span = self.spans.enter(FETCH, crate::span::NO_REQUEST);
        self.inner.fetch(gb, chunks)
    }

    fn fetch_group_by(&self, gb: GroupById) -> Result<FetchResult, StoreError> {
        let _span = self.spans.enter(FETCH, crate::span::NO_REQUEST);
        self.inner.fetch_group_by(gb)
    }

    fn estimate_scan(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<u64> {
        self.inner.estimate_scan(gb, chunks)
    }

    fn estimate_fetch_ms(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<(f64, f64)> {
        self.inner.estimate_fetch_ms(gb, chunks)
    }

    fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<EffectiveDelta, ChunkError> {
        self.inner.apply_delta(batch)
    }

    fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        self.inner.set_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{backend_for, dataset};

    #[test]
    fn transparent_to_results_and_virtual_cost() {
        let ds = dataset(5_000);
        let plain = backend_for(&ds);
        let spans = Spans::recording();
        let timed = TimedBackend::new(backend_for(&ds), spans.clone());
        let top = ds.grid.schema().lattice().top();
        for (gb, chunks) in [(top, vec![0]), (ds.fact_gb, vec![0, 3, 7])] {
            let a = plain.fetch(gb, &chunks).unwrap();
            let b = timed.fetch(gb, &chunks).unwrap();
            assert_eq!(a.chunks, b.chunks);
            assert_eq!(a.virtual_ms.to_bits(), b.virtual_ms.to_bits());
            assert_eq!(a.tuples_scanned, b.tuples_scanned);
            assert_eq!(a.result_tuples, b.result_tuples);
            assert_eq!(
                plain.estimate_scan(gb, &chunks),
                timed.estimate_scan(gb, &chunks)
            );
        }
        let a = plain.fetch_group_by(top).unwrap();
        let b = BackendSource::fetch_group_by(&timed, top).unwrap();
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(a.virtual_ms.to_bits(), b.virtual_ms.to_bits());
        let recorded = spans.snapshot();
        assert_eq!(recorded.len(), 3);
        assert!(recorded.iter().all(|s| s.name == FETCH));
    }

    #[test]
    fn errors_pass_through() {
        let ds = dataset(5_000);
        let timed = TimedBackend::new(backend_for(&ds), Spans::disabled());
        // The base of the lattice is finer than the fact level in the
        // Scenario dimension, so it is not computable from the facts.
        let base = ds.grid.schema().lattice().base();
        assert!(matches!(
            timed.fetch(base, &[0]),
            Err(StoreError::NotComputable { .. })
        ));
    }
}
