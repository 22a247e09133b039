//! The correctness check that rides inside every run: sampled answers are
//! compared, cell for cell, with a cache-less shadow backend that received
//! exactly the same delta batches.

use aggcache_chunks::ChunkData;
use aggcache_core::{DeltaBatch, Query};
use aggcache_store::Backend;
use std::time::{Duration, Instant};

/// Every `CHECK_EVERY`-th answer is checked. One check re-computes the
/// answer from the base tuples (~15 ms at full size), so checking more
/// often would cost more wall than the measured phase itself.
pub const CHECK_EVERY: usize = 40;

/// The shadow backend plus the tally of what it found. The time it spends
/// is kept in [`Oracle::paused`], so the caller can take it off the clock.
#[derive(Debug)]
pub struct Oracle {
    shadow: Backend,
    /// Answers compared.
    pub checked: u64,
    /// Answers that differed from the shadow backend's.
    pub mismatches: u64,
    /// Wall time spent checking and keeping the shadow in step.
    pub paused: Duration,
    /// Test hook: report the next checked answer as a mismatch.
    inject_mismatch: bool,
}

impl Oracle {
    /// An oracle over its own copy of the facts.
    pub fn new(shadow: Backend, inject_mismatch: bool) -> Self {
        Self {
            shadow,
            checked: 0,
            mismatches: 0,
            paused: Duration::ZERO,
            inject_mismatch,
        }
    }

    /// Whether the `i`-th answer of a stream is one of the sampled ones.
    pub fn due(i: usize) -> bool {
        i.is_multiple_of(CHECK_EVERY)
    }

    /// Compares `answer` (in any cell order) with the shadow's answer to
    /// `query` for exact equality of coordinates and value bits.
    pub fn check(&mut self, query: &Query, answer: &ChunkData) {
        let t = Instant::now();
        let mut want = ChunkData::new(answer.n_dims());
        for (_, data) in self
            .shadow
            .fetch(query.gb, &query.chunks)
            .expect("streams stay within the fact level")
            .chunks
        {
            want.append(&data);
        }
        want.sort_by_coords();
        let mut got = answer.clone();
        got.sort_by_coords();
        self.checked += 1;
        if got != want || std::mem::take(&mut self.inject_mismatch) {
            self.mismatches += 1;
        }
        self.paused += t.elapsed();
    }

    /// Applies a batch the program has just ingested to the shadow.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) {
        let t = Instant::now();
        self.shadow
            .apply_delta(batch)
            .expect("generated batches are valid");
        self.paused += t.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{backend_for, dataset, delta_batches};

    fn answer(backend: &Backend, q: &Query) -> ChunkData {
        let mut all = ChunkData::new(backend.grid().num_dims());
        // Reverse chunk order: the oracle must not depend on cell order.
        for (_, data) in backend.fetch(q.gb, &q.chunks).unwrap().chunks.iter().rev() {
            all.append(data);
        }
        all
    }

    #[test]
    fn accepts_right_answers_and_counts_wrong_ones() {
        let ds = dataset(5_000);
        let q = Query::new(ds.grid.schema().lattice().top(), vec![0]);
        let q2 = Query::new(ds.fact_gb, vec![0, 1, 2, 3]);
        let mut oracle = Oracle::new(backend_for(&ds), false);
        let backend = backend_for(&ds);
        oracle.check(&q, &answer(&backend, &q));
        oracle.check(&q2, &answer(&backend, &q2));
        assert_eq!((oracle.checked, oracle.mismatches), (2, 0));

        let mut wrong = answer(&backend, &q);
        *wrong.value_of_mut(0) += 1.0;
        oracle.check(&q, &wrong);
        assert_eq!((oracle.checked, oracle.mismatches), (3, 1));
        assert!(oracle.paused > Duration::ZERO);
    }

    #[test]
    fn follows_the_delta_stream() {
        let ds = dataset(5_000);
        let q = Query::new(ds.grid.schema().lattice().top(), vec![0]);
        let mut oracle = Oracle::new(backend_for(&ds), false);
        let mut backend = backend_for(&ds);
        let stale = answer(&backend, &q);
        for batch in delta_batches(&ds, 1, 3, 5) {
            backend.apply_delta(&batch).unwrap();
            oracle.apply_delta(&batch);
        }
        oracle.check(&q, &answer(&backend, &q));
        assert_eq!(oracle.mismatches, 0);
        oracle.check(&q, &stale);
        assert_eq!(oracle.mismatches, 1);
    }

    #[test]
    fn injected_mismatch_fires_once() {
        let ds = dataset(5_000);
        let q = Query::new(ds.grid.schema().lattice().top(), vec![0]);
        let backend = backend_for(&ds);
        let mut oracle = Oracle::new(backend_for(&ds), true);
        oracle.check(&q, &answer(&backend, &q));
        oracle.check(&q, &answer(&backend, &q));
        assert_eq!((oracle.checked, oracle.mismatches), (2, 1));
    }
}
