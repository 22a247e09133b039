/// Virtual microseconds charged per lattice node visited during lookup.
/// Node visits and tuple aggregations are both small memory-bound
/// operations; 0.2 µs (≈0.4× the default aggregation rate) reproduces the
/// magnitude of the paper's Table 4 speedups and Figure 10 breakdown on
/// its 1997 hardware.
pub const LOOKUP_PER_NODE_US: f64 = 0.2;

/// Virtual microseconds charged per count/cost table cell written — by a
/// query's admissions and evictions, and by delta maintenance.
pub const UPDATE_PER_WRITE_US: f64 = 1.0;

/// Per-query cost breakdown, mirroring the paper's Figure 10 split into
/// cache lookup time, aggregation time and (count/cost) update time, plus
/// the backend portion.
///
/// Real wall-clock nanoseconds are recorded for the algorithmic components
/// (lookup, aggregation, table updates); the backend contributes *virtual*
/// milliseconds from its cost model. [`QueryMetrics::total_ms`] combines
/// both using the manager's virtual aggregation rate, keeping end-to-end
/// numbers deterministic and hardware-independent.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryMetrics {
    /// Wall-clock time spent deciding hit/computable/miss for every chunk.
    pub lookup_ns: u64,
    /// Wall-clock time of the whole immutable probe phase (lookup plus
    /// cost-based arbitration). This is the probe that actually produced
    /// the answer — a stale probe redone during apply replaces the
    /// discarded one. Wall-clock only; never enters
    /// [`QueryMetrics::total_ms`].
    pub probe_ns: u64,
    /// Wall-clock time of the mutating apply phase (aggregation, backend
    /// fetch, admissions, table maintenance). Wall-clock only; never
    /// enters [`QueryMetrics::total_ms`].
    pub apply_ns: u64,
    /// Wall-clock time spent aggregating cached chunks.
    pub agg_ns: u64,
    /// Wall-clock time spent maintaining count/cost tables (inserts and
    /// evictions triggered by this query).
    pub update_ns: u64,
    /// Virtual milliseconds charged by the backend cost model.
    pub backend_virtual_ms: f64,
    /// Virtual milliseconds charged for in-cache aggregation
    /// (`tuples_aggregated × rate`).
    pub agg_virtual_ms: f64,
    /// Virtual milliseconds charged for cache lookups
    /// (`lookup_nodes × rate`). Calibrated so that one lattice-node visit
    /// costs about twice a tuple aggregation, matching the relation between
    /// the paper's Table 1 lookup times and its aggregation throughput.
    pub lookup_virtual_ms: f64,
    /// Virtual milliseconds charged for count/cost table maintenance
    /// (`table_writes × rate`). Only maintenance *triggered by this
    /// query's* inserts and evictions lands here; base-data delta
    /// maintenance ([`crate::CacheManager::ingest`]) is charged to
    /// [`crate::UpdateMetrics::update_virtual_ms`] instead, so the
    /// `total = backend + agg + lookup + update` identity of a query is
    /// never perturbed by a concurrent update stream.
    pub update_virtual_ms: f64,
    /// Count/cost table cells written by this query's inserts/evictions.
    pub table_writes: u64,
    /// Chunks answered directly from the cache.
    pub chunks_hit: usize,
    /// Chunks computed by aggregating cached chunks.
    pub chunks_computed: usize,
    /// Chunks requested from the backend (cache misses under the
    /// configured lookup strategy).
    pub chunks_missed: usize,
    /// Computable chunks the cost-based optimizer demoted to backend
    /// fetches because the backend was cheaper (counted within
    /// `chunks_missed` as well).
    pub chunks_demoted: usize,
    /// Missed chunks served *degraded* after a backend outage: computed
    /// from cached data at any cost instead of fetched (counted within
    /// `chunks_missed` as well, never as `chunks_computed` or as a
    /// complete hit).
    pub chunks_degraded: usize,
    /// Tuples aggregated in the cache.
    pub tuples_aggregated: u64,
    /// Base tuples scanned by the backend.
    pub backend_tuples: u64,
    /// Lookup nodes visited across all probes of this query.
    pub lookup_nodes: u64,
    /// Whether the query was a *complete hit*: answered entirely from the
    /// cache, directly or by aggregation (paper §7.2).
    pub complete_hit: bool,
}

impl QueryMetrics {
    /// End-to-end virtual execution time in milliseconds: the sum of the
    /// four virtual components. Fully deterministic and hardware-
    /// independent; the `*_ns` fields carry the real measured times.
    pub fn total_ms(&self) -> f64 {
        self.backend_virtual_ms
            + self.agg_virtual_ms
            + self.lookup_virtual_ms
            + self.update_virtual_ms
    }

    /// Folds another sub-query's metrics into this one (a cluster request
    /// split across node groups): numeric fields sum, `complete_hit` ANDs.
    /// Wall-clock fields sum too — they stay diagnostics, never part of
    /// virtual totals.
    pub fn merge(&mut self, other: &QueryMetrics) {
        // Exhaustive on purpose: a new field must decide how it merges.
        let QueryMetrics {
            lookup_ns,
            probe_ns,
            apply_ns,
            agg_ns,
            update_ns,
            backend_virtual_ms,
            agg_virtual_ms,
            lookup_virtual_ms,
            update_virtual_ms,
            table_writes,
            chunks_hit,
            chunks_computed,
            chunks_missed,
            chunks_demoted,
            chunks_degraded,
            tuples_aggregated,
            backend_tuples,
            lookup_nodes,
            complete_hit,
        } = *other;
        self.lookup_ns += lookup_ns;
        self.probe_ns += probe_ns;
        self.apply_ns += apply_ns;
        self.agg_ns += agg_ns;
        self.update_ns += update_ns;
        self.backend_virtual_ms += backend_virtual_ms;
        self.agg_virtual_ms += agg_virtual_ms;
        self.lookup_virtual_ms += lookup_virtual_ms;
        self.update_virtual_ms += update_virtual_ms;
        self.table_writes += table_writes;
        self.chunks_hit += chunks_hit;
        self.chunks_computed += chunks_computed;
        self.chunks_missed += chunks_missed;
        self.chunks_demoted += chunks_demoted;
        self.chunks_degraded += chunks_degraded;
        self.tuples_aggregated += tuples_aggregated;
        self.backend_tuples += backend_tuples;
        self.lookup_nodes += lookup_nodes;
        self.complete_hit &= complete_hit;
    }
}

/// Running aggregates over a query session: three per-query counters,
/// the running total, and the field-by-field [`QueryMetrics::merge`] of
/// every recorded query.
#[derive(Debug, Default, Clone)]
pub struct SessionMetrics {
    /// Number of queries executed.
    pub queries: u64,
    /// Number of complete hits.
    pub complete_hits: u64,
    /// Number of queries that served at least one degraded chunk.
    pub degraded_queries: u64,
    /// Sum of per-query totals, accumulated as `Σ q.total_ms()` in query
    /// order — not `sum.total_ms()`, which adds the same terms in another
    /// order and differs in the last bits.
    pub total_ms: f64,
    /// Every recorded query's metrics, summed field by field
    /// (`sum.complete_hit` is meaningless: use `complete_hits`).
    pub sum: QueryMetrics,
}

impl SessionMetrics {
    /// Folds one query's metrics into the session.
    pub fn record(&mut self, q: &QueryMetrics) {
        self.queries += 1;
        self.complete_hits += u64::from(q.complete_hit);
        self.degraded_queries += u64::from(q.chunks_degraded > 0);
        self.total_ms += q.total_ms();
        self.sum.merge(q);
    }

    /// Fraction of queries that were complete hits (paper Fig. 7).
    pub fn complete_hit_ratio(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.complete_hits as f64 / self.queries as f64
        }
    }

    /// Mean end-to-end virtual time per query (paper Figs. 8 and 9).
    pub fn avg_ms(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_ms / self.queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_virtual_components() {
        let q = QueryMetrics {
            lookup_ns: 2_000_000, // real times do not enter the total
            backend_virtual_ms: 40.0,
            agg_virtual_ms: 5.0,
            lookup_virtual_ms: 2.0,
            update_virtual_ms: 1.0,
            ..Default::default()
        };
        assert!((q.total_ms() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn session_accumulates() {
        let mut s = SessionMetrics::default();
        s.record(&QueryMetrics {
            complete_hit: true,
            backend_virtual_ms: 0.0,
            ..Default::default()
        });
        s.record(&QueryMetrics {
            complete_hit: false,
            backend_virtual_ms: 10.0,
            ..Default::default()
        });
        assert_eq!(s.queries, 2);
        assert_eq!(s.complete_hits, 1);
        assert!((s.complete_hit_ratio() - 0.5).abs() < 1e-9);
        assert!((s.avg_ms() - 5.0).abs() < 1e-9);
    }

    /// A session is the summed query ledger: every field of `sum` equals
    /// the fold of `merge`, and `total_ms` keeps the per-query order of
    /// additions (`Σ q.total_ms()`), which `avg_ms` divides.
    #[test]
    fn session_sum_is_the_fold_of_merge() {
        let stream: Vec<QueryMetrics> = (1..=7u64)
            .map(|i| QueryMetrics {
                lookup_ns: i,
                probe_ns: 2 * i,
                apply_ns: 3 * i,
                agg_ns: 5 * i,
                update_ns: 7 * i,
                backend_virtual_ms: 0.1 * i as f64,
                agg_virtual_ms: 0.7 / i as f64,
                lookup_virtual_ms: 1e-3 * i as f64,
                update_virtual_ms: 3e-4 * i as f64,
                table_writes: i,
                chunks_hit: i as usize,
                chunks_computed: 1,
                chunks_missed: (i % 3) as usize,
                chunks_demoted: (i % 2) as usize,
                chunks_degraded: usize::from(i % 3 == 0),
                tuples_aggregated: 100 * i,
                backend_tuples: 10 * i,
                lookup_nodes: 4 * i,
                complete_hit: i % 3 != 0,
            })
            .collect();
        let mut s = SessionMetrics::default();
        let mut fold = QueryMetrics::default();
        let mut total_ms = 0.0f64;
        for q in &stream {
            s.record(q);
            fold.merge(q);
            total_ms += q.total_ms();
        }
        assert_eq!((s.queries, s.complete_hits, s.degraded_queries), (7, 5, 2));
        assert_eq!(s.total_ms.to_bits(), total_ms.to_bits());
        assert_eq!(s.avg_ms().to_bits(), (total_ms / 7.0).to_bits());
        // `{:?}` prints every field, floats in round-trip form: equal
        // text is equal bits, and a new field is compared without an edit.
        assert_eq!(format!("{:?}", s.sum), format!("{fold:?}"));
        assert_eq!(s.sum.chunks_degraded, 2);
    }

    #[test]
    fn empty_session_is_zero() {
        let s = SessionMetrics::default();
        assert_eq!(s.complete_hit_ratio(), 0.0);
        assert_eq!(s.avg_ms(), 0.0);
    }
}
