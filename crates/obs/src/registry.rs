use crate::json::{JsonField, JsonObject};
use crate::{Event, Histogram, LookupOutcome, Tier, Tracer};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Per-group-by-level counters aggregated from [`Event::QueryDone`] and
/// lookup events.
#[derive(Debug, Default, Clone)]
pub struct LevelStats {
    /// Queries answered at this group-by.
    pub queries: u64,
    /// Complete hits (answered entirely from the cache).
    pub complete_hits: u64,
    /// Chunks answered directly from the cache.
    pub chunks_hit: u64,
    /// Chunks computed by in-cache aggregation.
    pub chunks_computed: u64,
    /// Chunks fetched from the backend.
    pub chunks_missed: u64,
    /// Tuples aggregated in the cache.
    pub tuples_aggregated: u64,
    /// Base tuples scanned by the backend.
    pub backend_tuples: u64,
    /// Lattice nodes visited during lookups.
    pub lookup_nodes: u64,
    /// Count/cost table cells written.
    pub table_writes: u64,
    /// Virtual backend milliseconds.
    pub backend_virtual_ms: f64,
    /// Virtual aggregation milliseconds.
    pub agg_virtual_ms: f64,
    /// Virtual lookup milliseconds.
    pub lookup_virtual_ms: f64,
    /// Virtual table-update milliseconds.
    pub update_virtual_ms: f64,
}

/// Per-tenant counters aggregated from [`Event::QueryDone`], including a
/// virtual-time latency histogram for per-tenant tail latency.
#[derive(Debug, Default, Clone)]
pub struct TenantStats {
    /// Queries issued by this tenant.
    pub queries: u64,
    /// Complete hits (answered entirely from the cache).
    pub complete_hits: u64,
    /// Chunks answered directly from the cache.
    pub chunks_hit: u64,
    /// Chunks computed by in-cache aggregation.
    pub chunks_computed: u64,
    /// Chunks fetched from the backend.
    pub chunks_missed: u64,
    /// Chunks served degraded (backend unavailable, answered from cached
    /// aggregates).
    pub chunks_degraded: u64,
    /// Queries with at least one degraded chunk.
    pub degraded_queries: u64,
    /// Total virtual milliseconds across this tenant's queries.
    pub total_virtual_ms: f64,
    /// Per-query total virtual latency (microseconds) — the source for
    /// per-tenant p95/p99 tail latency.
    pub latency_virtual_us: Histogram,
}

impl TenantStats {
    /// Fraction of queries answered entirely from the cache.
    pub fn complete_hit_ratio(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.complete_hits as f64 / self.queries as f64
        }
    }

    /// Fraction of chunk demands served without a backend fetch.
    pub fn chunk_hit_ratio(&self) -> f64 {
        let total = self.chunks_hit + self.chunks_computed + self.chunks_missed;
        if total == 0 {
            0.0
        } else {
            (self.chunks_hit + self.chunks_computed) as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct Inner {
    levels: BTreeMap<u32, LevelStats>,
    tenants: BTreeMap<u32, TenantStats>,
    /// Wall-clock histograms (nanoseconds). Strictly separate from `virt`.
    wall_ns: BTreeMap<&'static str, Histogram>,
    /// Virtual-time histograms (microseconds). Strictly separate from
    /// `wall_ns`.
    virtual_us: BTreeMap<&'static str, Histogram>,
    counters: BTreeMap<&'static str, u64>,
}

impl Inner {
    fn bump(&mut self, key: &'static str, by: u64) {
        *self.counters.entry(key).or_insert(0) += by;
    }

    fn wall(&mut self, key: &'static str, ns: u64) {
        self.wall_ns.entry(key).or_default().record(ns as f64);
    }

    fn virt(&mut self, key: &'static str, us: f64) {
        self.virtual_us.entry(key).or_default().record(us);
    }
}

/// Aggregates the event stream into per-group-by-level counters plus
/// latency histograms, with a JSON exporter.
///
/// Implements [`Tracer`], so it can be installed directly or composed with
/// a [`crate::RecordingTracer`] behind a [`crate::FanoutTracer`].
///
/// Wall-clock nanoseconds (`wall_ns` namespace) and virtual-time
/// microseconds (`virtual_us` namespace) are kept strictly separate: no
/// histogram, counter or export column ever mixes the two domains.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the per-level stats, keyed by group-by id.
    pub fn levels(&self) -> BTreeMap<u32, LevelStats> {
        self.inner.lock().unwrap().levels.clone()
    }

    /// Snapshot of the per-tenant stats, keyed by tenant id.
    pub fn tenants(&self) -> BTreeMap<u32, TenantStats> {
        self.inner.lock().unwrap().tenants.clone()
    }

    /// Snapshot of one named counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of a wall-clock histogram (nanoseconds), if recorded.
    pub fn wall_histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.lock().unwrap().wall_ns.get(name).cloned()
    }

    /// Snapshot of a virtual-time histogram (microseconds), if recorded.
    pub fn virtual_histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.lock().unwrap().virtual_us.get(name).cloned()
    }

    /// Serializes the registry as one JSON object into `out`.
    pub fn write_json(&self, out: &mut String) {
        let inner = self.inner.lock().unwrap();
        JsonObject::open(out)
            .field("counters", &inner.counters)
            .array("levels", &inner.levels, |level, (gb, s)| {
                level
                    .field("gb", gb)
                    .field("queries", s.queries)
                    .field("complete_hits", s.complete_hits)
                    .field("chunks_hit", s.chunks_hit)
                    .field("chunks_computed", s.chunks_computed)
                    .field("chunks_missed", s.chunks_missed)
                    .field("tuples_aggregated", s.tuples_aggregated)
                    .field("backend_tuples", s.backend_tuples)
                    .field("lookup_nodes", s.lookup_nodes)
                    .field("table_writes", s.table_writes)
                    .field("backend_virtual_ms", s.backend_virtual_ms)
                    .field("agg_virtual_ms", s.agg_virtual_ms)
                    .field("lookup_virtual_ms", s.lookup_virtual_ms)
                    .field("update_virtual_ms", s.update_virtual_ms);
            })
            .array("tenants", &inner.tenants, |row, (tenant, s)| {
                row.field("tenant", tenant)
                    .field("queries", s.queries)
                    .field("complete_hits", s.complete_hits)
                    .field("chunks_hit", s.chunks_hit)
                    .field("chunks_computed", s.chunks_computed)
                    .field("chunks_missed", s.chunks_missed)
                    .field("chunks_degraded", s.chunks_degraded)
                    .field("degraded_queries", s.degraded_queries)
                    .field("total_virtual_ms", s.total_virtual_ms)
                    .field("latency_virtual_us", &s.latency_virtual_us);
            })
            .field("wall_ns", &inner.wall_ns)
            .field("virtual_us", &inner.virtual_us)
            .close();
    }
}

impl JsonField for MetricsRegistry {
    fn write_value(&self, out: &mut String) {
        self.write_json(out);
    }
}

impl Tracer for MetricsRegistry {
    fn emit(&self, event: &Event) {
        let mut inner = self.inner.lock().unwrap();
        inner.bump("events", 1);
        match event {
            Event::ProbeStart { .. } => inner.bump("probe_start", 1),
            Event::ChunkLookup { outcome, nodes, .. } => {
                inner.bump(
                    match outcome {
                        LookupOutcome::Hit => "lookup_hit",
                        LookupOutcome::Computable => "lookup_computable",
                        LookupOutcome::Miss => "lookup_miss",
                    },
                    1,
                );
                inner.bump("lookup_nodes", *nodes);
            }
            Event::ProbeEnd { wall_ns, .. } => {
                inner.bump("probe_end", 1);
                inner.wall("probe", *wall_ns);
            }
            Event::PlanChosen {
                predicted_tuples,
                actual_tuples,
                ..
            } => {
                inner.bump("plans_chosen", 1);
                inner.bump("plan_predicted_tuples", *predicted_tuples);
                inner.bump("plan_actual_tuples", *actual_tuples);
            }
            Event::BackendFetch { virtual_ms, .. } => {
                inner.bump("backend_fetches", 1);
                inner.virt("backend_fetch", virtual_ms * 1000.0);
            }
            Event::FetchRetry {
                backoff_virtual_ms, ..
            } => {
                inner.bump("fetch_retries", 1);
                inner.virt("fetch_backoff", backoff_virtual_ms * 1000.0);
            }
            Event::FetchTimeout { virtual_ms, .. } => {
                inner.bump("fetch_timeouts", 1);
                inner.virt("fetch_timeout", virtual_ms * 1000.0);
            }
            Event::FetchFailed {
                attempts,
                virtual_ms,
                ..
            } => {
                inner.bump("fetch_failures", 1);
                inner.bump("fetch_failure_attempts", u64::from(*attempts));
                inner.virt("fetch_failed", virtual_ms * 1000.0);
            }
            Event::DegradedServe { tuples, .. } => {
                inner.bump("degraded_serves", 1);
                inner.bump("degraded_tuples", *tuples);
            }
            Event::CacheInsert { admitted, .. } => {
                inner.bump(
                    if *admitted {
                        "inserts_admitted"
                    } else {
                        "inserts_refused"
                    },
                    1,
                );
            }
            Event::Evict { tier, .. } => {
                inner.bump(
                    match tier {
                        Tier::Fetched => "evictions_fetched",
                        Tier::Computed => "evictions_computed",
                        Tier::Spilled => "evictions_spilled",
                    },
                    1,
                );
            }
            Event::SpillWrite {
                bytes, virtual_ms, ..
            } => {
                inner.bump("spill_writes", 1);
                inner.bump("spill_bytes_written", *bytes);
                inner.virt("spill_write", virtual_ms * 1000.0);
            }
            Event::SpillRead {
                bytes, virtual_ms, ..
            } => {
                inner.bump("spill_reads", 1);
                inner.bump("spill_bytes_read", *bytes);
                inner.virt("spill_read", virtual_ms * 1000.0);
            }
            Event::SpillPromote { admitted, .. } => {
                inner.bump(
                    if *admitted {
                        "spill_promotes_admitted"
                    } else {
                        "spill_promotes_refused"
                    },
                    1,
                );
            }
            Event::WarmStart {
                chunks,
                bytes,
                virtual_ms,
            } => {
                inner.bump("warm_starts", 1);
                inner.bump("warm_start_chunks", *chunks);
                inner.bump("spill_bytes_read", *bytes);
                inner.virt("warm_start", virtual_ms * 1000.0);
            }
            Event::SpillCorrupt { .. } => inner.bump("spill_corruptions", 1),
            Event::SpillQuarantine { bytes, .. } => {
                inner.bump("spill_quarantines", 1);
                inner.bump("spill_bytes_quarantined", *bytes);
            }
            Event::IndexRebuild {
                scanned,
                recovered,
                quarantined,
            } => {
                inner.bump("index_rebuilds", 1);
                inner.bump("index_rebuild_scanned", *scanned);
                inner.bump("index_rebuild_recovered", *recovered);
                inner.bump("index_rebuild_quarantined", *quarantined);
            }
            Event::ScrubPass {
                scanned,
                corrupt,
                virtual_ms,
                ..
            } => {
                inner.bump("scrub_passes", 1);
                inner.bump("scrub_scanned", *scanned);
                inner.bump("scrub_corrupt", *corrupt);
                inner.virt("scrub_pass", virtual_ms * 1000.0);
            }
            Event::GroupBoost { .. } => inner.bump("group_boosts", 1),
            Event::CountUpdate { writes, .. } => {
                inner.bump("count_updates", 1);
                inner.bump("count_update_writes", *writes);
            }
            Event::CostUpdate { writes, .. } => {
                inner.bump("cost_updates", 1);
                inner.bump("cost_update_writes", *writes);
            }
            Event::RemoteServe {
                bytes, virtual_ms, ..
            } => {
                inner.bump("remote_serves", 1);
                inner.bump("bytes_on_wire", *bytes);
                inner.virt("remote_serve", virtual_ms * 1000.0);
            }
            Event::Handoff { bytes, .. } => {
                inner.bump("handoffs", 1);
                inner.bump("bytes_on_wire", *bytes);
            }
            Event::DeltaIngest {
                inserts,
                deletes,
                unmatched,
                patched,
                invalidated,
                table_writes,
                virtual_ms,
                ..
            } => {
                inner.bump("delta_ingests", 1);
                inner.bump("delta_inserts", *inserts);
                inner.bump("delta_deletes", *deletes);
                inner.bump("delta_unmatched", *unmatched);
                inner.bump("delta_chunks_patched", *patched);
                inner.bump("delta_chunks_invalidated", *invalidated);
                inner.bump("delta_table_writes", *table_writes);
                inner.virt("delta_ingest", virtual_ms * 1000.0);
            }
            Event::ChunkPatch { cells, tuples, .. } => {
                inner.bump("chunk_patches", 1);
                inner.bump("chunk_patch_cells", *cells);
                inner.bump("chunk_patch_tuples", *tuples);
            }
            Event::ChunkInvalidate { .. } => inner.bump("chunk_invalidates", 1),
            Event::NodeDown { .. } => inner.bump("node_downs", 1),
            Event::NodeUp { .. } => inner.bump("node_ups", 1),
            Event::QueryDone {
                tenant,
                gb,
                complete_hit,
                chunks_hit,
                chunks_computed,
                chunks_missed,
                chunks_degraded,
                tuples_aggregated,
                backend_tuples,
                lookup_nodes,
                table_writes,
                backend_virtual_ms,
                agg_virtual_ms,
                lookup_virtual_ms,
                update_virtual_ms,
                total_virtual_ms,
                probe_ns,
                apply_ns,
                agg_ns,
                lookup_ns,
                update_ns,
                ..
            } => {
                inner.bump("queries", 1);
                let s = inner.levels.entry(*gb).or_default();
                s.queries += 1;
                s.complete_hits += u64::from(*complete_hit);
                s.chunks_hit += chunks_hit;
                s.chunks_computed += chunks_computed;
                s.chunks_missed += chunks_missed;
                s.tuples_aggregated += tuples_aggregated;
                s.backend_tuples += backend_tuples;
                s.lookup_nodes += lookup_nodes;
                s.table_writes += table_writes;
                s.backend_virtual_ms += backend_virtual_ms;
                s.agg_virtual_ms += agg_virtual_ms;
                s.lookup_virtual_ms += lookup_virtual_ms;
                s.update_virtual_ms += update_virtual_ms;
                let t = inner.tenants.entry(*tenant).or_default();
                t.queries += 1;
                t.complete_hits += u64::from(*complete_hit);
                t.chunks_hit += chunks_hit;
                t.chunks_computed += chunks_computed;
                t.chunks_missed += chunks_missed;
                t.chunks_degraded += chunks_degraded;
                t.degraded_queries += u64::from(*chunks_degraded > 0);
                t.total_virtual_ms += total_virtual_ms;
                t.latency_virtual_us.record(total_virtual_ms * 1000.0);
                inner.virt("query_total", total_virtual_ms * 1000.0);
                inner.wall("query_probe", *probe_ns);
                inner.wall("query_apply", *apply_ns);
                inner.wall("query_agg", *agg_ns);
                inner.wall("query_lookup", *lookup_ns);
                inner.wall("query_update", *update_ns);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn json_of(r: &MetricsRegistry) -> String {
        let mut out = String::new();
        r.write_json(&mut out);
        out
    }

    fn query_done(gb: u32, hit: bool) -> Event {
        query_done_for(0, gb, hit)
    }

    fn query_done_for(tenant: u32, gb: u32, hit: bool) -> Event {
        Event::QueryDone {
            query: 1,
            tenant,
            gb,
            complete_hit: hit,
            chunks_hit: 2,
            chunks_computed: 1,
            chunks_missed: u64::from(!hit),
            chunks_degraded: 0,
            tuples_aggregated: 100,
            backend_tuples: 50,
            lookup_nodes: 7,
            table_writes: 3,
            backend_virtual_ms: 10.0,
            agg_virtual_ms: 0.05,
            lookup_virtual_ms: 0.0014,
            update_virtual_ms: 0.003,
            total_virtual_ms: 10.0544,
            probe_ns: 1000,
            apply_ns: 5000,
            agg_ns: 2000,
            lookup_ns: 900,
            update_ns: 100,
        }
    }

    #[test]
    fn aggregates_per_level() {
        let r = MetricsRegistry::new();
        r.emit(&query_done(3, true));
        r.emit(&query_done(3, false));
        r.emit(&query_done(5, true));
        let levels = r.levels();
        assert_eq!(levels.len(), 2);
        let l3 = &levels[&3];
        assert_eq!(l3.queries, 2);
        assert_eq!(l3.complete_hits, 1);
        assert_eq!(l3.chunks_hit, 4);
        assert_eq!(l3.tuples_aggregated, 200);
        assert!((l3.backend_virtual_ms - 20.0).abs() < 1e-12);
        assert_eq!(r.counter("queries"), 3);
        assert_eq!(r.counter("events"), 3);
    }

    #[test]
    fn aggregates_per_tenant() {
        let r = MetricsRegistry::new();
        r.emit(&query_done_for(0, 3, true));
        r.emit(&query_done_for(1, 3, false));
        r.emit(&query_done_for(1, 5, true));
        let mut degraded = query_done_for(1, 5, false);
        if let Event::QueryDone {
            chunks_degraded, ..
        } = &mut degraded
        {
            *chunks_degraded = 2;
        }
        r.emit(&degraded);
        let tenants = r.tenants();
        assert_eq!(tenants.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        let (t0, t1) = (&tenants[&0], &tenants[&1]);
        assert_eq!(t0.queries, 1);
        assert_eq!(t0.complete_hits, 1);
        assert_eq!(t0.latency_virtual_us.count(), 1);
        assert_eq!(t1.queries, 3);
        assert_eq!(t1.chunks_degraded, 2);
        assert_eq!(t1.degraded_queries, 1);
        assert_eq!(t1.latency_virtual_us.count(), 3);
        assert!((t0.complete_hit_ratio() - 1.0).abs() < 1e-12);
        // Per-tenant queries sum to the session total.
        let total: u64 = tenants.values().map(|t| t.queries).sum();
        assert_eq!(total, 4);
        assert_eq!(r.counter("queries"), 4);
        // Tenant rows appear in the JSON export.
        let json = json_of(&r);
        let v = JsonValue::parse(&json).expect("valid JSON");
        let rows = v.get("tenants").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("tenant").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(
            rows[1].get("chunks_degraded").and_then(JsonValue::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn wall_and_virtual_namespaces_stay_separate() {
        let r = MetricsRegistry::new();
        r.emit(&query_done(0, true));
        r.emit(&Event::BackendFetch {
            gb: 0,
            chunks: 2,
            tuples_scanned: 10,
            result_tuples: 4,
            virtual_ms: 300.0,
        });
        // Virtual namespace has virtual entries only; wall has wall only.
        assert!(r.virtual_histogram("backend_fetch").is_some());
        assert!(r.virtual_histogram("query_total").is_some());
        assert!(r.wall_histogram("backend_fetch").is_none());
        assert!(r.wall_histogram("query_total").is_none());
        assert!(r.wall_histogram("query_probe").is_some());
        assert!(r.virtual_histogram("query_probe").is_none());
        // 300 ms = 300_000 µs.
        let h = r.virtual_histogram("backend_fetch").unwrap();
        assert_eq!(h.sum(), 300_000.0);
    }

    #[test]
    fn json_export_round_trips() {
        let r = MetricsRegistry::new();
        r.emit(&query_done(2, true));
        r.emit(&Event::ChunkLookup {
            query: 1,
            gb: 2,
            chunk: 0,
            outcome: LookupOutcome::Hit,
            nodes: 1,
        });
        let json = json_of(&r);
        let v = JsonValue::parse(&json).expect("valid JSON");
        let counters = v.get("counters").unwrap();
        assert_eq!(
            counters.get("queries").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(
            counters.get("lookup_hit").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        let levels = v.get("levels").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].get("gb").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(
            levels[0]
                .get("backend_virtual_ms")
                .and_then(JsonValue::as_f64),
            Some(10.0)
        );
        assert!(v.get("wall_ns").unwrap().get("query_probe").is_some());
        assert!(v.get("virtual_us").unwrap().get("query_total").is_some());
    }

    /// The export byte for byte — key order, separators, number forms —
    /// for a stream that fills every section.
    #[test]
    fn write_json_bytes_are_pinned() {
        let empty = MetricsRegistry::new();
        assert_eq!(
            json_of(&empty),
            r#"{"counters":{},"levels":[],"tenants":[],"wall_ns":{},"virtual_us":{}}"#
        );
        let r = MetricsRegistry::new();
        r.emit(&query_done_for(1, 2, true));
        r.emit(&Event::ChunkLookup {
            query: 1,
            gb: 2,
            chunk: 0,
            outcome: LookupOutcome::Hit,
            nodes: 1,
        });
        let want = concat!(
            r#"{"counters":{"events":2,"lookup_hit":1,"lookup_nodes":1,"queries":1},"#,
            r#""levels":[{"gb":2,"queries":1,"complete_hits":1,"chunks_hit":2,"chunks_computed":1,"#,
            r#""chunks_missed":0,"tuples_aggregated":100,"backend_tuples":50,"#,
            r#""lookup_nodes":7,"table_writes":3,"backend_virtual_ms":10,"agg_virtual_ms":0.05,"#,
            r#""lookup_virtual_ms":0.0014,"update_virtual_ms":0.003}],"#,
            r#""tenants":[{"tenant":1,"queries":1,"complete_hits":1,"chunks_hit":2,"chunks_computed":1,"#,
            r#""chunks_missed":0,"chunks_degraded":0,"degraded_queries":0,"total_virtual_ms":10.0544,"#,
            r#""latency_virtual_us":{"count":1,"sum":10054.4,"min":10054.4,"max":10054.4,"buckets":[[8192,16384,1]]}}],"#,
            r#""wall_ns":{"query_agg":{"count":1,"sum":2000,"min":2000,"max":2000,"buckets":[[1024,2048,1]]},"#,
            r#""query_apply":{"count":1,"sum":5000,"min":5000,"max":5000,"buckets":[[4096,8192,1]]},"#,
            r#""query_lookup":{"count":1,"sum":900,"min":900,"max":900,"buckets":[[512,1024,1]]},"#,
            r#""query_probe":{"count":1,"sum":1000,"min":1000,"max":1000,"buckets":[[512,1024,1]]},"#,
            r#""query_update":{"count":1,"sum":100,"min":100,"max":100,"buckets":[[64,128,1]]}},"#,
            r#""virtual_us":{"query_total":{"count":1,"sum":10054.4,"min":10054.4,"max":10054.4,"buckets":[[8192,16384,1]]}}}"#,
        );
        assert_eq!(json_of(&r), want);
    }

    #[test]
    fn recovery_events_aggregate() {
        let r = MetricsRegistry::new();
        r.emit(&Event::SpillCorrupt {
            gb: 2,
            chunk: 9,
            reason: "bad_checksum",
        });
        r.emit(&Event::SpillQuarantine {
            gb: 2,
            chunk: 9,
            bytes: 96,
        });
        r.emit(&Event::IndexRebuild {
            scanned: 5,
            recovered: 4,
            quarantined: 1,
        });
        r.emit(&Event::ScrubPass {
            scanned: 4,
            corrupt: 1,
            quarantined: 1,
            virtual_ms: 2.5,
        });
        assert_eq!(r.counter("spill_corruptions"), 1);
        assert_eq!(r.counter("spill_quarantines"), 1);
        assert_eq!(r.counter("spill_bytes_quarantined"), 96);
        assert_eq!(r.counter("index_rebuilds"), 1);
        assert_eq!(r.counter("index_rebuild_scanned"), 5);
        assert_eq!(r.counter("index_rebuild_recovered"), 4);
        assert_eq!(r.counter("index_rebuild_quarantined"), 1);
        assert_eq!(r.counter("scrub_passes"), 1);
        assert_eq!(r.counter("scrub_scanned"), 4);
        assert_eq!(r.counter("scrub_corrupt"), 1);
        // 2.5 ms = 2500 µs.
        let h = r.virtual_histogram("scrub_pass").unwrap();
        assert_eq!(h.sum(), 2500.0);
    }

    #[test]
    fn delta_events_aggregate() {
        let r = MetricsRegistry::new();
        r.emit(&Event::DeltaIngest {
            inserts: 5,
            deletes: 2,
            unmatched: 1,
            base_chunks: 3,
            patched: 4,
            invalidated: 2,
            table_writes: 6,
            virtual_ms: 1.5,
        });
        r.emit(&Event::ChunkPatch {
            gb: 1,
            chunk: 0,
            cells: 3,
            tuples: 7,
        });
        r.emit(&Event::ChunkInvalidate {
            gb: 1,
            chunk: 2,
            reason: "min_max",
        });
        assert_eq!(r.counter("delta_ingests"), 1);
        assert_eq!(r.counter("delta_inserts"), 5);
        assert_eq!(r.counter("delta_deletes"), 2);
        assert_eq!(r.counter("delta_unmatched"), 1);
        assert_eq!(r.counter("delta_chunks_patched"), 4);
        assert_eq!(r.counter("delta_chunks_invalidated"), 2);
        assert_eq!(r.counter("delta_table_writes"), 6);
        assert_eq!(r.counter("chunk_patches"), 1);
        assert_eq!(r.counter("chunk_patch_cells"), 3);
        assert_eq!(r.counter("chunk_patch_tuples"), 7);
        assert_eq!(r.counter("chunk_invalidates"), 1);
        // 1.5 ms = 1500 µs.
        let h = r.virtual_histogram("delta_ingest").unwrap();
        assert_eq!(h.sum(), 1500.0);
    }

    #[test]
    fn cluster_events_aggregate() {
        let r = MetricsRegistry::new();
        r.emit(&Event::RemoteServe {
            gb: 1,
            chunk: 3,
            from_node: 2,
            to_node: 0,
            bytes: 400,
            virtual_ms: 1.5,
        });
        r.emit(&Event::Handoff {
            gb: 1,
            chunk: 4,
            from_node: 0,
            to_node: 2,
            bytes: 100,
        });
        r.emit(&Event::NodeDown { node: 1 });
        r.emit(&Event::NodeUp { node: 1 });
        assert_eq!(r.counter("remote_serves"), 1);
        assert_eq!(r.counter("handoffs"), 1);
        assert_eq!(r.counter("bytes_on_wire"), 500);
        assert_eq!(r.counter("node_downs"), 1);
        assert_eq!(r.counter("node_ups"), 1);
        assert_eq!(r.counter("events"), 4);
        let h = r.virtual_histogram("remote_serve").unwrap();
        assert_eq!(h.sum(), 1500.0);
    }
}
