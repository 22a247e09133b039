//! `--trace-out` support for the experiment binaries.
//!
//! `table1` accepts `--trace-out <path>`: it then also runs one
//! *representative* traced stream over its dataset — the paper-default
//! VCMC + two-level configuration at the 15 MB-equivalent budget — and
//! writes the collected events plus the aggregated [`MetricsRegistry`] as
//! a single JSON document:
//!
//! ```json
//! {"meta": {...}, "metrics": {...}, "events": [...]}
//! ```
//!
//! The four sweeps whose events no paper stream emits (`fig_faults`,
//! `fig_coldstart`, `fig_recovery`, `fig_updates`) take the same flag and
//! trace one cell of their own through [`write_trace`].
//!
//! The traced run is separate from the experiment's own measurement loops,
//! so a multi-configuration experiment never mixes events from different
//! configurations into one trace. Tracing observes wall-clock time but no
//! virtual time, so the traced stream's virtual-time outputs are
//! bit-identical to the untraced run's.

use crate::rig::{apb_dataset, MB};
use crate::stream::{run_stream_traced, StreamRun};
use aggcache_cache::PolicyKind;
use aggcache_core::Strategy;
use aggcache_obs::json::{JsonField, JsonObject, JsonValue};
use aggcache_obs::{Event, FanoutTracer, MetricsRegistry, RecordingTracer, Tracer};
use std::sync::Arc;

/// Collects the events and aggregated metrics of one traced run and
/// serializes them as a single JSON document.
pub struct TraceSink {
    recorder: Arc<RecordingTracer>,
    registry: Arc<MetricsRegistry>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self {
            recorder: Arc::new(RecordingTracer::new()),
            registry: Arc::new(MetricsRegistry::new()),
        }
    }

    /// The tracer to attach: fans every event out to the raw event
    /// recorder and the metrics registry.
    pub fn tracer(&self) -> Arc<dyn Tracer> {
        Arc::new(FanoutTracer::new(vec![
            self.recorder.clone() as Arc<dyn Tracer>,
            self.registry.clone() as Arc<dyn Tracer>,
        ]))
    }

    /// Number of events recorded so far.
    pub fn events_recorded(&self) -> usize {
        self.recorder.len()
    }

    /// Renders the `{"meta", "metrics", "events"}` document.
    pub fn render(&self, meta: &[(&str, Box<dyn JsonField>)]) -> String {
        let mut out = String::with_capacity(1 << 16);
        JsonObject::open(&mut out)
            .object("meta", |object| {
                for (k, v) in meta {
                    object.field(k, v);
                }
            })
            .field("metrics", &*self.registry)
            .field("events", self.recorder.events())
            .close();
        out
    }
}

/// What a traced run says about itself: the document's `meta` entries,
/// each value rendering as its own type.
pub type Meta = Vec<(&'static str, Box<dyn JsonField>)>;

/// Runs `traced` with a fresh sink's tracer attached and writes the
/// document to `path`, with a one-line receipt on stderr.
pub fn write_trace(path: &str, traced: impl FnOnce(Arc<dyn Tracer>) -> Meta) {
    let sink = TraceSink::new();
    let meta = traced(sink.tracer());
    std::fs::write(path, sink.render(&meta))
        .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
    eprintln!("trace: {} events -> {path}", sink.events_recorded());
}

/// If `table1` was passed `--trace-out <path>`, runs the representative
/// traced stream at `threads` and writes the trace file.
///
/// The stream uses the paper-default configuration (VCMC, two-level policy
/// with pre-load, 100 queries) over a fresh copy of the experiment's
/// dataset, with the 15 MB paper budget scaled to the dataset size the
/// same way the figure experiments scale their cache sweeps.
pub fn maybe_write_trace(trace_out: Option<&str>, threads: usize, tuples: u64, seed: u64) {
    let Some(path) = trace_out else {
        return;
    };
    let dataset = apb_dataset(tuples, seed);
    // 15 MB : 1.1 M tuples, as in the cache-size sweeps.
    let cache_bytes = ((15 * MB) as f64 * tuples as f64 / 1_100_000.0).max(64.0 * 1024.0) as usize;
    let run = StreamRun {
        threads,
        ..StreamRun::paper(Strategy::Vcmc, PolicyKind::TwoLevel, cache_bytes)
    };
    write_trace(path, |tracer| {
        let result = run_stream_traced(&dataset, run, Some(tracer));
        vec![
            ("experiment", Box::new("table1")),
            ("tuples", Box::new(tuples)),
            ("seed", Box::new(seed)),
            ("queries", Box::new(run.queries)),
            ("workload_seed", Box::new(run.seed)),
            ("cache_bytes", Box::new(cache_bytes)),
            ("strategy", Box::new("vcmc")),
            ("policy", Box::new("two_level")),
            ("threads", Box::new(run.threads)),
            ("complete_hit_pct", Box::new(result.complete_hit_pct)),
            ("avg_ms", Box::new(result.avg_ms)),
        ]
    });
}

/// What a valid trace document holds (the numbers `trace_check` reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events in the document.
    pub events: usize,
    /// `query_done` events among them.
    pub queries: u64,
    /// Group-by levels in the aggregated metrics.
    pub levels: usize,
}

/// Validates a `--trace-out` document: top-level shape, every event
/// against [`Event::SCHEMA`] (known kind, every declared field present,
/// no undeclared field), virtual-time additivity of each `query_done`,
/// and the raw event list against the aggregated metrics. Returns the
/// first violation as a message.
pub fn validate(doc: &JsonValue) -> Result<TraceSummary, String> {
    fn expect<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a JsonValue, String> {
        v.get(key)
            .ok_or_else(|| format!("{ctx}: missing key {key:?}"))
    }

    if !expect(doc, "meta", "document")?.is_obj() {
        return Err("meta is not an object".into());
    }
    let metrics = expect(doc, "metrics", "document")?;
    let counters = expect(metrics, "counters", "metrics")?;
    let levels = expect(metrics, "levels", "metrics")?
        .as_arr()
        .ok_or("metrics.levels is not an array")?;
    for key in ["wall_ns", "virtual_us"] {
        expect(metrics, key, "metrics")?;
    }
    let events = expect(doc, "events", "document")?
        .as_arr()
        .ok_or("events is not an array")?;
    if events.is_empty() {
        return Err("events array is empty".into());
    }

    let mut query_dones = 0u64;
    for (i, event) in events.iter().enumerate() {
        let ctx = format!("event #{i}");
        let JsonValue::Obj(pairs) = event else {
            return Err(format!("{ctx}: not an object"));
        };
        let kind = expect(event, "type", &ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: type is not a string"))?;
        let (_, fields) = Event::SCHEMA
            .iter()
            .find(|(k, _)| *k == kind)
            .ok_or_else(|| format!("{ctx}: unknown kind {kind:?}"))?;
        let ctx = format!("{ctx} ({kind})");
        for field in *fields {
            expect(event, field, &ctx)?;
        }
        if let Some((extra, _)) = pairs
            .iter()
            .find(|(k, _)| k != "type" && !fields.contains(&k.as_str()))
        {
            return Err(format!("{ctx}: undeclared field {extra:?}"));
        }
        if kind == "query_done" {
            query_dones += 1;
            // Virtual time is additive: total = backend + agg + lookup +
            // update, exactly (all four are sums of exact cost-model
            // terms; serialization is round-trip precise).
            let f = |k: &str| {
                expect(event, k, &ctx)?
                    .as_f64()
                    .ok_or_else(|| format!("{ctx}: {k} is not a number"))
            };
            let sum = f("backend_virtual_ms")?
                + f("agg_virtual_ms")?
                + f("lookup_virtual_ms")?
                + f("update_virtual_ms")?;
            let total = f("total_virtual_ms")?;
            if (sum - total).abs() > 1e-9 * total.abs().max(1.0) {
                return Err(format!(
                    "{ctx}: total_virtual_ms {total} != component sum {sum}"
                ));
            }
        }
    }

    // Cross-checks against the aggregated registry.
    let counter = |k: &str| counters.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    if counter("events") != events.len() as f64 {
        return Err(format!(
            "metrics.counters.events {} != event count {}",
            counter("events"),
            events.len()
        ));
    }
    if counter("queries") != query_dones as f64 {
        return Err(format!(
            "metrics.counters.queries {} != query_done events {query_dones}",
            counter("queries")
        ));
    }
    let mut level_queries = 0.0;
    for level in levels {
        level_queries += expect(level, "queries", "level")?.as_f64().unwrap_or(0.0);
    }
    if level_queries != query_dones as f64 {
        return Err(format!(
            "per-level query sum {level_queries} != query_done events {query_dones}"
        ));
    }

    Ok(TraceSummary {
        events: events.len(),
        queries: query_dones,
        levels: levels.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_trace_parses_and_round_trips_meta() {
        let sink = TraceSink::new();
        sink.tracer().emit(&Event::GroupBoost {
            chunks: 3,
            amount: 2.5,
        });
        let doc = sink.render(&[
            ("experiment", Box::new("table1")),
            ("tuples", Box::new(20_000u64)),
        ]);
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(
            v.get("meta").unwrap().get("experiment").unwrap().as_str(),
            Some("table1")
        );
        assert_eq!(
            v.get("meta").unwrap().get("tuples").unwrap().as_f64(),
            Some(20000.0)
        );
        let events = v.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("type").unwrap().as_str(), Some("group_boost"));
        // The registry saw the same event through the fanout.
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("group_boosts")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    /// The document of a ten-query traced stream, as text.
    fn traced_stream_doc() -> String {
        let dataset = apb_dataset(4_000, 5);
        let sink = TraceSink::new();
        let run = StreamRun {
            queries: 10,
            ..StreamRun::paper(Strategy::Vcmc, PolicyKind::TwoLevel, 256 * 1024)
        };
        let result = run_stream_traced(&dataset, run, Some(sink.tracer()));
        assert!(sink.events_recorded() > 0);
        sink.render(&[("avg_ms", Box::new(result.avg_ms))])
    }

    #[test]
    fn traced_stream_writes_rich_valid_trace() {
        let v = JsonValue::parse(&traced_stream_doc()).unwrap();
        let events = v.get("events").unwrap().as_arr().unwrap();
        let kinds: std::collections::HashSet<&str> = events
            .iter()
            .filter_map(|e| e.get("type").and_then(|t| t.as_str()))
            .collect();
        for expected in ["probe_start", "probe_end", "query_done"] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("probe_start")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
        let summary = validate(&v).unwrap();
        assert_eq!((summary.events, summary.queries), (events.len(), 10));
    }

    #[test]
    fn validate_rejects_missing_undeclared_and_unknown() {
        let doc = traced_stream_doc();
        let reject = |broken: String| validate(&JsonValue::parse(&broken).unwrap()).unwrap_err();

        // Cut `,"wall_ns":N` (the last field) out of the first probe_end.
        let start = doc.find("{\"type\":\"probe_end\"").unwrap();
        let field = start + doc[start..].find(",\"wall_ns\":").unwrap();
        let end = field + doc[field..].find('}').unwrap();
        let err = reject(format!("{}{}", &doc[..field], &doc[end..]));
        assert!(
            err.contains("probe_end") && err.contains("wall_ns"),
            "{err}"
        );

        let err = reject(doc.replacen(
            "{\"type\":\"probe_start\",",
            "{\"type\":\"probe_start\",\"surprise\":1,",
            1,
        ));
        assert!(err.contains("undeclared field \"surprise\""), "{err}");

        let err = reject(doc.replacen("\"type\":\"probe_start\"", "\"type\":\"probe_begin\"", 1));
        assert!(err.contains("unknown kind \"probe_begin\""), "{err}");
    }
}
