//! `--trace-out` support for the experiment binaries.
//!
//! `table1` accepts `--trace-out <path>`: it then also runs one
//! *representative* traced stream over its dataset — the paper-default
//! VCMC + two-level configuration at the 15 MB-equivalent budget — and
//! writes what the run says about itself and the events it emitted as a
//! single JSON document:
//!
//! ```json
//! {"meta": {...}, "events": [...]}
//! ```
//!
//! The three sweeps whose events no paper stream emits (`fig_faults`,
//! `fig_recovery`, `fig_updates`) take the same flag and trace one cell of
//! their own through `write_trace`.
//!
//! The traced run is separate from the experiment's own measurement loops,
//! so a multi-configuration experiment never mixes events from different
//! configurations into one trace. Tracing observes wall-clock time but no
//! virtual time, so the traced stream's virtual-time outputs are
//! bit-identical to the untraced run's.

use crate::rig::{apb_dataset, backend_for, MB};
use crate::stream::{run_stream, StreamRun};
use aggcache_cache::PolicyKind;
use aggcache_core::Strategy;
use aggcache_obs::json::{JsonField, JsonObject, JsonValue};
use aggcache_obs::{Event, RecordingTracer, Tracer};
use std::sync::Arc;

/// Records the events of one traced run and serializes them as a single
/// JSON document.
#[derive(Default)]
pub struct TraceSink {
    recorder: Arc<RecordingTracer>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tracer to attach: it records every event.
    pub fn tracer(&self) -> Arc<dyn Tracer> {
        self.recorder.clone()
    }

    /// Number of events recorded so far.
    pub fn events_recorded(&self) -> usize {
        self.recorder.len()
    }

    /// Renders the `{"meta", "events"}` document.
    pub(crate) fn render(&self, meta: &[(&str, Box<dyn JsonField>)]) -> String {
        let mut out = String::with_capacity(1 << 16);
        JsonObject::open(&mut out)
            .object("meta", |object| {
                for (k, v) in meta {
                    object.field(k, v);
                }
            })
            .field("events", self.recorder.events())
            .close();
        out
    }
}

/// What a traced run says about itself: the document's `meta` entries,
/// each value rendering as its own type.
pub(crate) type Meta = Vec<(&'static str, Box<dyn JsonField>)>;

/// Runs `traced` with a fresh sink's tracer attached and writes the
/// document to `path`, with a one-line receipt on stderr.
pub(crate) fn write_trace(path: &str, traced: impl FnOnce(Arc<dyn Tracer>) -> Meta) {
    let sink = TraceSink::new();
    let meta = traced(sink.tracer());
    std::fs::write(path, sink.render(&meta))
        .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
    eprintln!("trace: {} events -> {path}", sink.events_recorded());
}

/// If `table1` was passed `--trace-out <path>`, runs the representative
/// traced stream and writes the trace file.
///
/// The stream uses the paper-default configuration (VCMC, two-level policy
/// with pre-load, 100 queries) over a fresh copy of the experiment's
/// dataset, with the 15 MB paper budget scaled to the dataset size the
/// same way the figure experiments scale their cache sweeps.
pub fn maybe_write_trace(trace_out: Option<&str>, tuples: u64, seed: u64) {
    let Some(path) = trace_out else {
        return;
    };
    let dataset = apb_dataset(tuples, seed);
    // 15 MB : 1.1 M tuples, as in the cache-size sweeps.
    let cache_bytes = ((15 * MB) as f64 * tuples as f64 / 1_100_000.0).max(64.0 * 1024.0) as usize;
    let run = StreamRun::paper(Strategy::Vcmc, PolicyKind::TwoLevel, cache_bytes);
    write_trace(path, |tracer| {
        let result = run_stream(&dataset, backend_for(&dataset), run, Some(tracer));
        vec![
            ("experiment", Box::new("table1")),
            ("tuples", Box::new(tuples)),
            ("seed", Box::new(seed)),
            ("queries", Box::new(run.queries)),
            ("workload_seed", Box::new(run.seed)),
            ("cache_bytes", Box::new(cache_bytes)),
            ("strategy", Box::new("vcmc")),
            ("policy", Box::new("two_level")),
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
}

/// Validates a `--trace-out` document: top-level shape, every event
/// against [`Event::SCHEMA`] (known kind, every declared field present,
/// no undeclared field) and virtual-time additivity of each
/// `query_done`. Returns the first violation as a message.
pub fn validate(doc: &JsonValue) -> Result<TraceSummary, String> {
    fn expect<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a JsonValue, String> {
        v.get(key)
            .ok_or_else(|| format!("{ctx}: missing key {key:?}"))
    }

    if !expect(doc, "meta", "document")?.is_obj() {
        return Err("meta is not an object".into());
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

    Ok(TraceSummary {
        events: events.len(),
        queries: query_dones,
    })
}

/// `v` with every wall-clock field (`*_ns`, `wall_*`) dropped, at any depth.
fn masked(v: &JsonValue) -> JsonValue {
    match v {
        JsonValue::Arr(items) => JsonValue::Arr(items.iter().map(masked).collect()),
        JsonValue::Obj(pairs) => {
            let kept = pairs
                .iter()
                .filter(|(k, _)| !k.ends_with("_ns") && !k.starts_with("wall_"));
            JsonValue::Obj(kept.map(|(k, v)| (k.clone(), masked(v))).collect())
        }
        other => other.clone(),
    }
}

/// What `trace_check --digest` prints for a valid document: the event
/// count, the count of each kind in kind order, and an FNV-1a 64 digest
/// of the document with every wall-clock field dropped. Equal reports
/// mean equal event sequences, virtual times and real byte counts.
pub fn digest(doc: &JsonValue) -> String {
    let events = doc.get("events").and_then(JsonValue::as_arr).unwrap_or(&[]);
    let mut kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("type")?.as_str())
        .collect();
    kinds.sort_unstable();
    let mut out = format!("events {}\n", events.len());
    for run in kinds.chunk_by(|a, b| a == b) {
        out += &format!("{} {}\n", run[0], run.len());
    }
    let fnv = fold(0xcbf2_9ce4_8422_2325, &masked(doc));
    out + &format!("digest {fnv:016x}\n")
}

/// `h` folded (FNV-1a 64) over `bytes`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `h` folded over `v` by an explicit walk, so the digest depends on the
/// value alone: a tag per node, a string's length and bytes, a number's
/// `f64` bits, and an array's items or an object's keys and values in
/// order, each container closed by its own tag.
fn fold(h: u64, v: &JsonValue) -> u64 {
    let text = |h: u64, s: &str| fnv(fnv(h, &(s.len() as u64).to_le_bytes()), s.as_bytes());
    match v {
        JsonValue::Null => fnv(h, b"n"),
        JsonValue::Bool(b) => fnv(h, if *b { b"t" } else { b"f" }),
        JsonValue::Num(x) => fnv(fnv(h, b"#"), &x.to_bits().to_le_bytes()),
        JsonValue::Str(s) => text(fnv(h, b"s"), s),
        JsonValue::Arr(items) => fnv(items.iter().fold(fnv(h, b"["), fold), b"]"),
        JsonValue::Obj(pairs) => {
            let h = (pairs.iter()).fold(fnv(h, b"{"), |h, (k, v)| fold(text(h, k), v));
            fnv(h, b"}")
        }
    }
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
        // The document is its meta and its events, nothing else.
        let JsonValue::Obj(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["meta", "events"]);
    }

    /// The document of a ten-query traced stream, as text.
    fn traced_stream_doc() -> String {
        let dataset = apb_dataset(4_000, 5);
        let sink = TraceSink::new();
        let run = StreamRun {
            queries: 10,
            ..StreamRun::paper(Strategy::Vcmc, PolicyKind::TwoLevel, 256 * 1024)
        };
        let result = run_stream(&dataset, backend_for(&dataset), run, Some(sink.tracer()));
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
        let summary = validate(&v).unwrap();
        assert_eq!((summary.events, summary.queries), (events.len(), 10));
    }

    /// The mask drops exactly the `*_ns` and `wall_*` fields, in meta and
    /// events and nested at any depth, and keeps every other field —
    /// `ns`, `walls`, `virtual_ms`, `bytes` — as it was.
    #[test]
    fn the_digest_mask_drops_exactly_the_wall_clock_fields() {
        let doc = JsonValue::parse(
            r#"{"meta":{"wall_s":1,"seed":7,"ns":2},"events":[
                {"type":"a","probe_ns":5,"wall_ns":6,"virtual_ms":1.5,"bytes":100},
                {"type":"b","walls":[{"x_ns":1,"y":2}],"ns_total":3,"wall_":4},
                {"type":"a","apply_ns":9}]}"#,
        )
        .unwrap();
        let want = r#"{"meta":{"seed":7,"ns":2},"events":[{"type":"a","virtual_ms":1.5,"bytes":100},
            {"type":"b","walls":[{"y":2}],"ns_total":3},{"type":"a"}]}"#;
        assert_eq!(masked(&doc), JsonValue::parse(want).unwrap());
        let report = digest(&doc);
        assert!(
            report.starts_with("events 3\na 2\nb 1\ndigest "),
            "{report}"
        );
        // Wall-clock values do not move the digest; anything else does.
        let src = r#"{"meta":{},"events":[{"type":"a","probe_ns":5,"bytes":100}]}"#;
        let moved = |from: &str, to: &str| {
            let other = JsonValue::parse(&src.replace(from, to)).unwrap();
            digest(&other) != digest(&JsonValue::parse(src).unwrap())
        };
        assert!(!moved("\"probe_ns\":5", "\"probe_ns\":6"));
        assert!(moved("\"bytes\":100", "\"bytes\":101"));
        // The digest reads values, not how the document spells them.
        assert!(!moved("\"bytes\":100", "\"bytes\":1e2"));
        assert!(moved("\"type\":\"a\"", "\"type\":\"a\",\"t\":\"\""));
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

        // Prefixing "-1" to a non-negative total breaks additivity.
        let err = reject(doc.replacen("\"total_virtual_ms\":", "\"total_virtual_ms\":-1", 1));
        assert!(err.contains("!= component sum"), "{err}");
    }
}
