//! Pins the JSON form of every event kind.
//!
//! `event_golden.jsonl` was written by the hand-rolled `write_json` that
//! preceded the `events!` table; the table-generated writer must reproduce
//! it byte for byte, and every sample must carry exactly the fields
//! `Event::SCHEMA` declares for its kind.

use aggcache_obs::json::JsonValue;
use aggcache_obs::{Event, LookupOutcome, Tier};

const GOLDEN: &str = include_str!("event_golden.jsonl");

/// At least one sample per kind, in declaration order, with non-default
/// values: escaped strings, `-0.0`, huge and non-finite floats, empty and
/// multi-element `levels`.
fn samples() -> Vec<Event> {
    vec![
        Event::ProbeStart {
            query: 7,
            gb: 3,
            chunks: 12,
            version: u64::MAX,
            strategy: "vc\"m\\c\n\t\u{1}",
        },
        Event::ChunkLookup {
            query: 7,
            gb: 3,
            chunk: 41,
            outcome: LookupOutcome::Computable,
            nodes: 9,
        },
        Event::ProbeEnd {
            query: 7,
            gb: 3,
            version: 5,
            hits: 1,
            computable: 2,
            missing: 3,
            wall_ns: 123_456_789,
        },
        Event::PlanChosen {
            query: 8,
            gb: 2,
            chunk: 6,
            leaves: 0,
            levels: vec![],
            predicted_tuples: 10,
            actual_tuples: 11,
        },
        Event::PlanChosen {
            query: 9,
            gb: 2,
            chunk: 6,
            leaves: 3,
            levels: vec![5, 0, u32::MAX],
            predicted_tuples: 100,
            actual_tuples: 99,
        },
        Event::FetchRetry {
            gb: 1,
            chunks: 2,
            attempt: 3,
            backoff_virtual_ms: 0.1,
            error: "time\"out",
        },
        Event::FetchTimeout {
            gb: 1,
            chunks: 2,
            virtual_ms: -0.0,
        },
        Event::FetchFailed {
            gb: 1,
            chunks: 2,
            attempts: u32::MAX,
            virtual_ms: 1e300,
        },
        Event::DegradedServe {
            gb: 4,
            chunk: 5,
            leaves: 6,
            tuples: 7,
        },
        Event::BackendFetch {
            gb: 4,
            chunks: 5,
            tuples_scanned: 600,
            result_tuples: 70,
            virtual_ms: f64::MAX,
        },
        Event::CacheInsert {
            gb: 4,
            chunk: 5,
            tier: Tier::Fetched,
            bytes: 4096,
            admitted: true,
        },
        Event::Evict {
            gb: 4,
            chunk: 5,
            tier: Tier::Spilled,
            clock_round: 2,
            clock: f64::INFINITY,
        },
        Event::GroupBoost {
            chunks: 3,
            amount: f64::NAN,
        },
        Event::CountUpdate {
            gb: 4,
            chunk: 5,
            writes: 17,
            evict: true,
        },
        Event::CostUpdate {
            gb: 4,
            chunk: 5,
            writes: 18,
            evict: false,
        },
        Event::RemoteServe {
            gb: 4,
            chunk: 5,
            from_node: 1,
            to_node: 2,
            bytes: 800,
            virtual_ms: 0.516,
        },
        Event::Handoff {
            gb: 4,
            chunk: 5,
            from_node: 3,
            to_node: 0,
            bytes: 801,
        },
        Event::SpillWrite {
            gb: 4,
            chunk: 5,
            bytes: 802,
            virtual_ms: 1.25,
        },
        Event::SpillRead {
            gb: 4,
            chunk: 5,
            bytes: 803,
            virtual_ms: 5e-324,
        },
        Event::SpillPromote {
            gb: 4,
            chunk: 5,
            admitted: false,
        },
        Event::WarmStart {
            chunks: 9,
            bytes: 9000,
            virtual_ms: 123456789.25,
        },
        Event::SpillCorrupt {
            gb: 4,
            chunk: 5,
            reason: "bad_checksum",
        },
        Event::SpillQuarantine {
            gb: 4,
            chunk: 5,
            bytes: 804,
        },
        Event::IndexRebuild {
            scanned: 10,
            recovered: 8,
            quarantined: 2,
        },
        Event::ScrubPass {
            scanned: 10,
            corrupt: 1,
            quarantined: 1,
            virtual_ms: 2.5,
        },
        Event::DeltaIngest {
            inserts: 1,
            deletes: 2,
            unmatched: 3,
            base_chunks: 4,
            patched: 5,
            invalidated: 6,
            table_writes: 7,
            virtual_ms: 8.125,
        },
        Event::ChunkPatch {
            gb: 4,
            chunk: 5,
            cells: 6,
            tuples: 7,
        },
        Event::ChunkInvalidate {
            gb: 4,
            chunk: 5,
            reason: "min_max",
        },
        Event::NodeDown { node: 3 },
        Event::NodeUp { node: u32::MAX },
        Event::QueryDone {
            query: 10,
            tenant: 2,
            gb: 3,
            complete_hit: true,
            chunks_hit: 1,
            chunks_computed: 2,
            chunks_missed: 3,
            chunks_degraded: 5,
            tuples_aggregated: 6,
            backend_tuples: 7,
            lookup_nodes: 8,
            table_writes: 9,
            backend_virtual_ms: 10.5,
            agg_virtual_ms: 0.25,
            lookup_virtual_ms: -0.0,
            update_virtual_ms: 1e-7,
            total_virtual_ms: 10.7500001,
            probe_ns: 11,
            apply_ns: 12,
            agg_ns: 13,
            lookup_ns: 14,
            update_ns: 15,
        },
    ]
}

fn render(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        event.write_json(&mut out);
        out.push('\n');
    }
    out
}

#[test]
fn writer_reproduces_the_golden_file_byte_for_byte() {
    assert_eq!(render(&samples()), GOLDEN);
}

#[test]
fn every_declared_kind_is_sampled_with_exactly_its_declared_fields() {
    let samples = samples();
    let lines: Vec<JsonValue> = GOLDEN
        .lines()
        .map(|l| JsonValue::parse(l).unwrap())
        .collect();
    assert_eq!(lines.len(), samples.len());
    for (kind, fields) in Event::SCHEMA {
        let mut seen = 0;
        for (event, line) in samples.iter().zip(&lines) {
            if line.get("type").and_then(JsonValue::as_str) != Some(kind) {
                continue;
            }
            seen += 1;
            assert_eq!(event.kind(), *kind);
            let JsonValue::Obj(pairs) = line else {
                panic!("{kind}: not an object");
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            let declared: Vec<&str> = std::iter::once("type")
                .chain(fields.iter().copied())
                .collect();
            assert_eq!(keys, declared, "{kind}");
        }
        assert!(seen > 0, "no sample for {kind}");
    }
}
