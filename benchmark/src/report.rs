//! The metric vocabulary, the result line the driver reads and the
//! `BENCHMARK.json` document, all from one set of tables so they cannot
//! drift apart.

use aggcache_obs::json::{push_f64, push_str, JsonValue};
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

/// A metric of one layer; layer = module name. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload with `--trace 0`.
///
/// The bounds are set from the spread of ten runs with ten seeds on the
/// 2-core reference box (interquartile range over median): the timing
/// metrics move 1 to 9 % (`qps`) and 2 to 11 % (`p99_us`) between runs of
/// one binary, whatever the seed, and their medians drift by up to 12 %
/// from one quarter of an hour to the next, so a tighter bound would
/// reject the box's own noise; the counts move 0.1 to 3 %.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "hit_ratio",
        unit: "fraction",
        better: Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "virtual_ms_per_query",
        unit: "vms",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of the traced pass: means per query unless the unit
/// says otherwise; 0 where a workload never enters the layer.
pub const TRACED: &[PerLayer] = &[
    layer("core.manager.probe_ns", "ns", Lower),
    layer("core.manager.apply_ns", "ns", Lower),
    layer("core.manager.apply_other_ns", "ns", Lower),
    layer("core.lookup.ns", "ns", Lower),
    layer("core.lookup.nodes", "count", Lower),
    layer("store.aggregate.ns", "ns", Lower),
    layer("store.aggregate.tuples", "count", Lower),
    layer("store.aggregate.ns_per_tuple", "ns", Lower),
    layer("core.tables.update_ns", "ns", Lower),
    layer("core.tables.writes", "count", Lower),
    layer("store.backend.fetch_ns", "ns", Lower),
    layer("store.backend.fetches", "count", Lower),
    layer("store.backend.tuples", "count", Lower),
    layer("store.backend.ns_per_tuple", "ns", Lower),
    layer("cache.chunks_hit", "count", Higher),
    layer("cache.chunks_computed", "count", Higher),
    layer("cache.chunks_missed", "count", Lower),
    layer("cache.chunk_hit_ratio", "fraction", Higher),
    layer("cache.inserts", "count", Lower),
    layer("cache.evictions", "count", Lower),
    layer("store.spill.writes", "count", Lower),
    layer("store.spill.reads", "count", Lower),
    layer("store.spill.promotes", "count", Higher),
    layer("store.spill.bytes_written", "B", Lower),
    layer("store.spill.bytes_read", "B", Lower),
    layer("core.manager.checkpoint_ms", "ms", Lower),
    layer("core.manager.warm_start_ms", "ms", Lower),
    layer("core.manager.ingest_ns", "ns", Lower),
    layer("core.ingest.chunks_patched", "count", Higher),
    layer("core.ingest.chunks_invalidated", "count", Lower),
    layer("core.ingest.table_writes", "count", Lower),
    layer("cluster.manager.run_ns", "ns", Lower),
    layer("cluster.remote_chunks", "count", Higher),
    layer("cluster.bytes_on_wire", "B", Lower),
    layer("cluster.rebalance_ms", "ms", Lower),
    layer("cluster.rebalance_moved", "count", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.attributed_pct", "%", Higher),
    layer("calib.backend_ns_per_vms", "ns/vms", Lower),
    layer("calib.agg_ns_per_vms", "ns/vms", Lower),
    layer("calib.lookup_ns_per_vms", "ns/vms", Lower),
    layer("calib.update_ns_per_vms", "ns/vms", Lower),
    // The median latency sits on the cliff between the ~10 us direct-hit
    // mode and the ms-scale computed mode: it moves 5 to 9 % between two
    // runs of one binary, so it cannot hold a bound and is reported here,
    // from the untraced half of the traced mode.
    layer("p50_us", "us", Lower),
    // Seen by a user of one workload only, so they cannot be end-to-end
    // metrics under the driver's contract (every workload must report
    // every end-to-end metric, never 0).
    layer("ingest_rps", "records/s", Higher),
    layer("ingest_p80_us", "us", Lower),
    layer("disk_mb", "MB", Lower),
];

/// Per-layer metrics of the `layers` pass: fixed inputs, public functions
/// only, median of at least 20 batches.
pub const LAYERS: &[PerLayer] = &[
    layer("core.lookup.noagg_ns", "ns", Lower),
    layer("core.lookup.esm_ns", "ns", Lower),
    layer("core.lookup.esmc_ns", "ns", Lower),
    layer("core.lookup.vcm_ns", "ns", Lower),
    layer("core.lookup.vcmc_ns", "ns", Lower),
    layer("store.aggregate.add_chunk_ns_per_tuple", "ns", Lower),
    layer("store.aggregate.finish_ns_per_cell", "ns", Lower),
    layer("store.aggregate.parallel_t2_ns_per_tuple", "ns", Lower),
    layer("core.executor.plan_ns_per_tuple", "ns", Lower),
    layer("core.executor.plan_t2_ns_per_tuple", "ns", Lower),
    layer("core.run_batch16.t1_ns_per_query", "ns", Lower),
    layer("core.run_batch16.t2_ns_per_query", "ns", Lower),
    layer("cache.cache.get_ns", "ns", Lower),
    layer("cache.cache.insert_ns", "ns", Lower),
    layer("cache.cache.insert_evict_ns", "ns", Lower),
    layer("cache.clock.find_victim_ns", "ns", Lower),
    layer("cache.admission.tinylfu_insert_ns", "ns", Lower),
    layer("core.counts.on_insert_ns", "ns", Lower),
    layer("core.counts.on_evict_ns", "ns", Lower),
    layer("core.cost.on_insert_ns", "ns", Lower),
    layer("core.cost.on_evict_ns", "ns", Lower),
    layer("core.counts.sparse_on_insert_ns", "ns", Lower),
    layer("core.cost.sparse_on_insert_ns", "ns", Lower),
    layer("chunks.hash.packed_key_ns", "ns", Lower),
    layer("chunks.grid.parent_chunks_ns", "ns", Lower),
    layer("store.spill.encode_mb_s", "MB/s", Higher),
    layer("store.spill.decode_mb_s", "MB/s", Higher),
    layer("store.spill.write_mb_s", "MB/s", Higher),
    layer("store.spill.read_mb_s", "MB/s", Higher),
    layer("store.spill.bytes_per_tuple", "B", Lower),
    layer("store.backend.fetch_ns_per_tuple", "ns", Lower),
    layer("store.fact.apply_delta_ns_per_record", "ns", Lower),
    layer("core.manager.ingest_ns_per_record", "ns", Lower),
    layer("cluster.ring.primary_ns", "ns", Lower),
    layer("cluster.ring.owners_ns", "ns", Lower),
    layer("obs.tracer.recording_emit_ns", "ns", Lower),
    layer("workload.stream.next_ns", "ns", Lower),
    layer("gen.apb1.build_ms", "ms", Lower),
];

/// Every per-layer metric, traced pass first.
pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    TRACED.iter().chain(LAYERS)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// The outcome of one run of one workload: what the last line of standard
/// output carries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every answer checked was right, no operation failed and every
    /// cross-check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// The measured values.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The value of a metric by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON object the driver parses.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.metrics.len() * 64);
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str(&mut out, &m.name);
            out.push_str(": {\"value\": ");
            push_f64(&mut out, m.value);
            out.push_str(", \"unit\": ");
            push_str(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`RunResult::to_json`].
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(line).map_err(|e| format!("not JSON: {e:?}"))?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing key {k:?}"));
        let count = |k: &str| -> Result<u64, String> {
            let v = field(k)?
                .as_f64()
                .ok_or_else(|| format!("{k} is not a number"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("{k} is not a whole number: {v}"));
            }
            Ok(v as u64)
        };
        let JsonValue::Obj(entries) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let metrics = entries
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("{name}: no numeric value"))?,
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("{name}: no unit"))?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Pairs measured values with the units of their table entries; a missing
/// or non-finite value is a harness bug.
///
/// # Panics
/// If `values` lacks a name of `names`, holds one not in it, or holds a
/// non-finite number.
pub fn metrics_for<'a>(
    names: impl Iterator<Item = (&'a str, &'a str)>,
    values: &[(&str, f64)],
) -> Vec<Metric> {
    let mut used = 0;
    let out: Vec<Metric> = names
        .map(|(name, unit)| {
            let (_, value) = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            used += 1;
            Metric {
                name: name.to_string(),
                value: *value,
                unit: unit.to_string(),
            }
        })
        .collect();
    assert_eq!(used, values.len(), "a measured value has no table entry");
    out
}

/// A name, as the contract spells it: starts with a letter or digit, at
/// most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A unit: at most 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// The `BENCHMARK.json` document for these tables and `workloads`
/// (`(name, why)` pairs).
pub fn benchmark_json(command: &[&str], run_seconds: u64, workloads: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n  \"command\": [");
    for (i, c) in command.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str(&mut out, c);
    }
    let _ = write!(
        out,
        "],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n"
    );
    for (i, (name, why)) in workloads.iter().enumerate() {
        out.push_str("    {\"name\": ");
        push_str(&mut out, name);
        out.push_str(", \"why\": ");
        push_str(&mut out, why);
        out.push_str(if i + 1 < workloads.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
        out.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let n = per_layer().count();
    for (i, m) in per_layer().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        );
        out.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().count()));
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(per_layer().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }

    #[test]
    fn name_and_unit_charsets() {
        for ok in ["qps", "core.lookup.vcmc_ns", "p99_us", "4x", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "%", "records/s", "ns/vms", "MB/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let r = RunResult {
            correct: true,
            attempted: 10_100,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "qps".into(),
                    value: 1_067.312_345_678_901_2,
                    unit: "1/s".into(),
                },
                Metric {
                    name: "hit_ratio".into(),
                    value: 0.784_250_000_000_000_1,
                    unit: "fraction".into(),
                },
                Metric {
                    name: "cache.evictions".into(),
                    value: 0.0,
                    unit: "count".into(),
                },
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = RunResult::parse(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            back.value("hit_ratio").unwrap().to_bits(),
            0.784_250_000_000_000_1f64.to_bits()
        );
        // Exactly the four keys of the contract.
        let JsonValue::Obj(keys) = JsonValue::parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<_> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(RunResult::parse("nope").is_err());
        assert!(RunResult::parse("{\"correct\": true}").is_err());
        assert!(RunResult::parse(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_harness_bug() {
        metrics_for(
            [("qps", "1/s"), ("p99_us", "us")].into_iter(),
            &[("qps", 1.0)],
        );
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys() {
        let doc = benchmark_json(&["cargo", "run"], 8, &[("a", "why a"), ("b", "why \"b\"")]);
        assert!(doc.len() <= 64 * 1024);
        let JsonValue::Obj(top) = JsonValue::parse(&doc).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<_> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let doc = JsonValue::parse(&doc).unwrap();
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for m in e2e {
            let JsonValue::Obj(fields) = m else { panic!() };
            let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
        }
        for m in doc.get("per_layer").unwrap().as_arr().unwrap() {
            let JsonValue::Obj(fields) = m else { panic!() };
            let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "unit", "better"]);
        }
        let w = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(w[1].get("why").unwrap().as_str(), Some("why \"b\""));
    }
}
