//! One workload, one process: the invocation the driver makes.
//!
//! `--trace 0` sets the workload up [`SETUP_REPEATS`] times, measures it
//! untraced and reports the end-to-end metrics. `--trace 1` measures it
//! twice at half the length — untraced, then traced — checks that tracing
//! changed no answer and no virtual-time number, and reports the per-layer
//! metrics; the difference between the two walls is the tracing overhead.

use crate::args::{Args, LAYERS};
use crate::report::{self, metrics_for, Metric, RunResult};
use crate::span::{self, totals_by_name, Spans};
use crate::stats::{median, percentile};
use crate::timed::FETCH;
use crate::workloads::{self, measure, setup, span_name, Outcome, RunConfig, Spec};
use crate::{inputs, layers};

/// The `command` of `BENCHMARK.json`; the driver appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "bench_all",
    "--",
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Runs `--workload name` as `args` ask and returns what to print.
pub fn run(name: &str, args: &Args) -> RunResult {
    if name == LAYERS {
        return layers_only(args);
    }
    let spec = workloads::spec(name).expect("Args::parse checked the workload name");
    let result = if args.trace {
        traced(spec, args)
    } else {
        untraced(spec, args)
    };
    print_metrics(&result);
    result
}

fn config(spec: &Spec, args: &Args, share: f64) -> RunConfig {
    RunConfig {
        inject_mismatch: args.inject_mismatch,
        ..RunConfig::new(
            spec,
            args.smoke,
            args.seconds,
            share,
            args.seed,
            &args.scratch_dir,
        )
    }
}

fn untraced(spec: &Spec, args: &Args) -> RunResult {
    let cfg = config(spec, args, 1.0);
    let spans = Spans::disabled();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up goes first, so the peak RSS is one
        // workload's and not two.
        drop(prepared.take());
        let p = setup(spec, &cfg, &spans);
        setups.push(p.setup_s);
        prepared = Some(p);
    }
    let prepared = prepared.expect("SETUP_REPEATS is at least one");
    let out = measure(spec, prepared, &spans);
    eprintln!(
        "{}: {} latency samples in {:.3} s, {} ingests in {:.3} s, {} oracle checks in {:.3} s off the clock",
        spec.name,
        out.latencies.len(),
        out.wall_ns as f64 / 1e9,
        out.ingest_ns.len(),
        out.ingest_ns.iter().sum::<u64>() as f64 / 1e9,
        out.oracle_checked,
        out.oracle_ns as f64 / 1e9,
    );
    let latency = |p| {
        out.latency_us(p)
            .unwrap_or_else(|e| panic!("{}: {e}; raise --seconds", spec.name))
    };
    let values = [
        ("qps", out.qps()),
        ("p99_us", latency(99.0)),
        ("hit_ratio", out.hit_ratio()),
        ("virtual_ms_per_query", out.virtual_ms_per_query()),
        ("setup_s", median(&mut setups)),
        (
            "rss_mb",
            workloads::peak_rss_mb().expect("VmHWM in /proc/self/status"),
        ),
    ];
    RunResult {
        correct: out.failed() == 0,
        attempted: out.attempted(),
        failed: out.failed(),
        metrics: metrics_for(report::END_TO_END.iter().map(|m| (m.name, m.unit)), &values),
    }
}

fn traced(spec: &Spec, args: &Args) -> RunResult {
    let cfg = config(spec, args, 0.5);
    let plain = {
        let spans = Spans::disabled();
        measure(spec, setup(spec, &cfg, &spans), &spans)
    };
    let spans = Spans::recording();
    let traced = measure(spec, setup(spec, &cfg, &spans), &spans);
    let layer_values =
        (!args.no_layers).then(|| layers::run(&inputs::dataset(cfg.tuples), &args.scratch_dir));

    let trace_path = args.out_dir.join(format!("trace_{}.json", spec.name));
    if let Err(e) = std::fs::write(&trace_path, span::trace_json(spec.name, &traced.spans)) {
        eprintln!("bench_all: cannot write {}: {e}", trace_path.display());
    }

    // Tracing must be invisible to everything but the clock.
    let same = plain.hit_ratio().to_bits() == traced.hit_ratio().to_bits()
        && plain.virtual_ms_per_query().to_bits() == traced.virtual_ms_per_query().to_bits();
    if !same {
        eprintln!(
            "{}: traced pass diverged: hit_ratio {} vs {}, virtual_ms_per_query {} vs {}",
            spec.name,
            plain.hit_ratio(),
            traced.hit_ratio(),
            plain.virtual_ms_per_query(),
            traced.virtual_ms_per_query()
        );
    }

    let mut metrics = metrics_for(
        report::TRACED.iter().map(|m| (m.name, m.unit)),
        &traced_values(&plain, &traced),
    );
    if let Some(values) = layer_values {
        metrics.extend(metrics_for(
            report::LAYERS.iter().map(|m| (m.name, m.unit)),
            &values,
        ));
    }
    let failed = plain.failed() + traced.failed();
    RunResult {
        correct: failed == 0 && same,
        attempted: plain.attempted() + traced.attempted(),
        failed,
        metrics,
    }
}

fn layers_only(args: &Args) -> RunResult {
    let dataset = inputs::dataset(inputs::tuples(args.smoke));
    let values = layers::run(&dataset, &args.scratch_dir);
    let result = RunResult {
        correct: true,
        attempted: values.len() as u64,
        failed: 0,
        metrics: metrics_for(report::LAYERS.iter().map(|m| (m.name, m.unit)), &values),
    };
    print_metrics(&result);
    result
}

/// `a / b`, or 0 where the workload never entered the layer.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer values of a traced pass. Self time = span − children;
/// the wall ns the program reports in `QueryMetrics` (`agg_ns`,
/// `update_ns`, `lookup_ns`) count as reported children of `apply` and
/// `probe_as`.
fn traced_values(plain: &Outcome, traced: &Outcome) -> Vec<(&'static str, f64)> {
    use span_name::*;
    let by_name = totals_by_name(&traced.spans);
    let total = |name: &str| by_name.get(name).map_or(0.0, |t| t.total_ns as f64);
    let count = |name: &str| by_name.get(name).map_or(0.0, |t| t.count as f64);
    let s = &traced.sums;
    let queries = traced.latencies.len() as f64;
    let per_query = |v: f64| v / queries;
    let ms = |ns: f64| ns / 1e6;

    let root = by_name.get(MEASURE).copied().unwrap_or_default();
    let measured_wall = root.total_ns as f64 - total(ORACLE);
    let apply_other = (total(APPLY) - s.agg_ns as f64 - s.update_ns as f64 - total(FETCH)).max(0.0);
    let chunks = (s.chunks_hit + s.chunks_computed + s.chunks_missed) as f64;
    let batches = traced.updates.delta_batches as f64;

    // `update_mix` ingests the same 25 batches in either pass; together
    // they are the 50 samples a p80 needs.
    let mut ingest_ns: Vec<u64> = plain
        .ingest_ns
        .iter()
        .chain(&traced.ingest_ns)
        .copied()
        .collect();
    ingest_ns.sort_unstable();
    let ingest_p80_us = if ingest_ns.is_empty() {
        0.0
    } else {
        percentile(&ingest_ns, 80.0).unwrap_or_else(|e| panic!("ingest latency: {e}")) as f64 / 1e3
    };
    let ingest_total_ns: u64 = ingest_ns.iter().sum();

    vec![
        ("core.manager.probe_ns", per_query(total(PROBE))),
        ("core.manager.apply_ns", per_query(total(APPLY))),
        ("core.manager.apply_other_ns", per_query(apply_other)),
        ("core.lookup.ns", per_query(s.lookup_ns as f64)),
        ("core.lookup.nodes", per_query(s.lookup_nodes as f64)),
        ("store.aggregate.ns", per_query(s.agg_ns as f64)),
        (
            "store.aggregate.tuples",
            per_query(s.tuples_aggregated as f64),
        ),
        (
            "store.aggregate.ns_per_tuple",
            ratio(s.agg_ns as f64, s.tuples_aggregated as f64),
        ),
        ("core.tables.update_ns", per_query(s.update_ns as f64)),
        ("core.tables.writes", per_query(s.table_writes as f64)),
        ("store.backend.fetch_ns", per_query(total(FETCH))),
        ("store.backend.fetches", per_query(count(FETCH))),
        ("store.backend.tuples", per_query(s.backend_tuples as f64)),
        (
            "store.backend.ns_per_tuple",
            ratio(total(FETCH), s.backend_tuples as f64),
        ),
        ("cache.chunks_hit", per_query(s.chunks_hit as f64)),
        ("cache.chunks_computed", per_query(s.chunks_computed as f64)),
        ("cache.chunks_missed", per_query(s.chunks_missed as f64)),
        (
            "cache.chunk_hit_ratio",
            ratio((s.chunks_hit + s.chunks_computed) as f64, chunks),
        ),
        ("cache.inserts", per_query(traced.inserts as f64)),
        ("cache.evictions", per_query(traced.evictions as f64)),
        (
            "store.spill.writes",
            per_query(traced.spill.spill_writes as f64),
        ),
        (
            "store.spill.reads",
            per_query(traced.spill.spill_reads as f64),
        ),
        (
            "store.spill.promotes",
            per_query(traced.spill.spill_promotes as f64),
        ),
        (
            "store.spill.bytes_written",
            per_query(traced.spill.bytes_written as f64),
        ),
        (
            "store.spill.bytes_read",
            per_query(traced.spill.bytes_read as f64),
        ),
        ("core.manager.checkpoint_ms", ms(total(CHECKPOINT))),
        ("core.manager.warm_start_ms", ms(total(WARM_START))),
        // The ingest rows are means per batch, not per query.
        (
            "core.manager.ingest_ns",
            ratio(total(INGEST), count(INGEST)),
        ),
        (
            "core.ingest.chunks_patched",
            ratio(traced.updates.chunks_patched as f64, batches),
        ),
        (
            "core.ingest.chunks_invalidated",
            ratio(traced.updates.chunks_invalidated as f64, batches),
        ),
        (
            "core.ingest.table_writes",
            ratio(traced.updates.table_writes as f64, batches),
        ),
        ("cluster.manager.run_ns", per_query(total(CLUSTER_RUN))),
        (
            "cluster.remote_chunks",
            per_query(traced.remote.remote_chunks as f64),
        ),
        (
            "cluster.bytes_on_wire",
            per_query(traced.remote.bytes_on_wire as f64),
        ),
        ("cluster.rebalance_ms", ms(total(REBALANCE))),
        ("cluster.rebalance_moved", traced.rebalance_moved as f64),
        (
            "harness.trace_overhead_pct",
            100.0 * (traced.wall_ns as f64 / plain.wall_ns as f64 - 1.0),
        ),
        (
            "harness.attributed_pct",
            100.0 * ratio(measured_wall - root.self_ns as f64, measured_wall),
        ),
        (
            "calib.backend_ns_per_vms",
            ratio(total(FETCH), s.backend_virtual_ms),
        ),
        (
            "calib.agg_ns_per_vms",
            ratio(s.agg_ns as f64, s.agg_virtual_ms),
        ),
        (
            "calib.lookup_ns_per_vms",
            ratio(s.lookup_ns as f64, s.lookup_virtual_ms),
        ),
        (
            "calib.update_ns_per_vms",
            ratio(s.update_ns as f64, s.update_virtual_ms),
        ),
        (
            "ingest_rps",
            ratio(
                (plain.ingest_records + traced.ingest_records) as f64,
                ingest_total_ns as f64 / 1e9,
            ),
        ),
        (
            "p50_us",
            plain
                .latency_us(50.0)
                .unwrap_or_else(|e| panic!("read latency: {e}")),
        ),
        ("ingest_p80_us", ingest_p80_us),
        ("disk_mb", traced.disk_bytes as f64 / 1e6),
    ]
}

/// Every metric by name with its unit, one per line, ahead of the result
/// line.
pub fn print_metrics(result: &RunResult) {
    let width = result
        .metrics
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(0);
    for Metric { name, value, unit } in &result.metrics {
        println!("{name:<width$}  {value:>16.4} {unit}");
    }
}
