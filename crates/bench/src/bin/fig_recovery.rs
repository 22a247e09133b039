//! Recovery sweep (beyond the paper): self-healing storage under
//! injected disk faults — corruption rate × scrub interval vs. answered
//! queries, quarantines and warm-restart recovery, with every answer
//! checked against a brute-force backend oracle.
//!
//! `--smoke` runs the CI configuration (tiny dataset, short streams);
//! `--json-out <path>` / `--csv-out <path>` write the virtual-time sweep
//! results — bit-identical across runs and `--threads` settings. The
//! process exits non-zero if any cell reports an oracle mismatch. Spill
//! data lives in process-unique temp directories that are removed on
//! exit and never appear in any output.
//!
//! `--trace-out <path>` traces the stream that exercises this
//! experiment's events: a faulty warm restart with scrubbing on, so
//! `spill_corrupt`, `spill_quarantine` and `scrub_pass` appear in the
//! document.
use aggcache_bench::args::Args;
use aggcache_bench::experiments::recovery;
use aggcache_bench::rig::apb_dataset;
use aggcache_bench::trace::TraceSink;

fn main() {
    let a = Args::parse();
    let d = if a.flag("smoke") {
        recovery::Opts::smoke()
    } else {
        recovery::Opts::default()
    };
    let opts = recovery::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
        threads: a.threads(),
        ..d
    };
    let (json_out, csv_out) = (a.value("json-out"), a.value("csv-out"));
    let trace_out = a.value("trace-out");
    a.finish();
    let results = recovery::run_experiment(opts, "bin");
    println!("{}", recovery::render(&results));
    let mismatches: u64 = results.cells.iter().map(|c| c.oracle_mismatches).sum();
    assert_eq!(
        mismatches, 0,
        "self-healing contract violated: {mismatches} answer(s) diverged from the oracle"
    );

    if let Some(path) = json_out {
        std::fs::write(path, recovery::to_json(opts, &results))
            .unwrap_or_else(|e| panic!("writing JSON to {path}: {e}"));
        eprintln!("json: {} cells -> {path}", results.cells.len());
    }
    if let Some(path) = csv_out {
        std::fs::write(path, recovery::to_csv(&results))
            .unwrap_or_else(|e| panic!("writing CSV to {path}: {e}"));
        eprintln!("csv: {} cells -> {path}", results.cells.len());
    }
    if let Some(path) = trace_out {
        let dataset = apb_dataset(opts.tuples, opts.seed);
        let sink = TraceSink::new();
        let root =
            std::env::temp_dir().join(format!("aggcache-recovery-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cell = recovery::run_cell_traced(
            &dataset,
            opts,
            0.2,
            true,
            &root.join("traced"),
            Some(sink.tracer()),
        );
        let _ = std::fs::remove_dir_all(&root);
        let meta = [
            ("experiment", "fig_recovery".to_string()),
            ("tuples", opts.tuples.to_string()),
            ("seed", opts.seed.to_string()),
            ("warmup", opts.warmup.to_string()),
            ("queries", opts.queries.to_string()),
            ("workload_seed", opts.workload_seed.to_string()),
            ("cache_bytes", opts.cache_bytes.to_string()),
            ("fault_rate", "0.2".to_string()),
            ("strategy", "vcmc".to_string()),
            ("policy", "two_level".to_string()),
            ("threads", opts.threads.to_string()),
            ("corrupt", cell.corrupt.to_string()),
            ("quarantined", cell.quarantined.to_string()),
            ("scrub_passes", cell.scrub_passes.to_string()),
        ];
        sink.write(path, &meta)
            .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
        eprintln!(
            "trace: {} events from a faulty warm restart of {} queries -> {path}",
            sink.events_recorded(),
            opts.queries
        );
    }
}
