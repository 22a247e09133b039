//! Cold-start sweep (beyond the paper): restart with vs without the
//! persistent spill tier — per-batch hit-ratio curves, queries to reach
//! a target complete-hit ratio, and warm-start recovery cost.
//!
//! `--smoke` runs the CI configuration (tiny dataset, short streams);
//! `--json-out <path>` / `--csv-out <path>` write the virtual-time sweep
//! results — bit-identical across runs and `--threads` settings. Spill
//! data lives in process-unique temp directories that are removed on
//! exit and never appear in any output.
//!
//! Like `fig_faults`, `--trace-out <path>` traces the stream that
//! actually exercises this experiment's events: a *warm restart* over a
//! checkpointed spill directory, so `warm_start`, `spill_read`,
//! `spill_promote` and `spill_write` all appear in the document.
use aggcache_bench::args::Args;
use aggcache_bench::experiments::coldstart;
use aggcache_bench::rig::apb_dataset;
use aggcache_bench::trace::TraceSink;

fn main() {
    let a = Args::parse();
    let d = if a.flag("smoke") {
        coldstart::Opts::smoke()
    } else {
        coldstart::Opts::default()
    };
    let opts = coldstart::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
        threads: a.threads(),
        ..d
    };
    let (json_out, csv_out) = (a.value("json-out"), a.value("csv-out"));
    let trace_out = a.value("trace-out");
    a.finish();
    let results = coldstart::run_experiment(opts, "bin");
    println!("{}", coldstart::render(&results));

    if let Some(path) = json_out {
        std::fs::write(path, coldstart::to_json(opts, &results))
            .unwrap_or_else(|e| panic!("writing JSON to {path}: {e}"));
        eprintln!("json: {} cells -> {path}", results.cells.len());
    }
    if let Some(path) = csv_out {
        std::fs::write(path, coldstart::to_csv(&results))
            .unwrap_or_else(|e| panic!("writing CSV to {path}: {e}"));
        eprintln!("csv: {} cells -> {path}", results.cells.len());
    }
    if let Some(path) = trace_out {
        let dataset = apb_dataset(opts.tuples, opts.seed);
        let sink = TraceSink::new();
        let root =
            std::env::temp_dir().join(format!("aggcache-coldstart-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cell = coldstart::run_cell_traced(
            &dataset,
            opts,
            true,
            opts.cache_bytes,
            &root.join("traced"),
            Some(sink.tracer()),
        );
        let _ = std::fs::remove_dir_all(&root);
        let meta = [
            ("experiment", "fig_coldstart".to_string()),
            ("tuples", opts.tuples.to_string()),
            ("seed", opts.seed.to_string()),
            ("warmup", opts.warmup.to_string()),
            ("queries", opts.queries.to_string()),
            ("workload_seed", opts.workload_seed.to_string()),
            ("cache_bytes", opts.cache_bytes.to_string()),
            ("strategy", "vcmc".to_string()),
            ("policy", "two_level".to_string()),
            ("threads", opts.threads.to_string()),
            ("warm_start_chunks", cell.warm_start_chunks.to_string()),
            ("spill_reads", cell.spill_reads.to_string()),
            ("spill_writes", cell.spill_writes.to_string()),
        ];
        sink.write(path, &meta)
            .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
        eprintln!(
            "trace: {} events from a warm restart of {} queries -> {path}",
            sink.events_recorded(),
            opts.queries
        );
    }
}
