//! Update sweep (beyond the paper): base-data delta batches propagated up
//! the lattice — read/write mix × lookup strategy vs. hit ratio and
//! maintenance cost, with every post-update answer checked against a
//! brute-force shadow backend and the empty-delta transparency contract
//! verified across all five strategies at one and four threads.
//!
//! `--smoke` runs the CI configuration (tiny dataset, short streams);
//! `--json-out <path>` / `--csv-out <path>` write the virtual-time sweep
//! results — bit-identical across runs and `--threads` settings. The
//! process exits non-zero if any cell reports an oracle mismatch or the
//! transparency check reports a divergence.
//!
//! `--trace-out <path>` traces one write-heavy VCMC cell, so
//! `delta_ingest`, `chunk_patch` and `chunk_invalidate` appear in the
//! document.
use aggcache_bench::args::Args;
use aggcache_bench::experiments::updates;
use aggcache_bench::rig::apb_dataset;
use aggcache_bench::trace::TraceSink;
use aggcache_core::Strategy;

fn main() {
    let a = Args::parse();
    let d = if a.flag("smoke") {
        updates::Opts::smoke()
    } else {
        updates::Opts::default()
    };
    let opts = updates::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
        threads: a.threads(),
        ..d
    };
    let (json_out, csv_out) = (a.value("json-out"), a.value("csv-out"));
    let trace_out = a.value("trace-out");
    a.finish();
    let results = updates::run_experiment(opts);
    println!("{}", updates::render(&results));
    let mismatches: u64 = results.cells.iter().map(|c| c.oracle_mismatches).sum();
    assert_eq!(
        mismatches, 0,
        "update propagation violated: {mismatches} answer(s) diverged from the oracle"
    );
    assert_eq!(
        results.transparency_diffs, 0,
        "empty-delta transparency violated: {} divergence(s) from the no-update session",
        results.transparency_diffs
    );

    if let Some(path) = json_out {
        std::fs::write(path, updates::to_json(opts, &results))
            .unwrap_or_else(|e| panic!("writing JSON to {path}: {e}"));
        eprintln!("json: {} cells -> {path}", results.cells.len());
    }
    if let Some(path) = csv_out {
        std::fs::write(path, updates::to_csv(&results))
            .unwrap_or_else(|e| panic!("writing CSV to {path}: {e}"));
        eprintln!("csv: {} cells -> {path}", results.cells.len());
    }
    if let Some(path) = trace_out {
        let dataset = apb_dataset(opts.tuples, opts.seed);
        let sink = TraceSink::new();
        let cell =
            updates::run_cell_traced(&dataset, opts, 0.5, Strategy::Vcmc, Some(sink.tracer()));
        let meta = [
            ("experiment", "fig_updates".to_string()),
            ("tuples", opts.tuples.to_string()),
            ("seed", opts.seed.to_string()),
            ("queries", opts.queries.to_string()),
            ("workload_seed", opts.workload_seed.to_string()),
            ("cache_bytes", opts.cache_bytes.to_string()),
            ("write_mix", "0.5".to_string()),
            ("strategy", "vcmc".to_string()),
            ("policy", "two_level".to_string()),
            ("threads", opts.threads.to_string()),
            ("chunks_patched", cell.updates.chunks_patched.to_string()),
            (
                "chunks_invalidated",
                cell.updates.chunks_invalidated.to_string(),
            ),
        ];
        sink.write(path, &meta)
            .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
        eprintln!(
            "trace: {} events from a write-heavy stream of {} queries -> {path}",
            sink.events_recorded(),
            opts.queries
        );
    }
}
