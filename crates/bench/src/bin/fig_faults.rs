//! Fault sweep (beyond the paper): backend fault rate vs. how the active
//! cache answers — backend-assisted, degraded from cache, or failed.
//!
//! Unlike the figure binaries, `--trace-out <path>` here traces a *faulty*
//! stream (fault rate 0.8) so the trace exercises the fault events
//! (`fetch_retry`, `fetch_timeout`, `fetch_failed`, `degraded_serve`).
use aggcache_bench::experiments::faults;
use aggcache_bench::{args::Args, rig::apb_dataset, trace::TraceSink};

/// The fault rate of the representative traced stream — high enough that
/// retries, failures and degraded serves all appear in the trace.
const TRACE_RATE: f64 = 0.8;

fn main() {
    let a = Args::parse();
    let d = faults::Opts::default();
    let tuples = a.get("tuples", d.tuples);
    let opts = faults::Opts {
        tuples,
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
        fault_seed: a.get("fault-seed", d.fault_seed),
        attempts: a.get("attempts", d.attempts),
        cache_bytes: faults::Opts::scaled_cache_bytes(tuples),
        node_budget: a.get("node-budget", d.node_budget),
        threads: a.threads(),
        ..d
    };
    let trace_out = a.value("trace-out");
    a.finish();
    let results = faults::run_experiment(opts);
    println!("{}", faults::render(&results));

    if let Some(path) = trace_out {
        let dataset = apb_dataset(opts.tuples, opts.seed);
        let sink = TraceSink::new();
        let run = faults::run_stream_faulty(&dataset, opts, TRACE_RATE, Some(sink.tracer()));
        let meta = [
            ("experiment", "fig_faults".to_string()),
            ("tuples", opts.tuples.to_string()),
            ("seed", opts.seed.to_string()),
            ("queries", opts.queries.to_string()),
            ("workload_seed", opts.workload_seed.to_string()),
            ("fault_seed", opts.fault_seed.to_string()),
            ("fault_rate", TRACE_RATE.to_string()),
            ("attempts", opts.attempts.to_string()),
            ("cache_bytes", opts.cache_bytes.to_string()),
            ("node_budget", opts.node_budget.to_string()),
            ("strategy", "esmc".to_string()),
            ("policy", "two_level".to_string()),
            ("threads", opts.threads.to_string()),
            ("answered", run.answered.to_string()),
            ("degraded_queries", run.degraded_queries.to_string()),
            ("failed", run.failed.to_string()),
        ];
        sink.write(path, &meta)
            .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
        eprintln!(
            "trace: {} events from {} queries at fault rate {TRACE_RATE} -> {path}",
            sink.events_recorded(),
            opts.queries
        );
    }
}
