//! Reproduces paper Fig7 via the replacement-policy experiment.
use aggcache_bench::{args::Args, experiments::policy, trace::maybe_write_trace};

fn main() {
    let a = Args::parse();
    let d = policy::Opts::default();
    let opts = policy::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
        threads: a.threads(),
        ..d
    };
    let trace_out = a.value("trace-out");
    a.finish();
    let results = policy::run_experiment(opts);
    println!("{}", policy::render_fig7(&results));
    maybe_write_trace(trace_out, opts.threads, "fig7", opts.tuples, opts.seed);
}
