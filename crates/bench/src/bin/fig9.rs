//! Reproduces paper Fig9 via the three-scheme comparison experiment.
use aggcache_bench::{args::Args, experiments::comparison, trace::maybe_write_trace};

fn main() {
    let a = Args::parse();
    let d = comparison::Opts::default();
    let opts = comparison::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
        threads: a.threads(),
        ..d
    };
    let trace_out = a.value("trace-out");
    a.finish();
    let results = comparison::run_experiment(opts);
    println!("{}", comparison::render_fig9(&results));
    maybe_write_trace(trace_out, opts.threads, "fig9", opts.tuples, opts.seed);
}
