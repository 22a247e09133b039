//! Reproduces paper Table 1 (lookup times).
use aggcache_bench::{args::Args, experiments::table1, trace::maybe_write_trace};

fn main() {
    let a = Args::parse();
    let d = table1::Opts::default();
    let opts = table1::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        ..d
    };
    let (trace_out, threads) = (a.value("trace-out"), a.threads());
    a.finish();
    println!("{}", table1::run(opts));
    maybe_write_trace(trace_out, threads, opts.tuples, opts.seed);
}
