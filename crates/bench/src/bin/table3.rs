//! Reproduces paper Table 3 (space overhead).
use aggcache_bench::{args::Args, experiments::table3, trace::maybe_write_trace};

fn main() {
    let a = Args::parse();
    let d = table3::Opts::default();
    let opts = table3::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
    };
    let (trace_out, threads) = (a.value("trace-out"), a.threads());
    a.finish();
    println!("{}", table3::run(opts));
    maybe_write_trace(trace_out, threads, "table3", opts.tuples, opts.seed);
}
