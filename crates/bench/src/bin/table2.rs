//! Reproduces paper Table 2 (count/cost update times).
use aggcache_bench::{args::Args, experiments::table2, trace::maybe_write_trace};

fn main() {
    let a = Args::parse();
    let d = table2::Opts::default();
    let opts = table2::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
    };
    let (trace_out, threads) = (a.value("trace-out"), a.threads());
    a.finish();
    println!("{}", table2::run(opts));
    maybe_write_trace(trace_out, threads, "table2", opts.tuples, opts.seed);
}
