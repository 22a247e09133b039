//! Reproduces paper Table 1 (lookup times).
#![forbid(unsafe_code)]
use aggcache_bench::{args::Args, experiments::table1, rig::DatasetOpts, trace::maybe_write_trace};

fn main() {
    let a = Args::parse();
    let d = DatasetOpts::default();
    let opts = DatasetOpts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
    };
    let trace_out = a.value("trace-out");
    a.finish();
    println!("{}", table1::run(opts));
    maybe_write_trace(trace_out, opts.tuples, opts.seed);
}
