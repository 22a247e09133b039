//! Reproduces §7.1 "Aggregation Cost Optimization" (≈10× path spread).
use aggcache_bench::{args::Args, experiments::unit_b};

fn main() {
    let a = Args::parse();
    let opts = unit_b::Opts {
        tuples: a.get("tuples", unit_b::Opts::default().tuples),
        seed: a.get("seed", unit_b::Opts::default().seed),
    };
    a.finish();
    println!("{}", unit_b::run(opts));
}
