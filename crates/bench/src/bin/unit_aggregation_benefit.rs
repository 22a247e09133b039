//! Reproduces §7.1 "Benefit of Aggregation" (≈8× cache-vs-backend).
use aggcache_bench::{args::Args, experiments::unit_a};

fn main() {
    let a = Args::parse();
    let opts = unit_a::Opts {
        tuples: a.get("tuples", unit_a::Opts::default().tuples),
        seed: a.get("seed", unit_a::Opts::default().seed),
        cache_per_tuple_us: a.get(
            "cache-per-tuple-us",
            unit_a::Opts::default().cache_per_tuple_us,
        ),
    };
    a.finish();
    println!("{}", unit_a::run(opts));
}
