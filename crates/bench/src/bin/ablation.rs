//! Runs the design-choice ablations (DESIGN.md §7).
#![forbid(unsafe_code)]
use aggcache_bench::{args::Args, experiments::ablation};

fn main() {
    let a = Args::parse();
    let d = ablation::Opts::default();
    let opts = ablation::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
        ..d
    };
    a.finish();
    println!("{}", ablation::run(opts));
}
