//! The update sweep (beyond the paper): [`updates`] describes the experiment,
//! [`aggcache_bench::sweep`] its flags and outputs.
use aggcache_bench::{experiments::updates, sweep::sweep_main};

fn main() {
    sweep_main(&updates::SWEEP);
}
