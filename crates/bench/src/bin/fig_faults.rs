//! The fault sweep (beyond the paper): [`faults`] describes the experiment,
//! [`aggcache_bench::sweep`] its flags and outputs.
use aggcache_bench::{experiments::faults, sweep::sweep_main};

fn main() {
    sweep_main(&faults::SWEEP);
}
