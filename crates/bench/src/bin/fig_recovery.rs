//! The recovery sweep (beyond the paper): [`recovery`] describes the experiment,
//! [`aggcache_bench::sweep`] its flags and outputs.
#![forbid(unsafe_code)]
use aggcache_bench::{experiments::recovery, sweep::sweep_main};

fn main() {
    sweep_main(&recovery::SWEEP);
}
