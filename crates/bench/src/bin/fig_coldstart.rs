//! The cold-start sweep (beyond the paper): [`coldstart`] describes the experiment,
//! [`aggcache_bench::sweep`] its flags and outputs.
use aggcache_bench::{experiments::coldstart, sweep::sweep_main};

fn main() {
    sweep_main(&coldstart::SWEEP);
}
