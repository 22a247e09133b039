//! The cluster sweep (beyond the paper): [`cluster`] describes the experiment,
//! [`aggcache_bench::sweep`] its flags and outputs.
use aggcache_bench::{experiments::cluster, sweep::sweep_main};

fn main() {
    sweep_main(&cluster::SWEEP);
}
