//! The multi-tenant sweep (beyond the paper): [`tenants`] describes the experiment,
//! [`aggcache_bench::sweep`] its flags and outputs.
#![forbid(unsafe_code)]
use aggcache_bench::{experiments::tenants, sweep::sweep_main};

fn main() {
    sweep_main(&tenants::SWEEP);
}
