//! Reproduces §7.1 "Benefit of Aggregation" (≈8× cache-vs-backend).
#![forbid(unsafe_code)]
use aggcache_bench::{experiments::unit_a, rig::dataset_main};

fn main() {
    dataset_main(unit_a::run);
}
