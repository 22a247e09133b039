//! Reproduces paper Table 2 (count/cost update times).
#![forbid(unsafe_code)]
use aggcache_bench::{experiments::table2, rig::dataset_main};

fn main() {
    dataset_main(table2::run);
}
