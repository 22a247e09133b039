//! Reproduces paper Table 3 (space overhead).
use aggcache_bench::{experiments::table3, rig::dataset_main};

fn main() {
    dataset_main(table3::run);
}
