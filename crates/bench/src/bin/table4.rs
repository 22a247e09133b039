//! Reproduces paper Table4 via the three-scheme comparison experiment.
use aggcache_bench::experiments::comparison;

fn main() {
    comparison::main_with("table4", comparison::render_table4);
}
