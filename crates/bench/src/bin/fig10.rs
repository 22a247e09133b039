//! Reproduces paper Fig10 via the three-scheme comparison experiment.
use aggcache_bench::experiments::comparison;

fn main() {
    comparison::main_with("fig10", comparison::render_fig10);
}
