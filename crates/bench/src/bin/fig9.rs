//! Reproduces paper Fig9 via the three-scheme comparison experiment.
use aggcache_bench::experiments::comparison;

fn main() {
    comparison::main_with("fig9", comparison::render_fig9);
}
