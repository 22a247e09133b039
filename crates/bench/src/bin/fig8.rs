//! Reproduces paper Fig8 via the replacement-policy experiment.
use aggcache_bench::experiments::policy;

fn main() {
    policy::main_with("fig8", policy::render_fig8);
}
