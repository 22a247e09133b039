//! Reproduces paper Fig7 via the replacement-policy experiment.
use aggcache_bench::experiments::policy;

fn main() {
    policy::main_with("fig7", policy::render_fig7);
}
