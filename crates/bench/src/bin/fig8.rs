//! Reproduces paper Fig8 as a view of the §7.2 stream experiment.
#![forbid(unsafe_code)]
use aggcache_bench::experiments::streams;

fn main() {
    streams::main_with(&streams::POLICIES, streams::render_fig8);
}
