//! Reproduces paper Fig9 as a view of the §7.2 stream experiment.
#![forbid(unsafe_code)]
use aggcache_bench::experiments::streams;

fn main() {
    streams::main_with(&streams::COMPARISON, streams::render_fig9);
}
