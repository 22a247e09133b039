//! Reproduces paper Table4 as a view of the §7.2 stream experiment.
use aggcache_bench::experiments::streams;

fn main() {
    streams::main_with(&streams::COMPARISON, streams::render_table4);
}
