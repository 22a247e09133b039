//! Runs the design-choice ablations as a view of the §7.2 stream experiment.
#![forbid(unsafe_code)]
use aggcache_bench::experiments::streams;

fn main() {
    streams::main_with(&streams::ABLATION, streams::render_ablation);
}
