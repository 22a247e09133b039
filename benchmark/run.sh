#!/usr/bin/env bash
# Build, run and validate the whole benchmark in one step:
#
#   benchmark/run.sh [--seed S] [--aa] [--smoke] ...
#
# Runs the crate's tests (which include a --smoke run of all six
# workloads and the BENCHMARK.json consistency check), then `bench_all`
# with whatever arguments were given. Exits non-zero if a test fails, an
# answer is wrong or a cross-check does not hold.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"
exec cargo run --release --offline --quiet --manifest-path "$manifest" --bin bench_all -- "$@"
