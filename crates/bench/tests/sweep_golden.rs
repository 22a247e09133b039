//! Every exporting sweep at `Opts::smoke()` against its golden files,
//! byte for byte: `to_json` against `golden/fig_<name>_smoke.json`,
//! `to_csv` against `golden/fig_<name>_smoke.csv`. A PR that means to
//! move one regenerates both with
//!
//! ```text
//! cargo run --release -p aggcache-bench --bin fig_<name> -- --smoke \
//!   --json-out crates/bench/tests/golden/fig_<name>_smoke.json \
//!   --csv-out crates/bench/tests/golden/fig_<name>_smoke.csv
//! ```

use aggcache_bench::experiments::{cluster, coldstart, recovery, tenants, updates};
use aggcache_bench::sweep::Sweep;

fn assert_golden<O: Copy, R>(name: &str, sweep: &Sweep<O, R>, smoke: O) {
    let results = (sweep.run)(smoke);
    let (json, csv, _) = sweep.exports.expect("an exporting sweep");
    for (ext, got) in [("json", json(smoke, &results)), ("csv", csv(&results))] {
        let path = format!(
            "{}/tests/golden/fig_{name}_smoke.{ext}",
            env!("CARGO_MANIFEST_DIR")
        );
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(got == want, "fig_{name} --smoke differs from {path}");
    }
}

#[test]
fn fig_tenants() {
    assert_golden("tenants", &tenants::SWEEP, tenants::Opts::smoke());
}

#[test]
fn fig_cluster() {
    assert_golden("cluster", &cluster::SWEEP, cluster::Opts::smoke());
}

#[test]
fn fig_coldstart() {
    assert_golden("coldstart", &coldstart::SWEEP, coldstart::Opts::smoke());
}

#[test]
fn fig_recovery() {
    assert_golden("recovery", &recovery::SWEEP, recovery::Opts::smoke());
}

#[test]
fn fig_updates() {
    assert_golden("updates", &updates::SWEEP, updates::Opts::smoke());
}
