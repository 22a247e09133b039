//! The one `main` of the five beyond-paper sweep binaries (`fig_*`).
//!
//! A sweep module declares what is its own in a [`Sweep`] — how flags map
//! to its `Opts`, its run, its table, its contract, what it exports and
//! which cell it traces; [`sweep_main`] owns the rest: argument reading,
//! the usage error, printing, `--json-out` / `--trace-out` and their
//! receipts on stderr. [`Sweep::report`] is the one place a
//! table and its contract verdict come from, for `sweep_main` and
//! `repro_all` alike.
//!
//! `--smoke` runs a sweep's CI configuration (tiny dataset, short
//! streams); `--json-out <path>` writes its virtual-time results as one
//! JSON document — bit-identical across runs, and pinned by the golden
//! files under `crates/bench/tests/golden/`. Spill data lives in
//! process-unique temp directories that are removed on exit and never
//! appear in any output.

use crate::args::Args;
use crate::trace::{write_trace, Meta};
use aggcache_obs::Tracer;
use std::sync::Arc;

/// One sweep experiment, as [`sweep_main`] drives it.
pub struct Sweep<O, R> {
    /// Reads the sweep's flags into its options.
    pub(crate) opts: fn(&Args) -> O,
    /// Runs every cell.
    pub(crate) run: fn(O) -> R,
    /// The table printed on stdout.
    pub(crate) render: fn(&R) -> String,
    /// The sweep's contract over its results (oracle mismatches,
    /// transparency divergences), if it has one; a violation is printed
    /// and the process exits 1 before anything is written.
    pub(crate) check: Option<Check<R>>,
    /// `--json-out`, for the sweeps that have it: the JSON document.
    pub(crate) exports: Option<fn(O, &R) -> String>,
    /// `--trace-out`, for the sweeps whose events no paper stream emits:
    /// runs the one cell that emits them with the tracer attached.
    pub(crate) traced: Option<TracedCell<O>>,
}

/// A sweep's contract: the violation, if its results show one.
pub(crate) type Check<R> = fn(&R) -> Result<(), String>;

/// Runs a sweep's traced cell with the tracer attached; returns its `meta`.
pub(crate) type TracedCell<O> = fn(O, Arc<dyn Tracer>) -> Meta;

/// The flag → `Opts` mapping of the four sweeps with a `--smoke`
/// configuration: `--smoke` picks `Opts::smoke()` over the default, then
/// `--tuples --seed --queries` override their fields.
macro_rules! smoke_opts {
    ($Opts:ident) => {
        |a| {
            let mut o = if a.flag("smoke") {
                $Opts::smoke()
            } else {
                $Opts::default()
            };
            o.tuples = a.get("tuples", o.tuples);
            o.seed = a.get("seed", o.seed);
            o.queries = a.get("queries", o.queries);
            o
        }
    };
}
pub(crate) use smoke_opts;

impl<O, R> Sweep<O, R> {
    /// The sweep's table over `results`, and its contract's verdict on the
    /// same results (`Ok` for a sweep without a contract).
    pub fn report(&self, results: &R) -> (String, Result<(), String>) {
        let verdict = self.check.map_or(Ok(()), |check| check(results));
        ((self.render)(results), verdict)
    }
}

/// Parses the command line, runs `sweep` and writes what was asked for. A
/// flag the sweep does not read is a usage error (exit 2), so a sweep
/// without exports or a traced cell refuses those flags.
pub fn sweep_main<O: Copy, R>(sweep: &Sweep<O, R>) {
    let a = Args::parse();
    let opts = (sweep.opts)(&a);
    let json_out = sweep.exports.and_then(|_| a.value("json-out"));
    let trace_out = sweep.traced.and_then(|_| a.value("trace-out"));
    a.finish();

    let results = (sweep.run)(opts);
    let (table, verdict) = sweep.report(&results);
    println!("{table}");
    if let Err(violation) = verdict {
        eprintln!("error: {violation}");
        std::process::exit(1);
    }
    if let (Some(json), Some(path)) = (sweep.exports, json_out) {
        let body = json(opts, &results);
        std::fs::write(path, &body).unwrap_or_else(|e| panic!("writing JSON to {path}: {e}"));
        eprintln!("json: {} bytes -> {path}", body.len());
    }
    if let (Some(traced), Some(path)) = (sweep.traced, trace_out) {
        write_trace(path, |tracer| traced(opts, tracer));
    }
}

/// Checks an exporting sweep's smoke run against its golden file, byte
/// for byte — `to_json` against `tests/golden/fig_<name>_smoke.json` —
/// and asserts its contract. A change that means to move it regenerates
/// it with
///
/// ```text
/// cargo run --release -p aggcache-bench --bin fig_<name> -- --smoke \
///   --json-out crates/bench/tests/golden/fig_<name>_smoke.json
/// ```
#[cfg(test)]
pub(crate) fn assert_golden<O: Copy, R>(name: &str, sweep: &Sweep<O, R>, smoke: O, results: &R) {
    let json = sweep.exports.expect("an exporting sweep");
    let path = format!(
        "{}/tests/golden/fig_{name}_smoke.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        json(smoke, results) == want,
        "fig_{name} --smoke differs from {path}"
    );
    assert_eq!(sweep.report(results).1, Ok(()), "fig_{name} --smoke");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_is_the_verdict() {
        let sweep: Sweep<(), u32> = Sweep {
            opts: |_| (),
            run: |()| 3,
            render: |r| format!("{r} cells"),
            check: Some(|&r| match r {
                0 => Ok(()),
                n => Err(format!("{n} mismatch(es)")),
            }),
            exports: None,
            traced: None,
        };
        let results = (sweep.run)(());
        let report = sweep.report(&results);
        assert_eq!(report, ("3 cells".into(), Err("3 mismatch(es)".into())));
        assert_eq!(sweep.report(&0).1, Ok(()));
    }
}
