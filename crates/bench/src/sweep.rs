//! The one `main` of the six beyond-paper sweep binaries (`fig_*`).
//!
//! A sweep module declares what is its own in a [`Sweep`] — how flags map
//! to its `Opts`, its run, its table, its contract, what it exports and
//! which cell it traces; [`sweep_main`] owns the rest: argument reading,
//! the usage error, printing, `--json-out` / `--csv-out` / `--trace-out`
//! and their receipts on stderr.
//!
//! `--smoke` runs a sweep's CI configuration (tiny dataset, short
//! streams); `--json-out <path>` / `--csv-out <path>` write its
//! virtual-time results — bit-identical across runs. Spill data lives in
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
    pub run: fn(O) -> R,
    /// The table printed on stdout.
    pub(crate) render: fn(&R) -> String,
    /// The sweep's contract over its results (oracle mismatches,
    /// transparency divergences), if it has one; a violation is printed
    /// and the process exits 1 before anything is written.
    pub(crate) check: Option<Check<R>>,
    /// `--json-out` / `--csv-out`, for the sweeps that have them: the JSON
    /// document, the CSV, and the cell count their receipts quote.
    pub exports: Option<Exports<O, R>>,
    /// `--trace-out`, for the sweeps whose events no paper stream emits:
    /// runs the one cell that emits them with the tracer attached.
    pub(crate) traced: Option<TracedCell<O>>,
}

/// A sweep's contract: the violation, if its results show one.
pub(crate) type Check<R> = fn(&R) -> Result<(), String>;

/// Runs a sweep's traced cell with the tracer attached; returns its `meta`.
pub(crate) type TracedCell<O> = fn(O, Arc<dyn Tracer>) -> Meta;

/// A sweep's JSON writer, CSV writer and cell count.
pub(crate) type Exports<O, R> = (fn(O, &R) -> String, fn(&R) -> String, fn(&R) -> usize);

/// The flag → `Opts` mapping of the five sweeps with a `--smoke`
/// configuration: `--smoke` picks `Opts::smoke()` over the default, then
/// `--tuples --seed --queries` override their fields.
macro_rules! smoke_opts {
    ($Opts:ident) => {
        |a| {
            let d = if a.flag("smoke") {
                $Opts::smoke()
            } else {
                $Opts::default()
            };
            $Opts {
                tuples: a.get("tuples", d.tuples),
                seed: a.get("seed", d.seed),
                queries: a.get("queries", d.queries),
                ..d
            }
        }
    };
}
pub(crate) use smoke_opts;

/// Parses the command line, runs `sweep` and writes what was asked for. A
/// flag the sweep does not read is a usage error (exit 2), so a sweep
/// without exports or a traced cell refuses those flags.
pub fn sweep_main<O: Copy, R>(sweep: &Sweep<O, R>) {
    let a = Args::parse();
    let opts = (sweep.opts)(&a);
    let outs = sweep
        .exports
        .map(|_| (a.value("json-out"), a.value("csv-out")));
    let trace_out = sweep.traced.and_then(|_| a.value("trace-out"));
    a.finish();

    let results = (sweep.run)(opts);
    println!("{}", (sweep.render)(&results));
    if let Some(Err(violation)) = sweep.check.map(|check| check(&results)) {
        eprintln!("error: {violation}");
        std::process::exit(1);
    }
    if let (Some((json, csv, cells)), Some((json_out, csv_out))) = (sweep.exports, outs) {
        let write = |kind: &str, path: &str, body: String| {
            std::fs::write(path, body)
                .unwrap_or_else(|e| panic!("writing {} to {path}: {e}", kind.to_uppercase()));
            eprintln!("{kind}: {} cells -> {path}", cells(&results));
        };
        if let Some(path) = json_out {
            write("json", path, json(opts, &results));
        }
        if let Some(path) = csv_out {
            write("csv", path, csv(&results));
        }
    }
    if let (Some(traced), Some(path)) = (sweep.traced, trace_out) {
        write_trace(path, |tracer| traced(opts, tracer));
    }
}
