//! Validates a `--trace-out` JSON document written by an experiment
//! binary against `aggcache_bench::trace::validate`: structure, the event
//! schema declared in `aggcache-obs`, and cross-checks between the raw
//! event list and the aggregated metrics.
//!
//! Usage: `trace_check <path>` — exits non-zero with a message on the
//! first violation.

use aggcache_bench::trace::validate;
use aggcache_obs::json::JsonValue;

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let (Some(path), None) = (argv.next(), argv.next()) else {
        fail("usage: trace_check <path>");
    };
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    let doc = JsonValue::parse(&src).unwrap_or_else(|e| fail(&format!("parsing {path}: {e}")));
    let summary = validate(&doc).unwrap_or_else(|e| fail(&e));
    println!(
        "trace_check: OK: {path}: {} events, {} queries, {} group-by levels",
        summary.events, summary.queries, summary.levels
    );
}
