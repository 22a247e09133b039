//! Validates a `--trace-out` JSON document written by an experiment
//! binary against `aggcache_bench::trace::validate`: structure, the event
//! schema declared in `aggcache-obs`, and the virtual-time additivity of
//! every `query_done`.
//!
//! Usage: `trace_check [--digest] <path>` — exits 1 with a message on the
//! first violation, 2 on a usage error. `--digest` prints the report
//! `crates/bench/tests/golden/*_trace_smoke.txt` pins
//! (`aggcache_bench::trace::digest`).
#![forbid(unsafe_code)]

use aggcache_bench::trace::{digest, validate};
use aggcache_obs::json::JsonValue;

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let digest_mode = argv.first().is_some_and(|a| a == "--digest");
    let rest = &argv[usize::from(digest_mode)..];
    let flag = rest.iter().find(|a| a.starts_with("--"));
    let (None, [path]) = (flag, rest) else {
        match flag {
            Some(flag) => eprintln!("error: unknown flag `{flag}`"),
            None => eprintln!("error: usage: trace_check [--digest] <path>"),
        }
        std::process::exit(2);
    };
    let src =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    let doc = JsonValue::parse(&src).unwrap_or_else(|e| fail(&format!("parsing {path}: {e}")));
    let summary = validate(&doc).unwrap_or_else(|e| fail(&e));
    if digest_mode {
        print!("{}", digest(&doc));
    } else {
        println!(
            "trace_check: OK: {path}: {} events, {} queries",
            summary.events, summary.queries
        );
    }
}
