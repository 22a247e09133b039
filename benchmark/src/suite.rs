//! The one command: every workload untraced, then traced, then the
//! `layers` pass — each in a child process of its own, so that peak RSS
//! and allocator state belong to one workload — with the cross-checks no
//! single run can make, and the document that records it all.

use crate::args::{Args, LAYERS};
use crate::driver::print_metrics;
use crate::report::{RunResult, END_TO_END};
use crate::workloads::SPECS;
use aggcache_obs::json::push_str;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// End-to-end metrics that are functions of the inputs alone: two runs of
/// one binary on one seed must agree on them to the bit.
pub const DETERMINISTIC: [&str; 2] = ["hit_ratio", "virtual_ms_per_query"];

/// Runs this executable again for one workload and parses its last line.
/// The child inherits stderr; the call returns when the child has exited.
fn child(args: &Args, workload: &str, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .arg("--scratch-dir")
        .arg(&args.scratch_dir)
        .stderr(Stdio::inherit());
    if workload != LAYERS {
        // The suite runs the layers pass once, in a child of its own.
        cmd.arg("--no-layers");
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.inject_mismatch {
        cmd.arg("--inject-mismatch");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output ({})", out.status))?;
    // An incorrect run exits 1 but still prints its result; anything
    // without a result line is a crash.
    RunResult::parse(last).map_err(|e| format!("{workload} ({}): {e}", out.status))
}

/// One pass over every workload. A child that crashes fails the suite but
/// does not stop it.
fn pass(args: &Args, trace: bool, label: &str, ok: &mut bool) -> Vec<(&'static str, RunResult)> {
    let mut results = Vec::with_capacity(SPECS.len());
    for spec in &SPECS {
        match child(args, spec.name, trace) {
            Ok(result) => {
                println!(
                    "== {} ({label}): attempted {}, failed {}{}",
                    spec.name,
                    result.attempted,
                    result.failed,
                    if result.correct { "" } else { "  INCORRECT" }
                );
                print_metrics(&result);
                *ok &= result.correct;
                results.push((spec.name, result));
            }
            Err(e) => {
                eprintln!("bench_all: {e}");
                *ok = false;
            }
        }
    }
    results
}

fn find<'a>(results: &'a [(&'static str, RunResult)], name: &str) -> Option<&'a RunResult> {
    results.iter().find(|(n, _)| *n == name).map(|(_, r)| r)
}

/// `fit_t2` must do exactly `paper_fit`'s work: threads change wall time
/// only.
fn fit_t2_matches_paper_fit(untraced: &[(&'static str, RunResult)]) -> bool {
    let (Some(a), Some(b)) = (find(untraced, "paper_fit"), find(untraced, "fit_t2")) else {
        return false;
    };
    let mut same = true;
    for name in DETERMINISTIC {
        let (x, y) = (a.value(name), b.value(name));
        if x.map(f64::to_bits) != y.map(f64::to_bits) {
            eprintln!("bench_all: {name} differs: paper_fit {x:?}, fit_t2 {y:?}");
            same = false;
        }
    }
    same
}

/// Share by which `b` differs from `a`, whichever way.
fn relative_difference(a: f64, b: f64) -> f64 {
    (b - a).abs() / a.abs()
}

/// Compares two untraced passes of one binary: every workload × metric
/// against its bound, the deterministic ones for equality.
fn compare(first: &[(&'static str, RunResult)], second: &[(&'static str, RunResult)]) -> bool {
    let mut ok = true;
    println!("== A/A: second pass against the first");
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (workload, a) in first {
        let Some(b) = find(second, workload) else {
            ok = false;
            continue;
        };
        for m in END_TO_END {
            let (Some(x), Some(y)) = (a.value(m.name), b.value(m.name)) else {
                ok = false;
                continue;
            };
            let diff = relative_difference(x, y);
            let exact = DETERMINISTIC.contains(&m.name);
            let within = if exact {
                x.to_bits() == y.to_bits()
            } else {
                diff <= m.bound
            };
            ok &= within;
            println!(
                "{workload:<14} {:<22} {x:>14.4} {y:>14.4} {:>8.2}% {:>7}{}",
                m.name,
                100.0 * diff,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", 100.0 * m.bound)
                },
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    ok
}

/// The suite document: what ran, on what, and every number it produced.
fn document(
    args: &Args,
    untraced: &[(&'static str, RunResult)],
    traced: &[(&'static str, RunResult)],
    layers: Option<&RunResult>,
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \"available_parallelism\": {cores},\n  \
         \"spill_flush_policy\": \"std::fs::write, no fsync\",\n  \"workloads\": {{",
        args.seed, args.seconds, args.smoke
    );
    for (i, spec) in SPECS.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_str(&mut out, spec.name);
        out.push_str(": {");
        let mut first = true;
        for (key, results) in [("end_to_end", untraced), ("per_layer", traced)] {
            if let Some(r) = find(results, spec.name) {
                out.push_str(if first { "\n      " } else { ",\n      " });
                first = false;
                push_str(&mut out, key);
                out.push_str(": ");
                out.push_str(&r.to_json());
            }
        }
        out.push_str("\n    }");
    }
    out.push_str("\n  }");
    if let Some(r) = layers {
        out.push_str(",\n  \"layers\": ");
        out.push_str(&r.to_json());
    }
    out.push_str("\n}\n");
    out
}

/// Runs the suite (or, with `--aa`, the untraced suite twice). Returns
/// whether everything was correct and every cross-check held.
pub fn run(args: &Args) -> bool {
    let mut ok = true;
    let untraced = pass(args, false, "untraced", &mut ok);
    if !fit_t2_matches_paper_fit(&untraced) {
        ok = false;
    }
    if args.aa {
        let second = pass(args, false, "untraced, second pass", &mut ok);
        return compare(&untraced, &second) && ok;
    }

    let traced = pass(args, true, "traced", &mut ok);
    let layers = match child(args, LAYERS, true) {
        Ok(result) => {
            println!("== layers");
            print_metrics(&result);
            Some(result)
        }
        Err(e) => {
            eprintln!("bench_all: {e}");
            ok = false;
            None
        }
    };

    let path = args.out_dir.join("bench_all.json");
    match std::fs::write(&path, document(args, &untraced, &traced, layers.as_ref())) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("bench_all: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "{}",
        if ok {
            "bench_all: ok"
        } else {
            "bench_all: FAILED"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;
    use aggcache_obs::json::JsonValue;

    fn result(values: &[(&str, f64)]) -> RunResult {
        RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .map(|m| Metric {
                    name: m.name.to_string(),
                    value: values
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .map_or(1.0, |(_, v)| *v),
                    unit: m.unit.to_string(),
                })
                .collect(),
        }
    }

    #[test]
    fn aa_accepts_noise_within_bounds_and_rejects_beyond() {
        let first = vec![("paper_fit", result(&[("qps", 1000.0)]))];
        let near = vec![("paper_fit", result(&[("qps", 1040.0)]))];
        let far = vec![("paper_fit", result(&[("qps", 700.0)]))];
        assert!(compare(&first, &near));
        assert!(!compare(&first, &far));
        // Faster by more than the bound is as suspect as slower.
        let faster = vec![("paper_fit", result(&[("qps", 1400.0)]))];
        assert!(!compare(&first, &faster));
    }

    #[test]
    fn aa_wants_deterministic_metrics_equal_to_the_bit() {
        let first = vec![("paper_mid", result(&[("hit_ratio", 0.78)]))];
        let off = vec![("paper_mid", result(&[("hit_ratio", 0.78 + 1e-12)]))];
        assert!(compare(&first, &first.clone()));
        assert!(!compare(&first, &off));
        // A workload missing from the second pass is a failure too.
        assert!(!compare(&first, &[]));
    }

    #[test]
    fn fit_t2_cross_check() {
        let same = vec![
            ("paper_fit", result(&[("virtual_ms_per_query", 35.3)])),
            (
                "fit_t2",
                result(&[("virtual_ms_per_query", 35.3), ("qps", 2.0)]),
            ),
        ];
        assert!(fit_t2_matches_paper_fit(&same));
        let differ = vec![
            ("paper_fit", result(&[("virtual_ms_per_query", 35.3)])),
            ("fit_t2", result(&[("virtual_ms_per_query", 35.4)])),
        ];
        assert!(!fit_t2_matches_paper_fit(&differ));
        assert!(!fit_t2_matches_paper_fit(&same[..1]));
    }

    #[test]
    fn document_is_json_with_every_workload_present() {
        let args = Args::parse(Vec::new()).unwrap();
        let untraced: Vec<_> = SPECS.iter().map(|s| (s.name, result(&[]))).collect();
        let doc = document(&args, &untraced, &untraced[..2], Some(&result(&[])));
        let doc = JsonValue::parse(&doc).unwrap();
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(2000.0));
        let w = doc.get("workloads").unwrap();
        for s in &SPECS {
            let e2e = w.get(s.name).unwrap().get("end_to_end").unwrap();
            assert_eq!(
                e2e.get("metrics")
                    .unwrap()
                    .get("qps")
                    .unwrap()
                    .get("unit")
                    .unwrap()
                    .as_str(),
                Some("1/s")
            );
        }
        assert!(w.get("paper_fit").unwrap().get("per_layer").is_some());
        assert!(w.get("cluster4").unwrap().get("per_layer").is_none());
        assert!(doc.get("layers").is_some());
    }
}
