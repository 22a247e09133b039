//! End-to-end runs of the `bench_all` binary at `--smoke` size: the
//! driver's invocation, the one-command suite, the injected oracle
//! mismatch and the agreement between `BENCHMARK.json` and the tables.

use aggcache_benchmark::report::{self, RunResult};
use aggcache_benchmark::suite::DETERMINISTIC;
use aggcache_benchmark::{driver, inputs, workloads};
use aggcache_obs::json::JsonValue;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A per-test output directory, removed on drop.
struct OutDir(PathBuf);

impl OutDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "aggcache-benchmark-test-{}-{test}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bench_all(out: &OutDir, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(args)
        .arg("--out-dir")
        .arg(out.path())
        .output()
        .expect("start bench_all")
}

fn result_line(output: &Output) -> RunResult {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("bench_all printed nothing");
    RunResult::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"))
}

fn names(result: &RunResult) -> Vec<&str> {
    result.metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn the_driver_s_invocation_prints_the_contract_s_result_line() {
    let out = OutDir::new("driver");
    let common = [
        "--workload",
        "paper_mid",
        "--seed",
        "3",
        "--seconds",
        "8",
        "--smoke",
    ];

    let untraced = bench_all(&out, &[&common[..], &["--trace", "0"]].concat());
    assert!(untraced.status.success(), "{untraced:?}");
    let r = result_line(&untraced);
    assert!(r.correct && r.failed == 0 && r.attempted >= 1);
    let want: Vec<_> = report::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names(&r), want);
    for m in &r.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }

    let traced = bench_all(&out, &[&common[..], &["--trace", "1"]].concat());
    assert!(traced.status.success(), "{traced:?}");
    let t = result_line(&traced);
    assert!(t.correct && t.failed == 0);
    let want: Vec<_> = report::per_layer().map(|m| m.name).collect();
    assert_eq!(names(&t), want);
    // At smoke size a query takes microseconds, so the harness's own loop
    // is a visible share; the full-size runs attribute 98 % and more.
    assert!(t.value("harness.attributed_pct").unwrap() >= 80.0);
    assert!(t.value("store.backend.fetches").unwrap() > 0.0);
    assert_eq!(t.value("cluster.manager.run_ns"), Some(0.0));
    assert!(out.path().join("trace_paper_mid.json").exists());

    // Same seed, same inputs: the deterministic metrics repeat to the bit;
    // a seed that orders the tail of the stream otherwise moves them.
    let again = result_line(&bench_all(&out, &[&common[..], &["--trace", "0"]].concat()));
    let sessions = workloads::spec("paper_mid").unwrap().min_queries / inputs::SESSION_LEN;
    let other_seed = (4u64..)
        .find(|&s| inputs::seeded_order(sessions, s) != inputs::seeded_order(sessions, 3))
        .unwrap()
        .to_string();
    let other = result_line(&bench_all(
        &out,
        &[
            "--workload",
            "paper_mid",
            "--seed",
            &other_seed,
            "--smoke",
            "--trace",
            "0",
        ],
    ));
    for name in DETERMINISTIC {
        assert_eq!(
            r.value(name).unwrap().to_bits(),
            again.value(name).unwrap().to_bits(),
            "{name}"
        );
    }
    assert_ne!(
        r.value("virtual_ms_per_query").unwrap().to_bits(),
        other.value("virtual_ms_per_query").unwrap().to_bits()
    );
}

#[test]
fn the_one_command_runs_all_six_workloads_and_writes_the_document() {
    let out = OutDir::new("suite");
    let run = bench_all(&out, &["--smoke", "--seed", "11"]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("bench_all: ok"));

    let doc = std::fs::read_to_string(out.path().join("bench_all.json")).unwrap();
    let doc = JsonValue::parse(&doc).unwrap();
    assert_eq!(doc.get("smoke").unwrap().as_bool(), Some(true));
    let by_workload = doc.get("workloads").unwrap();
    for spec in &workloads::SPECS {
        let w = by_workload
            .get(spec.name)
            .unwrap_or_else(|| panic!("{} missing", spec.name));
        let e2e = w.get("end_to_end").unwrap();
        assert_eq!(e2e.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(e2e.get("failed").unwrap().as_f64(), Some(0.0));
        for m in report::END_TO_END {
            let v = e2e.get("metrics").unwrap().get(m.name).unwrap();
            assert!(
                v.get("value").unwrap().as_f64().unwrap() > 0.0,
                "{} {}",
                spec.name,
                m.name
            );
            assert_eq!(v.get("unit").unwrap().as_str(), Some(m.unit));
        }
        let layers = w.get("per_layer").unwrap().get("metrics").unwrap();
        for m in report::TRACED {
            assert!(layers.get(m.name).is_some(), "{} {}", spec.name, m.name);
        }
        let attributed = layers
            .get("harness.attributed_pct")
            .unwrap()
            .get("value")
            .unwrap();
        assert!(
            attributed.as_f64().unwrap() >= 80.0,
            "{}: {attributed:?}",
            spec.name
        );
        assert!(out
            .path()
            .join(format!("trace_{}.json", spec.name))
            .exists());
    }
    let layers = doc.get("layers").unwrap().get("metrics").unwrap();
    for m in report::LAYERS {
        assert!(layers.get(m.name).is_some(), "{}", m.name);
    }
    // Each workload stresses the layer it was chosen for.
    let layer = |w: &str, m: &str| {
        by_workload
            .get(w)
            .unwrap()
            .get("per_layer")
            .unwrap()
            .get("metrics")
            .unwrap()
            .get(m)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    assert_eq!(layer("paper_fit", "store.backend.fetches"), 0.0);
    assert!(layer("update_mix", "core.manager.ingest_ns") > 0.0);
    assert!(layer("update_mix", "ingest_rps") > 0.0);
    assert!(layer("spill_restart", "store.spill.writes") > 0.0);
    assert!(layer("spill_restart", "disk_mb") > 0.0);
    assert!(layer("spill_restart", "core.manager.warm_start_ms") > 0.0);
    assert!(layer("cluster4", "cluster.manager.run_ns") > 0.0);
    assert!(layer("cluster4", "cluster.remote_chunks") > 0.0);

    // No spill directory outlives its workload.
    for entry in std::fs::read_dir(out.path()).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(
            !name.to_string_lossy().starts_with("aggcache-bench-"),
            "{name:?} left behind"
        );
    }
}

#[test]
fn an_injected_oracle_mismatch_fails_the_run() {
    let out = OutDir::new("mismatch");
    let run = bench_all(
        &out,
        &[
            "--workload",
            "paper_fit",
            "--smoke",
            "--trace",
            "0",
            "--inject-mismatch",
        ],
    );
    assert_eq!(run.status.code(), Some(1));
    let r = result_line(&run);
    assert!(!r.correct);
    assert_eq!(r.failed, 1);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = OutDir::new("usage");
    let run = bench_all(&out, &["--workload", "no_such_workload"]);
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
}

#[test]
fn benchmark_json_is_what_the_tables_say() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; regenerate with --emit-benchmark-json",
            path.display()
        )
    });
    let specs: Vec<_> = workloads::SPECS.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(
        on_disk,
        report::benchmark_json(driver::COMMAND, workloads::RUN_SECONDS, &specs),
        "BENCHMARK.json is stale: regenerate with `bench_all --emit-benchmark-json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
}
