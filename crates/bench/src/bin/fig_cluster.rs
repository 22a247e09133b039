//! Cluster sweep (beyond the paper): node count × replication × failure
//! rate vs aggregate hit ratio, virtual tail latency and bytes on the
//! wire, at a fixed per-node cache budget.
//!
//! `--smoke` runs the CI configuration (tiny dataset, short streams);
//! `--json-out <path>` / `--csv-out <path>` write the virtual-time sweep
//! results — bit-identical across runs and `--threads` settings.
use aggcache_bench::args::Args;
use aggcache_bench::experiments::cluster;

fn main() {
    let a = Args::parse();
    let d = if a.flag("smoke") {
        cluster::Opts::smoke()
    } else {
        cluster::Opts::default()
    };
    let opts = cluster::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
        threads: a.threads(),
        ..d
    };
    let (json_out, csv_out) = (a.value("json-out"), a.value("csv-out"));
    a.finish();
    let results = cluster::run_experiment(opts);
    println!("{}", cluster::render(&results));

    if let Some(path) = json_out {
        std::fs::write(path, cluster::to_json(opts, &results))
            .unwrap_or_else(|e| panic!("writing JSON to {path}: {e}"));
        eprintln!("json: {} cells -> {path}", results.cells.len());
    }
    if let Some(path) = csv_out {
        std::fs::write(path, cluster::to_csv(&results))
            .unwrap_or_else(|e| panic!("writing CSV to {path}: {e}"));
        eprintln!("csv: {} cells -> {path}", results.cells.len());
    }
}
