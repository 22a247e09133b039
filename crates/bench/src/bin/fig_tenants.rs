//! Multi-tenant sweep (beyond the paper): tenant count × popularity skew
//! × admission policy vs per-tenant hit ratio and tail latency.
//!
//! `--smoke` runs the CI configuration (tiny dataset, short streams);
//! `--json-out <path>` / `--csv-out <path>` write the virtual-time sweep
//! results — bit-identical across runs and `--threads` settings.
use aggcache_bench::args::Args;
use aggcache_bench::experiments::tenants;

fn main() {
    let a = Args::parse();
    let d = if a.flag("smoke") {
        tenants::Opts::smoke()
    } else {
        tenants::Opts::default()
    };
    let opts = tenants::Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
        threads: a.threads(),
        ..d
    };
    let (json_out, csv_out) = (a.value("json-out"), a.value("csv-out"));
    a.finish();
    let results = tenants::run_experiment(opts);
    println!("{}", tenants::render(&results));

    if let Some(path) = json_out {
        std::fs::write(path, tenants::to_json(opts, &results))
            .unwrap_or_else(|e| panic!("writing JSON to {path}: {e}"));
        eprintln!("json: {} cells -> {path}", results.cells.len());
    }
    if let Some(path) = csv_out {
        std::fs::write(path, tenants::to_csv(&results))
            .unwrap_or_else(|e| panic!("writing CSV to {path}: {e}"));
        eprintln!("csv: {} cells -> {path}", results.cells.len());
    }
}
