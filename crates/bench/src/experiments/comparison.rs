//! **Figure 9, Figure 10 and Table 4** — comparing no-aggregation, ESM and
//! VCMC over the query stream at every cache size.
//!
//! Paper shape: both active-cache methods beat the no-aggregation baseline
//! by a huge margin; VCMC beats ESM, most visibly at small cache sizes
//! (lookup dominates) and on complete-hit queries (Table 4's speedup of
//! 5.8× at 10 MB falling to ≈1.1× at 25 MB); Fig. 10's breakdown shows
//! ESM's time dominated by lookup at small caches while VCMC's lookup is
//! negligible throughout.

use crate::args::Args;
use crate::report::{f2, Table};
use crate::rig::{apb_dataset, MB, PAPER_CACHE_SIZES_MB};
use crate::stream::{run_stream_averaged, AveragedResult, StreamRun};
use crate::trace::maybe_write_trace;
use aggcache_cache::PolicyKind;
use aggcache_core::Strategy;

/// Options for the comparison experiment.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Queries per run (paper: 100).
    pub queries: usize,
    /// Workload seed.
    pub workload_seed: u64,
    /// Number of streams (consecutive seeds) to average.
    pub repeats: u64,
    /// Worker threads for sharded aggregation
    /// (wall-clock only; virtual outputs are unchanged).
    pub threads: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            // ≈22 MB base table, as in the paper (see policy::Opts).
            tuples: 1_100_000,
            seed: 0xA9B1,
            queries: 100,
            workload_seed: 2000,
            repeats: 3,
            threads: 1,
        }
    }
}

/// Per-cache-size results for the three schemes.
pub struct ComparisonResults {
    /// Cache sizes in MB.
    pub sizes_mb: Vec<usize>,
    /// No-aggregation baseline (plain benefit policy, as in the paper).
    pub no_agg: Vec<AveragedResult>,
    /// ESM with the two-level policy.
    pub esm: Vec<AveragedResult>,
    /// VCMC with the two-level policy.
    pub vcmc: Vec<AveragedResult>,
}

/// Runs all three schemes at every paper cache size on the same stream.
pub fn run_experiment(opts: Opts) -> ComparisonResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let scale = opts.tuples as f64 / 1_100_000.0;
    let sizes_mb: Vec<usize> = PAPER_CACHE_SIZES_MB.to_vec();
    let (mut no_agg, mut esm, mut vcmc) = (Vec::new(), Vec::new(), Vec::new());
    for &mb in &sizes_mb {
        let cache_bytes = ((mb * MB) as f64 * scale) as usize;
        // "for the no aggregation case, the simple benefit based policy was
        // used since detail chunks don't have any higher benefit in the
        // absence of aggregation" (§7.2).
        no_agg.push(run_stream_averaged(
            &dataset,
            StreamRun {
                strategy: Strategy::NoAggregation,
                policy: PolicyKind::Benefit,
                cache_bytes,
                preload: false,
                queries: opts.queries,
                seed: opts.workload_seed,
                group_boost: true,
                threads: opts.threads,
            },
            opts.repeats,
        ));
        for (strategy, bucket) in [(Strategy::Esm, &mut esm), (Strategy::Vcmc, &mut vcmc)] {
            bucket.push(run_stream_averaged(
                &dataset,
                StreamRun {
                    strategy,
                    policy: PolicyKind::TwoLevel,
                    cache_bytes,
                    preload: true,
                    queries: opts.queries,
                    seed: opts.workload_seed,
                    group_boost: true,
                    threads: opts.threads,
                },
                opts.repeats,
            ));
        }
    }
    ComparisonResults {
        sizes_mb,
        no_agg,
        esm,
        vcmc,
    }
}

/// The `main` of `fig9`, `fig10` and `table4`: reads `--tuples --seed
/// --queries --threads --trace-out`, runs the experiment, prints
/// `render`'s view of it and writes the trace document, if asked for,
/// under `name`.
pub fn main_with(name: &str, render: fn(&ComparisonResults) -> String) {
    let a = Args::parse();
    let d = Opts::default();
    let opts = Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
        threads: a.threads(),
        ..d
    };
    let trace_out = a.value("trace-out");
    a.finish();
    println!("{}", render(&run_experiment(opts)));
    maybe_write_trace(trace_out, opts.threads, name, opts.tuples, opts.seed);
}

/// Renders Figure 9 (average execution times of the three schemes).
pub fn render_fig9(r: &ComparisonResults) -> String {
    let mut out = String::from(
        "Figure 9: average execution times — no aggregation vs ESM vs VCMC (virtual ms)\n\n",
    );
    let mut table = Table::new(&[
        "cache MB",
        "no-agg ms",
        "ESM ms",
        "VCMC ms",
        "no-agg hit %",
        "active hit %",
    ]);
    for (i, &mb) in r.sizes_mb.iter().enumerate() {
        table.row(vec![
            mb.to_string(),
            f2(r.no_agg[i].avg_ms),
            f2(r.esm[i].avg_ms),
            f2(r.vcmc[i].avg_ms),
            f2(r.no_agg[i].complete_hit_pct),
            f2(r.vcmc[i].complete_hit_pct),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper shape: both ESM and VCMC far below no-aggregation (which\n\
         gets only ~31% complete hits); VCMC ≤ ESM, gap shrinking as the\n\
         cache grows.\n",
    );
    out
}

/// Renders Figure 10 (time breakup for complete-hit queries).
pub fn render_fig10(r: &ComparisonResults) -> String {
    let mut out = String::from(
        "Figure 10: time breakup for complete-hit queries (ms; lookup + aggregation + update)\n\n",
    );
    let mut table = Table::new(&[
        "cache MB",
        "algo",
        "lookup ms",
        "agg ms",
        "update ms",
        "total ms",
    ]);
    for (i, &mb) in r.sizes_mb.iter().enumerate() {
        for (name, res) in [("ESM", &r.esm[i]), ("VCMC", &r.vcmc[i])] {
            table.row(vec![
                mb.to_string(),
                name.to_string(),
                f2(res.hit_lookup_ms),
                f2(res.hit_agg_ms),
                f2(res.hit_update_ms),
                f2(res.hit_total_ms),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper shape: ESM's lookup time dominates at small caches and\n\
         vanishes at 25 MB; VCMC's lookup is negligible everywhere; VCMC's\n\
         aggregation cost ≤ ESM's (it picks the cheapest path); VCMC pays a\n\
         small update cost.\n",
    );
    out
}

/// Renders Table 4 (complete hits and VCMC-over-ESM speedup).
pub fn render_table4(r: &ComparisonResults) -> String {
    let mut out = String::from("Table 4: speedup of VCMC over ESM on complete-hit queries\n\n");
    let mut table = Table::new(&["cache MB", "% complete hits", "speedup (ESM/VCMC)"]);
    for (i, &mb) in r.sizes_mb.iter().enumerate() {
        let speedup = if r.vcmc[i].hit_total_ms > 0.0 {
            r.esm[i].hit_total_ms / r.vcmc[i].hit_total_ms
        } else {
            f64::NAN
        };
        table.row(vec![
            mb.to_string(),
            f2(r.vcmc[i].complete_hit_pct),
            f2(speedup),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper figures: hits 66 / 74 / 77 / 100 %, speedups 5.8 / 4.11 /\n\
         3.17 / 1.11 across 10 / 15 / 20 / 25 MB.\n",
    );
    out
}
