//! **Figures 7 & 8** — the two-level replacement policy vs. the plain
//! benefit policy across cache sizes: complete-hit ratio (Fig. 7) and
//! average query execution time (Fig. 8).
//!
//! Paper shape: the two-level policy (with pre-loading) achieves a higher
//! complete-hit ratio at every cache size and therefore lower average
//! times; at 25 MB it holds the entire base table → 100% complete hits.

use crate::args::Args;
use crate::report::{f2, Table};
use crate::rig::{apb_dataset, MB, PAPER_CACHE_SIZES_MB};
use crate::stream::{run_stream_averaged, AveragedResult, StreamRun};
use crate::trace::maybe_write_trace;
use aggcache_cache::PolicyKind;
use aggcache_core::Strategy;

/// Options for the policy experiment.
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
            // ≈22 MB of 20-byte tuples — the paper's HistSale was "about a
            // million tuples … base table size of about 22 MB", which is
            // what makes the base *not* fit a 20 MB cache but fit 25 MB.
            tuples: 1_100_000,
            seed: 0xA9B1,
            queries: 100,
            workload_seed: 2000,
            repeats: 3,
            threads: 1,
        }
    }
}

/// The per-cache-size results for both policies.
pub struct PolicyResults {
    /// Cache sizes in MB.
    pub sizes_mb: Vec<usize>,
    /// Two-level policy results.
    pub two_level: Vec<AveragedResult>,
    /// Plain benefit policy results.
    pub benefit: Vec<AveragedResult>,
}

/// Runs both policies at every paper cache size with the VCMC strategy.
pub fn run_experiment(opts: Opts) -> PolicyResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    // Scale cache sizes with the dataset so reduced runs keep the paper's
    // cache-to-base ratios (25 MB cache : 22 MB base).
    let scale = opts.tuples as f64 / 1_100_000.0;
    let sizes_mb: Vec<usize> = PAPER_CACHE_SIZES_MB.to_vec();
    let mut two_level = Vec::new();
    let mut benefit = Vec::new();
    for &mb in &sizes_mb {
        let cache_bytes = ((mb * MB) as f64 * scale) as usize;
        two_level.push(run_stream_averaged(
            &dataset,
            StreamRun {
                strategy: Strategy::Vcmc,
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
        // "For each experiment the cache was pre-loaded with a group-by"
        // (§7.2) — the plain benefit policy is pre-loaded too; the policies
        // differ only in replacement behaviour.
        benefit.push(run_stream_averaged(
            &dataset,
            StreamRun {
                strategy: Strategy::Vcmc,
                policy: PolicyKind::Benefit,
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
    PolicyResults {
        sizes_mb,
        two_level,
        benefit,
    }
}

/// The `main` of `fig7` and `fig8`: reads `--tuples --seed --queries
/// --threads --trace-out`, runs the experiment, prints `render`'s view of
/// it and writes the trace document, if asked for, under `name`.
pub fn main_with(name: &str, render: fn(&PolicyResults) -> String) {
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

/// Renders Figure 7 (complete-hit ratios).
pub fn render_fig7(r: &PolicyResults) -> String {
    let mut out =
        String::from("Figure 7: complete hit ratios (% of queries fully answered from cache)\n\n");
    let mut table = Table::new(&["cache MB", "two-level %", "benefit %"]);
    for (i, &mb) in r.sizes_mb.iter().enumerate() {
        table.row(vec![
            mb.to_string(),
            f2(r.two_level[i].complete_hit_pct),
            f2(r.benefit[i].complete_hit_pct),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\nPaper shape: two-level ≥ benefit everywhere; 100% at 25 MB\n(the whole base table fits and is pre-loaded).\n");
    out
}

/// Renders Figure 8 (average execution times).
pub fn render_fig8(r: &PolicyResults) -> String {
    let mut out = String::from("Figure 8: average query execution times (virtual ms)\n\n");
    let mut table = Table::new(&["cache MB", "two-level ms", "benefit ms"]);
    for (i, &mb) in r.sizes_mb.iter().enumerate() {
        table.row(vec![
            mb.to_string(),
            f2(r.two_level[i].avg_ms),
            f2(r.benefit[i].avg_ms),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\nPaper shape: times fall with cache size; two-level below benefit.\n");
    out
}
