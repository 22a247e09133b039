//! **Figures 7–10, Table 4 and the ablations** — the paper's §7.2
//! experiment: one 100-query stream replayed at every cache size under
//! each scheme, read six ways.
//!
//! Figs. 7 & 8 compare the two replacement policies under VCMC. Paper
//! shape: the two-level policy (with pre-loading) achieves a higher
//! complete-hit ratio at every cache size and therefore lower average
//! times; at 25 MB it holds the entire base table → 100% complete hits.
//!
//! Figs. 9 & 10 and Table 4 compare no-aggregation, ESM and VCMC. Paper
//! shape: both active-cache methods beat the no-aggregation baseline by a
//! huge margin; VCMC beats ESM, most visibly at small cache sizes (lookup
//! dominates) and on complete-hit queries (Table 4's speedup of 5.8× at
//! 10 MB falling to ≈1.1× at 25 MB); Fig. 10's breakdown shows ESM's time
//! dominated by lookup at small caches while VCMC's lookup is negligible
//! throughout.
//!
//! The ablations change one design choice of the "two-level" scheme at a
//! time: the lookup (VCM, ESM), the replacement policy (benefit, LRU),
//! the group clock-boost (§6.3, rule 2) and the pre-load (§6.3, rule 3).

use crate::args::Args;
use crate::report::{f2, Table};
use crate::rig::{apb_dataset, MB, PAPER_CACHE_SIZES_MB};
use crate::stream::Preload::{self, MaxDescendants, MostDetailed};
use crate::stream::{run_stream_averaged, AveragedResult, StreamRun};
use aggcache_cache::PolicyKind::{self, Benefit, Lru, TwoLevel};
use aggcache_core::Strategy::{self, Esm, NoAggregation, Vcm, Vcmc};

/// Options for the stream experiment.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Queries per run (paper: 100).
    pub queries: usize,
}

/// Number of streams (consecutive seeds) to average.
const REPEATS: u64 = 3;

impl Default for Opts {
    fn default() -> Self {
        Self {
            // ≈22 MB of 20-byte tuples — the paper's HistSale was "about a
            // million tuples … base table size of about 22 MB", which is
            // what makes the base *not* fit a 20 MB cache but fit 25 MB.
            tuples: 1_100_000,
            seed: 0xA9B1,
            queries: 100,
        }
    }
}

/// The ways the stream is run: label, lookup strategy, replacement
/// policy, pre-load, group clock-boost. The first four are §7.2's; a
/// binary runs the schemes its view prints.
pub const SCHEMES: [(&str, Strategy, PolicyKind, Preload, bool); 9] = [
    // "for the no aggregation case, the simple benefit based policy was
    // used since detail chunks don't have any higher benefit in the
    // absence of aggregation" (§7.2).
    ("no-agg", NoAggregation, Benefit, Preload::None, true),
    ("esm", Esm, TwoLevel, MaxDescendants, true),
    // Fig. 7/8's "two-level" and Fig. 9/10's and Table 4's "VCMC".
    ("two-level", Vcmc, TwoLevel, MaxDescendants, true),
    // "For each experiment the cache was pre-loaded with a group-by"
    // (§7.2) — the plain benefit policy is pre-loaded too; the policies
    // differ only in replacement behaviour.
    ("benefit", Vcmc, Benefit, MaxDescendants, true),
    // The ablations: "two-level" with one design choice changed.
    ("vcm", Vcm, TwoLevel, MaxDescendants, true),
    ("lru", Vcmc, Lru, MaxDescendants, true),
    ("no-boost", Vcmc, TwoLevel, MaxDescendants, false),
    ("no-preload", Vcmc, TwoLevel, Preload::None, true),
    ("most-detailed", Vcmc, TwoLevel, MostDetailed, true),
];

/// The schemes Figs. 7 and 8 print.
pub const POLICIES: [&str; 2] = ["two-level", "benefit"];
/// The schemes Figs. 9 and 10 and Table 4 print.
pub const COMPARISON: [&str; 3] = ["no-agg", "esm", "two-level"];
/// The schemes the ablation view prints, in its row order.
pub const ABLATION: [&str; 8] = [
    "two-level",
    "vcm",
    "esm",
    "benefit",
    "lru",
    "no-boost",
    "no-preload",
    "most-detailed",
];

/// The per-cache-size results of the schemes that were run.
pub struct StreamResults {
    runs: Vec<(&'static str, Vec<AveragedResult>)>,
}

impl StreamResults {
    /// One scheme's results by label, one per paper cache size.
    pub(crate) fn of(&self, scheme: &str) -> &[AveragedResult] {
        let run = self.runs.iter().find(|(label, _)| *label == scheme);
        &run.expect("a view asks only for schemes that were run").1
    }
}

/// Runs the [`SCHEMES`] named in `schemes` at every paper cache size, all
/// on the same streams.
pub fn run_experiment(opts: Opts, schemes: &[&str]) -> StreamResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    // Scale cache sizes with the dataset so reduced runs keep the paper's
    // cache-to-base ratios (25 MB cache : 22 MB base).
    let scale = opts.tuples as f64 / 1_100_000.0;
    let wanted = SCHEMES.iter().filter(|(label, ..)| schemes.contains(label));
    let runs = wanted
        .map(|&(label, strategy, policy, preload, group_boost)| {
            let at_size = |&mb: &usize| {
                let run = StreamRun {
                    preload,
                    group_boost,
                    queries: opts.queries,
                    ..StreamRun::paper(strategy, policy, ((mb * MB) as f64 * scale) as usize)
                };
                run_stream_averaged(&dataset, run, REPEATS)
            };
            (label, PAPER_CACHE_SIZES_MB.iter().map(at_size).collect())
        })
        .collect();
    StreamResults { runs }
}

/// The `main` of `fig7`–`fig10`, `table4` and `ablation`: reads `--tuples --seed
/// --queries`, runs `schemes` and prints `render`'s view of them.
pub fn main_with(schemes: &[&str], render: fn(&StreamResults) -> String) {
    let a = Args::parse();
    let d = Opts::default();
    let opts = Opts {
        tuples: a.get("tuples", d.tuples),
        seed: a.get("seed", d.seed),
        queries: a.get("queries", d.queries),
    };
    a.finish();
    println!("{}", render(&run_experiment(opts, schemes)));
}

/// Renders Figure 7 (complete-hit ratios).
pub fn render_fig7(r: &StreamResults) -> String {
    let (two_level, benefit) = (r.of("two-level"), r.of("benefit"));
    let mut out =
        String::from("Figure 7: complete hit ratios (% of queries fully answered from cache)\n\n");
    let mut table = Table::new(&["cache MB", "two-level %", "benefit %"]);
    for (i, &mb) in PAPER_CACHE_SIZES_MB.iter().enumerate() {
        table.row(vec![
            mb.to_string(),
            f2(two_level[i].complete_hit_pct),
            f2(benefit[i].complete_hit_pct),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\nPaper shape: two-level ≥ benefit everywhere; 100% at 25 MB\n(the whole base table fits and is pre-loaded).\n");
    out
}

/// Renders Figure 8 (average execution times).
pub fn render_fig8(r: &StreamResults) -> String {
    let (two_level, benefit) = (r.of("two-level"), r.of("benefit"));
    let mut out = String::from("Figure 8: average query execution times (virtual ms)\n\n");
    let mut table = Table::new(&["cache MB", "two-level ms", "benefit ms"]);
    for (i, &mb) in PAPER_CACHE_SIZES_MB.iter().enumerate() {
        table.row(vec![
            mb.to_string(),
            f2(two_level[i].avg_ms),
            f2(benefit[i].avg_ms),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\nPaper shape: times fall with cache size; two-level below benefit.\n");
    out
}

/// Renders Figure 9 (average execution times of the three schemes).
pub fn render_fig9(r: &StreamResults) -> String {
    let (no_agg, esm, vcmc) = (r.of("no-agg"), r.of("esm"), r.of("two-level"));
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
    for (i, &mb) in PAPER_CACHE_SIZES_MB.iter().enumerate() {
        table.row(vec![
            mb.to_string(),
            f2(no_agg[i].avg_ms),
            f2(esm[i].avg_ms),
            f2(vcmc[i].avg_ms),
            f2(no_agg[i].complete_hit_pct),
            f2(vcmc[i].complete_hit_pct),
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
pub fn render_fig10(r: &StreamResults) -> String {
    let (esm, vcmc) = (r.of("esm"), r.of("two-level"));
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
    for (i, &mb) in PAPER_CACHE_SIZES_MB.iter().enumerate() {
        for (name, res) in [("ESM", &esm[i]), ("VCMC", &vcmc[i])] {
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
pub fn render_table4(r: &StreamResults) -> String {
    let (esm, vcmc) = (r.of("esm"), r.of("two-level"));
    let mut out = String::from("Table 4: speedup of VCMC over ESM on complete-hit queries\n\n");
    let mut table = Table::new(&["cache MB", "% complete hits", "speedup (ESM/VCMC)"]);
    for (i, &mb) in PAPER_CACHE_SIZES_MB.iter().enumerate() {
        let speedup = if vcmc[i].hit_total_ms > 0.0 {
            esm[i].hit_total_ms / vcmc[i].hit_total_ms
        } else {
            f64::NAN
        };
        table.row(vec![
            mb.to_string(),
            f2(vcmc[i].complete_hit_pct),
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

/// Renders the ablations: each design choice of "two-level" changed in
/// turn.
pub fn render_ablation(r: &StreamResults) -> String {
    let mut out = String::from(
        "Ablations: the two-level VCMC scheme with one design choice changed (virtual ms)\n\n",
    );
    let mut table = Table::new(&[
        "cache MB",
        "scheme",
        "hit %",
        "avg ms",
        "hit lookup ms",
        "hit agg ms",
    ]);
    for (i, &mb) in PAPER_CACHE_SIZES_MB.iter().enumerate() {
        for scheme in ABLATION {
            let res = &r.of(scheme)[i];
            table.row(vec![
                mb.to_string(),
                scheme.to_string(),
                f2(res.complete_hit_pct),
                f2(res.avg_ms),
                f2(res.hit_lookup_ms),
                f2(res.hit_agg_ms),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "\nvcm drops cost maintenance (first path, not cheapest); esm drops the\n\
         count short-circuit too; benefit and lru replace the policy; no-boost\n\
         drops the group clock-boost; no-preload and most-detailed replace the\n\
         max-descendants pre-load. ESM and VCM pick the same plans, so their\n\
         hit % and hit agg ms are equal: only lookup separates them.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_selection_does_not_perturb_a_stream_and_views_agree() {
        let opts = Opts {
            tuples: 5_000,
            queries: 30,
            ..Opts::default()
        };
        let all = run_experiment(opts, &SCHEMES.map(|(label, ..)| label));
        let alone = run_experiment(opts, &["two-level", "most-detailed"]);
        // `{:?}` of an `f64` round-trips, so equal text is equal bits.
        let bits = |r: &StreamResults, scheme| format!("{:?}", r.of(scheme));
        for scheme in ["two-level", "most-detailed"] {
            assert_eq!(bits(&all, scheme), bits(&alone, scheme), "{scheme}");
        }
        // ESM and VCM pick the same plans, so they hit and aggregate alike.
        for (esm, vcm) in all.of("esm").iter().zip(all.of("vcm")) {
            assert_eq!(
                esm.complete_hit_pct.to_bits(),
                vcm.complete_hit_pct.to_bits()
            );
            assert_eq!(esm.hit_agg_ms.to_bits(), vcm.hit_agg_ms.to_bits());
        }
        // Fig. 7's two-level column is Table 4's hit column and the
        // ablation view's first row at each size: one run, three views.
        // (A rendered table's data rows start at its fifth line.)
        let column = |text: String, step: usize, c: usize| -> Vec<String> {
            let rows = text.lines().skip(4).step_by(step).take(4);
            rows.map(|l| l.split_whitespace().nth(c).unwrap().to_string())
                .collect()
        };
        let fig7 = column(render_fig7(&all), 1, 1);
        assert_eq!(fig7, column(render_table4(&all), 1, 1));
        assert_eq!(fig7, column(render_ablation(&all), ABLATION.len(), 2));
    }
}
