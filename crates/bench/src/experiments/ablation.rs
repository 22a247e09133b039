//! Ablations of the design choices DESIGN.md calls out, each isolating one
//! mechanism of the system on the same query stream:
//!
//! 1. **Count short-circuit** — ESM vs VCM: the virtual counts are exactly
//!    the short-circuit that kills failed path exploration.
//! 2. **Cost maintenance** — VCM vs VCMC: what maintaining Cost/BestParent
//!    buys in aggregation work (VCM takes the first path, VCMC the
//!    cheapest).
//! 3. **Group clock-boost** — two-level policy with and without §6.3's
//!    rule 2.
//! 4. **Pre-loading choice** — the max-descendants heuristic vs no
//!    pre-load vs pre-loading the most detailed group-by that fits.

use crate::report::{f2, Table};
use crate::rig::{apb_dataset, manager_for, paper_stream, MB};
use crate::stream::{run_stream, StreamRun};
use aggcache_cache::PolicyKind;
use aggcache_core::Strategy;
use aggcache_gen::Dataset;

/// Options for the ablation suite.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples (ablations run at reduced scale by default).
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Queries per run.
    pub queries: usize,
    /// Workload seed.
    pub workload_seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 220_000,
            seed: 0xA9B1,
            queries: 100,
            workload_seed: 4000,
        }
    }
}

/// Runs all four ablations and renders the report.
pub fn run(opts: Opts) -> String {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let scale = opts.tuples as f64 / 1_100_000.0;
    let cache_bytes = ((15 * MB) as f64 * scale) as usize; // mid-size cache
    let base_run = |strategy| StreamRun {
        queries: opts.queries,
        seed: opts.workload_seed,
        ..StreamRun::paper(strategy, PolicyKind::TwoLevel, cache_bytes)
    };

    let mut out = String::from("Ablations (15 MB-equivalent cache, 100-query paper stream)\n\n");

    // 1 + 2: strategy ladder — ESM → VCM adds the count short-circuit,
    // VCM → VCMC adds cost-optimal path choice.
    {
        let mut table = Table::new(&["strategy", "hit %", "avg ms", "hit lookup ms", "hit agg ms"]);
        for strategy in [Strategy::Esm, Strategy::Vcm, Strategy::Vcmc] {
            let r = run_stream(&dataset, base_run(strategy));
            table.row(vec![
                crate::rig::strategy_name(strategy).to_string(),
                f2(r.complete_hit_pct),
                f2(r.avg_ms),
                f2(r.hit_lookup_ms.avg()),
                f2(r.hit_agg_ms.avg()),
            ]);
        }
        out.push_str("== 1+2. count short-circuit (ESM→VCM) and cost maintenance (VCM→VCMC) ==\n");
        out.push_str(&table.render());
        out.push_str(
            "Expected: identical hit ratios; lookup cost collapses ESM→VCM;\n\
             aggregation cost drops VCM→VCMC.\n\n",
        );
    }

    // 3: group boost on/off.
    {
        let mut table = Table::new(&["group boost", "hit %", "avg ms"]);
        for boost in [true, false] {
            let r = run_stream(
                &dataset,
                StreamRun {
                    group_boost: boost,
                    ..base_run(Strategy::Vcmc)
                },
            );
            table.row(vec![
                boost.to_string(),
                f2(r.complete_hit_pct),
                f2(r.avg_ms),
            ]);
        }
        out.push_str("== 3. two-level group clock-boost ==\n");
        out.push_str(&table.render());
        out.push_str("Expected: boosting keeps aggregatable groups cached (≥ hit ratio).\n\n");
    }

    // 3b: policy ladder — LRU baseline below the paper's two policies.
    {
        let mut table = Table::new(&["policy", "hit %", "avg ms"]);
        for (name, policy) in [
            ("LRU", PolicyKind::Lru),
            ("benefit", PolicyKind::Benefit),
            ("two-level", PolicyKind::TwoLevel),
        ] {
            let r = run_stream(
                &dataset,
                StreamRun {
                    policy,
                    ..base_run(Strategy::Vcmc)
                },
            );
            table.row(vec![name.to_string(), f2(r.complete_hit_pct), f2(r.avg_ms)]);
        }
        out.push_str("== 3b. replacement-policy ladder (all pre-loaded, VCMC) ==\n");
        out.push_str(&table.render());
        out.push_str(
            "The policies separate when the cache can hold the whole base\n\
             table (paper Fig. 7 at 25 MB): two-level pins it, the others\n\
             erode it. At mid sizes they are close — replacement only\n\
             matters for the space left over after pre-loading.\n\n",
        );
    }

    // 4: pre-loading choice.
    {
        let mut table = Table::new(&["preload", "hit %", "avg ms"]);
        for (name, mode) in [
            ("max-descendants", PreloadMode::Best),
            ("none", PreloadMode::None),
            ("most detailed fitting", PreloadMode::DetailedFitting),
        ] {
            let r = run_preload_variant(&dataset, cache_bytes, opts, mode);
            table.row(vec![name.to_string(), f2(r.0), f2(r.1)]);
        }
        out.push_str("== 4. pre-loading heuristic ==\n");
        out.push_str(&table.render());
        out.push_str(
            "Expected: max-descendants best — it maximizes the group-bys the\n\
             cache can answer by aggregation.\n",
        );
    }

    out
}

#[derive(Clone, Copy)]
enum PreloadMode {
    Best,
    None,
    DetailedFitting,
}

/// Runs one stream with a custom preload, returning (hit %, avg ms).
fn run_preload_variant(
    dataset: &Dataset,
    cache_bytes: usize,
    opts: Opts,
    mode: PreloadMode,
) -> (f64, f64) {
    let mut mgr = manager_for(dataset, Strategy::Vcmc, PolicyKind::TwoLevel, cache_bytes);
    match mode {
        PreloadMode::Best => {
            let _ = mgr.preload_best().unwrap();
        }
        PreloadMode::None => {}
        PreloadMode::DetailedFitting => {
            // The most detailed (deepest) group-by whose estimate fits,
            // ignoring descendant counts.
            let lattice = dataset.grid.schema().lattice().clone();
            let schema = dataset.grid.schema().clone();
            let n_facts = dataset.fact.num_tuples();
            let best = lattice
                .iter_ids_under(dataset.fact_gb)
                .filter(|&gb| {
                    let level = lattice.level_of(gb);
                    schema.estimated_distinct_cells(&level, n_facts) * 20 <= cache_bytes as u64
                })
                .max_by_key(|&gb| {
                    lattice
                        .level_of(gb)
                        .iter()
                        .map(|&l| u32::from(l))
                        .sum::<u32>()
                });
            if let Some(gb) = best {
                let desc = lattice.descendant_count(gb);
                let _ = mgr.preload_group_by(gb, desc).unwrap();
            }
        }
    }
    let mut stream = paper_stream(dataset, opts.workload_seed);
    for _ in 0..opts.queries {
        let (q, _) = stream.next_with_kind();
        mgr.run(&(&q).into()).unwrap();
    }
    let s = mgr.session();
    (100.0 * s.complete_hit_ratio(), s.avg_ms())
}
