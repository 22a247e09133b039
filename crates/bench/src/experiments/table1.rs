//! **Table 1** — lookup times (min / max / average over all answerable
//! group-bys) for ESM, ESMC, VCM and VCMC, with an empty cache and with the
//! cache warmed with every base-table chunk.
//!
//! Paper shape to reproduce: VCM/VCMC lookups are negligible in both
//! scenarios; ESM is expensive on an empty cache (all paths fail, all are
//! explored) but negligible once the base is cached (the first path wins);
//! ESMC is expensive empty and *unreasonable* warm (it explores every path
//! through every computable chunk, with full chunk fan-out).

use crate::report::{f3, MinMaxAvg, Table};
use crate::rig::{apb_dataset, manager_for, strategy_name};
use aggcache_cache::PolicyKind;
use aggcache_chunks::ChunkKey;
use aggcache_core::{CacheManager, LookupOutcome, Strategy};
use aggcache_gen::Dataset;
use std::time::Instant;

/// Options for the Table 1 run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples (paper: 1 M).
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Node budget per ESMC lookup; lookups that exceed it are reported as
    /// aborted (the paper ran them to completion — up to 5.5 *hours* for
    /// one lookup).
    pub esmc_budget: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 1_000_000,
            seed: 0xA9B1,
            esmc_budget: 5_000_000,
        }
    }
}

struct AlgoResult {
    name: &'static str,
    times_us: MinMaxAvg,
    aborted: u64,
}

fn measure(mgr: &CacheManager, dataset: &Dataset, name: &'static str) -> AlgoResult {
    let lattice = dataset.grid.schema().lattice().clone();
    let mut times = MinMaxAvg::default();
    let mut aborted = 0u64;
    // "We measured the lookup time for one chunk at each level of
    // aggregation" — chunk 0 of every group-by the backend can answer.
    for gb in lattice.iter_ids_under(dataset.fact_gb) {
        let key = ChunkKey::new(gb, 0);
        let t = Instant::now();
        let LookupOutcome { plan, stats } = mgr.lookup_chunk(key);
        let elapsed = t.elapsed().as_secs_f64() * 1.0e6;
        // Budget-aborted ESMC lookups report as misses with huge node
        // counts; count them separately instead of polluting the stats.
        if plan.is_none()
            && matches!(mgr.config().strategy, Strategy::Esmc { node_budget: Some(b) } if stats.nodes_visited > b)
        {
            aborted += 1;
            continue;
        }
        times.add(elapsed);
    }
    AlgoResult {
        name,
        times_us: times,
        aborted,
    }
}

/// Runs the experiment and renders the report.
pub fn run(opts: Opts) -> String {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let strategies = [
        Strategy::Esm,
        Strategy::Esmc {
            node_budget: Some(opts.esmc_budget),
        },
        Strategy::Vcm,
        Strategy::Vcmc,
    ];

    let mut out = String::from("Table 1: lookup times (microseconds per lookup)\n\n");

    for (scenario, warm) in [
        ("Cache Empty", false),
        ("Cache Preloaded (all base chunks)", true),
    ] {
        let mut table = Table::new(&["algorithm", "min µs", "max µs", "avg µs", "aborted"]);
        for strategy in strategies {
            let mut mgr = manager_for(&dataset, strategy, PolicyKind::Benefit, usize::MAX >> 1);
            if warm {
                mgr.preload_group_by(dataset.fact_gb, 0)
                    .expect("fact level is computable");
            }
            let r = measure(&mgr, &dataset, strategy_name(strategy));
            table.row(vec![
                r.name.to_string(),
                f3(r.times_us.min),
                f3(r.times_us.max),
                f3(r.times_us.avg()),
                if r.aborted > 0 {
                    format!("{} (> {} nodes)", r.aborted, opts.esmc_budget)
                } else {
                    "0".to_string()
                },
            ]);
        }
        out.push_str(&format!("== {scenario} ==\n"));
        out.push_str(&table.render());
        out.push('\n');
    }
    out.push_str(
        "Paper shape: VCM/VCMC ≈ 0 in both scenarios; ESM large when empty,\n\
         ≈ 0 when preloaded; ESMC large when empty and unreasonable when\n\
         preloaded (budget-aborted lookups reproduce 'unreasonable').\n",
    );
    out
}
