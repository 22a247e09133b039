//! **Unit experiment B** (§7.1 "Aggregation Cost Optimization") — how much
//! aggregation costs vary across computation paths, i.e. how much a
//! cost-based lookup can save.
//!
//! With every group-by cached, a chunk's *cheapest* computation uses its
//! most immediate cached ancestors while the *most expensive* useful path
//! aggregates straight from the base table. The paper reports the
//! fastest-to-slowest factor to be larger for highly aggregated group-bys
//! and about 10× on average.

use crate::report::{f2, MinMaxAvg, Table};
use crate::rig::{apb_dataset, manager_for};
use aggcache_cache::PolicyKind;
use aggcache_chunks::ChunkKey;
use aggcache_core::Strategy;

/// Options for unit experiment B.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples. The full cube must fit in memory, so the default is
    /// scaled down from the paper's 1 M (the ratio being measured is
    /// scale-free).
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 200_000,
            seed: 0xA9B1,
        }
    }
}

/// Runs the experiment and renders the report.
pub fn run(opts: Opts) -> String {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let lattice = dataset.grid.schema().lattice().clone();
    let mut mgr = manager_for(
        &dataset,
        Strategy::Vcmc,
        PolicyKind::Benefit,
        usize::MAX >> 1,
    );

    // Materialize and cache the entire (answerable) cube so every path is
    // available.
    for gb in lattice.iter_ids_under(dataset.fact_gb) {
        mgr.preload_group_by(gb)
            .expect("answerable group-bys are backend-computable");
    }

    // Per group-by, chunk 0: the spread between the cheapest and the most
    // expensive *computation path* — the choice a cost-based lookup makes.
    // We measure two spreads:
    //   (a) per-step: cheapest vs most expensive immediate parent group-by
    //       (the decision VCMC's BestParent array encodes);
    //   (b) end-to-end: the cheapest path vs aggregating straight from the
    //       fact level (the most expensive useful path).
    let costs = mgr.costs().unwrap();
    let mut step_ratios = MinMaxAvg::default();
    let mut e2e_ratios = MinMaxAvg::default();
    let mut rows: Vec<(u32, f64, f64)> = Vec::new(); // depth, step, e2e
    for gb in lattice.iter_ids_under(dataset.fact_gb) {
        if gb == dataset.fact_gb {
            continue;
        }
        let key = ChunkKey::new(gb, 0);
        let Some(best) = costs.cost(key) else {
            continue;
        };
        if best == 0 {
            continue;
        }
        // (a) Immediate-parent spread: sum of parent chunk costs per
        // answerable parent group-by.
        let mut parent_costs: Vec<u64> = Vec::new();
        for dim in 0..dataset.grid.num_dims() {
            let level = lattice.level_of(gb);
            if level[dim] >= lattice.hierarchy_size(dim) {
                continue;
            }
            let (pgb, parents) = dataset.grid.parent_chunks(gb, 0, dim);
            if !lattice.computable_from(pgb, dataset.fact_gb) {
                continue; // parent beyond the fact level: never cached
            }
            let sum: Option<u64> = parents
                .iter()
                .map(|&p| costs.cost(ChunkKey::new(pgb, p)).map(u64::from))
                .sum();
            if let Some(s) = sum {
                if s > 0 {
                    parent_costs.push(s);
                }
            }
        }
        // The per-step spread, where there are two parents to choose between.
        let step = (parent_costs.len() >= 2).then(|| {
            let fastest = *parent_costs.iter().min().unwrap() as f64;
            let slowest = *parent_costs.iter().max().unwrap() as f64;
            slowest / fastest
        });
        if let Some(step) = step {
            step_ratios.add(step);
        }
        // (b) End-to-end: cheapest path vs the fact-level scan.
        let base_cost: u64 = dataset
            .grid
            .chunks_under(gb, 0, dataset.fact_gb)
            .iter()
            .map(|&c| dataset.fact.tuples_in(c))
            .sum();
        if base_cost > 0 {
            let e2e = base_cost as f64 / f64::from(best);
            e2e_ratios.add(e2e);
            let level = lattice.level_of(gb);
            let depth: u32 = level
                .iter()
                .enumerate()
                .map(|(d, &l)| u32::from(lattice.hierarchy_size(d)) - u32::from(l))
                .sum();
            rows.push((depth, step.unwrap_or(1.0), e2e));
        }
    }

    // Average ratios per aggregation depth (distance below the fact level).
    let mut by_depth: std::collections::BTreeMap<u32, (MinMaxAvg, MinMaxAvg)> = Default::default();
    for (depth, step, e2e) in rows {
        let entry = by_depth.entry(depth).or_default();
        entry.0.add(step);
        entry.1.add(e2e);
    }

    let mut out =
        String::from("Unit experiment B: fastest vs slowest computation path (cost ratios)\n\n");
    let mut table = Table::new(&[
        "aggregation depth",
        "group-bys",
        "per-step avg",
        "per-step max",
        "vs-base avg",
    ]);
    for (depth, (step, e2e)) in &by_depth {
        table.row(vec![
            depth.to_string(),
            e2e.count().to_string(),
            f2(step.avg()),
            f2(step.max),
            f2(e2e.avg()),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nPer-step choice (cheapest vs costliest parent group-by):\n\
         min {:.2}×, max {:.2}×, average {:.2}× over {} group-bys.\n\
         End-to-end (cheapest path vs aggregating from the fact level):\n\
         average {:.2}× — grows explosively with aggregation depth.\n\
         Paper shape: spread larger for highly aggregated group-bys,\n\
         ≈10× on average — cost-based path choice pays off.\n",
        step_ratios.min,
        step_ratios.max,
        step_ratios.avg(),
        step_ratios.count(),
        e2e_ratios.avg(),
    ));
    out
}
