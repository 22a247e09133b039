//! Uses VCMC's cost table the way a cost-based optimizer would (paper
//! §5.2): ask — in O(1), without aggregating anything — what each chunk of
//! every group-by would cost to compute from the cache, and compare it
//! with the modeled backend cost to decide where each query should run.
//!
//! Run with: `cargo run --release --example cost_explorer`

use aggcache::core::CACHE_PER_TUPLE_US;
use aggcache::prelude::*;

fn main() {
    let dataset = SyntheticSpec::new()
        .dim("product", vec![1, 4, 16], vec![1, 2, 4])
        .dim("region", vec![1, 3, 9], vec![1, 3, 3])
        .dim("month", vec![1, 12], vec![1, 4])
        .tuples(30_000)
        .seed(99)
        .build();
    let grid = dataset.grid.clone();
    let lattice = grid.schema().lattice().clone();
    let backend = Backend::new(dataset.fact, AggFn::Sum, BackendCostModel::default());
    let cost_model = *backend.cost_model();
    let mut manager = CacheManager::builder()
        .strategy(Strategy::Vcmc)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(8 * 1_000_000)
        .build(backend)
        .unwrap();

    // Cache the base level plus one intermediate group-by, so some chunks
    // have several computation paths with different costs.
    let base = lattice.base();
    manager
        .run(&(&Query::full_group_by(&grid, base)).into())
        .unwrap();
    let mid = lattice.id_of(&[1, 2, 1]).unwrap();
    manager
        .run(&(&Query::full_group_by(&grid, mid)).into())
        .unwrap();

    println!(
        "{:<12} {:>6} {:>14} {:>14} {:>10}",
        "group-by", "chunk", "cache cost", "backend ms", "decision"
    );
    println!("{}", "-".repeat(62));

    let costs = manager.costs().expect("VCMC maintains a cost table");
    for (gb, level) in lattice.iter_levels() {
        // Show one chunk per group-by at a few interesting levels.
        let depth: u32 = level.iter().map(|&l| u32::from(l)).sum();
        if !depth.is_multiple_of(2) {
            continue;
        }
        let key = ChunkKey::new(gb, 0);
        let cache_cost = costs.cost(key);
        // What the backend would charge for the same chunk (modeled).
        let scanned = grid.base_cells_under(gb, 0).min(30_000);
        let backend_ms = cost_model.fetch_ms(scanned, 64);
        match cache_cost {
            Some(tuples) => {
                let cache_ms = f64::from(tuples) * CACHE_PER_TUPLE_US / 1000.0;
                let decision = if cache_ms <= backend_ms {
                    "CACHE"
                } else {
                    "BACKEND"
                };
                println!(
                    "{:<12} {:>6} {:>8} tuples {:>11.2} ms {:>10}",
                    format!("{level:?}"),
                    0,
                    tuples,
                    backend_ms,
                    decision
                );
            }
            None => {
                println!(
                    "{:<12} {:>6} {:>14} {:>11.2} ms {:>10}",
                    format!("{level:?}"),
                    0,
                    "not computable",
                    backend_ms,
                    "BACKEND"
                );
            }
        }
    }

    println!(
        "\nEvery `cache cost` above was answered in O(1) from the VCMC\n\
         arrays — \"very useful for a cost-based optimizer, which can then\n\
         decide whether to aggregate in the cache or go to the backend\" (§5.2)."
    );
}
