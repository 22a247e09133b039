//! A simulated interactive OLAP session on the APB-1-like retail schema —
//! the workload the paper's introduction motivates: an analyst starting at
//! a yearly overview, drilling into products and quarters, rolling back
//! up, and sliding across time. Roll-ups are where the *active* cache
//! shines: they are answered by aggregating cached detail chunks instead
//! of going back to the warehouse.
//!
//! Run with: `cargo run --release --example retail_dashboard`

use aggcache::prelude::*;

fn step(manager: &mut CacheManager, label: &str, query: &Query) {
    let r = manager.run(&(query).into()).unwrap();
    let m = r.metrics;
    let source = if m.complete_hit {
        if m.chunks_computed > 0 {
            "cache (aggregated)"
        } else {
            "cache (direct)"
        }
    } else {
        "backend"
    };
    println!(
        "{label:<42} {:>6} cells  {:>8.1} ms  from {source}",
        r.data.len(),
        m.total_ms()
    );
}

fn main() {
    println!("generating the APB-1-like dataset (~200k tuples)…");
    let dataset = Apb1Config {
        n_tuples: 200_000,
        ..Apb1Config::default()
    }
    .build();
    let grid = dataset.grid.clone();
    let lattice = grid.schema().lattice().clone();
    let backend = Backend::new(dataset.fact, AggFn::Sum, BackendCostModel::default());
    let mut manager = CacheManager::builder()
        .strategy(Strategy::Vcmc)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(6 * 1_000_000)
        .build(backend)
        .unwrap();

    // Pre-load per the two-level policy.
    if let Some(report) = manager.preload_best().unwrap() {
        println!(
            "pre-loaded group-by {:?} ({} chunks, {:.1} MB, {} lattice descendants)\n",
            report.level,
            report.chunks,
            report.bytes as f64 / 1e6,
            report.descendants
        );
    }

    // Levels: (Product, Customer, Time, Channel, Scenario).
    let gb = |l: &[u8]| lattice.id_of(l).unwrap();

    println!("-- the analyst's session ------------------------------------");
    // 1. Yearly sales by product line across all stores.
    let q = Query::full_group_by(&grid, gb(&[2, 0, 1, 0, 0]));
    step(&mut manager, "yearly sales by product line", &q);

    // 2. Drill into quarters.
    let q = Query::full_group_by(&grid, gb(&[2, 0, 2, 0, 0]));
    step(&mut manager, "  drill down: by quarter", &q);

    // 3. Drill into product families for Q1-ish chunk.
    let q = Query::from_region(
        &grid,
        gb(&[3, 0, 2, 0, 0]),
        &[(0, 4), (0, 1), (0, 1), (0, 1), (0, 1)],
    );
    step(&mut manager, "    drill down: families, first quarters", &q);

    // 4. Roll back up to product groups by year — the classic roll-up the
    //    paper's active cache answers without the backend.
    let q = Query::full_group_by(&grid, gb(&[2, 0, 1, 0, 0]));
    step(&mut manager, "  roll up: product line by year (again)", &q);

    // 5. Slide across time (proximity).
    let q = Query::from_region(
        &grid,
        gb(&[3, 0, 2, 0, 0]),
        &[(0, 4), (0, 1), (1, 2), (0, 1), (0, 1)],
    );
    step(&mut manager, "    proximity: families, later quarters", &q);

    // 6. Channel breakdown of the grand total.
    let q = Query::full_group_by(&grid, gb(&[0, 0, 0, 1, 0]));
    step(&mut manager, "  roll up: total by channel", &q);

    // 7. The grand total.
    let q = Query::full_group_by(&grid, gb(&[0, 0, 0, 0, 0]));
    step(&mut manager, "  roll up: grand total", &q);

    let s = manager.session();
    println!(
        "\n{} queries, {} complete hits ({:.0}%), {:.1} ms avg",
        s.queries,
        s.complete_hits,
        100.0 * s.complete_hit_ratio(),
        s.avg_ms()
    );
    println!(
        "aggregated {} tuples in cache; scanned {} tuples at the backend",
        s.sum.tuples_aggregated, s.sum.backend_tuples
    );
}
