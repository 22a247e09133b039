//! End-to-end reproductions of the paper's running examples (Examples 1-6
//! and Figures 1, 2, 4, 5), driven through the public API.

use aggcache::prelude::*;

/// Figure 1's setup: dimensions Product and Time, chunks at level
/// (Product, Time) and at level (Time). The closure property: chunk 0 of
/// (Time) is computable from chunks {0, 1, 2, 3} of (Product, Time).
#[test]
fn figure1_closure_property() {
    let dataset = SyntheticSpec::new()
        .dim("product", vec![1, 9], vec![1, 3]) // 3 chunks of 3 values
        .dim("time", vec![1, 8], vec![1, 4]) // 4 chunks of 2 values
        .tuples(72)
        .density(1.0)
        .build();
    let grid = dataset.grid.clone();
    let lattice = grid.schema().lattice().clone();
    let product_time = lattice.base(); // (1, 1)
    let time_only = lattice.id_of(&[0, 1]).unwrap(); // (Time)

    // Chunk 0 of (Time) must map to the product-complete set of chunks at
    // (Product, Time) covering time-chunk 0: with 3 product chunks, those
    // are chunks {0, 4, 8}… numbering is row-major (product, time).
    let (pgb, parents) = grid.parent_chunks(time_only, 0, 0);
    assert_eq!(pgb, product_time);
    assert_eq!(parents, vec![0, 4, 8]);

    // And the data computed from them equals a direct backend computation.
    let backend = Backend::new(
        dataset.fact.clone(),
        AggFn::Sum,
        BackendCostModel::default(),
    );
    let mut mgr = CacheManager::builder()
        .strategy(Strategy::Vcm)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(usize::MAX >> 1)
        .build(Backend::new(
            dataset.fact.clone(),
            AggFn::Sum,
            BackendCostModel::default(),
        ))
        .unwrap();
    mgr.run(&(&Query::full_group_by(&grid, product_time)).into())
        .unwrap();
    let r = mgr.run(&(&Query::new(time_only, vec![0])).into()).unwrap();
    assert!(r.metrics.complete_hit);
    let expected = backend.fetch(time_only, &[0]).unwrap().chunks.remove(0).1;
    let mut got = r.data;
    got.sort_by_coords();
    assert_eq!(got, expected);
}

/// Example 1 (Figure 2): queries Q1 and Q2 populate the cache; Q3 overlaps
/// both and only its missing chunks go to the backend.
#[test]
fn example1_overlapping_queries_reuse_chunks() {
    let dataset = SyntheticSpec::new()
        .dim("x", vec![1, 16], vec![1, 8])
        .dim("y", vec![1, 16], vec![1, 8])
        .tuples(400)
        .seed(3)
        .build();
    let grid = dataset.grid.clone();
    let base = grid.schema().lattice().base();
    let mut mgr = CacheManager::builder()
        .strategy(Strategy::Vcm)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(usize::MAX >> 1)
        .build(Backend::new(
            dataset.fact,
            AggFn::Sum,
            BackendCostModel::default(),
        ))
        .unwrap();

    // Q1: a block in the lower-left; Q2: a block in the upper-right.
    let q1 = Query::from_region(&grid, base, &[(0, 3), (0, 3)]);
    let q2 = Query::from_region(&grid, base, &[(4, 8), (4, 8)]);
    let m1 = mgr.run(&(&q1).into()).unwrap().metrics;
    let m2 = mgr.run(&(&q2).into()).unwrap().metrics;
    assert_eq!(m1.chunks_missed, 9);
    assert_eq!(m2.chunks_missed, 16);

    // Q3 straddles both: it reuses every chunk it has in common with Q1
    // and Q2, fetching only the shaded remainder.
    let q3 = Query::from_region(&grid, base, &[(2, 6), (2, 6)]);
    let m3 = mgr.run(&(&q3).into()).unwrap().metrics;
    let overlap_q1 = 1; // (2..3) x (2..3)
    let overlap_q2 = 4; // (4..6) x (4..6)
    assert_eq!(m3.chunks_hit, overlap_q1 + overlap_q2);
    assert_eq!(m3.chunks_missed, 16 - overlap_q1 - overlap_q2);
}

/// Example 2 (Figure 3): group-by (0,2,0) of a 3-dimensional schema with
/// hierarchy sizes (1,2,1) is computable from (0,2,1) or (1,2,0), and all
/// paths to the base can answer it.
#[test]
fn example2_lattice_computability() {
    let schema = std::sync::Arc::new(
        Schema::new(vec![
            Dimension::balanced("A", vec![1, 4]).unwrap(),
            Dimension::balanced("B", vec![1, 2, 6]).unwrap(),
            Dimension::balanced("C", vec![1, 4]).unwrap(),
        ])
        .unwrap(),
    );
    let lattice = schema.lattice().clone();
    assert_eq!(lattice.num_group_bys(), 2 * 3 * 2);
    let target = lattice.id_of(&[0, 2, 0]).unwrap();
    for (src_level, expect) in [
        ([0u8, 2, 1], true),
        ([1, 2, 0], true),
        ([1, 2, 1], true),
        ([0, 1, 1], false), // B too aggregated
    ] {
        let src = lattice.id_of(&src_level).unwrap();
        assert_eq!(
            lattice.computable_from(target, src),
            expect,
            "{src_level:?}"
        );
    }
}

/// Examples 3+4 (Figure 4), end to end: the exact cache state of the
/// figure, reached through the manager, yields the figure's counts.
#[test]
fn example4_counts_via_manager() {
    let dataset = SyntheticSpec::new()
        .dim("x", vec![1, 4], vec![1, 2])
        .dim("y", vec![1, 4], vec![1, 2])
        .tuples(16)
        .density(1.0)
        .build();
    let grid = dataset.grid.clone();
    let lattice = grid.schema().lattice().clone();
    let b11 = lattice.base();
    let b01 = lattice.id_of(&[0, 1]).unwrap();
    let b10 = lattice.id_of(&[1, 0]).unwrap();
    let b00 = lattice.top();

    let mut mgr = CacheManager::builder()
        .strategy(Strategy::Vcm)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(usize::MAX >> 1)
        .build(Backend::new(
            dataset.fact,
            AggFn::Sum,
            BackendCostModel::default(),
        ))
        .unwrap();
    // Reach the figure's cache state with queries: chunks 0,2,3 of (1,1),
    // chunk 0 of (0,1), chunk 0 of (0,0).
    mgr.run(&(&Query::new(b11, vec![0, 2, 3])).into()).unwrap();
    mgr.run(&(&Query::new(b01, vec![0])).into()).unwrap();
    mgr.run(&(&Query::new(b00, vec![0])).into()).unwrap();

    let counts = mgr.counts().unwrap();
    // (0,1) chunk 0: cached + computable through (1,1) = 2.
    assert_eq!(counts.count(ChunkKey::new(b01, 0)), 2);
    // (1,0) chunk 1: computable through (1,1) chunks 2,3 only.
    assert_eq!(counts.count(ChunkKey::new(b10, 1)), 1);
    assert_eq!(counts.count(ChunkKey::new(b10, 0)), 0);
    // (1,1) chunk 1 was never touched.
    assert_eq!(counts.count(ChunkKey::new(b11, 1)), 0);
}

/// Example 5 (Figure 5): two computation paths with different costs; the
/// cost-based methods take the cheaper one and Property "it is better to
/// compute from a more immediate ancestor" holds.
#[test]
fn example5_cost_based_path_choice() {
    let dataset = SyntheticSpec::new()
        .dim("x", vec![1, 12], vec![1, 2])
        .dim("y", vec![1, 12], vec![1, 2])
        .tuples(144)
        .density(1.0)
        .build();
    let grid = dataset.grid.clone();
    let lattice = grid.schema().lattice().clone();
    let mut mgr = CacheManager::builder()
        .strategy(Strategy::Vcmc)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(usize::MAX >> 1)
        .build(Backend::new(
            dataset.fact,
            AggFn::Sum,
            BackendCostModel::default(),
        ))
        .unwrap();
    // Cache the full base (large chunks) and the full (0,1) level (small
    // chunks).
    mgr.run(&(&Query::full_group_by(&grid, lattice.base())).into())
        .unwrap();
    let b01 = lattice.id_of(&[0, 1]).unwrap();
    mgr.run(&(&Query::full_group_by(&grid, b01)).into())
        .unwrap();

    // The grand total is computable via base (144 tuples) or via the two
    // cached/computed (0,1) chunks (24 tuples). VCMC must pick the latter.
    let top_key = ChunkKey::new(lattice.top(), 0);
    let cost = mgr.costs().unwrap().cost(top_key).unwrap();
    assert!(cost <= 24, "expected the cheap path, got {cost} tuples");
    let m = mgr
        .run(&(&Query::new(lattice.top(), vec![0])).into())
        .unwrap()
        .metrics;
    assert!(m.complete_hit);
    assert!(m.tuples_aggregated <= 24);
}

/// Example 6 (Figure 6): the presence of a sibling chunk raises the
/// benefit of a group — expressed in counts: with only chunk 0 of (1,1)
/// cached, (0,1) chunk 0 is not computable; adding chunk 2 (its sibling
/// along x) makes it so.
#[test]
fn example6_groups_enable_computability() {
    let grid = aggcache::gen::fig4_spec().build_grid();
    let lattice = grid.schema().lattice().clone();
    let b11 = lattice.base();
    let b01 = lattice.id_of(&[0, 1]).unwrap();
    let mut counts = CountTable::new(grid.clone());
    counts.on_insert(ChunkKey::new(b11, 0));
    assert!(!counts.is_computable(ChunkKey::new(b01, 0)));
    counts.on_insert(ChunkKey::new(b11, 2));
    assert!(counts.is_computable(ChunkKey::new(b01, 0)));
    // And removing either breaks the group again.
    counts.on_evict(ChunkKey::new(b11, 0));
    assert!(!counts.is_computable(ChunkKey::new(b01, 0)));
}
