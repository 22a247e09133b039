//! Property-based tests of the core invariants, on randomly generated
//! schemas, chunkings and cache states.

use aggcache::core::{esm, execute_plan, vcm, vcmc, ComputationPlan, LookupStats};
use aggcache::prelude::*;
use aggcache::store::{aggregate_to_level, aggregate_to_level_parallel};
use proptest::prelude::*;
// Our `Strategy` enum (from the prelude glob) shadows proptest's trait of
// the same name; re-import the trait under an alias.
use proptest::strategy::Strategy as PropStrategy;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Strategy: a random small schema + aligned chunking (1-3 dims, hierarchy
/// sizes 1-3, modest cardinalities) as a built grid.
fn arb_grid() -> impl PropStrategy<Value = Arc<ChunkGrid>> {
    let dim = (1u8..=3)
        .prop_flat_map(|h| {
            // Cardinalities grow with level; chunk counts are feasible.
            proptest::collection::vec(1u32..=3, h as usize).prop_map(move |fanouts| {
                let mut cards = vec![1u32];
                for f in fanouts {
                    let last = *cards.last().unwrap();
                    cards.push(last * f + 1);
                }
                cards
            })
        })
        .prop_map(|cards| {
            let chunks: Vec<u32> = cards
                .iter()
                .enumerate()
                .map(|(l, &c)| c.min(1 + l as u32).min(c))
                .collect();
            (cards, chunks)
        });
    proptest::collection::vec(dim, 1..=3).prop_map(|dims| {
        let mut spec = SyntheticSpec::new();
        for (i, (cards, mut chunks)) in dims.into_iter().enumerate() {
            // Chunk counts must be non-decreasing with level.
            for l in 1..chunks.len() {
                chunks[l] = chunks[l].max(chunks[l - 1]);
            }
            spec = spec.dim(format!("d{i}"), cards, chunks);
        }
        spec.build_grid()
    })
}

/// All chunk keys of a grid.
fn all_keys(grid: &ChunkGrid) -> Vec<ChunkKey> {
    grid.schema()
        .lattice()
        .iter_ids()
        .flat_map(|gb| (0..grid.n_chunks(gb)).map(move |c| ChunkKey::new(gb, c)))
        .collect()
}

/// Base-level cells from random `(bits, value)` pairs: coordinate `k` is a
/// byte-shifted slice of the bits, folded into the dimension's base
/// cardinality so roll-up tables apply.
fn base_cells(schema: &Schema, cells: &[(u64, f64)]) -> ChunkData {
    let base = schema.base_level();
    let mut d = ChunkData::new(schema.num_dims());
    for &(raw, v) in cells {
        let coords: Vec<u32> = (0..schema.num_dims())
            .map(|k| ((raw >> (8 * k)) as u32) % schema.dimension(k).cardinality(base[k]))
            .collect();
        d.push(&coords, v);
    }
    d
}

fn cached_cell(n_dims: usize, cells: usize) -> ChunkData {
    let mut d = ChunkData::new(n_dims);
    for i in 0..cells {
        d.push(&vec![i as u32; n_dims], 1.0);
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1 (paper §4): after ANY sequence of inserts and evictions,
    /// `count > 0` iff ESM finds the chunk computable — for EVERY chunk.
    #[test]
    fn vcm_count_equals_esm_computability(
        grid in arb_grid(),
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..500), 1..40),
    ) {
        let keys = all_keys(&grid);
        let mut cache = ChunkCache::new(usize::MAX >> 1, PolicyKind::Benefit);
        let mut counts = CountTable::new(grid.clone());
        for (insert, pick) in ops {
            let key = keys[pick % keys.len()];
            if insert && !cache.contains(&key) {
                cache.insert(key, cached_cell(grid.num_dims(), 2), Origin::Backend, 1.0);
                counts.on_insert(key);
            } else if !insert && cache.contains(&key) {
                cache.remove(&key);
                counts.on_evict(key);
            }
        }
        for &key in &keys {
            let mut stats = LookupStats::default();
            let esm_says = esm(&cache, &grid, key, &mut stats).is_some();
            prop_assert_eq!(
                counts.is_computable(key),
                esm_says,
                "Property 1 violated at {:?}", key
            );
        }
    }

    /// VCMC's maintained least cost equals the exhaustive oracle minimum,
    /// and vcmc plans only reference cached chunks with total size = cost.
    #[test]
    fn vcmc_cost_is_exact_minimum(
        grid in arb_grid(),
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..500, 1u32..6), 1..30),
    ) {
        let keys = all_keys(&grid);
        let mut cache = ChunkCache::new(usize::MAX >> 1, PolicyKind::Benefit);
        let mut costs = CostTable::new(grid.clone());
        let mut sizes: HashMap<ChunkKey, u32> = HashMap::new();
        for (insert, pick, size) in ops {
            let key = keys[pick % keys.len()];
            if insert && !cache.contains(&key) {
                cache.insert(key, cached_cell(grid.num_dims(), size as usize), Origin::Backend, 1.0);
                costs.on_insert(key, size);
                sizes.insert(key, size);
            } else if !insert && cache.contains(&key) {
                cache.remove(&key);
                costs.on_evict(key);
                sizes.remove(&key);
            }
        }
        let oracle = CostTable::oracle_costs(&grid, |k| sizes.get(&k).copied());
        for &key in &keys {
            let oracle_cost = oracle[key.gb.index()][key.chunk as usize];
            let table_cost = costs.cost(key);
            if oracle_cost == u32::MAX {
                prop_assert!(table_cost.is_none(), "{:?} should not be computable", key);
            } else {
                prop_assert_eq!(table_cost, Some(oracle_cost), "wrong cost at {:?}", key);
                // The plan must reach exactly that cost using cached leaves.
                let mut stats = LookupStats::default();
                let plan = vcmc(&costs, &cache, &grid, key, &mut stats).unwrap();
                prop_assert_eq!(plan.cost, u64::from(oracle_cost));
                let leaf_total: u64 = plan
                    .leaves
                    .iter()
                    .map(|l| u64::from(*sizes.get(l).expect("leaf must be cached")))
                    .sum();
                prop_assert_eq!(leaf_total, plan.cost);
            }
        }
    }

    /// ESM, VCM and VCMC always agree on computability, and their plans'
    /// leaves partition the target region (verified via the executor
    /// producing identical results).
    #[test]
    fn strategies_agree_and_plans_are_valid(
        grid in arb_grid(),
        ops in proptest::collection::vec(0usize..500, 1..25),
    ) {
        let keys = all_keys(&grid);
        let mut cache = ChunkCache::new(usize::MAX >> 1, PolicyKind::Benefit);
        let mut counts = CountTable::new(grid.clone());
        let mut costs = CostTable::new(grid.clone());
        for pick in ops {
            let key = keys[pick % keys.len()];
            if !cache.contains(&key) {
                cache.insert(key, cached_cell(grid.num_dims(), 1), Origin::Backend, 1.0);
                counts.on_insert(key);
                costs.on_insert(key, 1);
            }
        }
        for &key in &keys {
            let mut s = LookupStats::default();
            let e = esm(&cache, &grid, key, &mut s);
            let v = vcm(&counts, &cache, &grid, key, &mut s);
            let vc = vcmc(&costs, &cache, &grid, key, &mut s);
            prop_assert_eq!(e.is_some(), v.is_some());
            prop_assert_eq!(e.is_some(), vc.is_some());
            if let (Some(pe), Some(pv), Some(pvc)) = (e, v, vc) {
                for plan in [&pe, &pv, &pvc] {
                    for leaf in &plan.leaves {
                        prop_assert!(cache.contains(leaf));
                    }
                }
                // Optimal cost is a lower bound on any found path's cost.
                prop_assert!(pvc.cost <= pe.cost);
                prop_assert!(pvc.cost <= pv.cost);
            }
        }
    }

    /// Lemma 1 path-count formula matches dynamic programming on random
    /// hierarchy shapes.
    #[test]
    fn lemma1_holds_on_random_lattices(
        sizes in proptest::collection::vec(1u8..=4, 1..=4),
    ) {
        let lattice = Lattice::new(&sizes).unwrap();
        // DP over the lattice.
        let mut paths: Vec<u128> = vec![0; lattice.num_group_bys() as usize];
        let base = lattice.base();
        paths[base.index()] = 1;
        let mut ids: Vec<GroupById> = lattice.iter_ids().collect();
        ids.sort_by_key(|&id| {
            std::cmp::Reverse(lattice.level_of(id).iter().map(|&l| u32::from(l)).sum::<u32>())
        });
        for id in ids {
            if id != base {
                paths[id.index()] = lattice.parents(id).map(|(_, p)| paths[p.index()]).sum();
            }
            let level = lattice.level_of(id);
            prop_assert_eq!(lattice.num_paths_to_base(&level), Some(paths[id.index()]));
        }
    }

    /// Parallel aggregation is bit-exact: [`aggregate_to_level_parallel`]
    /// — each worker owning a share of the target box, fed every source,
    /// combining only its own cells, the shares appended in order — yields
    /// the same `f64` bit patterns as the single-threaded
    /// [`aggregate_to_level`] kernel — for random chunk sets, every
    /// aggregate function and 1/2/3/8 threads.
    #[test]
    fn sharded_merge_matches_sequential_kernel(
        grid in arb_grid(),
        chunks in proptest::collection::vec(
            proptest::collection::vec((0u64..u64::MAX, -1.0e6f64..1.0e6), 1..16),
            1..5,
        ),
    ) {
        let schema = grid.schema();
        let base = schema.base_level();
        // Jagged values: sums of these are order-sensitive in the last
        // ulp, which is exactly what the exchange must preserve.
        let datas: Vec<ChunkData> = chunks.iter().map(|c| base_cells(schema, c)).collect();
        let sources: Vec<(&[u8], &ChunkData)> =
            datas.iter().map(|d| (base.as_slice(), d)).collect();

        for gb in schema.lattice().iter_ids() {
            let target = schema.lattice().level_of(gb);
            for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
                let expected = aggregate_to_level(schema, &sources, &target, agg, Lift::Lifted);
                for nshards in [1usize, 2, 3, 8] {
                    let (got, cells) = aggregate_to_level_parallel(
                        schema, &sources, &target, agg, Lift::Lifted, nshards,
                    );
                    let total_inputs: u64 = datas.iter().map(|d| d.len() as u64).sum();
                    prop_assert_eq!(
                        cells,
                        total_inputs,
                        "every input cell must be owned by exactly one shard"
                    );
                    prop_assert_eq!(got.len(), expected.len());
                    for i in 0..got.len() {
                        prop_assert_eq!(got.coords_of(i), expected.coords_of(i));
                        prop_assert_eq!(
                            got.value_of(i).to_bits(),
                            expected.value_of(i).to_bits(),
                            "{:?} nshards={} cell {}: {} vs {}",
                            agg, nshards, i, got.value_of(i), expected.value_of(i)
                        );
                    }
                }
            }
        }
    }

    /// The roll-up kernel behind a complete hit: a random target chunk
    /// computed by `execute_plan` from random cached leaves at mixed
    /// levels under it equals the row-at-a-time reference over those
    /// leaves bit for bit and in cell order — whichever way the kernel
    /// held the box — having consumed exactly the leaves' cells; and
    /// `Backend::fetch` of the same chunk equals the reference over the
    /// facts themselves. The two agree with each other exactly for
    /// COUNT/MIN/MAX and up to SUM's re-association.
    #[test]
    fn a_plan_over_mixed_level_leaves_matches_the_backend_and_the_row_reference(
        grid in arb_grid(),
        facts in proptest::collection::vec(
            (0u64..u64::MAX, prop_oneof![Just(-0.0f64), -1.0e6f64..1.0e6]),
            1..60,
        ),
        agg in prop_oneof![Just(AggFn::Sum), Just(AggFn::Count), Just(AggFn::Min), Just(AggFn::Max)],
        target_pick in 0usize..10_000,
        splits in proptest::collection::vec((0usize..64, 0usize..3), 0..6),
    ) {
        let schema = grid.schema().clone();
        let lattice = schema.lattice();
        let base = lattice.base();
        let backend = Backend::new(
            FactTable::load(grid.clone(), base, base_cells(&schema, &facts)),
            agg,
            BackendCostModel::default(),
        );
        let keys = all_keys(&grid);
        let target = keys[target_pick % keys.len()];
        // Split the target into leaves: each step replaces one leaf by its
        // parent chunks along one dimension, where that dimension has one.
        let mut leaves = vec![target];
        for (pick, dim) in splits {
            let i = pick % leaves.len();
            let (leaf, dim) = (leaves[i], dim % grid.num_dims());
            let level = grid.geom(leaf.gb).level()[dim];
            if level < schema.dimension(dim).hierarchy_size() {
                let (parent_gb, parents) = grid.parent_chunks(leaf.gb, leaf.chunk, dim);
                leaves.swap_remove(i);
                leaves.extend(parents.into_iter().map(|c| ChunkKey::new(parent_gb, c)));
            }
        }
        let mut cache = ChunkCache::new(usize::MAX >> 1, PolicyKind::Benefit);
        let mut leaf_cells = 0u64;
        for &leaf in &leaves {
            let mut fetched = backend.fetch(leaf.gb, &[leaf.chunk]).unwrap();
            let data = fetched.chunks.pop().unwrap().1;
            leaf_cells += data.len() as u64;
            cache.insert(leaf, data, Origin::Backend, 1.0);
        }
        let plan = ComputationPlan { target, leaves, cost: leaf_cells, direct_hit: false };
        let (computed, consumed) = execute_plan(&grid, &cache, agg, &plan);
        prop_assert_eq!(consumed, leaf_cells);

        // Row at a time: every coordinate through `ancestor_value`, cells
        // combined per target coordinate in input order.
        let level = lattice.level_of(target.gb);
        let reference = |sources: &[(&[u8], &ChunkData)], lift: Lift| {
            let mut cells: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
            for &(from, data) in sources {
                for (c, v) in data.iter() {
                    let to: Vec<u32> = (0..c.len())
                        .map(|d| schema.dimension(d).ancestor_value(from[d], level[d], c[d]))
                        .collect();
                    let v = if lift == Lift::Raw { agg.lift(v) } else { v };
                    cells.entry(to).and_modify(|acc| *acc = agg.combine(*acc, v)).or_insert(v);
                }
            }
            cells.into_iter().collect::<Vec<_>>()
        };
        let same_bits = |got: &ChunkData, want: &[(Vec<u32>, f64)]| {
            got.len() == want.len()
                && got.iter().zip(want).all(|((c, v), (wc, wv))| c == &wc[..] && v.to_bits() == wv.to_bits())
        };
        let from_leaves: Vec<(&[u8], &ChunkData)> = plan
            .leaves
            .iter()
            .map(|leaf| (grid.geom(leaf.gb).level(), &cache.peek(leaf).unwrap().data))
            .collect();
        prop_assert!(
            same_bits(&computed, &reference(&from_leaves, Lift::Lifted)),
            "execute_plan vs reference over the leaves, {:?} {:?}", agg, plan
        );

        let fetched = backend.fetch(target.gb, &[target.chunk]).unwrap();
        let fetched = &fetched.chunks[0].1;
        let under: Vec<ChunkData> = grid
            .enumerate_region(base, &grid.cover_at(target.gb, target.chunk, base))
            .into_iter()
            .map(|c| {
                let mut run = ChunkData::new(grid.num_dims());
                backend.fact().scan_chunk(c).for_each(|(c, v)| run.push(c, v));
                run
            })
            .collect();
        let base_level = schema.base_level();
        let from_facts: Vec<(&[u8], &ChunkData)> =
            under.iter().map(|d| (&base_level[..], d)).collect();
        prop_assert!(
            same_bits(fetched, &reference(&from_facts, Lift::Raw)),
            "Backend::fetch vs reference over the facts, {:?} {:?}", agg, target
        );

        prop_assert_eq!(computed.raw_coords(), fetched.raw_coords());
        for (v, w) in computed.raw_values().iter().zip(fetched.raw_values()) {
            if agg == AggFn::Sum {
                prop_assert!((v - w).abs() <= 1e-3, "{} vs {}", v, w);
            } else {
                prop_assert_eq!(v.to_bits(), w.to_bits());
            }
        }
    }

    /// The AVG dual-cube path stays bit-exact under sharding: a sharded
    /// SUM cube joined with a sharded COUNT cube gives the same averages,
    /// bit for bit, as the single-threaded SUM/COUNT join.
    #[test]
    fn sharded_avg_dual_cube_matches_sequential(
        grid in arb_grid(),
        cells in proptest::collection::vec((0u64..u64::MAX, -1.0e6f64..1.0e6), 1..40),
    ) {
        let schema = grid.schema();
        let base = schema.base_level();
        let data = base_cells(schema, &cells);
        let sources: Vec<(&[u8], &ChunkData)> = vec![(base.as_slice(), &data)];
        let top = schema.lattice().level_of(schema.lattice().top());

        let cube = |agg: AggFn, nshards: usize| -> ChunkData {
            let (cells, consumed) =
                aggregate_to_level_parallel(schema, &sources, &top, agg, Lift::Lifted, nshards);
            assert_eq!(consumed, data.len() as u64);
            cells
        };
        let avg_of = |nshards: usize| -> Vec<u64> {
            let sums = cube(AggFn::Sum, nshards);
            let counts = cube(AggFn::Count, nshards);
            assert_eq!(sums.len(), counts.len());
            (0..sums.len())
                .map(|i| (sums.value_of(i) / counts.value_of(i)).to_bits())
                .collect()
        };

        let sequential = avg_of(1);
        for nshards in [2usize, 3, 8] {
            prop_assert_eq!(&avg_of(nshards), &sequential, "nshards={}", nshards);
        }
    }

    /// Chunk geometry: linearize/delinearize round-trips and parent/child
    /// mappings stay mutually consistent on random grids.
    #[test]
    fn chunk_geometry_round_trips(grid in arb_grid()) {
        let lattice = grid.schema().lattice().clone();
        for gb in lattice.iter_ids() {
            let geom = grid.geom(gb);
            let mut coords = vec![0u32; grid.num_dims()];
            for chunk in 0..geom.total_chunks() {
                geom.delinearize(chunk, &mut coords);
                prop_assert_eq!(geom.linearize(&coords), chunk);
                for (dim, _) in lattice.parents(gb) {
                    let (pgb, parents) = grid.parent_chunks(gb, chunk, dim);
                    prop_assert!(!parents.is_empty());
                    for &p in &parents {
                        prop_assert_eq!(grid.child_chunk(pgb, p, dim), (gb, chunk));
                    }
                }
            }
        }
    }
}
