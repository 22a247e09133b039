//! Focused behavioural tests of public-API corners not covered by the
//! larger oracle/property suites.

use aggcache::prelude::*;
use std::sync::Arc;

fn tiny_grid() -> Arc<ChunkGrid> {
    let schema = Arc::new(
        Schema::new(vec![
            Dimension::balanced("a", vec![1, 2, 8]).unwrap(),
            Dimension::flat("b", 4).unwrap(),
        ])
        .unwrap(),
    );
    Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 4], vec![1, 2]]).unwrap())
}

mod workload_bias {
    use super::*;
    use aggcache::workload::{QueryMix, QueryStream, WorkloadConfig};

    fn avg_depth(bias: f64) -> f64 {
        let grid = tiny_grid();
        let max = grid.schema().base_level();
        let mut stream = QueryStream::new(
            grid.clone(),
            WorkloadConfig {
                mix: QueryMix::random_only(),
                max_level: max,
                max_span: 1,
                aggregated_bias: bias,
                level_zipf: None,
                seed: 31,
            },
        );
        let lattice = grid.schema().lattice().clone();
        let mut total = 0u32;
        const N: u32 = 600;
        for _ in 0..N {
            let (q, _) = stream.next_with_kind();
            total += lattice
                .level_of(q.gb)
                .iter()
                .map(|&l| u32::from(l))
                .sum::<u32>();
        }
        f64::from(total) / f64::from(N)
    }

    /// Lower bias values must produce more aggregated (shallower) levels.
    #[test]
    fn aggregated_bias_shifts_level_distribution() {
        let biased = avg_depth(0.3);
        let uniform = avg_depth(1.0);
        assert!(
            biased + 0.3 < uniform,
            "bias 0.3 depth {biased:.2} should be well below uniform {uniform:.2}"
        );
    }
}

mod chunk_data {
    use super::*;

    #[test]
    fn append_concatenates() {
        let mut a = ChunkData::new(2);
        a.push(&[1, 1], 1.0);
        let mut b = ChunkData::new(2);
        b.push(&[2, 2], 2.0);
        b.push(&[3, 3], 3.0);
        a.append(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.coords_of(2), &[3, 3]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn append_rejects_different_arity() {
        let mut a = ChunkData::new(2);
        let b = ChunkData::new(3);
        a.append(&b);
    }

    #[test]
    fn heap_bytes_shrink() {
        let mut d = ChunkData::with_capacity(2, 100);
        d.push(&[0, 0], 1.0);
        let before = d.heap_bytes();
        d.shrink_to_fit();
        assert!(d.heap_bytes() < before);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn value_of_mut_updates() {
        let mut d = ChunkData::new(1);
        d.push(&[0], 1.0);
        *d.value_of_mut(0) = 9.0;
        assert_eq!(d.value_of(0), 9.0);
    }
}

mod cache_behavior {
    use super::*;

    fn cell() -> ChunkData {
        let mut d = ChunkData::new(1);
        d.push(&[0], 1.0);
        d
    }

    #[test]
    fn peek_does_not_count_hits() {
        // Under LRU a `get` is a use that saves its chunk from the next
        // sweep; a peek is not, so the peeked chunk stays the victim.
        let victim_after = |touch: fn(&mut ChunkCache, &ChunkKey) -> bool| {
            let mut c = ChunkCache::new(2 * 20, PolicyKind::Lru);
            let k1 = ChunkKey::new(GroupById(0), 1);
            c.insert(k1, cell(), Origin::Backend, 1.0);
            c.insert(ChunkKey::new(GroupById(0), 2), cell(), Origin::Backend, 1.0);
            assert!(touch(&mut c, &k1));
            let out = c.insert(ChunkKey::new(GroupById(0), 3), cell(), Origin::Backend, 1.0);
            assert!(out.admitted);
            let evicted: Vec<u64> = out.evicted.iter().map(|(key, _)| key.chunk).collect();
            evicted
        };
        assert_eq!(victim_after(|c, k| c.peek(k).is_some()), vec![1]);
        assert_eq!(victim_after(|c, k| c.get(k).is_some()), vec![2]);
    }

    #[test]
    fn boost_is_noop_under_benefit_policy() {
        // Documented: group boosting is a two-level mechanism.
        let mut c = ChunkCache::new(2 * 20, PolicyKind::Benefit);
        let k1 = ChunkKey::new(GroupById(0), 1);
        let k2 = ChunkKey::new(GroupById(0), 2);
        c.insert(k1, cell(), Origin::Backend, 1.0);
        c.insert(k2, cell(), Origin::Backend, 1.0);
        let group = [k1];
        c.boost_group(group.iter(), 1e6);
        // Eviction order is unaffected by the boost: the sweep still
        // starts from the hand, evicting k1 first.
        let out = c.insert(ChunkKey::new(GroupById(0), 3), cell(), Origin::Backend, 1.0);
        assert!(out.admitted);
        let evicted: Vec<ChunkKey> = out.evicted.iter().map(|(key, _)| *key).collect();
        assert_eq!(evicted, vec![k1]);
    }
}

mod lattice_api {
    use super::*;

    #[test]
    fn iter_levels_is_id_ordered() {
        let grid = tiny_grid();
        let lattice = grid.schema().lattice().clone();
        let pairs: Vec<_> = lattice.iter_levels().collect();
        assert_eq!(pairs.len() as u32, lattice.num_group_bys());
        for (i, (id, level)) in pairs.iter().enumerate() {
            assert_eq!(id.0 as usize, i);
            assert_eq!(&lattice.level_of(*id), level);
        }
    }

    #[test]
    fn digit_matches_level_of() {
        let grid = tiny_grid();
        let lattice = grid.schema().lattice().clone();
        for (id, level) in lattice.iter_levels() {
            for (d, &l) in level.iter().enumerate() {
                assert_eq!(lattice.digit(id, d), l);
            }
        }
    }
}

mod backend_api {
    use super::*;

    #[test]
    fn fetch_with_no_chunks_costs_only_overhead() {
        let ds = SyntheticSpec::new()
            .dim("a", vec![1, 4], vec![1, 2])
            .tuples(20)
            .build();
        let backend = Backend::new(ds.fact, AggFn::Sum, BackendCostModel::default());
        let r = backend
            .fetch(ds.grid.schema().lattice().base(), &[])
            .unwrap();
        assert!(r.chunks.is_empty());
        assert_eq!(r.tuples_scanned, 0);
        assert_eq!(r.virtual_ms, backend.cost_model().per_query_ms);
    }

    #[test]
    fn duplicate_chunk_requests_are_answered_per_request() {
        let ds = SyntheticSpec::new()
            .dim("a", vec![1, 4], vec![1, 2])
            .tuples(40)
            .build();
        let backend = Backend::new(ds.fact, AggFn::Sum, BackendCostModel::default());
        let base = ds.grid.schema().lattice().base();
        let r = backend.fetch(base, &[0, 0]).unwrap();
        assert_eq!(r.chunks.len(), 2);
        assert_eq!(r.chunks[0].1, r.chunks[1].1);
    }
}

mod manager_api {
    use super::*;

    #[test]
    fn evict_chunk_reflects_in_counts() {
        let ds = SyntheticSpec::new()
            .dim("a", vec![1, 4], vec![1, 2])
            .tuples(40)
            .build();
        let grid = ds.grid.clone();
        let backend = Backend::new(ds.fact, AggFn::Sum, BackendCostModel::default());
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .build(backend)
            .unwrap();
        let base = grid.schema().lattice().base();
        let top = grid.schema().lattice().top();
        mgr.run(&(&Query::full_group_by(&grid, base)).into())
            .unwrap();
        assert!(mgr.counts().unwrap().is_computable(ChunkKey::new(top, 0)));
        mgr.evict_chunk(ChunkKey::new(base, 0));
        assert!(!mgr.counts().unwrap().is_computable(ChunkKey::new(top, 0)));
        // Evicting a non-cached chunk is a no-op.
        assert_eq!(mgr.evict_chunk(ChunkKey::new(base, 0)), 0);
    }

    #[test]
    fn queries_below_fact_level_error() {
        // Fact data at an aggregated level: asking for more detail fails
        // loudly instead of returning wrong data.
        let grid = tiny_grid();
        let gb = grid.schema().lattice().id_of(&[1, 0]).unwrap();
        let dataset = Dataset::generate(grid.clone(), gb, 10, 1.0, 4);
        let backend = Backend::new(dataset.fact, AggFn::Sum, BackendCostModel::default());
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .build(backend)
            .unwrap();
        let base = grid.schema().lattice().base();
        assert!(mgr.run(&(&Query::new(base, vec![0])).into()).is_err());
        assert!(mgr.run(&(&Query::new(gb, vec![0])).into()).is_ok());
    }

    #[test]
    fn error_surface_is_typed_through_run_and_run_batch() {
        use aggcache::chunks::ChunkError;
        use aggcache::store::StoreError;

        // Builder misconfiguration: typed ConfigError variants.
        let build = |budget: Option<usize>, node_budget: Option<u64>| {
            let ds = SyntheticSpec::new()
                .dim("a", vec![1, 4], vec![1, 2])
                .tuples(20)
                .build();
            let backend = Backend::new(ds.fact, AggFn::Sum, BackendCostModel::default());
            let mut b = CacheManager::builder()
                .strategy(Strategy::Esmc { node_budget })
                .policy(PolicyKind::TwoLevel);
            if let Some(bytes) = budget {
                b = b.cache_bytes(bytes);
            }
            b.build(backend)
        };
        assert!(matches!(
            build(None, None),
            Err(ConfigError::MissingCacheBudget)
        ));
        assert!(matches!(
            build(Some(0), None),
            Err(ConfigError::ZeroCacheBudget)
        ));
        assert!(matches!(
            build(Some(1024), Some(0)),
            Err(ConfigError::ZeroNodeBudget)
        ));
        // A spill tier that cannot open keeps its typed SpillError.
        let dir = std::env::temp_dir().join(format!("aggcache-api-spill-{}", std::process::id()));
        let ds = SyntheticSpec::new()
            .dim("a", vec![1, 4], vec![1, 2])
            .tuples(20)
            .build();
        let err = CacheManager::builder()
            .cache_bytes(1024)
            .spill(SpillConfig::new(&dir).scrub_interval_ms(0.0))
            .build(Backend::new(
                ds.fact,
                AggFn::Sum,
                BackendCostModel::default(),
            ))
            .expect_err("a zero scrub interval is refused");
        assert!(matches!(
            err,
            ConfigError::Spill(aggcache::store::SpillError::BadScrubInterval { .. })
        ));
        let source = std::error::Error::source(&err).expect("the spill error is the source");
        assert_eq!(err.to_string(), format!("spill tier error: {source}"));
        assert!(!dir.exists(), "a refused config creates no directory");

        // A query below the fact level surfaces StoreError::NotComputable
        // through run *and* run_batch (one bad query fails its batch).
        let grid = tiny_grid();
        let gb = grid.schema().lattice().id_of(&[1, 0]).unwrap();
        let dataset = Dataset::generate(grid.clone(), gb, 10, 1.0, 4);
        let manager = |strategy| {
            let fact = dataset.fact.clone();
            CacheManager::builder()
                .strategy(strategy)
                .policy(PolicyKind::TwoLevel)
                .cache_bytes(usize::MAX >> 1)
                .build(Backend::new(fact, AggFn::Sum, BackendCostModel::default()))
                .unwrap()
        };
        let mut mgr = manager(Strategy::Vcm);
        let base = grid.schema().lattice().base();
        assert!(matches!(
            mgr.run(&(&Query::new(base, vec![0])).into()),
            Err(CacheError::Store(StoreError::NotComputable { .. }))
        ));
        let batch = [
            QueryRequest::from(&Query::new(gb, vec![0])),
            QueryRequest::from(&Query::new(base, vec![0])),
        ];
        assert!(matches!(
            mgr.run_batch(&batch),
            Err(CacheError::Store(StoreError::NotComputable { .. }))
        ));

        // Malformed requests: typed CacheError::Query at the request
        // boundary under every strategy — never a panic, never an answer —
        // with the version and the residents left untouched.
        let hit = QueryRequest::from(&Query::new(gb, vec![0]));
        for strategy in [
            Strategy::NoAggregation,
            Strategy::Esm,
            Strategy::Esmc { node_budget: None },
            Strategy::Vcm,
            Strategy::Vcmc,
        ] {
            let mut mgr = manager(strategy);
            mgr.run(&hit).unwrap();
            let before = (mgr.version(), format!("{:?}", mgr.cache().entries_sorted()));
            let past_the_end = Query::new(gb, vec![0, grid.n_chunks(gb) + 9_993]);
            assert!(
                matches!(
                    mgr.run(&(&past_the_end).into()),
                    Err(CacheError::Query(ChunkError::ChunkOutOfRange { chunk, max, .. }))
                        if chunk == max + 9_993
                ),
                "{strategy:?}"
            );
            let unknown = QueryRequest::from(&Query::new(GroupById(777), vec![0]));
            for batch in [vec![unknown.clone()], vec![hit.clone(), unknown]] {
                assert!(
                    matches!(
                        mgr.run_batch(&batch),
                        Err(CacheError::Query(ChunkError::UnknownGroupBy {
                            gb: 777,
                            ..
                        }))
                    ),
                    "{strategy:?}"
                );
            }
            let probe = mgr.probe_as(&past_the_end, 0);
            assert!(probe.plans().is_empty() && probe.missing().is_empty());
            assert!(mgr
                .lookup_chunk(ChunkKey::new(GroupById(777), 0))
                .plan
                .is_none());
            assert_eq!(
                (mgr.version(), format!("{:?}", mgr.cache().entries_sorted())),
                before
            );
        }

        // Malformed delta batches: typed CacheError::Delta at the ingestion
        // boundary, with the session left untouched.
        let version = mgr.version();
        let mut bad_arity = DeltaBatch::new();
        bad_arity.insert(&[1, 0, 0], 1.0);
        assert!(matches!(
            mgr.ingest(&bad_arity),
            Err(CacheError::Delta(ChunkError::BadCellArity {
                record: 0,
                expected: 2,
                got: 3,
            }))
        ));
        let mut out_of_range = DeltaBatch::new();
        out_of_range.delete(&[0, 99], 1.0);
        assert!(matches!(
            mgr.ingest(&out_of_range),
            Err(CacheError::Delta(ChunkError::CellOutOfRange {
                record: 0,
                ..
            }))
        ));
        assert_eq!(mgr.version(), version);
        assert_eq!(*mgr.session_updates(), UpdateMetrics::default());

        // Spill operations without a spill tier: typed SpillError that
        // converts into the unified surface.
        assert!(mgr.checkpoint().is_err());
        let e: CacheError = aggcache::store::SpillError::NotAttached.into();
        assert!(matches!(
            e,
            CacheError::Spill(aggcache::store::SpillError::NotAttached)
        ));
    }

    #[test]
    fn permanent_outage_on_a_cold_cache_is_backend_unavailable() {
        let ds = SyntheticSpec::new()
            .dim("a", vec![1, 4], vec![1, 2])
            .tuples(40)
            .build();
        let grid = ds.grid.clone();
        let backend = Backend::new(ds.fact, AggFn::Sum, BackendCostModel::default());
        let down = FaultInjectingBackend::new(backend, FaultProfile::fail_then_recover(u64::MAX))
            .expect("profile is valid");
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .build(down)
            .unwrap();
        // Nothing cached, nothing computable: the typed error names the
        // group-by and the chunks that had no answer.
        let base = grid.schema().lattice().base();
        match mgr.run(&(&Query::full_group_by(&grid, base)).into()) {
            Err(CacheError::BackendUnavailable { gb, chunks }) => {
                assert_eq!(gb, base);
                assert!(!chunks.is_empty());
            }
            other => panic!("expected BackendUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn preload_none_when_nothing_fits() {
        let ds = SyntheticSpec::new()
            .dim("a", vec![1, 4], vec![1, 2])
            .tuples(40)
            .build();
        let backend = Backend::new(ds.fact, AggFn::Sum, BackendCostModel::default());
        // Budget of one tuple: even the top group-by estimate won't fit.
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(1)
            .build(backend)
            .unwrap();
        assert!(mgr.preload_best().unwrap().is_none());
    }
}

/// The three names `benchmark/` links that no longer do anything of their
/// own: each ignores its thread count and answers exactly as the path it
/// delegates to. ROADMAP item 1(a) deletes them; until then this pins them.
mod benchmark_delegates {
    use super::*;
    use aggcache::core::{esm, execute_plan, execute_plan_parallel, LookupStats};
    use aggcache::store::{aggregate_to_level, aggregate_to_level_parallel};

    /// Same cells, same order, same `f64` bits.
    fn bits(d: &ChunkData) -> Vec<(Vec<u32>, u64)> {
        d.iter().map(|(c, v)| (c.to_vec(), v.to_bits())).collect()
    }

    #[test]
    fn benchmark_only_delegates_answer_like_the_sequential_paths() {
        let grid = tiny_grid();
        let schema = grid.schema();
        let lattice = schema.lattice();
        let base = lattice.base();
        // Non-associative values: any re-bracketing of a SUM flips bits.
        let mut cells = ChunkData::new(2);
        for a in 0..8u32 {
            for b in 0..4u32 {
                cells.push(&[a, b], 0.1 + f64::from(a) * 1e9 + f64::from(b).sin());
            }
        }
        let fact = FactTable::load(grid.clone(), base, cells.clone());
        let backend = || Backend::new(fact.clone(), AggFn::Sum, BackendCostModel::default());
        let mut cache = ChunkCache::new(usize::MAX >> 1, PolicyKind::Benefit);
        for (chunk, data) in backend().fetch_group_by(base).unwrap().chunks {
            cache.insert(ChunkKey::new(base, chunk), data, Origin::Backend, 1.0);
        }
        let base_level = schema.base_level();
        let sources: [(&[u8], &ChunkData); 1] = [(&base_level, &cells)];
        for (gb, level) in lattice.iter_levels() {
            let (cells_par, consumed) =
                aggregate_to_level_parallel(schema, &sources, &level, AggFn::Sum, Lift::Raw, 4);
            let cells_seq = aggregate_to_level(schema, &sources, &level, AggFn::Sum, Lift::Raw);
            assert_eq!(bits(&cells_par), bits(&cells_seq), "{level:?}");
            assert_eq!(consumed, cells.len() as u64);
            for chunk in 0..grid.n_chunks(gb) {
                let mut stats = LookupStats::default();
                let plan = esm(&cache, &grid, ChunkKey::new(gb, chunk), &mut stats).unwrap();
                let (par, par_tuples) = execute_plan_parallel(&grid, &cache, AggFn::Sum, &plan, 8);
                let (seq, seq_tuples) = execute_plan(&grid, &cache, AggFn::Sum, &plan);
                assert_eq!(bits(&par), bits(&seq), "{gb:?} chunk {chunk}");
                assert_eq!(par_tuples, seq_tuples);
            }
        }

        // `threads(0)` builds, and the manager answers like one built
        // without the call.
        let builder = || CacheManager::builder().cache_bytes(usize::MAX >> 1);
        let mut with = builder().threads(0).build(backend()).unwrap();
        let mut without = builder().build(backend()).unwrap();
        for (gb, _) in lattice.iter_levels() {
            let req = QueryRequest::from(&Query::full_group_by(&grid, gb));
            let (a, b) = (with.run(&req).unwrap(), without.run(&req).unwrap());
            assert_eq!(bits(&a.data), bits(&b.data), "{gb:?}");
            assert_eq!(
                a.total_virtual_ms().to_bits(),
                b.total_virtual_ms().to_bits()
            );
        }
    }
}
