//! Full-system integration: the APB-1-shaped benchmark at reduced scale,
//! driven through pre-loading, a locality query stream, every strategy,
//! and both policies — with answers checked against the backend and the
//! acceleration tables cross-checked against a from-scratch rebuild.

use aggcache::chunks::{Coords, ValueVec, Values};
use aggcache::prelude::*;
use aggcache_bench::rig::{apb_dataset, backend_for, oracle_answer};

fn dataset() -> Dataset {
    apb_dataset(20_000, 99)
}

fn run_session(
    dataset: &Dataset,
    strategy: Strategy,
    policy: PolicyKind,
    cache_bytes: usize,
    preload: bool,
    queries: usize,
) -> (CacheManager, u64) {
    let oracle = backend_for(dataset);
    let mut mgr = CacheManager::builder()
        .strategy(strategy)
        .policy(policy)
        .cache_bytes(cache_bytes)
        .build(backend_for(dataset))
        .unwrap();
    if preload {
        mgr.preload_best().unwrap();
    }
    let max_level = dataset.grid.geom(dataset.fact_gb).level().to_vec();
    let mut stream = QueryStream::new(dataset.grid.clone(), WorkloadConfig::paper(max_level, 77));
    let mut checked = 0u64;
    for i in 0..queries {
        let (q, kind) = stream.next_with_kind();
        let mut got = mgr.run(&(&q).into()).unwrap();
        // Spot-check every 5th answer against the backend oracle (checking
        // all of them is covered by the smaller oracle test).
        if i % 5 == 0 {
            got.data.sort_by_coords();
            let expected = oracle_answer(&oracle, &q);
            assert_eq!(got.data, expected, "query #{i} ({kind:?}) {q:?}");
            checked += 1;
        }
    }
    (mgr, checked)
}

#[test]
fn apb_stream_all_strategies_all_policies() {
    let ds = dataset();
    for strategy in [
        Strategy::NoAggregation,
        Strategy::Esm,
        Strategy::Vcm,
        Strategy::Vcmc,
    ] {
        for policy in [PolicyKind::Lru, PolicyKind::Benefit, PolicyKind::TwoLevel] {
            let (mgr, checked) = run_session(
                &ds,
                strategy,
                policy,
                200_000,
                policy == PolicyKind::TwoLevel,
                40,
            );
            assert!(checked >= 8);
            assert_eq!(mgr.session().queries, 40);
        }
    }
}

#[test]
fn vcm_tables_consistent_after_apb_stream() {
    let ds = dataset();
    let (mgr, _) = run_session(&ds, Strategy::Vcm, PolicyKind::TwoLevel, 120_000, true, 60);
    let cached: std::collections::HashSet<ChunkKey> = mgr.cache().keys().collect();
    let rebuilt = CountTable::rebuild_from(ds.grid.clone(), |k| cached.contains(&k));
    mgr.counts().unwrap().assert_same(&rebuilt);
}

#[test]
fn vcmc_costs_consistent_after_apb_stream() {
    let ds = dataset();
    let (mgr, _) = run_session(&ds, Strategy::Vcmc, PolicyKind::TwoLevel, 120_000, true, 60);
    // Count part must agree with rebuild; cost part must match plan leaves.
    let cached: std::collections::HashSet<ChunkKey> = mgr.cache().keys().collect();
    let rebuilt = CountTable::rebuild_from(ds.grid.clone(), |k| cached.contains(&k));
    mgr.counts().unwrap().assert_same(&rebuilt);
    let costs = mgr.costs().unwrap();
    let lattice = ds.grid.schema().lattice().clone();
    let mut inspected = 0;
    for gb in lattice.iter_ids_under(ds.fact_gb) {
        for chunk in (0..ds.grid.n_chunks(gb)).step_by(7) {
            let key = ChunkKey::new(gb, chunk);
            if let Some(cost) = costs.cost(key) {
                let outcome = mgr.lookup_chunk(key);
                let plan = outcome.plan.expect("computable");
                assert_eq!(plan.cost, u64::from(cost));
                let leaf_sum: u64 = plan
                    .leaves
                    .iter()
                    .map(|l| mgr.cache().peek(l).expect("leaf cached").data.len() as u64)
                    .sum();
                assert_eq!(leaf_sum, plan.cost, "{key:?}");
                inspected += 1;
            }
        }
    }
    assert!(
        inspected >= 10,
        "enough computable chunks inspected: {inspected}"
    );
}

#[test]
fn preload_then_aggregated_queries_never_touch_backend() {
    let ds = dataset();
    // Budget comfortably above the base table: pre-load takes the fact
    // level and every answerable query becomes a complete hit.
    let mut mgr = CacheManager::builder()
        .strategy(Strategy::Vcmc)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(4_000_000)
        .build(backend_for(&ds))
        .unwrap();
    let report = mgr.preload_best().unwrap().unwrap();
    assert_eq!(report.gb, ds.fact_gb);
    let lattice = ds.grid.schema().lattice().clone();
    for gb in lattice.iter_ids_under(ds.fact_gb).step_by(11) {
        let q = Query::new(gb, vec![0]);
        let m = mgr.run(&(&q).into()).unwrap().metrics;
        assert!(m.complete_hit, "{gb:?}");
    }
    assert_eq!(mgr.session().sum.backend_tuples, 0);
}

/// The budget charges a cached cell the paper's 20 bytes; on APB-1 every
/// coordinate fits 16 bits, nearly every value this session caches is a
/// whole number that fits too (a few sums pass 65,535 and are held at
/// `f64`), and a dimension every cell of a chunk agrees on is held once
/// per chunk, so a five-dimensional cell holds about 8 bytes of heap
/// (0.395 heap bytes per accounted byte; 12 bytes, 0.60, with every
/// column stored). Checked over every chunk of a manager filled to its
/// budget.
#[test]
fn a_full_apb_cache_holds_less_heap_than_it_accounts() {
    let ds = dataset();
    let budget = 200_000;
    let (mgr, _) = run_session(&ds, Strategy::Vcmc, PolicyKind::TwoLevel, budget, true, 100);
    let cache = mgr.cache();
    assert!(
        cache.used_bytes() * 10 >= budget * 9,
        "{} of {budget} bytes used",
        cache.used_bytes()
    );
    let entries = cache.entries_sorted();
    let heap: usize = entries.iter().map(|(_, e)| e.data.heap_bytes()).sum();
    let accounted: usize = entries.iter().map(|(_, e)| e.data.accounting_bytes()).sum();
    assert!(
        heap * 100 <= accounted * 41,
        "{heap} heap bytes for {accounted} accounted"
    );
}

/// `ds` with every fact run rebuilt holding the same values at `f64` if
/// `wide`, else at `u16`, its coordinates at their own width.
fn with_value_width(ds: &Dataset, wide: bool) -> Dataset {
    let runs = (0..ds.grid.n_chunks(ds.fact_gb)).map(|c| {
        let run = ds.fact.chunk(c);
        let values = run.raw_values().to_vec();
        let values: ValueVec = match wide {
            false => values.iter().map(|&v| v as u16).collect::<Vec<_>>().into(),
            true => values.into(),
        };
        let constants: Vec<Option<u32>> = run.columns().iter().map(|c| c.constant()).collect();
        let held = match run.stored_coords() {
            Coords::U16(c) => ChunkData::from_stored(&constants, c.to_vec(), values),
            Coords::Wide(c) => ChunkData::from_stored(&constants, c.to_vec(), values),
        };
        assert_eq!(held, *run, "chunk {c}");
        let held_wide = matches!(held.raw_values(), Values::Wide(_));
        assert_eq!(held_wide, wide, "chunk {c}");
        held
    });
    Dataset {
        grid: ds.grid.clone(),
        fact_gb: ds.fact_gb,
        fact: FactTable::from_runs(ds.grid.clone(), ds.fact_gb, runs.collect()),
    }
}

/// What one session of [`session_at`] observed: each answer's cells as
/// coordinates and value bits, each query's and the ingest's metrics, and
/// the spill tier's virtual time before and after the restart.
struct Observed {
    answers: Vec<Vec<(Vec<u32>, u64)>>,
    metrics: Vec<String>,
    spill_ms: [u64; 2],
}

/// A VCMC session over `ds` with a spill tier in `dir`: 40 queries, a
/// checkpoint and a warm restart, 20 queries, an ingest batch, 20 queries.
fn session_at(ds: &Dataset, dir: &std::path::Path) -> Observed {
    let build = || {
        CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(60_000)
            .spill(SpillConfig::new(dir))
            .build(backend_for(ds))
            .unwrap()
    };
    let max_level = ds.grid.geom(ds.fact_gb).level().to_vec();
    let mut stream = QueryStream::new(ds.grid.clone(), WorkloadConfig::paper(max_level, 55));
    let mut seen = Observed {
        answers: Vec::new(),
        metrics: Vec::new(),
        spill_ms: [0; 2],
    };
    let mut run = |mgr: &mut CacheManager, n: usize, seen: &mut Observed| {
        for q in stream.take_queries(n) {
            let mut out = mgr.run(&q.into()).unwrap();
            out.data.sort_by_coords();
            let cells = out.data.iter().map(|(c, v)| (c.to_vec(), v.to_bits()));
            seen.answers.push(cells.collect());
            seen.metrics
                .push(format!("{:?}", out.metrics.without_wall_clock()));
        }
    };
    let mut first = build();
    run(&mut first, 40, &mut seen);
    first.checkpoint().unwrap();
    seen.spill_ms[0] = first.session_spill().spill_virtual_ms.to_bits();
    assert!(first.session_spill().spill_writes > 0, "nothing spilled");
    drop(first);
    let mut warm = build();
    assert!(warm.session_spill().spill_reads > 0, "a cold restart");
    run(&mut warm, 20, &mut seen);
    let fact = ds.fact.chunk(0);
    let mut batch = DeltaBatch::new();
    batch
        .insert(fact.coords_of(0), 7.0)
        .insert(fact.coords_of(1), 2.5)
        .delete(fact.coords_of(2), fact.value_of(2));
    seen.metrics
        .push(format!("{:?}", warm.ingest(&batch).unwrap()));
    run(&mut warm, 20, &mut seen);
    seen.spill_ms[1] = warm.session_spill().spill_virtual_ms.to_bits();
    seen
}

/// The width a fact value is held at is invisible: the same dataset with
/// every run at `u16` and at `f64` answers one VCMC stream — across an
/// ingest batch, a spill checkpoint and a warm restart — cell for cell and
/// bit for bit, with identical query metrics and spill virtual time.
#[test]
fn answers_and_virtual_time_do_not_depend_on_the_value_width() {
    let ds = apb_dataset(5_000, 31);
    let observed: Vec<Observed> = [false, true]
        .into_iter()
        .map(|wide| {
            let dir = std::env::temp_dir()
                .join(format!("aggcache-e2e-wide-{wide}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let seen = session_at(&with_value_width(&ds, wide), &dir);
            let _ = std::fs::remove_dir_all(&dir);
            seen
        })
        .collect();
    let u16s = &observed[0];
    assert_eq!(u16s.answers.len(), 80);
    for (other, name) in observed[1..].iter().zip(["f64"]) {
        let answer = first_diff(&u16s.answers, &other.answers);
        assert_eq!(answer, None, "answers: u16 against {name}");
        let metrics = first_diff(&u16s.metrics, &other.metrics)
            .map(|i| (i, &u16s.metrics[i], &other.metrics[i]));
        assert_eq!(metrics, None, "metrics: u16 against {name}");
        assert_eq!(u16s.spill_ms, other.spill_ms, "spill: u16 against {name}");
    }
}

/// Where `a` and `b` first differ.
fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).position(|(x, y)| x != y)
}
