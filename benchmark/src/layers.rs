//! The `layers` pass: one microbenchmark per layer, over fixed inputs cut
//! from the benchmark's dataset, timing public functions only.
//!
//! Every value is the median over [`BATCHES`] timed batches, each batch
//! large enough that reading the clock does not show. Five metrics cost
//! tens of milliseconds per batch — three rebuild a million-tuple
//! structure per call (`FactTable::apply_delta`, `CacheManager::ingest`,
//! the dataset build) and two search the lattice exhaustively (ESM, ESMC);
//! they get [`SLOW_BATCHES`] batches so the whole pass stays within a few
//! seconds.
//!
//! Inputs never depend on `--seed`: a layer number that moves between two
//! commits moved because the code did.

use crate::inputs::{
    backend_for, cache_bytes, delta_batches, paper_session, splitmix64, DATASET_SEED, POOL_SEED,
};
use crate::scratch::ScratchDir;
use crate::stats::median;
use aggcache_cache::{AdmissionKind, ChunkCache, ClockRing, Origin, PolicyKind};
use aggcache_chunks::hash::FxHasher;
use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey};
use aggcache_cluster::HashRing;
use aggcache_core::{
    execute_plan, execute_plan_parallel, CacheManager, ComputationPlan, CostTable, CountTable,
    QueryRequest, Strategy,
};
use aggcache_gen::{Apb1Config, Dataset};
use aggcache_obs::{Event, RecordingTracer, Tier, Tracer};
use aggcache_store::{
    aggregate_to_level_parallel, decode_record, encode_record, AggFn, Aggregator, Lift,
    SpillConfig, SpillStore,
};
use aggcache_workload::{QueryStream, WorkloadConfig};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed batches per metric.
pub const BATCHES: usize = 20;
/// Timed batches of the five metrics whose every batch costs tens of
/// milliseconds.
pub const SLOW_BATCHES: usize = 5;
/// Keys of the fixed lookup set. The exhaustive strategies take
/// milliseconds per key, so the set all five strategies share is small.
const LOOKUP_KEYS: usize = 100;
/// ESMC's node budget, as in the repo's own sweeps.
const ESMC_NODE_BUDGET: u64 = 200_000;

/// Median over `batches` runs of `f` of (ns elapsed ÷ the work count `f`
/// returns). `f` must do the same work every time.
fn per_op(batches: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            let ops = f();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

/// Like [`per_op`], with an untimed `prepare` before every batch.
fn per_op_prepared<S>(
    batches: usize,
    mut prepare: impl FnMut() -> S,
    mut f: impl FnMut(S) -> u64,
) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let state = prepare();
            let t = Instant::now();
            let ops = f(state);
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

/// MB/s from ns per byte.
fn mb_per_s(ns_per_byte: f64) -> f64 {
    1e3 / ns_per_byte
}

/// A manager over the dataset with a 15 MB-per-million-tuples cache,
/// pre-loaded: `paper_mid`'s starting state.
fn mid_manager(dataset: &Dataset, strategy: Strategy, threads: usize) -> CacheManager {
    let mut mgr = CacheManager::builder()
        .strategy(strategy)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(cache_bytes(dataset, 15))
        .threads(threads)
        .build(backend_for(dataset))
        .expect("layer configurations are valid");
    mgr.preload_best()
        .expect("preload group-bys are backend-computable");
    mgr
}

/// The chunk keys the first pool sessions ask for, in order, until there
/// are [`LOOKUP_KEYS`]: a hit/miss mix with the workloads' own locality.
fn lookup_keys(dataset: &Dataset) -> Vec<ChunkKey> {
    (0u64..)
        .flat_map(|s| paper_session(dataset, POOL_SEED + s, 100))
        .flat_map(|r| {
            let gb = r.query.gb;
            r.query
                .chunks
                .into_iter()
                .map(move |c| ChunkKey::new(gb, c))
        })
        .take(LOOKUP_KEYS)
        .collect()
}

/// The chunks of the fact level that hold data, as the backend serves
/// them: the leaves every roll-up in `paper_fit` reads.
fn base_chunks(dataset: &Dataset, limit: usize) -> Vec<(ChunkKey, ChunkData)> {
    let chunks: Vec<u64> = dataset
        .fact
        .non_empty_chunks()
        .into_iter()
        .take(limit)
        .collect();
    backend_for(dataset)
        .fetch(dataset.fact_gb, &chunks)
        .expect("the fact level is computable")
        .chunks
        .into_iter()
        .map(|(c, data)| (ChunkKey::new(dataset.fact_gb, c), data))
        .collect()
}

/// A plan over the pre-loaded cache that aggregates enough cells to
/// engage the parallel executor: the top group-by's only chunk.
fn big_plan(mgr: &CacheManager, grid: &ChunkGrid) -> ComputationPlan {
    let top = grid.schema().lattice().top();
    mgr.lookup_chunk(ChunkKey::new(top, 0))
        .plan
        .expect("everything rolls up from the pre-loaded group-by")
}

fn lookups(dataset: &Dataset, out: &mut Vec<(&'static str, f64)>) {
    let keys = lookup_keys(dataset);
    for (name, strategy, batches) in [
        ("core.lookup.noagg_ns", Strategy::NoAggregation, BATCHES),
        ("core.lookup.esm_ns", Strategy::Esm, SLOW_BATCHES),
        (
            "core.lookup.esmc_ns",
            Strategy::Esmc {
                node_budget: Some(ESMC_NODE_BUDGET),
            },
            SLOW_BATCHES,
        ),
        ("core.lookup.vcm_ns", Strategy::Vcm, BATCHES),
        ("core.lookup.vcmc_ns", Strategy::Vcmc, BATCHES),
    ] {
        let mgr = mid_manager(dataset, strategy, 1);
        out.push((
            name,
            per_op(batches, || {
                for &key in &keys {
                    black_box(mgr.lookup_chunk(key));
                }
                keys.len() as u64
            }),
        ));
    }
}

fn aggregation(dataset: &Dataset, out: &mut Vec<(&'static str, f64)>) {
    let schema = dataset.grid.schema();
    let leaves = base_chunks(dataset, 64);
    let from = dataset.grid.geom(dataset.fact_gb).level().to_vec();
    // Two levels up in Product and Customer and one in Time: a roll-up
    // that shrinks the input without collapsing it to a handful of cells.
    let target: Vec<u8> = vec![from[0] - 2, from[1] - 1, from[2] - 1, from[3], from[4]];
    let tuples: u64 = leaves.iter().map(|(_, d)| d.len() as u64).sum();
    let filled = || {
        let mut agg = Aggregator::new(schema, &target, AggFn::Sum);
        for (_, data) in &leaves {
            agg.add_chunk(&from, data, Lift::Lifted);
        }
        agg
    };
    out.push((
        "store.aggregate.add_chunk_ns_per_tuple",
        per_op(BATCHES, || {
            black_box(filled());
            tuples
        }),
    ));
    out.push((
        "store.aggregate.finish_ns_per_cell",
        per_op_prepared(BATCHES, filled, |agg| black_box(agg.finish()).len() as u64),
    ));
    let sources: Vec<(&[u8], &ChunkData)> = leaves.iter().map(|(_, d)| (&from[..], d)).collect();
    out.push((
        "store.aggregate.parallel_t2_ns_per_tuple",
        per_op(BATCHES, || {
            black_box(aggregate_to_level_parallel(
                schema,
                &sources,
                &target,
                AggFn::Sum,
                Lift::Lifted,
                2,
            ))
            .1
        }),
    ));
}

fn executor(dataset: &Dataset, out: &mut Vec<(&'static str, f64)>) {
    let grid = &dataset.grid;
    let mgr = mid_manager(dataset, Strategy::Vcmc, 1);
    let plan = big_plan(&mgr, grid);
    out.push((
        "core.executor.plan_ns_per_tuple",
        per_op(BATCHES, || {
            black_box(execute_plan(grid, mgr.cache(), AggFn::Sum, &plan)).1
        }),
    ));
    out.push((
        "core.executor.plan_t2_ns_per_tuple",
        per_op(BATCHES, || {
            black_box(execute_plan_parallel(
                grid,
                mgr.cache(),
                AggFn::Sum,
                &plan,
                2,
            ))
            .1
        }),
    ));

    let batch: Vec<QueryRequest> = paper_session(dataset, POOL_SEED, 16);
    for (name, threads) in [
        ("core.run_batch16.t1_ns_per_query", 1),
        ("core.run_batch16.t2_ns_per_query", 2),
    ] {
        let mut mgr = mid_manager(dataset, Strategy::Vcmc, threads);
        // Once through, so that what the batch admits is admitted.
        mgr.run_batch(&batch)
            .expect("streams stay within the fact level");
        out.push((
            name,
            per_op(BATCHES, || {
                black_box(
                    mgr.run_batch(&batch)
                        .expect("streams stay within the fact level"),
                );
                batch.len() as u64
            }),
        ));
    }
}

/// `n` distinct keys of the fact level and a 16-cell chunk for each.
fn small_chunks(dataset: &Dataset, n: usize) -> Vec<(ChunkKey, ChunkData)> {
    let dims = dataset.grid.num_dims();
    (0..n as u64)
        .map(|i| {
            let mut data = ChunkData::with_capacity(dims, 16);
            for cell in 0..16u32 {
                data.push(&vec![cell; dims], f64::from(cell));
            }
            (ChunkKey::new(dataset.fact_gb, i), data)
        })
        .collect()
}

fn cache_and_clock(dataset: &Dataset, out: &mut Vec<(&'static str, f64)>) {
    const RESIDENT: usize = 2_000;
    const OFFERED: usize = 500;
    let chunks = small_chunks(dataset, RESIDENT + OFFERED);
    let bytes = chunks[0].1.accounting_bytes();
    let filled = |budget_chunks: usize, admission: AdmissionKind| {
        let mut cache =
            ChunkCache::with_admission(budget_chunks * bytes, PolicyKind::TwoLevel, admission);
        for (key, data) in &chunks[..RESIDENT] {
            cache.insert(*key, data.clone(), Origin::Backend, 1.0);
        }
        cache
    };
    let offered = || -> Vec<(ChunkKey, ChunkData)> { chunks[RESIDENT..].to_vec() };

    let mut cache = filled(RESIDENT, AdmissionKind::BenefitMean);
    out.push((
        "cache.cache.get_ns",
        per_op(BATCHES, || {
            for (key, _) in &chunks[..RESIDENT] {
                black_box(cache.get(key));
            }
            RESIDENT as u64
        }),
    ));
    for (name, room, admission) in [
        // Room for everything offered: no eviction.
        (
            "cache.cache.insert_ns",
            RESIDENT + OFFERED,
            AdmissionKind::BenefitMean,
        ),
        // Full: every insert evicts.
        (
            "cache.cache.insert_evict_ns",
            RESIDENT,
            AdmissionKind::BenefitMean,
        ),
        // Full, and the TinyLFU sketch is consulted before each eviction.
        (
            "cache.admission.tinylfu_insert_ns",
            RESIDENT,
            AdmissionKind::tiny_lfu(),
        ),
    ] {
        out.push((
            name,
            per_op_prepared(
                BATCHES,
                || (filled(room, admission), offered()),
                |(mut cache, offered)| {
                    for (key, data) in offered {
                        black_box(cache.insert(key, data, Origin::Backend, 1.0));
                    }
                    OFFERED as u64
                },
            ),
        ));
    }

    out.push((
        "cache.clock.find_victim_ns",
        per_op_prepared(
            BATCHES,
            || {
                let mut ring = ClockRing::new();
                let mut state = DATASET_SEED;
                for i in 0..4_096u64 {
                    ring.insert(i, (splitmix64(&mut state) % 4) as f64);
                }
                ring
            },
            |mut ring| {
                for _ in 0..OFFERED {
                    let victim = ring.find_victim(|_| false).expect("nothing is pinned");
                    ring.remove(victim);
                    ring.insert(victim, 2.0);
                }
                OFFERED as u64
            },
        ),
    ));
}

/// Inserts every key into `table`, then evicts them all, [`BATCHES`]
/// times over; the two halves are timed apart. Returns the median ns per
/// insert and per evict.
fn insert_then_evict<T>(
    keys: &[ChunkKey],
    table: &mut T,
    insert: impl Fn(&mut T, ChunkKey) -> u64,
    evict: impl Fn(&mut T, ChunkKey) -> u64,
) -> (f64, f64) {
    let n = keys.len() as f64;
    let (mut inserts, mut evicts): (Vec<f64>, Vec<f64>) = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for &key in keys {
                black_box(insert(table, key));
            }
            let inserted = t.elapsed().as_nanos() as f64 / n;
            let t = Instant::now();
            for &key in keys {
                black_box(evict(table, key));
            }
            (inserted, t.elapsed().as_nanos() as f64 / n)
        })
        .unzip();
    (median(&mut inserts), median(&mut evicts))
}

fn tables(dataset: &Dataset, out: &mut Vec<(&'static str, f64)>) {
    let grid = &dataset.grid;
    // Every fact-level chunk that holds data: what a preload inserts.
    let keys: Vec<ChunkKey> = dataset
        .fact
        .non_empty_chunks()
        .into_iter()
        .map(|c| ChunkKey::new(dataset.fact_gb, c))
        .collect();
    let count_in = |t: &mut CountTable, k| t.on_insert(k);
    let count_out = |t: &mut CountTable, k| t.on_evict(k);
    let cost_in = |t: &mut CostTable, k| t.on_insert(k, 1_000);
    let cost_out = |t: &mut CostTable, k| t.on_evict(k);

    let (ins, ev) = insert_then_evict(
        &keys,
        &mut CountTable::new(grid.clone()),
        count_in,
        count_out,
    );
    out.push(("core.counts.on_insert_ns", ins));
    out.push(("core.counts.on_evict_ns", ev));
    let (ins, ev) = insert_then_evict(&keys, &mut CostTable::new(grid.clone()), cost_in, cost_out);
    out.push(("core.cost.on_insert_ns", ins));
    out.push(("core.cost.on_evict_ns", ev));
    let (ins, _) = insert_then_evict(
        &keys,
        &mut CountTable::new_sparse(grid.clone()),
        count_in,
        count_out,
    );
    out.push(("core.counts.sparse_on_insert_ns", ins));
    let (ins, _) = insert_then_evict(
        &keys,
        &mut CostTable::new_sparse(grid.clone()),
        cost_in,
        cost_out,
    );
    out.push(("core.cost.sparse_on_insert_ns", ins));
}

fn chunk_geometry(dataset: &Dataset, out: &mut Vec<(&'static str, f64)>) {
    let keys = lookup_keys(dataset);
    let hasher = BuildHasherDefault::<FxHasher>::default();
    out.push((
        "chunks.hash.packed_key_ns",
        per_op(BATCHES, || {
            use std::hash::BuildHasher;
            // Many rounds: one hash is a multiply and a rotate.
            for _ in 0..64 {
                for &key in &keys {
                    black_box(hasher.hash_one(black_box(key.pack())));
                }
            }
            64 * keys.len() as u64
        }),
    ));

    let grid = &dataset.grid;
    let lattice = grid.schema().lattice();
    // (key, dimension) pairs that have a parent along that dimension.
    let steps: Vec<(ChunkKey, usize)> = keys
        .iter()
        .filter_map(|&key| {
            let level = lattice.level_of(key.gb);
            (0..grid.num_dims())
                .find(|&d| usize::from(level[d]) + 1 < grid.dim(d).num_levels())
                .map(|d| (key, d))
        })
        .collect();
    let mut parents = Vec::new();
    out.push((
        "chunks.grid.parent_chunks_ns",
        per_op(BATCHES, || {
            for &(key, dim) in &steps {
                parents.clear();
                black_box(grid.parent_chunks_into(key.gb, key.chunk, dim, &mut parents));
            }
            steps.len() as u64
        }),
    ));
}

fn spill(dataset: &Dataset, scratch: &Path, out: &mut Vec<(&'static str, f64)>) {
    let chunks = base_chunks(dataset, 64);
    let tuples: u64 = chunks.iter().map(|(_, d)| d.len() as u64).sum();
    let encoded: Vec<Vec<u8>> = chunks
        .iter()
        .map(|(key, data)| encode_record(*key, 0, 1.0, data))
        .collect();
    let bytes: u64 = encoded.iter().map(|e| e.len() as u64).sum();
    out.push((
        "store.spill.encode_mb_s",
        mb_per_s(per_op(BATCHES, || {
            for (key, data) in &chunks {
                black_box(encode_record(*key, 0, 1.0, data));
            }
            bytes
        })),
    ));
    out.push((
        "store.spill.decode_mb_s",
        mb_per_s(per_op(BATCHES, || {
            for record in &encoded {
                black_box(decode_record(record).expect("freshly encoded"));
            }
            bytes
        })),
    ));
    out.push(("store.spill.bytes_per_tuple", bytes as f64 / tuples as f64));

    // Flush policy is the program's: `std::fs::write`, no fsync. These are
    // page-cache speeds of the sandbox, not a device's.
    let dir = ScratchDir::create(scratch).expect("create the scratch directory");
    let mut store = SpillStore::open(SpillConfig::new(dir.path())).expect("open a fresh store");
    out.push((
        "store.spill.write_mb_s",
        mb_per_s(per_op(BATCHES, || {
            for (key, data) in &chunks {
                store.write(*key, 0, 1.0, data).expect("write to scratch");
            }
            bytes
        })),
    ));
    out.push((
        "store.spill.read_mb_s",
        mb_per_s(per_op(BATCHES, || {
            for (key, _) in &chunks {
                black_box(store.read(*key).expect("read back from scratch"));
            }
            bytes
        })),
    ));
}

fn backend_and_updates(dataset: &Dataset, out: &mut Vec<(&'static str, f64)>) {
    let backend = backend_for(dataset);
    let lattice = dataset.grid.schema().lattice();
    let from = dataset.grid.geom(dataset.fact_gb).level().to_vec();
    let gb = lattice
        .id_of(&[from[0] - 2, from[1] - 1, from[2] - 1, from[3], from[4]])
        .expect("a level below the fact level");
    let some: Vec<u64> = (0..dataset.grid.n_chunks(gb).min(8)).collect();
    out.push((
        "store.backend.fetch_ns_per_tuple",
        per_op(BATCHES, || {
            black_box(backend.fetch(gb, &some).expect("computable")).tuples_scanned
        }),
    ));

    let deltas = delta_batches(dataset, 0, 2 * SLOW_BATCHES, 5);
    let (for_fact, for_manager) = deltas.split_at(SLOW_BATCHES);
    let mut fact = dataset.fact.clone();
    let mut next = for_fact.iter();
    out.push((
        "store.fact.apply_delta_ns_per_record",
        per_op(SLOW_BATCHES, || {
            let batch = next.next().expect("one batch per timed call");
            black_box(
                fact.apply_delta(batch)
                    .expect("generated batches are valid"),
            );
            batch.len() as u64
        }),
    ));
    let mut mgr = mid_manager(dataset, Strategy::Vcmc, 1);
    let mut next = for_manager.iter();
    out.push((
        "core.manager.ingest_ns_per_record",
        per_op(SLOW_BATCHES, || {
            let batch = next.next().expect("one batch per timed call");
            black_box(mgr.ingest(batch).expect("generated batches are valid"));
            batch.len() as u64
        }),
    ));
}

fn routing_tracing_generation(dataset: &Dataset, out: &mut Vec<(&'static str, f64)>) {
    let keys = lookup_keys(dataset);
    let ring = HashRing::new(4, 2, aggcache_cluster::DEFAULT_VNODES).expect("a valid ring");
    out.push((
        "cluster.ring.primary_ns",
        per_op(BATCHES, || {
            for &key in &keys {
                black_box(ring.primary(key));
            }
            keys.len() as u64
        }),
    ));
    let mut owners = Vec::with_capacity(2);
    out.push((
        "cluster.ring.owners_ns",
        per_op(BATCHES, || {
            for &key in &keys {
                ring.owners_into(key, &mut owners);
                black_box(&owners);
            }
            keys.len() as u64
        }),
    ));

    let tracer = RecordingTracer::new();
    let event = Event::CacheInsert {
        gb: 1,
        chunk: 2,
        tier: Tier::Computed,
        bytes: 320,
        admitted: true,
    };
    out.push((
        "obs.tracer.recording_emit_ns",
        per_op(BATCHES, || {
            for _ in 0..1_000 {
                tracer.emit(black_box(&event));
            }
            black_box(tracer.take());
            1_000
        }),
    ));

    let max_level = dataset.grid.geom(dataset.fact_gb).level().to_vec();
    let mut stream = QueryStream::new(
        dataset.grid.clone(),
        WorkloadConfig::paper(max_level, POOL_SEED),
    );
    out.push((
        "workload.stream.next_ns",
        per_op(BATCHES, || {
            for _ in 0..1_000 {
                black_box(stream.next());
            }
            1_000
        }),
    ));

    let config = Apb1Config {
        n_tuples: dataset.num_tuples(),
        density: 0.7,
        seed: DATASET_SEED,
    };
    out.push((
        "gen.apb1.build_ms",
        per_op(SLOW_BATCHES, || {
            black_box(config.build());
            1
        }) / 1e6,
    ));
}

/// Runs every layer microbenchmark over `dataset`; spill files go under
/// `scratch` and are removed before returning. The result names exactly
/// the entries of [`crate::report::LAYERS`].
pub fn run(dataset: &Dataset, scratch: &Path) -> Vec<(&'static str, f64)> {
    let mut out = Vec::with_capacity(crate::report::LAYERS.len());
    lookups(dataset, &mut out);
    aggregation(dataset, &mut out);
    executor(dataset, &mut out);
    cache_and_clock(dataset, &mut out);
    tables(dataset, &mut out);
    chunk_geometry(dataset, &mut out);
    spill(dataset, scratch, &mut out);
    backend_and_updates(dataset, &mut out);
    routing_tracing_generation(dataset, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::dataset;

    #[test]
    fn per_op_divides_by_the_work_done() {
        let mut calls = 0;
        let ns = per_op(5, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
            1_000
        });
        assert_eq!(calls, 5);
        assert!((2_000.0..200_000.0).contains(&ns), "{ns}");
    }

    #[test]
    fn lookup_keys_are_fixed_and_mixed() {
        let ds = dataset(5_000);
        let keys = lookup_keys(&ds);
        assert_eq!(keys.len(), LOOKUP_KEYS);
        assert_eq!(keys, lookup_keys(&ds));
        let mgr = mid_manager(&ds, Strategy::Vcmc, 1);
        let answerable = keys
            .iter()
            .filter(|&&k| mgr.lookup_chunk(k).answerable())
            .count();
        assert!(answerable > 0 && answerable < keys.len(), "{answerable}");
    }

    #[test]
    fn every_layer_metric_is_measured_once() {
        let ds = dataset(5_000);
        let values = run(&ds, &std::env::temp_dir());
        let got: Vec<_> = values.iter().map(|(n, _)| *n).collect();
        let want: Vec<_> = crate::report::LAYERS.iter().map(|m| m.name).collect();
        let (mut a, mut b) = (got.clone(), want.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        for (name, v) in values {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
