//! Everything the workloads are fed: the dataset, the request streams and
//! the delta batches. The program under test receives these values and
//! never the seed they were drawn from.

use aggcache_core::{DeltaBatch, QueryRequest};
use aggcache_gen::{Apb1Config, Dataset};
use aggcache_store::{AggFn, Backend, BackendCostModel};
use aggcache_workload::{QueryStream, WorkloadConfig};

/// Seed of the APB-1 dataset; fixed, so every run measures the same cube.
pub const DATASET_SEED: u64 = 0xA9B1;
/// Fact tuples of the full-size dataset (the paper's).
pub const FULL_TUPLES: u64 = 1_000_000;
/// Fact tuples of the `--smoke` dataset.
pub const SMOKE_TUPLES: u64 = 20_000;
/// Queries per analyst session: the length of the paper's streams.
pub const SESSION_LEN: usize = 100;
/// Seed of session 0 of the fixed pool; session `i` uses `POOL_SEED + i`.
pub const POOL_SEED: u64 = 2000;
/// Seed of warm-up session 0; warm-up sessions are never measured.
const WARMUP_SEED: u64 = 1000;
/// Seed of the delta-batch pool.
const DELTA_SEED: u64 = 0xDE17_A5EE_D000_0000;

/// The APB-1 dataset at density 0.7.
pub fn dataset(tuples: u64) -> Dataset {
    Apb1Config {
        n_tuples: tuples,
        density: 0.7,
        seed: DATASET_SEED,
    }
    .build()
}

/// Fact tuples asked of the generator at full size or `--smoke` size.
pub fn tuples(smoke: bool) -> u64 {
    if smoke {
        SMOKE_TUPLES
    } else {
        FULL_TUPLES
    }
}

/// A cache budget of `mb` MB per million fact tuples: the cache-to-data
/// ratio of the full-size run at any dataset size.
pub fn cache_bytes(dataset: &Dataset, mb: usize) -> usize {
    mb * dataset.num_tuples() as usize
}

/// A SUM backend over a copy of the dataset's facts, default cost model.
pub fn backend_for(dataset: &Dataset) -> Backend {
    Backend::new(
        dataset.fact.clone(),
        AggFn::Sum,
        BackendCostModel::default(),
    )
}

/// SplitMix64: the harness's only random source.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One analyst session: `len` queries of the paper's mix (30 % drill-down,
/// 30 % roll-up, 30 % proximity, 10 % random) from one seeded stream.
pub fn paper_session(dataset: &Dataset, seed: u64, len: usize) -> Vec<QueryRequest> {
    let max_level = dataset.grid.geom(dataset.fact_gb).level().to_vec();
    QueryStream::new(dataset.grid.clone(), WorkloadConfig::paper(max_level, seed))
        .take(len)
        .map(QueryRequest::new)
        .collect()
}

/// The requests of one run.
#[derive(Debug, Clone)]
pub struct Requests {
    /// Run before the clock starts; the same for every seed.
    pub warmup: Vec<QueryRequest>,
    /// The measured stream.
    pub measured: Vec<QueryRequest>,
}

/// The order in which a run takes `n` pooled items (sessions, delta
/// batches): pool order, except that the seed shuffles the last tenth (at
/// least the last two).
///
/// Per-query cost in this system is heavy-tailed (a direct hit takes
/// microseconds, a roll-up of the base level milliseconds) and the cache is
/// path-dependent, so two freshly drawn 10,000-query streams differ by
/// ~10 % in mean cost, and even the same sessions in another order by ~8 %
/// — more than the regressions the benchmark must resolve. Every seed
/// therefore runs the same pool, and the same nine tenths of it in the
/// same order; what the seed decides is the arrival order of the rest.
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let fixed = n - (n / 10).max(2).min(n);
    let mut state = seed;
    for i in (fixed + 1..n).rev() {
        let j = fixed + (splitmix64(&mut state) % (i - fixed + 1) as u64) as usize;
        order.swap(i, j);
    }
    order
}

/// Builds the request stream of a run: a fixed pool of
/// [`SESSION_LEN`]-query sessions in [`seeded_order`], after a warm-up that
/// is the same for every seed.
pub fn requests(dataset: &Dataset, seed: u64, warmup: usize, measured: usize) -> Requests {
    let sessions = measured.div_ceil(SESSION_LEN);
    let mut stream = Vec::with_capacity(sessions * SESSION_LEN);
    for s in seeded_order(sessions, seed) {
        stream.extend(paper_session(dataset, POOL_SEED + s as u64, SESSION_LEN));
    }
    stream.truncate(measured);

    let mut warm = Vec::with_capacity(warmup);
    for s in 0..warmup.div_ceil(SESSION_LEN) as u64 {
        warm.extend(paper_session(dataset, WARMUP_SEED + s, SESSION_LEN));
    }
    warm.truncate(warmup);
    Requests {
        warmup: warm,
        measured: stream,
    }
}

/// Generates `batches` delta batches of `records` records each, in
/// [`seeded_order`]: two inserts for every delete across the pool. Inserts draw fresh
/// fact-level coordinates and an integer measure in `[1, 1000]` (so SUMs
/// stay exact in an `f64`); each delete names a distinct tuple of the
/// original fact table, so every delete matches.
pub fn delta_batches(
    dataset: &Dataset,
    seed: u64,
    batches: usize,
    records: usize,
) -> Vec<DeltaBatch> {
    let fact = &dataset.fact;
    let level = dataset.grid.geom(fact.gb()).level().to_vec();
    let cards: Vec<u32> = (0..dataset.grid.num_dims())
        .map(|d| dataset.grid.schema().dimension(d).cardinality(level[d]))
        .collect();
    let chunks = fact.non_empty_chunks();
    let mut deleted = std::collections::HashSet::new();
    let mut state = DELTA_SEED;
    let mut n = 0usize;
    let mut pool: Vec<Option<DeltaBatch>> = (0..batches)
        .map(|_| {
            let mut batch = DeltaBatch::new();
            for _ in 0..records {
                if n % 3 == 2 {
                    let (chunk, idx) = loop {
                        let chunk = chunks[(splitmix64(&mut state) % chunks.len() as u64) as usize];
                        let idx = splitmix64(&mut state) % fact.tuples_in(chunk);
                        if deleted.insert((chunk, idx)) {
                            break (chunk, idx);
                        }
                    };
                    let (coords, value) = fact
                        .scan_chunk(chunk)
                        .nth(idx as usize)
                        .expect("index below the chunk's tuple count");
                    batch.delete(coords, value);
                } else {
                    let coords: Vec<u32> = cards
                        .iter()
                        .map(|&c| (splitmix64(&mut state) % u64::from(c)) as u32)
                        .collect();
                    let value = (splitmix64(&mut state) % 1000 + 1) as f64;
                    batch.insert(&coords, value);
                }
                n += 1;
            }
            Some(batch)
        })
        .collect();
    seeded_order(batches, seed)
        .into_iter()
        .map(|i| pool[i].take().expect("an order names each batch once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_and_other_seed_other_order() {
        let ds = dataset(5_000);
        let a = requests(&ds, 7, 50, 3_950);
        let b = requests(&ds, 7, 50, 3_950);
        let c = requests(&ds, 9, 50, 3_950);
        assert_eq!(a.measured, b.measured);
        assert_eq!(a.warmup, c.warmup);
        assert_eq!(a.warmup.len(), 50);
        assert_eq!(a.measured.len(), 3_950);
        assert_ne!(a.measured, c.measured);
        // 40 sessions: the first 36 arrive in pool order for every seed.
        assert_eq!(a.measured[..3_600], c.measured[..3_600]);
    }

    #[test]
    fn seeds_permute_one_pool_of_sessions() {
        let ds = dataset(5_000);
        let key = |r: &QueryRequest| (r.query.gb.0, r.query.chunks.clone());
        let mut a: Vec<_> = requests(&ds, 1, 0, 3_000)
            .measured
            .iter()
            .map(key)
            .collect();
        let mut b: Vec<_> = requests(&ds, 2, 0, 3_000)
            .measured
            .iter()
            .map(key)
            .collect();
        assert_ne!(a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_order_is_a_permutation_that_moves_only_the_tail() {
        for n in [0, 1, 9, 10, 50, 100] {
            let order = seeded_order(n, 42);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            let fixed = n - (n / 10).max(2).min(n);
            assert_eq!(order[..fixed], (0..fixed).collect::<Vec<_>>()[..]);
        }
        assert_eq!(seeded_order(100, 1), seeded_order(100, 1));
        assert_ne!(seeded_order(100, 1), seeded_order(100, 2));
    }

    #[test]
    fn deltas_are_seeded_valid_and_two_to_one() {
        let ds = dataset(5_000);
        let a = delta_batches(&ds, 3, 30, 5);
        let b = delta_batches(&ds, 3, 30, 5);
        assert_ne!(a, delta_batches(&ds, 4, 30, 5));
        assert_eq!(a.len(), 30);
        let mut inserts = 0;
        let mut deletes = 0;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.records(), y.records());
            assert_eq!(x.len(), 5);
            x.validate(&ds.grid, ds.fact_gb).unwrap();
            for r in x.records() {
                match r.op {
                    aggcache_core::DeltaOp::Insert => inserts += 1,
                    aggcache_core::DeltaOp::Delete => deletes += 1,
                }
            }
        }
        assert_eq!((inserts, deletes), (100, 50));
        // Every delete matches a live tuple.
        let mut backend = backend_for(&ds);
        let before = backend.fact().num_tuples();
        for batch in &a {
            backend.apply_delta(batch).unwrap();
        }
        assert_eq!(backend.fact().num_tuples(), before + 100 - 50);
    }
}
