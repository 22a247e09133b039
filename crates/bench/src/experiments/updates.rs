//! **Update sweep** (`fig_updates`, beyond the paper) — base-data deltas
//! propagated up the lattice: read/write mix × lookup strategy vs. hit
//! ratio and maintenance cost.
//!
//! Every cell interleaves a seeded paper query stream with seeded
//! [`DeltaBatch`]es (inserts of fresh tuples plus deletes of tuples the
//! generator drew from the initial fact table, so deletes really match).
//! After every read batch the next delta batch is ingested through
//! [`CacheManager::ingest`] *and* applied to a pristine shadow backend;
//! **every answer is then compared against that brute-force oracle**, so a
//! single stale cell anywhere in the lattice shows up as a mismatch. The
//! mismatch count must be zero in every cell.
//!
//! Measures are integers (the generator draws values in `[1, 1000]` and so
//! does the delta generator), which keeps every SUM exactly representable
//! in an `f64` — patched totals and recomputed totals agree *bitwise*, so
//! the oracle comparison is exact equality, no epsilon.
//!
//! The sweep also verifies the tentpole's transparency contract: a session
//! that ingests an **empty** delta batch between every read batch produces
//! bit-identical answers, cache contents and deterministic `QueryMetrics`
//! fields to a session that never calls [`CacheManager::ingest`] at all —
//! across all five strategies and at one and four worker threads.
//!
//! All maintenance cost is charged to [`UpdateMetrics`] (never to
//! `QueryMetrics`), and every reported number is virtual-time, so two runs
//! — at any thread count — produce bit-identical documents.

use crate::report::{f2, Table, Tally};
use crate::rig::{
    apb_dataset, backend_for, builder_for, matches_oracle, paper_stream, strategy_name,
};
use crate::sweep::{smoke_opts, Sweep};
use crate::trace::Meta;
use aggcache_cache::PolicyKind;
use aggcache_chunks::hash::SplitMix64;
use aggcache_chunks::ChunkData;
use aggcache_core::{
    CacheManager, DeltaBatch, QueryMetrics, QueryRequest, Strategy, UpdateMetrics,
};
use aggcache_gen::Dataset;
use aggcache_obs::json::JsonObject;
use aggcache_obs::Tracer;
use std::sync::Arc;

/// Options for the update sweep.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Read queries per cell.
    pub queries: usize,
    /// Workload seed.
    pub workload_seed: u64,
    /// Cache budget in accounting bytes.
    pub cache_bytes: usize,
    /// Read queries per batch; one delta batch is ingested after each.
    pub batch: usize,
    /// Delta-generator seed.
    pub delta_seed: u64,
    /// Worker threads (wall-clock only; virtual outputs are identical).
    pub threads: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 60_000,
            seed: 0xDE17A,
            queries: 300,
            workload_seed: 11_000,
            cache_bytes: 64 * 1024,
            batch: 25,
            delta_seed: 0xF00D,
            threads: 1,
        }
    }
}

impl Opts {
    /// The smoke configuration used by CI: small dataset, short streams.
    pub fn smoke() -> Self {
        Self {
            tuples: 8_000,
            queries: 120,
            cache_bytes: 16 * 1024,
            ..Self::default()
        }
    }
}

/// `fig_updates`, as [`crate::sweep::sweep_main`] runs it. The process
/// exits non-zero if any cell reports an oracle mismatch or the
/// transparency check reports a divergence. `--trace-out` traces one
/// write-heavy VCMC cell, so `delta_ingest`, `chunk_patch` and
/// `chunk_invalidate` appear.
pub const SWEEP: Sweep<Opts, UpdateResults> = Sweep {
    opts: smoke_opts!(Opts),
    run: run_experiment,
    render,
    check: Some(
        |r| match r.cells.iter().map(|c| c.oracle_mismatches).sum::<u64>() {
            0 if r.transparency_diffs == 0 => Ok(()),
            0 => Err(format!(
                "empty-delta transparency violated: {} divergence(s) from the no-update session",
                r.transparency_diffs
            )),
            n => Err(format!(
                "update propagation violated: {n} answer(s) diverged from the oracle"
            )),
        },
    ),
    exports: Some((to_json, to_csv, |r| r.cells.len())),
    traced: Some(|opts, tracer| -> Meta {
        let dataset = apb_dataset(opts.tuples, opts.seed);
        let cell = run_cell_traced(&dataset, opts, 0.5, Strategy::Vcmc, Some(tracer));
        vec![
            ("experiment", Box::new("fig_updates")),
            ("tuples", Box::new(opts.tuples)),
            ("seed", Box::new(opts.seed)),
            ("queries", Box::new(opts.queries)),
            ("workload_seed", Box::new(opts.workload_seed)),
            ("cache_bytes", Box::new(opts.cache_bytes)),
            ("write_mix", Box::new(0.5)),
            ("strategy", Box::new("vcmc")),
            ("policy", Box::new("two_level")),
            ("threads", Box::new(opts.threads)),
            ("chunks_patched", Box::new(cell.updates.chunks_patched)),
            (
                "chunks_invalidated",
                Box::new(cell.updates.chunks_invalidated),
            ),
        ]
    }),
};

/// Write fractions swept: delta records ingested per read query.
pub const WRITE_MIXES: [f64; 4] = [0.0, 0.05, 0.2, 0.5];

/// The five lookup strategies of the paper, as swept here.
pub fn strategies() -> [Strategy; 5] {
    [
        Strategy::NoAggregation,
        Strategy::Esm,
        Strategy::Esmc {
            node_budget: Some(200_000),
        },
        Strategy::Vcm,
        Strategy::Vcmc,
    ]
}

/// Outcome of one (write mix, strategy) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Delta records ingested per read query.
    pub mix: f64,
    /// Lookup strategy label.
    pub strategy: &'static str,
    /// Read queries answered.
    pub answered: u64,
    /// Answers that differed from the brute-force shadow backend. The
    /// propagation contract makes this zero in every cell.
    pub oracle_mismatches: u64,
    /// Complete-hit ratio over the read stream.
    pub hit_ratio: f64,
    /// Maintenance totals across every ingested batch, straight from
    /// [`CacheManager::session_updates`].
    pub updates: UpdateMetrics,
    /// Virtual backend milliseconds over the read stream.
    pub backend_virtual_ms: f64,
    /// Virtual milliseconds of the read stream (maintenance excluded —
    /// it is charged to [`UpdateMetrics::update_virtual_ms`] instead).
    pub read_virtual_ms: f64,
}

/// Deterministic delta-batch generator. Inserts draw fresh coordinates and
/// integer values from a seeded stream; deletes walk a seeded shuffle of
/// the fact table's initial tuples, so each delete matches a real resident
/// tuple exactly once. When the pool runs dry, deletes keep coming with a
/// value no generated tuple carries — exercising the unmatched path.
struct DeltaGen {
    pool: Vec<(Vec<u32>, f64)>,
    next_del: usize,
    cards: Vec<u32>,
    rng: SplitMix64,
}

impl DeltaGen {
    fn new(dataset: &Dataset, seed: u64) -> Self {
        let fact = &dataset.fact;
        let level = dataset.grid.geom(fact.gb()).level().to_vec();
        let cards: Vec<u32> = (0..dataset.grid.num_dims())
            .map(|d| dataset.grid.schema().dimension(d).cardinality(level[d]))
            .collect();
        let mut pool: Vec<(Vec<u32>, f64)> = Vec::new();
        for chunk in fact.non_empty_chunks() {
            for (coords, value) in fact.scan_chunk(chunk) {
                pool.push((coords.to_vec(), value));
            }
        }
        // Seeded Fisher–Yates so deletes land all over the cube instead of
        // draining it in clustered scan order.
        let mut rng = SplitMix64(seed);
        for i in (1..pool.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            pool.swap(i, j);
        }
        Self {
            pool,
            next_del: 0,
            cards,
            rng,
        }
    }

    /// Builds the next batch of `records` deltas: roughly two inserts for
    /// every delete.
    fn next_batch(&mut self, records: usize) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for i in 0..records {
            if i % 3 == 2 {
                if let Some((coords, value)) = self.pool.get(self.next_del) {
                    batch.delete(coords, *value);
                    self.next_del += 1;
                } else {
                    let coords = self.fresh_coords();
                    batch.delete(&coords, f64::from(u32::MAX));
                }
            } else {
                let coords = self.fresh_coords();
                let value = f64::from((self.rng.next_u64() % 1000 + 1) as u32);
                batch.insert(&coords, value);
            }
        }
        batch
    }

    fn fresh_coords(&mut self) -> Vec<u32> {
        self.cards
            .iter()
            .map(|&c| (self.rng.next_u64() % u64::from(c)) as u32)
            .collect()
    }
}

/// A two-level manager at the sweep's budget over a fresh backend.
fn manager(
    dataset: &Dataset,
    opts: Opts,
    strategy: Strategy,
    threads: usize,
    tracer: Option<Arc<dyn Tracer>>,
) -> CacheManager {
    builder_for(
        strategy,
        PolicyKind::TwoLevel,
        opts.cache_bytes,
        threads,
        tracer,
    )
    .build(backend_for(dataset))
    .expect("sweep configuration is valid")
}

/// Runs one (mix, strategy) cell. Deterministic for fixed opts: the
/// workload and delta generator are seeded and every reported number is
/// virtual-time.
pub fn run_cell(dataset: &Dataset, opts: Opts, mix: f64, strategy: Strategy) -> CellResult {
    run_cell_traced(dataset, opts, mix, strategy, None)
}

/// [`run_cell`] with an optional tracer, so `delta_ingest`, `chunk_patch`
/// and `chunk_invalidate` events land in a `--trace-out` document.
pub fn run_cell_traced(
    dataset: &Dataset,
    opts: Opts,
    mix: f64,
    strategy: Strategy,
    tracer: Option<Arc<dyn Tracer>>,
) -> CellResult {
    let requests =
        QueryRequest::batch(&paper_stream(dataset, opts.workload_seed).take_queries(opts.queries));
    let batch = opts.batch.max(1);
    let writes_per_batch = (mix * batch as f64).round() as usize;

    let mut mgr = manager(dataset, opts, strategy, opts.threads, tracer);
    let mut shadow = backend_for(dataset);
    let mut gen = DeltaGen::new(dataset, opts.delta_seed ^ mix.to_bits());

    let mut tally = Tally::default();
    let mut oracle_mismatches = 0u64;
    for reqs in requests.chunks(batch) {
        let outs = mgr.run_batch(reqs).expect("simulated backend cannot fail");
        for (out, req) in outs.iter().zip(reqs) {
            tally.add(out);
            oracle_mismatches += u64::from(!matches_oracle(&shadow, &req.query, &out.data));
        }
        if writes_per_batch > 0 {
            let delta = gen.next_batch(writes_per_batch);
            mgr.ingest(&delta).expect("generated batches are valid");
            shadow
                .apply_delta(&delta)
                .expect("generated batches are valid");
        }
    }

    CellResult {
        mix,
        strategy: strategy_name(strategy),
        answered: tally.queries,
        oracle_mismatches,
        hit_ratio: tally.hit_ratio(),
        updates: *mgr.session_updates(),
        backend_virtual_ms: tally.backend_virtual_ms,
        read_virtual_ms: tally.total_virtual_ms,
    }
}

/// The deterministic slice of [`QueryMetrics`]: every field except the
/// five wall-clock `*_ns` measurements, `f64`s captured as exact bits.
fn metrics_bits(m: &QueryMetrics) -> [u64; 14] {
    [
        m.backend_virtual_ms.to_bits(),
        m.agg_virtual_ms.to_bits(),
        m.lookup_virtual_ms.to_bits(),
        m.update_virtual_ms.to_bits(),
        m.table_writes,
        m.chunks_hit as u64,
        m.chunks_computed as u64,
        m.chunks_missed as u64,
        m.chunks_demoted as u64,
        m.chunks_degraded as u64,
        m.tuples_aggregated,
        m.backend_tuples,
        m.lookup_nodes,
        u64::from(m.complete_hit),
    ]
}

/// Everything a cache holds, in key order: `(packed key, cells, origin
/// discriminant, benefit bits)` per resident chunk.
fn cache_contents(mgr: &CacheManager) -> Vec<(u64, ChunkData, u8, u64)> {
    let mut keys: Vec<_> = mgr.cache().keys().collect();
    keys.sort_unstable_by_key(|k| k.pack());
    keys.into_iter()
        .map(|k| {
            let c = mgr.cache().peek(&k).expect("listed key is resident");
            let origin = match c.origin {
                aggcache_cache::Origin::Backend => 0u8,
                aggcache_cache::Origin::Computed => 1,
                aggcache_cache::Origin::Spilled => 2,
            };
            (k.pack(), c.data.clone(), origin, c.benefit.to_bits())
        })
        .collect()
}

/// Verifies the transparency contract for one strategy × thread count:
/// a session that ingests an empty [`DeltaBatch`] after every read batch
/// must be indistinguishable — answers, deterministic `QueryMetrics`
/// fields, final cache contents — from one that never ingests at all.
/// Returns the number of divergences (0 = bit-transparent).
pub fn empty_delta_divergences(
    dataset: &Dataset,
    opts: Opts,
    strategy: Strategy,
    threads: usize,
) -> u64 {
    let requests =
        QueryRequest::batch(&paper_stream(dataset, opts.workload_seed).take_queries(opts.queries));
    let batch = opts.batch.max(1);
    let build = || manager(dataset, opts, strategy, threads, None);
    let (mut plain, mut noisy) = (build(), build());
    let empty = DeltaBatch::new();

    let mut diffs = 0u64;
    for reqs in requests.chunks(batch) {
        let a = plain
            .run_batch(reqs)
            .expect("simulated backend cannot fail");
        let b = noisy
            .run_batch(reqs)
            .expect("simulated backend cannot fail");
        let m = noisy.ingest(&empty).expect("empty batches are valid");
        diffs += u64::from(m != UpdateMetrics::default());
        for (x, y) in a.iter().zip(&b) {
            let mut dx = x.data.clone();
            let mut dy = y.data.clone();
            dx.sort_by_coords();
            dy.sort_by_coords();
            diffs += u64::from(dx != dy);
            diffs += u64::from(metrics_bits(&x.metrics) != metrics_bits(&y.metrics));
        }
    }
    diffs += u64::from(cache_contents(&plain) != cache_contents(&noisy));
    diffs += u64::from(*noisy.session_updates() != UpdateMetrics::default());
    diffs += u64::from(noisy.version() != plain.version());
    diffs
}

/// Results of the full sweep.
pub struct UpdateResults {
    /// The swept cells, mix-major, strategy-minor.
    pub cells: Vec<CellResult>,
    /// Empty-delta divergences summed over all 5 strategies × {1, 4}
    /// threads. The transparency contract makes this zero.
    pub transparency_diffs: u64,
}

/// Runs the sweep over [`WRITE_MIXES`] × [`strategies`], then the
/// empty-delta transparency check over all strategies at 1 and 4 threads.
pub fn run_experiment(opts: Opts) -> UpdateResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let mut cells = Vec::new();
    for &mix in &WRITE_MIXES {
        for strategy in strategies() {
            cells.push(run_cell(&dataset, opts, mix, strategy));
        }
    }
    let mut transparency_diffs = 0u64;
    for strategy in strategies() {
        for threads in [1usize, 4] {
            transparency_diffs += empty_delta_divergences(&dataset, opts, strategy, threads);
        }
    }
    UpdateResults {
        cells,
        transparency_diffs,
    }
}

/// Renders the sweep as a table: one row per cell.
pub fn render(r: &UpdateResults) -> String {
    let mut out = String::from(
        "Update sweep: read/write mix vs. hit ratio and maintenance cost\n\
         (virtual time; every post-update answer checked against a\n\
         brute-force shadow backend)\n\n",
    );
    let mut table = Table::new(&[
        "mix",
        "strategy",
        "answered",
        "mismatch",
        "hit %",
        "ins",
        "del",
        "patched",
        "invalidated",
        "tbl writes",
        "maint ms",
        "backend ms",
    ]);
    for cell in &r.cells {
        table.row(vec![
            f2(cell.mix),
            cell.strategy.to_string(),
            cell.answered.to_string(),
            cell.oracle_mismatches.to_string(),
            f2(100.0 * cell.hit_ratio),
            cell.updates.tuples_inserted.to_string(),
            cell.updates.tuples_deleted.to_string(),
            cell.updates.chunks_patched.to_string(),
            cell.updates.chunks_invalidated.to_string(),
            cell.updates.table_writes.to_string(),
            f2(cell.updates.update_virtual_ms),
            f2(cell.backend_virtual_ms),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nEmpty-delta transparency divergences (5 strategies x 1/4\n\
         threads): {}\n\
         Shape: the mismatch column is identically zero — inserts patch\n\
         SUM chunks in place through the roll-up kernel, deletes\n\
         invalidate what they touch, and invalidated chunks re-serve\n\
         through the normal miss path. Rising write mixes erode the hit\n\
         ratio and shift cost into the maintenance column, which is\n\
         charged to UpdateMetrics and never to any query.\n",
        r.transparency_diffs
    ));
    out
}

/// Serializes the sweep as one JSON document. Virtual-time numbers only —
/// no wall-clock — so the document is bit-identical across runs and
/// thread counts.
pub fn to_json(opts: Opts, r: &UpdateResults) -> String {
    let mut out = String::with_capacity(1 << 13);
    JsonObject::open(&mut out)
        .field("experiment", "fig_updates")
        .field("tuples", opts.tuples)
        .field("queries", opts.queries)
        .field("batch", opts.batch)
        .field("transparency_diffs", r.transparency_diffs)
        .array("cells", &r.cells, |o, cell| {
            let u = &cell.updates;
            o.field("mix", cell.mix)
                .field("strategy", cell.strategy)
                .field("answered", cell.answered)
                .field("oracle_mismatches", cell.oracle_mismatches)
                .field("hit_ratio", cell.hit_ratio)
                .field("delta_batches", u.delta_batches)
                .field("tuples_inserted", u.tuples_inserted)
                .field("tuples_deleted", u.tuples_deleted)
                .field("deletes_unmatched", u.deletes_unmatched)
                .field("base_chunks_touched", u.base_chunks_touched)
                .field("chunks_patched", u.chunks_patched)
                .field("cells_patched", u.cells_patched)
                .field("chunks_invalidated", u.chunks_invalidated)
                .field("table_writes", u.table_writes)
                .field("update_virtual_ms", u.update_virtual_ms)
                .field("backend_virtual_ms", cell.backend_virtual_ms)
                .field("read_virtual_ms", cell.read_virtual_ms);
        })
        .close();
    out
}

/// Serializes the sweep as CSV: one row per cell.
pub fn to_csv(r: &UpdateResults) -> String {
    let mut out = String::from(
        "mix,strategy,answered,oracle_mismatches,hit_ratio,tuples_inserted,\
         tuples_deleted,deletes_unmatched,chunks_patched,chunks_invalidated,\
         table_writes,update_virtual_ms,backend_virtual_ms\n",
    );
    for cell in &r.cells {
        let u = &cell.updates;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            cell.mix,
            cell.strategy,
            cell.answered,
            cell.oracle_mismatches,
            cell.hit_ratio,
            u.tuples_inserted,
            u.tuples_deleted,
            u.deletes_unmatched,
            u.chunks_patched,
            u.chunks_invalidated,
            u.table_writes,
            u.update_virtual_ms,
            cell.backend_virtual_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> Opts {
        Opts {
            tuples: 4_000,
            queries: 60,
            cache_bytes: 8 * 1024,
            batch: 10,
            ..Opts::default()
        }
    }

    #[test]
    fn answers_match_the_oracle_under_heavy_updates() {
        let ds = apb_dataset(small_opts().tuples, small_opts().seed);
        for strategy in strategies() {
            let c = run_cell(&ds, small_opts(), 0.5, strategy);
            assert_eq!(
                c.oracle_mismatches, 0,
                "{}: stale answers escaped the cache",
                c.strategy
            );
            assert_eq!(c.answered, 60);
            assert!(c.updates.tuples_inserted > 0);
            assert!(c.updates.tuples_deleted > 0);
        }
    }

    #[test]
    fn pure_read_cells_do_no_maintenance() {
        let ds = apb_dataset(small_opts().tuples, small_opts().seed);
        let c = run_cell(&ds, small_opts(), 0.0, Strategy::Vcmc);
        assert_eq!(c.updates, UpdateMetrics::default());
        assert_eq!(c.oracle_mismatches, 0);
    }

    #[test]
    fn maintenance_cost_lands_outside_read_metrics() {
        let ds = apb_dataset(small_opts().tuples, small_opts().seed);
        let c = run_cell(&ds, small_opts(), 0.5, Strategy::Vcmc);
        assert!(c.updates.update_virtual_ms > 0.0);
        let read_only = run_cell(&ds, small_opts(), 0.0, Strategy::Vcmc);
        // Reads may get *more* expensive under updates (invalidation
        // refetches), but the maintenance charge itself never leaks into
        // the read stream: with zero writes it is exactly zero.
        assert_eq!(read_only.updates.update_virtual_ms, 0.0);
        assert_eq!(read_only.updates.table_writes, 0);
    }

    #[test]
    fn empty_delta_streams_are_bit_transparent() {
        let ds = apb_dataset(small_opts().tuples, small_opts().seed);
        for strategy in strategies() {
            for threads in [1usize, 4] {
                assert_eq!(
                    empty_delta_divergences(&ds, small_opts(), strategy, threads),
                    0,
                    "{strategy:?} at {threads} threads: empty ingest perturbed the session"
                );
            }
        }
    }

    #[test]
    fn cells_are_deterministic_and_thread_invariant() {
        let ds = apb_dataset(small_opts().tuples, small_opts().seed);
        let a = run_cell(&ds, small_opts(), 0.2, Strategy::Vcmc);
        let b = run_cell(&ds, small_opts(), 0.2, Strategy::Vcmc);
        let threaded = Opts {
            threads: 4,
            ..small_opts()
        };
        let c = run_cell(&ds, threaded, 0.2, Strategy::Vcmc);
        for other in [&b, &c] {
            assert_eq!(a.updates, other.updates);
            assert_eq!(a.hit_ratio.to_bits(), other.hit_ratio.to_bits());
            assert_eq!(
                a.backend_virtual_ms.to_bits(),
                other.backend_virtual_ms.to_bits()
            );
            assert_eq!(a.read_virtual_ms.to_bits(), other.read_virtual_ms.to_bits());
        }
    }

    #[test]
    fn exports_are_identical_across_runs() {
        let opts = Opts {
            queries: 30,
            ..small_opts()
        };
        let a = run_experiment(opts);
        let b = run_experiment(opts);
        assert_eq!(a.transparency_diffs, 0);
        let (ja, jb) = (to_json(opts, &a), to_json(opts, &b));
        assert_eq!(ja, jb);
        assert_eq!(to_csv(&a), to_csv(&b));
        assert!(ja.contains("\"experiment\":\"fig_updates\""));
    }
}
