//! **Update sweep** (`fig_updates`, beyond the paper) — base-data deltas
//! propagated up the lattice: read/write mix × lookup strategy vs. hit
//! ratio and maintenance cost.
//!
//! Every cell interleaves a seeded paper query stream with seeded
//! [`DeltaBatch`]es (inserts of fresh tuples plus deletes of tuples the
//! generator drew from the initial fact table, so deletes really match).
//! After every read batch the next delta batch is ingested through
//! [`CacheManager::ingest`](aggcache_core::CacheManager::ingest) *and*
//! applied to a pristine shadow backend; **every answer is then compared
//! against that brute-force oracle**, so a single stale cell anywhere in
//! the lattice shows up as a mismatch. The mismatch count must be zero in
//! every cell.
//!
//! Measures are integers (the generator draws values in `[1, 1000]` and so
//! does the delta generator), which keeps every SUM exactly representable
//! in an `f64` — patched totals and recomputed totals agree *bitwise*, so
//! the oracle comparison is exact equality, no epsilon.
//!
//! All maintenance cost is charged to [`UpdateMetrics`] (never to
//! `QueryMetrics`), and every reported number is virtual-time, so two runs
//! produce bit-identical documents.

use crate::report::{f2, Table, Tally};
use crate::rig::{
    apb_dataset, backend_for, builder_for, matches_oracle, paper_stream, strategy_name,
};
use crate::sweep::{smoke_opts, Sweep};
use crate::trace::Meta;
use aggcache_cache::PolicyKind;
use aggcache_chunks::hash::SplitMix64;
use aggcache_core::{DeltaBatch, QueryRequest, Strategy, UpdateMetrics};
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
    /// Cache budget in accounting bytes.
    pub cache_bytes: usize,
}

/// Workload seed.
const WORKLOAD_SEED: u64 = 11_000;
/// Read queries per batch; one delta batch is ingested after each.
const BATCH: usize = 25;
/// Delta-generator seed.
const DELTA_SEED: u64 = 0xF00D;

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 60_000,
            seed: 0xDE17A,
            queries: 300,
            cache_bytes: 64 * 1024,
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
/// exits non-zero if any cell reports an oracle mismatch. `--trace-out`
/// traces one write-heavy VCMC cell, so `delta_ingest`, `chunk_patch` and
/// `chunk_invalidate` appear.
pub const SWEEP: Sweep<Opts, UpdateResults> = Sweep {
    opts: smoke_opts!(Opts),
    run: run_experiment,
    render,
    check: Some(
        |r| match r.cells.iter().map(|c| c.oracle_mismatches).sum::<u64>() {
            0 => Ok(()),
            n => Err(format!(
                "update propagation violated: {n} answer(s) diverged from the oracle"
            )),
        },
    ),
    exports: Some(to_json),
    traced: Some(|opts, tracer| -> Meta {
        let dataset = apb_dataset(opts.tuples, opts.seed);
        let cell = run_cell(&dataset, opts, 0.5, Strategy::Vcmc, Some(tracer));
        vec![
            ("experiment", Box::new("fig_updates")),
            ("tuples", Box::new(opts.tuples)),
            ("seed", Box::new(opts.seed)),
            ("queries", Box::new(opts.queries)),
            ("workload_seed", Box::new(WORKLOAD_SEED)),
            ("cache_bytes", Box::new(opts.cache_bytes)),
            ("write_mix", Box::new(0.5)),
            ("strategy", Box::new("vcmc")),
            ("policy", Box::new("two_level")),
            ("chunks_patched", Box::new(cell.updates.chunks_patched)),
            (
                "chunks_invalidated",
                Box::new(cell.updates.chunks_invalidated),
            ),
        ]
    }),
};

/// Write fractions swept: delta records ingested per read query.
pub(crate) const WRITE_MIXES: [f64; 4] = [0.0, 0.05, 0.2, 0.5];

/// The strategies swept: the no-aggregation baseline and the paper's two
/// count-table strategies. ESM is left out because the §4 theorem makes
/// it answer exactly like VCM (a chunk is computable iff its virtual count
/// is positive), and budgeted ESMC because it keeps no tables to maintain.
pub(crate) fn strategies() -> [Strategy; 3] {
    [Strategy::NoAggregation, Strategy::Vcm, Strategy::Vcmc]
}

/// Outcome of one (write mix, strategy) cell.
#[derive(Debug, Clone)]
pub(crate) struct CellResult {
    /// Delta records ingested per read query.
    pub(crate) mix: f64,
    /// Lookup strategy label.
    pub(crate) strategy: &'static str,
    /// Read queries answered.
    pub(crate) answered: u64,
    /// Answers that differed from the brute-force shadow backend. The
    /// propagation contract makes this zero in every cell.
    pub(crate) oracle_mismatches: u64,
    /// Complete-hit ratio over the read stream.
    pub(crate) hit_ratio: f64,
    /// Maintenance totals across every ingested batch, straight from
    /// [`CacheManager::session_updates`](aggcache_core::CacheManager::session_updates).
    pub(crate) updates: UpdateMetrics,
    /// Virtual backend milliseconds over the read stream.
    pub(crate) backend_virtual_ms: f64,
    /// Virtual milliseconds of the read stream (maintenance excluded —
    /// it is charged to [`UpdateMetrics::update_virtual_ms`] instead).
    pub(crate) read_virtual_ms: f64,
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

/// Runs one (mix, strategy) cell. Deterministic for fixed opts: the
/// workload and delta generator are seeded and every reported number is
/// virtual-time. `tracer`, if any, receives the `delta_ingest`,
/// `chunk_patch` and `chunk_invalidate` events of a `--trace-out` document.
pub(crate) fn run_cell(
    dataset: &Dataset,
    opts: Opts,
    mix: f64,
    strategy: Strategy,
    tracer: Option<Arc<dyn Tracer>>,
) -> CellResult {
    let requests =
        QueryRequest::batch(&paper_stream(dataset, WORKLOAD_SEED).take_queries(opts.queries));
    let writes_per_batch = (mix * BATCH as f64).round() as usize;

    let mut mgr = builder_for(strategy, PolicyKind::TwoLevel, opts.cache_bytes, tracer)
        .build(backend_for(dataset))
        .expect("sweep configuration is valid");
    let mut shadow = backend_for(dataset);
    let mut gen = DeltaGen::new(dataset, DELTA_SEED ^ mix.to_bits());

    let mut tally = Tally::default();
    let mut oracle_mismatches = 0u64;
    for reqs in requests.chunks(BATCH) {
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

/// Results of the full sweep.
pub struct UpdateResults {
    /// The swept cells, mix-major, strategy-minor.
    pub(crate) cells: Vec<CellResult>,
}

/// Runs the sweep over `WRITE_MIXES` × `strategies`.
pub fn run_experiment(opts: Opts) -> UpdateResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let mut cells = Vec::new();
    for &mix in &WRITE_MIXES {
        for strategy in strategies() {
            cells.push(run_cell(&dataset, opts, mix, strategy, None));
        }
    }
    UpdateResults { cells }
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
    out.push_str(
        "\nShape: the mismatch column is identically zero — inserts patch\n\
         SUM chunks in place through the roll-up kernel, deletes\n\
         invalidate what they touch, and invalidated chunks re-serve\n\
         through the normal miss path. Rising write mixes erode the hit\n\
         ratio and shift cost into the maintenance column, which is\n\
         charged to UpdateMetrics and never to any query.\n",
    );
    out
}

/// Serializes the sweep as one JSON document. Virtual-time numbers only —
/// no wall-clock — so the document is bit-identical across runs.
pub(crate) fn to_json(opts: Opts, r: &UpdateResults) -> String {
    let mut out = String::with_capacity(1 << 13);
    JsonObject::open(&mut out)
        .field("experiment", "fig_updates")
        .field("tuples", opts.tuples)
        .field("queries", opts.queries)
        .field("batch", BATCH)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::assert_golden;
    use std::sync::OnceLock;

    /// `fig_updates --smoke`, run once per test pass; every test reads it.
    fn smoke() -> &'static UpdateResults {
        static RUN: OnceLock<UpdateResults> = OnceLock::new();
        RUN.get_or_init(|| (SWEEP.run)(Opts::smoke()))
    }

    #[test]
    fn golden() {
        assert_golden("updates", &SWEEP, Opts::smoke(), smoke());
    }

    #[test]
    fn pure_read_cells_do_no_maintenance() {
        let pure: Vec<_> = smoke().cells.iter().filter(|c| c.mix == 0.0).collect();
        assert_eq!(pure.len(), strategies().len());
        for c in pure {
            assert_eq!(c.updates, UpdateMetrics::default(), "{}", c.strategy);
        }
    }

    #[test]
    fn maintenance_cost_lands_outside_read_metrics() {
        // Heavy updates pay maintenance, charged to `UpdateMetrics`. Reads
        // may get *more* expensive under updates (invalidation refetches),
        // but the charge itself never leaks into the read stream: with
        // zero writes it is exactly zero (`pure_read_cells_do_no_maintenance`),
        // and an empty ingest is a no-op under every strategy (the core
        // crate's `ingest_empty_batch_is_a_guaranteed_no_op`).
        for c in smoke().cells.iter().filter(|c| c.mix == 0.5) {
            assert!(c.updates.tuples_inserted > 0, "{}", c.strategy);
            assert!(c.updates.tuples_deleted > 0, "{}", c.strategy);
            assert!(c.updates.update_virtual_ms > 0.0, "{}", c.strategy);
        }
    }
}
