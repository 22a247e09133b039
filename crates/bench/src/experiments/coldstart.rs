//! **Cold-start sweep** (`fig_coldstart`, beyond the paper) — time to
//! reach steady-state hit ratio after a restart, with and without the
//! persistent spill tier.
//!
//! The paper's cache lives and dies with its process: every restart
//! starts ice-cold and re-pays the backend for chunks it already earned.
//! This sweep runs a warm-up session over the paper stream, checkpoints
//! the cache through the spill tier (`docs/FORMAT.md`), "restarts", and
//! replays a continuation of the same stream two ways — **cold** (fresh
//! empty cache, no disk) and **warm** (warm-started from the checkpoint,
//! spill tier attached) — tracking the per-batch complete-hit ratio and
//! the query count at which each variant first reaches a target ratio.
//!
//! All reported numbers are virtual-time (the spill tier's disk traffic
//! is charged through the validated `SpillCostModel`, never wall-clock),
//! so two runs produce bit-identical documents.
//! Spill directories are process-unique temp paths that are removed
//! afterwards and never appear in any output.

use crate::report::{f2, Table, Tally};
use crate::rig::{apb_dataset, backend_for, builder_for, paper_stream, scratch_root};
use crate::sweep::{smoke_opts, Sweep};
use crate::trace::Meta;
use aggcache_cache::PolicyKind;
use aggcache_core::{QueryRequest, Strategy};
use aggcache_gen::Dataset;
use aggcache_obs::json::JsonObject;
use aggcache_obs::Tracer;
use aggcache_store::SpillConfig;
use std::path::Path;
use std::sync::Arc;

/// Options for the cold-start sweep.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Warm-up queries executed before the simulated restart.
    pub warmup: usize,
    /// Measurement queries replayed after the restart.
    pub queries: usize,
    /// Workload seed (one stream; the measurement segment continues it).
    pub workload_seed: u64,
    /// Base cache budget in accounting bytes; the sweep also runs every
    /// mode at `BUDGET_SCALES` multiples of it.
    pub cache_bytes: usize,
    /// Queries per measurement batch (the hit-ratio sampling window).
    pub batch: usize,
    /// Complete-hit ratio a batch must reach to count as "warmed up".
    pub target: f64,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 60_000,
            seed: 0xC01D,
            warmup: 600,
            queries: 600,
            workload_seed: 2_000,
            cache_bytes: 24 * 1024,
            batch: 25,
            target: 0.5,
        }
    }
}

impl Opts {
    /// The smoke configuration used by CI: small dataset, short streams,
    /// a budget tight enough that the warm tier has something to restore.
    pub fn smoke() -> Self {
        Self {
            tuples: 8_000,
            warmup: 150,
            queries: 150,
            cache_bytes: 8 * 1024,
            ..Self::default()
        }
    }
}

/// `fig_coldstart`, as [`crate::sweep::sweep_main`] runs it.
/// `--trace-out` traces the cell that exercises this sweep's events: a
/// *warm restart* over a checkpointed spill directory, so `warm_start`,
/// `spill_read`, `spill_promote` and `spill_write` all appear.
pub const SWEEP: Sweep<Opts, ColdstartResults> = Sweep {
    opts: smoke_opts!(Opts),
    run: run_experiment,
    render,
    check: None,
    exports: Some(to_json),
    traced: Some(|opts, tracer| -> Meta {
        let dataset = apb_dataset(opts.tuples, opts.seed);
        let root = scratch_root("coldstart");
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("traced");
        let cell = run_cell(&dataset, opts, true, opts.cache_bytes, &dir, Some(tracer));
        let _ = std::fs::remove_dir_all(&root);
        vec![
            ("experiment", Box::new("fig_coldstart")),
            ("tuples", Box::new(opts.tuples)),
            ("seed", Box::new(opts.seed)),
            ("warmup", Box::new(opts.warmup)),
            ("queries", Box::new(opts.queries)),
            ("workload_seed", Box::new(opts.workload_seed)),
            ("cache_bytes", Box::new(opts.cache_bytes)),
            ("strategy", Box::new("vcmc")),
            ("policy", Box::new("two_level")),
            ("warm_start_chunks", Box::new(cell.warm_start_chunks)),
            ("spill_reads", Box::new(cell.spill_reads)),
            ("spill_writes", Box::new(cell.spill_writes)),
        ]
    }),
};

/// Cache-budget multiples swept for every mode.
pub(crate) const BUDGET_SCALES: [usize; 2] = [1, 3];

/// Outcome of one (warm, cache budget) cell.
#[derive(Debug, Clone)]
pub(crate) struct CellResult {
    /// Whether the restart warm-started from the spill checkpoint.
    pub(crate) warm: bool,
    /// Cache budget in accounting bytes.
    pub(crate) cache_bytes: usize,
    /// Chunks the warm start re-admitted (0 when cold).
    pub(crate) warm_start_chunks: u64,
    /// Serialized bytes the warm start read (0 when cold).
    pub(crate) warm_start_bytes: u64,
    /// Virtual milliseconds the warm start charged (0 when cold).
    pub(crate) warm_start_virtual_ms: f64,
    /// Per-batch complete-hit ratios over the measurement segment.
    pub(crate) batch_hit: Vec<f64>,
    /// Whether any batch reached [`Opts::target`].
    pub(crate) reached_target: bool,
    /// Measurement queries executed up to and including the first batch
    /// that reached the target (the whole segment when never reached).
    pub(crate) queries_to_target: usize,
    /// Complete-hit ratio over the whole measurement segment.
    pub(crate) final_hit_ratio: f64,
    /// Fraction of chunk demands served without a backend fetch.
    pub(crate) chunk_hit_ratio: f64,
    /// Total virtual milliseconds over the measurement segment, spill
    /// traffic included (warm-start recovery reported separately).
    pub(crate) total_virtual_ms: f64,
    /// Virtual milliseconds spent fetching from the backend — the work
    /// the warm tier exists to avoid.
    pub(crate) backend_virtual_ms: f64,
    /// Spill reads during measurement (promotions; excludes warm start).
    pub(crate) spill_reads: u64,
    /// Spill writes during measurement (demotions).
    pub(crate) spill_writes: u64,
    /// Virtual milliseconds of measurement-time spill traffic.
    pub(crate) spill_virtual_ms: f64,
}

/// Replays one (warm, cache budget) cell. Deterministic for fixed opts:
/// the workload is seeded and every reported number is virtual-time.
/// `dir` is this cell's private spill directory (removed by the caller);
/// it is used even in cold mode's warm-up session so both modes pay the
/// same warm-up — cold mode then simply abandons it. `tracer`, if any, is
/// attached to the *restarted* session — the one that emits `warm_start`
/// at build and `spill_read`/`spill_promote`/`spill_write` while
/// measuring. The warm-up session stays untraced so the trace covers one
/// configuration.
pub(crate) fn run_cell(
    dataset: &Dataset,
    opts: Opts,
    warm: bool,
    cache_bytes: usize,
    dir: &Path,
    tracer: Option<Arc<dyn Tracer>>,
) -> CellResult {
    let mut stream = paper_stream(dataset, opts.workload_seed);
    let warmup = QueryRequest::batch(&stream.take_queries(opts.warmup));
    let measure = QueryRequest::batch(&stream.take_queries(opts.queries));
    let builder = |tracer| {
        let (strategy, policy) = (Strategy::Vcmc, PolicyKind::TwoLevel);
        builder_for(strategy, policy, cache_bytes, tracer)
    };

    // Session 1: warm up and checkpoint through the spill tier.
    {
        let mut first = builder(None)
            .spill(SpillConfig::new(dir))
            .build(backend_for(dataset))
            .expect("sweep configuration is valid");
        first
            .run_batch(&warmup)
            .expect("simulated backend cannot fail");
        first.checkpoint().expect("checkpoint to a fresh temp dir");
    }

    // Session 2: the restart. Cold forgets the disk; warm recovers it.
    let mut restart = builder(tracer);
    if warm {
        restart = restart.spill(SpillConfig::new(dir));
    }
    let mut mgr = restart
        .build(backend_for(dataset))
        .expect("sweep configuration is valid");
    let recovery = *mgr.session_spill();

    let mut batch_hit = Vec::new();
    let mut tally = Tally::default();
    let mut reached_target = false;
    let mut queries_to_target = measure.len();
    for batch in measure.chunks(opts.batch.max(1)) {
        let outs = mgr.run_batch(batch).expect("simulated backend cannot fail");
        outs.iter().for_each(|o| tally.add(o));
        let batch_hits = outs.iter().filter(|o| o.metrics.complete_hit).count();
        let ratio = batch_hits as f64 / batch.len() as f64;
        batch_hit.push(ratio);
        if !reached_target && ratio >= opts.target {
            reached_target = true;
            queries_to_target = (batch_hit.len() * opts.batch.max(1)).min(measure.len());
        }
    }

    let session = *mgr.session_spill();
    CellResult {
        warm,
        cache_bytes,
        warm_start_chunks: recovery.spill_reads,
        warm_start_bytes: recovery.bytes_read,
        warm_start_virtual_ms: recovery.spill_virtual_ms,
        batch_hit,
        reached_target,
        queries_to_target,
        final_hit_ratio: tally.hit_ratio(),
        chunk_hit_ratio: tally.chunk_hit_ratio(),
        total_virtual_ms: tally.total_virtual_ms,
        backend_virtual_ms: tally.backend_virtual_ms,
        spill_reads: session.spill_reads - recovery.spill_reads,
        spill_writes: session.spill_writes - recovery.spill_writes,
        spill_virtual_ms: session.spill_virtual_ms - recovery.spill_virtual_ms,
    }
}

/// Results of the full sweep.
pub struct ColdstartResults {
    /// The swept cells, in (budget scale, mode) order — cold before warm.
    pub(crate) cells: Vec<CellResult>,
}

/// Runs the sweep over `BUDGET_SCALES` × {cold, warm}.
pub fn run_experiment(opts: Opts) -> ColdstartResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let root = scratch_root("coldstart");
    let _ = std::fs::remove_dir_all(&root);
    let mut cells = Vec::new();
    for (i, &scale) in BUDGET_SCALES.iter().enumerate() {
        for warm in [false, true] {
            let dir = root.join(format!("cell-{i}-{}", u8::from(warm)));
            let cache_bytes = opts.cache_bytes * scale;
            cells.push(run_cell(&dataset, opts, warm, cache_bytes, &dir, None));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    ColdstartResults { cells }
}

/// Renders the sweep as a table: one row per cell.
pub fn render(r: &ColdstartResults) -> String {
    let mut out = String::from(
        "Cold-start sweep: restart with vs without the persistent spill\n\
         tier (virtual time; warm-start recovery charged separately)\n\n",
    );
    let mut table = Table::new(&[
        "mode",
        "cache KB",
        "recovered",
        "recover ms",
        "q to target",
        "hit %",
        "chunk hit %",
        "backend ms",
        "total ms",
        "spill r/w",
    ]);
    for cell in &r.cells {
        table.row(vec![
            if cell.warm { "warm" } else { "cold" }.to_string(),
            f2(cell.cache_bytes as f64 / 1024.0),
            cell.warm_start_chunks.to_string(),
            f2(cell.warm_start_virtual_ms),
            if cell.reached_target {
                cell.queries_to_target.to_string()
            } else {
                format!(">{}", cell.queries_to_target)
            },
            f2(100.0 * cell.final_hit_ratio),
            f2(100.0 * cell.chunk_hit_ratio),
            f2(cell.backend_virtual_ms),
            f2(cell.total_virtual_ms),
            format!("{}/{}", cell.spill_reads, cell.spill_writes),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nShape: the cold restart re-pays the backend for every chunk the\n\
         previous session had already earned; the warm restart pays a\n\
         one-time recovery cost — disk reads at a fraction of backend\n\
         rates — opens with a hot cache, and keeps demoting evictions to\n\
         the spill so later capacity misses promote from disk instead of\n\
         re-fetching, roughly halving backend work. The complete-hit\n\
         column counts only queries answered from RAM alone (promotions\n\
         count as misses), so warm's win shows up in backend/total ms\n\
         rather than hit % at tight budgets.\n",
    );
    out
}

/// Serializes the sweep as one JSON document. Virtual-time numbers only —
/// no paths, no wall-clock — so the document is bit-identical across
/// runs.
pub(crate) fn to_json(opts: Opts, r: &ColdstartResults) -> String {
    let mut out = String::with_capacity(1 << 14);
    JsonObject::open(&mut out)
        .field("experiment", "fig_coldstart")
        .field("tuples", opts.tuples)
        .field("warmup", opts.warmup)
        .field("queries", opts.queries)
        .field("target", opts.target)
        .array("cells", &r.cells, |o, cell| {
            o.field("warm", cell.warm)
                .field("cache_bytes", cell.cache_bytes)
                .field("warm_start_chunks", cell.warm_start_chunks)
                .field("warm_start_bytes", cell.warm_start_bytes)
                .field("warm_start_virtual_ms", cell.warm_start_virtual_ms)
                .field("reached_target", cell.reached_target)
                .field("queries_to_target", cell.queries_to_target)
                .field("final_hit_ratio", cell.final_hit_ratio)
                .field("chunk_hit_ratio", cell.chunk_hit_ratio)
                .field("total_virtual_ms", cell.total_virtual_ms)
                .field("backend_virtual_ms", cell.backend_virtual_ms)
                .field("spill_reads", cell.spill_reads)
                .field("spill_writes", cell.spill_writes)
                .field("spill_virtual_ms", cell.spill_virtual_ms)
                .field("batch_hit", &cell.batch_hit);
        })
        .close();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::assert_golden;
    use std::sync::OnceLock;

    /// `fig_coldstart --smoke`, run once per test pass; every test reads it.
    fn smoke() -> &'static ColdstartResults {
        static RUN: OnceLock<ColdstartResults> = OnceLock::new();
        RUN.get_or_init(|| (SWEEP.run)(Opts::smoke()))
    }

    #[test]
    fn golden() {
        assert_golden("coldstart", &SWEEP, Opts::smoke(), smoke());
        assert!(!scratch_root("coldstart").exists(), "scratch left behind");
    }

    #[test]
    fn warm_restart_beats_cold_restart() {
        // The cells come in (cold, warm) pairs, one per budget scale.
        for pair in smoke().cells.chunks(2) {
            let (cold, warm) = (&pair[0], &pair[1]);
            assert!(warm.warm && !cold.warm);
            assert!(warm.warm_start_chunks > 0, "nothing recovered");
            assert_eq!(cold.warm_start_chunks, 0);
            // The warm restart opens with the recovered cache; the cold
            // restart starts from nothing.
            assert!(warm.batch_hit[0] >= cold.batch_hit[0]);
            // Disk promotions replace backend fetches at a fraction of the
            // cost, so warm does less backend work and finishes sooner even
            // counting its own spill traffic.
            assert!(
                warm.backend_virtual_ms < cold.backend_virtual_ms,
                "warm backend {} not below cold {}",
                warm.backend_virtual_ms,
                cold.backend_virtual_ms
            );
            assert!(warm.total_virtual_ms < cold.total_virtual_ms);
            assert!(warm.spill_reads > 0, "no mid-run promotions");
        }
        // With room for what it recovered, the warm opening batch hits more.
        let [.., cold, warm] = &smoke().cells[..] else {
            panic!("no cells")
        };
        assert!(
            warm.batch_hit[0] > cold.batch_hit[0],
            "warm first batch {} not above cold {}",
            warm.batch_hit[0],
            cold.batch_hit[0]
        );
    }
}
