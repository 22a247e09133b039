//! **Recovery sweep** (`fig_recovery`, beyond the paper) — self-healing
//! storage under injected disk faults: corruption rate × scrub interval
//! vs. answered queries, quarantines and warm-restart recovery, against
//! the paper's cold restart.
//!
//! Every cell runs two sessions — warm up, checkpoint, restart warm — and
//! routes *all* spill I/O through the seeded [`DiskFaultProfile`]: bit
//! flips on reads, torn writes, and transient read errors retried under
//! the validated `RetryPolicy`. The
//! invariant being measured is the tentpole's contract: **answers are
//! never corrupted**. Every measurement answer is compared against a
//! brute-force backend oracle and the mismatch count is reported (it must
//! be zero at every fault rate); damaged records are quarantined and
//! re-served through the normal miss path instead.
//!
//! The paper's cache lives and dies with its process, so a leading
//! **cold** row runs the rate-0 / scrub-off cell's first session and then
//! restarts with no spill tier: it re-pays the backend for every chunk
//! the first session had already earned, which the warm cells recover
//! from disk instead.
//!
//! All reported numbers are virtual-time (retries, backoff and scrub
//! passes are charged through `SpillMetrics`, never wall-clock), so two
//! runs produce bit-identical documents. Spill
//! directories are process-unique temp paths that are removed afterwards
//! and never appear in any output.

use crate::report::{f2, mean, Table, Tally};
use crate::rig::{
    apb_dataset, backend_for, builder_for, matches_oracle, paper_stream, scratch_root,
};
use crate::sweep::{smoke_opts, Sweep};
use crate::trace::Meta;
use aggcache_cache::PolicyKind;
use aggcache_core::{QueryRequest, Strategy};
use aggcache_gen::Dataset;
use aggcache_obs::json::JsonObject;
use aggcache_obs::Tracer;
use aggcache_store::{DiskFaultProfile, SpillConfig};
use std::path::Path;
use std::sync::Arc;

/// Options for the recovery sweep.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Warm-up queries executed (under faults) before the restart.
    pub warmup: usize,
    /// Measurement queries replayed after the restart.
    pub queries: usize,
    /// Cache budget in accounting bytes — tight, so demotions and
    /// promotions keep the faulty disk on the hot path.
    pub cache_bytes: usize,
}

/// Workload seed (one stream; the measurement segment continues it).
const WORKLOAD_SEED: u64 = 9_000;
/// Disk-fault profile seed (the restart offsets it for independence).
const FAULT_SEED: u64 = 0xFA11;
/// Virtual milliseconds of query time between scrub passes, for the
/// scrub-enabled half of the sweep.
const SCRUB_INTERVAL_MS: f64 = 500.0;

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 60_000,
            seed: 0x5C2B,
            warmup: 400,
            queries: 400,
            cache_bytes: 24 * 1024,
        }
    }
}

impl Opts {
    /// The smoke configuration used by CI: small dataset, short streams.
    pub fn smoke() -> Self {
        Self {
            tuples: 8_000,
            warmup: 120,
            queries: 120,
            cache_bytes: 8 * 1024,
            ..Self::default()
        }
    }
}

/// `fig_recovery`, as [`crate::sweep::sweep_main`] runs it. The process
/// exits non-zero if any cell, or the cold row, reports an oracle
/// mismatch. `--trace-out` traces the cell that exercises this sweep's
/// events: a faulty warm restart with scrubbing on, so `warm_start`,
/// `spill_read`, `spill_promote`, `spill_write`, `spill_corrupt`,
/// `spill_quarantine` and `scrub_pass` appear.
pub const SWEEP: Sweep<Opts, RecoveryResults> = Sweep {
    opts: smoke_opts!(Opts),
    run: run_experiment,
    render,
    check: Some(|r| {
        let cells = std::iter::once(&r.cold).chain(&r.cells);
        match cells.map(|c| c.oracle_mismatches).sum::<u64>() {
            0 => Ok(()),
            n => Err(format!(
                "self-healing contract violated: {n} answer(s) diverged from the oracle"
            )),
        }
    }),
    exports: Some(to_json),
    traced: Some(|opts, tracer| -> Meta {
        let dataset = apb_dataset(opts.tuples, opts.seed);
        let root = scratch_root("recovery");
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("traced");
        let cell = run_cell(&dataset, opts, 0.2, true, true, &dir, Some(tracer));
        let _ = std::fs::remove_dir_all(&root);
        vec![
            ("experiment", Box::new("fig_recovery")),
            ("tuples", Box::new(opts.tuples)),
            ("seed", Box::new(opts.seed)),
            ("warmup", Box::new(opts.warmup)),
            ("queries", Box::new(opts.queries)),
            ("workload_seed", Box::new(WORKLOAD_SEED)),
            ("cache_bytes", Box::new(opts.cache_bytes)),
            ("fault_rate", Box::new(0.2)),
            ("strategy", Box::new("vcmc")),
            ("policy", Box::new("two_level")),
            ("corrupt", Box::new(cell.corrupt)),
            ("quarantined", Box::new(cell.quarantined)),
            ("scrub_passes", Box::new(cell.scrub_passes)),
        ]
    }),
};

/// Disk-fault rates swept (bit-flip and torn-write rate; transient-read
/// rate is half of each, per [`DiskFaultProfile::uniform`]).
pub(crate) const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// Outcome of one (fault rate, scrub) cell, or of the cold restart.
#[derive(Debug, Clone)]
pub(crate) struct CellResult {
    /// Injected fault rate.
    pub(crate) rate: f64,
    /// Whether the virtual-time scrub pass was enabled.
    pub(crate) scrub: bool,
    /// Measurement queries answered (all of them — corruption is
    /// absorbed, never surfaced).
    pub(crate) answered: u64,
    /// Measurement answers that differed from the brute-force backend
    /// oracle. The self-healing contract makes this zero at every rate.
    pub(crate) oracle_mismatches: u64,
    /// Chunks the warm restart re-admitted from the (faulty) checkpoint
    /// (0 when cold).
    pub(crate) warm_start_chunks: u64,
    /// Fraction of checkpointed records the warm restart recovered.
    pub(crate) warm_restart_hit_ratio: f64,
    /// Corrupt records detected across both sessions.
    pub(crate) corrupt: u64,
    /// Records quarantined across both sessions.
    pub(crate) quarantined: u64,
    /// Transient-read retries spent under the retry policy.
    pub(crate) retries: u64,
    /// Demotions that failed and degraded to plain evictions.
    pub(crate) demote_failures: u64,
    /// Scrub passes completed (0 with scrubbing off).
    pub(crate) scrub_passes: u64,
    /// Index scavenges performed at either open.
    pub(crate) index_rebuilds: u64,
    /// Complete-hit ratio over the measurement segment.
    pub(crate) final_hit_ratio: f64,
    /// Virtual backend milliseconds over the measurement segment — the
    /// cost of re-fetching what corruption destroyed.
    pub(crate) backend_virtual_ms: f64,
    /// Total virtual milliseconds over the measurement segment, spill
    /// traffic (retries and scrubbing included) counted.
    pub(crate) total_virtual_ms: f64,
}

/// Runs one (rate, scrub) cell. Deterministic for fixed opts: the
/// workload and fault profile are seeded and every reported number is
/// virtual-time. `dir` is this cell's private spill directory (removed by
/// the caller). With `warm` false the restart is built with no spill tier
/// and the checkpoint goes unread. `tracer`, if any, is attached to the
/// *restarted* session — the one that emits `spill_corrupt`,
/// `spill_quarantine`, `index_rebuild` and `scrub_pass` while recovering
/// and measuring. The warm-up session stays untraced so the trace covers
/// one configuration.
pub(crate) fn run_cell(
    dataset: &Dataset,
    opts: Opts,
    rate: f64,
    scrub: bool,
    warm: bool,
    dir: &Path,
    tracer: Option<Arc<dyn Tracer>>,
) -> CellResult {
    let mut stream = paper_stream(dataset, WORKLOAD_SEED);
    let warmup = QueryRequest::batch(&stream.take_queries(opts.warmup));
    let measure = QueryRequest::batch(&stream.take_queries(opts.queries));
    let build = |fault_seed: u64, spilled: bool, tracer| {
        let (strategy, policy) = (Strategy::Vcmc, PolicyKind::TwoLevel);
        let mut builder = builder_for(strategy, policy, opts.cache_bytes, tracer);
        if spilled {
            let mut spill =
                SpillConfig::new(dir).fault(DiskFaultProfile::uniform(rate, fault_seed));
            if scrub {
                spill = spill.scrub_interval_ms(SCRUB_INTERVAL_MS);
            }
            builder = builder.spill(spill);
        }
        builder
            .build(backend_for(dataset))
            .expect("sweep configuration is valid")
    };

    // Session 1: warm up *under faults* (torn demotions land on disk as
    // damage the restart must absorb) and checkpoint.
    let checkpointed = {
        let mut first = build(FAULT_SEED, true, None);
        first
            .run_batch(&warmup)
            .expect("simulated backend cannot fail");
        let written = first.checkpoint().expect("checkpoint index persists");
        written.spill_writes
    };

    // Session 2: restart over the damaged directory, still under faults
    // (fresh fault stream), and measure — or, cold, forget the disk.
    let mut mgr = build(FAULT_SEED ^ 0x9E37, warm, tracer);
    let recovery = *mgr.session_spill();
    let oracle_backend = backend_for(dataset);

    let mut tally = Tally::default();
    let mut oracle_mismatches = 0u64;
    for request in &measure {
        let out = mgr.run(request).expect("simulated backend cannot fail");
        tally.add(&out);
        oracle_mismatches += u64::from(!matches_oracle(&oracle_backend, &request.query, &out.data));
    }

    let session = *mgr.session_spill();
    CellResult {
        rate,
        scrub,
        answered: tally.queries,
        oracle_mismatches,
        warm_start_chunks: recovery.spill_reads,
        warm_restart_hit_ratio: mean(recovery.spill_reads as f64, checkpointed),
        corrupt: session.spill_corrupt,
        quarantined: session.spill_quarantined,
        retries: session.spill_retries,
        demote_failures: session.demote_failures,
        scrub_passes: session.scrub_passes,
        index_rebuilds: session.index_rebuilds,
        final_hit_ratio: tally.hit_ratio(),
        backend_virtual_ms: tally.backend_virtual_ms,
        total_virtual_ms: tally.total_virtual_ms,
    }
}

/// Results of the full sweep.
pub struct RecoveryResults {
    /// The cold restart: the rate-0 / scrub-off cell's first session, then
    /// a restart with no spill tier.
    pub(crate) cold: CellResult,
    /// The swept cells, in (rate, scrub off/on) order.
    pub(crate) cells: Vec<CellResult>,
}

/// Runs the cold restart and the sweep over `FAULT_RATES` × {scrub off,
/// scrub on}.
pub fn run_experiment(opts: Opts) -> RecoveryResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let root = scratch_root("recovery");
    let _ = std::fs::remove_dir_all(&root);
    let cold = run_cell(&dataset, opts, 0.0, false, false, &root.join("cold"), None);
    let mut cells = Vec::new();
    for (i, &rate) in FAULT_RATES.iter().enumerate() {
        for scrub in [false, true] {
            let dir = root.join(format!("cell-{i}-{}", u8::from(scrub)));
            cells.push(run_cell(&dataset, opts, rate, scrub, true, &dir, None));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    RecoveryResults { cold, cells }
}

/// Renders the sweep as a table: the cold row, then one row per cell.
pub fn render(r: &RecoveryResults) -> String {
    let mut out = String::from(
        "Recovery sweep: injected disk faults vs. quarantine-and-refetch\n\
         self-healing (virtual time; every answer checked against a\n\
         brute-force oracle)\n\n",
    );
    let mut table = Table::new(&[
        "rate",
        "scrub",
        "answered",
        "mismatch",
        "recovered",
        "warm hit %",
        "corrupt",
        "quarantine",
        "retries",
        "scrubs",
        "hit %",
        "backend ms",
    ]);
    let cold = [("cold".to_string(), "-", &r.cold)];
    let warm = r.cells.iter().map(|cell| {
        let scrub = if cell.scrub { "on" } else { "off" };
        (f2(cell.rate), scrub, cell)
    });
    for (rate, scrub, cell) in cold.into_iter().chain(warm) {
        table.row(vec![
            rate,
            scrub.to_string(),
            cell.answered.to_string(),
            cell.oracle_mismatches.to_string(),
            cell.warm_start_chunks.to_string(),
            f2(100.0 * cell.warm_restart_hit_ratio),
            cell.corrupt.to_string(),
            cell.quarantined.to_string(),
            cell.retries.to_string(),
            cell.scrub_passes.to_string(),
            f2(100.0 * cell.final_hit_ratio),
            f2(cell.backend_virtual_ms),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nShape: the mismatch column is identically zero — corruption is\n\
         detected by checksums, quarantined, and re-served through the\n\
         normal miss path, so faults cost backend milliseconds, never\n\
         answers. Rising fault rates shrink the warm restart (damaged\n\
         checkpoint records are dropped at open) and raise backend work;\n\
         scrubbing pays a steady virtual-time premium to quarantine rot\n\
         ahead of demand instead of at promotion time. The cold row\n\
         restarts with no spill tier, as the paper's cache does: it\n\
         re-pays the backend for every chunk the first session earned,\n\
         where the rate-0 cells promote them from disk at a fraction of\n\
         the cost.\n",
    );
    out
}

/// Serializes the sweep as one JSON document. Virtual-time numbers only —
/// no paths, no wall-clock — so the document is bit-identical across
/// runs.
pub(crate) fn to_json(opts: Opts, r: &RecoveryResults) -> String {
    let mut out = String::with_capacity(1 << 13);
    JsonObject::open(&mut out)
        .field("experiment", "fig_recovery")
        .field("tuples", opts.tuples)
        .field("warmup", opts.warmup)
        .field("queries", opts.queries)
        .field("scrub_interval_ms", SCRUB_INTERVAL_MS)
        .object("cold", |o| cell_json(o, &r.cold))
        .array("cells", &r.cells, cell_json)
        .close();
    out
}

/// Writes one cell's fields (the cold row's too).
fn cell_json(o: &mut JsonObject<'_>, cell: &CellResult) {
    o.field("rate", cell.rate)
        .field("scrub", cell.scrub)
        .field("answered", cell.answered)
        .field("oracle_mismatches", cell.oracle_mismatches)
        .field("warm_start_chunks", cell.warm_start_chunks)
        .field("warm_restart_hit_ratio", cell.warm_restart_hit_ratio)
        .field("corrupt", cell.corrupt)
        .field("quarantined", cell.quarantined)
        .field("retries", cell.retries)
        .field("demote_failures", cell.demote_failures)
        .field("scrub_passes", cell.scrub_passes)
        .field("index_rebuilds", cell.index_rebuilds)
        .field("final_hit_ratio", cell.final_hit_ratio)
        .field("backend_virtual_ms", cell.backend_virtual_ms)
        .field("total_virtual_ms", cell.total_virtual_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::assert_golden;
    use std::sync::OnceLock;

    /// `fig_recovery --smoke`, run once per test pass; every test reads it.
    fn smoke() -> &'static RecoveryResults {
        static RUN: OnceLock<RecoveryResults> = OnceLock::new();
        RUN.get_or_init(|| (SWEEP.run)(Opts::smoke()))
    }

    /// The smoke cell at (fault rate, scrub).
    fn cell(rate: f64, scrub: bool) -> &'static CellResult {
        smoke()
            .cells
            .iter()
            .find(|c| (c.rate, c.scrub) == (rate, scrub))
            .expect("a swept cell")
    }

    #[test]
    fn golden() {
        assert_golden("recovery", &SWEEP, Opts::smoke(), smoke());
        assert!(!scratch_root("recovery").exists(), "scratch left behind");
    }

    #[test]
    fn faults_are_absorbed_not_surfaced() {
        let clean = cell(0.0, false);
        assert_eq!(clean.corrupt, 0);
        assert_eq!(clean.quarantined, 0);
        assert_eq!(clean.retries, 0);
        let faulty = cell(0.2, false);
        assert!(faulty.corrupt > 0, "rate 0.2 must corrupt something");
        assert_eq!(faulty.answered, Opts::smoke().queries as u64);
        assert!(
            faulty.backend_virtual_ms > clean.backend_virtual_ms,
            "healing re-fetches must cost backend time"
        );
    }

    #[test]
    fn warm_restart_beats_cold_restart() {
        let (cold, warm) = (&smoke().cold, cell(0.0, false));
        assert!(warm.warm_start_chunks > 0, "nothing recovered");
        assert_eq!(cold.warm_start_chunks, 0);
        assert_eq!(cold.answered, Opts::smoke().queries as u64);
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
    }

    #[test]
    fn scrubbing_runs_and_stays_correct() {
        assert!(cell(0.05, true).scrub_passes > 0, "scrub never fired");
        assert_eq!(cell(0.05, false).scrub_passes, 0);
    }
}
