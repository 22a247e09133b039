//! **Recovery sweep** (`fig_recovery`, beyond the paper) — self-healing
//! storage under injected disk faults: corruption rate × scrub interval
//! vs. answered queries, quarantines and warm-restart recovery.
//!
//! Every cell runs the cold-start rig's two-session shape — warm up,
//! checkpoint, restart warm — but routes *all* spill I/O through the
//! seeded [`DiskFaultProfile`]: bit flips on reads, torn writes, and
//! transient read errors retried under the validated `RetryPolicy`. The
//! invariant being measured is the tentpole's contract: **answers are
//! never corrupted**. Every measurement answer is compared against a
//! brute-force backend oracle and the mismatch count is reported (it must
//! be zero at every fault rate); damaged records are quarantined and
//! re-served through the normal miss path instead.
//!
//! All reported numbers are virtual-time (retries, backoff and scrub
//! passes are charged through `SpillMetrics`, never wall-clock), so two
//! runs — at any thread count — produce bit-identical documents. Spill
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
    /// Workload seed (one stream; the measurement segment continues it).
    pub workload_seed: u64,
    /// Cache budget in accounting bytes — tight, so demotions and
    /// promotions keep the faulty disk on the hot path.
    pub cache_bytes: usize,
    /// Disk-fault profile seed (each cell offsets it for independence).
    pub fault_seed: u64,
    /// Virtual milliseconds of query time between scrub passes, for the
    /// scrub-enabled half of the sweep.
    pub scrub_interval_ms: f64,
    /// Worker threads (wall-clock only; virtual outputs are identical).
    pub threads: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 60_000,
            seed: 0x5C2B,
            warmup: 400,
            queries: 400,
            workload_seed: 9_000,
            cache_bytes: 24 * 1024,
            fault_seed: 0xFA11,
            scrub_interval_ms: 500.0,
            threads: 1,
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
/// exits non-zero if any cell reports an oracle mismatch. `--trace-out`
/// traces the cell that exercises this sweep's events: a faulty warm
/// restart with scrubbing on, so `spill_corrupt`, `spill_quarantine` and
/// `scrub_pass` appear.
pub const SWEEP: Sweep<Opts, RecoveryResults> = Sweep {
    opts: smoke_opts!(Opts),
    run: |opts| run_experiment(opts, "bin"),
    render,
    check: Some(
        |r| match r.cells.iter().map(|c| c.oracle_mismatches).sum::<u64>() {
            0 => Ok(()),
            n => Err(format!(
                "self-healing contract violated: {n} answer(s) diverged from the oracle"
            )),
        },
    ),
    exports: Some((to_json, to_csv, |r| r.cells.len())),
    traced: Some(|opts, tracer| -> Meta {
        let dataset = apb_dataset(opts.tuples, opts.seed);
        let root = scratch_root("recovery", "trace");
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("traced");
        let cell = run_cell_traced(&dataset, opts, 0.2, true, &dir, Some(tracer));
        let _ = std::fs::remove_dir_all(&root);
        vec![
            ("experiment", Box::new("fig_recovery")),
            ("tuples", Box::new(opts.tuples)),
            ("seed", Box::new(opts.seed)),
            ("warmup", Box::new(opts.warmup)),
            ("queries", Box::new(opts.queries)),
            ("workload_seed", Box::new(opts.workload_seed)),
            ("cache_bytes", Box::new(opts.cache_bytes)),
            ("fault_rate", Box::new(0.2)),
            ("strategy", Box::new("vcmc")),
            ("policy", Box::new("two_level")),
            ("threads", Box::new(opts.threads)),
            ("corrupt", Box::new(cell.corrupt)),
            ("quarantined", Box::new(cell.quarantined)),
            ("scrub_passes", Box::new(cell.scrub_passes)),
        ]
    }),
};

/// Disk-fault rates swept (bit-flip and torn-write rate; transient-read
/// rate is half of each, per [`DiskFaultProfile::uniform`]).
pub const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// Outcome of one (fault rate, scrub) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Injected fault rate.
    pub rate: f64,
    /// Whether the virtual-time scrub pass was enabled.
    pub scrub: bool,
    /// Measurement queries answered (all of them — corruption is
    /// absorbed, never surfaced).
    pub answered: u64,
    /// Measurement answers that differed from the brute-force backend
    /// oracle. The self-healing contract makes this zero at every rate.
    pub oracle_mismatches: u64,
    /// Chunks the warm restart re-admitted from the (faulty) checkpoint.
    pub warm_start_chunks: u64,
    /// Fraction of checkpointed records the warm restart recovered.
    pub warm_restart_hit_ratio: f64,
    /// Corrupt records detected across both sessions.
    pub corrupt: u64,
    /// Records quarantined across both sessions.
    pub quarantined: u64,
    /// Transient-read retries spent under the retry policy.
    pub retries: u64,
    /// Demotions that failed and degraded to plain evictions.
    pub demote_failures: u64,
    /// Scrub passes completed (0 with scrubbing off).
    pub scrub_passes: u64,
    /// Index scavenges performed at either open.
    pub index_rebuilds: u64,
    /// Complete-hit ratio over the measurement segment.
    pub final_hit_ratio: f64,
    /// Virtual backend milliseconds over the measurement segment — the
    /// cost of re-fetching what corruption destroyed.
    pub backend_virtual_ms: f64,
    /// Total virtual milliseconds over the measurement segment, spill
    /// traffic (retries and scrubbing included) counted.
    pub total_virtual_ms: f64,
}

/// Runs one (rate, scrub) cell. Deterministic for fixed opts: the
/// workload and fault profile are seeded and every reported number is
/// virtual-time. `dir` is this cell's private spill directory (removed by
/// the caller).
pub fn run_cell(dataset: &Dataset, opts: Opts, rate: f64, scrub: bool, dir: &Path) -> CellResult {
    run_cell_traced(dataset, opts, rate, scrub, dir, None)
}

/// [`run_cell`] with an optional tracer attached to the *restarted*
/// session — the one that emits `spill_corrupt`, `spill_quarantine`,
/// `index_rebuild` and `scrub_pass` while recovering and measuring. The
/// warm-up session stays untraced so the trace covers one configuration.
pub fn run_cell_traced(
    dataset: &Dataset,
    opts: Opts,
    rate: f64,
    scrub: bool,
    dir: &Path,
    tracer: Option<Arc<dyn Tracer>>,
) -> CellResult {
    let mut stream = paper_stream(dataset, opts.workload_seed);
    let warmup = QueryRequest::batch(&stream.take_queries(opts.warmup));
    let measure = QueryRequest::batch(&stream.take_queries(opts.queries));
    let build = |fault_seed: u64, tracer| {
        let mut spill = SpillConfig::new(dir).fault(DiskFaultProfile::uniform(rate, fault_seed));
        if scrub {
            spill = spill.scrub_interval_ms(opts.scrub_interval_ms);
        }
        let (strategy, policy) = (Strategy::Vcmc, PolicyKind::TwoLevel);
        builder_for(strategy, policy, opts.cache_bytes, opts.threads, tracer)
            .spill(spill)
            .build(backend_for(dataset))
            .expect("sweep configuration is valid")
    };

    // Session 1: warm up *under faults* (torn demotions land on disk as
    // damage the restart must absorb) and checkpoint.
    let checkpointed = {
        let mut first = build(opts.fault_seed, None);
        first
            .run_batch(&warmup)
            .expect("simulated backend cannot fail");
        let report = first.checkpoint().expect("checkpoint index persists");
        report.chunks
    };

    // Session 2: restart over the damaged directory, still under faults
    // (fresh fault stream), and measure.
    let mut mgr = build(opts.fault_seed ^ 0x9E37, tracer);
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
    /// The swept cells, in (rate, scrub off/on) order.
    pub cells: Vec<CellResult>,
}

/// Runs the sweep over [`FAULT_RATES`] × {scrub off, scrub on}. `tag`
/// isolates concurrent sweeps' scratch directories (tests); the
/// experiment binaries pass a constant.
pub fn run_experiment(opts: Opts, tag: &str) -> RecoveryResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let root = scratch_root("recovery", tag);
    let _ = std::fs::remove_dir_all(&root);
    let mut cells = Vec::new();
    for (i, &rate) in FAULT_RATES.iter().enumerate() {
        for scrub in [false, true] {
            let dir = root.join(format!("cell-{i}-{}", u8::from(scrub)));
            cells.push(run_cell(&dataset, opts, rate, scrub, &dir));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    RecoveryResults { cells }
}

/// Renders the sweep as a table: one row per cell.
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
    for cell in &r.cells {
        table.row(vec![
            f2(cell.rate),
            if cell.scrub { "on" } else { "off" }.to_string(),
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
         ahead of demand instead of at promotion time.\n",
    );
    out
}

/// Serializes the sweep as one JSON document. Virtual-time numbers only —
/// no paths, no wall-clock — so the document is bit-identical across runs
/// and thread counts.
pub fn to_json(opts: Opts, r: &RecoveryResults) -> String {
    let mut out = String::with_capacity(1 << 13);
    JsonObject::open(&mut out)
        .field("experiment", "fig_recovery")
        .field("tuples", opts.tuples)
        .field("warmup", opts.warmup)
        .field("queries", opts.queries)
        .field("scrub_interval_ms", opts.scrub_interval_ms)
        .array("cells", &r.cells, |o, cell| {
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
        })
        .close();
    out
}

/// Serializes the sweep as CSV: one row per cell.
pub fn to_csv(r: &RecoveryResults) -> String {
    let mut out = String::from(
        "rate,scrub,answered,oracle_mismatches,warm_start_chunks,corrupt,\
         quarantined,retries,scrub_passes,final_hit_ratio,backend_virtual_ms\n",
    );
    for cell in &r.cells {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            cell.rate,
            u8::from(cell.scrub),
            cell.answered,
            cell.oracle_mismatches,
            cell.warm_start_chunks,
            cell.corrupt,
            cell.quarantined,
            cell.retries,
            cell.scrub_passes,
            cell.final_hit_ratio,
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
            warmup: 60,
            queries: 60,
            cache_bytes: 8 * 1024,
            ..Opts::default()
        }
    }

    fn cell(tag: &str, opts: Opts, rate: f64, scrub: bool) -> CellResult {
        let ds = apb_dataset(opts.tuples, opts.seed);
        let root = scratch_root("recovery", tag);
        let _ = std::fs::remove_dir_all(&root);
        let out = run_cell(&ds, opts, rate, scrub, &root.join("cell"));
        let _ = std::fs::remove_dir_all(&root);
        out
    }

    #[test]
    fn answers_match_the_oracle_at_every_rate() {
        for (i, &rate) in FAULT_RATES.iter().enumerate() {
            let c = cell(&format!("oracle-{i}"), small_opts(), rate, true);
            assert_eq!(
                c.oracle_mismatches, 0,
                "rate {rate}: corrupted answers escaped"
            );
            assert_eq!(c.answered, 60, "rate {rate}: queries went unanswered");
        }
    }

    #[test]
    fn faults_are_absorbed_not_surfaced() {
        let clean = cell("absorb-clean", small_opts(), 0.0, false);
        assert_eq!(clean.corrupt, 0);
        assert_eq!(clean.quarantined, 0);
        assert_eq!(clean.retries, 0);
        let faulty = cell("absorb-faulty", small_opts(), 0.2, false);
        assert!(faulty.corrupt > 0, "rate 0.2 must corrupt something");
        assert_eq!(faulty.oracle_mismatches, 0);
        assert!(
            faulty.backend_virtual_ms > clean.backend_virtual_ms,
            "healing re-fetches must cost backend time"
        );
    }

    #[test]
    fn scrubbing_runs_and_stays_correct() {
        let c = cell("scrub", small_opts(), 0.05, true);
        assert!(c.scrub_passes > 0, "scrub never fired");
        assert_eq!(c.oracle_mismatches, 0);
        let off = cell("scrub-off", small_opts(), 0.05, false);
        assert_eq!(off.scrub_passes, 0);
    }

    #[test]
    fn cells_are_deterministic_and_thread_invariant() {
        let a = cell("det-a", small_opts(), 0.2, true);
        let b = cell("det-b", small_opts(), 0.2, true);
        let threaded = Opts {
            threads: 4,
            ..small_opts()
        };
        let c = cell("det-c", threaded, 0.2, true);
        for other in [&b, &c] {
            assert_eq!(a.corrupt, other.corrupt);
            assert_eq!(a.quarantined, other.quarantined);
            assert_eq!(a.retries, other.retries);
            assert_eq!(a.scrub_passes, other.scrub_passes);
            assert_eq!(a.warm_start_chunks, other.warm_start_chunks);
            assert_eq!(a.final_hit_ratio.to_bits(), other.final_hit_ratio.to_bits());
            assert_eq!(
                a.total_virtual_ms.to_bits(),
                other.total_virtual_ms.to_bits()
            );
        }
    }

    #[test]
    fn exports_are_identical_across_runs_and_path_free() {
        let opts = small_opts();
        let a = run_experiment(opts, "exports-a");
        let b = run_experiment(opts, "exports-b");
        let (ja, jb) = (to_json(opts, &a), to_json(opts, &b));
        assert_eq!(ja, jb);
        assert_eq!(to_csv(&a), to_csv(&b));
        assert!(ja.contains("\"experiment\":\"fig_recovery\""));
        let tmp = std::env::temp_dir().display().to_string();
        assert!(!ja.contains(&tmp));
        assert!(!to_csv(&a).contains(&tmp));
        assert!(!scratch_root("recovery", "exports-a").exists());
        assert!(!scratch_root("recovery", "exports-b").exists());
    }
}
