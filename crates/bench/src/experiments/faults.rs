//! **Fault sweep** (`fig_faults`, beyond the paper) — availability of the
//! active cache under backend outages.
//!
//! The paper's backend never fails; this experiment injects seeded faults
//! (transient errors, timeouts, latency spikes) at increasing rates behind
//! a retrying decorator, and measures what fraction of queries the middle
//! tier still answers — from the backend, or *degraded* from cached data
//! after retries are exhausted.
//!
//! Expected shape: at fault rate 0 every output is bit-identical to the
//! undecorated backend; as the rate rises, backend-assisted answers are
//! progressively replaced by degraded cache serves, and only queries the
//! cache cannot reconstruct at all fail.

use crate::args::Args;
use crate::report::{f2, mean, Table};
use crate::rig::{apb_dataset, backend_for, builder_for, paper_stream, MB};
use crate::sweep::Sweep;
use crate::trace::Meta;
use aggcache_cache::PolicyKind;
use aggcache_core::{CacheError, Strategy};
use aggcache_gen::Dataset;
use aggcache_obs::Tracer;
use aggcache_store::{FaultInjectingBackend, FaultProfile, RetryPolicy, RetryingBackend};
use std::sync::Arc;

/// Options for the fault sweep.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Queries per run.
    pub queries: usize,
    /// Workload seed (one stream, shared by every fault rate).
    pub workload_seed: u64,
    /// Fault-injection seed.
    pub fault_seed: u64,
    /// Retry attempts per fetch (including the first).
    pub attempts: u32,
    /// Cache budget in accounting bytes.
    pub cache_bytes: usize,
    /// ESMC lookup node budget. The sweep runs the budgeted ESMC strategy:
    /// its lookup gives up on deep aggregation paths, so some computable
    /// chunks are classified as misses — exactly the chunks the
    /// at-any-cost degradation fallback can still rescue when the backend
    /// is down. (Under exact VCM/VCMC a probe miss is provably
    /// uncomputable and degradation can never add availability.)
    pub node_budget: u64,
    /// Worker threads (wall-clock only).
    pub threads: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 200_000,
            seed: 0xA9B1,
            queries: 100,
            workload_seed: 2000,
            fault_seed: 0xFA57,
            attempts: 3,
            // The paper's smallest sweep budget (10 MB : 1.1 M tuples),
            // scaled to the default dataset — small enough that a real
            // share of queries needs the backend, which is what the fault
            // sweep is about. See [`Opts::scaled_cache_bytes`].
            cache_bytes: Opts::scaled_cache_bytes(200_000),
            node_budget: 128,
            threads: 1,
        }
    }
}

impl Opts {
    /// The 10 MB-per-1.1 M-tuple cache budget scaled to `tuples`.
    pub fn scaled_cache_bytes(tuples: u64) -> usize {
        (((10 * MB) as f64 * tuples as f64 / 1_100_000.0).max(64.0 * 1024.0)) as usize
    }

    /// `--tuples --seed --queries --fault-seed --attempts --node-budget
    /// --threads` over the defaults; the cache budget follows `--tuples`.
    fn from_args(a: &Args) -> Self {
        let d = Self::default();
        let tuples = a.get("tuples", d.tuples);
        Self {
            tuples,
            seed: a.get("seed", d.seed),
            queries: a.get("queries", d.queries),
            fault_seed: a.get("fault-seed", d.fault_seed),
            attempts: a.get("attempts", d.attempts),
            cache_bytes: Self::scaled_cache_bytes(tuples),
            node_budget: a.get("node-budget", d.node_budget),
            threads: a.threads(),
            ..d
        }
    }
}

/// The fault rate of the traced stream — high enough that retries,
/// failures and degraded serves all appear in the trace.
const TRACE_RATE: f64 = 0.8;

/// `fig_faults`, as [`crate::sweep::sweep_main`] runs it. `--trace-out`
/// traces a *faulty* stream (rate `TRACE_RATE`) so the trace exercises
/// the fault events (`fetch_retry`, `fetch_timeout`, `fetch_failed`,
/// `degraded_serve`).
pub const SWEEP: Sweep<Opts, FaultResults> = Sweep {
    opts: Opts::from_args,
    run: run_experiment,
    render,
    check: None,
    exports: None,
    traced: Some(|opts, tracer| -> Meta {
        let dataset = apb_dataset(opts.tuples, opts.seed);
        let run = run_stream_faulty(&dataset, opts, TRACE_RATE, Some(tracer));
        vec![
            ("experiment", Box::new("fig_faults")),
            ("tuples", Box::new(opts.tuples)),
            ("seed", Box::new(opts.seed)),
            ("queries", Box::new(opts.queries)),
            ("workload_seed", Box::new(opts.workload_seed)),
            ("fault_seed", Box::new(opts.fault_seed)),
            ("fault_rate", Box::new(TRACE_RATE)),
            ("attempts", Box::new(opts.attempts)),
            ("cache_bytes", Box::new(opts.cache_bytes)),
            ("node_budget", Box::new(opts.node_budget)),
            ("strategy", Box::new("esmc")),
            ("policy", Box::new("two_level")),
            ("threads", Box::new(opts.threads)),
            ("answered", Box::new(run.answered)),
            ("degraded_queries", Box::new(run.degraded_queries)),
            ("failed", Box::new(run.failed)),
        ]
    }),
};

/// The fault rates swept (probability per fetch of *any* injected fault).
pub const FAULT_RATES: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8];

/// Outcome of one stream at one fault rate.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStreamResult {
    /// Queries issued.
    pub queries: u64,
    /// Queries answered (from any source).
    pub answered: u64,
    /// Queries answered entirely from the cache by the normal lookup path.
    pub complete_hits: u64,
    /// Queries whose misses were all served degraded (answered from cache
    /// despite a backend outage).
    pub degraded_queries: u64,
    /// Queries that failed with `BackendUnavailable`.
    pub failed: u64,
    /// Chunks served degraded across the stream.
    pub chunks_degraded: u64,
    /// Mean end-to-end virtual ms over answered queries.
    pub avg_ms: f64,
}

impl FaultStreamResult {
    /// Fraction of *all* queries answered from the cache: complete hits
    /// plus fully-degraded serves.
    pub fn from_cache_fraction(&self) -> f64 {
        mean(
            (self.complete_hits + self.degraded_queries) as f64,
            self.queries,
        )
    }

    /// Fraction of all queries answered at all.
    pub fn answered_fraction(&self) -> f64 {
        mean(self.answered as f64, self.queries)
    }
}

/// Runs one query stream against a faulty, retrying backend at the given
/// fault rate. Deterministic for fixed opts and rate; an attached tracer
/// changes no output.
pub fn run_stream_faulty(
    dataset: &Dataset,
    opts: Opts,
    rate: f64,
    tracer: Option<Arc<dyn Tracer>>,
) -> FaultStreamResult {
    let faulty = FaultInjectingBackend::new(
        backend_for(dataset),
        FaultProfile::uniform(rate, opts.fault_seed),
    )
    .expect("sweep rates are valid");
    let retrying = RetryingBackend::new(
        faulty,
        RetryPolicy {
            max_attempts: opts.attempts,
            seed: opts.fault_seed,
        },
    )
    .expect("retry policy is valid");
    let strategy = Strategy::Esmc {
        node_budget: Some(opts.node_budget.max(1)),
    };
    let policy = PolicyKind::TwoLevel;
    let mut mgr = builder_for(strategy, policy, opts.cache_bytes, opts.threads, tracer)
        .build(retrying)
        .expect("fault-sweep configuration is valid");
    // Pre-load as in the paper's runs; under heavy faults even the
    // pre-load fetch can fail, which simply leaves the cache cold.
    let _ = mgr.preload_best();

    let mut stream = paper_stream(dataset, opts.workload_seed);

    let mut r = FaultStreamResult {
        queries: opts.queries as u64,
        ..FaultStreamResult::default()
    };
    let mut total_ms = 0.0f64;
    for _ in 0..opts.queries {
        let (query, _) = stream.next_with_kind();
        match mgr.run(&(&query).into()) {
            Ok(result) => {
                let m = result.metrics;
                r.answered += 1;
                total_ms += m.total_ms();
                if m.complete_hit {
                    r.complete_hits += 1;
                } else if m.chunks_degraded == m.chunks_missed && m.chunks_missed > 0 {
                    r.degraded_queries += 1;
                }
                r.chunks_degraded += m.chunks_degraded as u64;
            }
            Err(CacheError::BackendUnavailable { .. }) => r.failed += 1,
            Err(e) => panic!("unexpected error in fault sweep: {e}"),
        }
    }
    r.avg_ms = mean(total_ms, r.answered);
    r
}

/// Results of the full sweep.
pub struct FaultResults {
    /// One stream result per entry of [`FAULT_RATES`].
    pub runs: Vec<FaultStreamResult>,
}

/// Runs the sweep over [`FAULT_RATES`].
pub fn run_experiment(opts: Opts) -> FaultResults {
    let dataset = apb_dataset(opts.tuples, opts.seed);
    let runs = FAULT_RATES
        .iter()
        .map(|&rate| run_stream_faulty(&dataset, opts, rate, None))
        .collect();
    FaultResults { runs }
}

/// Renders the sweep as a table: fault rate vs. how queries were answered.
pub fn render(r: &FaultResults) -> String {
    let mut out =
        String::from("Fault sweep: backend fault rate vs. availability of the active cache\n\n");
    let mut table = Table::new(&[
        "fault rate",
        "answered %",
        "from-cache %",
        "hits %",
        "degraded %",
        "failed %",
        "degr chunks",
        "avg ms",
    ]);
    for (&rate, run) in FAULT_RATES.iter().zip(&r.runs) {
        let pct = |n: u64| f2(100.0 * n as f64 / run.queries.max(1) as f64);
        table.row(vec![
            f2(rate),
            f2(100.0 * run.answered_fraction()),
            f2(100.0 * run.from_cache_fraction()),
            pct(run.complete_hits),
            pct(run.degraded_queries),
            pct(run.failed),
            run.chunks_degraded.to_string(),
            f2(run.avg_ms),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nShape: rate 0 matches the undecorated backend bit-for-bit; as the\n\
         rate rises, degraded cache serves replace backend fetches and only\n\
         queries the cache cannot reconstruct fail.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> Opts {
        Opts {
            tuples: 4_000,
            queries: 20,
            cache_bytes: MB,
            ..Opts::default()
        }
    }

    #[test]
    fn zero_rate_answers_everything() {
        let ds = apb_dataset(4_000, 3);
        let r = run_stream_faulty(&ds, small_opts(), 0.0, None);
        assert_eq!(r.answered, r.queries);
        assert_eq!(r.failed, 0);
        assert_eq!(r.chunks_degraded, 0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let ds = apb_dataset(4_000, 3);
        let a = run_stream_faulty(&ds, small_opts(), 0.4, None);
        let b = run_stream_faulty(&ds, small_opts(), 0.4, None);
        assert_eq!(a.answered, b.answered);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.chunks_degraded, b.chunks_degraded);
        assert_eq!(a.avg_ms.to_bits(), b.avg_ms.to_bits());
    }

    #[test]
    fn heavy_faults_degrade_but_everything_answered_accounts() {
        let ds = apb_dataset(4_000, 3);
        let r = run_stream_faulty(&ds, small_opts(), 0.8, None);
        assert_eq!(r.answered + r.failed, r.queries);
        // The bookkeeping never counts a query twice.
        assert!(r.complete_hits + r.degraded_queries <= r.answered);
    }
}
