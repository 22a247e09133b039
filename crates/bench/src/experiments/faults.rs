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
use crate::rig::{apb_dataset, backend_for, MB};
use crate::stream::{run_stream, StreamResult, StreamRun};
use crate::sweep::Sweep;
use crate::trace::Meta;
use aggcache_cache::PolicyKind;
use aggcache_core::Strategy;
use aggcache_gen::Dataset;
use aggcache_obs::Tracer;
use aggcache_store::{FaultInjectingBackend, FaultProfile, RetryPolicy, RetryingBackend};
use std::sync::Arc;

/// Fault-injection seed (also the retry jitter's).
const FAULT_SEED: u64 = 0xFA57;
/// Retry attempts per fetch (including the first).
const ATTEMPTS: u32 = 3;
/// ESMC lookup node budget. The sweep runs the budgeted ESMC strategy:
/// its lookup gives up on deep aggregation paths, so some computable
/// chunks are classified as misses — exactly the chunks the at-any-cost
/// degradation fallback can still rescue when the backend is down. (Under
/// exact VCM/VCMC a probe miss is provably uncomputable and degradation
/// can never add availability.)
const NODE_BUDGET: u64 = 128;

/// Workload seed (one stream, shared by every fault rate).
const WORKLOAD_SEED: u64 = 2000;

/// Options for the fault sweep.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Fact tuples.
    pub tuples: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Queries per run.
    pub queries: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tuples: 200_000,
            seed: 0xA9B1,
            queries: 100,
        }
    }
}

impl Opts {
    /// The cache budget in accounting bytes: the paper's smallest sweep
    /// budget (10 MB : 1.1 M tuples) scaled to `tuples` — small enough
    /// that a real share of queries needs the backend, which is what the
    /// fault sweep is about.
    pub(crate) fn cache_bytes(self) -> usize {
        (((10 * MB) as f64 * self.tuples as f64 / 1_100_000.0).max(64.0 * 1024.0)) as usize
    }

    /// `--tuples --seed --queries` over the defaults.
    fn from_args(a: &Args) -> Self {
        let d = Self::default();
        Self {
            tuples: a.get("tuples", d.tuples),
            seed: a.get("seed", d.seed),
            queries: a.get("queries", d.queries),
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
            ("workload_seed", Box::new(WORKLOAD_SEED)),
            ("fault_seed", Box::new(FAULT_SEED)),
            ("fault_rate", Box::new(TRACE_RATE)),
            ("attempts", Box::new(ATTEMPTS)),
            ("cache_bytes", Box::new(opts.cache_bytes())),
            ("node_budget", Box::new(NODE_BUDGET)),
            ("strategy", Box::new("esmc")),
            ("policy", Box::new("two_level")),
            ("answered", Box::new(run.answered)),
            ("degraded_queries", Box::new(run.degraded_queries)),
            ("failed", Box::new(run.failed)),
        ]
    }),
};

/// The fault rates swept (probability per fetch of *any* injected fault).
pub(crate) const FAULT_RATES: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8];

/// Replays the paper stream over a faulty, retrying backend at the given
/// fault rate. Deterministic for fixed opts and rate; an attached tracer
/// changes no output.
pub(crate) fn run_stream_faulty(
    dataset: &Dataset,
    opts: Opts,
    rate: f64,
    tracer: Option<Arc<dyn Tracer>>,
) -> StreamResult {
    let faulty = FaultInjectingBackend::new(
        backend_for(dataset),
        FaultProfile::uniform(rate, FAULT_SEED),
    )
    .expect("sweep rates are valid");
    let retrying = RetryingBackend::new(
        faulty,
        RetryPolicy {
            max_attempts: ATTEMPTS,
            seed: FAULT_SEED,
        },
    )
    .expect("retry policy is valid");
    let strategy = Strategy::Esmc {
        node_budget: Some(NODE_BUDGET),
    };
    let run = StreamRun {
        queries: opts.queries,
        seed: WORKLOAD_SEED,
        ..StreamRun::paper(strategy, PolicyKind::TwoLevel, opts.cache_bytes())
    };
    run_stream(dataset, retrying, run, tracer)
}

/// Results of the full sweep.
pub struct FaultResults {
    /// One stream result per entry of [`FAULT_RATES`].
    pub(crate) runs: Vec<StreamResult>,
}

/// Runs the sweep over `FAULT_RATES`.
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
        let queries = run.answered + run.failed;
        let pct = |n: u64| f2(100.0 * n as f64 / queries.max(1) as f64);
        let from_cache = (run.complete_hits + run.degraded_queries) as f64;
        table.row(vec![
            f2(rate),
            f2(100.0 * mean(run.answered as f64, queries)),
            f2(100.0 * mean(from_cache, queries)),
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
         queries the cache cannot reconstruct fail. The sweep runs budgeted\n\
         ESMC because under exact VCM/VCMC a probe miss is provably\n\
         uncomputable, so degradation adds answers only under budgeted\n\
         ESMC or NoAggregation.\n",
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
            ..Opts::default()
        }
    }

    /// `fig_faults --tuples 8000 --queries 40` prints
    /// `tests/golden/fig_faults_smoke.txt`, byte for byte.
    #[test]
    fn golden() {
        let opts = Opts {
            tuples: 8_000,
            queries: 40,
            ..Opts::default()
        };
        let path = format!(
            "{}/tests/golden/fig_faults_smoke.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let stdout = format!("{}\n", render(&run_experiment(opts)));
        assert!(stdout == want, "fig_faults differs from {path}");
    }

    #[test]
    fn zero_rate_answers_everything() {
        let ds = apb_dataset(4_000, 3);
        let r = run_stream_faulty(&ds, small_opts(), 0.0, None);
        assert_eq!(r.answered, small_opts().queries as u64);
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
        assert_eq!(r.answered + r.failed, small_opts().queries as u64);
        // The bookkeeping never counts a query twice.
        assert!(r.complete_hits + r.degraded_queries <= r.answered);
    }
}
