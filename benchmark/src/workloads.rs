//! The six end-to-end workloads.
//!
//! Load model: a closed loop with one client and one request in flight —
//! callers of `CacheManager::run` wait for the reply. Every workload runs
//! VCMC over the APB-1 dataset with the two-level replacement policy and
//! the paper's query mix; they differ in what the cache can hold and in
//! what happens beside the reads, so that each stresses other layers.

use crate::inputs::{self, backend_for, Requests};
use crate::oracle::Oracle;
use crate::scratch::ScratchDir;
use crate::span::{Span, Spans, NO_REQUEST};
use crate::stats::{percentile, TooFewSamples};
use crate::timed::TimedBackend;
use aggcache_cache::PolicyKind;
use aggcache_chunks::ChunkData;
use aggcache_cluster::ClusterManager;
use aggcache_core::{
    CacheManager, DeltaBatch, ExecOutcome, Query, QueryMetrics, QueryRequest, RemoteMetrics,
    SpillMetrics, Strategy, UpdateMetrics,
};
use aggcache_gen::Dataset;
use aggcache_obs::{MetricsRegistry, Tracer};
use aggcache_store::SpillConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The `run_seconds` of `BENCHMARK.json`: query counts below are frozen
/// at what the reference box (2 cores) measures in about this long.
pub const RUN_SECONDS: u64 = 8;

/// Span names, one per layer boundary the harness can see.
pub mod span_name {
    /// The whole measured phase.
    pub const MEASURE: &str = "measure";
    /// One request on a single manager.
    pub const QUERY: &str = "query";
    /// `CacheManager::probe_as`.
    pub const PROBE: &str = "probe_as";
    /// `CacheManager::apply`.
    pub const APPLY: &str = "apply";
    /// `CacheManager::ingest`.
    pub const INGEST: &str = "ingest";
    /// `CacheManager::checkpoint`.
    pub const CHECKPOINT: &str = "checkpoint";
    /// Dropping a manager and building its successor on the same spill
    /// directory.
    pub const WARM_START: &str = "warm_start";
    /// `ClusterManager::run`.
    pub const CLUSTER_RUN: &str = "cluster_run";
    /// `ClusterManager::kill_node` / `revive_node`.
    pub const MEMBERSHIP: &str = "membership";
    /// `ClusterManager::rebalance`.
    pub const REBALANCE: &str = "rebalance";
    /// An oracle check or shadow update: the clock is paused across it.
    pub const ORACLE: &str = "oracle";
}
use span_name::*;

/// What runs beside the reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reads only, one manager.
    Stream,
    /// One delta batch ingested after every [`READS_PER_BATCH`] reads.
    UpdateMix,
    /// Spill tier attached; checkpoint, drop and warm-start halfway.
    SpillRestart,
    /// A [`CLUSTER_NODES`]-node cluster with a node lost and regained.
    Cluster,
}

/// Reads between two delta batches of `update_mix`.
pub const READS_PER_BATCH: usize = 25;
/// Records per delta batch of `update_mix`.
pub const RECORDS_PER_BATCH: usize = 5;
/// Nodes of `cluster4`.
pub const CLUSTER_NODES: usize = 4;
/// The node `cluster4` kills at one third and revives at two thirds.
pub const CHURN_NODE: u32 = 2;

/// One workload: what it runs and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen (one line, ≤ 200 characters).
    pub why: &'static str,
    /// What runs beside the reads.
    pub kind: Kind,
    /// Cache budget in MB at full size (per node for a cluster).
    pub cache_mb: usize,
    /// Pre-load the two-level policy's best group-by.
    pub preload: bool,
    /// `ManagerConfig::threads`.
    pub threads: usize,
    /// Warm-up queries, run during set-up.
    pub warmup: usize,
    /// Measured read queries at [`RUN_SECONDS`].
    pub queries: usize,
    /// Fewest measured queries the reported percentiles allow: 1,000 for a
    /// p99 with ten samples beyond it; `update_mix` needs 50 ingests for
    /// its p80, so 50 read batches.
    pub min_queries: usize,
}

/// The workloads, in the order they run.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "paper_fit",
        why: "25 MB cache holds the whole base level: every query is a complete hit computed in cache, so store::aggregate is ~90 % of wall and the backend is idle. The roll-up kernel's workload.",
        kind: Kind::Stream,
        cache_mb: 25,
        preload: true,
        threads: 1,
        warmup: 500,
        queries: 10_000,
        min_queries: 1_000,
    },
    Spec {
        name: "paper_mid",
        why: "15 MB cache, the paper's Fig. 8/9 point (~80 % complete hits): the backend scan of the misses is ~85 % of wall. Bypasses the roll-up kernel; exercises miss path, admission and eviction.",
        kind: Kind::Stream,
        cache_mb: 15,
        preload: true,
        threads: 1,
        warmup: 500,
        queries: 8_000,
        min_queries: 1_000,
    },
    Spec {
        name: "fit_t2",
        why: "paper_fit with threads(2): isolates core::executor's two-phase parallel exchange on 2 real cores. hit_ratio and virtual_ms_per_query must equal paper_fit's exactly.",
        kind: Kind::Stream,
        cache_mb: 25,
        preload: true,
        threads: 2,
        warmup: 500,
        queries: 10_000,
        min_queries: 1_000,
    },
    Spec {
        name: "update_mix",
        why: "Writes beside reads: a 5-record delta batch after every 25 reads of a 15 MB cache. ingest is ~65 % of wall; an ingest that invalidates more shows as lower hit_ratio and higher p99_us.",
        kind: Kind::UpdateMix,
        cache_mb: 15,
        preload: true,
        threads: 1,
        warmup: 500,
        queries: 1_250,
        min_queries: 1_250,
    },
    Spec {
        name: "spill_restart",
        why: "Data far larger than the 5 MB RAM tier, spill tier attached, checkpoint and warm restart halfway: the only workload where count/cost-table churn and store::spill dominate.",
        kind: Kind::SpillRestart,
        cache_mb: 5,
        preload: false,
        threads: 1,
        warmup: 0,
        queries: 8_000,
        min_queries: 1_000,
    },
    Spec {
        name: "cluster4",
        why: "4 nodes x 5 MB, replication 2, cooperative; a node killed at 1/3 and revived plus rebalance at 2/3: ring routing, per-node grouping, peer fill and rebalance on the wall clock.",
        kind: Kind::Cluster,
        cache_mb: 5,
        preload: false,
        threads: 1,
        warmup: 0,
        queries: 5_000,
        min_queries: 1_000,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// How one run is sized and where it may write.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Fact tuples of the dataset.
    pub tuples: u64,
    /// Measured read queries.
    pub queries: usize,
    /// Warm-up queries.
    pub warmup: usize,
    /// Seed of the request order and of the delta generator.
    pub seed: u64,
    /// Directory under which spill directories are created.
    pub scratch_base: PathBuf,
    /// Test hook: make the oracle report one mismatch.
    pub inject_mismatch: bool,
}

impl RunConfig {
    /// Sizes a run of `spec`. At full size it lasts about `seconds` on the
    /// reference box; `--smoke` runs the fewest queries the reported
    /// percentiles allow over a 20,000-tuple dataset. `share` scales the
    /// query count: the traced mode runs every workload twice, at half the
    /// length each.
    pub fn new(spec: &Spec, smoke: bool, seconds: u64, share: f64, seed: u64, base: &Path) -> Self {
        let floor = spec.min_queries as f64 * share;
        let scaled = if smoke {
            floor
        } else {
            (spec.queries as f64 * seconds as f64 / RUN_SECONDS as f64 * share).max(floor)
        };
        Self {
            tuples: inputs::tuples(smoke),
            // Whole read batches.
            queries: scaled as usize / READS_PER_BATCH * READS_PER_BATCH,
            warmup: if smoke {
                spec.warmup.min(100)
            } else {
                spec.warmup
            },
            seed,
            scratch_base: base.to_path_buf(),
            inject_mismatch: false,
        }
    }
}

/// Sums of the per-query [`QueryMetrics`] the program reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sums {
    /// Queries answered entirely from the cache.
    pub complete_hits: u64,
    /// Σ `QueryMetrics::total_ms()`, in stream order.
    pub total_ms: f64,
    /// Σ backend virtual ms.
    pub backend_virtual_ms: f64,
    /// Σ aggregation virtual ms.
    pub agg_virtual_ms: f64,
    /// Σ lookup virtual ms.
    pub lookup_virtual_ms: f64,
    /// Σ table-maintenance virtual ms.
    pub update_virtual_ms: f64,
    /// Σ wall ns of lookup, as reported.
    pub lookup_ns: u64,
    /// Σ wall ns of aggregation, as reported.
    pub agg_ns: u64,
    /// Σ wall ns of table maintenance, as reported.
    pub update_ns: u64,
    /// Σ lattice nodes visited by lookup.
    pub lookup_nodes: u64,
    /// Σ count/cost table cells written.
    pub table_writes: u64,
    /// Σ tuples aggregated in cache.
    pub tuples_aggregated: u64,
    /// Σ base tuples scanned at the backend.
    pub backend_tuples: u64,
    /// Σ chunks answered directly.
    pub chunks_hit: u64,
    /// Σ chunks computed by aggregation.
    pub chunks_computed: u64,
    /// Σ chunks sent to the backend.
    pub chunks_missed: u64,
}

impl Sums {
    fn add(&mut self, m: &QueryMetrics) {
        self.complete_hits += u64::from(m.complete_hit);
        self.total_ms += m.total_ms();
        self.backend_virtual_ms += m.backend_virtual_ms;
        self.agg_virtual_ms += m.agg_virtual_ms;
        self.lookup_virtual_ms += m.lookup_virtual_ms;
        self.update_virtual_ms += m.update_virtual_ms;
        self.lookup_ns += m.lookup_ns;
        self.agg_ns += m.agg_ns;
        self.update_ns += m.update_ns;
        self.lookup_nodes += m.lookup_nodes;
        self.table_writes += m.table_writes;
        self.tuples_aggregated += m.tuples_aggregated;
        self.backend_tuples += m.backend_tuples;
        self.chunks_hit += m.chunks_hit as u64;
        self.chunks_computed += m.chunks_computed as u64;
        self.chunks_missed += m.chunks_missed as u64;
    }
}

/// Everything one measured phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall ns of the measured phase, oracle time taken off.
    pub wall_ns: u64,
    /// Per-request latency in ns, ascending.
    pub latencies: Vec<u64>,
    /// Sums of the program's per-query metrics.
    pub sums: Sums,
    /// Requests and ingests that returned `Err`.
    pub errors: u64,
    /// Answers the oracle compared.
    pub oracle_checked: u64,
    /// Answers that differed from the oracle's.
    pub oracle_mismatches: u64,
    /// Wall ns the oracle took, which `wall_ns` leaves out.
    pub oracle_ns: u64,
    /// Per-batch `ingest` latency in ns, in batch order.
    pub ingest_ns: Vec<u64>,
    /// Delta records ingested.
    pub ingest_records: u64,
    /// Maintenance accounting across every ingest.
    pub updates: UpdateMetrics,
    /// Spill accounting across every manager of the run.
    pub spill: SpillMetrics,
    /// `SpillStore::bytes_on_disk()` at the end.
    pub disk_bytes: u64,
    /// Cluster message accounting.
    pub remote: RemoteMetrics,
    /// Chunks `rebalance` moved.
    pub rebalance_moved: u64,
    /// Admitted cache inserts (traced pass only).
    pub inserts: u64,
    /// Cache evictions of every tier (traced pass only).
    pub evictions: u64,
    /// The spans of the measured phase (traced pass only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Operations attempted: reads plus ingests.
    pub fn attempted(&self) -> u64 {
        self.latencies.len() as u64 + self.ingest_ns.len() as u64
    }

    /// Operations that failed: errors plus wrong answers.
    pub fn failed(&self) -> u64 {
        self.errors + self.oracle_mismatches
    }

    /// Measured read queries per second of wall.
    pub fn qps(&self) -> f64 {
        self.latencies.len() as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// A latency percentile in µs.
    pub fn latency_us(&self, p: f64) -> Result<f64, TooFewSamples> {
        Ok(percentile(&self.latencies, p)? as f64 / 1e3)
    }

    /// Complete-hit queries ÷ queries.
    pub fn hit_ratio(&self) -> f64 {
        self.sums.complete_hits as f64 / self.latencies.len() as f64
    }

    /// Mean virtual ms per query: the four components the paper's Fig. 8/9
    /// sum, plus what the spill tier and the cluster's messages charged.
    pub fn virtual_ms_per_query(&self) -> f64 {
        (self.sums.total_ms + self.spill.spill_virtual_ms + self.remote.remote_virtual_ms)
            / self.latencies.len() as f64
    }
}

/// A workload set up and ready to be measured.
pub struct Prepared {
    rig: Rig,
    requests: Vec<QueryRequest>,
    deltas: Vec<DeltaBatch>,
    oracle: Oracle,
    dataset: Dataset,
    /// Wall seconds of dataset build + manager build + preload + warm-up.
    pub setup_s: f64,
}

enum Rig {
    Single(CacheManager),
    Spill { mgr: CacheManager, dir: ScratchDir },
    Cluster(ClusterManager),
}

fn build_manager(
    spec: &Spec,
    dataset: &Dataset,
    spans: &Spans,
    spill_dir: Option<&Path>,
    tracer: Option<Arc<dyn Tracer>>,
) -> CacheManager {
    let mut b = CacheManager::builder()
        .strategy(Strategy::Vcmc)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(inputs::cache_bytes(dataset, spec.cache_mb))
        .threads(spec.threads);
    if let Some(dir) = spill_dir {
        b = b.spill(SpillConfig::new(dir));
    }
    if let Some(t) = tracer {
        b = b.tracer(t);
    }
    let backend = backend_for(dataset);
    if spans.enabled() {
        b.build(TimedBackend::new(backend, spans.clone()))
    } else {
        b.build(backend)
    }
    .expect("workload configurations are valid")
}

/// Sets a workload up: builds the dataset, generates the inputs, builds
/// the manager(s), pre-loads and warms up. `spans` decides whether the
/// backends are wrapped in [`TimedBackend`].
pub fn setup(spec: &Spec, cfg: &RunConfig, spans: &Spans) -> Prepared {
    let t = Instant::now();
    let dataset = inputs::dataset(cfg.tuples);
    let mut setup_s = t.elapsed().as_secs_f64();

    // Harness work, off the set-up clock: inputs and the oracle's shadow.
    let Requests { warmup, measured } =
        inputs::requests(&dataset, cfg.seed, cfg.warmup, cfg.queries);
    let deltas = if spec.kind == Kind::UpdateMix {
        inputs::delta_batches(
            &dataset,
            cfg.seed,
            cfg.queries / READS_PER_BATCH,
            RECORDS_PER_BATCH,
        )
    } else {
        Vec::new()
    };
    let oracle = Oracle::new(backend_for(&dataset), cfg.inject_mismatch);

    let t = Instant::now();
    let mut rig = match spec.kind {
        Kind::Stream | Kind::UpdateMix => {
            Rig::Single(build_manager(spec, &dataset, spans, None, None))
        }
        Kind::SpillRestart => {
            let dir = ScratchDir::create(&cfg.scratch_base).expect("create the scratch directory");
            let mgr = build_manager(spec, &dataset, spans, Some(dir.path()), None);
            Rig::Spill { mgr, dir }
        }
        Kind::Cluster => {
            let mut b = ClusterManager::builder().replication(2);
            for _ in 0..CLUSTER_NODES {
                b = b.node(build_manager(spec, &dataset, spans, None, None));
            }
            Rig::Cluster(b.build().expect("cluster configuration is valid"))
        }
    };
    if let Rig::Single(mgr) | Rig::Spill { mgr, .. } = &mut rig {
        if spec.preload {
            mgr.preload_best()
                .expect("preload group-bys are backend-computable");
        }
        for req in &warmup {
            mgr.run(req).expect("streams stay within the fact level");
        }
        mgr.reset_session();
    }
    setup_s += t.elapsed().as_secs_f64();

    Prepared {
        rig,
        requests: measured,
        deltas,
        oracle,
        dataset,
        setup_s,
    }
}

/// State of the measured loop shared by every kind of workload.
struct Loop<'a> {
    spans: &'a Spans,
    oracle: &'a mut Oracle,
    out: Outcome,
    issued: usize,
}

impl Loop<'_> {
    /// One read on a single manager. Traced, `run` is taken apart into the
    /// `probe_as` + `apply` it consists of, so each gets its span.
    fn read(&mut self, mgr: &mut CacheManager, req: &QueryRequest) {
        let id = self.issued as u64;
        let t = Instant::now();
        let result = if self.spans.enabled() {
            let _query = self.spans.enter(QUERY, id);
            let probe = {
                let _probe = self.spans.enter(PROBE, id);
                mgr.probe_as(&req.query, req.tenant)
            };
            let _apply = self.spans.enter(APPLY, id);
            mgr.apply(&req.query, probe)
        } else {
            mgr.run(req).map(ExecOutcome::into_result)
        };
        let ns = t.elapsed().as_nanos() as u64;
        match result {
            Ok(r) => self.answered(ns, &req.query, &r.metrics, &r.data),
            Err(_) => self.failed(ns),
        }
    }

    /// One read through the cluster.
    fn cluster_read(&mut self, cluster: &mut ClusterManager, req: &QueryRequest) {
        let t = Instant::now();
        let result = {
            let _run = self.spans.enter(CLUSTER_RUN, self.issued as u64);
            cluster.run(req)
        };
        let ns = t.elapsed().as_nanos() as u64;
        match result {
            Ok(out) => self.answered(ns, &req.query, &out.metrics, &out.data),
            Err(_) => self.failed(ns),
        }
    }

    fn answered(&mut self, ns: u64, query: &Query, metrics: &QueryMetrics, data: &ChunkData) {
        self.out.latencies.push(ns);
        self.out.sums.add(metrics);
        if Oracle::due(self.issued) {
            let _oracle = self.spans.enter(ORACLE, self.issued as u64);
            self.oracle.check(query, data);
        }
        self.issued += 1;
    }

    fn failed(&mut self, ns: u64) {
        self.out.latencies.push(ns);
        self.out.errors += 1;
        self.issued += 1;
    }

    fn ingest(&mut self, mgr: &mut CacheManager, batch: &DeltaBatch) {
        let t = Instant::now();
        let result = {
            let _ingest = self.spans.enter(INGEST, NO_REQUEST);
            mgr.ingest(batch)
        };
        self.out.ingest_ns.push(t.elapsed().as_nanos() as u64);
        self.out.ingest_records += batch.len() as u64;
        if result.is_err() {
            self.out.errors += 1;
        }
        let _oracle = self.spans.enter(ORACLE, NO_REQUEST);
        self.oracle.apply_delta(batch);
    }
}

fn evictions(registry: &MetricsRegistry) -> u64 {
    [
        "evictions_fetched",
        "evictions_computed",
        "evictions_spilled",
    ]
    .iter()
    .map(|k| registry.counter(k))
    .sum()
}

/// Runs the measured phase of a prepared workload. With recording `spans`
/// this is the traced pass: every call into the program sits in a span and
/// a [`MetricsRegistry`] counts the program's own events.
pub fn measure(spec: &Spec, prepared: Prepared, spans: &Spans) -> Outcome {
    let Prepared {
        mut rig,
        requests,
        deltas,
        mut oracle,
        dataset,
        setup_s: _,
    } = prepared;
    let registry = spans.enabled().then(|| Arc::new(MetricsRegistry::new()));
    let tracer = registry.clone().map(|r| r as Arc<dyn Tracer>);
    match &mut rig {
        Rig::Single(mgr) | Rig::Spill { mgr, .. } => mgr.set_tracer(tracer.clone()),
        Rig::Cluster(cluster) => cluster.set_tracer(tracer.clone()),
    }

    let mut lp = Loop {
        spans,
        oracle: &mut oracle,
        out: Outcome::default(),
        issued: 0,
    };
    lp.out.latencies.reserve(requests.len());
    // Set-up (preload, warm-up) recorded fetch spans of its own.
    let setup_spans = spans.len();
    let start = Instant::now();
    let root = spans.enter(MEASURE, NO_REQUEST);
    match rig {
        Rig::Single(mut mgr) => {
            let mut batches = deltas.iter();
            for (i, req) in requests.iter().enumerate() {
                lp.read(&mut mgr, req);
                if spec.kind == Kind::UpdateMix && (i + 1) % READS_PER_BATCH == 0 {
                    if let Some(batch) = batches.next() {
                        lp.ingest(&mut mgr, batch);
                    }
                }
            }
            lp.out.updates = *mgr.session_updates();
        }
        Rig::Spill { mut mgr, dir } => {
            let (before, after) = requests.split_at(requests.len() / 2);
            for req in before {
                lp.read(&mut mgr, req);
            }
            {
                let _checkpoint = spans.enter(CHECKPOINT, NO_REQUEST);
                if mgr.checkpoint().is_err() {
                    lp.out.errors += 1;
                }
            }
            lp.out.spill = *mgr.session_spill();
            let mut mgr = {
                let _warm = spans.enter(WARM_START, NO_REQUEST);
                drop(mgr);
                build_manager(spec, &dataset, spans, Some(dir.path()), tracer)
            };
            for req in after {
                lp.read(&mut mgr, req);
            }
            lp.out.spill.merge(mgr.session_spill());
            lp.out.disk_bytes = mgr
                .spill_store()
                .expect("built with a spill tier")
                .bytes_on_disk();
        }
        Rig::Cluster(mut cluster) => {
            let (kill_at, revive_at) = (requests.len() / 3, requests.len() * 2 / 3);
            for (i, req) in requests.iter().enumerate() {
                if i == kill_at {
                    let _membership = spans.enter(MEMBERSHIP, NO_REQUEST);
                    cluster.kill_node(CHURN_NODE);
                } else if i == revive_at {
                    {
                        let _membership = spans.enter(MEMBERSHIP, NO_REQUEST);
                        cluster.revive_node(CHURN_NODE);
                    }
                    let _rebalance = spans.enter(REBALANCE, NO_REQUEST);
                    lp.out.rebalance_moved = cluster.rebalance();
                }
                lp.cluster_read(&mut cluster, req);
            }
            lp.out.remote = *cluster.session_remote();
        }
    }
    drop(root);
    let mut out = lp.out;
    out.wall_ns = (start.elapsed() - oracle.paused).as_nanos() as u64;
    out.latencies.sort_unstable();
    out.oracle_ns = oracle.paused.as_nanos() as u64;
    out.oracle_checked = oracle.checked;
    out.oracle_mismatches = oracle.mismatches;
    if let Some(registry) = &registry {
        out.inserts = registry.counter("inserts_admitted");
        out.evictions = evictions(registry);
    }
    out.spans = spans.snapshot_from(setup_spans);
    out
}

/// `VmHWM` of this process in MB: the most resident memory it ever held.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whys_fit_the_contract_and_names_are_the_issue_s() {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "paper_fit",
                "paper_mid",
                "fit_t2",
                "update_mix",
                "spill_restart",
                "cluster4"
            ]
        );
        assert!((2..=8).contains(&SPECS.len()));
        for s in &SPECS {
            assert!(crate::report::valid_name(s.name));
            assert!(s.why.chars().count() <= 200, "{}: why too long", s.name);
            assert!(!s.why.contains('\n'));
        }
    }

    #[test]
    fn runs_keep_whole_batches_and_enough_samples() {
        let base = std::env::temp_dir();
        for s in &SPECS {
            let full = RunConfig::new(s, false, RUN_SECONDS, 1.0, 1, &base);
            assert_eq!(
                (full.queries, full.tuples),
                (s.queries, inputs::FULL_TUPLES)
            );
            let half = RunConfig::new(s, false, RUN_SECONDS, 0.5, 1, &base);
            assert_eq!(half.queries, s.queries / 2);
            assert_eq!(half.queries % READS_PER_BATCH, 0);
            let tiny = RunConfig::new(s, false, 1, 1.0, 1, &base);
            assert!(
                tiny.queries >= s.min_queries && tiny.queries < s.queries.max(s.min_queries + 1)
            );
            let smoke = RunConfig::new(s, true, RUN_SECONDS, 1.0, 1, &base);
            assert_eq!(
                (smoke.queries, smoke.tuples),
                (s.min_queries, inputs::SMOKE_TUPLES)
            );
            assert!(crate::stats::percentile(&vec![0; smoke.queries], 99.0).is_ok());
        }
        let mix = spec("update_mix").unwrap();
        assert_eq!(mix.min_queries / READS_PER_BATCH, 50);
        assert!(crate::stats::percentile(&[0; 50], 80.0).is_ok());
    }

    #[test]
    fn fit_t2_is_paper_fit_with_two_threads() {
        let (a, b) = (spec("paper_fit").unwrap(), spec("fit_t2").unwrap());
        assert_eq!(
            (a.kind, a.cache_mb, a.preload, a.warmup, a.queries),
            (b.kind, b.cache_mb, b.preload, b.warmup, b.queries)
        );
        assert_eq!((a.threads, b.threads), (1, 2));
    }

    #[test]
    fn peak_rss_reads_something_plausible() {
        let mb = peak_rss_mb().expect("/proc/self/status on Linux");
        assert!(mb > 1.0 && mb < 1e6, "{mb}");
    }
}
