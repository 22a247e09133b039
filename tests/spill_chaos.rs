//! Chaos tests of the self-healing spill tier, end to end through the
//! public API: fault-rate-0 bit-transparency (answers, metrics, cache
//! contents *and on-disk bytes* identical to a fault-free build, under
//! all five strategies), answers-vs-oracle equality at every fault rate,
//! per-seed determinism across thread counts, and warm restarts over a
//! corrupted checkpoint keeping the count tables consistent.

mod common;

use aggcache::prelude::*;
use common::{backend, oracle_answer, stream_queries};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A process- and call-unique scratch directory (removed by each test).
fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aggcache-chaos-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    SyntheticSpec::new()
        .dim("p", vec![1, 3, 9], vec![1, 3, 3])
        .dim("s", vec![1, 6], vec![1, 2])
        .tuples(900)
        .build()
}

fn chaotic_manager(
    ds: &Dataset,
    strategy: Strategy,
    spill: SpillConfig,
    threads: usize,
) -> CacheManager {
    CacheManager::builder()
        .strategy(strategy)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(1024) // tight: demotions and promotions stay hot
        .threads(threads)
        .spill(spill)
        .build(backend(ds))
        .unwrap()
}

fn stream(ds: &Dataset, seed: u64, n: usize) -> Vec<QueryRequest> {
    QueryRequest::batch(&stream_queries(ds, n, seed))
}

fn value_bits(data: &ChunkData) -> Vec<u64> {
    data.raw_values().iter().map(|v| v.to_bits()).collect()
}

/// Every regular file under `dir` as name → contents.
fn disk_image(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            out.insert(
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&path).unwrap(),
            );
        }
    }
    out
}

/// Fault rate 0 is bit-transparent under every strategy: a session run
/// through the fault-injecting I/O decorator at rate 0 produces the same
/// answers, the same metrics, the same cache contents and — after a
/// checkpoint — byte-identical spill files as a session with no decorator
/// at all.
#[test]
fn rate_zero_is_bit_transparent_for_all_strategies() {
    let strategies = [
        Strategy::NoAggregation,
        Strategy::Esm,
        Strategy::Esmc { node_budget: None },
        Strategy::Vcm,
        Strategy::Vcmc,
    ];
    let ds = dataset();
    let queries = stream(&ds, 21, 40);
    for (i, &strategy) in strategies.iter().enumerate() {
        let plain_dir = tmpdir(&format!("transparent-plain-{i}"));
        let faulty_dir = tmpdir(&format!("transparent-faulty-{i}"));
        let mut plain = chaotic_manager(&ds, strategy, SpillConfig::new(&plain_dir), 1);
        let mut faulty = chaotic_manager(
            &ds,
            strategy,
            SpillConfig::new(&faulty_dir).fault(DiskFaultProfile::uniform(0.0, 0xFEED)),
            1,
        );
        for q in &queries {
            let a = plain.run(q).unwrap();
            let b = faulty.run(q).unwrap();
            assert_eq!(a.data.raw_coords(), b.data.raw_coords());
            assert_eq!(value_bits(&a.data), value_bits(&b.data));
            assert_eq!(
                a.total_virtual_ms().to_bits(),
                b.total_virtual_ms().to_bits()
            );
            assert_eq!(a.spill, b.spill, "strategy {i}: spill accounting drifted");
        }
        assert_eq!(*plain.session_spill(), *faulty.session_spill());
        let pk: Vec<ChunkKey> = plain
            .cache()
            .entries_sorted()
            .iter()
            .map(|(k, _)| *k)
            .collect();
        let fk: Vec<ChunkKey> = faulty
            .cache()
            .entries_sorted()
            .iter()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(pk, fk, "strategy {i}: RAM populations diverged");
        plain.checkpoint().unwrap();
        faulty.checkpoint().unwrap();
        assert_eq!(
            disk_image(&plain_dir),
            disk_image(&faulty_dir),
            "strategy {i}: on-disk spill bytes diverged at rate 0"
        );
        let _ = std::fs::remove_dir_all(&plain_dir);
        let _ = std::fs::remove_dir_all(&faulty_dir);
    }
}

/// At *any* fault rate every answer equals the brute-force oracle —
/// corruption is quarantined and re-served, never returned.
#[test]
fn answers_equal_oracle_at_every_fault_rate() {
    let ds = dataset();
    let queries = stream(&ds, 33, 60);
    for &rate in &[0.0, 0.1, 0.3, 0.7] {
        let dir = tmpdir("oracle");
        let spill = SpillConfig::new(&dir)
            .fault(DiskFaultProfile::uniform(rate, 0xBAD))
            .scrub_interval_ms(400.0);
        let mut mgr = chaotic_manager(&ds, Strategy::Vcmc, spill, 1);
        for q in &queries {
            let out = mgr.run(q).unwrap_or_else(|e| {
                panic!("rate {rate}: disk faults must never fail a query: {e}")
            });
            let mut got = out.data.clone();
            got.sort_by_coords();
            let want = oracle_answer(&backend(&ds), &q.query);
            assert_eq!(got.raw_coords(), want.raw_coords(), "rate {rate}");
            assert_eq!(value_bits(&got), value_bits(&want), "rate {rate}");
        }
        if rate >= 0.3 {
            assert!(
                mgr.session_spill().spill_corrupt > 0,
                "rate {rate}: chaos too gentle to prove anything"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One chaotic session's full outcome, reduced to comparable bits.
fn chaos_run(ds: &Dataset, seed: u64, threads: usize, tag: &str) -> (Vec<Vec<u64>>, Vec<u64>, u64) {
    let dir = tmpdir(tag);
    let spill = SpillConfig::new(&dir)
        .fault(DiskFaultProfile::uniform(0.3, seed))
        .scrub_interval_ms(300.0);
    let mut mgr = chaotic_manager(ds, Strategy::Vcmc, spill, threads);
    let queries = stream(ds, seed, 50);
    let mut answers = Vec::new();
    let mut totals = Vec::new();
    for batch in queries.chunks(10) {
        for out in mgr.run_batch(batch).unwrap() {
            totals.push(out.total_virtual_ms().to_bits());
            let mut data = out.data;
            data.sort_by_coords();
            answers.push(value_bits(&data));
        }
    }
    let quarantined = mgr.session_spill().spill_quarantined;
    let _ = std::fs::remove_dir_all(&dir);
    (answers, totals, quarantined)
}

/// For a fixed seed the whole chaotic session — answers, virtual totals,
/// quarantine counts — is bit-identical across repeat runs and across
/// thread counts.
#[test]
fn chaos_is_deterministic_per_seed_and_thread_invariant() {
    let ds = dataset();
    for seed in [5u64, 6] {
        let a = chaos_run(&ds, seed, 1, "det-a");
        let b = chaos_run(&ds, seed, 1, "det-b");
        let c = chaos_run(&ds, seed, 4, "det-c");
        assert_eq!(a, b, "seed {seed}: repeat run diverged");
        assert_eq!(a, c, "seed {seed}: thread count changed virtual outcome");
    }
    // Different seeds genuinely vary the fault sequence.
    let x = chaos_run(&ds, 5, 1, "det-x");
    let y = chaos_run(&ds, 6, 1, "det-y");
    assert!(
        x.1 != y.1 || x.2 != y.2,
        "seeds 5 and 6 behaved identically"
    );
}

/// A warm restart over a checkpoint with a corrupted record quarantines
/// the damage, keeps the incrementally maintained count table consistent
/// with a from-scratch rebuild, and still answers correctly.
#[test]
fn warm_restart_after_corrupted_checkpoint_stays_consistent() {
    let ds = dataset();
    let dir = tmpdir("restart");
    {
        let mut first = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(64 * 1024)
            .spill(SpillConfig::new(&dir))
            .build(backend(&ds))
            .unwrap();
        for q in &stream(&ds, 44, 30) {
            first.run(q).unwrap();
        }
        let report = first.checkpoint().unwrap();
        assert!(report.chunks > 1, "need several records to corrupt one");
    }
    // Corrupt one checkpointed chunk file in place (index stays intact).
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("chunk"))
        .expect("checkpoint wrote chunk files");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let mut warm = CacheManager::builder()
        .strategy(Strategy::Vcm)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(64 * 1024)
        .spill(SpillConfig::new(&dir))
        .build(backend(&ds))
        .unwrap();
    assert_eq!(warm.session_spill().spill_corrupt, 1);
    assert_eq!(warm.session_spill().spill_quarantined, 1);
    assert!(warm.session_spill().spill_reads > 0, "rest warm-started");
    // Property 1 after the partial recovery: the incrementally built
    // count table equals one rebuilt from the actual RAM population.
    let rebuilt = CountTable::rebuild_from(warm.grid().clone(), |k| warm.cache().contains(&k));
    rebuilt.assert_same(warm.counts().expect("VCM maintains counts"));
    // And the session still answers every query correctly.
    for q in &stream(&ds, 45, 20) {
        let out = warm.run(q).unwrap();
        let mut got = out.data.clone();
        got.sort_by_coords();
        let want = oracle_answer(&backend(&ds), &q.query);
        assert_eq!(got.raw_coords(), want.raw_coords());
        assert_eq!(value_bits(&got), value_bits(&want));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
