//! Chaos tests of the self-healing spill tier, end to end through the
//! public API: fault-rate-0 bit-transparency (answers, metrics, cache
//! contents *and on-disk bytes* identical to a fault-free build, under
//! all five strategies), answers-vs-oracle equality at every fault rate,
//! per-seed determinism, and warm restarts over a
//! corrupted checkpoint keeping the count tables consistent.

mod common;

use aggcache::prelude::*;
use aggcache_bench::rig::{backend_for, oracle_answer, paper_stream};
use common::{cells, digest, Digest};
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

fn chaotic_manager(ds: &Dataset, strategy: Strategy, spill: SpillConfig) -> CacheManager {
    CacheManager::builder()
        .strategy(strategy)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(1024) // tight: demotions and promotions stay hot
        .spill(spill)
        .build(backend_for(ds))
        .unwrap()
}

fn stream(ds: &Dataset, seed: u64, n: usize) -> Vec<QueryRequest> {
    QueryRequest::batch(&paper_stream(ds, seed).take_queries(n))
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
        let mut plain = chaotic_manager(&ds, strategy, SpillConfig::new(&plain_dir));
        let mut faulty = chaotic_manager(
            &ds,
            strategy,
            SpillConfig::new(&faulty_dir).fault(DiskFaultProfile::uniform(0.0, 0xFEED)),
        );
        for q in &queries {
            let a = plain.run(q).unwrap();
            let b = faulty.run(q).unwrap();
            assert_eq!(digest(&a), digest(&b), "strategy {i}: outcome drifted");
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
        let mut mgr = chaotic_manager(&ds, Strategy::Vcmc, spill);
        for q in &queries {
            let out = mgr.run(q).unwrap_or_else(|e| {
                panic!("rate {rate}: disk faults must never fail a query: {e}")
            });
            let want = oracle_answer(&backend_for(&ds), &q.query);
            assert_eq!(cells(&out.data), cells(&want), "rate {rate}");
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
fn chaos_run(ds: &Dataset, seed: u64, tag: &str) -> (Vec<Digest>, u64) {
    let dir = tmpdir(tag);
    let spill = SpillConfig::new(&dir)
        .fault(DiskFaultProfile::uniform(0.3, seed))
        .scrub_interval_ms(300.0);
    let mut mgr = chaotic_manager(ds, Strategy::Vcmc, spill);
    let queries = stream(ds, seed, 50);
    let mut outcomes = Vec::new();
    for batch in queries.chunks(10) {
        outcomes.extend(mgr.run_batch(batch).unwrap().iter().map(digest));
    }
    let quarantined = mgr.session_spill().spill_quarantined;
    let _ = std::fs::remove_dir_all(&dir);
    (outcomes, quarantined)
}

/// For a fixed seed the whole chaotic session — answers, virtual totals,
/// quarantine counts — is bit-identical across repeat runs.
#[test]
fn chaos_is_deterministic_per_seed() {
    let ds = dataset();
    for seed in [5u64, 6] {
        let a = chaos_run(&ds, seed, "det-a");
        let b = chaos_run(&ds, seed, "det-b");
        assert_eq!(a, b, "seed {seed}: repeat run diverged");
    }
    // Different seeds genuinely vary the fault sequence.
    let x = chaos_run(&ds, 5, "det-x");
    let y = chaos_run(&ds, 6, "det-y");
    assert!(x != y, "seeds 5 and 6 behaved identically");
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
            .build(backend_for(&ds))
            .unwrap();
        for q in &stream(&ds, 44, 30) {
            first.run(q).unwrap();
        }
        let written = first.checkpoint().unwrap();
        assert!(
            written.spill_writes > 1,
            "need several records to corrupt one"
        );
    }
    // Corrupt the last checkpointed record in place (index stays intact):
    // the checkpoint appended it last, so it ends the newest segment.
    let (victim, _) = FsSpillIo
        .list_files(&dir, "seg")
        .unwrap()
        .pop()
        .expect("checkpoint wrote a segment");
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() - 20;
    bytes[at] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let mut warm = CacheManager::builder()
        .strategy(Strategy::Vcm)
        .policy(PolicyKind::TwoLevel)
        .cache_bytes(64 * 1024)
        .spill(SpillConfig::new(&dir))
        .build(backend_for(&ds))
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
        let want = oracle_answer(&backend_for(&ds), &q.query);
        assert_eq!(cells(&out.data), cells(&want));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a 64 over little-endian words, then the tail bytes: the
/// single-lane checksum of `SpillFormat` version 2.
fn v2_checksum(bytes: &[u8]) -> u64 {
    let step = |hash: u64, x: u64| (hash ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder().iter().map(|&b| u64::from(b));
    words
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        .chain(tail)
        .fold(0xcbf2_9ce4_8422_2325, step)
}

/// `bytes` with its version 2 checksum appended.
fn v2_sealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let checksum = v2_checksum(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// A `SpillFormat` version 2 record of `data` under `key`: `u32`
/// coordinates and `f64` values whatever the cells, flags 0, origin 0.
fn v2_record(key: ChunkKey, data: &ChunkData) -> Vec<u8> {
    let mut out = b"ACSP".to_vec();
    out.extend_from_slice(&2u16.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&key.pack().to_le_bytes());
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&(data.n_dims() as u16).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    let coords: Vec<u32> = data.iter().flat_map(|(c, _)| c.iter()).collect();
    out.extend_from_slice(&(coords.len() as u32 * 4).to_le_bytes());
    coords
        .iter()
        .for_each(|c| out.extend_from_slice(&c.to_le_bytes()));
    out.extend_from_slice(&(data.len() as u32 * 8).to_le_bytes());
    for v in data.raw_values().iter() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    v2_sealed(out)
}

/// The fact table's base chunks with every value off by 1,000: wrong,
/// were any of them ever served.
fn wrong_base_chunks(ds: &Dataset) -> Vec<(ChunkKey, ChunkData)> {
    let base: Vec<u64> = (0..ds.grid.n_chunks(ds.fact_gb)).collect();
    let chunks = backend_for(ds).fetch(ds.fact_gb, &base).unwrap().chunks;
    let wrong = chunks.into_iter().map(|(chunk, mut data)| {
        for i in 0..data.len() {
            *data.value_of_mut(i) += 1000.0;
        }
        (ChunkKey::new(ds.fact_gb, chunk), data)
    });
    wrong.collect()
}

/// Opens `dir`, a spill directory an older build wrote whose every record
/// holds [`wrong_base_chunks`] and was checkpointed resident, without
/// panicking: the index is refused by version and scavenged, the scavenge
/// refuses the segment's run of old records as one quarantined span, the
/// warm start is cold, and every answer equals the oracle.
fn restarts_cold(ds: &Dataset, dir: &Path) {
    let mut mgr = chaotic_manager(ds, Strategy::Vcmc, SpillConfig::new(dir));
    let opened = *mgr.session_spill();
    assert_eq!(opened.index_rebuilds, 1);
    assert_eq!((opened.spill_corrupt, opened.spill_quarantined), (1, 1));
    assert_eq!(opened.spill_reads, 0);
    assert!(mgr.cache().is_empty(), "a cold warm start");
    assert!(mgr.spill_store().unwrap().is_empty());
    for q in &stream(ds, 46, 40) {
        let out = mgr.run(q).unwrap();
        let want = oracle_answer(&backend_for(ds), &q.query);
        assert_eq!(cells(&out.data), cells(&want));
    }
}

/// A spill directory written by a version 2 build — its records and its
/// index built here byte by byte — restarts cold.
#[test]
fn a_version_2_spill_directory_restarts_cold() {
    let ds = dataset();
    let dir = tmpdir("v2");
    std::fs::create_dir_all(&dir).unwrap();
    let mut segment = Vec::new();
    let mut index = Vec::new();
    for (key, data) in wrong_base_chunks(&ds) {
        let record = v2_record(key, &data);
        index.extend_from_slice(&key.pack().to_le_bytes());
        index.extend_from_slice(&(segment.len() as u64).to_le_bytes());
        index.extend_from_slice(&0u32.to_le_bytes());
        index.extend_from_slice(&(record.len() as u32).to_le_bytes());
        index.extend_from_slice(&[1, 0, 0, 0]); // resident, pad
        segment.extend_from_slice(&record);
    }
    let mut head = b"ACSI".to_vec();
    head.extend_from_slice(&2u16.to_le_bytes());
    head.extend_from_slice(&0u16.to_le_bytes());
    head.extend_from_slice(&((index.len() / 28) as u32).to_le_bytes());
    head.extend_from_slice(&index);
    std::fs::write(dir.join("00000000.seg"), &segment).unwrap();
    std::fs::write(dir.join("spill.idx"), v2_sealed(head)).unwrap();
    restarts_cold(&ds, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `bytes` with its checksum, which versions 3 and 4 compute as version 5
/// does, appended.
fn v3_sealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let checksum = spill_checksum(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// A `SpillFormat` record of `data` under `key` at `version` 3 or 4: every
/// coordinate of every cell at `u16` and the values at `f32`, the
/// narrowest widths version 3 had (flags 0, which version 4 reads the
/// same way), origin 0.
fn v3_record(version: u16, key: ChunkKey, data: &ChunkData) -> Vec<u8> {
    let mut out = b"ACSP".to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&key.pack().to_le_bytes());
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&(data.n_dims() as u16).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    let coords: Vec<u32> = data.iter().flat_map(|(c, _)| c.iter()).collect();
    out.extend_from_slice(&(coords.len() as u32 * 2).to_le_bytes());
    for c in coords {
        out.extend_from_slice(&u16::try_from(c).unwrap().to_le_bytes());
    }
    out.extend_from_slice(&(data.len() as u32 * 4).to_le_bytes());
    for v in data.raw_values().iter() {
        assert_eq!(f64::from(v as f32).to_bits(), v.to_bits(), "{v:e} fits f32");
        out.extend_from_slice(&(v as f32).to_bits().to_le_bytes());
    }
    v3_sealed(out)
}

/// A spill directory written at `version` 3 or 4 — `u16` coordinates,
/// `f32` values, its index entries carrying the priced size — restarts
/// cold.
fn a_v3_spill_directory_restarts_cold(version: u16) {
    let ds = dataset();
    let dir = tmpdir(&format!("v{version}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut segment = Vec::new();
    let mut index = Vec::new();
    for (key, data) in wrong_base_chunks(&ds) {
        let record = v3_record(version, key, &data);
        let priced = 48 + data.len() * (4 * data.n_dims() + 8);
        index.extend_from_slice(&key.pack().to_le_bytes());
        index.extend_from_slice(&(segment.len() as u64).to_le_bytes());
        index.extend_from_slice(&0u32.to_le_bytes());
        index.extend_from_slice(&(record.len() as u32).to_le_bytes());
        index.extend_from_slice(&(priced as u32).to_le_bytes());
        index.extend_from_slice(&[1, 0, 0, 0]); // resident, pad
        segment.extend_from_slice(&record);
    }
    let mut head = b"ACSI".to_vec();
    head.extend_from_slice(&version.to_le_bytes());
    head.extend_from_slice(&0u16.to_le_bytes());
    head.extend_from_slice(&((index.len() / 32) as u32).to_le_bytes());
    head.extend_from_slice(&index);
    std::fs::write(dir.join("00000000.seg"), &segment).unwrap();
    std::fs::write(dir.join("spill.idx"), v3_sealed(head)).unwrap();
    restarts_cold(&ds, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spill directory written by a version 3 build restarts cold.
#[test]
fn a_version_3_spill_directory_restarts_cold() {
    a_v3_spill_directory_restarts_cold(3);
}

/// A spill directory written by a version 4 build — whose rows at flags 0
/// are version 3's bytes — restarts cold.
#[test]
fn a_version_4_spill_directory_restarts_cold() {
    a_v3_spill_directory_restarts_cold(4);
}
