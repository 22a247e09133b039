//! The disk tier below the RAM cache — demote-on-evict, promote-on-miss,
//! checkpointed warm starts, scrubbing. Every [`SpillStore`] operation
//! hands back a [`SpillMetrics`] delta; this file folds the deltas into the
//! per-query and session ledgers, maps an [`Origin`] to its on-disk code
//! and emits every spill event. The [`CacheManager`] methods at the bottom
//! are the glue that also needs the admission path.

use super::CacheManager;
use crate::QueryMetrics;
use aggcache_cache::{CachedChunk, Origin};
use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey};
use aggcache_obs::{Event, Tracer};
use aggcache_schema::GroupById;
use aggcache_store::{
    SpillConfig, SpillError, SpillMetrics, SpillRecord, SpillStore, ORIGIN_BACKEND,
    ORIGIN_COMPUTED, ORIGIN_SPILLED,
};
use std::sync::Arc;

/// Maps a RAM-side [`Origin`] to its on-disk code (`docs/FORMAT.md` §origin).
fn origin_code(origin: Origin) -> u8 {
    match origin {
        Origin::Backend => ORIGIN_BACKEND,
        Origin::Computed => ORIGIN_COMPUTED,
        Origin::Spilled => ORIGIN_SPILLED,
    }
}

/// Maps an on-disk origin code back to a RAM-side [`Origin`]. Unknown
/// codes (a future format revision) conservatively map to the lowest
/// replacement tier.
fn origin_from_code(code: u8) -> Origin {
    match code {
        ORIGIN_BACKEND => Origin::Backend,
        ORIGIN_COMPUTED => Origin::Computed,
        _ => Origin::Spilled,
    }
}

/// The read both warm start and promote-on-miss go through:
/// [`SpillStore::read_checked`] against the grid, charged to `delta` and
/// counted as a read, with a record the store quarantined reported as a
/// `SpillCorrupt` + `SpillQuarantine` pair. Returns the record with what
/// reading it cost ([`SpillStore::read_cost`]); `None` sends the chunk to
/// the miss path.
fn read_checked(
    store: &mut SpillStore,
    grid: &ChunkGrid,
    key: ChunkKey,
    tracer: Option<&dyn Tracer>,
    delta: &mut SpillMetrics,
) -> Option<(SpillRecord, SpillMetrics)> {
    let cost = store.read_cost(key)?;
    match store.read_checked(key, Some(grid), delta) {
        Ok(record) => record.map(|record| {
            delta.spill_reads += cost.spill_reads;
            delta.bytes_read += cost.bytes_read;
            (record, cost)
        }),
        Err(e) => {
            if let (true, Some(tracer)) = (e.is_corruption(), tracer) {
                tracer.emit(&Event::SpillCorrupt {
                    gb: key.gb.0,
                    chunk: key.chunk,
                    reason: e.class_name(),
                });
                tracer.emit(&Event::SpillQuarantine {
                    gb: key.gb.0,
                    chunk: key.chunk,
                    bytes: cost.bytes_read,
                });
            }
            None
        }
    }
}

/// The spill tier's state: the store (when one is attached), its
/// per-query and session ledgers and the scrub clock. Without a store
/// every method is a no-op.
#[derive(Default)]
pub(super) struct Tiering {
    store: Option<SpillStore>,
    /// Accounting for the query currently being applied.
    query: SpillMetrics,
    /// Session-cumulative accounting (includes warm-start, checkpoint and
    /// scrub traffic, which no single query owns).
    session: SpillMetrics,
    /// Query virtual time accumulated towards the next scrub pass.
    scrub_accum_ms: f64,
    tracer: Option<Arc<dyn Tracer>>,
}

impl Tiering {
    pub(super) fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        self.tracer = tracer;
    }

    pub(super) fn reset_session(&mut self) {
        self.session = SpillMetrics::default();
    }

    pub(super) fn begin_query(&mut self) {
        self.query = SpillMetrics::default();
    }

    /// The spill accounting of the query applied last.
    pub(super) fn last_query(&self) -> SpillMetrics {
        self.query
    }

    fn emit(&self, event: Event) {
        if let Some(tracer) = &self.tracer {
            tracer.emit(&event);
        }
    }

    /// Demotes the victims of one insert to disk; without a store they
    /// just drop. The old entry under a replaced key is *not* preserved —
    /// its replacement supersedes it — and a victim whose bytes are
    /// already on disk (an evicted promotion) is re-marked for free. A
    /// failed write degrades to a plain eviction: the victim is gone from
    /// RAM either way, and the caller's count/cost-table propagation
    /// never depends on this demotion.
    pub(super) fn demote(&mut self, victims: &[(ChunkKey, CachedChunk)], inserted: ChunkKey) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let mut delta = SpillMetrics::default();
        for (key, entry) in victims {
            if *key == inserted || (entry.origin == Origin::Spilled && store.contains(*key)) {
                continue;
            }
            let Ok(written) =
                store.write(*key, origin_code(entry.origin), entry.benefit, &entry.data)
            else {
                // ENOSPC, injected fault, OS error: counted, never fatal.
                delta.demote_failures += 1;
                continue;
            };
            delta.merge(&written);
            if let Some(tracer) = &self.tracer {
                tracer.emit(&Event::SpillWrite {
                    gb: key.gb.0,
                    chunk: key.chunk,
                    bytes: written.bytes_written,
                    virtual_ms: written.spill_virtual_ms,
                });
            }
        }
        self.query.merge(&delta);
        self.session.merge(&delta);
    }

    /// Advances the scrub clock by one query's virtual time and runs a
    /// scrub pass each time [`SpillConfig::scrub_interval_ms`] elapses (a
    /// no-op without one). Scrub costs are charged to the *session* only —
    /// background maintenance no single query owns. Driven by virtual
    /// time, the schedule is bit-identical across runs.
    pub(super) fn end_query(&mut self, query_ms: f64) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let Some(interval) = store.scrub_interval_ms() else {
            return;
        };
        self.scrub_accum_ms += query_ms;
        while self.scrub_accum_ms >= interval {
            self.scrub_accum_ms -= interval;
            let scanned = store.len() as u64;
            let pass = store.scrub();
            self.session.merge(&pass);
            if let Some(tracer) = &self.tracer {
                tracer.emit(&Event::ScrubPass {
                    scanned,
                    corrupt: pass.spill_corrupt,
                    quarantined: pass.spill_quarantined,
                    virtual_ms: pass.spill_virtual_ms,
                });
            }
        }
    }

    /// Drops every spilled copy `stale` selects ([`SpillStore::discard`]);
    /// returns the keys dropped.
    pub(super) fn discard(&mut self, stale: impl FnMut(ChunkKey) -> bool) -> Vec<ChunkKey> {
        let Some(store) = self.store.as_mut() else {
            return Vec::new();
        };
        store.discard(stale)
    }
}

impl CacheManager {
    /// The attached spill tier, if any (read access).
    pub fn spill_store(&self) -> Option<&SpillStore> {
        self.tiering.store.as_ref()
    }

    /// Session-cumulative spill accounting: every demotion, promotion,
    /// warm-start and checkpoint since construction (or the last
    /// [`CacheManager::reset_session`]). All zeros without a spill tier.
    pub fn session_spill(&self) -> &SpillMetrics {
        &self.tiering.session
    }

    /// Attaches a spill tier and warm-starts from its checkpoint, if one
    /// exists ([`super::CacheManagerBuilder::spill`] calls this at build
    /// time; it also works on an already-built manager).
    ///
    /// Warm start re-admits every chunk the checkpoint marked resident, in
    /// ascending packed-key order, with the origin and benefit its record
    /// carries — through the normal admission path, so count/cost tables
    /// are rebuilt exactly as if the chunks had just been inserted. When it
    /// read anything, one [`Event::WarmStart`] is emitted.
    ///
    /// Attachment *self-heals* rather than failing: a missing or corrupt
    /// index is scavenged by [`SpillStore::open_metered`] (reported via
    /// [`Event::IndexRebuild`]), a resident record that fails its checksum
    /// is quarantined and skipped (a cold miss later), and transient read
    /// errors retry under the store's policy. Only an unopenable directory
    /// or invalid configuration is an error. Returns what opening and the
    /// warm start cost and found, which is also charged to the session —
    /// all zeros over an empty directory.
    pub(crate) fn attach_spill(&mut self, config: SpillConfig) -> Result<SpillMetrics, SpillError> {
        let (mut store, mut delta) = SpillStore::open_metered(config)?;
        if delta.index_rebuilds > 0 {
            let recovered = store.len() as u64;
            self.tiering.emit(Event::IndexRebuild {
                scanned: recovered + delta.spill_quarantined,
                recovered,
                quarantined: delta.spill_quarantined,
            });
        }
        // The store is attached only after the warm start: evictions
        // during it (budget smaller than the checkpoint) stay plain drops —
        // those chunks are still on disk anyway.
        let mut reads = SpillMetrics::default();
        for key in store.resident_keys() {
            let tracer = self.tiering.tracer.as_deref();
            if let Some((r, _)) = read_checked(&mut store, &self.grid, key, tracer, &mut reads) {
                self.insert_chunk(key, r.data, origin_from_code(r.origin), r.benefit);
            }
        }
        if reads.spill_reads > 0 {
            self.tiering.emit(Event::WarmStart {
                chunks: reads.spill_reads,
                bytes: reads.bytes_read,
                virtual_ms: reads.spill_virtual_ms,
            });
        }
        delta.merge(&reads);
        self.tiering.session.merge(&delta);
        self.tiering.store = Some(store);
        Ok(delta)
    }

    /// Checkpoints the RAM-resident population to the spill tier, so the
    /// next session's `CacheManager::attach_spill` warm-starts from it.
    /// Every resident chunk is (re)written and marked resident, replacing
    /// any previous checkpoint's marks. Returns the writes, which are also
    /// charged to the session.
    ///
    /// Checkpoints are salvaged record-by-record: a chunk whose write
    /// fails (ENOSPC, injected fault, OS error) is skipped and counted in
    /// `demote_failures` while the rest proceeds. Fails with
    /// [`SpillError::NotAttached`] when no spill tier is attached, or when
    /// the index itself cannot be persisted.
    pub fn checkpoint(&mut self) -> Result<SpillMetrics, SpillError> {
        let store = self.tiering.store.as_mut().ok_or(SpillError::NotAttached)?;
        let resident = self.cache.entries_sorted().into_iter();
        let delta = store.checkpoint(
            resident.map(|(key, e)| (key, origin_code(e.origin), e.benefit, &*e.data)),
        )?;
        self.tiering.session.merge(&delta);
        Ok(delta)
    }

    /// Serves what it can of a query's miss set from the spill tier:
    /// reads each spilled chunk, appends its cells to the result, and
    /// offers it back to the RAM cache at the lowest replacement tier
    /// ([`Origin::Spilled`]) with its recorded benefit. Returns the chunks
    /// still missing — the backend's share.
    pub(super) fn promote_from_spill(
        &mut self,
        gb: GroupById,
        missing: Vec<u64>,
        result: &mut ChunkData,
        metrics: &mut QueryMetrics,
    ) -> Vec<u64> {
        if self.tiering.store.is_none() || missing.is_empty() {
            return missing;
        }
        let mut delta = SpillMetrics::default();
        let mut still_missing = Vec::with_capacity(missing.len());
        for chunk in missing {
            let key = ChunkKey::new(gb, chunk);
            let store = self.tiering.store.as_mut().expect("checked above");
            let tracer = self.tiering.tracer.as_deref();
            let Some((record, cost)) = read_checked(store, &self.grid, key, tracer, &mut delta)
            else {
                still_missing.push(chunk);
                continue;
            };
            self.tiering.emit(Event::SpillRead {
                gb: gb.0,
                chunk,
                bytes: cost.bytes_read,
                virtual_ms: cost.spill_virtual_ms,
            });
            result.append(&record.data);
            let (admitted, update_ns) =
                self.insert_chunk(key, record.data, Origin::Spilled, record.benefit);
            metrics.update_ns += update_ns;
            delta.spill_promotes += u64::from(admitted);
            self.tiering.emit(Event::SpillPromote {
                gb: gb.0,
                chunk,
                admitted,
            });
        }
        self.tiering.query.merge(&delta);
        self.tiering.session.merge(&delta);
        still_missing
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;
    use crate::error::CacheError;
    use crate::lookup::Strategy;
    use aggcache_store::{
        encode_record, DiskFaultProfile, FsSpillIo, SpillIo, SPILL_FORMAT_VERSION, SPILL_MAGIC,
    };
    use std::sync::Arc;

    #[test]
    fn eviction_demotes_to_spill_and_miss_promotes_from_disk() {
        // Budget of exactly two 80-byte base chunks.
        let mut mgr = spill_manager("demote", 160);
        let base = mgr.grid().schema().lattice().base();
        for chunk in 0..3 {
            run_and_check(&mut mgr, &Query::new(base, vec![chunk]));
        }
        // Chunk 0 was evicted to make room for chunk 2 — demoted, not lost.
        let store = mgr.spill_store().unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.contains(ChunkKey::new(base, 0)));
        assert_eq!(mgr.session_spill().spill_writes, 1);
        assert_counts_consistent(&mgr);

        // Re-query the demoted chunk: served from disk, not the backend.
        let q = Query::new(base, vec![0]);
        let expected = oracle(&mgr, &q);
        let mut out = mgr.run(&(&q).into()).unwrap();
        out.data.sort_by_coords();
        assert_eq!(out.data, expected);
        assert_eq!(out.metrics.backend_virtual_ms, 0.0);
        assert_eq!(
            out.metrics.chunks_missed, 1,
            "spill serve is still a RAM miss"
        );
        assert!(!out.metrics.complete_hit);
        assert_eq!(out.spill.spill_reads, 1);
        assert!(out.spill.spill_virtual_ms > 0.0);
        // The RAM cache is full of backend-tier chunks, which a spilled-tier
        // promotion may not displace — the promotion is refused but the
        // query is still answered from the read bytes.
        assert_eq!(out.spill.spill_promotes, 0);
        // Spill cost stays outside QueryMetrics; the end-to-end total adds it.
        assert!(
            (out.total_virtual_ms() - out.metrics.total_ms() - out.spill.spill_virtual_ms).abs()
                < 1e-12
        );
        assert_counts_consistent(&mgr);
    }

    #[test]
    fn update_ns_times_the_tables_not_the_spill_demotion() {
        // NoAggregation maintains no table, so a demoting insert's "update
        // time" is two clock reads, while the query's `apply_ns` holds the
        // victim's encode + append: were the demotion on the update
        // clock it would be most of `apply_ns`, not a sliver of it. A ratio
        // within one query, the best of several, so neither a slow machine
        // nor a descheduled thread can fail this.
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::NoAggregation)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .spill(SpillConfig::new(spill_dir("update-ns")))
            .build(make_backend())
            .unwrap();
        let base = mgr.grid().schema().lattice().base();
        let demoting: Vec<(u64, u64)> = (0..8u64)
            .filter_map(|chunk| {
                let out = mgr.run(&(&Query::new(base, vec![chunk])).into()).unwrap();
                let m = out.metrics;
                (out.spill.spill_writes > 0).then_some((m.update_ns, m.apply_ns))
            })
            .collect();
        assert!(!demoting.is_empty(), "a two-chunk budget demotes");
        assert!(
            demoting.iter().any(|&(update, apply)| update * 4 < apply),
            "(update_ns, apply_ns) {demoting:?}: update_ns includes the spill write"
        );
    }

    #[test]
    fn promotion_is_admitted_when_room_exists() {
        let mut mgr = spill_manager("promote", usize::MAX >> 1);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        mgr.checkpoint().unwrap();
        mgr.evict_chunk(ChunkKey::new(base, 0));
        assert_counts_consistent(&mgr);

        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert_eq!(m.backend_virtual_ms, 0.0);
        assert_eq!(mgr.session_spill().spill_reads, 1);
        assert_eq!(mgr.session_spill().spill_promotes, 1);
        assert_counts_consistent(&mgr);
        // Promoted chunk is now RAM-resident: the next query is a pure hit.
        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(m.complete_hit);
        assert_eq!(mgr.session_spill().spill_reads, 1, "no second disk read");
    }

    #[test]
    fn warm_start_matches_never_restarted_oracle() {
        let dir = spill_dir("warm");
        let grid;
        let top_q;
        // Session A: populate (fetched + computed chunks), checkpoint.
        let mut a = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .spill(SpillConfig::new(dir.clone()))
            .build(make_backend())
            .unwrap();
        {
            grid = a.grid().clone();
            let lattice = grid.schema().lattice().clone();
            run_and_check(&mut a, &Query::full_group_by(&grid, lattice.base()));
            top_q = Query::full_group_by(&grid, lattice.top());
            run_and_check(&mut a, &top_q);
            let written = a.checkpoint().unwrap();
            assert!(written.spill_writes > 0);
            assert!(written.spill_virtual_ms > 0.0);
        }
        // Session B: a fresh manager over the same directory warm-starts.
        let mut b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .spill(SpillConfig::new(dir))
            .build(make_backend())
            .unwrap();
        assert!(b.session_spill().spill_reads > 0, "warm start read chunks");
        // Same RAM population, bit-identical count tables.
        assert_eq!(
            b.cache().entries_sorted().len(),
            a.cache().entries_sorted().len()
        );
        b.counts().unwrap().assert_same(a.counts().unwrap());
        assert_counts_consistent(&b);
        // Identical answers with identical local metrics: a complete hit
        // with zero backend cost, same as the never-restarted session.
        let mut ra = a.run(&(&top_q).into()).unwrap();
        let mut rb = b.run(&(&top_q).into()).unwrap();
        ra.data.sort_by_coords();
        rb.data.sort_by_coords();
        assert_eq!(ra.data, rb.data);
        assert!(rb.metrics.complete_hit);
        assert_eq!(
            ra.metrics.total_ms().to_bits(),
            rb.metrics.total_ms().to_bits()
        );
    }

    #[test]
    fn attach_spill_reports_warm_start() {
        let dir = spill_dir("report");
        let mut a = spill_manager_over(dir.clone(), 160);
        let base = a.grid().schema().lattice().base();
        run_and_check(&mut a, &Query::new(base, vec![0]));
        a.checkpoint().unwrap();
        drop(a);
        let mut b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .build(make_backend())
            .unwrap();
        let warm = b.attach_spill(SpillConfig::new(dir)).unwrap();
        assert_eq!(warm.spill_reads, 1);
        assert!(warm.bytes_read > 0);
        assert!(warm.spill_virtual_ms > 0.0);
        assert_eq!(warm, *b.session_spill());
        let m = run_and_check(&mut b, &Query::new(base, vec![0]));
        assert!(m.complete_hit);
    }

    /// A demotion whose disk write fails must degrade to a plain eviction:
    /// `on_evict` still fires, so the count tables stay consistent with the
    /// RAM population, and the chunk is simply re-fetched from the backend
    /// next time.
    #[test]
    fn failed_spill_write_falls_back_to_plain_eviction() {
        let dir = spill_dir("failwrite");
        let mut mgr = spill_manager_over(dir.clone(), 160);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        run_and_check(&mut mgr, &Query::new(base, vec![1]));
        // From here on the disk is full.
        mgr.attach_spill(SpillConfig::new(&dir).fault(DiskFaultProfile {
            enospc_after_bytes: Some(0),
            ..DiskFaultProfile::default()
        }))
        .unwrap();
        // Evicts chunk 0; its demotion write fails.
        run_and_check(&mut mgr, &Query::new(base, vec![2]));
        let store = mgr.spill_store().unwrap();
        assert_eq!(store.len(), 0, "failed write must not land in the index");
        assert!(!mgr.cache().contains(&ChunkKey::new(base, 0)));
        assert_eq!(mgr.session_spill().spill_writes, 0);
        assert_eq!(mgr.session_spill().demote_failures, 1);
        // The count table wound down despite the failed demotion.
        assert_counts_consistent(&mgr);
        // And the chunk is served by the backend again, correctly.
        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(m.backend_virtual_ms > 0.0);
        assert_counts_consistent(&mgr);
    }

    #[test]
    fn spill_events_reach_the_tracer() {
        let tracer = Arc::new(RecordingTracer::new());
        let dir = spill_dir("events");
        let mut a = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .tracer(tracer.clone())
            .spill(SpillConfig::new(dir.clone()))
            .build(make_backend())
            .unwrap();
        let base = a.grid().schema().lattice().base();
        for chunk in 0..3 {
            let q = Query::new(base, vec![chunk]);
            let _ = a.run(&(&q).into()).unwrap();
        }
        let _ = a.run(&(&Query::new(base, vec![0])).into()).unwrap();
        a.checkpoint().unwrap();
        let kinds: Vec<&'static str> = tracer.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"spill_write"));
        assert!(kinds.contains(&"spill_read"));
        assert!(kinds.contains(&"spill_promote"));
        drop(a);
        // A traced warm start emits the warm_start event.
        let tracer2 = Arc::new(RecordingTracer::new());
        let _b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .tracer(tracer2.clone())
            .spill(SpillConfig::new(dir))
            .build(make_backend())
            .unwrap();
        let kinds: Vec<&'static str> = tracer2.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"warm_start"));
    }

    /// Flips one byte of `key`'s latest record in the segments under
    /// `dir` — the one the index names — simulating at-rest corruption
    /// between sessions.
    fn corrupt_chunk_file(dir: &std::path::Path, key: ChunkKey) {
        let mut magic = SPILL_MAGIC.to_vec();
        magic.extend_from_slice(&SPILL_FORMAT_VERSION.to_le_bytes());
        let packed = key.pack().to_le_bytes();
        // Magic and version, any flags, then the key.
        let head = |w: &[u8]| w[..6] == magic[..] && w[8..] == packed[..];
        let segments = FsSpillIo.list_files(dir, "seg").unwrap();
        let (path, mut bytes, at) = segments
            .into_iter()
            .rev()
            .find_map(|(path, _)| {
                let bytes = std::fs::read(&path).unwrap();
                let at = bytes.windows(16).rposition(head)?;
                Some((path, bytes, at))
            })
            .expect("a record of the key");
        bytes[at + 24] ^= 0xFF; // its benefit
        std::fs::write(&path, &bytes).unwrap();
    }

    /// One corrupt record, met once at warm start and once at
    /// promote-on-miss: both go through `read_checked`, so both charge
    /// the same `SpillMetrics` delta and emit the same two events.
    #[test]
    fn a_corrupt_record_costs_the_same_at_warm_start_and_at_promotion() {
        fn key_of_test() -> ChunkKey {
            ChunkKey::new(make_backend().grid().schema().lattice().base(), 0)
        }
        let key = key_of_test();
        // A directory whose checkpoint holds `key`, damaged at rest.
        let damaged_dir = |tag: &str| {
            let dir = spill_dir(tag);
            let mut mgr = spill_manager_over(dir.clone(), usize::MAX >> 1);
            run_and_check(&mut mgr, &Query::new(key.gb, vec![key.chunk]));
            mgr.checkpoint().unwrap();
            drop(mgr);
            corrupt_chunk_file(&dir, key);
            dir
        };
        type EntryPoint = fn(SpillConfig, Arc<RecordingTracer>) -> SpillMetrics;
        let entry_points: [(&str, EntryPoint); 2] = [
            ("warm-start", |config, tracer| {
                let mut mgr = manager(Strategy::Vcm);
                mgr.set_tracer(Some(tracer));
                assert_eq!(mgr.attach_spill(config).unwrap().spill_reads, 0);
                *mgr.session_spill()
            }),
            ("promote", |config, tracer| {
                // The store attached as is, nothing warm started: the
                // record is first read when a query misses.
                let mut mgr = manager(Strategy::Vcm);
                mgr.set_tracer(Some(tracer));
                mgr.tiering.store = Some(SpillStore::open(config).unwrap());
                let key = key_of_test();
                let mut data = ChunkData::new(mgr.grid().num_dims());
                let mut metrics = QueryMetrics::default();
                let missing =
                    mgr.promote_from_spill(key.gb, vec![key.chunk], &mut data, &mut metrics);
                assert_eq!(missing, [key.chunk]);
                *mgr.session_spill()
            }),
        ];
        let outcomes = entry_points.map(|(tag, enter)| {
            let tracer = Arc::new(RecordingTracer::new());
            let dir = damaged_dir(&format!("samecost-{tag}"));
            let session = enter(SpillConfig::new(dir.clone()), tracer.clone());
            let _ = std::fs::remove_dir_all(&dir);
            (session, tracer.take())
        });
        let [(warm, warm_events), (promote, promote_events)] = outcomes;
        assert_eq!(warm.spill_corrupt, 1);
        assert_eq!(warm.spill_quarantined, 1);
        assert_eq!(warm.spill_reads, 0);
        assert!(warm.spill_virtual_ms > 0.0, "the wasted read is charged");
        assert_eq!(warm, promote, "same ledger delta at both entry points");
        assert_eq!(
            warm_events.iter().map(Event::kind).collect::<Vec<_>>(),
            ["spill_corrupt", "spill_quarantine"]
        );
        assert_eq!(warm_events, promote_events);
    }

    /// A spill directory written under another schema (a stale path) holds
    /// intact records of keys this grid does not have, or has with cells of
    /// another shape. The build succeeds; warm start quarantines every
    /// checkpointed one and admits none; an ingest drops the demoted copies
    /// of chunks the grid lacks instead of indexing it by them; a miss on a
    /// key both grids have quarantines the copy and goes to the backend.
    #[test]
    fn a_spill_directory_from_another_grid_is_quarantined_not_admitted() {
        use aggcache_schema::{Dimension, Schema};
        use aggcache_store::DeltaBatch;
        let dir = spill_dir("foreign-grid");
        // Room for two base chunks: most of what is queried gets demoted.
        let mut a = spill_manager_over(dir.clone(), 160);
        for gb in a.grid().schema().lattice().clone().iter_ids() {
            for chunk in 0..a.grid().n_chunks(gb) {
                run_and_check(&mut a, &Query::new(gb, vec![chunk]));
            }
        }
        let checkpointed = a.checkpoint().unwrap().spill_writes;
        let spilled = a.spill_store().unwrap().len() as u64;
        assert!(0 < checkpointed && checkpointed < spilled);
        drop(a);

        let schema = Arc::new(Schema::new(vec![Dimension::flat("x", 4).unwrap()]).unwrap());
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2]]).unwrap());
        let lattice = grid.schema().lattice().clone();
        let mut cells = ChunkData::new(1);
        for x in 0..4u32 {
            cells.push(&[x], f64::from(x));
        }
        let backend = Backend::new(
            FactTable::load(grid.clone(), lattice.base(), cells),
            AggFn::Sum,
            BackendCostModel::default(),
        );
        let tracer = Arc::new(RecordingTracer::new());
        let mut b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .spill(SpillConfig::new(dir.clone()))
            .build(backend)
            .expect("a foreign checkpoint is recovered from, not fatal");
        assert!(b.cache().is_empty(), "nothing foreign is admitted");
        let warm = *b.session_spill();
        assert_eq!(warm.spill_reads, 0);
        assert_eq!(warm.spill_corrupt, checkpointed);
        assert_eq!(warm.spill_quarantined, checkpointed);
        let kinds: Vec<_> = tracer.take().iter().map(Event::kind).collect();
        assert_eq!(kinds.len() as u64, 2 * checkpointed);
        assert!(kinds
            .chunks(2)
            .all(|pair| pair == ["spill_corrupt", "spill_quarantine"]));

        let mut batch = DeltaBatch::new();
        batch.insert(&[3], 7.0);
        b.ingest(&batch).unwrap();
        let store = b.spill_store().unwrap();
        assert!(store.keys().iter().all(|&key| grid.has_chunk(key)));

        let m = run_and_check(&mut b, &Query::new(lattice.base(), vec![0, 1]));
        assert!(
            m.backend_virtual_ms > 0.0,
            "re-served through the miss path"
        );
        run_and_check(&mut b, &Query::new(lattice.top(), vec![0]));
        assert!(b.spill_store().unwrap().is_empty());
        assert!(b.session_spill().spill_corrupt > warm.spill_corrupt);
        assert_eq!(b.session_spill().spill_reads, 0);
        assert_counts_consistent(&b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The tentpole's recovery guarantee, end to end: a chunk file
    /// corrupted at rest between sessions must not fail the warm start
    /// (pre-PR it surfaced as a `ConfigError::Spill` build error) and must
    /// never corrupt an answer — the damaged record is quarantined and the
    /// chunk re-served through the normal backend miss path.
    #[test]
    fn corrupted_checkpoint_record_self_heals_on_warm_start() {
        let dir = spill_dir("heal");
        let base;
        {
            let mut a = spill_manager_over(dir.clone(), usize::MAX >> 1);
            base = a.grid().schema().lattice().base();
            run_and_check(&mut a, &Query::new(base, vec![0, 1]));
            a.checkpoint().unwrap();
        }
        corrupt_chunk_file(&dir, ChunkKey::new(base, 0));
        let tracer = Arc::new(RecordingTracer::new());
        let mut b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .spill(SpillConfig::new(dir))
            .build(make_backend())
            .unwrap();
        // The damaged record was quarantined during recovery, the intact
        // one warm-started.
        assert_eq!(b.session_spill().spill_corrupt, 1);
        assert_eq!(b.session_spill().spill_quarantined, 1);
        assert!(b.cache().contains(&ChunkKey::new(base, 1)));
        assert!(!b.cache().contains(&ChunkKey::new(base, 0)));
        assert!(!b.spill_store().unwrap().contains(ChunkKey::new(base, 0)));
        let kinds: Vec<&'static str> = tracer.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"spill_corrupt"));
        assert!(kinds.contains(&"spill_quarantine"));
        assert_counts_consistent(&b);
        // The chunk is re-fetched from the backend, answer vs oracle.
        let m = run_and_check(&mut b, &Query::new(base, vec![0]));
        assert!(m.backend_virtual_ms > 0.0, "served via the miss path");
        assert_counts_consistent(&b);
    }

    /// Corruption discovered at promotion time (after a clean warm start)
    /// quarantines the record and falls through to the backend.
    #[test]
    fn corrupt_promotion_read_falls_back_to_backend() {
        let mut mgr = spill_manager("corruptpromote", usize::MAX >> 1);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        mgr.checkpoint().unwrap();
        mgr.evict_chunk(ChunkKey::new(base, 0));
        corrupt_chunk_file(mgr.spill_store().unwrap().dir(), ChunkKey::new(base, 0));
        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(m.backend_virtual_ms > 0.0, "backend re-fetch, not disk");
        assert_eq!(mgr.session_spill().spill_corrupt, 1);
        assert_eq!(mgr.session_spill().spill_quarantined, 1);
        assert_eq!(mgr.session_spill().spill_reads, 0);
        assert!(!mgr.spill_store().unwrap().contains(ChunkKey::new(base, 0)));
        assert_counts_consistent(&mgr);
    }

    /// A deleted index is scavenged from the segments at attach time and
    /// reported through the obs layer.
    #[test]
    fn missing_index_is_scavenged_and_reported() {
        let dir = spill_dir("scavengemgr");
        let base;
        {
            let mut a = spill_manager_over(dir.clone(), usize::MAX >> 1);
            base = a.grid().schema().lattice().base();
            run_and_check(&mut a, &Query::new(base, vec![0, 1]));
            a.checkpoint().unwrap();
        }
        std::fs::remove_file(dir.join("spill.idx")).unwrap();
        let tracer = Arc::new(RecordingTracer::new());
        let b = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .spill(SpillConfig::new(dir))
            .build(make_backend())
            .unwrap();
        assert_eq!(b.session_spill().index_rebuilds, 1);
        assert_eq!(b.spill_store().unwrap().len(), 2);
        let rebuilds: Vec<_> = tracer
            .events()
            .iter()
            .filter(|e| e.kind() == "index_rebuild")
            .cloned()
            .collect();
        assert_eq!(rebuilds.len(), 1);
        match rebuilds[0] {
            Event::IndexRebuild {
                scanned,
                recovered,
                quarantined,
            } => {
                assert_eq!((scanned, recovered, quarantined), (2, 2, 0));
            }
            ref other => panic!("expected IndexRebuild, got {other:?}"),
        }
        // Scavenged records are non-resident: no RAM repopulation happened.
        assert!(!b.cache().contains(&ChunkKey::new(base, 0)));
    }

    /// ENOSPC mid-demotion degrades to the plain-eviction path: counted,
    /// never fatal, count tables stay consistent.
    #[test]
    fn enospc_demotions_degrade_to_plain_evictions() {
        let dir = spill_dir("enospcmgr");
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .spill(SpillConfig::new(dir).fault(DiskFaultProfile {
                enospc_after_bytes: Some(0),
                ..DiskFaultProfile::default()
            }))
            .build(make_backend())
            .unwrap();
        let base = mgr.grid().schema().lattice().base();
        for chunk in 0..3 {
            run_and_check(&mut mgr, &Query::new(base, vec![chunk]));
        }
        assert_eq!(mgr.session_spill().spill_writes, 0);
        assert_eq!(mgr.session_spill().demote_failures, 1);
        assert_eq!(mgr.spill_store().unwrap().len(), 0);
        assert_counts_consistent(&mgr);
    }

    /// The virtual-time scrub scheduler runs a pass once enough query time
    /// accrues, quarantining silently-corrupted records ahead of demand.
    #[test]
    fn scrub_pass_quarantines_ahead_of_demand() {
        let tracer = Arc::new(RecordingTracer::new());
        let dir = spill_dir("scrubmgr");
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .spill(SpillConfig::new(dir).scrub_interval_ms(1.0))
            .build(make_backend())
            .unwrap();
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        mgr.checkpoint().unwrap();
        corrupt_chunk_file(mgr.spill_store().unwrap().dir(), ChunkKey::new(base, 0));
        // Any query accrues far more than 1 virtual ms, firing the scrub.
        run_and_check(&mut mgr, &Query::new(base, vec![1]));
        assert!(mgr.session_spill().scrub_passes >= 1);
        assert_eq!(mgr.session_spill().spill_corrupt, 1);
        assert_eq!(mgr.session_spill().spill_quarantined, 1);
        assert!(!mgr.spill_store().unwrap().contains(ChunkKey::new(base, 0)));
        let kinds: Vec<&'static str> = tracer.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"scrub_pass"));
        // The chunk itself is still RAM-resident (checkpoint does not
        // evict), so answers stay intact; only the dead disk copy is gone.
        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(m.complete_hit);
        assert_counts_consistent(&mgr);
    }

    /// A scrub interval with no corruption present just verifies records:
    /// passes are counted and charged, nothing is quarantined.
    #[test]
    fn clean_scrub_passes_quarantine_nothing() {
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .spill(SpillConfig::new(spill_dir("scrubclean")).scrub_interval_ms(1.0))
            .build(make_backend())
            .unwrap();
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        mgr.checkpoint().unwrap();
        let before = mgr.session_spill().spill_virtual_ms;
        run_and_check(&mut mgr, &Query::new(base, vec![1]));
        assert!(mgr.session_spill().scrub_passes >= 1);
        assert_eq!(mgr.session_spill().spill_quarantined, 0);
        assert_eq!(mgr.spill_store().unwrap().len(), 1);
        assert!(
            mgr.session_spill().spill_virtual_ms > before,
            "scrub reads are charged to SpillMetrics"
        );
    }

    /// A checkpoint that runs out of space part-way keeps what landed and
    /// reports the rest: with room for the first record only, the second
    /// fails, and so does the index after it (ENOSPC counts failed bytes),
    /// which is the checkpoint's error. The next open scavenges the record
    /// that landed.
    #[test]
    fn checkpoint_reports_failed_records() {
        let mut mgr = manager(Strategy::Vcm);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0, 1]));
        let (key, first) = mgr.cache.entries_sorted()[0];
        let first = encode_record(key, 0, first.benefit, &first.data).len() as u64;
        let dir = spill_dir("ckptfail");
        let disk = DiskFaultProfile {
            enospc_after_bytes: Some(first),
            ..DiskFaultProfile::default()
        };
        mgr.attach_spill(SpillConfig::new(&dir).fault(disk))
            .unwrap();
        assert_eq!(mgr.checkpoint().unwrap_err(), SpillError::NoSpace);
        assert_eq!(mgr.spill_store().unwrap().len(), 1, "one record landed");
        let reopened = mgr.attach_spill(SpillConfig::new(&dir)).unwrap();
        assert_eq!(reopened.index_rebuilds, 1);
        assert_eq!(mgr.spill_store().unwrap().keys(), [key]);
    }

    /// Checkpointing without a spill tier is a typed error, not a panic.
    #[test]
    fn checkpoint_without_spill_tier_is_not_attached() {
        let mut mgr = manager(Strategy::Vcm);
        match mgr.checkpoint() {
            Err(SpillError::NotAttached) => {}
            other => panic!("expected NotAttached, got {other:?}"),
        }
        // And it converts into the unified error surface.
        let e: CacheError = SpillError::NotAttached.into();
        assert!(matches!(e, CacheError::Spill(SpillError::NotAttached)));
    }

    /// An ingest's discard survives an index loss: the tombstone it
    /// appends keeps the scavenge from re-indexing the pre-delta record,
    /// so the chunk is re-fetched, not promoted stale.
    #[test]
    fn an_ingests_discard_survives_an_index_loss() {
        use aggcache_store::DeltaBatch;
        let dir = spill_dir("discard-scavenge");
        let mut mgr = spill_manager_over(dir.clone(), 160);
        let base = mgr.grid().schema().lattice().base();
        let stale = ChunkKey::new(base, 0);
        for chunk in 0..3 {
            run_and_check(&mut mgr, &Query::new(base, vec![chunk]));
        }
        assert!(mgr.spill_store().unwrap().contains(stale));
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 1000.0);
        assert_eq!(mgr.ingest(&batch).unwrap().spill_invalidated, 1);
        std::fs::remove_file(dir.join("spill.idx")).unwrap();
        let opened = mgr.attach_spill(SpillConfig::new(&dir)).unwrap();
        assert_eq!(opened.index_rebuilds, 1);
        assert_eq!(opened.spill_corrupt, 0);
        assert!(
            !mgr.spill_store().unwrap().contains(stale),
            "the scavenge re-indexed the pre-delta record"
        );
        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(m.backend_virtual_ms > 0.0, "re-fetched, not promoted");
        assert_counts_consistent(&mgr);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record a scrub quarantined after a bit flip in transit is intact
    /// on disk, and an ingest that stales it cannot retire it (the key is
    /// no longer indexed). The quarantine's own tombstone keeps a later
    /// scavenge from re-indexing it, so the answer still equals the oracle.
    #[test]
    fn a_quarantined_record_stays_out_through_an_ingest_and_an_index_loss() {
        use aggcache_store::DeltaBatch;
        let dir = spill_dir("quarantine-scavenge");
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .spill(SpillConfig::new(&dir).scrub_interval_ms(1.0))
            .build(make_backend())
            .unwrap();
        let base = mgr.grid().schema().lattice().base();
        let stale = ChunkKey::new(base, 0);
        for chunk in 0..3 {
            run_and_check(&mut mgr, &Query::new(base, vec![chunk]));
        }
        assert!(mgr.spill_store().unwrap().contains(stale));
        // Damage the record for one scrub pass, then undo it: the flip
        // happened in transit, and the bytes on disk are intact.
        corrupt_chunk_file(&dir, stale);
        // A backend fetch: far more than 1 virtual ms, firing the scrub.
        run_and_check(&mut mgr, &Query::new(base, vec![3]));
        corrupt_chunk_file(&dir, stale);
        assert!(!mgr.spill_store().unwrap().contains(stale), "quarantined");
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 1000.0);
        assert_eq!(mgr.ingest(&batch).unwrap().spill_invalidated, 0);
        std::fs::remove_file(dir.join("spill.idx")).unwrap();
        let opened = mgr.attach_spill(SpillConfig::new(&dir)).unwrap();
        assert_eq!(opened.index_rebuilds, 1);
        assert!(
            !mgr.spill_store().unwrap().contains(stale),
            "the scavenge re-indexed the quarantined pre-delta record"
        );
        let m = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(m.backend_virtual_ms > 0.0, "re-fetched, not promoted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An ingest that drops a checkpointed spill copy persists the index,
    /// so a reopened store neither lists the dropped key nor counts its
    /// bytes: every entry it keeps reads back.
    #[test]
    fn an_ingest_leaves_no_ghost_entry_in_the_spill_index() {
        use aggcache_store::DeltaBatch;
        let dir = spill_dir("ghost");
        let mut mgr = spill_manager_over(dir.clone(), 160);
        let base = mgr.grid().schema().lattice().base();
        let demoted = ChunkKey::new(base, 0);
        for chunk in 0..3 {
            run_and_check(&mut mgr, &Query::new(base, vec![chunk]));
        }
        assert!(mgr.spill_store().unwrap().contains(demoted));
        mgr.checkpoint().unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 1000.0);
        assert_eq!(mgr.ingest(&batch).unwrap().spill_invalidated, 1);
        drop(mgr);

        let store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        assert!(
            !store.contains(demoted),
            "the dropped copy is still indexed"
        );
        let live: u64 = store
            .keys()
            .into_iter()
            .map(|key| {
                let r = store.read(key).unwrap().expect("an indexed record");
                encode_record(r.key, r.origin, r.benefit, &r.data).len() as u64
            })
            .sum();
        assert_eq!(store.bytes_on_disk(), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The session ledger is the fold of the deltas the manager hands
    /// back — the warm start's, every request's and every checkpoint's, in
    /// call order. Scrubbing is off: a scrub pass is session-only work.
    #[test]
    fn the_session_ledger_is_the_fold_of_the_returned_deltas() {
        let dir = spill_dir("fold");
        let base = make_backend().grid().schema().lattice().base();
        let mut first = spill_manager_over(dir.clone(), usize::MAX >> 1);
        run_and_check(&mut first, &Query::new(base, vec![0, 1]));
        first.checkpoint().unwrap();
        drop(first);
        corrupt_chunk_file(&dir, ChunkKey::new(base, 0));

        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(160)
            .build(make_backend())
            .unwrap();
        let mut fold = mgr.attach_spill(SpillConfig::new(dir.clone())).unwrap();
        assert_eq!((fold.spill_reads, fold.spill_corrupt), (1, 1));
        for chunk in [2, 3, 1, 4, 2, 3, 5, 1, 0] {
            let out = mgr.run(&(&Query::new(base, vec![chunk])).into()).unwrap();
            fold.merge(&out.spill);
        }
        fold.merge(&mgr.checkpoint().unwrap());
        let session = *mgr.session_spill();
        assert!(session.spill_writes > 0, "{session:?}");
        assert!(session.spill_reads > 1, "{session:?}");
        // `{:?}` prints floats in round-trip form: equal text is equal bits.
        assert_eq!(format!("{session:?}"), format!("{fold:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
