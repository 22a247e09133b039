//! The disk tier below the RAM cache — demote-on-evict, promote-on-miss,
//! checkpointed warm starts, scrubbing — and the one ledger
//! ([`SpillMetrics`]) all of it is charged to. Nothing outside this file
//! builds a `SpillMetrics` delta, maps an [`Origin`] to its on-disk code,
//! quarantines a record or emits a spill event; the [`CacheManager`]
//! methods at the bottom are the glue that also needs the admission path.

use super::CacheManager;
use crate::request::SpillMetrics;
use crate::QueryMetrics;
use aggcache_cache::{CachedChunk, Origin};
use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey};
use aggcache_obs::{Event, Tracer};
use aggcache_schema::GroupById;
use aggcache_store::{
    SpillConfig, SpillCostModel, SpillError, SpillRecord, SpillStore, ORIGIN_BACKEND,
    ORIGIN_COMPUTED, ORIGIN_SPILLED,
};
use std::sync::Arc;

/// What a warm start recovered from the spill tier's checkpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmStartReport {
    /// Chunks re-admitted into RAM.
    pub chunks: u64,
    /// Serialized bytes read from disk.
    pub bytes: u64,
    /// Virtual milliseconds charged for the recovery reads.
    pub virtual_ms: f64,
}

/// What a [`CacheManager::checkpoint`] wrote to the spill tier.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointReport {
    /// Resident chunks recorded in the checkpoint.
    pub chunks: u64,
    /// Serialized bytes written (0 for chunks already spilled).
    pub bytes: u64,
    /// Resident chunks whose write failed and were salvaged past
    /// (excluded from the checkpoint, never aborting it).
    pub failed: u64,
    /// Virtual milliseconds charged for the checkpoint writes.
    pub virtual_ms: f64,
}

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

/// The read both warm start and promote-on-miss go through, charged to
/// `delta`. Transient errors retry under the store's
/// [`aggcache_store::RetryPolicy`]; a record that fails its checksum or
/// decode — or is intact but not of `grid`: a key the grid does not have,
/// cells of another dimension count, what a directory checkpointed under
/// another schema holds — is *quarantined* (counted, evented, file set
/// aside) and the chunk falls back to the miss path — corruption costs
/// time, never correctness. Returns the record with its on-disk size and
/// read cost; `None` when the key is not spilled or unreadable (a
/// transient error that outlasts its retries leaves the file in place: it
/// may be intact).
fn read_recovering(
    store: &mut SpillStore,
    grid: &ChunkGrid,
    key: ChunkKey,
    tracer: Option<&dyn Tracer>,
    delta: &mut SpillMetrics,
) -> Option<(SpillRecord, u64, f64)> {
    let bytes = store.bytes_of(key)?;
    let read_ms = SpillCostModel::read_ms(bytes);
    let outcome = store.read_retrying(key);
    delta.spill_retries += outcome.attempts - 1;
    delta.spill_virtual_ms += outcome.retry_virtual_ms;
    let of_grid = |r: &SpillRecord| grid.has_chunk(key) && r.data.n_dims() == grid.num_dims();
    let result = outcome.result.and_then(|record| match record {
        Some(record) if !of_grid(&record) => Err(SpillError::Corrupt {
            reason: "record of another grid",
        }),
        record => Ok(record),
    });
    match result {
        Ok(Some(record)) => {
            delta.spill_reads += 1;
            delta.bytes_read += bytes;
            delta.spill_virtual_ms += read_ms;
            Some((record, bytes, read_ms))
        }
        Err(e) if e.is_corruption() => {
            // The wasted read is still charged.
            delta.spill_virtual_ms += read_ms;
            delta.spill_corrupt += 1;
            if store.quarantine(key).is_some() {
                delta.spill_quarantined += 1;
            }
            if let Some(tracer) = tracer {
                tracer.emit(&Event::SpillCorrupt {
                    gb: key.gb.0,
                    chunk: key.chunk,
                    reason: e.class_name(),
                });
                tracer.emit(&Event::SpillQuarantine {
                    gb: key.gb.0,
                    chunk: key.chunk,
                    bytes,
                });
            }
            None
        }
        Ok(None) | Err(_) => None,
    }
}

/// The spill tier's state: the store (when one is attached), its ledger
/// and the scrub clock. Without a store every method is a no-op.
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

    /// Charges work a query caused to that query and to the session.
    fn charge_query(&mut self, delta: &SpillMetrics) {
        self.query.merge(delta);
        self.session.merge(delta);
    }

    /// Folds any `.corrupt` tombstones the store purged (cap enforcement)
    /// into the session — background hygiene no single query owns.
    fn fold_corrupt_purged(&mut self) {
        if let Some(store) = self.store.as_mut() {
            self.session.corrupt_purged += store.take_corrupt_purged();
        }
    }

    /// Opens a store, reporting the index scavenge if opening needed one.
    /// The store is attached only by [`Tiering::install`], after the warm
    /// start: evictions during it (budget smaller than the checkpoint)
    /// stay plain drops — those chunks are still on disk anyway.
    fn open(&mut self, config: SpillConfig) -> Result<SpillStore, SpillError> {
        let mut store = SpillStore::open(config)?;
        if let Some(rebuild) = store.take_index_rebuild() {
            self.session.merge(&SpillMetrics {
                index_rebuilds: 1,
                spill_corrupt: rebuild.quarantined,
                spill_quarantined: rebuild.quarantined,
                ..SpillMetrics::default()
            });
            self.emit(Event::IndexRebuild {
                scanned: rebuild.scanned,
                recovered: rebuild.recovered,
                quarantined: rebuild.quarantined,
            });
        }
        Ok(store)
    }

    /// Attaches a warm-started store; `reads` (its recovery reads) is
    /// session accounting, not any query's.
    fn install(&mut self, store: SpillStore, reads: &SpillMetrics) -> Option<WarmStartReport> {
        self.session.merge(reads);
        let report = (reads.spill_reads > 0).then_some(WarmStartReport {
            chunks: reads.spill_reads,
            bytes: reads.bytes_read,
            virtual_ms: reads.spill_virtual_ms,
        });
        if let Some(report) = report {
            self.emit(Event::WarmStart {
                chunks: report.chunks,
                bytes: report.bytes,
                virtual_ms: report.virtual_ms,
            });
        }
        self.store = Some(store);
        self.fold_corrupt_purged();
        report
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
            let Ok(bytes) =
                store.write(*key, origin_code(entry.origin), entry.benefit, &entry.data)
            else {
                // ENOSPC, injected fault, OS error: counted, never fatal.
                delta.demote_failures += 1;
                continue;
            };
            let virtual_ms = SpillCostModel::write_ms(bytes);
            delta.spill_writes += 1;
            delta.bytes_written += bytes;
            delta.spill_virtual_ms += virtual_ms;
            if let Some(tracer) = &self.tracer {
                tracer.emit(&Event::SpillWrite {
                    gb: key.gb.0,
                    chunk: key.chunk,
                    bytes,
                    virtual_ms,
                });
            }
        }
        self.charge_query(&delta);
    }

    /// Reads one missing chunk back for the running query.
    fn read(
        &mut self,
        grid: &ChunkGrid,
        key: ChunkKey,
        delta: &mut SpillMetrics,
    ) -> Option<SpillRecord> {
        let store = self.store.as_mut()?;
        let (record, bytes, virtual_ms) =
            read_recovering(store, grid, key, self.tracer.as_deref(), delta)?;
        self.emit(Event::SpillRead {
            gb: key.gb.0,
            chunk: key.chunk,
            bytes,
            virtual_ms,
        });
        Some(record)
    }

    /// Records whether the RAM cache took a read-back chunk.
    fn promoted(&self, key: ChunkKey, admitted: bool, delta: &mut SpillMetrics) {
        delta.spill_promotes += u64::from(admitted);
        self.emit(Event::SpillPromote {
            gb: key.gb.0,
            chunk: key.chunk,
            admitted,
        });
    }

    /// Advances the scrub clock by one query's virtual time and runs a
    /// scrub pass each time [`SpillConfig::scrub_interval_ms`] elapses (a
    /// no-op without one). Scrub costs are charged to the *session* only —
    /// background maintenance no single query owns. Driven by virtual
    /// time, the schedule is bit-identical across runs and thread counts.
    pub(super) fn end_query(&mut self, query_ms: f64) {
        let Some(interval) = self.store.as_ref().and_then(|s| s.scrub_interval_ms()) else {
            return;
        };
        self.scrub_accum_ms += query_ms;
        while self.scrub_accum_ms >= interval {
            self.scrub_accum_ms -= interval;
            let report = self.store.as_mut().expect("checked above").scrub();
            self.session.merge(&SpillMetrics {
                spill_corrupt: report.corrupt,
                spill_quarantined: report.quarantined,
                spill_retries: report.retries,
                scrub_passes: 1,
                spill_virtual_ms: report.virtual_ms,
                ..SpillMetrics::default()
            });
            self.emit(Event::ScrubPass {
                scanned: report.scanned,
                corrupt: report.corrupt,
                quarantined: report.quarantined,
                virtual_ms: report.virtual_ms,
            });
        }
        self.fold_corrupt_purged();
    }

    /// Writes `resident` (the RAM population) as the store's checkpoint.
    fn checkpoint(
        &mut self,
        resident: Vec<(ChunkKey, &CachedChunk)>,
    ) -> Result<CheckpointReport, SpillError> {
        let store = self.store.as_mut().ok_or(SpillError::NotAttached)?;
        let stats = store.checkpoint(
            resident
                .into_iter()
                .map(|(key, e)| (key, origin_code(e.origin), e.benefit, &e.data)),
        )?;
        let virtual_ms = SpillCostModel::checkpoint_ms(stats.chunks, stats.bytes);
        self.session.merge(&SpillMetrics {
            spill_writes: stats.chunks,
            bytes_written: stats.bytes,
            demote_failures: stats.failed,
            spill_virtual_ms: virtual_ms,
            ..SpillMetrics::default()
        });
        Ok(CheckpointReport {
            chunks: stats.chunks,
            bytes: stats.bytes,
            failed: stats.failed,
            virtual_ms,
        })
    }

    /// Drops every spilled copy `stale` selects (ascending key sweep);
    /// returns the keys dropped. A copy whose file can be neither deleted
    /// nor set aside still leaves the index, so it is never promoted.
    pub(super) fn discard(&mut self, mut stale: impl FnMut(ChunkKey) -> bool) -> Vec<ChunkKey> {
        let Some(store) = self.store.as_mut() else {
            return Vec::new();
        };
        let mut dropped = store.keys();
        dropped.retain(|&key| {
            stale(key)
                && store
                    .remove(key)
                    .unwrap_or_else(|_| store.quarantine(key).is_some())
        });
        dropped
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
    /// ascending packed-key order, with its original origin and benefit —
    /// through the normal admission path, so count/cost tables are rebuilt
    /// exactly as if the chunks had just been inserted. Recovery reads are
    /// charged to the session's spill accounting, and one
    /// [`Event::WarmStart`] is emitted. Returns `None` when the directory
    /// held no checkpoint.
    ///
    /// Attachment *self-heals* rather than failing: a missing or corrupt
    /// index is scavenged by [`SpillStore::open`] (reported via
    /// [`Event::IndexRebuild`]), a resident record that fails its checksum
    /// is quarantined and skipped (a cold miss later), and transient read
    /// errors retry under the store's policy. Only an unopenable directory
    /// or invalid configuration is an error.
    pub fn attach_spill(
        &mut self,
        config: SpillConfig,
    ) -> Result<Option<WarmStartReport>, SpillError> {
        let mut store = self.tiering.open(config)?;
        let mut reads = SpillMetrics::default();
        for (key, code, benefit, _) in store.resident_entries() {
            let tracer = self.tiering.tracer.as_deref();
            let read = read_recovering(&mut store, &self.grid, key, tracer, &mut reads);
            if let Some((record, ..)) = read {
                self.insert_chunk(key, record.data, origin_from_code(code), benefit);
            }
        }
        Ok(self.tiering.install(store, &reads))
    }

    /// Checkpoints the RAM-resident population to the spill tier, so the
    /// next session's [`CacheManager::attach_spill`] warm-starts from it.
    /// Every resident chunk is (re)written and marked resident, replacing
    /// any previous checkpoint's marks; writes are charged to the
    /// session's spill accounting.
    ///
    /// Checkpoints are salvaged record-by-record: a chunk whose write
    /// fails (ENOSPC, injected fault, OS error) is skipped and counted in
    /// [`CheckpointReport::failed`] while the rest proceeds. Fails with
    /// [`SpillError::NotAttached`] when no spill tier is attached, or when
    /// the index itself cannot be persisted.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, SpillError> {
        self.tiering.checkpoint(self.cache.entries_sorted())
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
            let Some(record) = self.tiering.read(&self.grid, key, &mut delta) else {
                still_missing.push(chunk);
                continue;
            };
            result.append(&record.data);
            let (admitted, update_ns) =
                self.insert_chunk(key, record.data, Origin::Spilled, record.benefit);
            metrics.update_ns += update_ns;
            self.tiering.promoted(key, admitted, &mut delta);
        }
        self.tiering.charge_query(&delta);
        self.tiering.fold_corrupt_purged();
        still_missing
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;
    use crate::error::CacheError;
    use crate::lookup::Strategy;
    use aggcache_store::{DiskFaultProfile, DEFAULT_MAX_CORRUPT_FILES};
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
        // victim's encode + `fs::write`: were the demotion on the update
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
            let report = a.checkpoint().unwrap();
            assert!(report.chunks > 0);
            assert!(report.virtual_ms > 0.0);
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
        let report = b
            .attach_spill(SpillConfig::new(dir))
            .unwrap()
            .expect("checkpoint present");
        assert_eq!(report.chunks, 1);
        assert!(report.bytes > 0);
        assert!(report.virtual_ms > 0.0);
        let m = run_and_check(&mut b, &Query::new(base, vec![0]));
        assert!(m.complete_hit);
    }

    /// The PR 8 bugfix regression: a demotion whose disk write fails must
    /// degrade to a plain eviction — `on_evict` still fires, so the count
    /// tables stay consistent with the RAM population, and the chunk is
    /// simply re-fetched from the backend next time.
    #[test]
    fn failed_spill_write_falls_back_to_plain_eviction() {
        let mut mgr = spill_manager("failwrite", 160);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        run_and_check(&mut mgr, &Query::new(base, vec![1]));
        mgr.tiering.store.as_mut().unwrap().fail_next_writes(1);
        // Evicts chunk 0; its demotion write fails.
        run_and_check(&mut mgr, &Query::new(base, vec![2]));
        let store = mgr.spill_store().unwrap();
        assert_eq!(store.len(), 0, "failed write must not land in the index");
        assert!(!mgr.cache().contains(&ChunkKey::new(base, 0)));
        assert_eq!(mgr.session_spill().spill_writes, 0);
        // The fix: the count table wound down despite the failed demotion.
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

    /// Flips one byte in the spill file of `key` under `dir`, simulating
    /// at-rest corruption between sessions.
    fn corrupt_chunk_file(dir: &std::path::Path, key: ChunkKey) {
        let path = dir.join(format!("{:016x}.chunk", key.pack()));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
    }

    /// One corrupt record, met once at warm start and once at
    /// promote-on-miss: both go through `read_recovering`, so both charge
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
                assert!(mgr.attach_spill(config).unwrap().is_none());
                *mgr.session_spill()
            }),
            ("promote", |config, tracer| {
                // A bare `Tiering` over the same directory, nothing warm
                // started: the record is first read when a query misses.
                let mut tiering = Tiering::default();
                tiering.set_tracer(Some(tracer));
                let store = SpillStore::open(config).unwrap();
                tiering.install(store, &SpillMetrics::default());
                let mut delta = SpillMetrics::default();
                let grid = make_backend().grid().clone();
                assert!(tiering.read(&grid, key_of_test(), &mut delta).is_none());
                tiering.charge_query(&delta);
                tiering.fold_corrupt_purged();
                tiering.session
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
        let checkpointed = a.checkpoint().unwrap().chunks;
        let spilled = a.spill_store().unwrap().len() as u64;
        assert!(0 < checkpointed && checkpointed < spilled);
        drop(a);

        let schema = Arc::new(Schema::new(vec![Dimension::flat("x", 4).unwrap()], "m").unwrap());
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

    /// A deleted index is scavenged from the data files at attach time and
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

    /// A partially failing checkpoint salvages what it can and reports the
    /// casualties.
    #[test]
    fn checkpoint_reports_failed_records() {
        let mut mgr = spill_manager("ckptfail", usize::MAX >> 1);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0, 1]));
        mgr.tiering.store.as_mut().unwrap().fail_next_writes(1);
        let report = mgr.checkpoint().unwrap();
        assert_eq!(report.failed, 1);
        assert_eq!(report.chunks, 1);
        assert_eq!(mgr.session_spill().demote_failures, 1);
        assert_eq!(mgr.spill_store().unwrap().len(), 1);
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

    /// Satellite regression: `.corrupt` tombstones past the retention cap
    /// are purged, and the purge is visible in `SpillMetrics`.
    #[test]
    fn quarantine_purge_folds_into_spill_metrics() {
        let dir = spill_dir("purgefold");
        let base;
        {
            let mut a = spill_manager_over(dir.clone(), usize::MAX >> 1);
            base = a.grid().schema().lattice().base();
            run_and_check(&mut a, &Query::new(base, vec![0]));
            a.checkpoint().unwrap();
        }
        corrupt_chunk_file(&dir, ChunkKey::new(base, 0));
        // A backlog two past the cap: the open purges two, and the warm
        // start's own quarantine pushes one more over.
        for i in 0..DEFAULT_MAX_CORRUPT_FILES + 2 {
            std::fs::write(dir.join(format!("backlog{i:02}.corrupt")), b"junk").unwrap();
        }
        let b = spill_manager_over(dir.clone(), usize::MAX >> 1);
        assert_eq!(b.session_spill().spill_quarantined, 1);
        assert_eq!(b.session_spill().corrupt_purged, 3);
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".corrupt"))
            .count();
        assert_eq!(leftovers, DEFAULT_MAX_CORRUPT_FILES, "the cap holds");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
