//! Base-data maintenance: delta ingestion and its propagation up the
//! lattice to every resident or spilled chunk, charged to its own ledger
//! ([`UpdateMetrics`]) and never to a query's.

use super::CacheManager;
use crate::error::CacheError;
use crate::metrics::UPDATE_PER_WRITE_US;
use crate::request::UpdateMetrics;
use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey, ChunkNumber};
use aggcache_obs::Event;
use aggcache_schema::GroupById;
use aggcache_store::{AggFn, Aggregator, DeltaBatch, EffectiveDelta, Lift};
use std::collections::HashMap;
use std::ops::Range;

/// Where one side (inserts or deletes) of an effective delta lands in one
/// group-by: each tuple's target chunk, in order, and the sorted set hit.
struct Landing {
    chunks: Vec<ChunkNumber>,
    hit: Vec<ChunkNumber>,
}

impl Landing {
    fn of(grid: &ChunkGrid, fact_level: &[u8], gb: GroupById, data: &ChunkData) -> Self {
        let geom = grid.geom(gb);
        let level = geom.level();
        let n = grid.num_dims();
        let mut chunk_coords = vec![0u32; n];
        let mut chunks = Vec::with_capacity(data.len());
        for (coords, _) in data.iter() {
            for d in 0..n {
                let dim = grid.schema().dimension(d);
                let rolled = dim.ancestor_value(fact_level[d], level[d], coords[d]);
                chunk_coords[d] = grid.dim(d).chunk_of_value(level[d], rolled);
            }
            chunks.push(geom.linearize(&chunk_coords));
        }
        let mut hit = chunks.clone();
        hit.sort_unstable();
        hit.dedup();
        Self { chunks, hit }
    }

    fn hits(&self, chunk: ChunkNumber) -> bool {
        self.hit.binary_search(&chunk).is_ok()
    }

    /// The tuples of `data` (this landing's side) that roll up into `chunk`.
    fn share<'a>(
        &'a self,
        data: &'a ChunkData,
        chunk: ChunkNumber,
    ) -> impl Iterator<Item = (&'a [u32], f64)> {
        data.iter()
            .zip(&self.chunks)
            .filter(move |(_, &c)| c == chunk)
            .map(|(tuple, _)| tuple)
    }
}

/// One group-by's view of an effective delta, built lazily: only
/// group-bys with resident or spilled chunks pay for the mapping.
struct GbDelta {
    inserts: Landing,
    deletes: Landing,
}

impl GbDelta {
    fn build(grid: &ChunkGrid, fact_level: &[u8], gb: GroupById, eff: &EffectiveDelta) -> Self {
        debug_assert!(
            grid.geom(gb)
                .level()
                .iter()
                .zip(fact_level)
                .all(|(g, f)| g <= f),
            "resident chunks always live at levels computable from the fact table"
        );
        Self {
            inserts: Landing::of(grid, fact_level, gb, &eff.inserted),
            deletes: Landing::of(grid, fact_level, gb, &eff.deleted),
        }
    }

    /// Whether any effective insert or delete lands in `chunk`.
    fn affects(&self, chunk: ChunkNumber) -> bool {
        self.inserts.hits(chunk) || self.deletes.hits(chunk)
    }
}

/// The first cell of `data[range]` whose coordinates do not sort before
/// `coords` (`range.end` if none), for coordinate-sorted `data`.
fn lower_bound(data: &ChunkData, range: Range<usize>, coords: &[u32]) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if data.coords_of(mid) < coords {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Folds a patch's few coordinate-sorted `delta` cells into a resident
/// chunk's `old` cells. A cell in both becomes `agg.combine(old, delta)` —
/// the operand order the aggregation kernel combines in, so the bits are
/// those of re-aggregating both — and a delta cell that matched nothing
/// enters at its sorted position.
///
/// Each *old* cell is looked up in `delta`, not the reverse, so the content
/// is right whatever order `old` is in; the order equals a fresh
/// recompute's because every producer of resident data
/// ([`Aggregator::finish`], a spill decode or peer copy of one) emits
/// coordinate-sorted cells.
fn merge_cells(old: &ChunkData, delta: &ChunkData, agg: AggFn) -> ChunkData {
    let n = old.n_dims();
    let mut values = old.raw_values().to_vec();
    let mut matched = vec![false; delta.len()];
    for (value, coords) in values.iter_mut().zip(old.raw_coords().chunks_exact(n)) {
        let j = lower_bound(delta, 0..delta.len(), coords);
        if j < delta.len() && delta.coords_of(j) == coords {
            *value = agg.combine(*value, delta.value_of(j));
            matched[j] = true;
        }
    }
    let new_cells = matched.iter().filter(|&&m| !m).count();
    let mut out_coords = Vec::with_capacity((old.len() + new_cells) * n);
    let mut out_values = Vec::with_capacity(old.len() + new_cells);
    let mut from = 0;
    for j in (0..delta.len()).filter(|&j| !matched[j]) {
        let at = lower_bound(old, from..old.len(), delta.coords_of(j));
        out_coords.extend_from_slice(&old.raw_coords()[from * n..at * n]);
        out_values.extend_from_slice(&values[from..at]);
        out_coords.extend_from_slice(delta.coords_of(j));
        out_values.push(delta.value_of(j));
        from = at;
    }
    out_coords.extend_from_slice(&old.raw_coords()[from * n..]);
    out_values.extend_from_slice(&values[from..]);
    ChunkData::from_raw(n, out_coords, out_values)
}

impl CacheManager {
    /// Session-cumulative base-data maintenance accounting: every
    /// [`CacheManager::ingest`] since construction (or the last
    /// [`CacheManager::reset_session`]). All zeros until the first ingest.
    pub fn session_updates(&self) -> &UpdateMetrics {
        &self.update_session
    }

    /// Applies a batch of base-data inserts/updates/deletes (an update is
    /// the standard delete-plus-insert encoding) and maintains the cache
    /// *incrementally*: the batch lands in the fact table's base chunks,
    /// then propagates up the lattice to every resident descendant chunk.
    ///
    /// Per-chunk policy, by aggregate function:
    ///
    /// * **COUNT** is self-maintainable under inserts and deletes: the
    ///   chunk's share of the delta is rolled up and patched in place
    ///   (deletes enter as negative deltas). A cell whose count returns to
    ///   zero is dropped; a chunk left empty is evicted (`"emptied"`).
    /// * **SUM** is self-maintainable under inserts only (a zero sum is a
    ///   legitimate value, so a patched chunk could not tell "no tuples"
    ///   from "sums to zero"): chunks hit by a delete are invalidated
    ///   (`"sum_delete"`).
    /// * **MIN/MAX** are not self-maintainable — deleting the extremum
    ///   needs the runner-up, which the chunk no longer holds: every
    ///   affected chunk is invalidated (`"min_max"`) and re-serves through
    ///   the miss path.
    ///
    /// Patches and invalidations go through the table-maintaining
    /// admission/eviction paths, so the count/cost tables stay consistent
    /// with the cache; stale spilled copies leave the spill index. All
    /// maintenance cost lands in the returned [`UpdateMetrics`] (and
    /// [`CacheManager::session_updates`]) — strictly outside
    /// [`crate::QueryMetrics`], preserving the per-query
    /// `total = backend + agg + lookup + update` identity bit-for-bit.
    ///
    /// An empty batch is a guaranteed no-op: no fact-table write, no
    /// version bump, no events — answers, cache contents and metrics stay
    /// bit-identical to a session that never called this.
    ///
    /// Fails with [`CacheError::Delta`] when the batch fails validation
    /// (wrong coordinate arity or an out-of-range coordinate); the fact
    /// table, the cache and every table are untouched.
    pub fn ingest(&mut self, batch: &DeltaBatch) -> Result<UpdateMetrics, CacheError> {
        if batch.is_empty() {
            return Ok(UpdateMetrics::default());
        }
        let writes_before = self.tables.updates();
        let eff = self.backend.apply_delta(batch)?;
        let mut m = UpdateMetrics {
            delta_batches: 1,
            tuples_inserted: eff.inserted.len() as u64,
            tuples_deleted: eff.deleted.len() as u64,
            deletes_unmatched: eff.unmatched_deletes,
            base_chunks_touched: eff.base_chunks.len() as u64,
            ..UpdateMetrics::default()
        };
        let rolled_up = if eff.is_empty() {
            0
        } else {
            self.propagate_delta(&eff, &mut m)
        };
        m.table_writes = self.tables.updates() - writes_before;
        m.update_virtual_ms =
            (eff.num_tuples() + rolled_up) as f64 * self.config.cache_per_tuple_us / 1000.0
                + m.table_writes as f64 * UPDATE_PER_WRITE_US / 1000.0;
        self.update_session.merge(&m);
        self.emit(|| Event::DeltaIngest {
            inserts: m.tuples_inserted,
            deletes: m.tuples_deleted,
            unmatched: m.deletes_unmatched,
            base_chunks: m.base_chunks_touched,
            patched: m.chunks_patched,
            invalidated: m.chunks_invalidated,
            table_writes: m.table_writes,
            virtual_ms: m.update_virtual_ms,
        });
        Ok(m)
    }

    /// Pushes an effective delta up the lattice: every resident chunk a
    /// delta tuple rolls into is patched in place or invalidated per the
    /// policy documented on [`CacheManager::ingest`], then stale spilled
    /// copies are dropped. Returns the tuples rolled through the
    /// aggregation kernel, for the virtual-time charge.
    fn propagate_delta(&mut self, eff: &EffectiveDelta, m: &mut UpdateMetrics) -> u64 {
        let grid = self.grid.clone();
        let agg = self.backend.agg();
        let fact_level = grid.geom(self.backend.fact().gb()).level().to_vec();
        let mut per_gb: HashMap<u32, GbDelta> = HashMap::new();
        let mut rolled_up: u64 = 0;

        // Deterministic sweep order: ascending packed key, like every
        // other whole-cache enumeration.
        let mut resident: Vec<ChunkKey> = self.cache.keys().collect();
        resident.sort_unstable_by_key(|k| k.pack());
        for key in resident {
            let gbd = per_gb
                .entry(key.gb.0)
                .or_insert_with(|| GbDelta::build(&grid, &fact_level, key.gb, eff));
            if !gbd.affects(key.chunk) {
                continue;
            }
            // Re-check residency: an earlier re-admission may have evicted
            // this chunk as a policy victim (the spill sweep below catches
            // any demoted copy).
            let Some(old) = self.cache.peek(&key) else {
                continue;
            };
            let reason = match agg {
                AggFn::Min | AggFn::Max => Some("min_max"),
                AggFn::Sum if gbd.deletes.hits(key.chunk) => Some("sum_delete"),
                AggFn::Sum | AggFn::Count => None,
            };
            if let Some(reason) = reason {
                self.invalidate_resident(key, reason, m);
                continue;
            }
            // Self-maintainable: roll the chunk's share of the delta up
            // to the chunk's level (deletes as negated lifted values),
            // then merge the few sorted delta cells into the cached cells.
            let (origin, benefit) = (old.origin, old.benefit);
            let mut share = ChunkData::new(grid.num_dims());
            for (c, v) in gbd.inserts.share(&eff.inserted, key.chunk) {
                share.push(c, agg.lift(v));
            }
            for (c, v) in gbd.deletes.share(&eff.deleted, key.chunk) {
                share.push(c, -agg.lift(v));
            }
            let mut patch = Aggregator::new(grid.schema(), grid.geom(key.gb).level(), agg);
            patch.add_chunk(&fact_level, &share, Lift::Lifted);
            let tuples = patch.cells_added();
            let delta_cells = patch.finish();
            rolled_up += tuples + (old.data.len() + delta_cells.len()) as u64;
            let merged_data = merge_cells(&old.data, &delta_cells, agg);
            // COUNT cells whose count returned to zero hold no tuples:
            // drop them so the patched chunk matches a fresh recompute.
            let new_data = if matches!(agg, AggFn::Count) {
                let mut kept = ChunkData::with_capacity(grid.num_dims(), merged_data.len());
                for (c, v) in merged_data.iter().filter(|&(_, v)| v != 0.0) {
                    kept.push(c, v);
                }
                kept
            } else {
                merged_data
            };
            m.cells_patched += delta_cells.len() as u64;
            if new_data.is_empty() {
                // Every cell's count hit zero: the chunk holds nothing,
                // so it leaves the cache and the presence index.
                self.invalidate_resident(key, "emptied", m);
                continue;
            }
            let (admitted, _table_ns) = self.insert_chunk(key, new_data, origin, benefit);
            if admitted {
                m.chunks_patched += 1;
                self.emit(|| Event::ChunkPatch {
                    gb: key.gb.0,
                    chunk: key.chunk,
                    cells: delta_cells.len() as u64,
                    tuples,
                });
            } else {
                // A refused replace keeps the OLD (now stale) entry
                // resident — evict it rather than ever serve pre-update
                // data (a no-op if the cache already destroyed it).
                self.invalidate_resident(key, "refused", m);
            }
        }

        // Stale spilled copies: any on-disk chunk the delta touches is
        // dropped from the spill index — conservatively including copies
        // demoted during the sweep above, which are re-fetched rather
        // than trusted.
        let dropped = self.tiering.discard(|key| {
            // A copy of a chunk the grid does not have (a directory another
            // schema wrote) was never valid.
            !grid.has_chunk(key)
                || per_gb
                    .entry(key.gb.0)
                    .or_insert_with(|| GbDelta::build(&grid, &fact_level, key.gb, eff))
                    .affects(key.chunk)
        });
        for key in dropped {
            m.spill_invalidated += 1;
            self.emit(|| Event::ChunkInvalidate {
                gb: key.gb.0,
                chunk: key.chunk,
                reason: "spilled",
            });
        }
        rolled_up
    }

    /// Evicts one resident chunk staled by a delta through the normal
    /// table-maintaining path, and reports it.
    fn invalidate_resident(&mut self, key: ChunkKey, reason: &'static str, m: &mut UpdateMetrics) {
        self.evict_chunk(key);
        m.chunks_invalidated += 1;
        self.emit(|| Event::ChunkInvalidate {
            gb: key.gb.0,
            chunk: key.chunk,
            reason,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;
    use std::sync::Arc;

    fn manager_with(strategy: Strategy, agg: AggFn) -> CacheManager {
        CacheManager::builder()
            .strategy(strategy)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .build(backend_with(agg))
            .unwrap()
    }

    /// Makes every chunk of every group-by resident.
    fn populate_lattice(mgr: &mut CacheManager) {
        let grid = mgr.grid().clone();
        let lattice = grid.schema().lattice().clone();
        for gb in lattice.iter_ids() {
            run_and_check(mgr, &Query::full_group_by(&grid, gb));
        }
    }

    /// Re-checks every group-by's full answer against the (post-update)
    /// backend oracle.
    fn check_lattice(mgr: &mut CacheManager) {
        let grid = mgr.grid().clone();
        let lattice = grid.schema().lattice().clone();
        for gb in lattice.iter_ids() {
            run_and_check(mgr, &Query::full_group_by(&grid, gb));
        }
    }

    #[test]
    fn ingest_empty_batch_is_a_guaranteed_no_op() {
        let tracer = Arc::new(RecordingTracer::new());
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .build(make_backend())
            .unwrap();
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        let version = mgr.version();
        let events_before = tracer.events().len();
        let m = mgr.ingest(&DeltaBatch::new()).unwrap();
        assert_eq!(m, UpdateMetrics::default());
        assert_eq!(mgr.version(), version, "no version bump");
        assert_eq!(mgr.session_updates(), &UpdateMetrics::default());
        assert_eq!(tracer.events().len(), events_before, "no events");
    }

    #[test]
    fn ingest_patches_sum_chunks_for_insert_only_batches() {
        let mut mgr = manager(Strategy::Vcm);
        populate_lattice(&mut mgr);
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 100.0).insert(&[7, 3], 50.0);
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!(m.delta_batches, 1);
        assert_eq!(m.tuples_inserted, 2);
        assert_eq!(m.tuples_deleted, 0);
        assert_eq!(m.base_chunks_touched, 2);
        assert!(m.chunks_patched > 0, "resident descendants patch in place");
        assert_eq!(m.chunks_invalidated, 0, "insert-only SUM never invalidates");
        assert!(m.cells_patched > 0);
        assert!(m.update_virtual_ms > 0.0);
        assert_counts_consistent(&mgr);
        // Every post-update answer matches a fresh recompute, and every
        // query stays a complete hit: the patches really landed in place.
        let grid = mgr.grid().clone();
        let lattice = grid.schema().lattice().clone();
        for gb in lattice.iter_ids() {
            let mq = run_and_check(&mut mgr, &Query::full_group_by(&grid, gb));
            assert!(mq.complete_hit, "patched chunks stay resident");
        }
    }

    #[test]
    fn ingest_invalidates_sum_chunks_hit_by_deletes() {
        let mut mgr = manager(Strategy::Vcm);
        populate_lattice(&mut mgr);
        // Delete one real tuple (value x + 10y) and insert elsewhere.
        let mut batch = DeltaBatch::new();
        batch.delete(&[5, 2], 25.0).insert(&[0, 0], 7.0);
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!(m.tuples_deleted, 1);
        assert_eq!(m.deletes_unmatched, 0);
        assert!(
            m.chunks_invalidated > 0,
            "delete-hit SUM chunks re-serve via the miss path"
        );
        assert!(m.chunks_patched > 0, "insert-only chunks still patch");
        assert_counts_consistent(&mgr);
        // The invalidated base chunk is a miss now; answers are right
        // across the whole lattice afterwards.
        let grid = mgr.grid().clone();
        let base = grid.schema().lattice().base();
        let mq = run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
        assert!(!mq.complete_hit);
        check_lattice(&mut mgr);
        assert_counts_consistent(&mgr);
    }

    #[test]
    fn ingest_count_patches_through_deletes_and_drops_emptied_chunks() {
        let mut mgr = manager_with(Strategy::Vcm, AggFn::Count);
        populate_lattice(&mut mgr);
        let base = mgr.grid().schema().lattice().base();
        // Remove every tuple of base chunk 0 (x in {0,1} × y in {0,1}).
        let mut batch = DeltaBatch::new();
        for x in 0..2u32 {
            for y in 0..2u32 {
                batch.delete(&[x, y], f64::from(x + y * 10));
            }
        }
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!(m.tuples_deleted, 4);
        assert!(m.chunks_patched > 0, "COUNT deletes patch in place");
        assert_eq!(
            m.chunks_invalidated, 1,
            "exactly the fully-emptied base chunk leaves the cache"
        );
        assert!(
            !mgr.cache().contains(&ChunkKey::new(base, 0)),
            "a chunk whose tuple count hit zero leaves the presence index"
        );
        assert_counts_consistent(&mgr);
        check_lattice(&mut mgr);
        assert_counts_consistent(&mgr);
    }

    #[test]
    fn ingest_count_patch_takes_inserts_and_deletes_in_one_chunk() {
        let mut mgr = manager_with(Strategy::Vcm, AggFn::Count);
        populate_lattice(&mut mgr);
        // All four records land in base chunk 0 (x in {0,1} × y in {0,1}):
        // a delete between two inserts, one insert into the deleted cell.
        let mut batch = DeltaBatch::new();
        batch
            .insert(&[0, 0], 5.0)
            .delete(&[1, 1], 11.0)
            .insert(&[1, 1], 3.0)
            .insert(&[0, 1], 9.0);
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!((m.tuples_inserted, m.tuples_deleted), (3, 1));
        assert!(m.chunks_patched > 0);
        assert_eq!(m.chunks_invalidated, 0, "COUNT patches through deletes");
        // Every patched chunk equals a fresh recompute bit for bit.
        let keys: Vec<ChunkKey> = mgr.cache().keys().collect();
        for key in keys {
            let fresh = mgr.backend().fetch(key.gb, &[key.chunk]).unwrap();
            let (want, got) = (&fresh.chunks[0].1, &mgr.cache().peek(&key).unwrap().data);
            assert_eq!(got.raw_coords(), want.raw_coords(), "{key:?}");
            let same_bits = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
            assert!(
                got.raw_values()
                    .iter()
                    .zip(want.raw_values())
                    .all(same_bits),
                "{key:?}"
            );
        }
        assert_counts_consistent(&mgr);
    }

    fn assert_same_bits(got: &ChunkData, want: &ChunkData, ctx: &str) {
        assert_eq!(got.raw_coords(), want.raw_coords(), "{ctx}: coords");
        let bits = |d: &ChunkData| {
            d.raw_values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(got), bits(want), "{ctx}: value bits");
    }

    #[test]
    fn sum_patch_is_right_whatever_order_the_residents_cells_are_in() {
        for reversed in [false, true] {
            let mut mgr = manager(Strategy::Vcm);
            let base = mgr.grid().schema().lattice().base();
            let key = ChunkKey::new(base, 0);
            let fetch =
                |mgr: &CacheManager| mgr.backend().fetch(base, &[0]).unwrap().chunks.remove(0).1;
            let sorted = fetch(&mgr);
            let mut resident = ChunkData::new(2);
            for i in 0..sorted.len() {
                let i = if reversed { sorted.len() - 1 - i } else { i };
                resident.push(sorted.coords_of(i), sorted.value_of(i));
            }
            assert!(mgr.insert_chunk(key, resident, Origin::Backend, 1.0).0);
            let mut batch = DeltaBatch::new();
            batch.insert(&[0, 1], 2.5).insert(&[1, 0], 0.25);
            let m = mgr.ingest(&batch).unwrap();
            assert_eq!((m.chunks_patched, m.chunks_invalidated), (1, 0));
            let mut got = mgr.cache().peek(&key).unwrap().data.clone();
            if reversed {
                // Each old cell found its delta; the order is the resident's.
                assert_eq!(got.coords_of(0), &[1, 1]);
                got.sort_by_coords();
            }
            assert_same_bits(&got, &fetch(&mgr), &format!("reversed={reversed}"));
        }
    }

    #[test]
    fn merge_cells_places_new_cells_where_a_recompute_would() {
        let backend = make_backend();
        let schema = backend.grid().schema().clone();
        let level = schema.base_level();
        let cells = |cells: &[([u32; 2], f64)]| {
            let mut data = ChunkData::new(2);
            for (coords, value) in cells {
                data.push(coords, *value);
            }
            data
        };
        let old = cells(&[([1, 1], 0.1), ([3, 0], 0.2), ([5, 2], 0.3)]);
        // Before the first old cell, on one, between two (twice), after the last.
        let delta = cells(&[
            ([0, 3], 1.5),
            ([1, 1], 0.7),
            ([2, 0], 2.5),
            ([4, 1], 3.5),
            ([7, 3], 4.5),
        ]);
        // The recompute: both shares through the aggregation kernel.
        let mut recompute = Aggregator::new(&schema, &level, AggFn::Sum);
        recompute.add_chunk(&level, &old, Lift::Lifted);
        recompute.add_chunk(&level, &delta, Lift::Lifted);
        let want = recompute.finish();
        assert_same_bits(&merge_cells(&old, &delta, AggFn::Sum), &want, "sorted");

        let reversed = cells(&[([5, 2], 0.3), ([3, 0], 0.2), ([1, 1], 0.1)]);
        let mut got = merge_cells(&reversed, &delta, AggFn::Sum);
        got.sort_by_coords();
        assert_same_bits(&got, &want, "reversed");

        let none = ChunkData::new(2);
        assert_same_bits(&merge_cells(&old, &none, AggFn::Sum), &old, "empty delta");
        assert_same_bits(&merge_cells(&none, &delta, AggFn::Sum), &delta, "empty old");
    }

    #[test]
    fn ingest_invalidates_every_affected_min_max_chunk() {
        for agg in [AggFn::Min, AggFn::Max] {
            let mut mgr = manager_with(Strategy::Vcm, agg);
            populate_lattice(&mut mgr);
            let mut batch = DeltaBatch::new();
            batch.insert(&[3, 1], -5.0);
            let m = mgr.ingest(&batch).unwrap();
            assert_eq!(m.chunks_patched, 0, "MIN/MAX is never patched in place");
            assert!(m.chunks_invalidated > 0, "{agg:?}");
            assert_counts_consistent(&mgr);
            check_lattice(&mut mgr);
            assert_counts_consistent(&mgr);
        }
    }

    #[test]
    fn ingest_rejects_malformed_batches_with_typed_errors() {
        let mut mgr = manager(Strategy::Vcm);
        let base = mgr.grid().schema().lattice().base();
        run_and_check(&mut mgr, &Query::new(base, vec![0]));
        let version = mgr.version();
        let tuples = mgr.backend().fact().num_tuples();
        let mut bad_arity = DeltaBatch::new();
        bad_arity.insert(&[1, 2, 3], 1.0);
        assert!(matches!(
            mgr.ingest(&bad_arity),
            Err(CacheError::Delta(
                aggcache_chunks::ChunkError::BadCellArity { .. }
            ))
        ));
        let mut oob = DeltaBatch::new();
        oob.insert(&[0, 99], 1.0);
        assert!(matches!(
            mgr.ingest(&oob),
            Err(CacheError::Delta(
                aggcache_chunks::ChunkError::CellOutOfRange { .. }
            ))
        ));
        assert_eq!(mgr.version(), version, "a failed ingest mutates nothing");
        assert_eq!(mgr.backend().fact().num_tuples(), tuples);
        assert_eq!(mgr.session_updates(), &UpdateMetrics::default());
    }

    #[test]
    fn ingest_counts_unmatched_deletes_without_propagating() {
        let mut mgr = manager(Strategy::Vcm);
        let grid = mgr.grid().clone();
        let base = grid.schema().lattice().base();
        run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
        let version = mgr.version();
        let mut batch = DeltaBatch::new();
        batch.delete(&[0, 0], 12345.0); // right coords, wrong value bits
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!(m.deletes_unmatched, 1);
        assert_eq!(m.tuples_deleted, 0);
        assert_eq!(m.chunks_patched + m.chunks_invalidated, 0);
        assert_eq!(m.delta_batches, 1, "the batch is still recorded");
        assert_eq!(mgr.version(), version);
        let mq = run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
        assert!(mq.complete_hit, "nothing was disturbed");
    }

    #[test]
    fn ingest_drops_stale_spilled_copies() {
        let mut mgr = spill_manager("ingeststale", 160);
        let base = mgr.grid().schema().lattice().base();
        for chunk in 0..3 {
            run_and_check(&mut mgr, &Query::new(base, vec![chunk]));
        }
        // Chunk 0 was demoted to disk; an insert landing in it stales the
        // on-disk copy.
        assert!(mgr.spill_store().unwrap().contains(ChunkKey::new(base, 0)));
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 1000.0);
        let m = mgr.ingest(&batch).unwrap();
        assert_eq!(m.spill_invalidated, 1);
        assert!(!mgr.spill_store().unwrap().contains(ChunkKey::new(base, 0)));
        // The re-query comes from the backend (fresh data), not disk.
        let mq = run_and_check(&mut mgr, &Query::new(base, vec![0]));
        assert!(mq.backend_virtual_ms > 0.0);
        assert_counts_consistent(&mgr);
    }

    #[test]
    fn ingest_events_reach_the_tracer() {
        let tracer = Arc::new(RecordingTracer::new());
        let mut mgr = CacheManager::builder()
            .strategy(Strategy::Vcm)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(usize::MAX >> 1)
            .tracer(tracer.clone())
            .build(make_backend())
            .unwrap();
        let grid = mgr.grid().clone();
        let lattice = grid.schema().lattice().clone();
        for gb in lattice.iter_ids() {
            let _ = mgr.run(&Query::full_group_by(&grid, gb).into()).unwrap();
        }
        let mut batch = DeltaBatch::new();
        batch.insert(&[0, 0], 3.0).delete(&[5, 2], 25.0);
        let m = mgr.ingest(&batch).unwrap();
        assert!(m.chunks_patched > 0 && m.chunks_invalidated > 0);
        let kinds: Vec<&'static str> = tracer.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"delta_ingest"));
        assert!(kinds.contains(&"chunk_patch"));
        assert!(kinds.contains(&"chunk_invalidate"));
    }

    #[test]
    fn ingest_cost_stays_outside_query_metrics() {
        let mut mgr = manager(Strategy::Vcmc);
        let grid = mgr.grid().clone();
        let base = grid.schema().lattice().base();
        run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
        let queries_before = mgr.session().queries;
        let mut batch = DeltaBatch::new();
        batch.insert(&[2, 2], 4.0);
        let m1 = mgr.ingest(&batch).unwrap();
        let m2 = mgr.ingest(&batch).unwrap();
        assert!(m1.update_virtual_ms > 0.0);
        assert!(m1.table_writes > 0, "VCMC table maintenance is recorded");
        let s = mgr.session_updates();
        assert_eq!(s.delta_batches, 2);
        assert_eq!(s.tuples_inserted, 2);
        assert!(
            (s.update_virtual_ms - m1.update_virtual_ms - m2.update_virtual_ms).abs() < 1e-12,
            "session accounting is the sum of per-batch accounting"
        );
        // Ingest is not a query: per-query session aggregates are
        // untouched, and the next query's total identity holds bitwise.
        assert_eq!(mgr.session().queries, queries_before);
        let mq = run_and_check(&mut mgr, &Query::full_group_by(&grid, base));
        assert_eq!(
            mq.total_ms(),
            mq.backend_virtual_ms + mq.agg_virtual_ms + mq.lookup_virtual_ms + mq.update_virtual_ms
        );
        mgr.reset_session();
        assert_eq!(mgr.session_updates(), &UpdateMetrics::default());
    }
}
