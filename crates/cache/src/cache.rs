use crate::admission::{AdmissionKind, AdmissionState, CountMinSketch};
use crate::clock::{ClockRing, MAX_CLOCK};
use aggcache_chunks::hash::{PackedChunkKey, PackedMap, PackedSet};
use aggcache_chunks::{ChunkData, ChunkKey};
use aggcache_obs::{Event, Tier, Tracer};
use std::sync::Arc;

/// Where a cached chunk came from — the paper's two benefit classes (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Fetched from the backend database (includes pre-loaded chunks).
    /// Expensive to reproduce: connection + query + transfer.
    Backend,
    /// Computed by aggregating other cached chunks. Cheap to reproduce as
    /// long as its inputs stay cached.
    Computed,
    /// Promoted back from the disk spill tier. Cheapest of all to
    /// reproduce — its bytes are still on disk — so under the paper's
    /// tiered policy it is the first to fall (backend > computed >
    /// spilled). Never present unless a spill tier is attached.
    Spilled,
}

/// A cached chunk with its replacement metadata.
#[derive(Debug)]
pub struct CachedChunk {
    /// The chunk's cells.
    pub data: ChunkData,
    /// Benefit class.
    pub origin: Origin,
    /// The benefit (cost of recomputation, in virtual milliseconds).
    pub benefit: f64,
    /// Accounting size in bytes.
    pub bytes: usize,
}

/// Replacement policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Plain LRU approximated by CLOCK (second chance, no benefit
    /// weighting) — a baseline below the paper's policies.
    Lru,
    /// Single benefit-weighted CLOCK over all chunks (\[DRSN98\]).
    Benefit,
    /// The paper's two-level policy: backend chunks outrank computed
    /// chunks; supports group boosting.
    TwoLevel,
}

/// The outcome of an insert.
#[derive(Debug)]
pub struct InsertOutcome {
    /// Whether the chunk was admitted. A computed chunk is refused when
    /// admitting it would require evicting backend chunks (two-level
    /// policy), or when the chunk alone exceeds the budget.
    pub admitted: bool,
    /// The entries evicted to make room, in eviction order, data included.
    /// The caller owns them from here on — the cache keeps no copy. The
    /// cache manager propagates the keys to the virtual-count tables and
    /// may demote the data to a spill tier; a caller that only wants the
    /// keys drops the rest. An entry replaced under the inserted key is
    /// superseded, not evicted, and is not listed.
    pub evicted: Vec<(ChunkKey, CachedChunk)>,
}

/// A byte-budgeted chunk cache.
///
/// Insertions that exceed the budget trigger policy-driven eviction; the
/// evicted keys are reported to the caller so that virtual counts can be
/// maintained. Chunks can be *pinned* while they serve as inputs to an
/// in-flight aggregation, protecting a computation plan's leaves from being
/// evicted by its own outputs.
pub struct ChunkCache {
    budget: usize,
    used: usize,
    /// Resident chunks, keyed by packed chunk key ([`ChunkKey::pack`]) so
    /// the hot probe path hashes one `u64` through the FxHash-style hasher.
    map: PackedMap<CachedChunk>,
    policy: PolicyKind,
    /// One clock ring per replacement level, indexed by
    /// [`ChunkCache::level`]; victims are drawn from the lowest level up.
    /// Only `rings[0]` is populated outside the two-level policy, and the
    /// spilled level stays empty — behaviourally invisible — unless a
    /// spill tier feeds `Origin::Spilled` inserts.
    rings: [ClockRing; 3],
    pinned: PackedSet,
    /// Mean benefit of the *resident* chunks, used to normalize clock
    /// seeds. Contributions are added on admission and subtracted on
    /// removal, so evicted and replaced entries do not pollute the mean.
    benefit_sum: f64,
    benefit_count: u64,
    hits: u64,
    misses: u64,
    /// Admission-policy selector (kept alongside the state so callers can
    /// read back the configured kind, sketch geometry included).
    admission_kind: AdmissionKind,
    /// Admission-policy state; a no-op under the default
    /// [`AdmissionKind::BenefitMean`].
    admission: AdmissionState,
    /// Inserts refused by the admission policy (not by feasibility).
    admission_rejects: u64,
    /// Optional event sink; `None` keeps every emission site down to one
    /// branch.
    tracer: Option<Arc<dyn Tracer>>,
}

fn tier_of(origin: Origin) -> Tier {
    match origin {
        Origin::Backend => Tier::Fetched,
        Origin::Computed => Tier::Computed,
        Origin::Spilled => Tier::Spilled,
    }
}

impl ChunkCache {
    /// Creates a cache with the given byte budget and policy, using the
    /// default [`AdmissionKind::BenefitMean`] admission (the historical
    /// admit-everything-feasible behaviour).
    pub fn new(budget_bytes: usize, policy: PolicyKind) -> Self {
        Self::with_admission(budget_bytes, policy, AdmissionKind::default())
    }

    /// Creates a cache with an explicit admission policy.
    pub fn with_admission(
        budget_bytes: usize,
        policy: PolicyKind,
        admission: AdmissionKind,
    ) -> Self {
        Self {
            budget: budget_bytes,
            used: 0,
            map: PackedMap::default(),
            policy,
            rings: Default::default(),
            pinned: PackedSet::default(),
            benefit_sum: 0.0,
            benefit_count: 0,
            hits: 0,
            misses: 0,
            admission_kind: admission,
            admission: AdmissionState::new(admission),
            admission_rejects: 0,
            tracer: None,
        }
    }

    /// Installs (or removes) the trace event sink.
    pub fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        self.tracer = tracer;
    }

    /// The policy in use.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The replacement level of an origin — the one place origins are
    /// ordered. Under the two-level policy spilled chunks (still on disk)
    /// fall first, then computed chunks, and backend chunks fall only to
    /// other backend chunks; the other policies keep a single level.
    fn level(&self, origin: Origin) -> usize {
        match (self.policy, origin) {
            (PolicyKind::TwoLevel, Origin::Computed) => 1,
            (PolicyKind::TwoLevel, Origin::Backend) => 2,
            _ => 0,
        }
    }

    /// The residents an insert of `inserting` origin may evict: unpinned,
    /// at or below its own level, and not `except` (the key being
    /// inserted). Feasibility and the TinyLFU bar both scan this set, and
    /// [`ChunkCache::find_victim`] searches the same levels.
    fn evictable(
        &self,
        inserting: Origin,
        except: PackedChunkKey,
    ) -> impl Iterator<Item = (PackedChunkKey, &CachedChunk)> {
        let top = self.level(inserting);
        self.map
            .iter()
            .filter(move |(&k, e)| {
                k != except && !self.pinned.contains(&k) && self.level(e.origin) <= top
            })
            .map(|(&k, e)| (k, e))
    }

    /// The byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Bytes currently used.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Number of cached chunks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cache hits observed via [`ChunkCache::get`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed via [`ChunkCache::get`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The configured admission policy.
    pub fn admission(&self) -> AdmissionKind {
        self.admission_kind
    }

    /// Inserts refused by the admission policy (feasible inserts turned
    /// away by the frequency or benefit bar — not oversize/pin refusals).
    pub fn admission_rejects(&self) -> u64 {
        self.admission_rejects
    }

    /// The TinyLFU frequency sketch, if that policy is active (tests and
    /// diagnostics).
    pub fn admission_sketch(&self) -> Option<&CountMinSketch> {
        self.admission.sketch()
    }

    fn normalized(&self, benefit: f64) -> f64 {
        if self.benefit_count == 0 || self.benefit_sum <= 0.0 {
            return 1.0;
        }
        let mean = self.benefit_sum / self.benefit_count as f64;
        (benefit / mean).clamp(0.25, MAX_CLOCK)
    }

    /// Looks up a chunk, refreshing its clock on a hit. Every lookup (hit
    /// or miss) is a reference for the admission frequency sketch: repeated
    /// misses on a hot chunk build up the frequency that later wins it
    /// admission.
    pub fn get(&mut self, key: &ChunkKey) -> Option<&CachedChunk> {
        let packed = key.pack();
        self.admission.record(packed);
        if let Some(entry) = self.map.get(&packed) {
            self.hits += 1;
            // LRU: a use sets the reference weight above the insert seed
            // (0.5), so recently-used entries survive the sweep.
            let clock = match self.policy {
                PolicyKind::Lru => 1.0,
                _ => self.normalized(entry.benefit),
            };
            self.rings[self.level(entry.origin)].touch(packed, clock);
            self.map.get(&packed)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Looks up a chunk without touching replacement state.
    pub fn peek(&self, key: &ChunkKey) -> Option<&CachedChunk> {
        self.map.get(&key.pack())
    }

    /// Whether `key` is cached (no replacement side effects).
    pub fn contains(&self, key: &ChunkKey) -> bool {
        self.map.contains_key(&key.pack())
    }

    /// Pins a chunk: it cannot be chosen as an eviction victim until
    /// unpinned.
    pub fn pin(&mut self, key: ChunkKey) {
        self.pinned.insert(key.pack());
    }

    /// Unpins a chunk.
    pub fn unpin(&mut self, key: &ChunkKey) {
        self.pinned.remove(&key.pack());
    }

    /// Boosts the clocks of a group of chunks by (normalized) `benefit` —
    /// the two-level policy's reward for groups that computed an aggregate
    /// (§6.3). A no-op under the plain benefit policy. The `GroupBoost`
    /// event reports only the chunks actually present in a ring, not every
    /// key the caller passed.
    pub fn boost_group<'a>(&mut self, keys: impl Iterator<Item = &'a ChunkKey>, benefit: f64) {
        if self.policy != PolicyKind::TwoLevel {
            return;
        }
        let amount = self.normalized(benefit);
        let mut chunks = 0u64;
        for key in keys {
            let packed = key.pack();
            if let Some(entry) = self.map.get(&packed) {
                self.rings[self.level(entry.origin)].boost(packed, amount);
                chunks += 1;
            }
        }
        if let Some(tracer) = &self.tracer {
            tracer.emit(&Event::GroupBoost { chunks, amount });
        }
    }

    /// Inserts (or replaces) a chunk, evicting per policy to fit the
    /// budget. Returns the admission decision and the evicted entries.
    ///
    /// A *refused* replace leaves the previously cached entry untouched:
    /// the oversize and feasibility checks run before the old entry is
    /// dropped, so refusal never silently destroys resident data. The old
    /// entry is removed only once admission is certain, and is reported to
    /// the caller via the `admitted` flag (it is not in `evicted`).
    pub fn insert(
        &mut self,
        key: ChunkKey,
        data: ChunkData,
        origin: Origin,
        benefit: f64,
    ) -> InsertOutcome {
        let packed = key.pack();
        let bytes = data.accounting_bytes();
        let mut evicted = Vec::new();
        // An insert attempt is a reference too: a chunk that keeps getting
        // recomputed or refetched accrues frequency even while refused.
        self.admission.record(packed);

        if bytes > self.budget {
            self.trace_insert(key, origin, bytes, false);
            return InsertOutcome {
                admitted: false,
                evicted,
            };
        }

        // Feasibility precheck: can enough unpinned bytes be freed from the
        // victim classes this origin may evict? The entry being replaced
        // counts as free (it is dropped iff the insert is admitted), so it
        // is excluded from the freeable scan to avoid double counting.
        let old_bytes = self.map.get(&packed).map_or(0, |e| e.bytes);
        let need = (self.used - old_bytes + bytes).saturating_sub(self.budget);
        if need > 0 && self.freeable_bytes(origin, packed) < need {
            self.trace_insert(key, origin, bytes, false);
            return InsertOutcome {
                admitted: false,
                evicted,
            };
        }

        // Admission gate: only inserts that would evict are questioned.
        // While the cache has room every policy admits everything — an
        // empty slot protects nothing.
        if need > 0 && !self.admission_allows(packed, origin, benefit) {
            self.admission_rejects += 1;
            self.trace_insert(key, origin, bytes, false);
            return InsertOutcome {
                admitted: false,
                evicted,
            };
        }

        // Admission is now guaranteed: drop the entry being replaced.
        let replaced = self.take_internal(packed);

        while self.used + bytes > self.budget {
            let Some(victim) = self.find_victim(origin) else {
                // The precheck and the victim search order origins through
                // the same `level`, so this is a bug if it happens; in a
                // release build refuse admission rather than over-commit.
                // The replaced entry (if any) is already gone, so report it
                // as evicted to keep the caller's count tables consistent.
                debug_assert!(false, "feasible insert found no victim");
                evicted.extend(replaced.map(|old| (key, old)));
                self.trace_insert(key, origin, bytes, false);
                return InsertOutcome {
                    admitted: false,
                    evicted,
                };
            };
            self.trace_evict(victim);
            let entry = self
                .take_internal(victim)
                .expect("clock rings hold only resident keys");
            evicted.push((ChunkKey::unpack(victim), entry));
        }

        self.benefit_sum += benefit.max(0.0);
        self.benefit_count += 1;
        let clock = match self.policy {
            PolicyKind::Lru => 0.5,
            _ => self.normalized(benefit),
        };
        self.rings[self.level(origin)].insert(packed, clock);
        self.used += bytes;
        self.map.insert(
            packed,
            CachedChunk {
                data,
                origin,
                benefit,
                bytes,
            },
        );
        self.trace_insert(key, origin, bytes, true);
        InsertOutcome {
            admitted: true,
            evicted,
        }
    }

    fn trace_insert(&self, key: ChunkKey, origin: Origin, bytes: usize, admitted: bool) {
        if let Some(tracer) = &self.tracer {
            tracer.emit(&Event::CacheInsert {
                gb: key.gb.0,
                chunk: key.chunk,
                tier: tier_of(origin),
                bytes: bytes as u64,
                admitted,
            });
        }
    }

    /// Emits the `Evict` event for a policy victim — called before
    /// removal, while the entry and its ring state are still readable.
    fn trace_evict(&self, victim: PackedChunkKey) {
        let Some(tracer) = &self.tracer else {
            return;
        };
        let entry = &self.map[&victim];
        let ring = &self.rings[self.level(entry.origin)];
        let key = ChunkKey::unpack(victim);
        tracer.emit(&Event::Evict {
            gb: key.gb.0,
            chunk: key.chunk,
            tier: tier_of(entry.origin),
            clock_round: ring.rounds(),
            clock: ring.clock_of(victim).unwrap_or(0.0),
        });
    }

    /// Removes a chunk explicitly; returns whether it was present.
    pub fn remove(&mut self, key: &ChunkKey) -> bool {
        self.take_internal(key.pack()).is_some()
    }

    /// Ownership-aware eviction: drains every resident chunk for which
    /// `owned` returns `false`, returning the drained entries as
    /// `(key, data, origin, benefit)` so the caller can hand them off to
    /// their new owner (the cluster tier's key-slice handoff after a ring
    /// membership change).
    ///
    /// Byte accounting, clock rings and the resident benefit mean are
    /// maintained exactly as for [`ChunkCache::remove`]; pins do not
    /// protect entries from an ownership drain (a handoff happens between
    /// queries, never inside one). The drain order is ascending packed key
    /// — deterministic regardless of the cache's insertion history.
    pub fn evict_unowned(
        &mut self,
        mut owned: impl FnMut(ChunkKey) -> bool,
    ) -> Vec<(ChunkKey, ChunkData, Origin, f64)> {
        let mut stale: Vec<PackedChunkKey> = self
            .map
            .keys()
            .copied()
            .filter(|&packed| !owned(ChunkKey::unpack(packed)))
            .collect();
        stale.sort_unstable();
        stale
            .into_iter()
            .filter_map(|packed| {
                self.take_internal(packed).map(|entry| {
                    (
                        ChunkKey::unpack(packed),
                        entry.data,
                        entry.origin,
                        entry.benefit,
                    )
                })
            })
            .collect()
    }

    /// Iterates over the cached keys (arbitrary order).
    pub fn keys(&self) -> impl Iterator<Item = ChunkKey> + '_ {
        self.map.keys().map(|&packed| ChunkKey::unpack(packed))
    }

    /// The admission decision for an insert that must evict to fit.
    ///
    /// * Benefit-mean: always yes (the historical behaviour).
    /// * Two-level: backend chunks always enter; a computed chunk enters
    ///   only when its benefit meets the resident mean — cheap
    ///   recomputables must not churn the cache under contention.
    /// * TinyLFU: the candidate's sketch frequency must *exceed* the
    ///   coldest [`ChunkCache::evictable`] resident's; ties keep the
    ///   resident.
    fn admission_allows(&self, candidate: PackedChunkKey, origin: Origin, benefit: f64) -> bool {
        match &self.admission {
            AdmissionState::BenefitMean => true,
            AdmissionState::TwoLevel => match origin {
                Origin::Backend => true,
                Origin::Computed => self.normalized(benefit) >= 1.0,
                // A promotion was demanded by a live query and can only
                // displace other spilled chunks (feasibility rule), so the
                // frequency/benefit bar would protect nothing.
                Origin::Spilled => true,
            },
            AdmissionState::TinyLfu(sketch) => {
                let candidate_est = sketch.estimate(candidate);
                let victim_est = self
                    .evictable(origin, candidate)
                    .map(|(k, _)| sketch.estimate(k))
                    .min();
                match victim_est {
                    Some(coldest) => candidate_est > coldest,
                    // No eligible victim at all — leave the refusal to the
                    // feasibility check, which already handled it.
                    None => true,
                }
            }
        }
    }

    fn freeable_bytes(&self, origin: Origin, replacing: PackedChunkKey) -> usize {
        self.evictable(origin, replacing)
            .map(|(_, e)| e.bytes)
            .sum()
    }

    /// The first victim the rings offer, searched from the lowest level
    /// up to the inserting origin's own.
    fn find_victim(&mut self, inserting: Origin) -> Option<PackedChunkKey> {
        let top = self.level(inserting);
        let pinned = &self.pinned;
        self.rings[..=top]
            .iter_mut()
            .find_map(|ring| ring.find_victim(|k| pinned.contains(&k)))
    }

    /// Removes an entry and returns it, maintaining byte accounting, the
    /// resident benefit mean and the clock rings.
    fn take_internal(&mut self, key: PackedChunkKey) -> Option<CachedChunk> {
        let entry = self.map.remove(&key)?;
        self.used -= entry.bytes;
        // Keep the normalization mean over *resident* chunks: retire this
        // entry's contribution. The counter reset clears any accumulated
        // floating-point residue once the cache drains.
        self.benefit_sum -= entry.benefit.max(0.0);
        self.benefit_count = self.benefit_count.saturating_sub(1);
        if self.benefit_count == 0 || self.benefit_sum < 0.0 {
            self.benefit_sum = 0.0;
        }
        self.rings[self.level(entry.origin)].remove(key);
        Some(entry)
    }

    /// Iterates the resident entries in ascending packed-key order — the
    /// deterministic enumeration checkpoints serialize under.
    pub fn entries_sorted(&self) -> Vec<(ChunkKey, &CachedChunk)> {
        let mut keys: Vec<PackedChunkKey> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|packed| {
                (
                    ChunkKey::unpack(packed),
                    self.map.get(&packed).expect("key just enumerated"),
                )
            })
            .collect()
    }
}

impl std::fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkCache")
            .field("policy", &self.policy())
            .field("budget", &self.budget)
            .field("used", &self.used)
            .field("chunks", &self.map.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::GroupById;

    fn chunk(cells: usize) -> ChunkData {
        let mut d = ChunkData::new(1);
        for i in 0..cells {
            d.push(&[i as u32], 1.0);
        }
        d
    }

    fn k(i: u64) -> ChunkKey {
        ChunkKey::new(GroupById(0), i)
    }

    fn keys(out: &InsertOutcome) -> Vec<ChunkKey> {
        out.evicted.iter().map(|(key, _)| *key).collect()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ChunkCache::new(400, PolicyKind::Lru);
        c.insert(k(1), chunk(10), Origin::Backend, 100.0);
        c.insert(k(2), chunk(10), Origin::Backend, 0.1);
        // Touch k1 so k2 is the LRU victim despite benefits being ignored.
        let _ = c.get(&k(1));
        let out = c.insert(k(3), chunk(10), Origin::Backend, 1.0);
        assert!(out.admitted);
        assert_eq!(keys(&out), vec![k(2)]);
        assert_eq!(c.policy(), PolicyKind::Lru);
    }

    #[test]
    fn lru_ignores_benefit() {
        let mut c = ChunkCache::new(400, PolicyKind::Lru);
        c.insert(k(1), chunk(10), Origin::Backend, 1e9);
        c.insert(k(2), chunk(10), Origin::Backend, 1e9);
        let _ = c.get(&k(2));
        let out = c.insert(k(3), chunk(10), Origin::Backend, 0.0);
        assert!(out.admitted);
        assert_eq!(
            keys(&out),
            vec![k(1)],
            "huge benefit must not protect under LRU"
        );
    }

    #[test]
    fn insert_and_get() {
        let mut c = ChunkCache::new(1000, PolicyKind::Benefit);
        let out = c.insert(k(1), chunk(10), Origin::Backend, 5.0);
        assert!(out.admitted);
        assert!(out.evicted.is_empty());
        assert_eq!(c.used_bytes(), 200);
        assert!(c.get(&k(1)).is_some());
        assert!(c.get(&k(2)).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn rejects_chunk_larger_than_budget() {
        let mut c = ChunkCache::new(100, PolicyKind::Benefit);
        let out = c.insert(k(1), chunk(10), Origin::Backend, 5.0);
        assert!(!out.admitted);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn evicts_to_fit() {
        let mut c = ChunkCache::new(400, PolicyKind::Benefit);
        assert!(c.insert(k(1), chunk(10), Origin::Backend, 1.0).admitted);
        assert!(c.insert(k(2), chunk(10), Origin::Backend, 1.0).admitted);
        let out = c.insert(k(3), chunk(10), Origin::Backend, 1.0);
        assert!(out.admitted);
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(c.len(), 2);
        assert!(c.used_bytes() <= 400);
    }

    #[test]
    fn higher_benefit_survives() {
        let mut c = ChunkCache::new(400, PolicyKind::Benefit);
        c.insert(k(1), chunk(10), Origin::Backend, 100.0);
        c.insert(k(2), chunk(10), Origin::Backend, 0.1);
        let out = c.insert(k(3), chunk(10), Origin::Backend, 100.0);
        assert!(out.admitted);
        assert_eq!(keys(&out), vec![k(2)]);
    }

    #[test]
    fn two_level_computed_cannot_evict_backend() {
        let mut c = ChunkCache::new(400, PolicyKind::TwoLevel);
        c.insert(k(1), chunk(10), Origin::Backend, 1.0);
        c.insert(k(2), chunk(10), Origin::Backend, 1.0);
        let out = c.insert(k(3), chunk(10), Origin::Computed, 100.0);
        assert!(
            !out.admitted,
            "computed chunk must not displace backend chunks"
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn two_level_backend_evicts_computed_first() {
        let mut c = ChunkCache::new(400, PolicyKind::TwoLevel);
        c.insert(k(1), chunk(10), Origin::Backend, 0.1);
        c.insert(k(2), chunk(10), Origin::Computed, 1000.0);
        let out = c.insert(k(3), chunk(10), Origin::Backend, 1.0);
        assert!(out.admitted);
        // Even a high-benefit computed chunk falls before any backend chunk.
        assert_eq!(keys(&out), vec![k(2)]);
    }

    #[test]
    fn two_level_computed_evicts_computed() {
        let mut c = ChunkCache::new(400, PolicyKind::TwoLevel);
        c.insert(k(1), chunk(10), Origin::Computed, 1.0);
        c.insert(k(2), chunk(10), Origin::Computed, 1.0);
        let out = c.insert(k(3), chunk(10), Origin::Computed, 1.0);
        assert!(out.admitted);
        assert_eq!(out.evicted.len(), 1);
    }

    #[test]
    fn pinned_chunks_are_not_victims() {
        let mut c = ChunkCache::new(400, PolicyKind::Benefit);
        c.insert(k(1), chunk(10), Origin::Backend, 0.1);
        c.insert(k(2), chunk(10), Origin::Backend, 0.1);
        c.pin(k(1));
        let out = c.insert(k(3), chunk(10), Origin::Backend, 1.0);
        assert!(out.admitted);
        assert_eq!(keys(&out), vec![k(2)]);
        // Now both survivors are pinned or new; pin everything → reject.
        c.pin(k(3));
        let out = c.insert(k(4), chunk(10), Origin::Backend, 1.0);
        assert!(!out.admitted);
        c.unpin(&k(1));
        let out = c.insert(k(4), chunk(10), Origin::Backend, 1.0);
        assert!(out.admitted);
        assert_eq!(keys(&out), vec![k(1)]);
    }

    #[test]
    fn replace_existing_key_updates_bytes() {
        let mut c = ChunkCache::new(1000, PolicyKind::Benefit);
        c.insert(k(1), chunk(10), Origin::Backend, 1.0);
        assert_eq!(c.used_bytes(), 200);
        c.insert(k(1), chunk(20), Origin::Backend, 1.0);
        assert_eq!(c.used_bytes(), 400);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn refused_oversized_replace_keeps_old_entry() {
        let mut c = ChunkCache::new(400, PolicyKind::Benefit);
        assert!(c.insert(k(1), chunk(10), Origin::Backend, 1.0).admitted);
        // The replacement alone exceeds the budget: it must be refused
        // without destroying the resident entry.
        let out = c.insert(k(1), chunk(30), Origin::Backend, 1.0);
        assert!(!out.admitted);
        assert!(out.evicted.is_empty());
        assert!(c.contains(&k(1)));
        assert_eq!(c.peek(&k(1)).unwrap().data.len(), 10, "old data intact");
        assert_eq!(c.used_bytes(), 200);
    }

    #[test]
    fn refused_infeasible_replace_keeps_old_entry() {
        let mut c = ChunkCache::new(400, PolicyKind::TwoLevel);
        assert!(c.insert(k(1), chunk(10), Origin::Backend, 1.0).admitted);
        assert!(c.insert(k(2), chunk(10), Origin::Backend, 1.0).admitted);
        // Replacing k1 with a bigger *computed* chunk needs 200 more bytes,
        // which only backend chunks could free — infeasible under the
        // two-level policy. Both entries must survive.
        let out = c.insert(k(1), chunk(20), Origin::Computed, 100.0);
        assert!(!out.admitted);
        assert!(out.evicted.is_empty());
        assert_eq!(c.len(), 2);
        assert_eq!(c.used_bytes(), 400);
        assert_eq!(c.peek(&k(1)).unwrap().origin, Origin::Backend);
        assert_eq!(c.peek(&k(1)).unwrap().data.len(), 10);
    }

    #[test]
    fn replace_feasible_when_old_entry_bytes_count_as_free() {
        let mut c = ChunkCache::new(400, PolicyKind::TwoLevel);
        assert!(c.insert(k(1), chunk(10), Origin::Backend, 1.0).admitted);
        assert!(c.insert(k(2), chunk(10), Origin::Backend, 1.0).admitted);
        // Same-size replace of a full cache: the old entry's bytes make
        // room, so no eviction is needed and nothing else is touched.
        let out = c.insert(k(1), chunk(10), Origin::Backend, 2.0);
        assert!(out.admitted);
        assert!(out.evicted.is_empty());
        assert_eq!(c.len(), 2);
        assert_eq!(c.used_bytes(), 400);
    }

    #[test]
    fn benefit_normalization_tracks_residents_after_churn() {
        let mut c = ChunkCache::new(400, PolicyKind::Benefit);
        // Heavy churn of huge-benefit entries that do NOT stay resident.
        for i in 0..50 {
            assert!(
                c.insert(k(100 + i), chunk(10), Origin::Backend, 1e6)
                    .admitted
            );
            assert!(c.remove(&k(100 + i)));
        }
        // If departed entries polluted the mean, both residents would be
        // clamped to the same floor clock and the *higher*-benefit chunk
        // (inserted first, hence swept first) would be evicted.
        assert!(c.insert(k(1), chunk(10), Origin::Backend, 4000.0).admitted);
        assert!(c.insert(k(2), chunk(10), Origin::Backend, 1000.0).admitted);
        let out = c.insert(k(3), chunk(10), Origin::Backend, 2000.0);
        assert!(out.admitted);
        assert_eq!(
            keys(&out),
            vec![k(2)],
            "normalization must rank residents by benefit after churn"
        );
    }

    #[test]
    fn boost_group_reports_only_present_chunks() {
        use aggcache_obs::RecordingTracer;
        let recorder = Arc::new(RecordingTracer::new());
        let mut c = ChunkCache::new(600, PolicyKind::TwoLevel);
        c.set_tracer(Some(recorder.clone()));
        c.insert(k(1), chunk(10), Origin::Backend, 1.0);
        c.insert(k(2), chunk(10), Origin::Computed, 1.0);
        let group = [k(1), k(2), k(7), k(8)];
        c.boost_group(group.iter(), 5.0);
        assert!(
            recorder
                .events()
                .iter()
                .any(|e| matches!(e, Event::GroupBoost { chunks: 2, .. })),
            "absent chunks must not be counted in the GroupBoost event"
        );
    }

    #[test]
    fn empty_chunks_are_cacheable() {
        let mut c = ChunkCache::new(100, PolicyKind::TwoLevel);
        let out = c.insert(k(1), chunk(0), Origin::Backend, 1.0);
        assert!(out.admitted);
        assert!(c.contains(&k(1)));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn remove_frees_space() {
        let mut c = ChunkCache::new(400, PolicyKind::TwoLevel);
        c.insert(k(1), chunk(10), Origin::Backend, 1.0);
        assert!(c.remove(&k(1)));
        assert!(!c.remove(&k(1)));
        assert_eq!(c.used_bytes(), 0);
        assert!(c.insert(k(2), chunk(20), Origin::Backend, 1.0).admitted);
    }

    #[test]
    fn tracer_sees_inserts_evictions_and_boosts() {
        use aggcache_obs::RecordingTracer;
        let recorder = Arc::new(RecordingTracer::new());
        let mut c = ChunkCache::new(400, PolicyKind::TwoLevel);
        c.set_tracer(Some(recorder.clone()));
        c.insert(k(1), chunk(10), Origin::Backend, 1.0);
        c.insert(k(2), chunk(10), Origin::Computed, 1.0);
        // Forces an eviction: the computed chunk falls first.
        c.insert(k(3), chunk(10), Origin::Backend, 1.0);
        c.boost_group([k(1)].iter(), 5.0);
        let events = recorder.events();
        let inserts: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::CacheInsert {
                    chunk, admitted, ..
                } => Some((*chunk, *admitted)),
                _ => None,
            })
            .collect();
        assert_eq!(inserts, vec![(1, true), (2, true), (3, true)]);
        let evicts: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Evict { chunk, tier, .. } => Some((*chunk, *tier)),
                _ => None,
            })
            .collect();
        assert_eq!(evicts, vec![(2, Tier::Computed)]);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::GroupBoost { chunks: 1, .. })));
    }

    #[test]
    fn refused_insert_is_traced_as_refused() {
        use aggcache_obs::RecordingTracer;
        let recorder = Arc::new(RecordingTracer::new());
        let mut c = ChunkCache::new(100, PolicyKind::TwoLevel);
        c.set_tracer(Some(recorder.clone()));
        c.insert(k(1), chunk(10), Origin::Backend, 1.0);
        assert!(matches!(
            recorder.events().last(),
            Some(Event::CacheInsert {
                admitted: false,
                ..
            })
        ));
    }

    #[test]
    fn default_admission_is_benefit_mean() {
        let c = ChunkCache::new(400, PolicyKind::TwoLevel);
        assert_eq!(c.admission(), AdmissionKind::BenefitMean);
        assert!(c.admission_sketch().is_none());
        assert_eq!(c.admission_rejects(), 0);
    }

    #[test]
    fn tiny_lfu_rejects_cold_candidate_over_warm_residents() {
        let mut c = ChunkCache::with_admission(400, PolicyKind::Benefit, AdmissionKind::tiny_lfu());
        c.insert(k(1), chunk(10), Origin::Backend, 1.0);
        c.insert(k(2), chunk(10), Origin::Backend, 1.0);
        // Warm the residents so their sketch frequencies rise.
        for _ in 0..4 {
            let _ = c.get(&k(1));
            let _ = c.get(&k(2));
        }
        // A never-seen candidate must not displace a warm resident.
        let out = c.insert(k(3), chunk(10), Origin::Backend, 100.0);
        assert!(!out.admitted, "cold chunk must be filtered out");
        assert!(out.evicted.is_empty());
        assert_eq!(c.admission_rejects(), 1);
        assert!(c.contains(&k(1)) && c.contains(&k(2)));
    }

    #[test]
    fn tiny_lfu_admits_frequent_candidate() {
        let mut c = ChunkCache::with_admission(400, PolicyKind::Benefit, AdmissionKind::tiny_lfu());
        c.insert(k(1), chunk(10), Origin::Backend, 1.0);
        c.insert(k(2), chunk(10), Origin::Backend, 1.0);
        // Repeated misses on k3 accrue frequency before it is ever cached.
        for _ in 0..6 {
            let _ = c.get(&k(3));
        }
        let out = c.insert(k(3), chunk(10), Origin::Backend, 1.0);
        assert!(out.admitted, "hot chunk must pass the frequency filter");
        assert_eq!(out.evicted.len(), 1);
        assert!(c.contains(&k(3)));
    }

    #[test]
    fn tiny_lfu_no_gate_while_cache_has_room() {
        let mut c =
            ChunkCache::with_admission(1000, PolicyKind::Benefit, AdmissionKind::tiny_lfu());
        // Cold inserts into a cache with room are always admitted.
        assert!(c.insert(k(1), chunk(10), Origin::Backend, 1.0).admitted);
        assert!(c.insert(k(2), chunk(10), Origin::Backend, 1.0).admitted);
        assert_eq!(c.admission_rejects(), 0);
    }

    #[test]
    fn two_level_admission_bars_low_benefit_computed() {
        let mut c = ChunkCache::with_admission(400, PolicyKind::Benefit, AdmissionKind::TwoLevel);
        c.insert(k(1), chunk(10), Origin::Backend, 100.0);
        c.insert(k(2), chunk(10), Origin::Backend, 100.0);
        // A computed chunk far below the resident mean is refused...
        let out = c.insert(k(3), chunk(10), Origin::Computed, 1.0);
        assert!(!out.admitted);
        assert_eq!(c.admission_rejects(), 1);
        // ...but a backend chunk of the same benefit enters unconditionally.
        let out = c.insert(k(4), chunk(10), Origin::Backend, 1.0);
        assert!(out.admitted);
        // And a computed chunk at/above the mean passes the bar.
        let out = c.insert(k(5), chunk(10), Origin::Computed, 500.0);
        assert!(out.admitted);
    }

    #[test]
    fn group_boost_protects_group() {
        let mut c = ChunkCache::new(600, PolicyKind::TwoLevel);
        c.insert(k(1), chunk(10), Origin::Computed, 1.0);
        c.insert(k(2), chunk(10), Origin::Computed, 1.0);
        c.insert(k(3), chunk(10), Origin::Computed, 1.0);
        let group = [k(1), k(2)];
        c.boost_group(group.iter(), 50.0);
        let out = c.insert(k(4), chunk(10), Origin::Computed, 1.0);
        assert!(out.admitted);
        assert_eq!(keys(&out), vec![k(3)]);
    }
}
