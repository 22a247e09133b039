use aggcache_chunks::hash::{PackedChunkKey, PackedMap};

/// A CLOCK ring over packed chunk keys with real-valued clock weights.
///
/// The sweep hand visits entries circularly; an entry whose clock has run
/// out is the victim, otherwise its clock is decremented and the hand moves
/// on. Benefit weighting is achieved by seeding clocks proportionally to
/// chunk benefit (normalized by the caller), so expensive chunks survive
/// more sweep passes — the paper's "benefit based replacement … we
/// approximate LRU with CLOCK" (§6.3).
///
/// Keys are packed `u64`s ([`aggcache_chunks::ChunkKey::pack`]) so the
/// position index hashes a single integer through the crate's FxHash-style
/// hasher instead of a two-field struct through SipHash.
#[derive(Debug, Default)]
pub struct ClockRing {
    keys: Vec<PackedChunkKey>,
    clocks: Vec<f64>,
    pos: PackedMap<usize>,
    hand: usize,
    rounds: u64,
}

/// Upper clamp on clock values: together with [`SWEEP_DECREMENT`] this
/// bounds the number of sweep passes any entry can survive, keeping victim
/// search `O(n · MAX_CLOCK / SWEEP_DECREMENT)` worst case.
pub(crate) const MAX_CLOCK: f64 = 64.0;

/// Clock decrement per sweep visit. Finer than the minimum normalized clock
/// (0.25) so that benefit differences below 1.0 still order victims.
pub(crate) const SWEEP_DECREMENT: f64 = 0.25;

impl ClockRing {
    /// Creates an empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `key` with an initial clock value. Panics if already present.
    pub fn insert(&mut self, key: PackedChunkKey, clock: f64) {
        let prev = self.pos.insert(key, self.keys.len());
        assert!(prev.is_none(), "key already in ring");
        self.keys.push(key);
        self.clocks.push(clock.clamp(0.0, MAX_CLOCK));
    }

    /// Removes `key` if present; returns whether it was there.
    ///
    /// The sweep invariant — slots `[hand, len)` are exactly the entries
    /// still due a visit this pass — is preserved: `swap_remove` moves the
    /// back entry (always unvisited, since `hand < len`) into slot `i`, so
    /// when `i` is below the hand the moved entry would silently skip the
    /// rest of the pass while the slot at `hand - 1` would be due a second
    /// visit after the decrement. Swapping it up into `hand - 1` and pulling
    /// the hand back keeps every remaining entry due exactly one visit.
    pub fn remove(&mut self, key: PackedChunkKey) -> bool {
        let Some(i) = self.pos.remove(&key) else {
            return false;
        };
        self.keys.swap_remove(i);
        self.clocks.swap_remove(i);
        if i < self.keys.len() {
            self.pos.insert(self.keys[i], i);
        }
        if i < self.hand {
            self.hand -= 1;
            if i < self.hand {
                self.keys.swap(i, self.hand);
                self.clocks.swap(i, self.hand);
                self.pos.insert(self.keys[i], i);
                self.pos.insert(self.keys[self.hand], self.hand);
            }
        }
        if self.hand >= self.keys.len() {
            self.hand = 0;
        }
        true
    }

    /// Refreshes `key`'s clock to at least `clock` (a cache hit).
    pub(crate) fn touch(&mut self, key: PackedChunkKey, clock: f64) {
        if let Some(&i) = self.pos.get(&key) {
            self.clocks[i] = self.clocks[i].max(clock.clamp(0.0, MAX_CLOCK));
        }
    }

    /// Adds `amount` to `key`'s clock (the two-level policy's group boost).
    /// Returns whether the key was present.
    pub(crate) fn boost(&mut self, key: PackedChunkKey, amount: f64) -> bool {
        if let Some(&i) = self.pos.get(&key) {
            self.clocks[i] = (self.clocks[i] + amount.max(0.0)).min(MAX_CLOCK);
            true
        } else {
            false
        }
    }

    /// The current clock value of `key`, if present (for tests/inspection).
    pub(crate) fn clock_of(&self, key: PackedChunkKey) -> Option<f64> {
        self.pos.get(&key).map(|&i| self.clocks[i])
    }

    /// Completed sweep rounds: how many times the hand wrapped past the
    /// end of the ring while searching for victims. Exported in the
    /// `Evict` trace event.
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Advances the hand one slot, counting full wraps as sweep rounds.
    fn advance(&mut self) {
        self.hand += 1;
        if self.hand >= self.keys.len() {
            self.hand = 0;
            self.rounds += 1;
        }
    }

    /// Sweeps for a victim, skipping entries for which `skip` returns true
    /// (pinned chunks). Decrements the clocks it passes over. Returns the
    /// victim key *without removing it* — callers remove via
    /// [`ClockRing::remove`] after processing.
    pub fn find_victim(
        &mut self,
        mut skip: impl FnMut(PackedChunkKey) -> bool,
    ) -> Option<PackedChunkKey> {
        if self.keys.is_empty() {
            return None;
        }
        let n = self.keys.len();
        // Every visit decrements a clock, and clocks are ≤ MAX_CLOCK, so a
        // bounded number of full passes suffices unless everything is
        // skipped.
        let max_visits = n * ((MAX_CLOCK / SWEEP_DECREMENT) as usize + 2);
        let mut skipped_all_pass = 0usize;
        for _ in 0..max_visits {
            if self.hand >= n {
                self.hand = 0;
            }
            let key = self.keys[self.hand];
            if skip(key) {
                self.advance();
                skipped_all_pass += 1;
                if skipped_all_pass >= n {
                    // One full pass where everything was pinned.
                    return None;
                }
                continue;
            }
            skipped_all_pass = 0;
            if self.clocks[self.hand] <= 0.0 {
                return Some(key);
            }
            self.clocks[self.hand] -= SWEEP_DECREMENT;
            self.advance();
        }
        // All clocks must have reached zero by now; take the first
        // non-skipped entry.
        let start = self.hand;
        for off in 0..n {
            let i = (start + off) % n;
            if !skip(self.keys[i]) {
                return Some(self.keys[i]);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_chunks::ChunkKey;
    use aggcache_schema::GroupById;

    fn k(i: u64) -> PackedChunkKey {
        ChunkKey::new(GroupById(0), i).pack()
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut r = ClockRing::new();
        r.insert(k(1), 1.0);
        r.insert(k(2), 2.0);
        assert_eq!(r.keys.len(), 2);
        assert!(r.pos.contains_key(&k(1)));
        assert!(r.remove(k(1)));
        assert!(!r.remove(k(1)));
        assert_eq!(r.keys.len(), 1);
        assert!(r.pos.contains_key(&k(2)));
    }

    #[test]
    fn victim_is_lowest_clock_first() {
        let mut r = ClockRing::new();
        r.insert(k(1), 3.0);
        r.insert(k(2), 0.0);
        r.insert(k(3), 5.0);
        let v = r.find_victim(|_| false).unwrap();
        assert_eq!(v, k(2));
    }

    #[test]
    fn sweep_decrements_until_victim() {
        let mut r = ClockRing::new();
        r.insert(k(1), 2.0);
        r.insert(k(2), 1.0);
        // k2 runs out first (after the sweep decrements both).
        let v = r.find_victim(|_| false).unwrap();
        assert_eq!(v, k(2));
        r.remove(v);
        let v2 = r.find_victim(|_| false).unwrap();
        assert_eq!(v2, k(1));
    }

    #[test]
    fn skip_respects_pins() {
        let mut r = ClockRing::new();
        r.insert(k(1), 0.0);
        r.insert(k(2), 0.0);
        let v = r.find_victim(|key| key == k(1)).unwrap();
        assert_eq!(v, k(2));
        // Everything pinned → no victim.
        assert!(r.find_victim(|_| true).is_none());
    }

    #[test]
    fn boost_extends_survival() {
        let mut r = ClockRing::new();
        r.insert(k(1), 1.0);
        r.insert(k(2), 1.0);
        assert!(r.boost(k(1), 10.0));
        assert!(!r.boost(k(9), 10.0));
        let v = r.find_victim(|_| false).unwrap();
        assert_eq!(v, k(2));
    }

    #[test]
    fn touch_refreshes_clock() {
        let mut r = ClockRing::new();
        r.insert(k(1), 1.0);
        r.insert(k(2), 3.0);
        r.touch(k(1), 8.0);
        let v = r.find_victim(|_| false).unwrap();
        assert_eq!(v, k(2));
    }

    #[test]
    fn clocks_are_clamped() {
        let mut r = ClockRing::new();
        r.insert(k(1), 1e12);
        assert_eq!(r.clock_of(k(1)), Some(MAX_CLOCK));
        r.boost(k(1), 1e12);
        assert_eq!(r.clock_of(k(1)), Some(MAX_CLOCK));
    }

    #[test]
    fn rounds_count_full_sweeps() {
        let mut r = ClockRing::new();
        r.insert(k(1), 1.0);
        r.insert(k(2), 1.0);
        assert_eq!(r.rounds(), 0);
        // Clocks at 1.0 need 4 decrements each: the sweep wraps several
        // times before a victim emerges.
        let _ = r.find_victim(|_| false).unwrap();
        assert!(r.rounds() >= 1);
    }

    #[test]
    fn empty_ring_has_no_victim() {
        let mut r = ClockRing::new();
        assert!(r.find_victim(|_| false).is_none());
    }

    #[test]
    fn remove_fixes_hand_and_positions() {
        let mut r = ClockRing::new();
        for i in 0..5 {
            r.insert(k(i), f64::from(i as u32));
        }
        // Advance the hand a bit.
        let _ = r.find_victim(|_| false);
        r.remove(k(0));
        r.remove(k(4));
        // All remaining keys still reachable and consistent.
        let mut left: Vec<u64> = r
            .keys
            .iter()
            .map(|&key| ChunkKey::unpack(key).chunk)
            .collect();
        left.sort_unstable();
        assert_eq!(left, vec![1, 2, 3]);
        for i in [1u64, 2, 3] {
            assert!(r.pos.contains_key(&k(i)));
        }
        assert!(r.find_victim(|_| false).is_some());
    }

    #[test]
    fn remove_below_hand_keeps_sweep_order_fair() {
        let mut r = ClockRing::new();
        r.insert(k(0), 2.0); // A
        r.insert(k(1), 0.25); // B — runs out first, parking the hand at slot 1
        r.insert(k(2), 2.0); // C
        r.insert(k(3), 2.0); // D
        assert_eq!(r.find_victim(|_| false), Some(k(1)));
        r.remove(k(1)); // victim removal at the hand: D fills slot 1
        assert_eq!(r.clock_of(k(2)), Some(1.75));
        assert_eq!(r.clock_of(k(3)), Some(1.75));
        // External removal below the hand (slot 0 < hand 1). C is moved out
        // of the back slot; without hand adjustment it would skip the rest
        // of this pass and D — equal clock but *later* in sweep order —
        // would run out first.
        r.remove(k(0));
        let v = r.find_victim(|_| false).unwrap();
        assert_eq!(
            v,
            k(2),
            "sweep order must be preserved across swap_remove below the hand"
        );
        // Both survivors were decremented in lock-step: equal clocks.
        assert_eq!(r.clock_of(k(2)), Some(0.0));
        assert_eq!(r.clock_of(k(3)), Some(0.0));
    }
}
