//! Pluggable cache-admission policies (the "admission lab").
//!
//! Replacement decides *who leaves* when the cache is full; admission
//! decides *whether the newcomer may enter at all*. The paper never
//! separates the two — every fetched or computed chunk is offered to the
//! replacement policy unconditionally — which works on its single replayed
//! query stream but falls apart under multi-tenant contention, where one
//! tenant's scan traffic can flush another tenant's hot working set
//! through a cache that admits everything.
//!
//! Two policies are provided, selected by [`AdmissionKind`]:
//!
//! * [`AdmissionKind::BenefitMean`] — the repo's historical behaviour and
//!   the bit-identical default: every feasible insert is admitted, and the
//!   only "bar" is indirect — a chunk whose benefit is far below the
//!   resident mean is seeded with a floor clock weight and swept out
//!   quickly. No admission-time state, no behaviour change.
//! * [`AdmissionKind::TinyLfu`] — a TinyLFU-style frequency filter: a
//!   hand-rolled [`CountMinSketch`] estimates each chunk's reference
//!   frequency (keyed on the packed `u64` chunk key, so sketch hashing is
//!   one integer mix per row), and an insert that requires eviction is
//!   admitted only if the candidate's estimated frequency *exceeds* the
//!   coldest eviction-eligible resident's. Sketch counters are 4-bit
//!   (capped at 15) and halved every 1024 references, so the filter
//!   ages: yesterday's hot chunks cannot block today's.
//!
//! Admission only ever gates inserts that need to evict: while the cache
//! has room, every policy admits everything (an empty cache has nothing
//! worth protecting).

use aggcache_chunks::hash::{FxBuildHasher, PackedChunkKey};
use std::hash::BuildHasher;

/// Admission-policy selector, carried by the manager configuration.
///
/// The default ([`AdmissionKind::BenefitMean`]) reproduces the historical
/// admit-everything-feasible behaviour bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionKind {
    /// Admit every feasible insert (historical behaviour; the benefit-mean
    /// clock seeding is the only — indirect — admission bar).
    #[default]
    BenefitMean,
    /// TinyLFU-style frequency filter over a count-min sketch of 4096
    /// counters per row, aged every 1024 references.
    TinyLfu,
}

/// Counters per row of the TinyLFU sketch.
const TINY_LFU_COUNTERS: u32 = 4096;

/// References between TinyLFU aging steps (each step halves every counter).
///
/// The short window matters: it bounds how long a stale-hot resident's
/// estimate can block new admissions after the working set drifts. For
/// budgets of a few hundred resident chunks, halving every ~1024 references
/// tracks drift closely; windows much larger than the resident population
/// lock the cache into yesterday's working set.
const TINY_LFU_SAMPLE_WINDOW: u32 = 1024;

impl AdmissionKind {
    /// The TinyLFU filter.
    pub fn tiny_lfu() -> Self {
        Self::TinyLfu
    }

    /// Stable lowercase name (reports).
    pub fn name(&self) -> &'static str {
        match self {
            Self::BenefitMean => "benefit_mean",
            Self::TinyLfu => "tiny_lfu",
        }
    }

    /// Both lab policies (sweep order: baseline first).
    pub fn lab() -> [Self; 2] {
        [Self::BenefitMean, Self::tiny_lfu()]
    }
}

/// Sketch rows: the classic 4-row count-min layout.
const SKETCH_ROWS: usize = 4;

/// Per-row seeds mixed into the key before hashing, so the rows are
/// independent hash functions over the same key space.
const ROW_SEEDS: [u64; SKETCH_ROWS] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
];

/// Counters saturate at 15 (4-bit TinyLFU counters, stored in a byte for
/// simplicity — the accounting convention, not the storage optimization,
/// is what the lab measures).
const COUNTER_MAX: u8 = 15;

/// A hand-rolled count-min sketch over packed chunk keys with conservative
/// update and periodic halving ("aging"), as used by TinyLFU admission.
///
/// Fully deterministic: row hashes come from the repo's seeded FxHash-style
/// mixer, so the same reference stream always produces the same estimates.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    /// Row width minus one (width is a power of two).
    mask: usize,
    rows: Vec<Vec<u8>>,
    /// References recorded since the last aging step.
    since_reset: u64,
    /// References between aging steps.
    sample_window: u64,
    /// Completed aging steps (observability / tests).
    resets: u64,
}

impl CountMinSketch {
    /// Creates a sketch with at least `counters` counters per row
    /// (rounded up to a power of two, min 16), aged every `sample_window`
    /// references.
    pub(crate) fn new(counters: u32, sample_window: u32) -> Self {
        let width = counters.max(16).next_power_of_two() as usize;
        Self {
            mask: width - 1,
            rows: vec![vec![0u8; width]; SKETCH_ROWS],
            since_reset: 0,
            sample_window: u64::from(sample_window.max(1)),
            resets: 0,
        }
    }

    #[inline]
    fn slot(&self, key: PackedChunkKey, row: usize) -> usize {
        (FxBuildHasher::default().hash_one(key ^ ROW_SEEDS[row]) as usize) & self.mask
    }

    /// Records one reference to `key` (conservative update: only the
    /// minimal counters are bumped), aging the sketch when the sample
    /// window fills.
    pub(crate) fn record(&mut self, key: PackedChunkKey) {
        let est = self.estimate(key);
        if est < COUNTER_MAX {
            for row in 0..SKETCH_ROWS {
                let slot = self.slot(key, row);
                let c = &mut self.rows[row][slot];
                if *c == est {
                    *c += 1;
                }
            }
        }
        self.since_reset += 1;
        if self.since_reset >= self.sample_window {
            self.age();
        }
    }

    /// The estimated reference frequency of `key` (min over rows; an
    /// upper bound on the true count since the last few aging steps).
    pub(crate) fn estimate(&self, key: PackedChunkKey) -> u8 {
        (0..SKETCH_ROWS)
            .map(|row| self.rows[row][self.slot(key, row)])
            .min()
            .unwrap_or(0)
    }

    /// Halves every counter — the TinyLFU aging/"reset" step.
    fn age(&mut self) {
        for row in &mut self.rows {
            for c in row.iter_mut() {
                *c >>= 1;
            }
        }
        self.since_reset = 0;
        self.resets += 1;
    }

    /// Completed aging steps.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

/// The per-cache admission state matching an [`AdmissionKind`].
#[derive(Debug)]
pub(crate) enum AdmissionState {
    BenefitMean,
    TinyLfu(CountMinSketch),
}

impl AdmissionState {
    pub(crate) fn new(kind: AdmissionKind) -> Self {
        match kind {
            AdmissionKind::BenefitMean => Self::BenefitMean,
            AdmissionKind::TinyLfu => Self::TinyLfu(CountMinSketch::new(
                TINY_LFU_COUNTERS,
                TINY_LFU_SAMPLE_WINDOW,
            )),
        }
    }

    /// Records a reference (lookup or insert attempt); only the frequency
    /// filter keeps state.
    #[inline]
    pub(crate) fn record(&mut self, key: PackedChunkKey) {
        if let Self::TinyLfu(sketch) = self {
            sketch.record(key);
        }
    }

    pub(crate) fn sketch(&self) -> Option<&CountMinSketch> {
        match self {
            Self::TinyLfu(sketch) => Some(sketch),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_grow_and_saturate() {
        let mut s = CountMinSketch::new(64, 1_000_000);
        assert_eq!(s.estimate(42), 0);
        for _ in 0..5 {
            s.record(42);
        }
        assert_eq!(s.estimate(42), 5);
        for _ in 0..100 {
            s.record(42);
        }
        assert_eq!(s.estimate(42), COUNTER_MAX, "counters saturate at 15");
    }

    #[test]
    fn aging_halves_counters() {
        let mut s = CountMinSketch::new(64, 10);
        for _ in 0..9 {
            s.record(7);
        }
        assert_eq!(s.estimate(7), 9);
        s.record(7); // 10th reference fills the window → halve
        assert_eq!(s.resets(), 1);
        assert_eq!(s.estimate(7), 5, "10 capped references halve to 5");
    }

    #[test]
    fn distinct_keys_mostly_independent() {
        let mut s = CountMinSketch::new(1024, 1_000_000);
        for _ in 0..10 {
            s.record(1);
        }
        // A wide sketch with 4 rows: an untouched key stays near zero.
        assert_eq!(s.estimate(1), 10);
        assert!(s.estimate(999_999) <= 1);
    }

    #[test]
    fn deterministic_across_instances() {
        let run = || {
            let mut s = CountMinSketch::new(128, 50);
            for k in 0..200u64 {
                s.record(k % 17);
            }
            (0..17u64).map(|k| s.estimate(k)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn kind_names_round_trip() {
        let lab = AdmissionKind::lab();
        for kind in lab {
            let named = lab.into_iter().filter(|k| k.name() == kind.name());
            assert_eq!(named.collect::<Vec<_>>(), [kind]);
        }
        assert_eq!(AdmissionKind::default(), AdmissionKind::BenefitMean);
    }
}
