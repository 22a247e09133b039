//! Property-based tests of the cache's replacement invariants.

use aggcache::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

fn key(gb: u32, chunk: u64) -> ChunkKey {
    ChunkKey::new(GroupById(gb), chunk)
}

/// A chunk of `cells` cells that all carry `stamp`, so a victim's data can
/// be told apart from any other version of the same key.
fn chunk_of(cells: usize, stamp: f64) -> ChunkData {
    let mut d = ChunkData::new(1);
    for i in 0..cells {
        d.push(&[i as u32], stamp);
    }
    d
}

/// What the shadow model remembers of a resident entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Resident {
    cells: usize,
    origin: Origin,
    benefit: f64,
    stamp: f64,
}

impl Resident {
    /// Asserts `entry` is exactly what was inserted under this record.
    fn assert_intact(&self, entry: &CachedChunk) {
        assert_eq!(
            *entry.data,
            chunk_of(self.cells, self.stamp),
            "data damaged"
        );
        assert_eq!(entry.origin, self.origin);
        assert_eq!(entry.benefit, self.benefit);
        assert_eq!(entry.bytes, self.cells * PAPER_TUPLE_BYTES);
    }
}

/// The eviction lattice, restated independently of the cache: under the
/// two-level policy an insert may only claim victims at or below its own
/// level (spilled < computed < backend); the other policies have one level.
fn may_evict(policy: PolicyKind, inserting: Origin, victim: Origin) -> bool {
    let level = |o| match o {
        Origin::Spilled => 0,
        Origin::Computed => 1,
        Origin::Backend => 2,
    };
    policy != PolicyKind::TwoLevel || level(victim) <= level(inserting)
}

#[derive(Debug, Clone)]
enum Op {
    Insert {
        id: u64,
        cells: usize,
        origin: Origin,
        benefit: f64,
    },
    Get {
        id: u64,
    },
    Remove {
        id: u64,
    },
    Pin {
        id: u64,
    },
    Unpin {
        id: u64,
    },
    Boost {
        id: u64,
        amount: f64,
    },
}

fn arb_op() -> impl PropStrategy<Value = Op> {
    prop_oneof![
        (0u64..24, 0usize..12, 0usize..3, 0.0f64..50.0).prop_map(|(id, cells, origin, benefit)| {
            Op::Insert {
                id,
                cells,
                origin: [Origin::Backend, Origin::Computed, Origin::Spilled][origin],
                benefit,
            }
        }),
        (0u64..24).prop_map(|id| Op::Get { id }),
        (0u64..24).prop_map(|id| Op::Remove { id }),
        (0u64..24).prop_map(|id| Op::Pin { id }),
        (0u64..24).prop_map(|id| Op::Unpin { id }),
        (0u64..24, 0.0f64..50.0).prop_map(|(id, amount)| Op::Boost { id, amount }),
    ]
}

fn run_ops(policy: PolicyKind, budget: usize, ops: &[Op]) {
    let mut cache = ChunkCache::new(budget, policy);
    // The `Evict` events are the independent witness of eviction order.
    let tracer = std::sync::Arc::new(RecordingTracer::new());
    cache.set_tracer(Some(tracer.clone()));
    let mut pinned: std::collections::HashSet<u64> = Default::default();
    let mut shadow: std::collections::HashMap<u64, Resident> = Default::default();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert {
                id,
                cells,
                origin,
                benefit,
            } => {
                let stamp = step as f64;
                // The feasibility precheck, from the shadow model: the
                // chunk fits the budget, and the unpinned residents this
                // origin may evict (the entry being replaced aside) cover
                // the shortfall.
                let bytes = cells * PAPER_TUPLE_BYTES;
                let old_bytes = shadow.get(&id).map_or(0, |r| r.cells * PAPER_TUPLE_BYTES);
                let need = (cache.used_bytes() - old_bytes + bytes).saturating_sub(budget);
                let freeable: usize = shadow
                    .iter()
                    .filter(|&(&other, r)| {
                        other != id
                            && !pinned.contains(&other)
                            && may_evict(policy, origin, r.origin)
                    })
                    .map(|(_, r)| r.cells * PAPER_TUPLE_BYTES)
                    .sum();
                let feasible = bytes <= budget && freeable >= need;
                tracer.take();
                let out = cache.insert(key(0, id), chunk_of(cells, stamp), origin, benefit);
                // The victims come back in the order the policy chose them.
                let evict_events: Vec<u64> = tracer
                    .take()
                    .iter()
                    .filter_map(|e| match e {
                        Event::Evict { chunk, .. } => Some(*chunk),
                        _ => None,
                    })
                    .collect();
                let victims: Vec<u64> = out.evicted.iter().map(|(k, _)| k.chunk).collect();
                assert_eq!(victims, evict_events, "victims out of eviction order");
                // Feasibility and the victim search agree: whenever the
                // precheck passes, the eviction loop frees enough (the
                // default admission turns nothing feasible away).
                assert_eq!(
                    out.admitted, feasible,
                    "precheck and eviction loop disagree"
                );
                // A refused insert — including a refused *replace* — leaves
                // the previous entry (if any) untouched, so the shadow
                // model changes only on admission; the per-step sweep below
                // then checks the old entry is still resident and intact.
                if out.admitted {
                    shadow.insert(
                        id,
                        Resident {
                            cells,
                            origin,
                            benefit,
                            stamp,
                        },
                    );
                } else {
                    assert!(out.evicted.is_empty(), "a refusal evicts nothing");
                }
                for (victim, entry) in &out.evicted {
                    // Invariant: evicted chunks are never pinned…
                    assert!(!pinned.contains(&victim.chunk), "evicted a pinned chunk");
                    // …the caller receives each victim's entry undamaged…
                    let was = shadow.remove(&victim.chunk).expect("evicted unknown chunk");
                    was.assert_intact(entry);
                    assert!(!cache.contains(victim), "victim still resident");
                    // …and every victim sits at or below the insert's level.
                    assert!(
                        may_evict(policy, origin, was.origin),
                        "{origin:?} insert evicted a {:?} chunk",
                        was.origin
                    );
                }
            }
            Op::Get { id } => {
                assert_eq!(cache.get(&key(0, id)).is_some(), shadow.contains_key(&id));
            }
            Op::Remove { id } => {
                let was = cache.remove(&key(0, id));
                // A pin outlives the entry (the cache keeps it until
                // `unpin`), so it is not dropped from the model either.
                assert_eq!(was, shadow.remove(&id).is_some());
            }
            Op::Pin { id } => {
                if shadow.contains_key(&id) {
                    cache.pin(key(0, id));
                    pinned.insert(id);
                }
            }
            Op::Unpin { id } => {
                cache.unpin(&key(0, id));
                pinned.remove(&id);
            }
            Op::Boost { id, amount } => {
                let keys = [key(0, id)];
                cache.boost_group(keys.iter(), amount);
            }
        }
        // Global invariants after every operation.
        assert!(cache.used_bytes() <= budget, "budget exceeded");
        let shadow_bytes: usize = shadow.values().map(|r| r.cells * PAPER_TUPLE_BYTES).sum();
        assert_eq!(cache.used_bytes(), shadow_bytes, "byte accounting drifted");
        let resident_bytes: usize = cache
            .keys()
            .map(|k| cache.peek(&k).expect("listed key missing").bytes)
            .sum();
        assert_eq!(
            cache.used_bytes(),
            resident_bytes,
            "used_bytes != sum of resident chunk bytes"
        );
        assert_eq!(cache.len(), shadow.len(), "entry accounting drifted");
        for (&id, resident) in &shadow {
            resident.assert_intact(cache.peek(&key(0, id)).expect("shadow chunk missing"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache never exceeds its budget, never evicts pinned chunks,
    /// keeps exact byte accounting, hands every victim back intact and in
    /// eviction order, keeps the old entry through a refused replace,
    /// admits exactly the inserts its feasibility precheck passes, and
    /// never lets an insert evict above its own level — under arbitrary
    /// operation streams.
    #[test]
    fn cache_invariants_hold(
        ops in proptest::collection::vec(arb_op(), 1..120),
        budget_chunks in 1usize..16,
    ) {
        for policy in [PolicyKind::Lru, PolicyKind::Benefit, PolicyKind::TwoLevel] {
            run_ops(policy, budget_chunks * 12 * PAPER_TUPLE_BYTES, &ops);
        }
    }
}
