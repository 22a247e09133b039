use crate::{Event, Tier, Tracer};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A counting [`Tracer`]: how many events it saw (`"events"`) and how many
/// of each kind (keyed by [`Event::kind`]).
///
/// It observes and nothing more — no reported result is folded from it.
/// Adding an event kind needs no change here.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of one named counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("no counter update panics")
            .get(name)
            .copied()
            .unwrap_or(0)
    }
}

impl Tracer for MetricsRegistry {
    fn emit(&self, event: &Event) {
        // The two splits `benchmark/` reads off its traced pass (ROADMAP
        // item 1(a)'s surface): admitted vs refused inserts, evictions by
        // tier.
        let split = match event {
            Event::CacheInsert { admitted: true, .. } => Some("inserts_admitted"),
            Event::CacheInsert {
                admitted: false, ..
            } => Some("inserts_refused"),
            Event::Evict { tier, .. } => Some(match tier {
                Tier::Fetched => "evictions_fetched",
                Tier::Computed => "evictions_computed",
                Tier::Spilled => "evictions_spilled",
            }),
            _ => None,
        };
        let mut counters = self.counters.lock().expect("no counter update panics");
        for key in ["events", event.kind()].into_iter().chain(split) {
            *counters.entry(key).or_insert(0) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_events_by_kind() {
        let r = MetricsRegistry::new();
        r.emit(&Event::NodeDown { node: 1 });
        r.emit(&Event::NodeUp { node: 1 });
        r.emit(&Event::NodeDown { node: 2 });
        assert_eq!(r.counter("events"), 3);
        assert_eq!(r.counter("node_down"), 2);
        assert_eq!(r.counter("node_up"), 1);
        assert_eq!(r.counter("query_done"), 0, "never seen reads 0");
    }

    #[test]
    fn splits_inserts_by_admission_and_evictions_by_tier() {
        let r = MetricsRegistry::new();
        for admitted in [true, true, false] {
            r.emit(&Event::CacheInsert {
                gb: 0,
                chunk: 0,
                tier: Tier::Fetched,
                bytes: 64,
                admitted,
            });
        }
        for tier in [Tier::Fetched, Tier::Computed, Tier::Computed, Tier::Spilled] {
            r.emit(&Event::Evict {
                gb: 0,
                chunk: 0,
                tier,
                clock_round: 0,
                clock: 0.0,
            });
        }
        assert_eq!(r.counter("cache_insert"), 3);
        assert_eq!(r.counter("inserts_admitted"), 2);
        assert_eq!(r.counter("inserts_refused"), 1);
        assert_eq!(r.counter("evict"), 4);
        assert_eq!(r.counter("evictions_fetched"), 1);
        assert_eq!(r.counter("evictions_computed"), 2);
        assert_eq!(r.counter("evictions_spilled"), 1);
        assert_eq!(r.counter("events"), 7);
    }
}
