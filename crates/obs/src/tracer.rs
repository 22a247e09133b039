use crate::Event;
use std::sync::Mutex;

/// A sink for trace [`Event`]s.
///
/// Implementations must be `Send + Sync`: callers may probe one manager
/// from several threads (`CacheManager::probe_as` takes `&self`).
///
/// **Zero cost when disabled.** Components hold an `Option<Arc<dyn
/// Tracer>>` and construct events only inside an `if let Some(..)` — with
/// no tracer installed the entire subsystem is one branch per site.
pub trait Tracer: Send + Sync {
    /// Consumes one event. Must not block for long: called on the query
    /// path, sometimes under concurrency.
    fn emit(&self, event: &Event);
}

/// A tracer that records every event in order.
///
/// Internally a mutex-guarded vector: concurrent probes serialize on the
/// lock, which bounds overhead but still captures a totally ordered event
/// stream.
#[derive(Debug, Default)]
pub struct RecordingTracer {
    events: Mutex<Vec<Event>>,
}

impl RecordingTracer {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the recorded events.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }
}

impl Tracer for RecordingTracer {
    fn emit(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample() -> Event {
        Event::GroupBoost {
            chunks: 3,
            amount: 1.5,
        }
    }

    #[test]
    fn recording_tracer_keeps_order() {
        let t = RecordingTracer::new();
        t.emit(&sample());
        t.emit(&Event::ProbeStart {
            query: 1,
            gb: 0,
            chunks: 2,
            version: 0,
            strategy: "vcmc",
        });
        assert_eq!(t.len(), 2);
        let events = t.events();
        assert_eq!(events[0], sample());
        assert_eq!(events[1].kind(), "probe_start");
        assert_eq!(t.take().len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn recording_tracer_is_shareable_across_threads() {
        let t = Arc::new(RecordingTracer::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        t.emit(&sample());
                    }
                });
            }
        });
        assert_eq!(t.len(), 400);
    }
}
