//! Harness-side spans: name, start, end, the span that caused it and the
//! request it belongs to. Kept in memory, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// The `request` of a span that belongs to no single request (the
/// measured phase itself, a checkpoint, a rebalance).
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span sits on (`"apply"`, `"fetch"`, …).
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End; equal to `start_ns` until the span is closed.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<SpanId>,
    /// Request identifier shared by every span of one request, or
    /// [`NO_REQUEST`].
    pub request: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

/// A handle on the span recorder; the disabled handle records nothing, so
/// the untraced pass runs the same harness code with one branch per site.
#[derive(Debug, Clone)]
pub struct Spans(Option<Arc<Mutex<Recorder>>>);

impl Spans {
    /// The handle of an untraced run.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A recording handle; its epoch is now.
    pub fn recording() -> Self {
        Self(Some(Arc::new(Mutex::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))))
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span under whichever span is currently open; it closes
    /// when the guard drops.
    pub fn enter(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        let id = self.0.as_ref().map(|rec| {
            let mut rec = rec.lock().expect("a span site panicked");
            let now = rec.epoch.elapsed().as_nanos() as u64;
            let id = rec.spans.len() as SpanId;
            let parent = rec.open.last().copied();
            // A span opened deeper in the stack (a backend fetch) does not
            // know whose request it serves: it belongs to its parent's.
            let request = match parent {
                Some(p) if request == NO_REQUEST => rec.spans[p as usize].request,
                _ => request,
            };
            rec.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent,
                request,
            });
            rec.open.push(id);
            id
        });
        SpanGuard { spans: self, id }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        match &self.0 {
            Some(rec) => rec.lock().expect("a span site panicked").spans.len(),
            None => 0,
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the spans recorded since the first `skip`, in start
    /// order, with ids counted from the first one kept. A parent among the
    /// skipped spans becomes `None`.
    pub fn snapshot_from(&self, skip: usize) -> Vec<Span> {
        let Some(rec) = &self.0 else {
            return Vec::new();
        };
        let rec = rec.lock().expect("a span site panicked");
        rec.spans[skip.min(rec.spans.len())..]
            .iter()
            .map(|s| Span {
                parent: s.parent.and_then(|p| p.checked_sub(skip as SpanId)),
                ..s.clone()
            })
            .collect()
    }

    /// A copy of every span recorded so far, in start order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.snapshot_from(0)
    }
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    id: Option<SpanId>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(rec), Some(id)) = (&self.spans.0, self.id) else {
            return;
        };
        // A poisoned lock means a span site already panicked; the trace is
        // lost either way and a drop must not panic again.
        if let Ok(mut rec) = rec.lock() {
            let now = rec.epoch.elapsed().as_nanos() as u64;
            rec.spans[id as usize].end_ns = now;
            while let Some(open) = rec.open.pop() {
                if open == id {
                    break;
                }
            }
        }
    }
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children clipped to the parent, overlapping
/// siblings counted once). `spans` must be in start order, as
/// [`Spans::snapshot`] returns them.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Per parent: nanoseconds covered so far and the end of that cover.
    let mut covered = vec![(0u64, 0u64); spans.len()];
    for span in spans {
        let Some(parent) = span.parent else { continue };
        let p = &spans[parent as usize];
        let (sum, frontier) = &mut covered[parent as usize];
        let lo = span.start_ns.max(p.start_ns).max(*frontier);
        let hi = span.end_ns.min(p.end_ns);
        if hi > lo {
            *sum += hi - lo;
            *frontier = hi;
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &(sum, _))| s.duration_ns() - sum)
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The trace document: `{"workload": …, "spans": [{id, name, start_ns,
/// end_ns, parent, request}, …]}`.
pub fn trace_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 64);
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.name, s.start_ns, s.end_ns
        );
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"request\":");
        if s.request == NO_REQUEST {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", s.request);
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // run [0,100) -> probe [5,15), apply [20,90) -> fetch [30,70)
        let spans = vec![
            span("run", 0, 100, None),
            span("probe", 5, 15, Some(0)),
            span("apply", 20, 90, Some(0)),
            span("fetch", 30, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 30, 40]);
        let t = totals_by_name(&spans);
        assert_eq!(t["run"].self_ns, 20);
        assert_eq!(t["apply"].total_ns, 70);
        assert_eq!(t["apply"].self_ns, 30);
        // Self times add up to the root: nothing counted twice or lost.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("root", 10, 50, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)), // overlaps a by 10
            span("c", 45, 60, Some(0)), // overhangs the parent by 10
        ];
        // cover = [10,40) ∪ [45,50) = 35
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn guards_nest_and_close_in_order() {
        let spans = Spans::recording();
        {
            let _run = spans.enter("run", 7);
            {
                let _probe = spans.enter("probe", 7);
            }
            let _apply = spans.enter("apply", 7);
            let _fetch = spans.enter("fetch", NO_REQUEST);
        }
        let _next = spans.enter("run", 8);
        let got = spans.snapshot();
        let shape: Vec<_> = got.iter().map(|s| (s.name, s.parent, s.request)).collect();
        assert_eq!(
            shape,
            vec![
                ("run", None, 7),
                ("probe", Some(0), 7),
                ("apply", Some(0), 7),
                ("fetch", Some(2), 7),
                ("run", None, 8),
            ]
        );
        for s in &got[..4] {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(got[0].end_ns >= got[3].end_ns);

        // Dropping the spans before `apply` re-roots what is left.
        let tail = spans.snapshot_from(2);
        let shape: Vec<_> = tail.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            vec![("apply", None), ("fetch", Some(0)), ("run", None)]
        );
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let spans = Spans::disabled();
        let _g = spans.enter("run", 0);
        assert!(!spans.enabled());
        assert!(spans.snapshot().is_empty());
    }

    #[test]
    fn trace_json_parses_back() {
        let spans = vec![
            Span {
                request: NO_REQUEST,
                ..span("measure", 0, 9, None)
            },
            span("run", 1, 8, Some(0)),
        ];
        let doc = aggcache_obs::json::JsonValue::parse(&trace_json("paper_fit", &spans)).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("paper_fit"));
        let arr = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(arr[1].get("name").unwrap().as_str(), Some("run"));
        assert_eq!(
            arr[0].get("request"),
            Some(&aggcache_obs::json::JsonValue::Null)
        );
    }
}
