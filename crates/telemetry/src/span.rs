//! Span trees, the flight recorder, and the chrome-trace exporter.
//!
//! A [`TraceRecord`] is the completed span tree of one request: a root
//! `"request"` span plus stage and engine-phase children, every timestamp a
//! nanosecond offset from the trace's start.  The serving stack retains the
//! most recent trees in a [`FlightRecorder`] — a bounded ring whose append
//! path takes no global lock (one atomic cursor bump plus one per-slot
//! mutex) — and [`chrome_trace_json`] renders any set of records as Chrome
//! Trace Event Format JSON, loadable in `chrome://tracing` or Perfetto.

use crate::json::{write_json_into, JsonValue};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifies one request's span tree end to end — client-supplied over the
/// wire (echoed in the response) or server-assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within its trace: the index into
/// [`TraceRecord::spans`] (the root is always [`SpanId`]`(0)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u32);

/// One timed operation within a trace, linked to its parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id (its index in the record).
    pub id: SpanId,
    /// The enclosing span; `None` only for the root.
    pub parent: Option<SpanId>,
    /// A stable operation name (`"queue"`, `"engine"`, `"lp"`, ...).
    pub name: &'static str,
    /// Start offset from the trace start, nanoseconds.
    pub start_ns: u64,
    /// End offset from the trace start, nanoseconds (`>= start_ns`).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A complete span tree for one request.
///
/// Invariants (checked by [`TraceRecord::is_well_formed`], maintained by
/// `RequestTrace`): span ids equal their index, the root is span 0 with no
/// parent, every other span's parent precedes it, and every child's window
/// nests inside its parent's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The trace this tree belongs to.
    pub trace_id: TraceId,
    /// The spans, root first, in creation order.
    pub spans: Vec<Span>,
}

impl TraceRecord {
    /// The root span (the whole request window).
    pub fn root(&self) -> &Span {
        &self.spans[0]
    }

    /// The span with id `id`, if present.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans.get(id.0 as usize)
    }

    /// The first span named `name`, if any.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Every direct child of `id`, in creation order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Structural validity: ids are indices, exactly span 0 is the root,
    /// parents precede children, and child windows nest inside their
    /// parent's window.
    pub fn is_well_formed(&self) -> bool {
        if self.spans.is_empty() {
            return false;
        }
        self.spans.iter().enumerate().all(|(i, span)| {
            if span.id.0 as usize != i || span.start_ns > span.end_ns {
                return false;
            }
            match span.parent {
                None => i == 0,
                Some(parent) => {
                    let Some(p) = self.spans.get(parent.0 as usize) else {
                        return false;
                    };
                    (parent.0 as usize) < i
                        && p.start_ns <= span.start_ns
                        && span.end_ns <= p.end_ns
                }
            }
        })
    }
}

/// A bounded ring of the most recent complete span trees.
///
/// Appends are lock-free in the aggregate sense: one atomic cursor bump
/// claims a slot, then only that slot's mutex is taken — concurrent
/// appenders to different slots never contend, and readers never block the
/// whole ring.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Arc<TraceRecord>>>>,
    cursor: AtomicUsize,
}

fn unpoisoned<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` traces (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends one completed trace, evicting the oldest once full.  Returns
    /// the shared handle now stored in the ring.
    pub fn record(&self, record: TraceRecord) -> Arc<TraceRecord> {
        let record = Arc::new(record);
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *unpoisoned(&self.slots[slot]) = Some(Arc::clone(&record));
        record
    }

    /// The retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<TraceRecord>> {
        let cursor = self.cursor.load(Ordering::Relaxed);
        let len = self.slots.len();
        (0..len)
            .map(|i| (cursor + i) % len)
            .filter_map(|slot| unpoisoned(&self.slots[slot]).clone())
            .collect()
    }

    /// The most recently retained trace with id `trace_id`, if still in the
    /// ring.
    pub fn find(&self, trace_id: TraceId) -> Option<Arc<TraceRecord>> {
        self.snapshot()
            .into_iter()
            .rev()
            .find(|record| record.trace_id == trace_id)
    }
}

/// Nanosecond offset as fractional chrome-trace microseconds.
fn micros(ns: u64) -> JsonValue {
    JsonValue::from(ns as f64 / 1e3)
}

/// Renders `traces` as Chrome Trace Event Format JSON: one `"X"` (complete)
/// event per span, `ts`/`dur` in microseconds, one `tid` lane per trace
/// (named through `"M"` metadata events), and the trace/span/parent ids in
/// each event's `args`.  The output loads in `chrome://tracing` / Perfetto
/// and parses with [`crate::parse_json`].
pub fn chrome_trace_json<T: Borrow<TraceRecord>>(traces: &[T]) -> String {
    let mut events = Vec::new();
    for (lane, record) in traces.iter().enumerate() {
        let record = record.borrow();
        let tid = JsonValue::from(lane + 1);
        let trace_id = format!("0x{:016x}", record.trace_id.0);
        events.push(JsonValue::object([
            ("name", JsonValue::from("thread_name")),
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", tid.clone()),
            (
                "args",
                JsonValue::object([("name", JsonValue::String(format!("trace {trace_id}")))]),
            ),
        ]));
        for span in &record.spans {
            let mut args = vec![
                ("trace_id", JsonValue::String(trace_id.clone())),
                ("span_id", u64::from(span.id.0).into()),
            ];
            if let Some(parent) = span.parent {
                args.push(("parent_id", u64::from(parent.0).into()));
            }
            events.push(JsonValue::object([
                ("name", JsonValue::from(span.name)),
                ("cat", "kspr".into()),
                ("ph", "X".into()),
                ("ts", micros(span.start_ns)),
                ("dur", micros(span.duration_ns())),
                ("pid", 1u64.into()),
                ("tid", tid.clone()),
                ("args", JsonValue::object(args)),
            ]));
        }
    }
    let document = JsonValue::object([
        ("displayTimeUnit", JsonValue::from("ns")),
        ("traceEvents", JsonValue::Array(events)),
    ]);
    let mut out = String::new();
    write_json_into(&document, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_record(trace: u64) -> TraceRecord {
        TraceRecord {
            trace_id: TraceId(trace),
            spans: vec![
                Span {
                    id: SpanId(0),
                    parent: None,
                    name: "request",
                    start_ns: 0,
                    end_ns: 5_000,
                },
                Span {
                    id: SpanId(1),
                    parent: Some(SpanId(0)),
                    name: "queue",
                    start_ns: 0,
                    end_ns: 1_000,
                },
                Span {
                    id: SpanId(2),
                    parent: Some(SpanId(0)),
                    name: "engine",
                    start_ns: 1_000,
                    end_ns: 4_500,
                },
                Span {
                    id: SpanId(3),
                    parent: Some(SpanId(2)),
                    name: "lp",
                    start_ns: 1_200,
                    end_ns: 2_000,
                },
            ],
        }
    }

    #[test]
    fn records_validate_and_navigate() {
        let record = demo_record(7);
        assert!(record.is_well_formed());
        assert_eq!(record.root().name, "request");
        assert_eq!(record.find("lp").unwrap().duration_ns(), 800);
        let children: Vec<&str> = record.children(SpanId(0)).map(|s| s.name).collect();
        assert_eq!(children, ["queue", "engine"]);

        let mut broken = demo_record(7);
        broken.spans[3].end_ns = 9_999; // escapes the engine window
        assert!(!broken.is_well_formed());
        let mut broken = demo_record(7);
        broken.spans[1].parent = Some(SpanId(2)); // parent after child
        assert!(!broken.is_well_formed());
    }

    #[test]
    fn recorder_retains_the_most_recent_capacity_traces() {
        let recorder = FlightRecorder::new(3);
        assert_eq!(recorder.capacity(), 3);
        for i in 0..5 {
            recorder.record(demo_record(i));
        }
        let kept: Vec<u64> = recorder.snapshot().iter().map(|r| r.trace_id.0).collect();
        assert_eq!(kept, [2, 3, 4], "oldest first, oldest two evicted");
        assert!(recorder.find(TraceId(4)).is_some());
        assert!(recorder.find(TraceId(1)).is_none(), "evicted");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let recorder = FlightRecorder::new(0);
        assert_eq!(recorder.capacity(), 1);
        recorder.record(demo_record(1));
        assert_eq!(recorder.snapshot().len(), 1);
    }

    #[test]
    fn chrome_trace_output_parses_and_links_spans() {
        use crate::parse_json;
        let records = [demo_record(3), demo_record(4)];
        let json = chrome_trace_json(&records);
        let doc = parse_json(&json).expect("exporter output must parse");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // 2 metadata events + 2 * 4 spans.
        assert_eq!(events.len(), 10);
        let lp = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("lp"))
            .expect("lp event");
        assert_eq!(lp.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(lp.get("ts").and_then(|v| v.as_f64()), Some(1.2));
        assert_eq!(lp.get("dur").and_then(|v| v.as_f64()), Some(0.8));
        let args = lp.get("args").expect("args");
        assert_eq!(args.get("span_id").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(args.get("parent_id").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(
            args.get("trace_id").and_then(|v| v.as_str()),
            Some("0x0000000000000003")
        );
    }
}
