//! Dependency-light metrics core for the kSPR serving stack.
//!
//! The paper's evaluation is organized around side metrics (processed
//! records, CellTree nodes, LP calls, simulated I/O — Figures 11/17/19) and
//! `QueryStats` mirrors those per query; this crate adds the *time*
//! dimension the serving stack (admission → batching → engine → WAL → ack →
//! notify) needs to be observable while it runs:
//!
//! * [`Histogram`] — a lock-free log-bucketed (HDR-style) latency histogram
//!   with atomic buckets; recorded from any thread, snapshot at any time,
//!   snapshots merge exactly.  Quantiles carry a bounded `1/8` relative
//!   error.
//! * [`MetricsRegistry`] — named counters, gauges, and histograms handed out
//!   as `Arc` handles; [`MetricsSnapshot`] is the sorted plain-value export,
//!   renderable as a Prometheus-style text exposition.
//! * [`RequestTrace`] — a span that travels with one request and stamps
//!   monotonic per-[`Stage`] timings that partition its total latency; in
//!   traced mode ([`RequestTrace::traced`]) it also collects a span tree.
//! * [`TraceRecord`] / [`FlightRecorder`] — completed span trees and the
//!   bounded ring retaining the most recent ones; [`chrome_trace_json`]
//!   exports any set of records as Chrome Trace Event Format JSON.
//! * [`parse_json`] / [`write_json_into`] — a strict, dependency-free JSON
//!   reader and writer for the trace/perf tooling that consumes those
//!   exports.
//!
//! The crate deliberately has no dependencies (not even intra-workspace):
//! every layer of the stack — `kspr-durable`'s WAL, `kspr-serve`'s
//! dispatcher, the wire front-end — can link it without cycles.

mod histogram;
mod json;
mod registry;
mod span;
mod trace;

pub use histogram::{bucket_high, bucket_index, bucket_low, Histogram, HistogramSnapshot};
pub use histogram::{NUM_BUCKETS, SUBBUCKETS};
pub use json::{parse_json, write_json_into, JsonValue};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use span::{chrome_trace_json, FlightRecorder, Span, SpanId, TraceId, TraceRecord};
pub use trace::{RequestTrace, Stage, StageTimings};
