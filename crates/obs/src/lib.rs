//! `stoke-obs`: observability primitives for the stoke workspace.
//!
//! Two independent layers, both dependency-free:
//!
//! - [`MetricsRegistry`] — a value store of counters, gauges and
//!   fixed-bucket histograms. Each family is declared once as a
//!   [`Counter`], [`Gauge`] or [`Histogram`] constant (name, label key,
//!   bounds), and each update names a declared family plus a label value.
//!   The registry is a fold of the trace: each update adds one record's
//!   number to one value under one lock. Export via [`MetricsRegistry::snapshot`] (owned,
//!   programmatic) or [`MetricsRegistry::render_text`] (Prometheus text
//!   exposition).
//! - [`TraceSink`] — structured trace export as versioned JSONL span/event
//!   records with monotonic timestamps. [`JsonlSink`] writes to a file or
//!   any writer; [`RingSink`] is a bounded in-memory sink for tests.
//!   [`validate_trace`] checks a stream against the wire schema and
//!   checks that its spans balance (the `obs-check` binary wraps it for
//!   CI).
//!
//! ```
//! use stoke_obs::{Counter, Histogram, MetricsRegistry, RingSink, TraceRecord, TraceSink, Value};
//!
//! const PROPOSALS: Counter = Counter::new("proposals_total", Some("phase"));
//! const LATENCY: Histogram = Histogram::new("latency_seconds", None, &[0.01, 0.1, 1.0]);
//!
//! let registry = MetricsRegistry::new();
//! registry.counter_add(&PROPOSALS, "synthesis", 2);
//! registry.histogram_observe(&LATENCY, "", 0.05);
//! assert_eq!(registry.snapshot().counter("proposals_total{phase=\"synthesis\"}"), 2);
//!
//! let trace = RingSink::new(16);
//! trace.record(TraceRecord::Event {
//!     name: "accept".into(),
//!     target: 0,
//!     fields: vec![("cost".into(), Value::F64(3.5))],
//! });
//! assert_eq!(trace.records().len(), 1);
//! ```

#![deny(missing_docs)]

mod metrics;
mod trace;

pub use metrics::{
    Bucket, Counter, CounterSample, Gauge, GaugeSample, Histogram, HistogramSample,
    MetricsRegistry, Snapshot, SECONDS_BOUNDS,
};
pub use trace::{
    encode_line, parse_line, validate_trace, JsonlSink, RingSink, TraceError, TraceRecord,
    TraceSink, TraceSummary, Value, TRACE_VERSION,
};
