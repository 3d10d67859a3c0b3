//! `stoke-obs`: observability primitives for the stoke workspace.
//!
//! Two independent layers, both dependency-free:
//!
//! - [`MetricsRegistry`] — a hand-rolled metrics registry. Registration
//!   happens once up front; the returned [`Counter`], [`Gauge`], and
//!   [`Histogram`] handles are updated with plain atomic operations, so the
//!   hot path takes no locks and performs no allocation. Export via
//!   [`MetricsRegistry::snapshot`] (owned, programmatic) or
//!   [`MetricsRegistry::render_text`] (Prometheus text exposition).
//! - [`TraceSink`] — structured trace export as versioned JSONL span/event
//!   records with monotonic timestamps. [`JsonlSink`] writes to a file or
//!   any writer; [`RingSink`] is a bounded in-memory sink for tests.
//!   [`validate_trace`] checks a stream against the wire schema and
//!   checks that its spans balance (the `obs-check` binary wraps it for
//!   CI).
//!
//! ```
//! use stoke_obs::{MetricsRegistry, RingSink, TraceRecord, TraceSink, Value};
//!
//! let registry = MetricsRegistry::new();
//! let proposals = registry.counter("proposals_total");
//! let latency = registry.histogram("latency_seconds", &[0.01, 0.1, 1.0]);
//! proposals.add(2);
//! latency.observe(0.05);
//! assert_eq!(registry.snapshot().counter("proposals_total"), 2);
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
    exponential_buckets, Bucket, Counter, CounterSample, Gauge, GaugeSample, Histogram,
    HistogramSample, MetricsRegistry, Snapshot,
};
pub use trace::{
    encode_line, parse_line, validate_trace, JsonlSink, RingSink, TraceError, TraceRecord,
    TraceSink, TraceSummary, Value, TRACE_VERSION,
};
