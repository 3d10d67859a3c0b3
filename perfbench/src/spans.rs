//! In-memory spans for the traced run: recorded around the benchmark's
//! calls into each layer, kept in memory while the run measures, and
//! written out once at the end in the `stoke-obs` JSONL v1 schema.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stoke_obs::{JsonlSink, TraceRecord, TraceSink, Value};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `session.run` or `phase.synthesis`.
    pub name: &'static str,
    /// Kernel index or job id the span belongs to.
    pub target: u64,
    /// Offset of the start from the tracer's epoch.
    pub start: Duration,
    /// Offset of the end from the tracer's epoch.
    pub end: Duration,
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Time since the epoch.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Reserve an id for a span that closes later (so children opened in
    /// the meantime can name it as their parent).
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a closed span under a previously reserved id.
    pub fn close(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        target: u64,
        start: Duration,
    ) {
        let end = self.now();
        self.spans.lock().expect("span buffer lock").push(Span {
            id,
            parent,
            name,
            target,
            start,
            end,
        });
    }

    /// Run `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        target: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.open();
        let start = self.now();
        let out = f(id);
        self.close(id, parent, name, target, start);
        out
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// durations of its direct children.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_time: BTreeMap<u64, Duration> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_default() += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let own = (s.end - s.start)
                .saturating_sub(child_time.get(&s.id).copied().unwrap_or_default());
            *out.entry(s.name).or_insert(0.0) += own.as_secs_f64();
        }
        out
    }

    /// Write the spans (start/end records in time order, then one
    /// `self_time` event per span name) to `path` through
    /// [`JsonlSink`], and check the file against the v1 validator.
    pub fn write_jsonl(&self, path: &Path, source: &str) -> Result<u64, String> {
        let mut records: Vec<(Duration, u8, TraceRecord)> = Vec::new();
        for s in self.spans() {
            records.push((
                s.start,
                1,
                TraceRecord::SpanStart {
                    name: s.name.to_string(),
                    target: s.target,
                },
            ));
            records.push((
                s.end,
                0,
                TraceRecord::SpanEnd {
                    name: s.name.to_string(),
                    target: s.target,
                    micros: (s.end - s.start).as_micros() as u64,
                },
            ));
        }
        // Ends sort before starts at equal times, so back-to-back spans
        // never appear to overlap.
        records.sort_by_key(|(t, order, _)| (*t, *order));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let sink = JsonlSink::create(path, source)
            .map_err(|e| format!("create {}: {e}", path.display()))?;
        for (_, _, record) in records {
            sink.record(record);
        }
        for (name, seconds) in self.self_seconds() {
            sink.record(TraceRecord::Event {
                name: "self_time".to_string(),
                target: 0,
                fields: vec![
                    ("span".to_string(), Value::Str(name.to_string())),
                    ("self_us".to_string(), Value::U64((seconds * 1e6) as u64)),
                ],
            });
        }
        sink.flush();
        drop(sink);
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let summary = stoke_obs::validate_trace(text.lines())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(summary.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let tracer = Tracer::new();
        tracer.span("outer", 0, None, |outer| {
            tracer.span("inner", 0, Some(outer), |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
            std::thread::sleep(Duration::from_millis(5));
        });
        let self_s = tracer.self_seconds();
        assert!(self_s["inner"] >= 0.02);
        assert!(
            self_s["outer"] >= 0.005 && self_s["outer"] < 0.02,
            "{self_s:?}"
        );
    }
}
