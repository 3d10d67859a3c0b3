//! Structured trace export: versioned JSONL span/event records with
//! monotonic timestamps.
//!
//! A trace is a sequence of newline-delimited JSON objects. Every line
//! carries the wire version (`"v"`) and a microsecond timestamp (`"ts_us"`)
//! measured from the sink's creation instant; timestamps are stamped while
//! holding the sink's writer lock, so they are non-decreasing in file order.
//! The first line of a well-formed trace is always a `meta` record.
//!
//! Line shapes (this is the schema [`validate_trace`] checks):
//!
//! ```text
//! {"v":1,"ts_us":N,"kind":"meta","version":1,"source":"..."}
//! {"v":1,"ts_us":N,"kind":"span_start","name":"...","target":T}
//! {"v":1,"ts_us":N,"kind":"span_end","name":"...","target":T,"micros":M}
//! {"v":1,"ts_us":N,"kind":"event","name":"...","target":T,"fields":{...}}
//! ```

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Wire version stamped into every record as `"v"` and into the `meta`
/// record's `version` field.
pub const TRACE_VERSION: u64 = 1;

/// A typed field value carried by [`TraceRecord::Event`] records.
///
/// Numbers are encoded as bare JSON numbers. On parse, a number containing
/// `.` / `e` / `E` becomes [`Value::F64`], a leading `-` becomes
/// [`Value::I64`], and anything else becomes [`Value::U64`] — so encode
/// non-negative integers as `U64` if you want exact round-trips. Non-finite
/// floats are encoded as JSON strings (`"inf"`, `"-inf"`, `"NaN"`) and
/// round-trip as [`Value::Str`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer (use for values that can be negative).
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
}

/// One structured trace record.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceRecord {
    /// Stream header: wire version plus a free-form producer description.
    Meta {
        /// Wire version of the records that follow (see [`TRACE_VERSION`]).
        version: u64,
        /// Human-readable producer description, e.g. a binary name.
        source: String,
    },
    /// A span (a named duration) has begun.
    SpanStart {
        /// Span name, e.g. `phase:synthesis`.
        name: String,
        /// The search target (or job) index the span belongs to.
        target: u64,
    },
    /// A span has ended.
    SpanEnd {
        /// Span name matching the corresponding [`TraceRecord::SpanStart`].
        name: String,
        /// The search target (or job) index the span belongs to.
        target: u64,
        /// Span duration in microseconds.
        micros: u64,
    },
    /// A point-in-time event with free-form typed fields.
    Event {
        /// Event name, e.g. `chain_end`.
        name: String,
        /// The search target (or job) index the event belongs to.
        target: u64,
        /// Ordered key/value payload.
        fields: Vec<(String, Value)>,
    },
}

impl TraceRecord {
    /// The value of field `key` of an [`TraceRecord::Event`]; `None` for
    /// other kinds or a missing key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        match self {
            TraceRecord::Event { fields, .. } => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }
}

/// An error produced while parsing or validating a trace stream.
///
/// `line` is 1-based; records produced by [`parse_line`] (which sees a single
/// line without context) report `line: 0`.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceError {
    /// A line was not a well-formed record.
    Malformed {
        /// 1-based line number (0 when unknown).
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// The stream did not start with a `meta` record.
    MissingMeta,
    /// The `meta` record declared an unsupported wire version.
    BadVersion {
        /// 1-based line number.
        line: usize,
        /// The version found.
        found: u64,
    },
    /// Timestamps went backwards between consecutive records.
    NonMonotonic {
        /// 1-based line number of the offending record.
        line: usize,
        /// Timestamp of the previous record.
        prev: u64,
        /// Timestamp of the offending record.
        found: u64,
    },
    /// A `span_end` with no open `span_start` of the same name and target
    /// (at `line`), or a `span_start` the stream never ends (`line: 0`).
    UnbalancedSpan {
        /// 1-based line number of the `span_end`, or 0.
        line: usize,
        /// The span's name.
        name: String,
        /// The span's target.
        target: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Malformed { line, detail } => {
                write!(f, "line {line}: malformed trace record: {detail}")
            }
            TraceError::MissingMeta => write!(f, "trace does not start with a meta record"),
            TraceError::BadVersion { line, found } => write!(
                f,
                "line {line}: unsupported trace version {found} (expected {TRACE_VERSION})"
            ),
            TraceError::NonMonotonic { line, prev, found } => write!(
                f,
                "line {line}: timestamp went backwards ({found} after {prev})"
            ),
            TraceError::UnbalancedSpan { line, name, target } => write!(
                f,
                "line {line}: span `{name}` of target {target} does not balance"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) if x.is_finite() => {
            // Debug formatting keeps a `.` or exponent so the value parses
            // back as F64 ("1.0", not "1").
            let _ = write!(out, "{x:?}");
        }
        Value::F64(x) => {
            out.push('"');
            let _ = write!(out, "{x}");
            out.push('"');
        }
        Value::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
    }
}

/// Encode one record as a single JSONL line (no trailing newline).
///
/// ```
/// use stoke_obs::{encode_line, parse_line, TraceRecord, Value};
///
/// let record = TraceRecord::Event {
///     name: "accept".into(),
///     target: 0,
///     fields: vec![("cost".into(), Value::F64(12.5))],
/// };
/// let line = encode_line(42, &record);
/// assert_eq!(
///     line,
///     r#"{"v":1,"ts_us":42,"kind":"event","name":"accept","target":0,"fields":{"cost":12.5}}"#
/// );
/// assert_eq!(parse_line(&line).unwrap(), (42, record));
/// ```
pub fn encode_line(ts_us: u64, record: &TraceRecord) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(out, "{{\"v\":{TRACE_VERSION},\"ts_us\":{ts_us},");
    match record {
        TraceRecord::Meta { version, source } => {
            let _ = write!(out, "\"kind\":\"meta\",\"version\":{version},\"source\":\"");
            escape_into(&mut out, source);
            out.push('"');
        }
        TraceRecord::SpanStart { name, target } => {
            out.push_str("\"kind\":\"span_start\",\"name\":\"");
            escape_into(&mut out, name);
            let _ = write!(out, "\",\"target\":{target}");
        }
        TraceRecord::SpanEnd {
            name,
            target,
            micros,
        } => {
            out.push_str("\"kind\":\"span_end\",\"name\":\"");
            escape_into(&mut out, name);
            let _ = write!(out, "\",\"target\":{target},\"micros\":{micros}");
        }
        TraceRecord::Event {
            name,
            target,
            fields,
        } => {
            out.push_str("\"kind\":\"event\",\"name\":\"");
            escape_into(&mut out, name);
            let _ = write!(out, "\",\"target\":{target},\"fields\":{{");
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(&mut out, key);
                out.push_str("\":");
                write_value(&mut out, value);
            }
            out.push('}');
        }
    }
    out.push('}');
    out
}

/// A minimal strict parser over one JSONL line.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(line: &'a str) -> Parser<'a> {
        Parser {
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    fn fail<T>(&self, detail: &str) -> Result<T, String> {
        Err(format!("{detail} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected `{}`", b as char))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return self.fail("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad \\u codepoint".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return self.fail("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // byte boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number_text(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return self.fail("expected number");
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap())
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        let text = self.parse_number_text()?;
        text.parse::<u64>()
            .map_err(|_| format!("expected unsigned integer, got `{text}`"))
    }

    /// Parse a `"key":` prefix and check the key matches.
    fn parse_key(&mut self, expected: &str) -> Result<(), String> {
        let key = self.parse_string()?;
        if key != expected {
            return Err(format!("expected key `{expected}`, got `{key}`"));
        }
        self.expect(b':')
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(_) => {
                let text = self.parse_number_text()?;
                if text.contains(['.', 'e', 'E']) {
                    text.parse::<f64>()
                        .map(Value::F64)
                        .map_err(|_| format!("bad float `{text}`"))
                } else if let Some(stripped) = text.strip_prefix('-') {
                    stripped
                        .parse::<i64>()
                        .map(|n| Value::I64(-n))
                        .map_err(|_| format!("bad integer `{text}`"))
                } else {
                    text.parse::<u64>()
                        .map(Value::U64)
                        .map_err(|_| format!("bad integer `{text}`"))
                }
            }
            None => self.fail("expected value"),
        }
    }

    fn parse_fields(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return self.fail("expected `,` or `}` in fields"),
            }
        }
    }
}

fn parse_line_inner(line: &str) -> Result<(u64, TraceRecord), String> {
    let mut p = Parser::new(line.trim_end());
    p.expect(b'{')?;
    p.parse_key("v")?;
    let v = p.parse_u64()?;
    if v != TRACE_VERSION {
        return Err(format!("unsupported wire version {v}"));
    }
    p.expect(b',')?;
    p.parse_key("ts_us")?;
    let ts_us = p.parse_u64()?;
    p.expect(b',')?;
    p.parse_key("kind")?;
    let kind = p.parse_string()?;
    let record = match kind.as_str() {
        "meta" => {
            p.expect(b',')?;
            p.parse_key("version")?;
            let version = p.parse_u64()?;
            p.expect(b',')?;
            p.parse_key("source")?;
            let source = p.parse_string()?;
            TraceRecord::Meta { version, source }
        }
        "span_start" => {
            p.expect(b',')?;
            p.parse_key("name")?;
            let name = p.parse_string()?;
            p.expect(b',')?;
            p.parse_key("target")?;
            let target = p.parse_u64()?;
            TraceRecord::SpanStart { name, target }
        }
        "span_end" => {
            p.expect(b',')?;
            p.parse_key("name")?;
            let name = p.parse_string()?;
            p.expect(b',')?;
            p.parse_key("target")?;
            let target = p.parse_u64()?;
            p.expect(b',')?;
            p.parse_key("micros")?;
            let micros = p.parse_u64()?;
            TraceRecord::SpanEnd {
                name,
                target,
                micros,
            }
        }
        "event" => {
            p.expect(b',')?;
            p.parse_key("name")?;
            let name = p.parse_string()?;
            p.expect(b',')?;
            p.parse_key("target")?;
            let target = p.parse_u64()?;
            p.expect(b',')?;
            p.parse_key("fields")?;
            let fields = p.parse_fields()?;
            TraceRecord::Event {
                name,
                target,
                fields,
            }
        }
        other => return Err(format!("unknown record kind `{other}`")),
    };
    p.expect(b'}')?;
    if p.pos != p.bytes.len() {
        return p.fail("trailing bytes after record");
    }
    Ok((ts_us, record))
}

/// Parse one JSONL line back into `(ts_us, record)`.
///
/// The parser is strict: it accepts exactly the key order [`encode_line`]
/// emits (that fixed shape *is* the schema). Errors carry `line: 0`; stream
/// validators re-wrap them with real line numbers.
pub fn parse_line(line: &str) -> Result<(u64, TraceRecord), TraceError> {
    parse_line_inner(line).map_err(|detail| TraceError::Malformed { line: 0, detail })
}

/// Summary statistics returned by a successful [`validate_trace`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total number of records (including the `meta` header).
    pub records: u64,
    /// Number of `span_start` records.
    pub spans_started: u64,
    /// Number of `span_end` records.
    pub spans_ended: u64,
    /// Number of `event` records.
    pub events: u64,
}

/// Validate a JSONL trace stream against the schema: every line parses, the
/// first record is a `meta` with the supported version, timestamps never go
/// backwards, and spans balance: every `span_end` closes an open
/// `span_start` of the same name and target, and no span is left open at
/// the end. Blank lines are rejected. Returns summary counts on success.
pub fn validate_trace<'a, I: IntoIterator<Item = &'a str>>(
    lines: I,
) -> Result<TraceSummary, TraceError> {
    let mut summary = TraceSummary::default();
    let mut prev_ts: Option<u64> = None;
    // The (name, target) of every open span.
    let mut open: Vec<(String, u64)> = Vec::new();
    for (idx, line) in lines.into_iter().enumerate() {
        let line_no = idx + 1;
        let (ts_us, record) = parse_line(line).map_err(|e| match e {
            TraceError::Malformed { detail, .. } => TraceError::Malformed {
                line: line_no,
                detail,
            },
            other => other,
        })?;
        match (&record, line_no) {
            (TraceRecord::Meta { version, .. }, 1) if *version != TRACE_VERSION => {
                return Err(TraceError::BadVersion {
                    line: line_no,
                    found: *version,
                });
            }
            (TraceRecord::Meta { .. }, 1) => {}
            (_, 1) => return Err(TraceError::MissingMeta),
            _ => {}
        }
        if let Some(prev) = prev_ts {
            if ts_us < prev {
                return Err(TraceError::NonMonotonic {
                    line: line_no,
                    prev,
                    found: ts_us,
                });
            }
        }
        prev_ts = Some(ts_us);
        summary.records += 1;
        match record {
            TraceRecord::SpanStart { name, target } => {
                summary.spans_started += 1;
                open.push((name, target));
            }
            TraceRecord::SpanEnd { name, target, .. } => {
                summary.spans_ended += 1;
                let Some(i) = open.iter().position(|s| s.0 == name && s.1 == target) else {
                    return Err(TraceError::UnbalancedSpan {
                        line: line_no,
                        name,
                        target,
                    });
                };
                open.swap_remove(i);
            }
            TraceRecord::Event { .. } => summary.events += 1,
            TraceRecord::Meta { .. } => {}
        }
    }
    if prev_ts.is_none() {
        return Err(TraceError::MissingMeta);
    }
    if let Some((name, target)) = open.pop() {
        return Err(TraceError::UnbalancedSpan {
            line: 0,
            name,
            target,
        });
    }
    Ok(summary)
}

/// A destination for structured trace records.
///
/// Implementations stamp their own timestamps so that records appear in the
/// output in non-decreasing timestamp order.
pub trait TraceSink: Send + Sync {
    /// Append one record to the trace.
    fn record(&self, record: TraceRecord);

    /// Flush any buffered records to their final destination.
    fn flush(&self) {}
}

struct JsonlInner {
    writer: BufWriter<Box<dyn Write + Send>>,
    failed: bool,
}

/// A [`TraceSink`] that writes JSONL to an underlying writer.
///
/// Timestamps are microseconds since sink creation and are stamped while the
/// writer lock is held, guaranteeing monotonic file order. The constructor
/// writes the `meta` header line. I/O errors after construction are recorded
/// and silently swallow subsequent records (tracing must never take down the
/// search).
pub struct JsonlSink {
    epoch: Instant,
    inner: Mutex<JsonlInner>,
}

impl JsonlSink {
    /// Wrap an arbitrary writer. `source` describes the producer and goes
    /// into the `meta` header.
    pub fn new(writer: Box<dyn Write + Send>, source: &str) -> JsonlSink {
        let sink = JsonlSink {
            epoch: Instant::now(),
            inner: Mutex::new(JsonlInner {
                writer: BufWriter::new(writer),
                failed: false,
            }),
        };
        sink.record(TraceRecord::Meta {
            version: TRACE_VERSION,
            source: source.to_string(),
        });
        sink
    }

    /// Create (truncating) a trace file at `path`.
    pub fn create(path: &std::path::Path, source: &str) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(file), source))
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, record: TraceRecord) {
        let mut inner = self.inner.lock().unwrap();
        if inner.failed {
            return;
        }
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        let line = encode_line(ts_us, &record);
        if writeln!(inner.writer, "{line}").is_err() {
            inner.failed = true;
        }
    }

    fn flush(&self) {
        let mut inner = self.inner.lock().unwrap();
        if inner.writer.flush().is_err() {
            inner.failed = true;
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.inner.lock().map(|mut inner| inner.writer.flush());
    }
}

struct RingInner {
    records: VecDeque<(u64, TraceRecord)>,
    dropped: u64,
}

/// An in-memory bounded [`TraceSink`] for tests and overhead benchmarks.
///
/// Keeps the most recent `capacity` records; older records are discarded and
/// counted in [`RingSink::dropped`].
pub struct RingSink {
    epoch: Instant,
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl RingSink {
    /// Create a ring buffer holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                records: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// Copy out the buffered `(ts_us, record)` pairs in arrival order.
    pub fn records(&self) -> Vec<(u64, TraceRecord)> {
        self.inner.lock().unwrap().records.iter().cloned().collect()
    }

    /// Number of records discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }
}

impl TraceSink for RingSink {
    fn record(&self, record: TraceRecord) {
        let mut inner = self.inner.lock().unwrap();
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        if inner.records.len() == self.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back((ts_us, record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn roundtrip(record: TraceRecord) {
        let line = encode_line(123, &record);
        let (ts, parsed) = parse_line(&line).unwrap();
        assert_eq!(ts, 123);
        assert_eq!(parsed, record, "line was: {line}");
    }

    #[test]
    fn roundtrip_every_record_type() {
        roundtrip(TraceRecord::Meta {
            version: TRACE_VERSION,
            source: "unit-test".into(),
        });
        roundtrip(TraceRecord::SpanStart {
            name: "phase:synthesis".into(),
            target: 3,
        });
        roundtrip(TraceRecord::SpanEnd {
            name: "phase:synthesis".into(),
            target: 3,
            micros: 1_500_000,
        });
        roundtrip(TraceRecord::Event {
            name: "chain_end".into(),
            target: 0,
            fields: vec![
                ("proposals".into(), Value::U64(60_000)),
                ("delta".into(), Value::I64(-42)),
                ("cost".into(), Value::F64(17.25)),
                ("whole".into(), Value::F64(2.0)),
                ("kind".into(), Value::Str("opcode".into())),
            ],
        });
        roundtrip(TraceRecord::Event {
            name: "empty".into(),
            target: 1,
            fields: vec![],
        });
    }

    #[test]
    fn roundtrip_escaped_strings() {
        roundtrip(TraceRecord::Event {
            name: "quo\"te\\and\nnewline\ttab".into(),
            target: 0,
            fields: vec![("k\u{1}ey".into(), Value::Str("héllo \u{7f}".into()))],
        });
    }

    #[test]
    fn nonfinite_floats_become_strings() {
        let line = encode_line(
            0,
            &TraceRecord::Event {
                name: "e".into(),
                target: 0,
                fields: vec![("x".into(), Value::F64(f64::INFINITY))],
            },
        );
        let (_, parsed) = parse_line(&line).unwrap();
        match parsed {
            TraceRecord::Event { fields, .. } => {
                assert_eq!(fields[0].1, Value::Str("inf".into()));
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"v\":99,\"ts_us\":0,\"kind\":\"meta\"}").is_err());
        // Trailing bytes are rejected.
        let good = encode_line(
            0,
            &TraceRecord::SpanStart {
                name: "s".into(),
                target: 0,
            },
        );
        assert!(parse_line(&format!("{good}x")).is_err());
    }

    #[test]
    fn jsonl_sink_emits_valid_monotonic_stream() {
        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let sink = JsonlSink::new(Box::new(buf.clone()), "test-producer");
        sink.record(TraceRecord::SpanStart {
            name: "s".into(),
            target: 0,
        });
        sink.record(TraceRecord::SpanEnd {
            name: "s".into(),
            target: 0,
            micros: 10,
        });
        sink.record(TraceRecord::Event {
            name: "done".into(),
            target: 0,
            fields: vec![("ok".into(), Value::U64(1))],
        });
        sink.flush();
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let summary = validate_trace(text.lines()).unwrap();
        assert_eq!(summary.records, 4);
        assert_eq!(summary.spans_started, 1);
        assert_eq!(summary.spans_ended, 1);
        assert_eq!(summary.events, 1);
        assert!(text.lines().next().unwrap().contains("\"kind\":\"meta\""));
    }

    #[test]
    fn validate_rejects_missing_meta_and_backwards_time() {
        let span = encode_line(
            5,
            &TraceRecord::SpanStart {
                name: "s".into(),
                target: 0,
            },
        );
        assert_eq!(
            validate_trace([span.as_str()]),
            Err(TraceError::MissingMeta)
        );
        assert_eq!(validate_trace([]), Err(TraceError::MissingMeta));

        let meta = encode_line(
            10,
            &TraceRecord::Meta {
                version: TRACE_VERSION,
                source: "t".into(),
            },
        );
        let early = encode_line(
            4,
            &TraceRecord::SpanStart {
                name: "s".into(),
                target: 0,
            },
        );
        assert_eq!(
            validate_trace([meta.as_str(), early.as_str()]),
            Err(TraceError::NonMonotonic {
                line: 2,
                prev: 10,
                found: 4
            })
        );
    }

    #[test]
    fn validate_rejects_unbalanced_spans() {
        let line = |ts, record| encode_line(ts, &record);
        let meta = line(
            0,
            TraceRecord::Meta {
                version: TRACE_VERSION,
                source: "t".into(),
            },
        );
        let start = |name: &str, target| {
            line(
                1,
                TraceRecord::SpanStart {
                    name: name.into(),
                    target,
                },
            )
        };
        let end = |name: &str, target| {
            line(
                2,
                TraceRecord::SpanEnd {
                    name: name.into(),
                    target,
                    micros: 1,
                },
            )
        };
        // Two jobs may interleave spans of one name.
        let ok = [
            meta.clone(),
            start("s", 1),
            start("s", 2),
            start("s", 1),
            end("s", 1),
            end("s", 2),
            end("s", 1),
        ];
        assert!(validate_trace(ok.iter().map(String::as_str)).is_ok());
        let unclosed = [meta.clone(), start("s", 1), start("t", 1), end("s", 1)];
        assert_eq!(
            validate_trace(unclosed.iter().map(String::as_str)),
            Err(TraceError::UnbalancedSpan {
                line: 0,
                name: "t".into(),
                target: 1
            })
        );
        let unopened = [meta, start("s", 1), end("s", 2)];
        assert_eq!(
            validate_trace(unopened.iter().map(String::as_str)),
            Err(TraceError::UnbalancedSpan {
                line: 3,
                name: "s".into(),
                target: 2
            })
        );
    }

    #[test]
    fn ring_sink_caps_and_counts_drops() {
        let ring = RingSink::new(2);
        for i in 0..5u64 {
            ring.record(TraceRecord::SpanStart {
                name: format!("s{i}"),
                target: i,
            });
        }
        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(ring.dropped(), 3);
        match &records[1].1 {
            TraceRecord::SpanStart { target, .. } => assert_eq!(*target, 4),
            _ => panic!("wrong kind"),
        }
        // Timestamps are non-decreasing in arrival order.
        assert!(records[0].0 <= records[1].0);
    }

    #[test]
    fn concurrent_jobs_interleave_but_stay_ordered_per_target() {
        // Two "jobs" record into one shared ring from separate threads;
        // the ring may interleave them arbitrarily, but filtering by
        // target must recover each job's record order exactly.
        let ring = RingSink::new(1024);
        std::thread::scope(|scope| {
            for target in 0..2u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        ring.record(TraceRecord::SpanStart {
                            name: "phase:synthesis".into(),
                            target,
                        });
                        ring.record(TraceRecord::Event {
                            name: "progress".into(),
                            target,
                            fields: vec![("proposals".into(), Value::U64(i))],
                        });
                    }
                });
            }
        });
        let records = ring.records();
        assert_eq!(records.len(), 400);
        assert_eq!(ring.dropped(), 0);
        // Timestamps are stamped under the ring's lock, so they stay
        // non-decreasing across writers.
        assert!(records.windows(2).all(|w| w[0].0 <= w[1].0));
        for target in 0..2u64 {
            let mut expect_progress = false;
            let mut next_proposals = 0u64;
            let mut seen = 0;
            for (_, record) in &records {
                match record {
                    TraceRecord::SpanStart { target: t, .. } if *t == target => {
                        assert!(!expect_progress, "job {target} records out of order");
                        expect_progress = true;
                        seen += 1;
                    }
                    TraceRecord::Event { target: t, .. } if *t == target => {
                        assert!(expect_progress, "job {target} records out of order");
                        assert_eq!(record.field("proposals"), Some(&Value::U64(next_proposals)));
                        expect_progress = false;
                        next_proposals += 1;
                        seen += 1;
                    }
                    _ => {}
                }
            }
            assert_eq!(seen, 200);
        }
    }
}
