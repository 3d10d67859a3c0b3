//! A metrics registry that stores counters, gauges and fixed-bucket
//! histograms as plain values.
//!
//! Each family is declared once, as a [`Counter`], [`Gauge`] or
//! [`Histogram`] constant that fixes its name, label key and bounds, and
//! every update takes a declaration of its own kind plus a label value. So
//! updating a family as the wrong type does not compile. The registry is a
//! fold target: every value lives in one map under one lock, so an update
//! is one lock, one map entry and an integer or float add.
//! [`MetricsRegistry::snapshot`] produces an owned point-in-time copy and
//! [`MetricsRegistry::render_text`] emits Prometheus-style text exposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Upper bounds, in seconds, of a wall-time histogram: 1 ms to 2 min.
pub const SECONDS_BOUNDS: [f64; 9] = [0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0];

/// A counter family: one monotonically increasing integer per label value.
#[derive(Debug)]
pub struct Counter {
    /// Family name.
    pub name: &'static str,
    /// Label key, or `None` for a family with one unlabelled value.
    pub label: Option<&'static str>,
}

impl Counter {
    /// Declare the counter family `name` with label key `label`.
    pub const fn new(name: &'static str, label: Option<&'static str>) -> Counter {
        Counter { name, label }
    }
}

/// A gauge family: one integer per label value that moves both ways.
#[derive(Debug)]
pub struct Gauge {
    /// Family name.
    pub name: &'static str,
    /// Label key, or `None` for a family with one unlabelled value.
    pub label: Option<&'static str>,
}

impl Gauge {
    /// Declare the gauge family `name` with label key `label`.
    pub const fn new(name: &'static str, label: Option<&'static str>) -> Gauge {
        Gauge { name, label }
    }
}

/// A histogram family: fixed buckets per label value. As in Prometheus, an
/// observation `v` lands in the first bucket with `v <= bound`, and an
/// implicit `+Inf` bucket catches everything beyond the largest bound.
#[derive(Debug)]
pub struct Histogram {
    /// Family name.
    pub name: &'static str,
    /// Label key, or `None` for a family with one unlabelled value.
    pub label: Option<&'static str>,
    /// Finite, strictly increasing bucket upper bounds.
    pub bounds: &'static [f64],
}

impl Histogram {
    /// Declare the histogram family `name` with label key `label` and
    /// bucket upper bounds `bounds`.
    pub const fn new(
        name: &'static str,
        label: Option<&'static str>,
        bounds: &'static [f64],
    ) -> Histogram {
        Histogram {
            name,
            label,
            bounds,
        }
    }
}

/// Identifies one registered metric: a family name plus a rendered label set.
///
/// `labels` holds the inner `key="value"` text without braces (empty when
/// the family has no label key) so histogram exposition can splice in `le`.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    family: &'static str,
    labels: String,
}

impl Key {
    /// The key of `family`'s metric for label value `value`, which an
    /// unlabelled family ignores.
    fn new(family: &'static str, label: Option<&'static str>, value: &str) -> Key {
        debug_assert!(
            !value.contains('"') && !value.contains('\\'),
            "label values must not contain quotes or backslashes"
        );
        let labels = label.map_or(String::new(), |key| format!("{key}=\"{value}\""));
        Key { family, labels }
    }

    fn full_name(&self) -> String {
        if self.labels.is_empty() {
            self.family.to_string()
        } else {
            format!("{}{{{}}}", self.family, self.labels)
        }
    }
}

/// The value of one metric.
#[derive(Debug)]
enum Metric {
    Counter(u64),
    Gauge(i64),
    Histogram(Buckets),
}

impl Metric {
    /// The metric type, as the exposition's `# TYPE` line names it.
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The observations of one histogram metric.
#[derive(Debug)]
struct Buckets {
    /// The family's bounds. The `+Inf` bucket is `counts[bounds.len()]`.
    bounds: &'static [f64],
    /// Per-bucket observation counts (not cumulative).
    counts: Vec<u64>,
    /// Total of all observed values.
    sum: f64,
}

impl Buckets {
    /// The cumulative `(le, count)` buckets, ending with `+Inf`.
    fn cumulative(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let les = self.bounds.iter().copied().chain([f64::INFINITY]);
        les.zip(self.counts.iter().scan(0, |total, &n| {
            *total += n;
            Some(*total)
        }))
    }

    /// Total number of observations.
    fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// One counter sample in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Full metric name including any label set, e.g. `moves_total{kind="swap"}`.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge sample in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSample {
    /// Full metric name including any label set.
    pub name: String,
    /// Gauge value at snapshot time.
    pub value: i64,
}

/// One cumulative histogram bucket in a [`HistogramSample`].
#[derive(Clone, Debug, PartialEq)]
pub struct Bucket {
    /// Inclusive upper bound of this bucket (`f64::INFINITY` for the last).
    pub le: f64,
    /// Number of observations `<= le` (cumulative, Prometheus-style).
    pub cumulative: u64,
}

/// One histogram sample in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSample {
    /// Full metric name including any label set.
    pub name: String,
    /// Cumulative bucket counts, ending with the `+Inf` bucket.
    pub buckets: Vec<Bucket>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

/// A point-in-time copy of every metric in a [`MetricsRegistry`], sorted by
/// name for deterministic iteration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All registered counters.
    pub counters: Vec<CounterSample>,
    /// All registered gauges.
    pub gauges: Vec<GaugeSample>,
    /// All registered histograms.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// Look up a counter value by its full name. Returns 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Look up a gauge value by its full name. Returns 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0, |g| g.value)
    }

    /// Look up a histogram sample by its full name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// A registry of metric values, each created at zero on its first update.
///
/// An update names its metric by a declared family and a label value:
/// [`counter_add`](Self::counter_add) takes a [`Counter`],
/// [`gauge_add`](Self::gauge_add) a [`Gauge`] and
/// [`histogram_observe`](Self::histogram_observe) a [`Histogram`]. Family
/// names must be unique across the declarations that update one registry:
/// an update under a name that another kind already holds is dropped.
///
/// ```
/// use stoke_obs::{Counter, MetricsRegistry};
///
/// const MOVES: Counter = Counter::new("moves_total", Some("kind"));
///
/// let registry = MetricsRegistry::new();
/// registry.counter_add(&MOVES, "swap", 3);
/// let text = registry.render_text();
/// assert!(text.contains("# TYPE moves_total counter"));
/// assert!(text.contains("moves_total{kind=\"swap\"} 3"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<Key, Metric>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to the counter of `family` for label value `label`.
    pub fn counter_add(&self, family: &'static Counter, label: &str, n: u64) {
        let key = Key::new(family.name, family.label, label);
        let mut metrics = self.metrics.lock().unwrap();
        if let Metric::Counter(value) = metrics.entry(key).or_insert(Metric::Counter(0)) {
            *value += n;
        }
    }

    /// Add `n` (possibly negative) to the gauge of `family` for label
    /// value `label`.
    pub fn gauge_add(&self, family: &'static Gauge, label: &str, n: i64) {
        let key = Key::new(family.name, family.label, label);
        let mut metrics = self.metrics.lock().unwrap();
        if let Metric::Gauge(value) = metrics.entry(key).or_insert(Metric::Gauge(0)) {
            *value += n;
        }
    }

    /// Record the observation `v` in the histogram of `family` for label
    /// value `label`.
    pub fn histogram_observe(&self, family: &'static Histogram, label: &str, v: f64) {
        let key = Key::new(family.name, family.label, label);
        let fresh = || {
            Metric::Histogram(Buckets {
                bounds: family.bounds,
                counts: vec![0; family.bounds.len() + 1],
                sum: 0.0,
            })
        };
        let mut metrics = self.metrics.lock().unwrap();
        if let Metric::Histogram(h) = metrics.entry(key).or_insert_with(fresh) {
            let bucket = h.bounds.iter().position(|&b| v <= b);
            h.counts[bucket.unwrap_or(h.bounds.len())] += 1;
            h.sum += v;
        }
    }

    /// Take a point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap();
        let mut snapshot = Snapshot::default();
        for (key, metric) in metrics.iter() {
            let name = key.full_name();
            match metric {
                &Metric::Counter(value) => snapshot.counters.push(CounterSample { name, value }),
                &Metric::Gauge(value) => snapshot.gauges.push(GaugeSample { name, value }),
                Metric::Histogram(h) => snapshot.histograms.push(HistogramSample {
                    name,
                    buckets: h
                        .cumulative()
                        .map(|(le, cumulative)| Bucket { le, cumulative })
                        .collect(),
                    count: h.count(),
                    sum: h.sum,
                }),
            }
        }
        snapshot
    }

    /// Render every metric in Prometheus text exposition format: counters,
    /// then gauges, then histograms, each family under one `# TYPE` line
    /// with one sample line per metric, histograms expanded into
    /// cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
    pub fn render_text(&self) -> String {
        let metrics = self.metrics.lock().unwrap();
        let mut out = String::new();
        for kind in ["counter", "gauge", "histogram"] {
            let mut last_family = None;
            for (key, metric) in metrics.iter().filter(|(_, m)| m.kind() == kind) {
                if last_family != Some(key.family) {
                    let _ = writeln!(out, "# TYPE {} {kind}", key.family);
                    last_family = Some(key.family);
                }
                let name = key.full_name();
                match metric {
                    Metric::Counter(value) => {
                        let _ = writeln!(out, "{name} {value}");
                    }
                    Metric::Gauge(value) => {
                        let _ = writeln!(out, "{name} {value}");
                    }
                    Metric::Histogram(h) => {
                        let separator = if key.labels.is_empty() { "" } else { "," };
                        for (le, total) in h.cumulative() {
                            let le = if le.is_finite() {
                                le.to_string()
                            } else {
                                "+Inf".to_string()
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{{{}{separator}le=\"{le}\"}} {total}",
                                key.family, key.labels
                            );
                        }
                        // `{labels}`, or empty for an unlabelled histogram.
                        let labels = &name[key.family.len()..];
                        let _ = writeln!(out, "{}_sum{labels} {}", key.family, h.sum);
                        let _ = writeln!(out, "{}_count{labels} {}", key.family, h.count());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn counters_sum_exactly_under_threaded_hammering() {
        const HAMMERED: Counter = Counter::new("hammered_total", None);
        let registry = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let registry = registry.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        registry.counter_add(&HAMMERED, "", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(registry.snapshot().counter("hammered_total"), 80_000);
    }

    #[test]
    fn histogram_concurrent_observations_count_exactly() {
        const LATENCY: Histogram = Histogram::new("latency_seconds", None, &[0.5, 1.0]);
        let registry = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let registry = registry.clone();
                thread::spawn(move || {
                    for _ in 0..5_000 {
                        let v = 0.25 * (i + 1) as f64;
                        registry.histogram_observe(&LATENCY, "", v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = registry.snapshot();
        let sample = snap.histogram("latency_seconds").unwrap();
        assert_eq!(sample.count, 20_000);
        // Sum is exact: each thread adds 5000 * 0.25 * (i+1); all terms are
        // representable in binary so the accumulation has no rounding.
        let expected: f64 = (1..=4).map(|i| 5_000.0 * 0.25 * i as f64).sum();
        assert!((sample.sum - expected).abs() < 1e-9);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        const BOUNDS: Histogram = Histogram::new("bounds_seconds", None, &[1.0, 2.0, 4.0]);
        let registry = MetricsRegistry::new();
        let observe = |v| registry.histogram_observe(&BOUNDS, "", v);
        // Exactly on a bound lands in that bound's bucket (v <= le).
        observe(1.0);
        observe(2.0);
        observe(2.0000001);
        observe(100.0); // +Inf bucket
        let snap = registry.snapshot();
        let sample = snap.histogram("bounds_seconds").unwrap();
        let cumulative: Vec<u64> = sample.buckets.iter().map(|b| b.cumulative).collect();
        assert_eq!(cumulative, vec![1, 2, 3, 4]);
        assert_eq!(sample.buckets[3].le, f64::INFINITY);
        assert_eq!(sample.count, 4);
    }

    #[test]
    fn updates_to_one_key_share_one_value() {
        const DUP: Counter = Counter::new("dup_total", Some("k"));
        let registry = MetricsRegistry::new();
        registry.counter_add(&DUP, "v", 2);
        registry.counter_add(&DUP, "v", 1);
        // A different label value is a different value in the same family.
        registry.counter_add(&DUP, "other", 0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(r#"dup_total{k="v"}"#), 3);
        assert_eq!(snap.counter(r#"dup_total{k="other"}"#), 0);
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    fn gauge_moves_both_directions() {
        const DEPTH: Gauge = Gauge::new("queue_depth", None);
        let registry = MetricsRegistry::new();
        registry.gauge_add(&DEPTH, "", 1);
        registry.gauge_add(&DEPTH, "", 1);
        registry.gauge_add(&DEPTH, "", -1);
        assert_eq!(registry.snapshot().gauge("queue_depth"), 1);
        registry.gauge_add(&DEPTH, "", -6);
        assert_eq!(registry.snapshot().gauge("queue_depth"), -5);
    }

    #[test]
    fn render_text_exposition_format() {
        const DURATION: Histogram = Histogram::new("dur_seconds", None, &[0.1, 1.0]);
        const M: Counter = Counter::new("m_total", Some("kind"));
        const DEPTH: Gauge = Gauge::new("depth", None);
        let registry = MetricsRegistry::new();
        registry.histogram_observe(&DURATION, "", 0.05);
        registry.counter_add(&M, "b", 2);
        registry.gauge_add(&DEPTH, "", 7);
        registry.counter_add(&M, "a", 1);
        registry.histogram_observe(&DURATION, "", 0.5);
        let text = registry.render_text();
        let lines: Vec<&str> = text.lines().collect();
        // Counters, then gauges, then histograms; one TYPE line per
        // family, samples sorted by label set.
        assert_eq!(
            lines,
            vec![
                "# TYPE m_total counter",
                "m_total{kind=\"a\"} 1",
                "m_total{kind=\"b\"} 2",
                "# TYPE depth gauge",
                "depth 7",
                "# TYPE dur_seconds histogram",
                "dur_seconds_bucket{le=\"0.1\"} 1",
                "dur_seconds_bucket{le=\"1\"} 2",
                "dur_seconds_bucket{le=\"+Inf\"} 2",
                "dur_seconds_sum 0.55",
                "dur_seconds_count 2",
            ]
        );
    }
}
