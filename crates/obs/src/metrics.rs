//! A metrics registry that stores counters, gauges and fixed-bucket
//! histograms as plain values.
//!
//! The registry is a fold target: its writers fold trace records into it
//! one record at a time, naming each metric by family and label set.
//! Every value lives in one map under one lock, so an update is one lock,
//! one map entry and an integer or float add. [`MetricsRegistry::snapshot`]
//! produces an owned point-in-time copy for programmatic inspection and
//! [`MetricsRegistry::render_text`] emits Prometheus-style text exposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Identifies one registered metric: a family name plus a rendered label set.
///
/// `labels` holds the inner `key="value"` list without braces (empty when the
/// metric has no labels) so histogram exposition can splice in `le`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    family: String,
    labels: String,
}

impl Key {
    fn new(family: &str, labels: &[(&str, &str)]) -> Key {
        let mut rendered = String::new();
        for (i, (k, v)) in labels.iter().enumerate() {
            debug_assert!(
                !k.contains('"') && !v.contains('"') && !v.contains('\\'),
                "label keys/values must not contain quotes or backslashes"
            );
            if i > 0 {
                rendered.push(',');
            }
            let _ = write!(rendered, "{k}=\"{v}\"");
        }
        Key {
            family: family.to_string(),
            labels: rendered,
        }
    }

    fn full_name(&self) -> String {
        if self.labels.is_empty() {
            self.family.clone()
        } else {
            format!("{}{{{}}}", self.family, self.labels)
        }
    }
}

/// The value of one metric.
enum Metric {
    Counter(u64),
    Gauge(i64),
    /// Bucket semantics follow Prometheus: an observation `v` lands in the
    /// first bucket whose upper bound satisfies `v <= bound`, with an
    /// implicit `+Inf` bucket catching everything beyond the largest bound.
    Histogram {
        /// Sorted, finite upper bounds. The `+Inf` bucket is
        /// `counts[bounds.len()]`.
        bounds: Vec<f64>,
        /// Per-bucket observation counts (not cumulative).
        counts: Vec<u64>,
        /// Total of all observed values.
        sum: f64,
        /// Total number of observations.
        count: u64,
    },
}

impl Metric {
    /// The metric type, as the exposition's `# TYPE` line names it.
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram { .. } => "histogram",
        }
    }
}

/// The cumulative `(le, count)` buckets of a histogram, ending with `+Inf`.
fn cumulative<'a>(bounds: &'a [f64], counts: &'a [u64]) -> impl Iterator<Item = (f64, u64)> + 'a {
    let les = bounds.iter().copied().chain([f64::INFINITY]);
    les.zip(counts.iter().scan(0, |total, &n| {
        *total += n;
        Some(*total)
    }))
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

/// A registry of named metric values.
///
/// Each update names its metric by family and label set and creates it at
/// zero on first use: [`counter_add`](Self::counter_add),
/// [`gauge_add`](Self::gauge_add) and
/// [`histogram_observe`](Self::histogram_observe) (a histogram keeps the
/// bounds of its first observation). Updating one family as two different
/// metric types panics.
///
/// ```
/// use stoke_obs::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// registry.counter_add("moves_total", &[("kind", "swap")], 3);
/// let text = registry.render_text();
/// assert!(text.contains("# TYPE moves_total counter"));
/// assert!(text.contains("moves_total{kind=\"swap\"} 3"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<Key, Metric>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to the counter `family` with `labels`.
    pub fn counter_add(&self, family: &str, labels: &[(&str, &str)], n: u64) {
        self.update(
            family,
            labels,
            "counter",
            || Metric::Counter(0),
            |metric| {
                if let Metric::Counter(value) = metric {
                    *value += n;
                }
            },
        );
    }

    /// Add `n` (possibly negative) to the gauge `family` with `labels`.
    pub fn gauge_add(&self, family: &str, labels: &[(&str, &str)], n: i64) {
        self.update(
            family,
            labels,
            "gauge",
            || Metric::Gauge(0),
            |metric| {
                if let Metric::Gauge(value) = metric {
                    *value += n;
                }
            },
        );
    }

    /// Record the observation `v` in the histogram `family` with `labels`.
    /// On its first observation the histogram takes `bounds` as its finite
    /// upper bounds: sorted and deduplicated, non-finite entries dropped.
    /// An implicit `+Inf` bucket is always appended.
    pub fn histogram_observe(&self, family: &str, labels: &[(&str, &str)], bounds: &[f64], v: f64) {
        let fresh = || {
            let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
            bounds.sort_by(f64::total_cmp);
            bounds.dedup();
            Metric::Histogram {
                counts: vec![0; bounds.len() + 1],
                bounds,
                sum: 0.0,
                count: 0,
            }
        };
        self.update(family, labels, "histogram", fresh, |metric| {
            if let Metric::Histogram {
                bounds,
                counts,
                sum,
                count,
            } = metric
            {
                let bucket = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
                counts[bucket] += 1;
                *sum += v;
                *count += 1;
            }
        });
    }

    /// Apply `apply` to the metric `family` with `labels`, created by
    /// `fresh` if absent, after checking that the family is a `kind`.
    ///
    /// A type clash panics only after the map lock is released, so a
    /// caught clash leaves the registry usable and unchanged.
    fn update(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        kind: &'static str,
        fresh: impl FnOnce() -> Metric,
        apply: impl FnOnce(&mut Metric),
    ) {
        let key = Key::new(family, labels);
        let was = {
            let mut metrics = self.metrics.lock().unwrap();
            match metrics.get_mut(&key) {
                Some(metric) if metric.kind() == kind => return apply(metric),
                Some(metric) => metric.kind(),
                None => match metrics.iter().find(|(k, _)| k.family == family) {
                    Some((_, sibling)) if sibling.kind() != kind => sibling.kind(),
                    _ => return apply(metrics.entry(key).or_insert_with(fresh)),
                },
            }
        };
        panic!("metric family `{family}` already registered as a {was}, cannot re-register as a {kind}");
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
                Metric::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => snapshot.histograms.push(HistogramSample {
                    name,
                    buckets: cumulative(bounds, counts)
                        .map(|(le, cumulative)| Bucket { le, cumulative })
                        .collect(),
                    count: *count,
                    sum: *sum,
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
                if last_family != Some(&key.family) {
                    let _ = writeln!(out, "# TYPE {} {kind}", key.family);
                    last_family = Some(&key.family);
                }
                let name = key.full_name();
                match metric {
                    Metric::Counter(value) => {
                        let _ = writeln!(out, "{name} {value}");
                    }
                    Metric::Gauge(value) => {
                        let _ = writeln!(out, "{name} {value}");
                    }
                    Metric::Histogram {
                        bounds,
                        counts,
                        sum,
                        count,
                    } => {
                        let separator = if key.labels.is_empty() { "" } else { "," };
                        for (le, total) in cumulative(bounds, counts) {
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
                        let _ = writeln!(out, "{}_sum{labels} {sum}", key.family);
                        let _ = writeln!(out, "{}_count{labels} {count}", key.family);
                    }
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.metrics.lock().unwrap();
        let of_kind = |kind| metrics.values().filter(|m| m.kind() == kind).count();
        f.debug_struct("MetricsRegistry")
            .field("counters", &of_kind("counter"))
            .field("gauges", &of_kind("gauge"))
            .field("histograms", &of_kind("histogram"))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn counters_sum_exactly_under_threaded_hammering() {
        let registry = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let registry = registry.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        registry.counter_add("hammered_total", &[], 1);
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
        let registry = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let registry = registry.clone();
                thread::spawn(move || {
                    for _ in 0..5_000 {
                        let v = 0.25 * (i + 1) as f64;
                        registry.histogram_observe("latency_seconds", &[], &[0.5, 1.0], v);
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
        let registry = MetricsRegistry::new();
        let observe = |v| registry.histogram_observe("bounds_seconds", &[], &[4.0, 1.0, 2.0], v);
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
        let registry = MetricsRegistry::new();
        registry.counter_add("dup_total", &[("k", "v")], 2);
        registry.counter_add("dup_total", &[("k", "v")], 1);
        // A different label set is a different value in the same family.
        registry.counter_add("dup_total", &[("k", "other")], 0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(r#"dup_total{k="v"}"#), 3);
        assert_eq!(snap.counter(r#"dup_total{k="other"}"#), 0);
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn cross_type_registration_panics() {
        let registry = MetricsRegistry::new();
        registry.counter_add("conflict", &[], 1);
        registry.gauge_add("conflict", &[], 1);
    }

    #[test]
    #[should_panic(expected = "already registered as a histogram")]
    fn cross_type_registration_panics_across_label_sets() {
        let registry = MetricsRegistry::new();
        registry.histogram_observe("conflict", &[("k", "a")], &[1.0], 0.5);
        registry.counter_add("conflict", &[("k", "b")], 1);
    }

    #[test]
    fn a_caught_type_clash_leaves_the_registry_usable() {
        let fill = |registry: &MetricsRegistry| {
            registry.counter_add("conflict_total", &[], 1);
            registry.histogram_observe("dur_seconds", &[], &[0.1, 1.0], 0.5);
        };
        let clean = MetricsRegistry::new();
        fill(&clean);
        clean.counter_add("conflict_total", &[], 2);

        let registry = MetricsRegistry::new();
        fill(&registry);
        let clash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.gauge_add("conflict_total", &[], 1);
        }));
        assert!(clash.is_err(), "a gauge update of a counter family panics");
        registry.counter_add("conflict_total", &[], 2);
        assert_eq!(registry.snapshot().counter("conflict_total"), 3);
        assert_eq!(registry.render_text(), clean.render_text());
    }

    #[test]
    fn gauge_moves_both_directions() {
        let registry = MetricsRegistry::new();
        registry.gauge_add("queue_depth", &[], 1);
        registry.gauge_add("queue_depth", &[], 1);
        registry.gauge_add("queue_depth", &[], -1);
        assert_eq!(registry.snapshot().gauge("queue_depth"), 1);
        registry.gauge_add("queue_depth", &[], -6);
        assert_eq!(registry.snapshot().gauge("queue_depth"), -5);
    }

    #[test]
    fn render_text_exposition_format() {
        let registry = MetricsRegistry::new();
        registry.histogram_observe("dur_seconds", &[], &[0.1, 1.0], 0.05);
        registry.counter_add("m_total", &[("kind", "b")], 2);
        registry.gauge_add("depth", &[], 7);
        registry.counter_add("m_total", &[("kind", "a")], 1);
        registry.histogram_observe("dur_seconds", &[], &[0.1, 1.0], 0.5);
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
