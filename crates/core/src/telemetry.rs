//! The bridge between the search pipeline and `stoke-obs`:
//! [`MetricsObserver`] implements [`SearchObserver`] and records every
//! pipeline callback as exactly one [`TraceRecord`].
//!
//! The record is the only thing an event produces. The adapter folds it
//! into the metrics registry through [`count`] and then forwards it to the
//! trace sink, so the registry is a fold of the trace: every number the
//! registry shows is a field of some record. `chain_end` carries the
//! per-phase proposal and acceptance counts, the per-move-kind
//! `moves_<kind>` / `accepted_<kind>` counts and the evaluation counters;
//! `search_end` carries the verdict, the wall time, the counterexamples
//! and the leakage rejections.
//!
//! The adapter is strictly passive: it draws no randomness, feeds nothing
//! back into the chains, and therefore cannot perturb a fixed-seed search
//! (the `obs_integration` snapshot tests pin this down bit-for-bit).
//! Records are built on phase transitions, chain ends, candidates,
//! validations and the periodic progress reports, never per proposal; the
//! fold looks each metric up by its declared family and label value,
//! which takes the registry lock.

use crate::mcmc::{MoveKind, MoveStats};
use crate::observer::{ChainProgress, ChainStats, Phase, SearchObserver, ValidationVerdict};
use crate::search::{StokeResult, Verification};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use stoke_obs::{
    Counter, Histogram, MetricsRegistry, TraceRecord, TraceSink, Value, SECONDS_BOUNDS,
};

/// Wall time of one pipeline phase, from its span end.
const PHASE_SECONDS: Histogram =
    Histogram::new("stoke_phase_seconds", Some("phase"), &SECONDS_BOUNDS);
/// Wall time of one search, from `search_end`'s `total_us`.
const SEARCH_SECONDS: Histogram = Histogram::new("stoke_search_seconds", None, &SECONDS_BOUNDS);
/// `candidate` events.
const CANDIDATES: Counter = Counter::new("stoke_candidates_total", None);
/// `validation` events, by verdict.
const VALIDATIONS: Counter = Counter::new("stoke_validations_total", Some("verdict"));
/// Chain proposals, by phase.
const PROPOSALS: Counter = Counter::new("stoke_proposals_total", Some("phase"));
/// Accepted chain proposals, by phase.
const ACCEPTED: Counter = Counter::new("stoke_accepted_total", Some("phase"));
/// Cost-function evaluations.
const EVALUATIONS: Counter = Counter::new("stoke_evaluations_total", None);
/// Test cases run by the cost function.
const TESTCASES: Counter = Counter::new("stoke_testcases_total", None);
/// Evaluations cut short by the §4.5 early-termination bound.
const EARLY_TERMINATIONS: Counter = Counter::new("stoke_early_terminations_total", None);
/// Chain proposals, by move kind.
const MOVES: Counter = Counter::new("stoke_moves_total", Some("kind"));
/// Accepted chain proposals, by move kind.
const MOVE_ACCEPTED: Counter = Counter::new("stoke_move_accepted_total", Some("kind"));
/// Finished searches, by verification level.
const SEARCHES: Counter = Counter::new("stoke_searches_total", Some("verification"));
/// Counterexamples the validator returned.
const COUNTEREXAMPLES: Counter = Counter::new("stoke_counterexamples_total", None);
/// Candidates the leakage check rejected.
const LEAKAGE_REJECTIONS: Counter = Counter::new("stoke_leakage_rejections_total", None);

/// Label value for a pipeline phase.
fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Testcases => "testcases",
        Phase::Synthesis => "synthesis",
        Phase::Optimization => "optimization",
        Phase::Validation => "validation",
    }
}

/// Label value for a move kind.
fn move_name(kind: MoveKind) -> &'static str {
    match kind {
        MoveKind::Opcode => "opcode",
        MoveKind::Operand => "operand",
        MoveKind::Swap => "swap",
        MoveKind::Instruction => "instruction",
    }
}

fn verification_name(v: &Verification) -> &'static str {
    match v {
        Verification::Proven => "proven",
        Verification::TestsOnly => "tests_only",
        Verification::TargetReturned => "target_returned",
    }
}

/// The string field `key` of `record`, or `""` when it is absent.
fn str_field<'r>(record: &'r TraceRecord, key: &str) -> &'r str {
    match record.field(key) {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

/// Fold one search record into `registry`: the only place the search
/// metrics are updated.
///
/// A phase span end observes `stoke_phase_seconds`; a `candidate` or
/// `validation` event counts itself; a `chain_end` adds its counts to the
/// per-phase, per-move-kind and evaluation counters; a `search_end` counts
/// the search by verdict and adds its wall time, counterexamples and
/// leakage rejections. `progress` events carry no metric.
pub(crate) fn count(registry: &MetricsRegistry, record: &TraceRecord) {
    let (name, fields) = match record {
        TraceRecord::SpanEnd { name, micros, .. } => {
            if let Some(phase) = name.strip_prefix("phase:") {
                registry.histogram_observe(&PHASE_SECONDS, phase, *micros as f64 / 1e6);
            }
            return;
        }
        TraceRecord::Event { name, fields, .. } => (name.as_str(), fields),
        _ => return,
    };
    match name {
        "candidate" => registry.counter_add(&CANDIDATES, "", 1),
        "validation" => registry.counter_add(&VALIDATIONS, str_field(record, "verdict"), 1),
        "chain_end" => {
            let phase = str_field(record, "phase");
            for (key, value) in fields {
                let &Value::U64(n) = value else { continue };
                match key.as_str() {
                    "proposals" => registry.counter_add(&PROPOSALS, phase, n),
                    "accepted" => registry.counter_add(&ACCEPTED, phase, n),
                    "evaluations" => registry.counter_add(&EVALUATIONS, "", n),
                    "testcases_run" => registry.counter_add(&TESTCASES, "", n),
                    "early_terminations" => registry.counter_add(&EARLY_TERMINATIONS, "", n),
                    key => {
                        if let Some(kind) = key.strip_prefix("moves_") {
                            registry.counter_add(&MOVES, kind, n);
                        } else if let Some(kind) = key.strip_prefix("accepted_") {
                            registry.counter_add(&MOVE_ACCEPTED, kind, n);
                        }
                    }
                }
            }
        }
        "search_end" => {
            registry.counter_add(&SEARCHES, str_field(record, "verification"), 1);
            for (key, value) in fields {
                let &Value::U64(n) = value else { continue };
                match key.as_str() {
                    "total_us" => registry.histogram_observe(&SEARCH_SECONDS, "", n as f64 / 1e6),
                    "counterexamples" => registry.counter_add(&COUNTEREXAMPLES, "", n),
                    "leakage_rejections" => registry.counter_add(&LEAKAGE_REJECTIONS, "", n),
                    _ => {}
                }
            }
        }
        _ => {}
    }
}

/// A [`SearchObserver`] that records pipeline activity as trace records,
/// folded into a [`MetricsRegistry`] and/or streamed to a [`TraceSink`].
///
/// [`Session::with_metrics`](crate::Session::with_metrics) and
/// [`Session::with_trace`](crate::Session::with_trace) install one of these
/// behind the caller's observer for every run.
pub(crate) struct MetricsObserver {
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<dyn TraceSink>>,
    /// Per-target currently open phase span, for wall-time accounting.
    /// Only touched on phase transitions and search end — never on the
    /// per-proposal path.
    open_phase: Mutex<BTreeMap<usize, (Phase, Instant)>>,
}

impl MetricsObserver {
    /// An adapter recording into `metrics` and streaming to `trace`,
    /// either of which may be absent.
    pub(crate) fn from_parts(
        metrics: Option<Arc<MetricsRegistry>>,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> MetricsObserver {
        MetricsObserver {
            metrics,
            trace,
            open_phase: Mutex::new(BTreeMap::new()),
        }
    }

    /// Fold `record` into the registry, then forward it to the sink.
    fn emit(&self, record: TraceRecord) {
        if let Some(registry) = &self.metrics {
            count(registry, &record);
        }
        if let Some(sink) = &self.trace {
            sink.record(record);
        }
    }

    /// Close the open phase span for `target` (if any), emitting the
    /// span-end record with its wall time.
    fn close_phase(&self, target: usize, open: &mut BTreeMap<usize, (Phase, Instant)>) {
        if let Some((phase, since)) = open.remove(&target) {
            self.emit(TraceRecord::SpanEnd {
                name: format!("phase:{}", phase_name(phase)),
                target: target as u64,
                micros: since.elapsed().as_micros() as u64,
            });
        }
    }
}

/// A run that fails or unwinds (a panicking verifier or cost model) never
/// reaches [`SearchObserver::on_search_end`]. The driver owns one adapter
/// per run and drops it on every way out, so the drop closes the run's
/// open phase span and ends its search with the verdict `failed`: every
/// trace stays balanced.
impl Drop for MetricsObserver {
    fn drop(&mut self) {
        let mut open = std::mem::take(
            self.open_phase
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let targets: Vec<usize> = open.keys().copied().collect();
        for target in targets {
            self.close_phase(target, &mut open);
            self.emit(TraceRecord::Event {
                name: "search_end".into(),
                target: target as u64,
                fields: vec![("verification".into(), Value::Str("failed".into()))],
            });
        }
        if let Some(sink) = &self.trace {
            sink.flush();
        }
    }
}

impl SearchObserver for MetricsObserver {
    fn on_phase_start(&self, target: usize, phase: Phase) {
        let mut open = self.open_phase.lock().expect("telemetry lock");
        self.close_phase(target, &mut open);
        open.insert(target, (phase, Instant::now()));
        self.emit(TraceRecord::SpanStart {
            name: format!("phase:{}", phase_name(phase)),
            target: target as u64,
        });
    }

    fn on_chain_progress(&self, progress: &ChainProgress) {
        // Progress snapshots carry the cost-over-time signal (Figure 10);
        // they fold into no metric — per-chain gauges would have unbounded
        // cardinality in the registry.
        self.emit(TraceRecord::Event {
            name: "progress".into(),
            target: progress.target as u64,
            fields: vec![
                (
                    "phase".into(),
                    Value::Str(phase_name(progress.phase).into()),
                ),
                ("chain".into(), Value::U64(progress.chain as u64)),
                ("proposals".into(), Value::U64(progress.proposals)),
                ("iterations".into(), Value::U64(progress.iterations)),
                ("cost".into(), Value::F64(progress.current_cost)),
                ("correctness".into(), Value::F64(progress.correctness)),
                ("performance".into(), Value::F64(progress.performance)),
                ("best_cost".into(), Value::F64(progress.best_cost)),
            ],
        });
    }

    fn on_candidate(&self, target: usize, candidate: &stoke_x86::Program, cost: f64) {
        self.emit(TraceRecord::Event {
            name: "candidate".into(),
            target: target as u64,
            fields: vec![
                ("instructions".into(), Value::U64(candidate.len() as u64)),
                ("cost".into(), Value::F64(cost)),
            ],
        });
    }

    fn on_validation(&self, target: usize, verdict: ValidationVerdict) {
        let name = match verdict {
            ValidationVerdict::Proven => "proven",
            ValidationVerdict::Refuted => "refuted",
        };
        self.emit(TraceRecord::Event {
            name: "validation".into(),
            target: target as u64,
            fields: vec![("verdict".into(), Value::Str(name.into()))],
        });
    }

    fn on_chain_end(&self, stats: &ChainStats) {
        let mut fields = vec![
            ("phase".into(), Value::Str(phase_name(stats.phase).into())),
            ("chain".into(), Value::U64(stats.chain as u64)),
            ("proposals".into(), Value::U64(stats.proposals)),
            ("accepted".into(), Value::U64(stats.accepted)),
            ("evaluations".into(), Value::U64(stats.eval.evaluations)),
            ("testcases_run".into(), Value::U64(stats.eval.testcases_run)),
            (
                "early_terminations".into(),
                Value::U64(stats.eval.early_terminations),
            ),
        ];
        for kind in MoveStats::KINDS {
            let name = move_name(kind);
            fields.push((
                format!("moves_{name}"),
                Value::U64(stats.moves.proposed(kind)),
            ));
            fields.push((
                format!("accepted_{name}"),
                Value::U64(stats.moves.accepted(kind)),
            ));
        }
        self.emit(TraceRecord::Event {
            name: "chain_end".into(),
            target: stats.target as u64,
            fields,
        });
    }

    fn on_search_end(&self, target: usize, result: &StokeResult) {
        {
            let mut open = self.open_phase.lock().expect("telemetry lock");
            self.close_phase(target, &mut open);
        }
        let stats = &result.stats;
        self.emit(TraceRecord::Event {
            name: "search_end".into(),
            target: target as u64,
            fields: vec![
                (
                    "verification".into(),
                    Value::Str(verification_name(&result.verification).into()),
                ),
                ("speedup".into(), Value::F64(result.speedup())),
                ("proposals".into(), Value::U64(stats.total_proposals())),
                (
                    "total_us".into(),
                    Value::U64(stats.total_time.as_micros() as u64),
                ),
                ("counterexamples".into(), Value::U64(stats.counterexamples)),
                (
                    "leakage_rejections".into(),
                    Value::U64(stats.leakage_rejections),
                ),
            ],
        });
        if let Some(sink) = &self.trace {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoke_obs::RingSink;

    /// The declared families have unique names, histogram bounds that are
    /// finite and strictly increasing, and no name with the serve layer's
    /// `stoke_serve_` prefix, so this fold and the service's can share one
    /// registry without a clash.
    #[test]
    fn the_declared_families_are_unique_and_well_formed() {
        let counters = [
            &CANDIDATES,
            &VALIDATIONS,
            &PROPOSALS,
            &ACCEPTED,
            &EVALUATIONS,
            &TESTCASES,
            &EARLY_TERMINATIONS,
            &MOVES,
            &MOVE_ACCEPTED,
            &SEARCHES,
            &COUNTEREXAMPLES,
            &LEAKAGE_REJECTIONS,
        ];
        let histograms = [&PHASE_SECONDS, &SEARCH_SECONDS];
        let mut names: Vec<&str> = counters.iter().map(|c| c.name).collect();
        names.extend(histograms.iter().map(|h| h.name));
        assert!(names.iter().all(|n| !n.starts_with("stoke_serve_")));
        let declared = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), declared, "a family name is declared twice");
        for h in histograms {
            assert!(h.bounds.iter().all(|b| b.is_finite()), "{}", h.name);
            assert!(h.bounds.windows(2).all(|w| w[0] < w[1]), "{}", h.name);
        }
    }

    #[test]
    fn phase_transitions_observe_wall_time_and_spans() {
        let registry = Arc::new(MetricsRegistry::new());
        let ring = Arc::new(RingSink::new(64));
        let obs = MetricsObserver::from_parts(Some(registry.clone()), Some(ring.clone()));
        obs.on_phase_start(0, Phase::Synthesis);
        obs.on_phase_start(0, Phase::Optimization);
        let result = StokeResult {
            rewrite: "movq rdi, rax".parse().unwrap(),
            verification: Verification::TargetReturned,
            target_latency: 1,
            rewrite_latency: 1,
            target_cycles: 1,
            rewrite_cycles: 1,
            stats: Default::default(),
        };
        obs.on_search_end(0, &result);
        let snap = registry.snapshot();
        // Both phases were closed (synthesis by the transition, optimization
        // by search end), each observing one histogram sample.
        let synth = snap
            .histogram("stoke_phase_seconds{phase=\"synthesis\"}")
            .unwrap();
        let opt = snap
            .histogram("stoke_phase_seconds{phase=\"optimization\"}")
            .unwrap();
        assert_eq!(synth.count, 1);
        assert_eq!(opt.count, 1);
        assert_eq!(
            snap.counter("stoke_searches_total{verification=\"target_returned\"}"),
            1
        );
        // Trace saw two span starts, two span ends, one event.
        let records = ring.records();
        let starts = records
            .iter()
            .filter(|(_, r)| matches!(r, TraceRecord::SpanStart { .. }))
            .count();
        let ends = records
            .iter()
            .filter(|(_, r)| matches!(r, TraceRecord::SpanEnd { .. }))
            .count();
        assert_eq!(starts, 2);
        assert_eq!(ends, 2);
    }

    #[test]
    fn a_run_that_never_ends_is_closed_on_drop() {
        let registry = Arc::new(MetricsRegistry::new());
        let ring = Arc::new(RingSink::new(64));
        let obs = MetricsObserver::from_parts(Some(registry.clone()), Some(ring.clone()));
        obs.on_phase_start(3, Phase::Synthesis);
        obs.on_phase_start(3, Phase::Validation);
        drop(obs);
        let records = ring.records();
        let names: Vec<String> = records
            .iter()
            .map(|(_, r)| match r {
                TraceRecord::SpanStart { name, .. } => format!("start {name}"),
                TraceRecord::SpanEnd { name, .. } => format!("end {name}"),
                TraceRecord::Event { name, .. } => name.clone(),
                TraceRecord::Meta { .. } => "meta".into(),
            })
            .collect();
        assert_eq!(
            names,
            [
                "start phase:synthesis",
                "end phase:synthesis",
                "start phase:validation",
                "end phase:validation",
                "search_end",
            ]
        );
        assert_eq!(
            records[4].1.field("verification"),
            Some(&Value::Str("failed".into()))
        );
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("stoke_searches_total{verification=\"failed\"}"),
            1
        );
        // A run that ended normally emits nothing more on drop.
        let ring = Arc::new(RingSink::new(64));
        let obs = MetricsObserver::from_parts(None, Some(ring.clone()));
        obs.on_phase_start(0, Phase::Synthesis);
        obs.on_search_end(
            0,
            &StokeResult {
                rewrite: "movq rdi, rax".parse().unwrap(),
                verification: Verification::TargetReturned,
                target_latency: 1,
                rewrite_latency: 1,
                target_cycles: 1,
                rewrite_cycles: 1,
                stats: Default::default(),
            },
        );
        let before = ring.records().len();
        drop(obs);
        assert_eq!(ring.records().len(), before);
    }

    #[test]
    fn chain_end_accumulates_per_move_counters() {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = MetricsObserver::from_parts(Some(registry.clone()), None);
        let mut moves = MoveStats::default();
        moves.record(MoveKind::Swap, true);
        moves.record(MoveKind::Swap, false);
        moves.record(MoveKind::Opcode, true);
        obs.on_chain_end(&ChainStats {
            target: 0,
            phase: Phase::Optimization,
            chain: 0,
            proposals: 3,
            accepted: 2,
            moves,
            eval: crate::cost::EvalStats {
                testcases_run: 24,
                evaluations: 3,
                early_terminations: 1,
            },
        });
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("stoke_proposals_total{phase=\"optimization\"}"),
            3
        );
        assert_eq!(snap.counter("stoke_moves_total{kind=\"swap\"}"), 2);
        assert_eq!(snap.counter("stoke_move_accepted_total{kind=\"swap\"}"), 1);
        assert_eq!(snap.counter("stoke_moves_total{kind=\"opcode\"}"), 1);
        assert_eq!(snap.counter("stoke_testcases_total"), 24);
        assert_eq!(snap.counter("stoke_evaluations_total"), 3);
        assert_eq!(snap.counter("stoke_early_terminations_total"), 1);
    }

    /// The exposition of the stream folded in
    /// `a_fixed_stream_renders_a_golden_exposition`.
    const GOLDEN: &str = r#"# TYPE stoke_accepted_total counter
stoke_accepted_total{phase="optimization"} 51
stoke_accepted_total{phase="synthesis"} 12
# TYPE stoke_candidates_total counter
stoke_candidates_total 2
# TYPE stoke_counterexamples_total counter
stoke_counterexamples_total 1
# TYPE stoke_early_terminations_total counter
stoke_early_terminations_total 30
# TYPE stoke_evaluations_total counter
stoke_evaluations_total 583
# TYPE stoke_leakage_rejections_total counter
stoke_leakage_rejections_total 0
# TYPE stoke_move_accepted_total counter
stoke_move_accepted_total{kind="opcode"} 30
stoke_move_accepted_total{kind="swap"} 33
# TYPE stoke_moves_total counter
stoke_moves_total{kind="opcode"} 290
stoke_moves_total{kind="swap"} 290
# TYPE stoke_proposals_total counter
stoke_proposals_total{phase="optimization"} 400
stoke_proposals_total{phase="synthesis"} 180
# TYPE stoke_searches_total counter
stoke_searches_total{verification="failed"} 1
stoke_searches_total{verification="proven"} 1
# TYPE stoke_testcases_total counter
stoke_testcases_total 9280
# TYPE stoke_validations_total counter
stoke_validations_total{verdict="proven"} 1
stoke_validations_total{verdict="refuted"} 1
# TYPE stoke_phase_seconds histogram
stoke_phase_seconds_bucket{phase="optimization",le="0.001"} 0
stoke_phase_seconds_bucket{phase="optimization",le="0.01"} 0
stoke_phase_seconds_bucket{phase="optimization",le="0.05"} 0
stoke_phase_seconds_bucket{phase="optimization",le="0.1"} 0
stoke_phase_seconds_bucket{phase="optimization",le="0.5"} 0
stoke_phase_seconds_bucket{phase="optimization",le="1"} 0
stoke_phase_seconds_bucket{phase="optimization",le="5"} 1
stoke_phase_seconds_bucket{phase="optimization",le="30"} 1
stoke_phase_seconds_bucket{phase="optimization",le="120"} 1
stoke_phase_seconds_bucket{phase="optimization",le="+Inf"} 1
stoke_phase_seconds_sum{phase="optimization"} 1.5
stoke_phase_seconds_count{phase="optimization"} 1
stoke_phase_seconds_bucket{phase="synthesis",le="0.001"} 0
stoke_phase_seconds_bucket{phase="synthesis",le="0.01"} 0
stoke_phase_seconds_bucket{phase="synthesis",le="0.05"} 1
stoke_phase_seconds_bucket{phase="synthesis",le="0.1"} 2
stoke_phase_seconds_bucket{phase="synthesis",le="0.5"} 2
stoke_phase_seconds_bucket{phase="synthesis",le="1"} 2
stoke_phase_seconds_bucket{phase="synthesis",le="5"} 2
stoke_phase_seconds_bucket{phase="synthesis",le="30"} 2
stoke_phase_seconds_bucket{phase="synthesis",le="120"} 2
stoke_phase_seconds_bucket{phase="synthesis",le="+Inf"} 2
stoke_phase_seconds_sum{phase="synthesis"} 0.14200000000000002
stoke_phase_seconds_count{phase="synthesis"} 2
# TYPE stoke_search_seconds histogram
stoke_search_seconds_bucket{le="0.001"} 0
stoke_search_seconds_bucket{le="0.01"} 0
stoke_search_seconds_bucket{le="0.05"} 0
stoke_search_seconds_bucket{le="0.1"} 0
stoke_search_seconds_bucket{le="0.5"} 0
stoke_search_seconds_bucket{le="1"} 0
stoke_search_seconds_bucket{le="5"} 1
stoke_search_seconds_bucket{le="30"} 1
stoke_search_seconds_bucket{le="120"} 1
stoke_search_seconds_bucket{le="+Inf"} 1
stoke_search_seconds_sum 1.54925
stoke_search_seconds_count 1
"#;

    /// A fixed record stream folds into exactly this exposition: the
    /// bytes `--metrics` prints do not depend on how the registry stores
    /// its values.
    #[test]
    fn a_fixed_stream_renders_a_golden_exposition() {
        let event = |name: &str, fields: Vec<(&str, Value)>| TraceRecord::Event {
            name: name.into(),
            target: 0,
            fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        };
        let span_end = |phase: &str, micros: u64| TraceRecord::SpanEnd {
            name: format!("phase:{phase}"),
            target: 0,
            micros,
        };
        let chain_end = |phase: &str, proposals: u64, accepted: u64| {
            event(
                "chain_end",
                vec![
                    ("phase", Value::Str(phase.into())),
                    ("chain", Value::U64(0)),
                    ("proposals", Value::U64(proposals)),
                    ("accepted", Value::U64(accepted)),
                    ("evaluations", Value::U64(proposals + 1)),
                    ("testcases_run", Value::U64(16 * proposals)),
                    ("early_terminations", Value::U64(accepted / 2)),
                    ("moves_opcode", Value::U64(proposals / 2)),
                    ("accepted_opcode", Value::U64(accepted / 2)),
                    ("moves_swap", Value::U64(proposals - proposals / 2)),
                    ("accepted_swap", Value::U64(accepted - accepted / 2)),
                ],
            )
        };
        let stream = [
            TraceRecord::SpanStart {
                name: "phase:synthesis".into(),
                target: 0,
            },
            span_end("synthesis", 42_000),
            chain_end("synthesis", 100, 9),
            span_end("synthesis", 100_000),
            chain_end("synthesis", 80, 3),
            event("candidate", vec![("cost", Value::F64(3.0))]),
            event(
                "progress",
                vec![("phase", Value::Str("optimization".into()))],
            ),
            span_end("optimization", 1_500_000),
            chain_end("optimization", 400, 51),
            event("candidate", vec![("cost", Value::F64(1.0))]),
            event(
                "validation",
                vec![("verdict", Value::Str("refuted".into()))],
            ),
            event("validation", vec![("verdict", Value::Str("proven".into()))]),
            event(
                "search_end",
                vec![
                    ("verification", Value::Str("proven".into())),
                    ("speedup", Value::F64(2.5)),
                    ("total_us", Value::U64(1_549_250)),
                    ("counterexamples", Value::U64(1)),
                    ("leakage_rejections", Value::U64(0)),
                ],
            ),
            event(
                "search_end",
                vec![("verification", Value::Str("failed".into()))],
            ),
        ];
        let registry = MetricsRegistry::new();
        for record in &stream {
            count(&registry, record);
        }
        assert_eq!(registry.render_text(), GOLDEN);
    }

    #[test]
    fn replaying_the_trace_rebuilds_the_registry() {
        use crate::driver::Session;
        use crate::testcase::TargetSpec;
        use stoke_x86::Gpr;

        let registry = Arc::new(MetricsRegistry::new());
        let ring = Arc::new(RingSink::new(1 << 16));
        let config = crate::config::Config::builder()
            .synthesis_iterations(1_000)
            .optimization_iterations(2_000)
            .num_testcases(4)
            .threads(1)
            .build()
            .unwrap();
        let target = "movq rdi, rbx\nmovq rbx, rax\naddq rsi, rax"
            .parse()
            .unwrap();
        let spec = TargetSpec::with_gprs(target, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
        Session::new(config)
            .with_metrics(registry.clone())
            .with_trace(ring.clone())
            .run(&spec)
            .unwrap();
        let replayed = MetricsRegistry::new();
        for (_, record) in ring.records() {
            count(&replayed, &record);
        }
        let (live, replayed) = (registry.snapshot(), replayed.snapshot());
        assert!(live.counter("stoke_evaluations_total") > 0);
        assert_eq!(live.counters, replayed.counters);
        assert_eq!(live.gauges, replayed.gauges);
        let buckets = |s: &stoke_obs::Snapshot| {
            s.histograms
                .iter()
                .map(|h| (h.name.clone(), h.buckets.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(buckets(&live), buckets(&replayed));
    }
}
