//! The bridge between the search pipeline and `stoke-obs`:
//! [`MetricsObserver`] implements [`SearchObserver`] and translates
//! pipeline callbacks into registry updates and structured trace records.
//!
//! The adapter is strictly passive: it draws no randomness, feeds nothing
//! back into the chains, and therefore cannot perturb a fixed-seed search
//! (the `obs_integration` snapshot tests pin this down bit-for-bit).
//! Metric handles are registered once at construction; the callbacks only
//! touch atomics, plus one small mutex for per-target phase timing on the
//! (cold) phase-transition path.

use crate::mcmc::{MoveKind, MoveStats};
use crate::observer::{ChainProgress, ChainStats, Phase, SearchObserver, ValidationVerdict};
use crate::search::{StokeResult, Verification};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use stoke_obs::{Counter, Histogram, MetricsRegistry, TraceRecord, TraceSink, Value};

/// Label value for a pipeline phase.
fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Testcases => "testcases",
        Phase::Synthesis => "synthesis",
        Phase::Optimization => "optimization",
        Phase::Validation => "validation",
    }
}

fn phase_index(phase: Phase) -> usize {
    match phase {
        Phase::Testcases => 0,
        Phase::Synthesis => 1,
        Phase::Optimization => 2,
        Phase::Validation => 3,
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

/// Pre-registered metric handles, created once per adapter so the callback
/// hot path is pure atomics.
struct Handles {
    proposals: [Counter; 4],
    accepted: [Counter; 4],
    moves_proposed: [Counter; 4],
    moves_accepted: [Counter; 4],
    testcases: Counter,
    evaluations: Counter,
    early_terminations: Counter,
    candidates: Counter,
    validations_proven: Counter,
    validations_refuted: Counter,
    counterexamples: Counter,
    leakage_rejections: Counter,
    searches: [Counter; 3],
    phase_seconds: [Histogram; 4],
    search_seconds: Histogram,
}

impl Handles {
    fn new(registry: &MetricsRegistry) -> Handles {
        let phase_counter = |family: &str| {
            [
                Phase::Testcases,
                Phase::Synthesis,
                Phase::Optimization,
                Phase::Validation,
            ]
            .map(|p| registry.counter_with(family, &[("phase", phase_name(p))]))
        };
        let move_counter = |family: &str| {
            MoveStats::KINDS.map(|k| registry.counter_with(family, &[("kind", move_name(k))]))
        };
        let duration_bounds = [0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0];
        Handles {
            proposals: phase_counter("stoke_proposals_total"),
            accepted: phase_counter("stoke_accepted_total"),
            moves_proposed: move_counter("stoke_moves_total"),
            moves_accepted: move_counter("stoke_move_accepted_total"),
            testcases: registry.counter("stoke_testcases_total"),
            evaluations: registry.counter("stoke_evaluations_total"),
            early_terminations: registry.counter("stoke_early_terminations_total"),
            candidates: registry.counter("stoke_candidates_total"),
            validations_proven: registry
                .counter_with("stoke_validations_total", &[("verdict", "proven")]),
            validations_refuted: registry
                .counter_with("stoke_validations_total", &[("verdict", "refuted")]),
            counterexamples: registry.counter("stoke_counterexamples_total"),
            leakage_rejections: registry.counter("stoke_leakage_rejections_total"),
            searches: [
                registry.counter_with("stoke_searches_total", &[("verification", "proven")]),
                registry.counter_with("stoke_searches_total", &[("verification", "tests_only")]),
                registry.counter_with(
                    "stoke_searches_total",
                    &[("verification", "target_returned")],
                ),
            ],
            phase_seconds: [
                Phase::Testcases,
                Phase::Synthesis,
                Phase::Optimization,
                Phase::Validation,
            ]
            .map(|p| {
                registry.histogram_with(
                    "stoke_phase_seconds",
                    &[("phase", phase_name(p))],
                    &duration_bounds,
                )
            }),
            search_seconds: registry.histogram("stoke_search_seconds", &duration_bounds),
        }
    }
}

/// A [`SearchObserver`] that records pipeline activity into a
/// [`MetricsRegistry`] and/or a [`TraceSink`].
///
/// [`Session::with_metrics`](crate::Session::with_metrics) and
/// [`Session::with_trace`](crate::Session::with_trace) install one of these
/// behind the caller's observer for every run.
pub(crate) struct MetricsObserver {
    trace: Option<Arc<dyn TraceSink>>,
    handles: Option<Handles>,
    /// Per-target currently open phase span, for wall-time accounting.
    /// Only touched on phase transitions and search end — never on the
    /// per-proposal path.
    open_phase: Mutex<HashMap<usize, (Phase, Instant)>>,
}

impl MetricsObserver {
    /// An adapter recording into `metrics` and streaming to `trace`,
    /// either of which may be absent.
    pub(crate) fn from_parts(
        metrics: Option<Arc<MetricsRegistry>>,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> MetricsObserver {
        MetricsObserver {
            trace,
            handles: metrics.map(|registry| Handles::new(&registry)),
            open_phase: Mutex::new(HashMap::new()),
        }
    }

    fn emit(&self, record: TraceRecord) {
        if let Some(sink) = &self.trace {
            sink.record(record);
        }
    }

    /// Close the open phase span for `target` (if any), observing its wall
    /// time and emitting the span-end record.
    fn close_phase(&self, target: usize, open: &mut HashMap<usize, (Phase, Instant)>) {
        if let Some((phase, since)) = open.remove(&target) {
            let elapsed = since.elapsed();
            if let Some(handles) = &self.handles {
                handles.phase_seconds[phase_index(phase)].observe(elapsed.as_secs_f64());
            }
            self.emit(TraceRecord::SpanEnd {
                name: format!("phase:{}", phase_name(phase)),
                target: target as u64,
                micros: elapsed.as_micros() as u64,
            });
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
        // they go to the trace only — per-chain gauges would have unbounded
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
        if let Some(handles) = &self.handles {
            handles.candidates.inc();
        }
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
        if let Some(handles) = &self.handles {
            match verdict {
                ValidationVerdict::Proven => handles.validations_proven.inc(),
                ValidationVerdict::Refuted => handles.validations_refuted.inc(),
            }
        }
        self.emit(TraceRecord::Event {
            name: "validation".into(),
            target: target as u64,
            fields: vec![("verdict".into(), Value::Str(name.into()))],
        });
    }

    fn on_chain_end(&self, stats: &ChainStats) {
        if let Some(handles) = &self.handles {
            let phase = phase_index(stats.phase);
            handles.proposals[phase].add(stats.proposals);
            handles.accepted[phase].add(stats.accepted);
            for (i, kind) in MoveStats::KINDS.into_iter().enumerate() {
                handles.moves_proposed[i].add(stats.moves.proposed(kind));
                handles.moves_accepted[i].add(stats.moves.accepted(kind));
            }
            handles.testcases.add(stats.eval.testcases_run);
            handles.evaluations.add(stats.eval.evaluations);
            handles
                .early_terminations
                .add(stats.eval.early_terminations);
        }
        self.emit(TraceRecord::Event {
            name: "chain_end".into(),
            target: stats.target as u64,
            fields: vec![
                ("phase".into(), Value::Str(phase_name(stats.phase).into())),
                ("chain".into(), Value::U64(stats.chain as u64)),
                ("proposals".into(), Value::U64(stats.proposals)),
                ("accepted".into(), Value::U64(stats.accepted)),
                ("testcases_run".into(), Value::U64(stats.eval.testcases_run)),
                (
                    "early_terminations".into(),
                    Value::U64(stats.eval.early_terminations),
                ),
            ],
        });
    }

    fn on_search_end(&self, target: usize, result: &StokeResult) {
        {
            let mut open = self.open_phase.lock().expect("telemetry lock");
            self.close_phase(target, &mut open);
        }
        if let Some(handles) = &self.handles {
            let which = match result.verification {
                Verification::Proven => 0,
                Verification::TestsOnly => 1,
                Verification::TargetReturned => 2,
            };
            handles.searches[which].inc();
            handles
                .search_seconds
                .observe(result.stats.total_time.as_secs_f64());
            handles.counterexamples.add(result.stats.counterexamples);
            handles
                .leakage_rejections
                .add(result.stats.leakage_rejections);
        }
        self.emit(TraceRecord::Event {
            name: "search_end".into(),
            target: target as u64,
            fields: vec![
                (
                    "verification".into(),
                    Value::Str(verification_name(&result.verification).into()),
                ),
                ("speedup".into(), Value::F64(result.speedup())),
                (
                    "proposals".into(),
                    Value::U64(result.stats.total_proposals()),
                ),
                (
                    "total_us".into(),
                    Value::U64(result.stats.total_time.as_micros() as u64),
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
        assert_eq!(snap.counter("stoke_early_terminations_total"), 1);
    }
}
