//! Observability is passive: attaching the metrics registry and the
//! structured trace sink to a fixed-seed pipeline run must reproduce the
//! uninstrumented run bit-for-bit, while the registry's counters must
//! agree exactly with the `SearchStats` the pipeline reports and the
//! trace must validate against the JSONL schema.

use std::sync::Arc;
use stoke_suite::obs::{validate_trace, JsonlSink, MetricsRegistry, RingSink, TraceRecord};
use stoke_suite::stoke::{
    Config, InputSpec, Session, StokeResult, Symbolic, TargetSpec, Verdict, Verifier, VerifyContext,
};
use stoke_suite::workloads::{hackers_delight, Kernel};
use stoke_suite::x86::{Gpr, Program};

fn spec_for(kernel: &Kernel) -> TargetSpec {
    let inputs = [Gpr::Rdi, Gpr::Rsi]
        .iter()
        .take(kernel.ir.num_params)
        .map(|g| InputSpec::value32(*g))
        .collect();
    TargetSpec::new(kernel.target_o0(), inputs, kernel.live_out.clone())
}

fn base_config() -> Config {
    Config::builder()
        .ell(16)
        .num_testcases(8)
        .synthesis_iterations(2_000)
        .optimization_iterations(10_000)
        .threads(1)
        .build()
        .expect("valid configuration")
}

/// Everything deterministic about a result (wall-clock durations are
/// excluded; they are the only nondeterministic fields).
fn snapshot(r: &StokeResult) -> String {
    format!(
        "rewrite={:?} verification={:?} target_latency={} rewrite_latency={} \
         target_cycles={} rewrite_cycles={} synthesis_proposals={} \
         optimization_proposals={} testcases_run={} validations={} \
         counterexamples={} synthesis_succeeded={} moves={:?}",
        r.rewrite.to_string(),
        r.verification,
        r.target_latency,
        r.rewrite_latency,
        r.target_cycles,
        r.rewrite_cycles,
        r.stats.synthesis_proposals,
        r.stats.optimization_proposals,
        r.stats.testcases_run,
        r.stats.validations,
        r.stats.counterexamples,
        r.stats.synthesis_succeeded,
        r.stats.moves,
    )
}

#[test]
fn instrumented_runs_are_bit_identical_on_p01_and_p14() {
    for kernel in [hackers_delight::p01(), hackers_delight::p14()] {
        let spec = spec_for(&kernel);
        let baseline = Session::new(base_config())
            .run(&spec)
            .expect("search completes");
        let registry = Arc::new(MetricsRegistry::new());
        let ring = Arc::new(RingSink::new(1 << 20));
        let instrumented = Session::new(base_config())
            .with_metrics(registry.clone())
            .with_trace(ring)
            .run(&spec)
            .expect("search completes");
        assert_eq!(
            snapshot(&instrumented),
            snapshot(&baseline),
            "metrics+trace changed the {} search trajectory",
            kernel.name
        );
    }
}

#[test]
fn registry_counters_agree_with_search_stats() {
    let spec = spec_for(&hackers_delight::p01());
    let registry = Arc::new(MetricsRegistry::new());
    let result = Session::new(base_config())
        .with_metrics(registry.clone())
        .run(&spec)
        .expect("search completes");
    let snap = registry.snapshot();

    let stats = &result.stats;
    assert_eq!(
        snap.counter(r#"stoke_proposals_total{phase="synthesis"}"#),
        stats.synthesis_proposals
    );
    assert_eq!(
        snap.counter(r#"stoke_proposals_total{phase="optimization"}"#),
        stats.optimization_proposals
    );
    assert_eq!(snap.counter("stoke_testcases_total"), stats.testcases_run);
    assert_eq!(
        snap.counter("stoke_counterexamples_total"),
        stats.counterexamples
    );
    for (kind, name) in [
        (stoke_suite::stoke::MoveKind::Opcode, "opcode"),
        (stoke_suite::stoke::MoveKind::Operand, "operand"),
        (stoke_suite::stoke::MoveKind::Swap, "swap"),
        (stoke_suite::stoke::MoveKind::Instruction, "instruction"),
    ] {
        assert_eq!(
            snap.counter(&format!(r#"stoke_moves_total{{kind="{name}"}}"#)),
            stats.moves.proposed(kind),
            "proposed {name} moves"
        );
        assert_eq!(
            snap.counter(&format!(r#"stoke_move_accepted_total{{kind="{name}"}}"#)),
            stats.moves.accepted(kind),
            "accepted {name} moves"
        );
    }
    // Exactly one search finished, under some verification verdict.
    let searches: u64 = ["proven", "tests_only", "target_returned"]
        .iter()
        .map(|v| snap.counter(&format!(r#"stoke_searches_total{{verification="{v}"}}"#)))
        .sum();
    assert_eq!(searches, 1);
    // The exposition text renders every family exactly once.
    let text = registry.render_text();
    assert_eq!(
        text.matches("# TYPE stoke_proposals_total counter").count(),
        1
    );
    assert!(text.contains("stoke_search_seconds_count 1"));
}

#[test]
fn jsonl_trace_of_a_full_run_validates() {
    let path = std::env::temp_dir().join(format!("stoke-obs-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let sink = JsonlSink::create(&path, "obs-integration").expect("trace file opens");
        Session::new(base_config())
            .with_trace(Arc::new(sink))
            .run(&spec_for(&hackers_delight::p01()))
            .expect("search completes");
        // Sink drops here, flushing the writer.
    }
    let contents = std::fs::read_to_string(&path).expect("trace file exists");
    let summary = validate_trace(contents.lines()).expect("trace validates");
    assert!(summary.spans_started >= 3, "phase spans recorded");
    assert_eq!(
        summary.spans_started, summary.spans_ended,
        "every span closed"
    );
    assert!(summary.events > 0, "progress/search events recorded");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ring_trace_records_the_search_lifecycle() {
    let ring = Arc::new(RingSink::new(1 << 20));
    Session::new(base_config())
        .with_trace(ring.clone())
        .run(&spec_for(&hackers_delight::p14()))
        .expect("search completes");
    let records = ring.records();
    assert_eq!(ring.dropped(), 0);
    let span_names: Vec<&str> = records
        .iter()
        .filter_map(|(_, r)| match r {
            TraceRecord::SpanStart { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert!(span_names.contains(&"phase:synthesis"));
    assert!(span_names.contains(&"phase:optimization"));
    assert!(records
        .iter()
        .any(|(_, r)| matches!(r, TraceRecord::Event { name, .. } if name == "search_end")));
}

/// Validates each candidate with one more instruction, `addq 1, rax`,
/// appended: the symbolic validator refutes every call with a real
/// counterexample, which lands in the suite and in `SearchStats`.
struct RefutesEveryCandidate;

impl Verifier for RefutesEveryCandidate {
    fn name(&self) -> &'static str {
        "refutes-every-candidate"
    }

    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        let broken: Program = format!("{candidate}\naddq 1, rax").parse().unwrap();
        Symbolic.verify(&broken, ctx)
    }
}

#[test]
fn trace_fields_sum_to_search_stats_and_registry() {
    use stoke_suite::obs::Value;

    let registry = Arc::new(MetricsRegistry::new());
    let ring = Arc::new(RingSink::new(1 << 20));
    let result = Session::new(base_config())
        .with_metrics(registry.clone())
        .with_trace(ring.clone())
        .with_verifier(Arc::new(RefutesEveryCandidate))
        .run(&spec_for(&hackers_delight::p01()))
        .expect("search completes");
    assert_eq!(ring.dropped(), 0);
    let records: Vec<TraceRecord> = ring.records().into_iter().map(|(_, r)| r).collect();
    let sum = |event: &str, phase: Option<&str>, field: &str| -> u64 {
        records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Event { name, .. } if name == event))
            .filter(|r| phase.is_none_or(|p| r.field("phase") == Some(&Value::Str(p.into()))))
            .map(|r| match r.field(field) {
                Some(Value::U64(n)) => *n,
                other => panic!("{event} field {field}: {other:?}"),
            })
            .sum()
    };
    let snap = registry.snapshot();
    let stats = &result.stats;
    for (phase, proposals) in [
        ("synthesis", stats.synthesis_proposals),
        ("optimization", stats.optimization_proposals),
    ] {
        assert!(proposals > 0, "{phase} ran");
        assert_eq!(
            sum("chain_end", Some(phase), "proposals"),
            proposals,
            "{phase}"
        );
        assert_eq!(
            snap.counter(&format!(r#"stoke_proposals_total{{phase="{phase}"}}"#)),
            proposals,
            "{phase}"
        );
    }
    assert_eq!(sum("chain_end", None, "testcases_run"), stats.testcases_run);
    assert_eq!(
        sum("chain_end", None, "moves_swap"),
        stats.moves.proposed(stoke_suite::stoke::MoveKind::Swap)
    );
    assert_eq!(
        sum("chain_end", None, "evaluations"),
        snap.counter("stoke_evaluations_total")
    );
    assert!(stats.counterexamples > 0);
    assert_eq!(
        sum("search_end", None, "counterexamples"),
        stats.counterexamples
    );
    assert_eq!(
        snap.counter("stoke_counterexamples_total"),
        stats.counterexamples
    );
}
