//! Third-party extensibility tests for the evaluation pipeline: a custom
//! `CostModel` and a custom `Verifier` implemented *outside* `stoke-core`
//! using only the public API, exercised through a full `Session` run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use stoke_suite::emu::PreparedProgram;
use stoke_suite::stoke::{
    Cascade, Config, CostModel, CostModelFactory, CostModelSpec, EvalContext, PaperCost, Session,
    TargetSpec, TestOnly, Verdict, Verification, Verifier, VerifyContext, VerifyStatus,
};
use stoke_suite::verify::Counterexample;
use stoke_suite::workloads::hackers_delight;
use stoke_suite::x86::{Gpr, Program};

fn p01_spec() -> TargetSpec {
    let kernel = hackers_delight::p01();
    TargetSpec::new(
        kernel.target_o0(),
        vec![stoke_suite::stoke::InputSpec::value32(Gpr::Rdi)],
        kernel.live_out.clone(),
    )
}

fn quick_config() -> Config {
    Config::builder()
        .ell(16)
        .num_testcases(8)
        .synthesis_iterations(2_000)
        .optimization_iterations(10_000)
        .threads(1)
        .build()
        .expect("valid configuration")
}

/// A cost model double that counts every term evaluation while delegating
/// the arithmetic to the paper's metric.
struct CountingCost {
    correctness_calls: Arc<AtomicU64>,
    perf_calls: Arc<AtomicU64>,
}

impl CostModel for CountingCost {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn perf_term(&mut self, rewrite: &PreparedProgram<'_>, ctx: &mut EvalContext<'_>) -> f64 {
        self.perf_calls.fetch_add(1, Ordering::Relaxed);
        PaperCost.perf_term(rewrite, ctx)
    }

    fn correctness_term(
        &mut self,
        rewrite: &PreparedProgram<'_>,
        bound: Option<f64>,
        ctx: &mut EvalContext<'_>,
    ) -> Option<f64> {
        self.correctness_calls.fetch_add(1, Ordering::Relaxed);
        PaperCost.correctness_term(rewrite, bound, ctx)
    }
}

struct CountingFactory {
    correctness_calls: Arc<AtomicU64>,
    perf_calls: Arc<AtomicU64>,
}

impl CostModelFactory for CountingFactory {
    fn optimization_model(&self) -> Box<dyn CostModel> {
        Box::new(CountingCost {
            correctness_calls: self.correctness_calls.clone(),
            perf_calls: self.perf_calls.clone(),
        })
    }
}

#[test]
fn custom_cost_model_is_driven_by_the_whole_pipeline() {
    let correctness_calls = Arc::new(AtomicU64::new(0));
    let perf_calls = Arc::new(AtomicU64::new(0));
    let factory = Arc::new(CountingFactory {
        correctness_calls: correctness_calls.clone(),
        perf_calls: perf_calls.clone(),
    });
    let config = stoke_suite::stoke::ConfigBuilder::from_config(quick_config())
        .cost_model(CostModelSpec::Custom(factory))
        .build()
        .expect("valid configuration");
    let custom = Session::new(config).run(&p01_spec()).expect("run succeeds");

    // Every synthesis and optimization proposal scored through the double
    // (plus the two initial-rewrite scores).
    let evaluations = custom.stats.synthesis_proposals + custom.stats.optimization_proposals;
    assert!(
        correctness_calls.load(Ordering::Relaxed) > evaluations / 2,
        "the custom model was bypassed: {} correctness calls for {} proposals",
        correctness_calls.load(Ordering::Relaxed),
        evaluations
    );
    assert!(perf_calls.load(Ordering::Relaxed) > 0);

    // Delegating both terms to PaperCost makes the custom pipeline
    // bit-identical to the default one.
    let default = Session::new(quick_config())
        .run(&p01_spec())
        .expect("run succeeds");
    assert_eq!(custom.rewrite, default.rewrite);
    assert_eq!(custom.verification, default.verification);
}

/// A verifier double that injects a fabricated counterexample through the
/// feedback loop and records the suite growth it observes.
#[derive(Default)]
struct InjectingVerifier {
    /// (suite length before, suite length after, injected rdi value,
    /// rdi value of the appended test case) per call.
    observations: Mutex<Vec<(usize, usize, u64, u64)>>,
}

impl Verifier for InjectingVerifier {
    fn name(&self) -> &'static str {
        "injecting"
    }

    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        if !ctx.passes_testcases(candidate) {
            return Verdict::refuted();
        }
        let before = ctx.suite.len();
        let mut cex = Counterexample::default();
        let injected = 0xdead_beef_u64 & 0xffff_ffff;
        cex.gprs[Gpr::Rdi.index()] = injected;
        ctx.suite.add_counterexample(ctx.spec, &cex);
        ctx.stats.counterexamples += 1;
        let appended = ctx
            .suite
            .cases
            .last()
            .expect("the suite cannot be empty after an injection")
            .input
            .read_gpr64(Gpr::Rdi);
        self.observations
            .lock()
            .unwrap()
            .push((before, ctx.suite.len(), injected, appended));
        // The fabricated input is consistent with a correct candidate, so
        // accept on tests (never claim a proof).
        if ctx.passes_testcases(candidate) {
            Verdict::tests_passed()
        } else {
            Verdict::refuted_with(vec![cex])
        }
    }
}

#[test]
fn verifier_double_feeds_fabricated_counterexamples_into_the_suite() {
    let verifier = Arc::new(InjectingVerifier::default());
    let session = Session::new(quick_config()).with_verifier(verifier.clone());
    let result = session.run(&p01_spec()).expect("run succeeds");

    let observations = verifier.observations.lock().unwrap();
    assert!(
        !observations.is_empty(),
        "at least one candidate must reach the verifier"
    );
    for (before, after, injected, appended) in observations.iter() {
        assert_eq!(
            *after,
            before + 1,
            "the fabricated counterexample must land in the suite"
        );
        assert_eq!(
            appended, injected,
            "the appended test case must carry the injected input"
        );
    }
    // The injections are visible in the search statistics, and a
    // tests-only verifier can never produce a Proven result.
    assert_eq!(
        result.stats.counterexamples,
        observations.len() as u64,
        "every injection must be counted"
    );
    assert_ne!(result.verification, Verification::Proven);
}

/// A verifier double recording whether (and on which suite size) it was
/// invoked, with a scripted verdict.
struct RecordingVerifier {
    calls: Mutex<Vec<usize>>,
    verdict: fn() -> Verdict,
}

impl Verifier for RecordingVerifier {
    fn verify(&self, _candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        self.calls.lock().unwrap().push(ctx.suite.len());
        (self.verdict)()
    }
}

#[test]
fn cascade_orders_tests_before_the_inner_verifier() {
    let spec = p01_spec();
    let config = quick_config();
    let mut suite = stoke_suite::stoke::generate_testcases(&spec, 8, 3);
    let mut stats = stoke_suite::stoke::SearchStats::default();
    let observer = stoke_suite::stoke::NullObserver;

    let inner = RecordingVerifier {
        calls: Mutex::new(Vec::new()),
        verdict: Verdict::proven,
    };
    let cascade = Cascade::new(&inner);

    // A candidate failing the test suite never reaches the inner verifier.
    let wrong: Program = "movl 7, eax".parse().unwrap();
    let mut ctx = VerifyContext {
        spec: &spec,
        suite: &mut suite,
        config: &config,
        stats: &mut stats,
        observer: &observer,
        target: 0,
    };
    assert_eq!(
        cascade.verify(&wrong, &mut ctx).status,
        VerifyStatus::Refuted
    );
    assert!(
        inner.calls.lock().unwrap().is_empty(),
        "tests must run before (and gate) the inner verifier"
    );

    // A candidate passing the tests reaches the inner verifier, whose
    // verdict is adopted.
    let right = spec.program.clone();
    let mut ctx = VerifyContext {
        spec: &spec,
        suite: &mut suite,
        config: &config,
        stats: &mut stats,
        observer: &observer,
        target: 0,
    };
    assert_eq!(
        cascade.verify(&right, &mut ctx).status,
        VerifyStatus::Proven
    );
    assert_eq!(inner.calls.lock().unwrap().len(), 1);

    // An inner refutation whose counterexample does not actually
    // distinguish the programs (a spurious artifact) is downgraded to
    // TestsPassed by the re-test on the refined suite.
    let spurious = RecordingVerifier {
        calls: Mutex::new(Vec::new()),
        verdict: || Verdict::refuted_with(vec![Counterexample::default()]),
    };
    let cascade = Cascade::new(&spurious);
    let mut ctx = VerifyContext {
        spec: &spec,
        suite: &mut suite,
        config: &config,
        stats: &mut stats,
        observer: &observer,
        target: 0,
    };
    assert_eq!(
        cascade.verify(&right, &mut ctx).status,
        VerifyStatus::TestsPassed
    );
}

#[test]
fn test_only_sessions_never_claim_proofs() {
    let session = Session::new(quick_config()).with_verifier(Arc::new(TestOnly));
    let result = session.run(&p01_spec()).expect("run succeeds");
    assert!(
        matches!(
            result.verification,
            Verification::TestsOnly | Verification::TargetReturned
        ),
        "unexpected verification under TestOnly: {:?}",
        result.verification
    );
    assert_eq!(result.stats.validations, 0);
}
