//! Pluggable verification strategies: the validation stage of the
//! evaluation pipeline.
//!
//! The paper's pipeline ends with symbolic validation and counterexample
//! feedback (Equation 12): a candidate that survives the test suite is
//! handed to a theorem prover, and any counterexample it produces becomes
//! a new test case. This module opens that stage into a trait: a
//! [`Verifier`] maps a candidate rewrite to a [`Verdict`] (carrying any
//! counterexamples found), with mutable access to the test suite so the
//! feedback loop lives behind the trait too.
//!
//! Three verifiers ship with the crate:
//!
//! - [`TestOnly`] — the test suite alone (what an interrupted search falls
//!   back to);
//! - [`Symbolic`] — the symbolic validator of `stoke-verify` (§5.2), with
//!   counterexample feedback;
//! - [`Cascade`] — tests first, then an inner verifier (symbolic by
//!   default), then a re-test on the refined suite to keep candidates that
//!   only failed on a spurious counterexample of the
//!   uninterpreted-function abstraction. This is the paper's flow and the
//!   default of [`Session`](crate::driver::Session).
//!
//! A third-party verifier implements [`Verifier`] and is installed with
//! [`Session::with_verifier`](crate::driver::Session::with_verifier):
//!
//! ```
//! use std::sync::Arc;
//! use stoke::{
//!     Config, Session, TargetSpec, Verdict, Verifier, VerifyContext, VerifyStatus,
//! };
//! use stoke_x86::{Gpr, Program};
//!
//! /// Trusts the test suite, but never claims a proof.
//! struct Paranoid;
//!
//! impl Verifier for Paranoid {
//!     fn name(&self) -> &'static str {
//!         "paranoid"
//!     }
//!     fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
//!         stoke::TestOnly.verify(candidate, ctx)
//!     }
//! }
//!
//! let target: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
//! let spec = TargetSpec::with_gprs(target, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
//! let config = Config::builder()
//!     .synthesis_iterations(500)
//!     .optimization_iterations(2_000)
//!     .num_testcases(4)
//!     .threads(1)
//!     .build()
//!     .unwrap();
//! let result = Session::new(config)
//!     .with_verifier(Arc::new(Paranoid))
//!     .run(&spec)
//!     .unwrap();
//! // A test-only verifier can never return a Proven rewrite.
//! assert_ne!(result.verification, stoke::Verification::Proven);
//! ```

use crate::config::Config;
use crate::cost;
use crate::observer::{SearchObserver, ValidationVerdict};
use crate::search::SearchStats;
use crate::testcase::{TargetSpec, TestSuite};
use stoke_emu::PreparedProgram;
use stoke_verify::{Counterexample, EquivResult, Validator};
use stoke_x86::Program;

/// How far a candidate's equivalence with the target was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyStatus {
    /// Proven equivalent by a symbolic (or otherwise complete) method.
    Proven,
    /// Consistent with every test case, but not proven.
    TestsPassed,
    /// Shown inequivalent — by a failing test case or a counterexample.
    #[default]
    Refuted,
}

/// The outcome of verifying one candidate, carrying any counterexamples
/// produced along the way (which a feedback-looping verifier has already
/// added to the suite through its [`VerifyContext`]).
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// How far equivalence was established.
    pub status: VerifyStatus,
    /// Counterexamples produced while verifying (empty for test-suite
    /// refutations, which have no single distinguishing input to report).
    pub counterexamples: Vec<Counterexample>,
}

impl Verdict {
    /// A proof of equivalence.
    pub fn proven() -> Verdict {
        Verdict {
            status: VerifyStatus::Proven,
            counterexamples: Vec::new(),
        }
    }

    /// Consistency with the test suite, without a proof.
    pub fn tests_passed() -> Verdict {
        Verdict {
            status: VerifyStatus::TestsPassed,
            counterexamples: Vec::new(),
        }
    }

    /// A refutation without a reportable counterexample.
    pub fn refuted() -> Verdict {
        Verdict {
            status: VerifyStatus::Refuted,
            counterexamples: Vec::new(),
        }
    }

    /// A refutation carrying the counterexamples that produced it.
    pub fn refuted_with(counterexamples: Vec<Counterexample>) -> Verdict {
        Verdict {
            status: VerifyStatus::Refuted,
            counterexamples,
        }
    }

    /// Whether the candidate survived verification (proven or
    /// tests-passed).
    pub fn accepted(&self) -> bool {
        self.status != VerifyStatus::Refuted
    }
}

/// Everything a verifier may consult — and refine — while verifying a
/// candidate: the target, the *mutable* test suite (the counterexample
/// feedback loop of Equation 12 appends to it), the configuration, the
/// search statistics, and the observer to report validation verdicts to.
pub struct VerifyContext<'a> {
    /// The target specification the candidate is compared against.
    pub spec: &'a TargetSpec,
    /// The test suite; verifiers append counterexamples here.
    pub suite: &'a mut TestSuite,
    /// The search configuration (for the cost-function weights used by
    /// test-suite checks).
    pub config: &'a Config,
    /// Search statistics: verifiers maintain `validations` and
    /// `counterexamples`.
    pub stats: &'a mut SearchStats,
    /// The session's observer ([`SearchObserver::on_validation`] is fired
    /// per symbolic query).
    pub observer: &'a dyn SearchObserver,
    /// Batch index of the target being verified.
    pub target: usize,
}

impl VerifyContext<'_> {
    /// Whether `candidate` passes every test case of the (current) suite.
    /// Does not count toward the search statistics — probe executions are
    /// not part of the search.
    pub fn passes_testcases(&self, candidate: &Program) -> bool {
        cost::passes_suite(
            self.config,
            self.suite,
            &PreparedProgram::of_program(candidate),
        )
    }
}

/// A pluggable verification strategy for the pipeline's final stage.
///
/// Verifiers are shared across the batch worker threads (`Send + Sync`)
/// and invoked once per surviving candidate; keep per-call state in the
/// [`VerifyContext`].
pub trait Verifier: Send + Sync {
    /// A short human-readable name, for diagnostics.
    fn name(&self) -> &'static str {
        "custom"
    }

    /// Verify `candidate` against the target of `ctx`, refining the test
    /// suite with any counterexamples found.
    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict;
}

impl<V: Verifier + ?Sized> Verifier for &V {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        (**self).verify(candidate, ctx)
    }
}

/// Verification by the test suite alone: the candidate is accepted (as
/// [`VerifyStatus::TestsPassed`]) iff it passes every test case. This is
/// what an interrupted search falls back to, the symbolic stage being
/// non-preemptible.
#[derive(Debug, Clone, Copy, Default)]
pub struct TestOnly;

impl Verifier for TestOnly {
    fn name(&self) -> &'static str {
        "test-only"
    }

    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        if ctx.passes_testcases(candidate) {
            Verdict::tests_passed()
        } else {
            Verdict::refuted()
        }
    }
}

/// The symbolic validator of §5.2 (`stoke-verify`), with the
/// counterexample feedback loop of Equation 12: a refuting input is added
/// to the test suite before the verdict is returned, so subsequent cost
/// evaluations see it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Symbolic;

impl Verifier for Symbolic {
    fn name(&self) -> &'static str {
        "symbolic"
    }

    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        ctx.stats.validations += 1;
        let validator = Validator::new(ctx.suite.live_out.clone());
        let verdict = match validator.prove(&ctx.spec.program, candidate).0 {
            EquivResult::Equivalent => Verdict::proven(),
            EquivResult::NotEquivalent(cex) => {
                ctx.stats.counterexamples += 1;
                ctx.suite.add_counterexample(ctx.spec, &cex);
                Verdict::refuted_with(vec![*cex])
            }
        };
        ctx.observer.on_validation(
            ctx.target,
            if verdict.accepted() {
                ValidationVerdict::Proven
            } else {
                ValidationVerdict::Refuted
            },
        );
        verdict
    }
}

/// Tests first, then an inner verifier, then — if the inner verifier
/// refuted *and* refined the suite — a re-test on the refined suite.
///
/// The re-test keeps candidates whose only "counterexample" is an artifact
/// of the inner verifier's abstraction (the paper's
/// uninterpreted-function modelling of 64-bit multiplication): a genuine
/// counterexample shows up as a failing test case after refinement, a
/// spurious one does not, and the candidate is then kept as
/// [`VerifyStatus::TestsPassed`]. This is exactly the validation flow of
/// the paper's pipeline, and the default verifier of a
/// [`Session`](crate::driver::Session).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cascade<V = Symbolic> {
    inner: V,
}

impl<V: Verifier> Cascade<V> {
    /// Run the test suite before (and, on refuted-with-counterexample,
    /// after) `inner`.
    pub const fn new(inner: V) -> Cascade<V> {
        Cascade { inner }
    }

    /// The inner verifier.
    pub fn inner(&self) -> &V {
        &self.inner
    }
}

impl<V: Verifier> Verifier for Cascade<V> {
    fn name(&self) -> &'static str {
        "cascade"
    }

    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        // 1. Reject candidates that fail test cases outright — no point
        //    paying for the inner verifier.
        if !ctx.passes_testcases(candidate) {
            return Verdict::refuted();
        }
        // 2. The inner verifier (symbolic by default).
        let verdict = self.inner.verify(candidate, ctx);
        if verdict.status != VerifyStatus::Refuted {
            return verdict;
        }
        // 3. Re-check on the refined suite: a genuine counterexample now
        //    shows a failing test case; a spurious one (caused by the
        //    inner verifier's abstraction) does not.
        if !verdict.counterexamples.is_empty() && ctx.passes_testcases(candidate) {
            return Verdict {
                status: VerifyStatus::TestsPassed,
                counterexamples: verdict.counterexamples,
            };
        }
        verdict
    }
}

/// A relative leakage gate in front of an inner verifier: a candidate
/// that observes secrets through a channel the *target* never used is
/// refuted before any symbolic work, in the spirit of Spectector's
/// relative reasoning.
///
/// Secrets come from the target's interface annotations
/// ([`InputSpec::secret`](crate::InputSpec::secret)); with no secret
/// inputs the gate is exactly its inner verifier. The comparison is by
/// observation *kind* ([`stoke_analysis::LeakKind`]): a rewrite may keep
/// the channels the target already leaks through (it can be no worse),
/// but a new secret-dependent address, shift count or division refutes
/// it — even if it is functionally equivalent.
///
/// ```
/// use stoke::{
///     generate_testcases, Cascade, Config, InputSpec, LeakageCheck, NullObserver,
///     SearchStats, Symbolic, TargetSpec, Verifier, VerifierSpec, VerifyContext,
///     VerifyStatus,
/// };
/// use stoke_x86::flow::LocSet;
/// use stoke_x86::{Gpr, Program};
///
/// // rax = rsi << (rdi & 32), computed branchlessly: the secret in rdi
/// // never reaches an address, a shift count or a division.
/// let target: Program = "
///     movq rsi, rax
///     movq rsi, rdx
///     shlq 32, rdx
///     testq 32, rdi
///     cmovneq rdx, rax
/// ".parse().unwrap();
/// let spec = TargetSpec::new(
///     target,
///     vec![
///         InputSpec::value_masked(Gpr::Rdi, 0x20).secret(),
///         InputSpec::value64(Gpr::Rsi),
///     ],
///     LocSet::from_gprs([Gpr::Rax]),
/// );
/// let config = Config::builder().threads(1).build().unwrap();
/// let mut suite = generate_testcases(&spec, 4, 1);
/// let mut stats = SearchStats::default();
/// let observer = NullObserver;
/// let mut ctx = VerifyContext {
///     spec: &spec,
///     suite: &mut suite,
///     config: &config,
///     stats: &mut stats,
///     observer: &observer,
///     target: 0,
/// };
/// // The shorter rewrite shifts by `cl` derived from the secret — a new
/// // observation channel, refuted without a symbolic query.
/// let leaky: Program = "movq rdi, rcx\nmovq rsi, rax\nshlq cl, rax".parse().unwrap();
/// let verifier = LeakageCheck::new(Cascade::new(Symbolic));
/// assert_eq!(verifier.verify(&leaky, &mut ctx).status, VerifyStatus::Refuted);
/// assert_eq!(stats.validations, 0);
///
/// // The usual route: select it through the config.
/// let config = Config::builder()
///     .verifier(VerifierSpec::LeakageCascade)
///     .build()
///     .unwrap();
/// assert_eq!(config.verifier.name(), "leakage-cascade");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LeakageCheck<V = Cascade<Symbolic>> {
    inner: V,
}

impl<V: Verifier> LeakageCheck<V> {
    /// Gate `inner` behind the relative leakage check.
    pub const fn new(inner: V) -> LeakageCheck<V> {
        LeakageCheck { inner }
    }

    /// The inner verifier.
    pub fn inner(&self) -> &V {
        &self.inner
    }
}

impl<V: Verifier> Verifier for LeakageCheck<V> {
    fn name(&self) -> &'static str {
        "leakage-cascade"
    }

    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        let secrets = ctx.spec.secret_inputs();
        if !secrets.is_empty() {
            let new_leaks = stoke_analysis::introduces_new_leaks(
                ctx.spec.program.iter(),
                candidate.iter(),
                &secrets,
            );
            if !new_leaks.is_empty() {
                ctx.stats.leakage_rejections += 1;
                return Verdict::refuted();
            }
        }
        self.inner.verify(candidate, ctx)
    }
}

/// Which verifier a search uses when none is installed explicitly with
/// [`Session::with_verifier`](crate::driver::Session::with_verifier),
/// selected through [`Config::verifier`](crate::config::Config::verifier).
/// A third-party [`Verifier`] is installed with `with_verifier` (or
/// `ServeConfig::verifier` in `stoke-serve`), not through the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifierSpec {
    /// [`Cascade`] over [`Symbolic`] — the paper's flow and the default.
    #[default]
    Cascade,
    /// [`TestOnly`]: the test suite alone, no symbolic validation.
    TestOnly,
    /// [`LeakageCheck`] over the default cascade: candidates introducing
    /// new secret observations are refuted before verification.
    LeakageCascade,
}

impl VerifierSpec {
    /// The name of the selected verifier (matching
    /// [`Verifier::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            VerifierSpec::Cascade => "cascade",
            VerifierSpec::TestOnly => "test-only",
            VerifierSpec::LeakageCascade => "leakage-cascade",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::observer::NullObserver;
    use crate::testcase::{generate_testcases, InputSpec, TargetSpec};
    use stoke_x86::flow::LocSet;
    use stoke_x86::Gpr;

    fn spec() -> TargetSpec {
        let target: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        TargetSpec::with_gprs(target, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax])
    }

    fn harness(n: usize) -> (TargetSpec, TestSuite, Config, SearchStats) {
        let spec = spec();
        let suite = generate_testcases(&spec, n, 7);
        (spec, suite, Config::quick_test(), SearchStats::default())
    }

    #[test]
    fn test_only_accepts_and_refutes() {
        let (spec, mut suite, config, mut stats) = harness(8);
        let observer = NullObserver;
        let mut ctx = VerifyContext {
            spec: &spec,
            suite: &mut suite,
            config: &config,
            stats: &mut stats,
            observer: &observer,
            target: 0,
        };
        let right: Program = "leaq (rdi,rsi,1), rax".parse().unwrap();
        assert_eq!(
            TestOnly.verify(&right, &mut ctx).status,
            VerifyStatus::TestsPassed
        );
        let wrong: Program = "movq rdi, rax\nsubq rsi, rax".parse().unwrap();
        let verdict = TestOnly.verify(&wrong, &mut ctx);
        assert_eq!(verdict.status, VerifyStatus::Refuted);
        assert!(!verdict.accepted());
        assert!(verdict.counterexamples.is_empty());
        assert_eq!(stats.validations, 0, "test-only runs no symbolic queries");
    }

    #[test]
    fn symbolic_feeds_counterexamples_back_into_the_suite() {
        let (spec, mut suite, config, mut stats) = harness(1);
        let before = suite.len();
        let observer = NullObserver;
        let mut ctx = VerifyContext {
            spec: &spec,
            suite: &mut suite,
            config: &config,
            stats: &mut stats,
            observer: &observer,
            target: 0,
        };
        // Wrong on almost every input: a counterexample must come back and
        // land in the suite.
        let wrong: Program = "movq rdi, rax\naddq 1, rax".parse().unwrap();
        let verdict = Symbolic.verify(&wrong, &mut ctx);
        assert_eq!(verdict.status, VerifyStatus::Refuted);
        assert_eq!(verdict.counterexamples.len(), 1);
        assert_eq!(suite.len(), before + 1);
        assert_eq!(stats.validations, 1);
        assert_eq!(stats.counterexamples, 1);
    }

    #[test]
    fn cascade_proves_correct_rewrites() {
        let (spec, mut suite, config, mut stats) = harness(8);
        let observer = NullObserver;
        let mut ctx = VerifyContext {
            spec: &spec,
            suite: &mut suite,
            config: &config,
            stats: &mut stats,
            observer: &observer,
            target: 0,
        };
        let right: Program = "movq rsi, rax\naddq rdi, rax".parse().unwrap();
        let verdict = Cascade::<Symbolic>::default().verify(&right, &mut ctx);
        assert_eq!(verdict.status, VerifyStatus::Proven);
        assert_eq!(stats.validations, 1);
    }

    #[test]
    fn cascade_skips_the_inner_verifier_when_tests_fail() {
        let (spec, mut suite, config, mut stats) = harness(8);
        let observer = NullObserver;
        let mut ctx = VerifyContext {
            spec: &spec,
            suite: &mut suite,
            config: &config,
            stats: &mut stats,
            observer: &observer,
            target: 0,
        };
        let wrong: Program = "movq rdi, rax\nsubq rsi, rax".parse().unwrap();
        let verdict = Cascade::<Symbolic>::default().verify(&wrong, &mut ctx);
        assert_eq!(verdict.status, VerifyStatus::Refuted);
        assert_eq!(
            stats.validations, 0,
            "a test-refuted candidate must not reach the symbolic stage"
        );
    }

    #[test]
    fn leakage_check_refutes_new_channels_and_delegates_otherwise() {
        // rax = rdi + rsi with rdi secret: the target has no secret
        // observations at all.
        let target: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let spec = TargetSpec::new(
            target,
            vec![
                InputSpec::value64(Gpr::Rdi).secret(),
                InputSpec::value64(Gpr::Rsi),
            ],
            LocSet::from_gprs([Gpr::Rax]),
        );
        let mut suite = generate_testcases(&spec, 8, 7);
        assert!(suite.secrets.gprs.contains(&Gpr::Rdi));
        let config = Config::quick_test();
        let mut stats = SearchStats::default();
        let observer = NullObserver;
        let mut ctx = VerifyContext {
            spec: &spec,
            suite: &mut suite,
            config: &config,
            stats: &mut stats,
            observer: &observer,
            target: 0,
        };
        let verifier = LeakageCheck::<Cascade>::default();
        // Equivalent, and equally observation-free: proven as usual.
        let clean: Program = "leaq (rdi,rsi,1), rax".parse().unwrap();
        assert_eq!(
            verifier.verify(&clean, &mut ctx).status,
            VerifyStatus::Proven
        );
        assert_eq!(ctx.stats.validations, 1);
        // Dereferences the secret: a new secret-address observation,
        // refuted before the symbolic stage ever runs.
        let leaky: Program = "movq rdi, rax\naddq rsi, rax\nmovq (rdi), rcx\nmovq rax, rcx"
            .parse()
            .unwrap();
        assert_eq!(
            verifier.verify(&leaky, &mut ctx).status,
            VerifyStatus::Refuted
        );
        assert_eq!(ctx.stats.validations, 1, "no symbolic query for the leak");
    }

    #[test]
    fn verifier_spec_names_and_equality() {
        assert_eq!(VerifierSpec::default(), VerifierSpec::Cascade);
        assert_eq!(VerifierSpec::Cascade.name(), "cascade");
        assert_eq!(VerifierSpec::TestOnly.name(), "test-only");
        assert_eq!(VerifierSpec::LeakageCascade.name(), "leakage-cascade");
        assert_ne!(VerifierSpec::Cascade, VerifierSpec::LeakageCascade);
        assert_eq!(
            format!("{:?}", VerifierSpec::LeakageCascade),
            "LeakageCascade"
        );
    }
}
