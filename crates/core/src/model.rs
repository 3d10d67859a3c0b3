//! Pluggable cost models: the scoring stage of the evaluation pipeline.
//!
//! The paper's architecture has three replaceable stages — test-case cost,
//! stochastic search, and symbolic validation. This module opens the first
//! into a trait: a [`CostModel`] maps a prepared rewrite to a [`Cost`]
//! with a per-term breakdown, and the MCMC chain
//! ([`Chain`](crate::mcmc::Chain)) drives any model through the same
//! early-terminating Metropolis–Hastings acceptance computation (§4.5).
//!
//! Three models ship with the crate:
//!
//! - [`PaperCost`] — the paper's metric (Equations 8/11/13/15), the
//!   default for the optimization phase;
//! - [`CorrectnessOnly`] — a combinator dropping the performance term,
//!   which is exactly the synthesis phase of §4.4 (`perf_weight = 0`) as
//!   its own model;
//! - [`ConstantTimePenalty`] — a combinator charging each constant-time
//!   violation of the rewrite on top of an inner model's performance term.
//!
//! Third-party models plug in through [`CostModelFactory`] and
//! [`CostModelSpec::Custom`], selected per search via
//! [`Config::cost_model`](crate::config::Config::cost_model) or
//! [`ConfigBuilder::cost_model`](crate::config::ConfigBuilder::cost_model):
//!
//! ```
//! use stoke::{
//!     Config, Cost, CostModel, CostModelFactory, CostModelSpec, EvalContext, Session,
//!     TargetSpec,
//! };
//! use std::sync::Arc;
//! use stoke_emu::PreparedProgram;
//! use stoke_x86::{Gpr, Program};
//!
//! /// Scores rewrites by test-case correctness plus instruction *count*
//! /// (shortest code wins, whatever its latency).
//! struct FewestInstructions;
//!
//! impl CostModel for FewestInstructions {
//!     fn name(&self) -> &'static str {
//!         "fewest-instructions"
//!     }
//!     fn perf_term(&mut self, rewrite: &PreparedProgram<'_>, _ctx: &mut EvalContext<'_>) -> f64 {
//!         rewrite.len() as f64
//!     }
//!     fn correctness_term(
//!         &mut self,
//!         rewrite: &PreparedProgram<'_>,
//!         bound: Option<f64>,
//!         ctx: &mut EvalContext<'_>,
//!     ) -> Option<f64> {
//!         // Delegate the correctness half to the paper's metric.
//!         stoke::PaperCost.correctness_term(rewrite, bound, ctx)
//!     }
//! }
//!
//! struct FewestInstructionsFactory;
//! impl CostModelFactory for FewestInstructionsFactory {
//!     fn optimization_model(&self) -> Box<dyn CostModel> {
//!         Box::new(FewestInstructions)
//!     }
//! }
//!
//! let config = Config::builder()
//!     .cost_model(CostModelSpec::Custom(Arc::new(FewestInstructionsFactory)))
//!     .synthesis_iterations(500)
//!     .optimization_iterations(2_000)
//!     .num_testcases(4)
//!     .threads(1)
//!     .build()
//!     .unwrap();
//! let target: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
//! let spec = TargetSpec::with_gprs(target, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
//! let result = Session::new(config).run(&spec).unwrap();
//! assert!(result.speedup() >= 1.0);
//! ```

use crate::config::Config;
use crate::cost::{eq_prime, EvalScratch, EvalStats};
use crate::testcase::TestSuite;
use std::fmt;
use std::sync::Arc;
use stoke_emu::PreparedProgram;

/// A scored rewrite, broken down into the two terms of the paper's cost
/// function `c(R; T) = eq'(R; T, τ) + perf(R)` (Equations 8 and 13).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// The correctness term (`eq'`), in bits of Hamming distance plus
    /// fault penalties. Zero means the rewrite passed every test case.
    pub correctness: f64,
    /// The (weighted) performance term.
    pub performance: f64,
}

impl Cost {
    /// A cost made only of a correctness term.
    pub fn correctness(value: f64) -> Cost {
        Cost {
            correctness: value,
            performance: 0.0,
        }
    }

    /// The total cost minimized by the search.
    pub fn total(&self) -> f64 {
        self.correctness + self.performance
    }

    /// Whether the rewrite passed every test case (`eq' == 0`); only such
    /// candidates may enter the re-rank and verification stage.
    pub fn is_correct(&self) -> bool {
        self.correctness == 0.0
    }
}

/// Everything a cost model may consult while scoring a rewrite: the search
/// configuration, the (counterexample-refined) test suite, the target's
/// static latency, and the evaluation statistics to update.
///
/// Borrowed per evaluation from the chain's [`CostFn`](crate::cost::CostFn)
/// via [`CostFn::eval_context`](crate::cost::CostFn::eval_context), so a
/// model always sees the latest suite refinements.
pub struct EvalContext<'a> {
    /// The search configuration.
    pub config: &'a Config,
    /// The test suite `τ` the rewrite is evaluated on.
    pub suite: &'a TestSuite,
    /// Reusable evaluation buffers (the batched engine's scratch state),
    /// so models evaluating `eq'` stay allocation-free across proposals.
    pub scratch: &'a mut EvalScratch,
    /// Static latency of the target, `H(T)`.
    pub target_latency: u64,
    /// Evaluation statistics (evaluations, test cases run, early
    /// terminations) the model must keep up to date.
    pub stats: &'a mut EvalStats,
}

/// A pluggable scoring policy for candidate rewrites.
///
/// The cost is split into a correctness term and a performance term so
/// that the chain can run the early-termination acceptance computation of
/// §4.5 for *any* model: the (cheap, static) performance term is computed
/// first, the remaining budget is passed to
/// [`correctness_term`](CostModel::correctness_term) as a bound, and
/// evaluation stops as soon as the bound is exceeded.
///
/// Models are built per chain by a [`CostModelFactory`] (or one of the
/// built-in [`CostModelSpec`] variants), so `&mut self` state is
/// chain-local; share cross-chain state through `Arc` fields captured at
/// factory time.
pub trait CostModel: Send {
    /// A short human-readable name, for diagnostics.
    fn name(&self) -> &'static str {
        "custom"
    }

    /// The performance term of `rewrite` (the `perf(·)` of Equation 13 in
    /// the paper's model). Must be cheap: it is evaluated on every
    /// proposal *before* any test case runs.
    fn perf_term(&mut self, rewrite: &PreparedProgram<'_>, ctx: &mut EvalContext<'_>) -> f64;

    /// The correctness term of `rewrite` (the `eq'(·)` of Equation 8 in
    /// the paper's model).
    ///
    /// With `bound = Some(b)` the model may stop evaluating as soon as the
    /// term provably exceeds `b` and return `None` — the proposal is then
    /// rejected without running the remaining test cases (§4.5). With
    /// `bound = None` the model must evaluate fully and return `Some`.
    fn correctness_term(
        &mut self,
        rewrite: &PreparedProgram<'_>,
        bound: Option<f64>,
        ctx: &mut EvalContext<'_>,
    ) -> Option<f64>;

    /// Fully score `rewrite`, returning the per-term breakdown.
    fn score(&mut self, rewrite: &PreparedProgram<'_>, ctx: &mut EvalContext<'_>) -> Cost {
        let correctness = self
            .correctness_term(rewrite, None, ctx)
            .expect("an unbounded correctness evaluation always completes");
        let performance = self.perf_term(rewrite, ctx);
        Cost {
            correctness,
            performance,
        }
    }
}

impl CostModel for Box<dyn CostModel> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn perf_term(&mut self, rewrite: &PreparedProgram<'_>, ctx: &mut EvalContext<'_>) -> f64 {
        (**self).perf_term(rewrite, ctx)
    }

    fn correctness_term(
        &mut self,
        rewrite: &PreparedProgram<'_>,
        bound: Option<f64>,
        ctx: &mut EvalContext<'_>,
    ) -> Option<f64> {
        (**self).correctness_term(rewrite, bound, ctx)
    }

    fn score(&mut self, rewrite: &PreparedProgram<'_>, ctx: &mut EvalContext<'_>) -> Cost {
        (**self).score(rewrite, ctx)
    }
}

/// The paper's cost metric: `eq'` over the test suite (Equations 8/11/15)
/// plus the weighted static-latency heuristic (Equation 13). The default
/// model of the optimization phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperCost;

impl CostModel for PaperCost {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn perf_term(&mut self, rewrite: &PreparedProgram<'_>, ctx: &mut EvalContext<'_>) -> f64 {
        ctx.config.perf_weight * rewrite.static_latency() as f64
    }

    fn correctness_term(
        &mut self,
        rewrite: &PreparedProgram<'_>,
        bound: Option<f64>,
        ctx: &mut EvalContext<'_>,
    ) -> Option<f64> {
        eq_prime(
            ctx.config,
            ctx.suite,
            rewrite,
            ctx.scratch,
            ctx.stats,
            bound,
        )
        .0
        .map(|eq| eq as f64)
    }
}

/// A combinator dropping the performance term of an inner model: the
/// synthesis phase of §4.4 (`perf_weight = 0`) as its own model. The
/// default model of the synthesis phase, over [`PaperCost`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CorrectnessOnly<M = PaperCost> {
    inner: M,
}

impl<M: CostModel> CorrectnessOnly<M> {
    /// Keep only the correctness term of `inner`.
    pub fn new(inner: M) -> CorrectnessOnly<M> {
        CorrectnessOnly { inner }
    }
}

impl<M: CostModel> CostModel for CorrectnessOnly<M> {
    fn name(&self) -> &'static str {
        "correctness-only"
    }

    fn perf_term(&mut self, _rewrite: &PreparedProgram<'_>, _ctx: &mut EvalContext<'_>) -> f64 {
        0.0
    }

    fn correctness_term(
        &mut self,
        rewrite: &PreparedProgram<'_>,
        bound: Option<f64>,
        ctx: &mut EvalContext<'_>,
    ) -> Option<f64> {
        self.inner.correctness_term(rewrite, bound, ctx)
    }
}

/// A combinator adding a fixed penalty per constant-time violation of the
/// rewrite, on top of an inner model's performance term.
///
/// Violations are computed by the static taint analysis of
/// [`stoke_analysis`]: instructions whose memory-operand address, shift
/// count or division operands derive from an input marked secret
/// ([`InputSpec::secret`](crate::InputSpec::secret)). With no secret
/// inputs the combinator is exactly its inner model.
///
/// The analysis runs on every scored proposal whose suite has secret
/// inputs, and records every instruction of the rewrite afresh: it does
/// not reuse the prepared rewrite's decoded forms. `bench-analysis`
/// measures the cost of the call per kernel; its latest figures are the
/// `constant_time` entries of `BENCH_analysis.json`.
///
/// ```
/// use stoke::{Config, CostModelSpec, InputSpec, TargetSpec};
/// use stoke_analysis::{constant_time_violations, LeakKind};
/// use stoke_x86::flow::LocSet;
/// use stoke_x86::{Gpr, Program};
///
/// // rax = rsi << (rdi & 32), where rdi holds a secret. The branchless
/// // target is constant-time; the "obvious" shorter rewrite is not:
/// let leaky: Program = "movq rdi, rcx\nshlq cl, rax".parse().unwrap();
/// let secrets = LocSet::from_gprs([Gpr::Rdi]);
/// let violations = constant_time_violations(leaky.iter(), &secrets);
/// assert_eq!(violations[0].kind, LeakKind::SecretShiftCount);
///
/// // Secrets are annotated on the target's interface, and the penalty is
/// // selected through the config; each violation then adds 16.0 to the
/// // rewrite's cost, steering the search toward constant-time code.
/// let spec = TargetSpec::new(
///     "movq rsi, rax".parse().unwrap(),
///     vec![InputSpec::value64(Gpr::Rdi).secret(), InputSpec::value64(Gpr::Rsi)],
///     LocSet::from_gprs([Gpr::Rax]),
/// );
/// assert!(spec.secret_inputs().gprs.contains(&Gpr::Rdi));
/// let config = Config::builder()
///     .cost_model(CostModelSpec::ConstantTime { penalty: 16.0 })
///     .build()
///     .unwrap();
/// assert_eq!(config.cost_model.optimization_model().name(), "constant-time");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantTimePenalty<M = PaperCost> {
    inner: M,
    penalty: f64,
}

impl<M: CostModel> ConstantTimePenalty<M> {
    /// Add `penalty` per constant-time violation to `inner`'s performance
    /// term. The penalty must be finite and non-negative (enforced by
    /// [`Config::validate`](crate::config::Config::validate) when selected
    /// through [`CostModelSpec::ConstantTime`]).
    pub fn new(inner: M, penalty: f64) -> ConstantTimePenalty<M> {
        debug_assert!(penalty.is_finite() && penalty >= 0.0);
        ConstantTimePenalty { inner, penalty }
    }
}

impl<M: CostModel> CostModel for ConstantTimePenalty<M> {
    fn name(&self) -> &'static str {
        "constant-time"
    }

    fn perf_term(&mut self, rewrite: &PreparedProgram<'_>, ctx: &mut EvalContext<'_>) -> f64 {
        let base = self.inner.perf_term(rewrite, ctx);
        if ctx.suite.secrets.is_empty() {
            return base;
        }
        let violations =
            stoke_analysis::constant_time_violations(rewrite.instructions(), &ctx.suite.secrets);
        base + self.penalty * violations.len() as f64
    }

    fn correctness_term(
        &mut self,
        rewrite: &PreparedProgram<'_>,
        bound: Option<f64>,
        ctx: &mut EvalContext<'_>,
    ) -> Option<f64> {
        self.inner.correctness_term(rewrite, bound, ctx)
    }
}

/// Builds fresh [`CostModel`] instances for each chain of a search.
///
/// A search runs several chains in parallel (and a batch runs several
/// targets in parallel), each needing its own `&mut` model, hence the
/// factory indirection. Share state across instances with `Arc` fields.
pub trait CostModelFactory: Send + Sync {
    /// The model of the optimization phase (correctness + performance,
    /// §4.4).
    fn optimization_model(&self) -> Box<dyn CostModel>;

    /// The model of the synthesis phase. Defaults to the optimization
    /// model with its performance term dropped ([`CorrectnessOnly`]), the
    /// paper's synthesis formulation.
    fn synthesis_model(&self) -> Box<dyn CostModel> {
        Box::new(CorrectnessOnly::new(self.optimization_model()))
    }
}

/// Which cost model a search uses, selected through
/// [`Config::cost_model`](crate::config::Config::cost_model).
#[derive(Clone, Default)]
pub enum CostModelSpec {
    /// [`PaperCost`] for optimization, [`CorrectnessOnly`] over it for
    /// synthesis — the paper's pipeline and the default.
    #[default]
    Paper,
    /// [`ConstantTimePenalty`] over [`PaperCost`] for optimization (and
    /// plain [`CorrectnessOnly`] for synthesis): each statically detected
    /// secret-dependent memory address, shift count or division adds
    /// `penalty` to the cost. The penalty must be finite and non-negative.
    ConstantTime {
        /// Cost added per constant-time violation.
        penalty: f64,
    },
    /// A third-party model built by the given factory.
    Custom(Arc<dyn CostModelFactory>),
}

impl CostModelSpec {
    /// Build the optimization-phase model.
    pub fn optimization_model(&self) -> Box<dyn CostModel> {
        match self {
            CostModelSpec::Paper => Box::new(PaperCost),
            CostModelSpec::ConstantTime { penalty } => {
                Box::new(ConstantTimePenalty::new(PaperCost, *penalty))
            }
            CostModelSpec::Custom(factory) => factory.optimization_model(),
        }
    }

    /// Build the synthesis-phase model.
    pub fn synthesis_model(&self) -> Box<dyn CostModel> {
        match self {
            CostModelSpec::Paper | CostModelSpec::ConstantTime { .. } => {
                Box::<CorrectnessOnly>::default()
            }
            CostModelSpec::Custom(factory) => factory.synthesis_model(),
        }
    }
}

impl fmt::Debug for CostModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostModelSpec::Paper => write!(f, "Paper"),
            CostModelSpec::ConstantTime { penalty } => f
                .debug_struct("ConstantTime")
                .field("penalty", penalty)
                .finish(),
            CostModelSpec::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl PartialEq for CostModelSpec {
    fn eq(&self, other: &CostModelSpec) -> bool {
        match (self, other) {
            (CostModelSpec::Paper, CostModelSpec::Paper) => true,
            (
                CostModelSpec::ConstantTime { penalty: a },
                CostModelSpec::ConstantTime { penalty: b },
            ) => a == b,
            // Custom factories are opaque: equal only if they are the same
            // allocation.
            (CostModelSpec::Custom(a), CostModelSpec::Custom(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::cost::CostFn;
    use crate::testcase::{generate_testcases, TargetSpec};
    use stoke_x86::{Gpr, Program};

    fn cost_fn() -> CostFn {
        let target: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let spec = TargetSpec::with_gprs(target.clone(), &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
        let suite = generate_testcases(&spec, 8, 42);
        CostFn::new(Config::quick_test(), suite, target.static_latency())
    }

    #[test]
    fn paper_cost_matches_cost_fn() {
        let mut cf = cost_fn();
        let program: Program = "movq rdi, rax\nsubq rsi, rax".parse().unwrap();
        let instrs: Vec<_> = program.iter().cloned().collect();
        let expected_eq = cf.eq_prime(&instrs) as f64;
        let expected_perf = cf.perf_term(&instrs);
        let prepared = stoke_emu::PreparedProgram::of_program(&program);
        let cost = PaperCost.score(&prepared, &mut cf.eval_context());
        assert_eq!(cost.correctness, expected_eq);
        assert_eq!(cost.performance, expected_perf);
        assert_eq!(cost.total(), expected_eq + expected_perf);
        assert!(!cost.is_correct());
    }

    #[test]
    fn correctness_only_drops_the_perf_term() {
        let mut cf = cost_fn();
        let program: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let prepared = stoke_emu::PreparedProgram::of_program(&program);
        let cost = CorrectnessOnly::<PaperCost>::default().score(&prepared, &mut cf.eval_context());
        assert_eq!(cost.performance, 0.0);
        assert!(cost.is_correct(), "the target scores eq' == 0 on itself");
    }

    #[test]
    fn bounded_evaluation_early_terminates_through_the_trait() {
        let mut cf = cost_fn();
        let wrong: Program = "movq 0, rax".parse().unwrap();
        let prepared = stoke_emu::PreparedProgram::of_program(&wrong);
        let res = PaperCost.correctness_term(&prepared, Some(5.0), &mut cf.eval_context());
        assert_eq!(res, None);
        assert_eq!(cf.stats.early_terminations, 1);
    }

    #[test]
    fn constant_time_penalty_charges_violations() {
        use crate::testcase::InputSpec;
        use stoke_x86::flow::LocSet;
        let target: Program = "movq rsi, rax\nshlq 2, rax".parse().unwrap();
        let spec = TargetSpec::new(
            target.clone(),
            vec![
                InputSpec::value64(Gpr::Rdi).secret(),
                InputSpec::value64(Gpr::Rsi),
            ],
            LocSet::from_gprs([Gpr::Rax]),
        );
        let suite = generate_testcases(&spec, 4, 1);
        let mut cf = CostFn::new(Config::quick_test(), suite, target.static_latency());
        let leaky: Program = "movq rdi, rcx\nmovq rsi, rax\nshlq cl, rax"
            .parse()
            .unwrap();
        let prepared = stoke_emu::PreparedProgram::of_program(&leaky);
        let base = PaperCost.perf_term(&prepared, &mut cf.eval_context());
        let penalized =
            ConstantTimePenalty::new(PaperCost, 16.0).perf_term(&prepared, &mut cf.eval_context());
        assert_eq!(penalized, base + 16.0, "one violation, one penalty");
        let clean = stoke_emu::PreparedProgram::of_program(&target);
        let base = PaperCost.perf_term(&clean, &mut cf.eval_context());
        let penalized =
            ConstantTimePenalty::new(PaperCost, 16.0).perf_term(&clean, &mut cf.eval_context());
        assert_eq!(penalized, base, "constant-time code pays nothing");
    }

    #[test]
    fn spec_selects_models() {
        assert_eq!(CostModelSpec::Paper.optimization_model().name(), "paper");
        assert_eq!(
            CostModelSpec::Paper.synthesis_model().name(),
            "correctness-only"
        );
        assert_eq!(
            CostModelSpec::ConstantTime { penalty: 1.0 }
                .optimization_model()
                .name(),
            "constant-time"
        );
    }

    #[test]
    fn spec_equality_and_debug() {
        assert_eq!(CostModelSpec::Paper, CostModelSpec::Paper);
        assert_ne!(
            CostModelSpec::Paper,
            CostModelSpec::ConstantTime { penalty: 0.0 }
        );
        struct F;
        impl CostModelFactory for F {
            fn optimization_model(&self) -> Box<dyn CostModel> {
                Box::new(PaperCost)
            }
        }
        let a = Arc::new(F);
        let spec_a = CostModelSpec::Custom(a.clone());
        assert_eq!(spec_a, CostModelSpec::Custom(a));
        assert_ne!(spec_a, CostModelSpec::Custom(Arc::new(F)));
        assert_eq!(format!("{spec_a:?}"), "Custom(..)");
    }
}
