//! # stoke
//!
//! A reproduction of **"Stochastic Superoptimization"** (Schkufza, Sharma,
//! Aiken — ASPLOS 2013): loop-free binary superoptimization formulated as
//! stochastic cost minimization and explored with a Metropolis–Hastings
//! sampler.
//!
//! The crate provides the search layer: test-case generation
//! ([`testcase`]), the cost function with the strict and improved equality
//! metrics ([`cost`]), the four proposal moves and the MCMC chain with
//! early-termination acceptance ([`mcmc`]), and the full
//! synthesis → optimization → validation → re-ranking pipeline of the
//! paper's Figure 9, driven through the session API ([`driver`]):
//! validated configuration ([`Config::builder`]), typed errors
//! ([`StokeError`]), wall-clock/proposal budgets with cancellation
//! ([`Budget`]), progress observers ([`SearchObserver`]), and a
//! multi-target batch entry point ([`Session::run_batch`]).
//!
//! The evaluation pipeline is pluggable at its two replaceable stages:
//! cost models implement [`CostModel`] (selected per search through
//! [`Config::cost_model`](config::Config::cost_model); the paper's metric
//! is [`PaperCost`]) and validation strategies implement [`Verifier`]
//! (installed with [`Session::with_verifier`]; the default [`Cascade`]
//! runs tests, then the symbolic validator with counterexample feedback).
//! Both evaluate rewrites through one execution engine: a rewrite decoded
//! once into a [`stoke_emu::PreparedProgram`] runs every test case in
//! lockstep over the batched structure-of-arrays state
//! ([`stoke_emu::BatchState`]). An MCMC chain keeps its rewrite's decoded
//! form in a [`stoke_emu::DecodeCache`] and re-decodes only the slots a
//! proposal touches. The plain interpreter
//! ([`stoke_emu::run_instrs`]) shares its instruction semantics and is the
//! differential oracle the engine is tested against. The execution and
//! verification substrates live in the companion crates `stoke-emu` and
//! `stoke-verify`.
//!
//! Security-aware search builds on the static analyses of the companion
//! `stoke-analysis` crate: inputs marked secret
//! ([`InputSpec::secret`](testcase::InputSpec::secret)) drive the
//! [`ConstantTimePenalty`] cost model and the [`LeakageCheck`] verifier
//! ([`VerifierSpec::LeakageCascade`]), which together steer the search
//! away from rewrites that leak secrets through timing side channels.
//!
//! ```
//! use stoke::{Config, Session, TargetSpec};
//! use stoke_x86::{Gpr, Program};
//!
//! // A clumsy `llvm -O0`-style computation of rax = rdi + rsi.
//! let target: Program = "
//!     movq rdi, rbx
//!     movq rbx, rax
//!     addq rsi, rax
//! ".parse().unwrap();
//! let spec = TargetSpec::with_gprs(target, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
//! let config = Config::builder()
//!     .ell(8)
//!     .num_testcases(8)
//!     .threads(1)
//!     .synthesis_iterations(1_000)
//!     .optimization_iterations(5_000)
//!     .build()
//!     .expect("valid configuration");
//! let result = Session::new(config).run(&spec).expect("search completes");
//! assert!(result.speedup() >= 1.0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod cost;
pub mod driver;
pub mod error;
pub mod mcmc;
pub mod model;
pub mod observer;
pub mod search;
mod telemetry;
pub mod testcase;
pub mod verifier;

pub use config::{Config, ConfigBuilder, EqMetric};
pub use cost::{CaseCost, CostFn, EvalScratch, EvalStats};
pub use driver::{Budget, BudgetClock, CancelToken, ChainControl, RunRequest, Session};
pub use error::{ConfigError, StokeError};
pub use mcmc::{
    Chain, ChainResult, MoveKind, MoveStats, Proposer, Rewrite, StopReason, TracePoint, Undo,
};
pub use model::{
    ConstantTimePenalty, CorrectnessOnly, Cost, CostModel, CostModelFactory, CostModelSpec,
    EvalContext, PaperCost,
};
pub use observer::{
    ChainProgress, ChainStats, NullObserver, Phase, SearchObserver, TeeObserver, ValidationVerdict,
};
pub use search::{SearchStats, StokeResult, Verification};
pub use testcase::{generate_testcases, InputKind, InputSpec, TargetSpec, TestSuite, Testcase};
pub use verifier::{
    Cascade, LeakageCheck, Symbolic, TestOnly, Verdict, Verifier, VerifierSpec, VerifyContext,
    VerifyStatus,
};
