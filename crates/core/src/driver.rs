//! The session-based search driver: validated configuration, typed
//! errors, time/iteration budgets with cancellation, observer hooks, and
//! a multi-target batch entry point.
//!
//! [`Session`] is the public front door to the Figure 9 pipeline: it can
//! bound a search by wall-clock time or proposal count ([`Budget`]),
//! cancel it from another thread ([`CancelToken`]), stream per-phase
//! progress ([`SearchObserver`]), schedule many targets across the thread
//! pool ([`Session::run_batch`]), and swap the evaluation pipeline's
//! stages: the cost model through the configuration
//! ([`Config::cost_model`](crate::config::Config::cost_model)) and the
//! validation strategy through [`Session::with_verifier`].

use crate::config::Config;
use crate::cost::CostFn;
use crate::cost::EvalStats;
use crate::error::StokeError;
use crate::mcmc::{Chain, ChainResult, MoveStats, Rewrite};
use crate::observer::{
    ChainProgress, ChainStats, NullObserver, Phase, SearchObserver, TeeObserver,
};
use crate::search::{SearchStats, StokeResult, Verification};
use crate::telemetry::MetricsObserver;
use crate::testcase::{generate_testcases, TargetSpec, TestSuite};
use crate::verifier::{
    Cascade, LeakageCheck, Symbolic, TestOnly, Verifier, VerifierSpec, VerifyContext, VerifyStatus,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stoke_emu::TimingModel;
use stoke_obs::{MetricsRegistry, TraceSink};
use stoke_x86::Program;

static NULL_OBSERVER: NullObserver = NullObserver;
static DEFAULT_VERIFIER: Cascade<Symbolic> = Cascade::new(Symbolic);
static TEST_ONLY_VERIFIER: TestOnly = TestOnly;
static LEAKAGE_VERIFIER: LeakageCheck<Cascade<Symbolic>> =
    LeakageCheck::new(Cascade::new(Symbolic));

/// A shared cancellation flag: clone it, hand it to another thread, and
/// [`cancel`](CancelToken::cancel) stops every chain of the session that
/// owns it at the next proposal boundary.
///
/// Cancellation is permanent: the flag never resets, so a cancelled
/// [`Session`] (or [`Budget`]) stays cancelled — including across
/// subsequent `run` calls. To search again after a cancellation, build a
/// new session with a fresh budget.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; takes effect at each chain's next
    /// proposal boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Limits on how much work a [`Session`] run may do: a maximum number of
/// proposals, a wall-clock duration, and a [`CancelToken`] — any
/// combination, checked before every MCMC proposal.
///
/// ```
/// use std::time::Duration;
/// use stoke::Budget;
/// let budget = Budget::unlimited()
///     .with_max_proposals(1_000_000)
///     .with_wall_clock(Duration::from_secs(30));
/// let token = budget.cancel_token();
/// assert!(!token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_proposals: Option<u64>,
    wall_clock: Option<Duration>,
    cancel: CancelToken,
}

impl Budget {
    /// No limits beyond the per-phase iteration counts in [`Config`].
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Cap the total number of proposals evaluated across every chain and
    /// phase of a run (and across every target of a batch).
    pub fn with_max_proposals(mut self, max: u64) -> Budget {
        self.max_proposals = Some(max);
        self
    }

    /// Cap the wall-clock duration of a run. The clock starts when
    /// [`Session::run`] or [`Session::run_batch`] is called.
    pub fn with_wall_clock(mut self, limit: Duration) -> Budget {
        self.wall_clock = Some(limit);
        self
    }

    /// The budget's cancellation token (cloning shares the flag).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// A copy of this budget's limits with a *fresh* cancellation token.
    ///
    /// `Clone` shares the token (cancelling one clone cancels them all);
    /// `detached` is for using a budget as a template — e.g. a service
    /// stamping out per-job budgets that must be cancellable
    /// independently.
    pub fn detached(&self) -> Budget {
        Budget {
            max_proposals: self.max_proposals,
            wall_clock: self.wall_clock,
            cancel: CancelToken::new(),
        }
    }

    /// Cancel any run governed by this budget.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }
}

/// A running budget: the deadline and proposal counter shared by every
/// chain of one [`Session::run`] / [`Session::run_batch`] invocation.
///
/// Created with [`BudgetClock::start`] when the run begins; chains consult
/// it through [`ChainControl`] before each proposal.
#[derive(Debug)]
pub struct BudgetClock {
    deadline: Option<Instant>,
    max_proposals: Option<u64>,
    used_proposals: AtomicU64,
    cancel: CancelToken,
    tripped: AtomicBool,
}

impl BudgetClock {
    /// Start the clock on a budget: the wall-clock deadline is measured
    /// from this call.
    pub fn start(budget: &Budget) -> BudgetClock {
        BudgetClock {
            deadline: budget.wall_clock.map(|d| Instant::now() + d),
            max_proposals: budget.max_proposals,
            used_proposals: AtomicU64::new(0),
            cancel: budget.cancel.clone(),
            tripped: AtomicBool::new(false),
        }
    }

    /// Account for one proposal; `false` means the budget is exhausted (or
    /// cancelled) and the chain must stop.
    pub fn admit_proposal(&self) -> bool {
        if self.cancel.is_cancelled() {
            self.tripped.store(true, Ordering::Relaxed);
            return false;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.tripped.store(true, Ordering::Relaxed);
                return false;
            }
        }
        if let Some(max) = self.max_proposals {
            if self.used_proposals.fetch_add(1, Ordering::Relaxed) >= max {
                self.tripped.store(true, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    /// Whether the run was cut short: a chain was denied a proposal
    /// (sticky), the run was cancelled, or the deadline has passed.
    ///
    /// Deliberately *not* keyed on the proposal counter alone: a run whose
    /// chains completed using exactly `max_proposals` proposals finished,
    /// it was not interrupted — any phase that still needs chain work will
    /// be denied its first proposal and trip the flag then.
    pub fn exhausted(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
            || self.cancel.is_cancelled()
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Per-run options beyond the target itself, consumed by
/// [`Session::run_request`]: an existing test suite to reuse, a warm-start
/// program to seed the synthesis chains, and a target index for tagging
/// observer events. The run is bounded by the session's own budget
/// ([`Session::with_budget`]).
///
/// ```
/// use stoke::RunRequest;
/// let req = RunRequest::new().for_target(3);
/// # let _ = req;
/// ```
#[derive(Default)]
pub struct RunRequest<'a> {
    suite: Option<TestSuite>,
    warm_start: Option<&'a Program>,
    target: usize,
}

impl<'a> RunRequest<'a> {
    /// A request with no options: equivalent to [`Session::run`].
    pub fn new() -> RunRequest<'a> {
        RunRequest::default()
    }

    /// Reuse an existing test suite (the `Testcases` phase is skipped).
    pub fn with_suite(mut self, suite: TestSuite) -> RunRequest<'a> {
        self.suite = Some(suite);
        self
    }

    /// Seed every synthesis chain from `program` instead of a random
    /// starting point (§4.4's "code sequence believed to be similar to the
    /// target" — e.g. a cached rewrite of a near-identical submission).
    /// The chains still diverge through their per-chain seeds.
    pub fn warm_start(mut self, program: &'a Program) -> RunRequest<'a> {
        self.warm_start = Some(program);
        self
    }

    /// Tag observer events with a target/job index (`0` by default).
    pub fn for_target(mut self, target: usize) -> RunRequest<'a> {
        self.target = target;
        self
    }
}

/// Per-chain execution context threaded into
/// [`Chain::run_controlled`](crate::mcmc::Chain::run_controlled): which
/// pipeline phase and chain the run belongs to, the observer to report
/// progress to, and the budget clock to consult before each proposal.
pub struct ChainControl<'a> {
    target: usize,
    phase: Phase,
    chain: usize,
    observer: &'a dyn SearchObserver,
    clock: Option<&'a BudgetClock>,
    progress_every: u64,
}

impl<'a> ChainControl<'a> {
    /// A control for one chain of `phase`, reporting to `observer`.
    pub fn new(phase: Phase, chain: usize, observer: &'a dyn SearchObserver) -> ChainControl<'a> {
        ChainControl {
            target: 0,
            phase,
            chain,
            observer,
            clock: None,
            progress_every: 0,
        }
    }

    /// No budget, no observer: the control used by the plain
    /// [`Chain::run`](crate::mcmc::Chain::run).
    pub fn unbounded() -> ChainControl<'static> {
        ChainControl::new(Phase::Synthesis, 0, &NULL_OBSERVER)
    }

    /// Tag progress reports with a batch target index.
    pub fn for_target(mut self, target: usize) -> ChainControl<'a> {
        self.target = target;
        self
    }

    /// Consult `clock` before each proposal (the preemption point).
    pub fn with_clock(mut self, clock: &'a BudgetClock) -> ChainControl<'a> {
        self.clock = Some(clock);
        self
    }

    /// Report progress to the observer every `n` proposals (`0` disables
    /// progress reports).
    pub fn with_progress_every(mut self, n: u64) -> ChainControl<'a> {
        self.progress_every = n;
        self
    }

    pub(crate) fn admit_proposal(&self) -> bool {
        self.clock.is_none_or(BudgetClock::admit_proposal)
    }

    pub(crate) fn maybe_report(
        &self,
        proposals: u64,
        make: impl FnOnce(usize, Phase, usize) -> ChainProgress,
    ) {
        if self.progress_every > 0 && proposals.is_multiple_of(self.progress_every) {
            self.observer
                .on_chain_progress(&make(self.target, self.phase, self.chain));
        }
    }

    pub(crate) fn report_end(
        &self,
        proposals: u64,
        accepted: u64,
        moves: MoveStats,
        eval: EvalStats,
    ) {
        self.observer.on_chain_end(&ChainStats {
            target: self.target,
            phase: self.phase,
            chain: self.chain,
            proposals,
            accepted,
            moves,
            eval,
        });
    }
}

/// The session-based driver for the full STOKE pipeline (Figure 9).
///
/// A session owns a validated-on-use [`Config`], an optional [`Budget`],
/// and an optional [`SearchObserver`]; it can run single targets
/// ([`Session::run`]) or whole workloads ([`Session::run_batch`]), and is
/// reusable: each run generates its own test suite and starts a fresh
/// budget clock (deadline and proposal counter). Cancellation is the
/// exception — a [`CancelToken`], once cancelled, stays cancelled for
/// every later run of the same session.
///
/// ```
/// use stoke::{Config, Session, TargetSpec};
/// use stoke_x86::{Gpr, Program};
///
/// let target: Program = "
///     movq rdi, rbx
///     movq rbx, rax
///     addq rsi, rax
/// ".parse().unwrap();
/// let spec = TargetSpec::with_gprs(target, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
/// let config = Config::builder()
///     .ell(8)
///     .num_testcases(8)
///     .threads(1)
///     .synthesis_iterations(1_000)
///     .optimization_iterations(5_000)
///     .build()
///     .unwrap();
/// let result = Session::new(config).run(&spec).unwrap();
/// assert!(result.speedup() >= 1.0);
/// ```
pub struct Session {
    config: Config,
    budget: Budget,
    observer: Option<Arc<dyn SearchObserver>>,
    verifier: Option<Arc<dyn Verifier>>,
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<dyn TraceSink>>,
}

impl Session {
    /// Create a session. The configuration is validated on each run (the
    /// struct's fields are still `pub`, so it can be mutated after
    /// construction).
    pub fn new(config: Config) -> Session {
        Session {
            config,
            budget: Budget::unlimited(),
            observer: None,
            verifier: None,
            metrics: None,
            trace: None,
        }
    }

    /// Bound the session's runs by `budget`.
    pub fn with_budget(mut self, budget: Budget) -> Session {
        self.budget = budget;
        self
    }

    /// Stream pipeline events to `observer`.
    pub fn with_observer(mut self, observer: Arc<dyn SearchObserver>) -> Session {
        self.observer = Some(observer);
        self
    }

    /// Record search metrics — per-phase wall time, proposals and
    /// acceptances split by move kind, evaluation work, validator
    /// verdicts, search outcomes — into `registry`. The registry is shared:
    /// several sessions (or a whole service) can feed one registry, and
    /// callers export it with
    /// [`snapshot()`](stoke_obs::MetricsRegistry::snapshot) or
    /// [`render_text()`](stoke_obs::MetricsRegistry::render_text).
    /// The metrics are a fold of the run's trace records (the ones
    /// [`with_trace`](Session::with_trace) streams), so every number the
    /// registry shows is also a field of some record.
    ///
    /// Attaching metrics never changes search decisions: the instrumented
    /// callbacks draw no randomness and feed nothing back into the chains.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Session {
        self.metrics = Some(registry);
        self
    }

    /// Stream structured JSONL span/event records describing the run to
    /// `sink` (see [`stoke_obs::JsonlSink`] /
    /// [`stoke_obs::RingSink`]). Like metrics, tracing is passive and
    /// cannot perturb the search.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Session {
        self.trace = Some(sink);
        self
    }

    /// Verify surviving candidates with `verifier` instead of the default
    /// [`Cascade`] (test suite, then symbolic validation with
    /// counterexample feedback, then a re-test on the refined suite).
    pub fn with_verifier(mut self, verifier: Arc<dyn Verifier>) -> Session {
        self.verifier = Some(verifier);
        self
    }

    /// The session's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The session's budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// A token that cancels this session's runs from any thread.
    /// Cancellation is permanent for the session (see [`CancelToken`]).
    pub fn cancel_token(&self) -> CancelToken {
        self.budget.cancel_token()
    }

    fn observer(&self) -> &dyn SearchObserver {
        match &self.observer {
            Some(o) => o.as_ref(),
            None => &NULL_OBSERVER,
        }
    }

    fn verifier(&self) -> &dyn Verifier {
        // An explicit with_verifier override wins; otherwise the config's
        // spec selects among the built-ins.
        match &self.verifier {
            Some(v) => v.as_ref(),
            None => match &self.config.verifier {
                VerifierSpec::Cascade => &DEFAULT_VERIFIER,
                VerifierSpec::TestOnly => &TEST_ONLY_VERIFIER,
                VerifierSpec::LeakageCascade => &LEAKAGE_VERIFIER,
            },
        }
    }

    fn progress_every(&self) -> u64 {
        if self.observer.is_none() && self.metrics.is_none() && self.trace.is_none() {
            return 0;
        }
        // Aim for a handful of reports per chain without flooding slow
        // observers on long runs.
        (self
            .config
            .synthesis_iterations
            .max(self.config.optimization_iterations)
            / 8)
        .max(1)
    }

    /// Run the full pipeline on one target, generating test cases first
    /// (the instrumentation step of Figure 9).
    ///
    /// # Errors
    /// - [`StokeError::InvalidConfig`] if the configuration violates an
    ///   invariant;
    /// - [`StokeError::EmptyTarget`] if the target has no instructions;
    /// - [`StokeError::BudgetExhausted`] if the budget ran out first, with
    ///   the best partial result assembled from the work done so far.
    pub fn run(&self, spec: &TargetSpec) -> Result<StokeResult, StokeError> {
        self.run_request(spec, RunRequest::new())
    }

    /// Run the full pipeline on one target with explicit per-run options:
    /// a reused test suite, a warm-start program seeding the synthesis
    /// chains, and an observer target index. See [`RunRequest`].
    ///
    /// # Errors
    /// As for [`Session::run`].
    pub fn run_request(
        &self,
        spec: &TargetSpec,
        request: RunRequest<'_>,
    ) -> Result<StokeResult, StokeError> {
        let clock = BudgetClock::start(&self.budget);
        self.run_target(
            spec,
            request.suite,
            request.warm_start,
            &clock,
            request.target,
        )
    }

    /// Run the full pipeline on every target, scheduling them across the
    /// thread pool (`config.threads` targets in flight; each target then
    /// runs its own chains as configured). Results come back in input
    /// order, one `Result` per target, so one bad target does not sink the
    /// workload. The budget — including its wall clock, started once at
    /// the call — is shared by the whole batch.
    pub fn run_batch(&self, specs: &[TargetSpec]) -> Vec<Result<StokeResult, StokeError>> {
        if specs.is_empty() {
            return Vec::new();
        }
        let clock = BudgetClock::start(&self.budget);
        let workers = self.config.threads.max(1).min(specs.len());
        if workers == 1 {
            return specs
                .iter()
                .enumerate()
                .map(|(i, spec)| self.run_target(spec, None, None, &clock, i))
                .collect();
        }
        let slots: Vec<Mutex<Option<Result<StokeResult, StokeError>>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let result = self.run_target(spec, None, None, &clock, i);
                    *slots[i].lock().expect("batch result lock") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("batch result lock")
                    .expect("every batch slot is filled")
            })
            .collect()
    }

    fn run_target(
        &self,
        spec: &TargetSpec,
        suite: Option<TestSuite>,
        warm_start: Option<&Program>,
        clock: &BudgetClock,
        target: usize,
    ) -> Result<StokeResult, StokeError> {
        let t0 = Instant::now();
        self.config.validate()?;
        if spec.program.is_empty() {
            return Err(StokeError::EmptyTarget);
        }
        // When metrics or tracing are attached, fan callbacks out to both
        // the caller's observer and a per-run telemetry adapter. Telemetry
        // is strictly passive — it draws no randomness and feeds nothing
        // back — so fixed-seed runs stay bit-identical with it attached.
        let telemetry;
        let tee;
        let observer: &dyn SearchObserver = if self.metrics.is_some() || self.trace.is_some() {
            telemetry = MetricsObserver::from_parts(self.metrics.clone(), self.trace.clone());
            tee = TeeObserver::new(self.observer(), &telemetry);
            &tee
        } else {
            self.observer()
        };
        let suite = match suite {
            Some(suite) => suite,
            None => {
                observer.on_phase_start(target, Phase::Testcases);
                generate_testcases(spec, self.config.num_testcases, self.config.seed)
            }
        };
        let mut run = TargetRun {
            config: &self.config,
            spec,
            suite,
            observer,
            verifier: self.verifier(),
            clock,
            target,
            warm_start,
            progress_every: self.progress_every(),
        };
        let mut out = run.pipeline();
        // Stamp the per-target wall clock on whichever way the run ended,
        // so batch callers see per-job cost and not just phase aggregates.
        let elapsed = t0.elapsed();
        match &mut out {
            Ok(result) => result.stats.total_time = elapsed,
            Err(StokeError::BudgetExhausted { partial }) => partial.stats.total_time = elapsed,
            Err(_) => {}
        }
        // Announce the end of the run (complete or budget-exhausted) after
        // the total time is stamped, so observers see final stats.
        match &out {
            Ok(result) => observer.on_search_end(target, result),
            Err(StokeError::BudgetExhausted { partial }) => observer.on_search_end(target, partial),
            Err(_) => {}
        }
        out
    }
}

/// One target's trip through the pipeline: the chains, the budget clock
/// and observer hooks, and the verification stage.
struct TargetRun<'a> {
    config: &'a Config,
    spec: &'a TargetSpec,
    suite: TestSuite,
    observer: &'a dyn SearchObserver,
    verifier: &'a dyn Verifier,
    clock: &'a BudgetClock,
    target: usize,
    warm_start: Option<&'a Program>,
    progress_every: u64,
}

impl TargetRun<'_> {
    fn make_cost_fn(&self) -> CostFn {
        CostFn::new(
            self.config.clone(),
            self.suite.clone(),
            self.spec.program.static_latency(),
        )
    }

    fn control(&self, phase: Phase, chain: usize) -> ChainControl<'_> {
        ChainControl::new(phase, chain, self.observer)
            .for_target(self.target)
            .with_clock(self.clock)
            .with_progress_every(self.progress_every)
    }

    /// Run one synthesis chain (§4.4: random starting point, correctness
    /// term only — unless the run carries a warm start, in which case every
    /// chain begins from that program and diverges through its seed).
    fn synthesis_chain(&self, seed: u64, iterations: u64, chain_idx: usize) -> ChainResult {
        let mut cost_fn = self.make_cost_fn();
        let mut chain = Chain::new(&mut cost_fn, seed, false);
        let start = match self.warm_start {
            Some(program) => Rewrite::from_program(program, self.config.ell),
            None => chain.proposer_mut().random_rewrite(),
        };
        chain.run_controlled(
            start,
            iterations,
            &self.control(Phase::Synthesis, chain_idx),
        )
    }

    /// Run one optimization chain (§4.4: starts from a code sequence known
    /// or believed to be equivalent to the target; both cost terms).
    fn optimization_chain(
        &self,
        start: &Program,
        seed: u64,
        iterations: u64,
        chain_idx: usize,
    ) -> ChainResult {
        let mut cost_fn = self.make_cost_fn();
        let mut chain = Chain::new(&mut cost_fn, seed, true);
        let start = Rewrite::from_program(start, self.config.ell);
        chain.run_controlled(
            start,
            iterations,
            &self.control(Phase::Optimization, chain_idx),
        )
    }

    /// Run synthesis on `threads` parallel chains and return every
    /// zero-cost rewrite found.
    fn parallel_synthesis(&self, stats: &mut SearchStats) -> Vec<Program> {
        let t0 = Instant::now();
        let threads = self.config.threads.max(1);
        let iterations = self.config.synthesis_iterations;
        let results: Vec<ChainResult> = if threads == 1 {
            vec![self.synthesis_chain(self.config.seed ^ 0xa5a5, iterations, 0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|i| {
                        let seed = self.config.seed ^ (0xa5a5 + i as u64 * 7919);
                        scope.spawn(move || self.synthesis_chain(seed, iterations, i))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("synthesis thread panicked"))
                    .collect()
            })
        };
        stats.synthesis_time += t0.elapsed();
        let mut found = Vec::new();
        for r in results {
            stats.synthesis_proposals += r.proposals;
            stats.testcases_run += r.testcases_run;
            stats.moves.merge(&r.moves);
            if r.best_cost == 0.0 {
                stats.synthesis_succeeded = true;
                found.push(r.best.to_program());
            }
        }
        found
    }

    /// Run optimization chains from each starting point in parallel and
    /// return the candidates sorted by cost (best first).
    fn parallel_optimization(
        &self,
        starts: &[Program],
        stats: &mut SearchStats,
    ) -> Vec<(Program, f64)> {
        let t0 = Instant::now();
        let iterations = self.config.optimization_iterations;
        let results: Vec<ChainResult> = if starts.len() <= 1 || self.config.threads <= 1 {
            starts
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    self.optimization_chain(s, self.config.seed ^ (17 + i as u64), iterations, i)
                })
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = starts
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let seed = self.config.seed ^ (17 + i as u64 * 104729);
                        scope.spawn(move || self.optimization_chain(s, seed, iterations, i))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("optimization thread panicked"))
                    .collect()
            })
        };
        stats.optimization_time += t0.elapsed();
        // Re-rank only candidates that passed every test case (`eq' == 0`),
        // as the paper does: a near-miss rewrite can undercut the target on
        // *total* cost, so a chain's overall best may be incorrect and would
        // then be discarded by validation, leaving nothing to re-rank.
        // Chains with no correct rewrite contribute their overall best only
        // when NO chain found a correct one — a cheap incorrect candidate
        // must not shrink the re-rank margin and starve correct candidates
        // from other chains.
        let mut candidates = Vec::new();
        let mut fallbacks = Vec::new();
        for r in results {
            stats.optimization_proposals += r.proposals;
            stats.testcases_run += r.testcases_run;
            stats.moves.merge(&r.moves);
            match r.best_correct {
                Some(b) => candidates.push((b.to_program(), r.best_correct_cost)),
                None => fallbacks.push((r.best.to_program(), r.best_cost)),
            }
        }
        if candidates.is_empty() {
            candidates = fallbacks;
        }
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        candidates
    }

    /// Run the complete pipeline of Figure 9 and return the best verified
    /// rewrite, or [`StokeError::BudgetExhausted`] carrying the best
    /// partial result if the budget ran out mid-pipeline.
    fn pipeline(&mut self) -> Result<StokeResult, StokeError> {
        let mut stats = SearchStats::default();
        if self.clock.exhausted() {
            return Err(self.budget_exhausted(Vec::new(), stats));
        }
        // 1. Synthesis from random starting points.
        self.observer.on_phase_start(self.target, Phase::Synthesis);
        let synthesized = self.parallel_synthesis(&mut stats);
        if self.clock.exhausted() {
            // Synthesized rewrites are zero-cost, i.e. correct on every
            // test case run so far; rank them without the (unbounded)
            // symbolic stage.
            let candidates = synthesized.into_iter().map(|p| (p, 0.0)).collect();
            return Err(self.budget_exhausted(candidates, stats));
        }
        // 2. Optimization from the target and from every synthesized
        //    candidate (§4.4, §4.7: even when synthesis fails, optimization
        //    proceeds from the region occupied by the target).
        self.observer
            .on_phase_start(self.target, Phase::Optimization);
        let mut starts = vec![self.spec.program.clone()];
        starts.extend(synthesized);
        let candidates = self.parallel_optimization(&starts, &mut stats);
        if self.clock.exhausted() {
            return Err(self.budget_exhausted(candidates, stats));
        }

        // 3. Keep the candidates whose cost is within the re-rank margin of
        //    the best, verify them, and re-rank the survivors with the
        //    timing model (the paper's actual-runtime re-ranking).
        Ok(self.rerank(candidates, stats, true))
    }

    /// Wrap the partial result of an interrupted run. Validation is
    /// skipped — the symbolic stage is not preemptible and the budget is
    /// already gone — so surviving candidates are at most
    /// [`Verification::TestsOnly`].
    fn budget_exhausted(
        &mut self,
        candidates: Vec<(Program, f64)>,
        stats: SearchStats,
    ) -> StokeError {
        StokeError::BudgetExhausted {
            partial: Box::new(self.rerank(candidates, stats, false)),
        }
    }

    /// The re-rank stage: filter candidates to the margin window, hand
    /// each to the verifier (the session's configured one, or [`TestOnly`]
    /// when the budget ran out — the symbolic stage is not preemptible),
    /// and pick the fastest survivor under the timing model. Announces
    /// [`Phase::Validation`] itself so candidate/validation events are
    /// phase-scoped on the budget-exhausted path too.
    fn rerank(
        &mut self,
        candidates: Vec<(Program, f64)>,
        mut stats: SearchStats,
        symbolic: bool,
    ) -> StokeResult {
        self.observer.on_phase_start(self.target, Phase::Validation);
        let timing = TimingModel::default();
        let target_cycles = timing.cycles(&self.spec.program);
        let best_cost = candidates.first().map(|(_, c)| *c).unwrap_or(f64::INFINITY);
        let margin = best_cost.max(1.0) * self.config.rerank_margin;
        let verifier: &dyn Verifier = if symbolic {
            self.verifier
        } else {
            &TEST_ONLY_VERIFIER
        };
        let mut verified: Vec<(Program, u64, Verification)> = Vec::new();
        let mut testcase_clean: Vec<(Program, u64, Verification)> = Vec::new();
        for (program, cost) in candidates.into_iter().filter(|(_, c)| *c <= margin) {
            self.observer.on_candidate(self.target, &program, cost);
            let verdict = {
                let mut ctx = VerifyContext {
                    spec: self.spec,
                    suite: &mut self.suite,
                    config: self.config,
                    stats: &mut stats,
                    observer: self.observer,
                    target: self.target,
                };
                verifier.verify(&program, &mut ctx)
            };
            let cycles = timing.cycles(&program);
            match verdict.status {
                VerifyStatus::Proven => verified.push((program, cycles, Verification::Proven)),
                VerifyStatus::TestsPassed => {
                    testcase_clean.push((program, cycles, Verification::TestsOnly))
                }
                VerifyStatus::Refuted => {}
            }
        }
        verified.sort_by_key(|(_, cycles, _)| *cycles);
        testcase_clean.sort_by_key(|(_, cycles, _)| *cycles);

        let (rewrite, rewrite_cycles, verification) = verified
            .into_iter()
            .chain(testcase_clean)
            .next()
            .unwrap_or_else(|| {
                (
                    self.spec.program.clone(),
                    target_cycles,
                    Verification::TargetReturned,
                )
            });

        // Optionally strip statically dead instructions from the reported
        // rewrite (never from a returned target: it is the user's code).
        let (rewrite, rewrite_cycles) =
            if self.config.strip_dead_code && verification != Verification::TargetReturned {
                let stripped = self.strip_dead_code(rewrite);
                let cycles = timing.cycles(&stripped);
                (stripped, cycles)
            } else {
                (rewrite, rewrite_cycles)
            };

        StokeResult {
            target_latency: self.spec.program.static_latency(),
            rewrite_latency: rewrite.static_latency(),
            target_cycles,
            rewrite_cycles,
            rewrite,
            verification,
            stats,
        }
    }

    /// Remove instructions whose results cannot reach the live-out
    /// interface, iterating to a fixpoint (removing one instruction can
    /// kill the last use of another). Stores are never reported dead, so
    /// stripping cannot change the compared memory image; as a belt the
    /// stripped program is kept only if it still passes every test case.
    fn strip_dead_code(&self, program: Program) -> Program {
        let mut stripped = program.clone();
        loop {
            let dead = stoke_x86::flow::dead_instructions(&stripped, &self.spec.live_out);
            if dead.is_empty() {
                break;
            }
            stripped = stripped
                .iter()
                .enumerate()
                .filter(|(i, _)| !dead.contains(i))
                .map(|(_, instr)| *instr)
                .collect();
        }
        if stripped.len() == program.len() {
            return program;
        }
        let mut cost_fn = self.make_cost_fn();
        let instrs: Vec<_> = stripped.iter().cloned().collect();
        if cost_fn.eq_prime(&instrs) == 0 {
            stripped
        } else {
            program
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigBuilder;
    use crate::error::ConfigError;
    use stoke_obs::{RingSink, TraceRecord, Value};
    use stoke_x86::Gpr;

    fn quick_config() -> Config {
        Config {
            ell: 8,
            num_testcases: 8,
            synthesis_iterations: 5_000,
            optimization_iterations: 20_000,
            threads: 1,
            ..Config::default()
        }
    }

    /// A deliberately clumsy target: rax = rdi + rsi computed through a
    /// pointless register shuffle (llvm -O0 flavour).
    fn clumsy_add() -> TargetSpec {
        let program: Program = "
            movq rdi, rbx
            movq rbx, rcx
            movq rcx, rax
            addq rsi, rax
            movq rax, rbx
            movq rbx, rax
        "
        .parse()
        .unwrap();
        TargetSpec::with_gprs(program, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax])
    }

    #[test]
    fn optimization_shortens_clumsy_target() {
        let session = Session::new(quick_config());
        let result = session.run(&clumsy_add()).expect("run succeeds");
        assert!(
            result.rewrite_latency <= result.target_latency,
            "rewrite ({}) must not be slower than target ({})",
            result.rewrite_latency,
            result.target_latency
        );
        assert!(result.speedup() >= 1.0);
        // Whatever came back must still be correct on fresh test cases.
        let fresh = generate_testcases(&clumsy_add(), 16, 999);
        let mut cf = CostFn::new(quick_config(), fresh, 0);
        let instrs: Vec<_> = result.rewrite.iter().cloned().collect();
        assert_eq!(
            cf.eq_prime(&instrs),
            0,
            "returned rewrite fails fresh test cases"
        );
    }

    #[test]
    fn strip_dead_code_removes_transitively_dead_instructions() {
        let spec = clumsy_add();
        let config = quick_config();
        let suite = generate_testcases(&spec, 8, config.seed);
        let clock = BudgetClock::start(&Budget::unlimited());
        let run = TargetRun {
            config: &config,
            spec: &spec,
            suite,
            observer: &NULL_OBSERVER,
            verifier: &DEFAULT_VERIFIER,
            clock: &clock,
            target: 0,
            warm_start: None,
            progress_every: 0,
        };
        // The rbx tail is dead: the second mov feeds only the third, and
        // neither reaches rax. Removing the third makes the second dead
        // too, so the strip must iterate to a fixpoint.
        let bloated: Program = "
            movq rdi, rax
            addq rsi, rax
            movq rax, rbx
            addq rdi, rbx
        "
        .parse()
        .unwrap();
        let minimal: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        assert_eq!(run.strip_dead_code(bloated), minimal);
        // An already-minimal program comes back untouched.
        assert_eq!(run.strip_dead_code(minimal.clone()), minimal);
    }

    #[test]
    fn strip_dead_code_config_keeps_results_correct_and_no_longer() {
        let spec = clumsy_add();
        let plain = Session::new(quick_config()).run(&spec).unwrap();
        let config = Config {
            strip_dead_code: true,
            ..quick_config()
        };
        let stripped = Session::new(config).run(&spec).unwrap();
        assert!(stripped.rewrite.len() <= plain.rewrite.len());
        let fresh = generate_testcases(&spec, 16, 31337);
        let mut cf = CostFn::new(quick_config(), fresh, 0);
        let instrs: Vec<_> = stripped.rewrite.iter().cloned().collect();
        assert_eq!(cf.eq_prime(&instrs), 0);
    }

    #[test]
    fn result_is_deterministic_for_fixed_seed() {
        let a = Session::new(quick_config()).run(&clumsy_add()).unwrap();
        let b = Session::new(quick_config()).run(&clumsy_add()).unwrap();
        assert_eq!(a.rewrite, b.rewrite);
    }

    #[test]
    fn validation_counterexample_refines_suite() {
        // Use a single test case so a wrong rewrite can slip through, then
        // check the default verifier caught it and added a counterexample.
        let config = Config {
            num_testcases: 1,
            ..quick_config()
        };
        let spec = clumsy_add();
        let mut suite = generate_testcases(&spec, 1, config.seed);
        let before = suite.len();
        let mut stats = SearchStats::default();
        let verifier = &DEFAULT_VERIFIER;
        // This rewrite is actually correct, so validation must succeed and
        // must not add counterexamples.
        let right: Program = "movq rdi, rax\naddq rsi, rax\naddq 0, rax".parse().unwrap();
        let mut ctx = VerifyContext {
            spec: &spec,
            suite: &mut suite,
            config: &config,
            stats: &mut stats,
            observer: &NULL_OBSERVER,
            target: 0,
        };
        assert!(verifier.verify(&right, &mut ctx).accepted());
        assert_eq!(suite.len(), before);
        // A genuinely wrong rewrite produces a counterexample. (It is wrong
        // on *almost* every input, so the single generated test case
        // refutes it before the symbolic stage; verify it directly.)
        let broken: Program = "movq rdi, rax\naddq 1, rax".parse().unwrap();
        let mut ctx = VerifyContext {
            spec: &spec,
            suite: &mut suite,
            config: &config,
            stats: &mut stats,
            observer: &NULL_OBSERVER,
            target: 0,
        };
        let verdict = crate::verifier::Symbolic.verify(&broken, &mut ctx);
        assert!(!verdict.accepted());
        assert_eq!(verdict.counterexamples.len(), 1);
        assert_eq!(suite.len(), before + 1);
        assert_eq!(stats.counterexamples, 1);
    }

    #[test]
    fn session_rejects_invalid_config() {
        let config = Config {
            threads: 0,
            ..quick_config()
        };
        match Session::new(config).run(&clumsy_add()) {
            Err(StokeError::InvalidConfig(ConfigError::ZeroThreads)) => {}
            other => panic!("expected InvalidConfig(ZeroThreads), got {other:?}"),
        }
    }

    #[test]
    fn session_rejects_empty_target() {
        let spec = TargetSpec::with_gprs(Program::new(), &[], &[Gpr::Rax]);
        assert!(matches!(
            Session::new(quick_config()).run(&spec),
            Err(StokeError::EmptyTarget)
        ));
    }

    #[test]
    fn wall_clock_budget_interrupts_synthesis() {
        // A synthesis budget far beyond what 50ms can evaluate: the
        // deadline must preempt the chain mid-phase and return a partial
        // result rather than running to completion.
        let config = ConfigBuilder::from_config(quick_config())
            .synthesis_iterations(u64::MAX / 2)
            .optimization_iterations(1_000)
            .build()
            .unwrap();
        let session = Session::new(config)
            .with_budget(Budget::unlimited().with_wall_clock(Duration::from_millis(50)));
        let t0 = Instant::now();
        let result = session.run(&clumsy_add());
        let elapsed = t0.elapsed();
        match result {
            Err(StokeError::BudgetExhausted { partial }) => {
                // The chain really started (proposals were evaluated) and
                // really stopped early (nowhere near the huge budget).
                assert!(partial.stats.synthesis_proposals > 0);
                assert!(partial.stats.synthesis_proposals < 1_000_000_000);
                // No symbolic stage ran on the partial path.
                assert_eq!(partial.stats.validations, 0);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(30),
            "deadline did not preempt the chain (took {elapsed:?})"
        );
    }

    #[test]
    fn proposal_budget_interrupts_the_search() {
        let session =
            Session::new(quick_config()).with_budget(Budget::unlimited().with_max_proposals(500));
        match session.run(&clumsy_add()) {
            Err(StokeError::BudgetExhausted { partial }) => {
                let total =
                    partial.stats.synthesis_proposals + partial.stats.optimization_proposals;
                assert!(total <= 500, "budget overshot: {total} proposals");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn pre_cancelled_session_does_no_work() {
        let session = Session::new(quick_config());
        session.cancel_token().cancel();
        match session.run(&clumsy_add()) {
            Err(StokeError::BudgetExhausted { partial }) => {
                assert_eq!(partial.stats.synthesis_proposals, 0);
                assert_eq!(partial.verification, Verification::TargetReturned);
                assert_eq!(partial.rewrite, clumsy_add().program);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // Cancellation is documented as permanent: a second run of the
        // same session stays cancelled.
        assert!(matches!(
            session.run(&clumsy_add()),
            Err(StokeError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn observer_sees_phases_in_pipeline_order() {
        let ring = Arc::new(RingSink::new(1 << 16));
        let session = Session::new(quick_config()).with_trace(ring.clone());
        session.run(&clumsy_add()).expect("run succeeds");
        assert_eq!(ring.dropped(), 0);
        let records: Vec<TraceRecord> = ring.records().into_iter().map(|(_, r)| r).collect();
        let phases: Vec<&str> = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::SpanStart { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            phases,
            [
                "phase:testcases",
                "phase:synthesis",
                "phase:optimization",
                "phase:validation"
            ]
        );
        // The optimization phase produced at least one candidate event.
        let is_event = |r: &TraceRecord, want: &str| matches!(r, TraceRecord::Event { name, .. } if name == want);
        assert!(records.iter().any(|r| is_event(r, "candidate")));
        // Progress reports carry the right phase tags.
        for record in records.iter().filter(|r| is_event(r, "progress")) {
            assert!(matches!(
                record.field("phase"),
                Some(Value::Str(p)) if p == "synthesis" || p == "optimization"
            ));
            match (record.field("proposals"), record.field("iterations")) {
                (Some(Value::U64(proposals)), Some(Value::U64(iterations))) => {
                    assert!(proposals <= iterations)
                }
                other => panic!("progress without proposal counts: {other:?}"),
            }
        }
    }

    #[test]
    fn warm_start_reaches_synthesis_success_in_fewer_proposals() {
        // Cold search on the clumsy target vs the same search seeded with
        // the known-good two-instruction rewrite: the warm start is already
        // at eq' == 0, so synthesis ends orders of magnitude earlier.
        let spec = clumsy_add();
        let cold = Session::new(quick_config()).run(&spec).unwrap();
        assert!(cold.stats.synthesis_proposals > 0);
        let warm_seed: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let warm = Session::new(quick_config())
            .run_request(&spec, RunRequest::new().warm_start(&warm_seed))
            .unwrap();
        assert!(warm.stats.synthesis_succeeded);
        assert!(
            warm.stats.synthesis_proposals < cold.stats.synthesis_proposals,
            "warm start took {} synthesis proposals, cold start {}",
            warm.stats.synthesis_proposals,
            cold.stats.synthesis_proposals
        );
        // The returned rewrite is still correct on fresh test cases.
        let fresh = generate_testcases(&spec, 16, 424242);
        let mut cf = CostFn::new(quick_config(), fresh, 0);
        let instrs: Vec<_> = warm.rewrite.iter().cloned().collect();
        assert_eq!(cf.eq_prime(&instrs), 0);
    }

    #[test]
    fn run_batch_exposes_per_target_wall_clock_and_proposals() {
        let config = Config {
            threads: 2,
            synthesis_iterations: 1_000,
            optimization_iterations: 5_000,
            ..quick_config()
        };
        let results = Session::new(config).run_batch(&[clumsy_add(), clumsy_add()]);
        for result in results {
            let stats = &result.expect("batch target succeeds").stats;
            assert!(stats.total_time > Duration::ZERO);
            assert!(stats.total_proposals() > 0);
            assert_eq!(
                stats.total_proposals(),
                stats.synthesis_proposals + stats.optimization_proposals
            );
            // The per-target clock covers at least that target's own phase
            // time (phase timers of other targets may overlap; this one's
            // are contained in its own wall clock).
            assert!(stats.total_time >= stats.synthesis_time + stats.optimization_time);
        }
    }

    #[test]
    fn run_batch_returns_per_target_results_in_order() {
        let ok = clumsy_add();
        let empty = TargetSpec::with_gprs(Program::new(), &[], &[Gpr::Rax]);
        let config = Config {
            threads: 2,
            synthesis_iterations: 1_000,
            optimization_iterations: 5_000,
            ..quick_config()
        };
        let session = Session::new(config);
        let results = session.run_batch(&[ok.clone(), empty, ok]);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(StokeError::EmptyTarget)));
        assert!(results[2].is_ok());
        // Both successful targets are the same spec, so their (seeded,
        // deterministic) results must agree regardless of scheduling.
        assert_eq!(
            results[0].as_ref().unwrap().rewrite,
            results[2].as_ref().unwrap().rewrite
        );
        assert!(session.run_batch(&[]).is_empty());
    }

    #[test]
    fn batch_observer_tags_events_with_target_indices() {
        let ring = Arc::new(RingSink::new(1 << 16));
        let config = Config {
            synthesis_iterations: 500,
            optimization_iterations: 2_000,
            ..quick_config()
        };
        let session = Session::new(config).with_trace(ring.clone());
        session.run_batch(&[clumsy_add(), clumsy_add()]);
        let targets: std::collections::BTreeSet<u64> = ring
            .records()
            .into_iter()
            .filter_map(|(_, r)| match r {
                TraceRecord::SpanStart { target, .. } => Some(target),
                _ => None,
            })
            .collect();
        assert_eq!(targets.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }
}
