//! Observation hooks for the search driver: the [`SearchObserver`] trait
//! lets callers stream per-phase progress out of a running
//! [`Session`](crate::driver::Session) — phase transitions, periodic chain
//! progress, candidates entering the re-rank stage, and validation
//! verdicts — without blocking the search threads. The recorded form of
//! the same events is the `stoke_obs` trace stream that
//! [`Session::with_trace`](crate::driver::Session::with_trace) attaches.

use crate::cost::EvalStats;
use crate::mcmc::MoveStats;
use crate::search::StokeResult;
use stoke_x86::Program;

/// A stage of the Figure 9 pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Test-case generation (the instrumentation step).
    Testcases,
    /// Parallel MCMC synthesis from random starting points.
    Synthesis,
    /// Parallel MCMC optimization from the target and every synthesized
    /// candidate.
    Optimization,
    /// Symbolic validation and timing-model re-ranking of the lowest-cost
    /// candidates.
    Validation,
}

/// A periodic progress report from one MCMC chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainProgress {
    /// Index of the target within the batch (`0` for single-target runs).
    pub target: usize,
    /// The pipeline phase the chain belongs to.
    pub phase: Phase,
    /// Index of the chain within its phase.
    pub chain: usize,
    /// Proposals evaluated by this chain so far.
    pub proposals: u64,
    /// The chain's per-phase proposal budget.
    pub iterations: u64,
    /// Cost of the chain's current rewrite.
    pub current_cost: f64,
    /// Correctness term (`eq'`) of the current rewrite's cost breakdown.
    pub correctness: f64,
    /// Performance term of the current rewrite's cost breakdown.
    pub performance: f64,
    /// Lowest cost the chain has seen.
    pub best_cost: f64,
}

/// Final accounting for one finished MCMC chain, reported through
/// [`SearchObserver::on_chain_end`]. Unlike the periodic [`ChainProgress`]
/// snapshots, the evaluation counters here are per-chain deltas rather than
/// cumulative cost-function totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainStats {
    /// Index of the target within the batch (`0` for single-target runs).
    pub target: usize,
    /// The pipeline phase the chain belonged to.
    pub phase: Phase,
    /// Index of the chain within its phase.
    pub chain: usize,
    /// Proposals the chain evaluated.
    pub proposals: u64,
    /// Proposals the chain accepted.
    pub accepted: u64,
    /// Proposal and acceptance counts split by move kind.
    pub moves: MoveStats,
    /// Evaluation work this chain performed (evaluations, test cases
    /// executed, early terminations).
    pub eval: EvalStats,
}

/// The verdict of one symbolic validation query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationVerdict {
    /// The candidate was proven equivalent to the target.
    Proven,
    /// The validator produced a counterexample, which was added to the
    /// test suite (Equation 12's refinement).
    Refuted,
}

/// Callbacks invoked by a [`Session`](crate::driver::Session) as the
/// pipeline advances.
///
/// Every method has a no-op default, so implementors override only the
/// events they care about. Observers are shared across the search threads
/// and called concurrently, hence the `Send + Sync` bound; implementations
/// should return quickly to avoid stalling the chains.
pub trait SearchObserver: Send + Sync {
    /// A pipeline phase is starting for target `target`.
    fn on_phase_start(&self, target: usize, phase: Phase) {
        let _ = (target, phase);
    }

    /// Periodic progress from one chain (cadence controlled by the
    /// session).
    fn on_chain_progress(&self, progress: &ChainProgress) {
        let _ = progress;
    }

    /// A candidate rewrite entered the re-rank stage with the given search
    /// cost.
    fn on_candidate(&self, target: usize, candidate: &Program, cost: f64) {
        let _ = (target, candidate, cost);
    }

    /// A symbolic validation query finished.
    fn on_validation(&self, target: usize, verdict: ValidationVerdict) {
        let _ = (target, verdict);
    }

    /// One MCMC chain finished, with its final per-chain accounting.
    fn on_chain_end(&self, stats: &ChainStats) {
        let _ = stats;
    }

    /// The whole pipeline finished for `target`. Fired for complete runs
    /// and for the partial result of a budget-exhausted run, after
    /// [`SearchStats::total_time`](crate::SearchStats::total_time) is
    /// stamped.
    fn on_search_end(&self, target: usize, result: &StokeResult) {
        let _ = (target, result);
    }
}

/// Fans every callback out to two observers, in order. Used by the session
/// driver to run a caller's observer alongside the metrics/trace adapter,
/// and available to callers with the same need.
pub struct TeeObserver<'a> {
    first: &'a dyn SearchObserver,
    second: &'a dyn SearchObserver,
}

impl<'a> TeeObserver<'a> {
    /// Combine two observers; `first` receives every callback before
    /// `second`.
    pub fn new(first: &'a dyn SearchObserver, second: &'a dyn SearchObserver) -> TeeObserver<'a> {
        TeeObserver { first, second }
    }
}

impl SearchObserver for TeeObserver<'_> {
    fn on_phase_start(&self, target: usize, phase: Phase) {
        self.first.on_phase_start(target, phase);
        self.second.on_phase_start(target, phase);
    }

    fn on_chain_progress(&self, progress: &ChainProgress) {
        self.first.on_chain_progress(progress);
        self.second.on_chain_progress(progress);
    }

    fn on_candidate(&self, target: usize, candidate: &Program, cost: f64) {
        self.first.on_candidate(target, candidate, cost);
        self.second.on_candidate(target, candidate, cost);
    }

    fn on_validation(&self, target: usize, verdict: ValidationVerdict) {
        self.first.on_validation(target, verdict);
        self.second.on_validation(target, verdict);
    }

    fn on_chain_end(&self, stats: &ChainStats) {
        self.first.on_chain_end(stats);
        self.second.on_chain_end(stats);
    }

    fn on_search_end(&self, target: usize, result: &StokeResult) {
        self.first.on_search_end(target, result);
        self.second.on_search_end(target, result);
    }
}

/// The do-nothing observer used when a session has no explicit observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SearchObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the name of every callback it receives, in order.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<&'static str>>);

    impl SearchObserver for Recorder {
        fn on_phase_start(&self, _: usize, _: Phase) {
            self.0.lock().unwrap().push("phase_start");
        }
        fn on_validation(&self, _: usize, _: ValidationVerdict) {
            self.0.lock().unwrap().push("validation");
        }
        fn on_chain_end(&self, _: &ChainStats) {
            self.0.lock().unwrap().push("chain_end");
        }
    }

    #[test]
    fn tee_observer_forwards_to_both() {
        let a = Recorder::default();
        let b = Recorder::default();
        let tee = TeeObserver::new(&a, &b);
        tee.on_phase_start(0, Phase::Synthesis);
        tee.on_validation(0, ValidationVerdict::Proven);
        tee.on_chain_end(&ChainStats {
            target: 0,
            phase: Phase::Synthesis,
            chain: 1,
            proposals: 10,
            accepted: 4,
            moves: MoveStats::default(),
            eval: EvalStats::default(),
        });
        let seen = a.0.into_inner().unwrap();
        assert_eq!(seen, ["phase_start", "validation", "chain_end"]);
        assert_eq!(seen, b.0.into_inner().unwrap());
    }

    #[test]
    fn null_observer_ignores_everything() {
        let obs = NullObserver;
        obs.on_phase_start(0, Phase::Testcases);
        let p: Program = "movq rdi, rax".parse().unwrap();
        obs.on_candidate(0, &p, 1.0);
    }
}
