//! Observation hooks for the search driver: the [`SearchObserver`] trait
//! lets callers stream per-phase progress out of a running
//! [`Session`](crate::driver::Session) — phase transitions, periodic chain
//! progress, candidates entering the re-rank stage, and validation
//! verdicts — without blocking the search threads.

use crate::cost::EvalStats;
use crate::mcmc::MoveStats;
use crate::search::StokeResult;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
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

/// One recorded observer callback (see [`CollectingObserver`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SearchEvent {
    /// `on_phase_start` fired.
    PhaseStart {
        /// Batch index of the target.
        target: usize,
        /// The phase that started.
        phase: Phase,
    },
    /// `on_chain_progress` fired.
    Progress(ChainProgress),
    /// `on_candidate` fired.
    Candidate {
        /// Batch index of the target.
        target: usize,
        /// Number of instructions in the candidate.
        instructions: usize,
        /// The candidate's search cost.
        cost: f64,
    },
    /// `on_validation` fired.
    Validation {
        /// Batch index of the target.
        target: usize,
        /// The validator's verdict.
        verdict: ValidationVerdict,
    },
    /// `on_chain_end` fired.
    ChainEnd(ChainStats),
}

/// An observer that records every event in order, for tests and for
/// streaming progress out of long runs.
///
/// The event log lives behind an internal `Arc`, so the collector is
/// `Clone` and cheap to hand to each of a service's worker threads —
/// every clone appends to (and reads) the same log. Events are recorded
/// in lock-acquisition order, which for a single job matches callback
/// order; concurrent jobs interleave, and readers separate them by the
/// `target` index carried on every event.
///
/// By default the log is unbounded. Long-running producers should use
/// [`CollectingObserver::with_capacity`] to cap memory: once full, the
/// oldest event is discarded per arrival and counted in
/// [`CollectingObserver::dropped`].
#[derive(Debug, Clone, Default)]
pub struct CollectingObserver {
    log: Arc<Mutex<EventLog>>,
}

#[derive(Debug, Default)]
struct EventLog {
    events: VecDeque<SearchEvent>,
    /// Maximum retained events; 0 means unbounded.
    capacity: usize,
    dropped: u64,
}

impl CollectingObserver {
    /// A fresh, empty, unbounded collector.
    pub fn new() -> CollectingObserver {
        CollectingObserver::default()
    }

    /// A collector retaining at most `capacity` events (min 1): when full,
    /// each new event evicts the oldest and bumps the dropped counter.
    pub fn with_capacity(capacity: usize) -> CollectingObserver {
        CollectingObserver {
            log: Arc::new(Mutex::new(EventLog {
                events: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            })),
        }
    }

    /// A snapshot of every retained event, in arrival order.
    pub fn events(&self) -> Vec<SearchEvent> {
        self.log
            .lock()
            .expect("observer lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Remove and return every retained event (used to stream progress
    /// between runs without re-cloning an ever-growing log).
    pub fn drain(&self) -> Vec<SearchEvent> {
        self.log
            .lock()
            .expect("observer lock")
            .events
            .drain(..)
            .collect()
    }

    /// Number of events discarded because the log was at capacity.
    pub fn dropped(&self) -> u64 {
        self.log.lock().expect("observer lock").dropped
    }

    /// The phase-start events only, in arrival order.
    pub fn phases(&self) -> Vec<Phase> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                SearchEvent::PhaseStart { phase, .. } => Some(phase),
                _ => None,
            })
            .collect()
    }

    fn push(&self, event: SearchEvent) {
        let mut log = self.log.lock().expect("observer lock");
        if log.capacity > 0 && log.events.len() == log.capacity {
            log.events.pop_front();
            log.dropped += 1;
        }
        log.events.push_back(event);
    }
}

impl SearchObserver for CollectingObserver {
    fn on_phase_start(&self, target: usize, phase: Phase) {
        self.push(SearchEvent::PhaseStart { target, phase });
    }

    fn on_chain_progress(&self, progress: &ChainProgress) {
        self.push(SearchEvent::Progress(*progress));
    }

    fn on_candidate(&self, target: usize, candidate: &Program, cost: f64) {
        self.push(SearchEvent::Candidate {
            target,
            instructions: candidate.len(),
            cost,
        });
    }

    fn on_validation(&self, target: usize, verdict: ValidationVerdict) {
        self.push(SearchEvent::Validation { target, verdict });
    }

    fn on_chain_end(&self, stats: &ChainStats) {
        self.push(SearchEvent::ChainEnd(*stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_observer_records_in_order() {
        let obs = CollectingObserver::new();
        obs.on_phase_start(0, Phase::Synthesis);
        obs.on_phase_start(0, Phase::Optimization);
        obs.on_validation(0, ValidationVerdict::Proven);
        assert_eq!(obs.phases(), vec![Phase::Synthesis, Phase::Optimization]);
        assert_eq!(obs.events().len(), 3);
        assert_eq!(obs.drain().len(), 3);
        assert!(obs.events().is_empty());
    }

    #[test]
    fn clones_share_one_event_log() {
        let obs = CollectingObserver::new();
        let clone = obs.clone();
        obs.on_phase_start(0, Phase::Synthesis);
        clone.on_phase_start(1, Phase::Synthesis);
        assert_eq!(obs.events().len(), 2);
        assert_eq!(clone.events().len(), 2);
        clone.drain();
        assert!(obs.events().is_empty());
    }

    #[test]
    fn concurrent_jobs_interleave_but_stay_ordered_per_target() {
        // Two "jobs" hammer one shared collector from separate threads;
        // the global log may interleave arbitrarily, but filtering by
        // target index must recover each job's callback order exactly.
        let obs = CollectingObserver::new();
        std::thread::scope(|scope| {
            for target in 0..2usize {
                let obs = obs.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        obs.on_phase_start(target, Phase::Synthesis);
                        obs.on_chain_progress(&ChainProgress {
                            target,
                            phase: Phase::Synthesis,
                            chain: 0,
                            proposals: i,
                            iterations: 100,
                            current_cost: 0.0,
                            correctness: 0.0,
                            performance: 0.0,
                            best_cost: 0.0,
                        });
                    }
                });
            }
        });
        let events = obs.events();
        assert_eq!(events.len(), 400);
        for target in 0..2usize {
            let mut expect_progress = false;
            let mut next_proposals = 0u64;
            let mut seen = 0;
            for event in &events {
                match event {
                    SearchEvent::PhaseStart { target: t, .. } if *t == target => {
                        assert!(!expect_progress, "job {target} events out of order");
                        expect_progress = true;
                        seen += 1;
                    }
                    SearchEvent::Progress(p) if p.target == target => {
                        assert!(expect_progress, "job {target} events out of order");
                        assert_eq!(p.proposals, next_proposals);
                        expect_progress = false;
                        next_proposals += 1;
                        seen += 1;
                    }
                    _ => {}
                }
            }
            assert_eq!(seen, 200);
        }
    }

    #[test]
    fn capped_collector_drops_oldest_and_counts() {
        let obs = CollectingObserver::with_capacity(3);
        for i in 0..5usize {
            obs.on_phase_start(i, Phase::Synthesis);
        }
        assert_eq!(obs.dropped(), 2);
        let events = obs.events();
        assert_eq!(events.len(), 3);
        match &events[0] {
            SearchEvent::PhaseStart { target, .. } => assert_eq!(*target, 2),
            other => panic!("unexpected event {other:?}"),
        }
        // Draining resets the retained log but keeps the dropped count.
        assert_eq!(obs.drain().len(), 3);
        assert!(obs.events().is_empty());
        assert_eq!(obs.dropped(), 2);
    }

    #[test]
    fn tee_observer_forwards_to_both() {
        let a = CollectingObserver::new();
        let b = CollectingObserver::new();
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
        assert_eq!(a.events().len(), 3);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn null_observer_ignores_everything() {
        let obs = NullObserver;
        obs.on_phase_start(0, Phase::Testcases);
        let p: Program = "movq rdi, rax".parse().unwrap();
        obs.on_candidate(0, &p, 1.0);
    }
}
