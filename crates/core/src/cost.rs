//! The cost function: test-case based correctness (`eq'`, Equation 8),
//! undefined-behaviour penalties (`err`, Equation 11), the improved
//! register equality metric (Equation 15), and the static performance
//! term (`perf`, Equation 13).
//!
//! The paper's term arithmetic lives in module-level helpers shared by two
//! front ends: the pluggable [`CostModel`](crate::model::CostModel) layer
//! (whose default, [`PaperCost`](crate::model::PaperCost), is what the
//! search pipeline uses) and the concrete [`CostFn`] convenience type kept
//! for benchmarks, examples and tests that want to evaluate `eq'`
//! directly. Both evaluate `eq'` through one engine: the batched
//! structure-of-arrays run of a [`PreparedProgram`]
//! ([`run_lockstep`](PreparedProgram::run_lockstep)), which executes every
//! test case in lockstep and applies the §4.5 early-termination bound per
//! instruction step. The interpreter ([`stoke_emu::run_instrs`]) shares its
//! instruction semantics and serves as the differential oracle in tests.

use crate::config::{Config, EqMetric};
use crate::testcase::{TestSuite, Testcase};
use stoke_emu::{BatchState, ColumnRef, Faults, MachineState, Memory, PreparedProgram};
use stoke_x86::{Flag, Gpr, Instruction, Xmm};

/// The correctness-related cost of one rewrite on one test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CaseCost {
    /// Register Hamming distance term (`reg` / `reg'`).
    pub reg: u64,
    /// Memory Hamming distance term (`mem`).
    pub mem: u64,
    /// Undefined behaviour term (`err`).
    pub err: u64,
}

impl CaseCost {
    /// Total cost contributed by the case.
    pub fn total(&self) -> u64 {
        self.reg + self.mem + self.err
    }
}

/// Statistics accumulated while evaluating rewrites (used for Figures 2
/// and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Number of test cases executed.
    pub testcases_run: u64,
    /// Number of rewrite evaluations requested.
    pub evaluations: u64,
    /// Number of evaluations cut short by the early-termination bound.
    pub early_terminations: u64,
}

impl EvalStats {
    /// Field-wise difference `self - earlier` (saturating), for slicing a
    /// cumulative cost-function counter into per-chain deltas.
    pub fn since(&self, earlier: &EvalStats) -> EvalStats {
        EvalStats {
            testcases_run: self.testcases_run.saturating_sub(earlier.testcases_run),
            evaluations: self.evaluations.saturating_sub(earlier.evaluations),
            early_terminations: self
                .early_terminations
                .saturating_sub(earlier.early_terminations),
        }
    }
}

/// The `err(·)` term of Equation 11 for one execution's fault counters.
pub(crate) fn err_term(config: &Config, faults: &Faults) -> u64 {
    config.wsf * faults.sigsegv + config.wfp * faults.sigfpe + config.wur * faults.undef
}

/// A rewrite's final machine state as the cost terms read it, abstracted
/// over where the state lives: an owned [`MachineState`] (single-case
/// evaluation and the public per-term helpers) or a [`ColumnRef`]
/// borrowing one column of a batch (the engine compares columns in place,
/// without extracting them).
pub(crate) trait OutView {
    fn gpr64(&self, g: Gpr) -> u64;
    fn xmm(&self, x: Xmm) -> stoke_emu::XmmValue;
    fn flag(&self, f: Flag) -> bool;
    fn memory(&self) -> &Memory;
}

impl OutView for MachineState {
    fn gpr64(&self, g: Gpr) -> u64 {
        self.read_gpr64(g)
    }
    fn xmm(&self, x: Xmm) -> stoke_emu::XmmValue {
        self.read_xmm(x)
    }
    fn flag(&self, f: Flag) -> bool {
        self.read_flag(f)
    }
    fn memory(&self) -> &Memory {
        &self.memory
    }
}

impl OutView for ColumnRef<'_> {
    fn gpr64(&self, g: Gpr) -> u64 {
        self.read_gpr64(g)
    }
    fn xmm(&self, x: Xmm) -> stoke_emu::XmmValue {
        self.read_xmm(x)
    }
    fn flag(&self, f: Flag) -> bool {
        self.read_flag(f)
    }
    fn memory(&self) -> &Memory {
        ColumnRef::memory(self)
    }
}

/// The register distance term of one test case: strict (Equation 9) or
/// improved (Equation 15) depending on the configuration.
pub(crate) fn reg_term<V: OutView>(
    config: &Config,
    suite: &TestSuite,
    case: &Testcase,
    rewrite_out: &V,
) -> u64 {
    let mut total = 0u64;
    for g in &suite.live_out.gprs {
        let want = case.target_output.read_gpr64(*g);
        match config.eq_metric {
            EqMetric::Strict => {
                let got = rewrite_out.gpr64(*g);
                total += u64::from((want ^ got).count_ones());
            }
            EqMetric::Improved => {
                let mut best = u64::from((want ^ rewrite_out.gpr64(*g)).count_ones());
                for other in Gpr::ALL {
                    let d = u64::from((want ^ rewrite_out.gpr64(other)).count_ones())
                        + if other == *g { 0 } else { config.wm };
                    best = best.min(d);
                }
                total += best;
            }
        }
    }
    for x in &suite.live_out.xmms {
        let want = case.target_output.read_xmm(*x);
        match config.eq_metric {
            EqMetric::Strict => {
                let got = rewrite_out.xmm(*x);
                total += u64::from((want[0] ^ got[0]).count_ones())
                    + u64::from((want[1] ^ got[1]).count_ones());
            }
            EqMetric::Improved => {
                let dist = |got: [u64; 2]| {
                    u64::from((want[0] ^ got[0]).count_ones())
                        + u64::from((want[1] ^ got[1]).count_ones())
                };
                let mut best = dist(rewrite_out.xmm(*x));
                for other in Xmm::ALL {
                    let d = dist(rewrite_out.xmm(other)) + if other == *x { 0 } else { config.wm };
                    best = best.min(d);
                }
                total += best;
            }
        }
    }
    for f in &suite.live_out.flags {
        let want = case.target_output.read_flag(*f);
        let got = rewrite_out.flag(*f);
        total += u64::from(want != got);
    }
    total
}

/// The memory distance term of one test case: Hamming distance over every
/// byte written by either the target or the rewrite (unwritten sandbox
/// bytes are identical by construction). Strict only; the improved metric
/// is applied to registers alone in this reproduction.
pub(crate) fn mem_term<V: OutView>(suite: &TestSuite, case: &Testcase, rewrite_out: &V) -> u64 {
    let in_scratch = |addr: u64| {
        suite
            .scratch
            .map(|(start, len)| addr >= start && addr < start + len)
            .unwrap_or(false)
    };
    // Fast path: target and rewrite outputs both derive from the same
    // test-case input and sandboxed execution never changes the memory
    // layout, so the byte-by-byte Hamming distance collapses to a
    // word-wide XOR-popcount over the dense images.
    if let Some(total) = case
        .target_output
        .memory
        .diff_bits(rewrite_out.memory(), suite.scratch)
    {
        return total;
    }
    // Both byte streams are address-ordered, so one allocation-free
    // merge-join scores every written byte: addresses both sides wrote
    // compare directly, and a byte written on only one side compares
    // against the unwritten default of zero.
    let mut want_it = case.target_output.memory.iter().peekable();
    let mut got_it = rewrite_out.memory().iter().peekable();
    let mut total = 0u64;
    loop {
        let (addr, diff) = match (want_it.peek().copied(), got_it.peek().copied()) {
            (Some((wa, want)), Some((ga, got))) if wa == ga => {
                want_it.next();
                got_it.next();
                (wa, want ^ got)
            }
            (Some((wa, want)), Some((ga, _))) if wa < ga => {
                want_it.next();
                (wa, want)
            }
            (_, Some((ga, got))) => {
                got_it.next();
                (ga, got)
            }
            (Some((wa, want)), None) => {
                want_it.next();
                (wa, want)
            }
            (None, None) => break,
        };
        if !in_scratch(addr) {
            total += u64::from(diff.count_ones());
        }
    }
    total
}

/// Evaluate the full correctness term `eq'(R; T, τ)` (Equation 8) of a
/// prepared rewrite across the whole suite, updating `stats`: one lockstep
/// pass of the batched engine over every test case, then a sequential walk
/// of the per-case results in suite order.
///
/// With `bound = Some(b)`, the walk stops as soon as the running sum
/// exceeds `b` (the early-termination optimization of §4.5) and returns
/// `None`. The second component is the number of test cases evaluated.
///
/// With a bound, the §4.5 check additionally runs *during* execution (see
/// [`kill_doomed`]), killing the columns the sequential walk below can
/// never reach so they stop costing work for the remaining instructions.
/// It depends only on the fault counters, so it reruns only after a step
/// that moved [`BatchState::fault_events`] (and after the first step, for
/// bounds below zero): on every other step it would kill nothing new.
pub(crate) fn eq_prime(
    config: &Config,
    suite: &TestSuite,
    prepared: &PreparedProgram<'_>,
    scratch: &mut EvalScratch,
    stats: &mut EvalStats,
    bound: Option<f64>,
) -> (Option<u64>, usize) {
    stats.evaluations += 1;
    let batch = &mut scratch.batch;
    // The scratch batch is only ever (re)filled from this cost function's
    // own suite, so after the first evaluation the memory images can be
    // restored from the store journal instead of re-copied.
    batch.reload(suite.cases.iter().map(|c| &c.input));
    match bound {
        None => prepared.run_lockstep(batch),
        Some(b) => {
            let mut checked_at = None;
            prepared.run_lockstep_with(batch, |state| {
                let events = state.fault_events();
                if checked_at != Some(events) {
                    checked_at = Some(events);
                    kill_doomed(config, state, b);
                }
                true
            });
        }
    }
    let mut total = 0u64;
    for (i, case) in suite.cases.iter().enumerate() {
        stats.testcases_run += 1;
        let col = batch.column(i);
        total += CaseCost {
            reg: reg_term(config, suite, case, &col),
            mem: mem_term(suite, case, &col),
            err: err_term(config, &col.faults()),
        }
        .total();
        if let Some(b) = bound {
            if (total as f64) > b {
                stats.early_terminations += 1;
                return (None, i + 1);
            }
        }
    }
    (Some(total), suite.cases.len())
}

/// The §4.5 kill rule: a column's accumulated `err(·)` cost is a lower
/// bound on its final case cost (the reg/mem terms only add), so once the
/// running prefix of those lower bounds over columns `0..=k` exceeds the
/// bound, the sequential walk of [`eq_prime`] is guaranteed to
/// early-terminate at or before case `k`: columns `k+1..` can never be
/// read, and are killed.
fn kill_doomed(config: &Config, state: &mut BatchState, bound: f64) {
    let n = state.width();
    let mut prefix = 0u64;
    let mut dead_from = n;
    for col in 0..n {
        prefix += err_term(config, &state.faults(col));
        if (prefix as f64) > bound {
            dead_from = col + 1;
            break;
        }
    }
    for col in dead_from..n {
        state.kill(col);
    }
}

/// Whether a candidate passes every test case of `suite` (`eq' == 0`).
/// Does not touch any statistics — used by the re-rank / verification
/// stage, whose probe executions are not part of the search statistics.
pub(crate) fn passes_suite(
    config: &Config,
    suite: &TestSuite,
    prepared: &PreparedProgram<'_>,
) -> bool {
    let mut stats = EvalStats::default();
    let mut scratch = EvalScratch::default();
    eq_prime(config, suite, prepared, &mut scratch, &mut stats, None).0 == Some(0)
}

/// Reusable evaluation buffers, owned by [`CostFn`] and lent to cost
/// models through [`EvalContext`](crate::model::EvalContext).
///
/// This holds the engine's [`BatchState`]: reloading one scratch batch per
/// evaluation is what keeps the hot path allocation-free. The struct is
/// deliberately opaque so the engine can add buffers without breaking the
/// `EvalContext` API.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    pub(crate) batch: BatchState,
}

/// The cost function of §4: `c(R; T) = eq'(R; T, τ) + perf_weight · H(R)`.
#[derive(Debug, Clone)]
pub struct CostFn {
    config: Config,
    suite: TestSuite,
    scratch: EvalScratch,
    /// Static latency of the target, kept for reporting speedups.
    pub target_latency: u64,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl CostFn {
    /// Build a cost function from a configuration and a test suite.
    pub fn new(config: Config, suite: TestSuite, target_latency: u64) -> CostFn {
        CostFn {
            config,
            suite,
            scratch: EvalScratch::default(),
            target_latency,
            stats: EvalStats::default(),
        }
    }

    /// Prepare a rewrite for evaluation: a plain [`PreparedProgram::new`].
    pub fn prepare_rewrite<'a>(
        &self,
        rewrite: impl IntoIterator<Item = &'a Instruction>,
    ) -> PreparedProgram<'a> {
        PreparedProgram::new(rewrite)
    }

    /// The test suite (e.g. to add validator counterexamples).
    pub fn suite(&self) -> &TestSuite {
        &self.suite
    }

    /// Mutable access to the test suite. The scratch batch is reset, so
    /// the next evaluation loads the (possibly changed) inputs in full.
    pub fn suite_mut(&mut self) -> &mut TestSuite {
        self.scratch = EvalScratch::default();
        &mut self.suite
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Mutable access to the configuration (e.g. to switch the equality
    /// metric or toggle early termination between experiments).
    pub fn config_mut(&mut self) -> &mut Config {
        &mut self.config
    }

    /// An [`EvalContext`](crate::model::EvalContext) over this cost
    /// function's configuration, suite and statistics, for scoring through
    /// a [`CostModel`](crate::model::CostModel).
    pub fn eval_context(&mut self) -> crate::model::EvalContext<'_> {
        crate::model::EvalContext {
            config: &self.config,
            suite: &self.suite,
            scratch: &mut self.scratch,
            target_latency: self.target_latency,
            stats: &mut self.stats,
        }
    }

    /// The `err(·)` term (Equation 11).
    pub fn err_term(&self, faults: &Faults) -> u64 {
        err_term(&self.config, faults)
    }

    /// The register distance term for one test case: strict (Equation 9)
    /// or improved (Equation 15) depending on the configuration.
    pub fn reg_term(&self, case: &Testcase, rewrite_out: &MachineState) -> u64 {
        reg_term(&self.config, &self.suite, case, rewrite_out)
    }

    /// The memory distance term for one test case: Hamming distance over
    /// every byte written by either the target or the rewrite (unwritten
    /// sandbox bytes are identical by construction). This is the strict
    /// metric; the improved variant is only applied to registers in this
    /// reproduction.
    pub fn mem_term(&self, case: &Testcase, rewrite_out: &MachineState) -> u64 {
        mem_term(&self.suite, case, rewrite_out)
    }

    /// Evaluate `eq'` on a single test case.
    pub fn case_cost(&self, case: &Testcase, rewrite: &[Instruction]) -> CaseCost {
        let outcome = stoke_emu::run_instrs(rewrite, &case.input);
        CaseCost {
            reg: self.reg_term(case, &outcome.state),
            mem: self.mem_term(case, &outcome.state),
            err: self.err_term(&outcome.faults),
        }
    }

    /// Evaluate the full correctness term `eq'(R; T, τ)` (Equation 8).
    ///
    /// The rewrite is prepared once and then executed on every test case
    /// in lockstep by the batched engine.
    pub fn eq_prime(&mut self, rewrite: &[Instruction]) -> u64 {
        let prepared = PreparedProgram::new(rewrite);
        eq_prime(
            &self.config,
            &self.suite,
            &prepared,
            &mut self.scratch,
            &mut self.stats,
            None,
        )
        .0
        .expect("unbounded evaluation always completes")
    }

    /// The performance term: the static latency heuristic `H(R)` of
    /// Equation 13, weighted by the configuration.
    pub fn perf_term(&self, rewrite: &[Instruction]) -> f64 {
        let h: u64 = rewrite.iter().map(|i| u64::from(i.latency())).sum();
        self.config.perf_weight * h as f64
    }

    /// Evaluate `eq'` but stop as soon as the running sum exceeds `bound`
    /// (the early-termination optimization of §4.5). Returns `None` when
    /// the bound was exceeded — the proposal is guaranteed to be rejected.
    /// Also returns the number of test cases evaluated.
    pub fn eq_prime_bounded(
        &mut self,
        rewrite: &[Instruction],
        bound: f64,
    ) -> (Option<u64>, usize) {
        let prepared = PreparedProgram::new(rewrite);
        eq_prime(
            &self.config,
            &self.suite,
            &prepared,
            &mut self.scratch,
            &mut self.stats,
            Some(bound),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcase::{generate_testcases, TargetSpec};
    use stoke_x86::Program;

    fn setup(metric: EqMetric) -> (CostFn, Program) {
        let target: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let spec = TargetSpec::with_gprs(target.clone(), &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
        let suite = generate_testcases(&spec, 8, 42);
        let config = Config {
            eq_metric: metric,
            ..Config::quick_test()
        };
        let latency = target.static_latency();
        (CostFn::new(config, suite, latency), target)
    }

    #[test]
    fn correct_rewrite_has_zero_eq() {
        let (mut cost, target) = setup(EqMetric::Improved);
        assert_eq!(cost.eq_prime(target.instrs()), 0);
        let equivalent: Program = "leaq (rdi,rsi,1), rax".parse().unwrap();
        assert_eq!(cost.eq_prime(equivalent.instrs()), 0);
    }

    #[test]
    fn wrong_rewrite_has_positive_eq() {
        let (mut cost, _) = setup(EqMetric::Improved);
        let wrong: Program = "movq rdi, rax\nsubq rsi, rax".parse().unwrap();
        assert!(cost.eq_prime(wrong.instrs()) > 0);
        let empty: Program = Program::new();
        assert!(cost.eq_prime(empty.instrs()) > 0);
    }

    #[test]
    fn improved_metric_rewards_value_in_wrong_register() {
        // Figure 6: the correct value lands in rbx instead of rax.
        let (mut strict, _) = setup(EqMetric::Strict);
        let (mut improved, _) = setup(EqMetric::Improved);
        let misplaced: Program = "movq rdi, rbx\naddq rsi, rbx".parse().unwrap();
        let s = strict.eq_prime(misplaced.instrs());
        let i = improved.eq_prime(misplaced.instrs());
        assert!(
            i < s,
            "improved ({}) must be cheaper than strict ({})",
            i,
            s
        );
        // The improved cost is exactly wm per test case (value present but
        // misplaced), while the strict cost is the full Hamming distance.
        assert_eq!(i, improved.config().wm * improved.suite().len() as u64);
    }

    #[test]
    // The expected value spells out count x weight per fault class.
    #[allow(clippy::identity_op)]
    fn err_term_weights_faults() {
        let (cost, _) = setup(EqMetric::Improved);
        let faults = Faults {
            sigsegv: 2,
            sigfpe: 1,
            undef: 3,
        };
        assert_eq!(cost.err_term(&faults), 2 * 1 + 1 * 1 + 3 * 2);
    }

    #[test]
    fn undefined_reads_are_penalized() {
        let (mut cost, _) = setup(EqMetric::Improved);
        // r11 is never defined in the test cases.
        let uses_undef: Program = "movq r11, rax\nmovq rdi, rax\naddq rsi, rax"
            .parse()
            .unwrap();
        let clean: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        assert!(cost.eq_prime(uses_undef.instrs()) > cost.eq_prime(clean.instrs()));
    }

    #[test]
    fn perf_term_prefers_shorter_code() {
        let (cost, target) = setup(EqMetric::Improved);
        let shorter: Program = "leaq (rdi,rsi,1), rax".parse().unwrap();
        assert!(cost.perf_term(shorter.instrs()) < cost.perf_term(target.instrs()));
    }

    #[test]
    fn early_termination_stops_early() {
        let (mut cost, _) = setup(EqMetric::Improved);
        let wrong: Program = "movq 0, rax".parse().unwrap();
        let (res, evaluated) = cost.eq_prime_bounded(wrong.instrs(), 5.0);
        assert!(res.is_none());
        assert!(
            evaluated < cost.suite().len(),
            "should stop before all {} cases",
            cost.suite().len()
        );
        assert_eq!(cost.stats.early_terminations, 1);
        // A permissive bound evaluates everything.
        let (res, evaluated) = cost.eq_prime_bounded(wrong.instrs(), 1e18);
        assert!(res.is_some());
        assert_eq!(evaluated, cost.suite().len());
    }

    /// The differential oracle for `eq'`: a sequential walk of the
    /// interpreter over the suite, scored with the public per-term
    /// helpers. Returns what [`CostFn::eq_prime_bounded`] must report and
    /// the [`EvalStats`] it must charge.
    fn oracle(
        cost: &CostFn,
        rewrite: &[Instruction],
        bound: Option<f64>,
    ) -> ((Option<u64>, usize), EvalStats) {
        let mut stats = EvalStats {
            evaluations: 1,
            ..EvalStats::default()
        };
        let mut total = 0u64;
        for (i, case) in cost.suite().cases.iter().enumerate() {
            stats.testcases_run += 1;
            let out = stoke_emu::run_instrs(rewrite, &case.input);
            total += cost.reg_term(case, &out.state)
                + cost.mem_term(case, &out.state)
                + cost.err_term(&out.faults);
            if bound.is_some_and(|b| (total as f64) > b) {
                stats.early_terminations += 1;
                return ((None, i + 1), stats);
            }
        }
        ((Some(total), cost.suite().len()), stats)
    }

    /// The batched engine against the interpreter oracle: totals,
    /// early-exit decisions, cases evaluated and every statistic.
    #[test]
    fn backends_agree_on_totals_decisions_and_stats() {
        let programs: [Program; 4] = [
            "movq rdi, rax\naddq rsi, rax".parse().unwrap(),
            "movq rdi, rax\nsubq rsi, rax".parse().unwrap(),
            "movq (rbx), rax".parse().unwrap(),
            "movq 0, rax".parse().unwrap(),
        ];
        for bound in [None, Some(5.0), Some(60.0), Some(1e18)] {
            for program in &programs {
                let (mut cost, _) = setup(EqMetric::Improved);
                let want = oracle(&cost, program.instrs(), bound);
                let out = match bound {
                    None => (Some(cost.eq_prime(program.instrs())), cost.suite().len()),
                    Some(b) => cost.eq_prime_bounded(program.instrs(), b),
                };
                assert_eq!((out, cost.stats), want, "{program} at {bound:?}");
            }
        }
    }

    /// The fault-driven kill check kills exactly the columns the O(n)
    /// prefix rule kills when it runs after every instruction step. Kills
    /// never show in `eq'` results, so the live masks are compared
    /// directly, over hand-written faulting programs and random rewrites
    /// from the proposal distribution, at bounds from below zero to
    /// unreachable.
    #[test]
    fn fault_driven_kill_check_matches_the_prefix_rule() {
        let live_mask = |batch: &BatchState| -> Vec<bool> {
            (0..batch.width()).map(|col| batch.is_live(col)).collect()
        };
        let mut programs: Vec<Program> = [
            "movq (rbx), rax\nmovq rdi, rax\naddq rsi, rax",
            "movq rdi, rax\naddq r11, rax\nmovq 8(rsp), rcx\nsubq rsi, rax",
            "movq rdi, rax\naddq rsi, rax",
            "xorq rdx, rdx\ndivq rdx\nmovq (rdi), rcx\nadcq rbx, rax",
            // Steps whose only faults are out-of-sandbox accesses through
            // defined registers, or divisions by zero.
            "movq rdi, rax\nmovq (rdi), rcx\nmovq 8(rsi), rdx\naddq rsi, rax",
            "movq 0, rdx\nmovq rdi, rax\nmovq 0, rcx\ndivq rcx\nmovq 0, rdx\ndivq rcx",
        ]
        .iter()
        .map(|text| text.parse().unwrap())
        .collect();
        let mut proposer = crate::mcmc::Proposer::new(Config::default(), 11);
        programs.extend((0..40).map(|_| {
            (0..8)
                .map(|_| proposer.random_instruction())
                .collect::<Program>()
        }));
        for program in &programs {
            let prepared = PreparedProgram::of_program(program);
            for bound in [-1.0, 0.0, 3.0, 10.0, 40.0, 1e18] {
                let (mut cost, _) = setup(EqMetric::Improved);
                cost.eq_prime_bounded(program.instrs(), bound);
                let mut batch = BatchState::new();
                batch.load(cost.suite().cases.iter().map(|c| &c.input));
                prepared.run_lockstep_with(&mut batch, |state| {
                    kill_doomed(cost.config(), state, bound);
                    true
                });
                assert_eq!(
                    live_mask(&cost.scratch.batch),
                    live_mask(&batch),
                    "{program} at {bound}"
                );
            }
        }
    }

    // Regression test: `suite_mut` used to leave the scratch batch's
    // reload invariant (same inputs as the last load) stale, so the next
    // evaluation restored only each column's dirty range from the *new*
    // inputs and scored against a mix of old and new memory images.
    #[test]
    fn suite_mut_resets_the_scratch_batch() {
        use crate::testcase::InputSpec;
        let target: Program = "movq (rdi), rax".parse().unwrap();
        let spec = TargetSpec::new(
            target.clone(),
            vec![
                InputSpec::pointer(Gpr::Rdi, 64),
                InputSpec::value64(Gpr::Rsi),
            ],
            stoke_x86::flow::LocSet::from_gprs([Gpr::Rax]),
        );
        let suite = generate_testcases(&spec, 4, 7);
        let rewrite: Program = "movq rsi, (rdi)\nmovq 8(rdi), rax".parse().unwrap();
        let mut cost = CostFn::new(Config::quick_test(), suite, target.static_latency());
        cost.eq_prime(rewrite.instrs());
        cost.suite_mut().cases.swap(0, 1);
        let after_swap = cost.eq_prime(rewrite.instrs());
        let mut fresh = CostFn::new(
            Config::quick_test(),
            cost.suite().clone(),
            target.static_latency(),
        );
        assert_eq!(after_swap, fresh.eq_prime(rewrite.instrs()));
        let want = oracle(&fresh, rewrite.instrs(), None).0 .0;
        assert_eq!(Some(after_swap), want);
    }

    #[test]
    fn memory_term_compares_stores() {
        use crate::testcase::InputSpec;
        let target: Program = "movl esi, (rdi)".parse().unwrap();
        let spec = TargetSpec::new(
            target.clone(),
            vec![
                InputSpec::pointer(Gpr::Rdi, 4),
                InputSpec::value32(Gpr::Rsi),
            ],
            stoke_x86::flow::LocSet::new(),
        );
        let suite = generate_testcases(&spec, 4, 9);
        let mut cost = CostFn::new(Config::quick_test(), suite, target.static_latency());
        assert_eq!(cost.eq_prime(target.instrs()), 0);
        let wrong: Program = "movl 0, (rdi)".parse().unwrap();
        assert!(cost.eq_prime(wrong.instrs()) > 0);
    }
}
