//! The MCMC sampler: rewrite representation, the four proposal moves of
//! §4.3 (opcode, operand, swap, instruction), and the Metropolis–Hastings
//! chain with the early-termination acceptance computation of §4.5.

use crate::config::Config;
use crate::cost::CostFn;
use crate::driver::ChainControl;
use crate::model::{Cost, CostModel};
use crate::observer::ChainProgress;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use stoke_emu::DecodeCache;
use stoke_x86::{
    Instruction, Mem, OpcodeClasses, Operand, OperandKind, Program, Scale, SlotSpec, Width,
    MAX_OPERANDS,
};

/// A candidate rewrite: a fixed number ℓ of instruction slots, each either
/// an instruction or the distinguished `UNUSED` token. Fixing ℓ keeps the
/// dimensionality of the search space constant, which the MCMC
/// formulation requires (§4.3).
#[derive(Debug, PartialEq, Eq)]
pub struct Rewrite {
    slots: Vec<Option<Instruction>>,
}

impl Clone for Rewrite {
    fn clone(&self) -> Rewrite {
        Rewrite {
            slots: self.slots.clone(),
        }
    }

    /// Copies into the existing slot buffer: no allocation once the buffer
    /// holds ℓ slots (the chain's `best` buffers rely on this).
    fn clone_from(&mut self, source: &Rewrite) {
        self.slots.clone_from(&source.slots);
    }
}

impl Rewrite {
    /// A rewrite with every slot `UNUSED`.
    pub fn empty(ell: usize) -> Rewrite {
        Rewrite {
            slots: vec![None; ell],
        }
    }

    /// A rewrite that starts as an existing program padded with `UNUSED`
    /// slots up to length ℓ (the starting point of the optimization
    /// phase).
    ///
    /// A program longer than ℓ grows the rewrite to the program's length
    /// instead of being truncated: a truncated starting point would make
    /// the chain optimize a *different* program than the target, and
    /// silently at that.
    pub fn from_program(program: &Program, ell: usize) -> Rewrite {
        let mut slots: Vec<Option<Instruction>> = program.iter().copied().map(Some).collect();
        slots.resize(ell.max(slots.len()), None);
        Rewrite { slots }
    }

    /// The slots.
    pub fn slots(&self) -> &[Option<Instruction>] {
        &self.slots
    }

    /// Number of slots (ℓ).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether every slot is `UNUSED`.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Number of non-`UNUSED` slots.
    pub fn num_instructions(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// The dense program obtained by dropping `UNUSED` slots.
    pub fn to_program(&self) -> Program {
        Program::from_instrs(self.instructions())
    }

    /// The dense instruction sequence (a copy), allocated at its exact
    /// length: search results keep these, so a collect's doubling slack
    /// would be held for as long as the results are.
    pub fn instructions(&self) -> Vec<Instruction> {
        let mut instrs = Vec::with_capacity(self.num_instructions());
        instrs.extend(self.slots.iter().flatten().copied());
        instrs
    }
}

/// The four proposal move kinds (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveKind {
    /// Replace an opcode with one from the same equivalence class.
    Opcode,
    /// Replace an operand with one of the same kind.
    Operand,
    /// Interchange two instruction slots.
    Swap,
    /// Replace a slot with a random instruction or `UNUSED`.
    Instruction,
}

/// How to take back one in-place proposal
/// ([`Proposer::propose_in_place`]): the previous contents of the (at most
/// two) slots the move overwrote. A move that changed nothing records
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Undo {
    saved: [(usize, Option<Instruction>); 2],
    len: u8,
}

impl Undo {
    fn save(&mut self, rewrite: &Rewrite, slot: usize) {
        self.saved[usize::from(self.len)] = (slot, rewrite.slots[slot]);
        self.len += 1;
    }

    /// The slots the move wrote, in the order it wrote them (a swap of a
    /// slot with itself lists it twice).
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.saved[..usize::from(self.len)]
            .iter()
            .map(|(slot, _)| *slot)
    }

    /// Restore the slots the move overwrote, returning `rewrite` to its
    /// state before the move.
    pub fn revert(&self, rewrite: &mut Rewrite) {
        for (slot, old) in self.saved[..usize::from(self.len)].iter().rev() {
            rewrite.slots[*slot] = *old;
        }
    }
}

/// Per-move-kind proposal and acceptance counters — the MCMC mixing
/// diagnostics of Figure 10. Recorded by every chain regardless of whether
/// an observer is attached (pure counting; the accounting never touches the
/// RNG stream, so enabling it cannot perturb the search).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveStats {
    proposed: [u64; 4],
    accepted: [u64; 4],
}

impl MoveStats {
    /// The four move kinds in counter-index order.
    pub const KINDS: [MoveKind; 4] = [
        MoveKind::Opcode,
        MoveKind::Operand,
        MoveKind::Swap,
        MoveKind::Instruction,
    ];

    fn idx(kind: MoveKind) -> usize {
        match kind {
            MoveKind::Opcode => 0,
            MoveKind::Operand => 1,
            MoveKind::Swap => 2,
            MoveKind::Instruction => 3,
        }
    }

    /// Count one proposal of `kind`, accepted or not.
    pub fn record(&mut self, kind: MoveKind, accepted: bool) {
        self.proposed[Self::idx(kind)] += 1;
        if accepted {
            self.accepted[Self::idx(kind)] += 1;
        }
    }

    /// Proposals of `kind` evaluated.
    pub fn proposed(&self, kind: MoveKind) -> u64 {
        self.proposed[Self::idx(kind)]
    }

    /// Proposals of `kind` accepted.
    pub fn accepted(&self, kind: MoveKind) -> u64 {
        self.accepted[Self::idx(kind)]
    }

    /// Acceptance rate for `kind` (0.0 when no such move was proposed).
    pub fn acceptance_rate(&self, kind: MoveKind) -> f64 {
        let proposed = self.proposed(kind);
        if proposed == 0 {
            0.0
        } else {
            self.accepted(kind) as f64 / proposed as f64
        }
    }

    /// Total proposals across all kinds.
    pub fn total_proposed(&self) -> u64 {
        self.proposed.iter().sum()
    }

    /// Total accepted proposals across all kinds.
    pub fn total_accepted(&self) -> u64 {
        self.accepted.iter().sum()
    }

    /// Add another chain's counters into this one (used by the driver to
    /// aggregate per-chain stats into [`SearchStats`](crate::SearchStats)).
    pub fn merge(&mut self, other: &MoveStats) {
        for i in 0..4 {
            self.proposed[i] += other.proposed[i];
            self.accepted[i] += other.accepted[i];
        }
    }
}

/// Samples proposals from the distribution `q(·)` of §4.3.
pub struct Proposer {
    config: Config,
    classes: OpcodeClasses,
    rng: StdRng,
}

impl Proposer {
    /// Create a proposer.
    pub fn new(config: Config, seed: u64) -> Proposer {
        let classes = OpcodeClasses::with_universe(config.opcode_pool.clone());
        Proposer {
            config,
            classes,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Access the random number generator (shared with the chain).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// A uniformly random rewrite of length ℓ (the starting point of the
    /// synthesis phase).
    pub fn random_rewrite(&mut self) -> Rewrite {
        let ell = self.config.ell;
        let mut r = Rewrite::empty(ell);
        for slot in 0..ell {
            if self.rng.gen::<f64>() < self.config.pu {
                continue;
            }
            r.slots[slot] = Some(self.random_instruction());
        }
        r
    }

    fn random_reg(&mut self, w: Width) -> Operand {
        let g = *self
            .config
            .register_pool
            .choose(&mut self.rng)
            .expect("non-empty register pool");
        Operand::Reg(g.view(w))
    }

    fn random_xmm(&mut self) -> Operand {
        Operand::Xmm(stoke_x86::Xmm(self.rng.gen_range(0..16)))
    }

    fn random_imm(&mut self) -> Operand {
        Operand::Imm(
            *self
                .config
                .immediate_pool
                .choose(&mut self.rng)
                .unwrap_or(&0),
        )
    }

    fn random_mem(&mut self) -> Operand {
        let base = *self
            .config
            .register_pool
            .choose(&mut self.rng)
            .expect("non-empty pool");
        let with_index = self.rng.gen_bool(0.3);
        let index = if with_index {
            Some(*self.config.register_pool.choose(&mut self.rng).unwrap())
        } else {
            None
        };
        // The scale is drawn even without an index, keeping the random
        // stream of earlier versions, but stored only where it is read:
        // an index-less address always has scale 1, as the parser makes
        // it, so a move that redraws only that scale is seen as a no-op.
        let drawn = *[Scale::S1, Scale::S2, Scale::S4, Scale::S8]
            .choose(&mut self.rng)
            .unwrap();
        let scale = if with_index { drawn } else { Scale::S1 };
        let disp = *[-16i32, -8, -4, 0, 4, 8, 16, 32]
            .choose(&mut self.rng)
            .unwrap();
        Operand::Mem(Mem {
            base: Some(base),
            index,
            scale,
            disp,
        })
    }

    /// A random operand acceptable in `slot`, with the same kind
    /// distribution used when undoing the move (register-preferred).
    fn random_operand_for_slot(&mut self, spec: &SlotSpec) -> Operand {
        // Collect the admissible kinds and pick one uniformly.
        let mut kinds = [0u8; 4];
        let mut n = 0;
        for (kind, admissible) in [spec.reg.is_some(), spec.imm, spec.mem, spec.xmm]
            .into_iter()
            .enumerate()
        {
            if admissible {
                kinds[n] = kind as u8;
                n += 1;
            }
        }
        match kinds[..n].choose(&mut self.rng) {
            Some(0) => self.random_reg(spec.reg.expect("checked")),
            Some(1) => self.random_imm(),
            Some(2) => self.random_mem(),
            Some(3) => self.random_xmm(),
            _ => Operand::Imm(0),
        }
    }

    /// A random operand of the *same kind* as `old` (the operand move's
    /// equivalence class).
    fn random_operand_same_kind(&mut self, old: &Operand) -> Operand {
        match old.kind() {
            OperandKind::Reg(w) => self.random_reg(w),
            OperandKind::Imm => self.random_imm(),
            OperandKind::Mem => self.random_mem(),
            OperandKind::Xmm => self.random_xmm(),
        }
    }

    /// A completely random instruction (used by the instruction move and
    /// by synthesis initialization).
    pub fn random_instruction(&mut self) -> Instruction {
        loop {
            let opcode = *self
                .classes
                .universe()
                .choose(&mut self.rng)
                .expect("non-empty opcode universe");
            let sig = opcode.signature();
            let mut operands = [Operand::Imm(0); MAX_OPERANDS];
            for (operand, spec) in operands.iter_mut().zip(sig) {
                *operand = self.random_operand_for_slot(spec);
            }
            // Reject the rare invalid combination (two memory operands).
            if let Ok(instr) = Instruction::new(opcode, &operands[..sig.len()]) {
                return instr;
            }
        }
    }

    /// Propose a modified rewrite (the proposal `R*` of §3.2). Returns the
    /// new rewrite and the move kind that produced it. A copy of `current`
    /// followed by [`propose_in_place`](Proposer::propose_in_place): the
    /// same candidate and the same RNG draws.
    pub fn propose(&mut self, current: &Rewrite) -> (Rewrite, MoveKind) {
        let mut next = current.clone();
        let (kind, _) = self.propose_in_place(&mut next);
        (next, kind)
    }

    /// Turn `rewrite` into the proposal `R*` in place, touching at most
    /// two slots, and return the move kind with the [`Undo`] that takes
    /// the move back. Allocates nothing.
    pub fn propose_in_place(&mut self, rewrite: &mut Rewrite) -> (MoveKind, Undo) {
        let cdf = self.config.move_cdf();
        let u = self.rng.gen::<f64>();
        let kind = if u < cdf[0] {
            MoveKind::Opcode
        } else if u < cdf[1] {
            MoveKind::Operand
        } else if u < cdf[2] {
            MoveKind::Swap
        } else {
            MoveKind::Instruction
        };
        let mut undo = Undo::default();
        match kind {
            MoveKind::Opcode => {
                if let Some(slot) = self.random_filled_slot(rewrite) {
                    let instr = rewrite.slots[slot].expect("filled slot");
                    let class = self.classes.class_of(&instr);
                    // Same RNG stream as `class.choose(rng)`: one draw
                    // when the class is non-empty, none otherwise.
                    if !class.is_empty() {
                        let op = class[self.rng.gen_range(0..class.len())];
                        undo.save(rewrite, slot);
                        rewrite.slots[slot] = Some(instr.with_opcode(op));
                    }
                }
            }
            MoveKind::Operand => {
                if let Some(slot) = self.random_filled_slot(rewrite) {
                    let instr = rewrite.slots[slot].expect("filled slot");
                    if !instr.operands().is_empty() {
                        let oi = self.rng.gen_range(0..instr.operands().len());
                        let new_operand = self.random_operand_same_kind(&instr.operands()[oi]);
                        let candidate = instr.with_operand(oi, new_operand);
                        // Keep the single-memory-operand invariant.
                        if candidate.is_valid() {
                            undo.save(rewrite, slot);
                            rewrite.slots[slot] = Some(candidate);
                        }
                    }
                }
            }
            MoveKind::Swap => {
                let a = self.rng.gen_range(0..rewrite.len());
                let b = self.rng.gen_range(0..rewrite.len());
                undo.save(rewrite, a);
                undo.save(rewrite, b);
                rewrite.slots.swap(a, b);
            }
            MoveKind::Instruction => {
                let slot = self.rng.gen_range(0..rewrite.len());
                let new = if self.rng.gen::<f64>() < self.config.pu {
                    None
                } else {
                    Some(self.random_instruction())
                };
                undo.save(rewrite, slot);
                rewrite.slots[slot] = new;
            }
        }
        (kind, undo)
    }

    /// A uniformly random non-`UNUSED` slot index, sampled by rank instead
    /// of materializing a `Vec<usize>` of filled slots per proposal. Draws
    /// from the RNG exactly like `filled.choose(rng)` did: one
    /// `gen_range` when any slot is filled, nothing otherwise.
    fn random_filled_slot(&mut self, r: &Rewrite) -> Option<usize> {
        let filled = r.num_instructions();
        if filled == 0 {
            return None;
        }
        let k = self.rng.gen_range(0..filled);
        r.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .nth(k)
            .map(|(i, _)| i)
    }
}

/// Re-decode the slots a move (or its revert) wrote.
fn redecode(decoded: &mut DecodeCache, rewrite: &Rewrite, undo: &Undo) {
    for slot in undo.slots() {
        decoded.set(slot, rewrite.slots[slot].as_ref());
    }
}

/// A record of one accepted or rejected proposal, for experiment traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Proposal index.
    pub iteration: u64,
    /// Cost of the current rewrite after the proposal was processed.
    pub cost: f64,
    /// Number of non-`UNUSED` instructions in the current rewrite.
    pub instructions: usize,
}

/// Why a chain's [`run`](Chain::run) returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The chain evaluated its full proposal budget.
    Completed,
    /// A pure-synthesis chain found a zero-cost rewrite and stopped early.
    ZeroCost,
    /// The session budget ran out or the search was cancelled mid-phase
    /// (see [`Budget`](crate::driver::Budget)).
    Interrupted,
}

/// Outcome of running a Markov chain.
#[derive(Debug, Clone)]
pub struct ChainResult {
    /// The lowest-cost rewrite seen.
    pub best: Rewrite,
    /// Its cost.
    pub best_cost: f64,
    /// The lowest-cost rewrite seen that also passed every test case
    /// (`eq' == 0`). The paper's re-rank step only considers such
    /// candidates: near-miss rewrites can undercut the target on total
    /// cost, so [`ChainResult::best`] alone may be incorrect.
    pub best_correct: Option<Rewrite>,
    /// Cost of [`ChainResult::best_correct`] (`f64::INFINITY` if none).
    pub best_correct_cost: f64,
    /// The current rewrite at the end of the run.
    pub last: Rewrite,
    /// Proposals evaluated.
    pub proposals: u64,
    /// Proposals accepted.
    pub accepted: u64,
    /// Proposal and acceptance counts split by move kind.
    pub moves: MoveStats,
    /// Evolution of the cost function (sampled sparsely).
    pub trace: Vec<TracePoint>,
    /// Test cases executed (for Figure 2 / Figure 5 style reporting).
    pub testcases_run: u64,
    /// Why the run returned.
    pub stop: StopReason,
}

/// The Metropolis–Hastings chain of §3.2/§4.5.
///
/// Scoring goes through a pluggable [`CostModel`]: by default the one
/// selected by the configuration's
/// [`cost_model`](crate::config::Config::cost_model) (its synthesis or
/// optimization variant depending on `use_perf`), or any model injected
/// with [`Chain::with_model`]. The chain moves one rewrite in place and
/// keeps its decoded form in a [`DecodeCache`]: a proposal re-decodes
/// only the slots it touched, the model scores the cache's dense
/// [`PreparedProgram`](stoke_emu::PreparedProgram) across all test
/// cases, and a rejection reverts the move with its [`Undo`]. In the
/// steady state a proposal allocates nothing.
pub struct Chain<'a> {
    cost_fn: &'a mut CostFn,
    model: Box<dyn CostModel>,
    proposer: Proposer,
    /// Whether the chain is an optimization chain (the configured model's
    /// optimization variant, and no zero-cost early stop) or a synthesis
    /// chain (correctness-only model, stopping at the first zero-cost
    /// rewrite).
    pub use_perf: bool,
    /// How often (in proposals) a trace point is recorded; 0 disables
    /// tracing.
    pub trace_every: u64,
}

impl<'a> Chain<'a> {
    /// Create a chain over a cost function, scoring with the model the
    /// configuration selects: its optimization variant when `use_perf`,
    /// its synthesis (correctness-only) variant otherwise.
    pub fn new(cost_fn: &'a mut CostFn, seed: u64, use_perf: bool) -> Chain<'a> {
        let model = if use_perf {
            cost_fn.config().cost_model.optimization_model()
        } else {
            cost_fn.config().cost_model.synthesis_model()
        };
        Chain::with_model(cost_fn, seed, use_perf, model)
    }

    /// Create a chain scoring with an explicit [`CostModel`], bypassing
    /// the configuration's selection.
    pub fn with_model(
        cost_fn: &'a mut CostFn,
        seed: u64,
        use_perf: bool,
        model: Box<dyn CostModel>,
    ) -> Chain<'a> {
        let config = cost_fn.config().clone();
        Chain {
            cost_fn,
            model,
            proposer: Proposer::new(config, seed),
            use_perf,
            trace_every: 0,
        }
    }

    /// Access the proposer (e.g. to draw a random starting rewrite).
    pub fn proposer_mut(&mut self) -> &mut Proposer {
        &mut self.proposer
    }

    /// Fully score the decoded rewrite through the chain's cost model.
    fn score(&mut self, decoded: &mut DecodeCache) -> Cost {
        self.model
            .score(&decoded.prepared(), &mut self.cost_fn.eval_context())
    }

    /// Run the chain for `iterations` proposals starting from `start`.
    pub fn run(&mut self, start: Rewrite, iterations: u64) -> ChainResult {
        self.run_controlled(start, iterations, &ChainControl::unbounded())
    }

    /// Run the chain for at most `iterations` proposals, checking the
    /// budget/cancellation clock of `ctrl` before each proposal and
    /// reporting periodic progress to its observer. This is the engine's
    /// preemption point: a wall-clock deadline, proposal budget, or
    /// cancellation token stops the chain mid-phase with
    /// [`StopReason::Interrupted`].
    pub fn run_controlled(
        &mut self,
        start: Rewrite,
        iterations: u64,
        ctrl: &ChainControl<'_>,
    ) -> ChainResult {
        let config = self.cost_fn.config().clone();
        // One rewrite, moved in place by each proposal and moved back on
        // rejection, with its decoded form kept in step slot by slot.
        let mut current = start;
        let mut decoded = DecodeCache::new(current.slots());
        let mut current_terms = self.score(&mut decoded);
        let mut current_cost = current_terms.total();
        // The best rewrites live in buffers allocated here and refreshed
        // with `clone_from`, so an improvement allocates nothing.
        let mut best = current.clone();
        let mut best_cost = current_cost;
        let mut best_correct = current.clone();
        let mut found_correct = current_terms.is_correct();
        let mut best_correct_cost = if found_correct {
            current_cost
        } else {
            f64::INFINITY
        };
        let mut accepted = 0u64;
        let mut proposals = 0u64;
        let mut moves = MoveStats::default();
        let mut trace = Vec::new();
        let mut stop = StopReason::Completed;
        let start_stats = self.cost_fn.stats;

        for iteration in 0..iterations {
            if !ctrl.admit_proposal() {
                stop = StopReason::Interrupted;
                break;
            }
            proposals += 1;
            let (kind, undo) = self.proposer.propose_in_place(&mut current);
            redecode(&mut decoded, &current, &undo);
            let accept = if config.early_termination {
                // §4.5: sample the acceptance threshold p first, derive the
                // maximum cost we could accept, and stop evaluating test
                // cases as soon as the bound is exceeded.
                let p: f64 = self.proposer.rng().gen::<f64>().max(1e-300);
                let bound = current_cost - p.ln() / config.beta;
                let prepared = decoded.prepared();
                let mut ctx = self.cost_fn.eval_context();
                let performance = self.model.perf_term(&prepared, &mut ctx);
                let eq_bound = bound - performance;
                if eq_bound < 0.0 {
                    None
                } else {
                    self.model
                        .correctness_term(&prepared, Some(eq_bound), &mut ctx)
                        .map(|correctness| Cost {
                            correctness,
                            performance,
                        })
                }
            } else {
                let cost = self.score(&mut decoded);
                let delta = cost.total() - current_cost;
                let p: f64 = self.proposer.rng().gen();
                if delta <= 0.0 || p < (-config.beta * delta).exp() {
                    Some(cost)
                } else {
                    None
                }
            };
            moves.record(kind, accept.is_some());
            match accept {
                Some(cost) => {
                    current_terms = cost;
                    current_cost = cost.total();
                    accepted += 1;
                    if current_cost < best_cost {
                        best.clone_from(&current);
                        best_cost = current_cost;
                    }
                    if cost.is_correct() && current_cost < best_correct_cost {
                        best_correct.clone_from(&current);
                        best_correct_cost = current_cost;
                        found_correct = true;
                    }
                }
                None => {
                    undo.revert(&mut current);
                    redecode(&mut decoded, &current, &undo);
                }
            }
            if self.trace_every > 0 && iteration % self.trace_every == 0 {
                trace.push(TracePoint {
                    iteration,
                    cost: current_cost,
                    instructions: current.num_instructions(),
                });
            }
            ctrl.maybe_report(proposals, |target, phase, chain| ChainProgress {
                target,
                phase,
                chain,
                proposals,
                iterations,
                current_cost,
                correctness: current_terms.correctness,
                performance: current_terms.performance,
                best_cost,
            });
            // Stop a pure-synthesis run as soon as a zero-cost rewrite is
            // found; further proposals cannot improve it.
            if !self.use_perf && best_cost == 0.0 {
                stop = StopReason::ZeroCost;
                break;
            }
        }
        ctrl.report_end(
            proposals,
            accepted,
            moves,
            self.cost_fn.stats.since(&start_stats),
        );
        ChainResult {
            best,
            best_cost,
            best_correct: found_correct.then_some(best_correct),
            best_correct_cost,
            last: current,
            proposals,
            accepted,
            moves,
            trace,
            testcases_run: self.cost_fn.stats.testcases_run - start_stats.testcases_run,
            stop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcase::{generate_testcases, TargetSpec};
    use stoke_x86::Gpr;

    fn cost_fn() -> CostFn {
        let target: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let spec = TargetSpec::with_gprs(target.clone(), &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
        let suite = generate_testcases(&spec, 8, 1);
        CostFn::new(Config::quick_test(), suite, target.static_latency())
    }

    // An index-less address used to keep the scale drawn for it, which no
    // semantics reads and `Display` drops: such an instruction printed
    // and parsed back came out unequal, and a move that redrew only that
    // scale did not compare equal to the rewrite it left unchanged.
    #[test]
    fn random_instructions_survive_printing_and_parsing() {
        let mut proposer = Proposer::new(Config::default(), 7);
        let mut with_mem = 0;
        for _ in 0..4000 {
            let instr = proposer.random_instruction();
            let text = instr.to_string();
            let parsed = stoke_x86::parse_instruction(&text, &Default::default()).unwrap();
            assert_eq!(parsed, instr, "{text}");
            with_mem += usize::from(instr.mem_operand().is_some());
        }
        assert!(with_mem > 100, "only {with_mem} memory operands drawn");
    }

    #[test]
    fn rewrite_roundtrips_through_program() {
        let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let r = Rewrite::from_program(&p, 10);
        assert_eq!(r.len(), 10);
        assert_eq!(r.num_instructions(), 2);
        assert_eq!(r.to_program(), p);
    }

    // Regression test: a target longer than ℓ used to be silently
    // truncated by `from_program`, making the optimization phase start
    // from (and potentially "improve") a different program than the
    // target. The rewrite must instead grow to hold every instruction.
    #[test]
    fn from_program_never_truncates_long_targets() {
        let p: Program = "
            movq rdi, rax
            addq rsi, rax
            addq rdx, rax
            addq rcx, rax
            addq r8, rax
        "
        .parse()
        .unwrap();
        let r = Rewrite::from_program(&p, 2);
        assert_eq!(r.len(), 5, "rewrite must grow past ell to fit the target");
        assert_eq!(r.num_instructions(), 5);
        assert_eq!(r.to_program(), p, "no instruction may be dropped");
    }

    #[test]
    fn proposals_preserve_length_and_validity() {
        let mut cf = cost_fn();
        let mut chain = Chain::new(&mut cf, 3, false);
        let mut r = chain.proposer_mut().random_rewrite();
        for _ in 0..2000 {
            let (next, _) = chain.proposer_mut().propose(&r);
            assert_eq!(next.len(), r.len());
            // Every filled slot must be a valid instruction.
            for slot in next.slots().iter().flatten() {
                assert!(
                    Instruction::new(slot.opcode(), slot.operands()).is_ok(),
                    "invalid instruction proposed: {}",
                    slot
                );
            }
            r = next;
        }
    }

    #[test]
    fn all_move_kinds_are_exercised() {
        let mut cf = cost_fn();
        let mut chain = Chain::new(&mut cf, 11, false);
        let r = chain.proposer_mut().random_rewrite();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let (_, kind) = chain.proposer_mut().propose(&r);
            seen.insert(kind);
        }
        assert_eq!(
            seen.len(),
            4,
            "expected all four move kinds, saw {:?}",
            seen
        );
    }

    #[test]
    fn chain_improves_cost_from_random_start() {
        let mut cf = cost_fn();
        let mut chain = Chain::new(&mut cf, 5, false);
        let start = chain.proposer_mut().random_rewrite();
        let start_cost = {
            let instrs = start.instructions();
            chain.cost_fn.eq_prime(&instrs) as f64
        };
        let result = chain.run(start, 5_000);
        assert!(
            result.best_cost <= start_cost,
            "MCMC must not make the best seen cost worse"
        );
        assert!(result.accepted > 0, "some proposals must be accepted");
    }

    #[test]
    fn optimization_keeps_correctness_at_zero_cost() {
        // Starting from the (correct) target, the best rewrite must stay
        // correct while possibly getting faster.
        let target: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let mut cf = cost_fn();
        let mut chain = Chain::new(&mut cf, 7, true);
        let start = Rewrite::from_program(&target, 8);
        let result = chain.run(start, 10_000);
        let best_instrs = result.best.instructions();
        assert_eq!(
            chain.cost_fn.eq_prime(&best_instrs),
            0,
            "best rewrite must remain correct"
        );
    }

    #[test]
    fn synthesis_finds_trivial_kernel() {
        // A target computing rax = rdi is easy enough for a short random
        // search to synthesize from scratch.
        let target: Program = "movq rdi, rax".parse().unwrap();
        let spec = TargetSpec::with_gprs(target.clone(), &[Gpr::Rdi], &[Gpr::Rax]);
        let suite = generate_testcases(&spec, 8, 2);
        // Restrict the opcode universe to the scalar 64-bit data-movement
        // and ALU instructions so the (deliberately tiny) synthesis budget
        // suffices; the full universe is exercised by the larger runs in
        // the experiment harness.
        let pool: Vec<stoke_x86::Opcode> = stoke_x86::Opcode::all()
            .into_iter()
            .filter(|o| {
                matches!(
                    o,
                    stoke_x86::Opcode::Mov(Width::Q)
                        | stoke_x86::Opcode::Alu(_, Width::Q)
                        | stoke_x86::Opcode::Lea(Width::Q)
                        | stoke_x86::Opcode::Xchg(Width::Q)
                )
            })
            .collect();
        let config = Config {
            ell: 4,
            opcode_pool: pool,
            ..Config::quick_test()
        };
        let mut cf = CostFn::new(config, suite, target.static_latency());
        let mut chain = Chain::new(&mut cf, 13, false);
        let start = Rewrite::empty(4);
        let result = chain.run(start, 100_000);
        assert_eq!(
            result.best_cost, 0.0,
            "synthesis should find a zero-cost rewrite"
        );
        // And the found rewrite really computes the identity on the cases.
        let best = result.best.instructions();
        assert_eq!(chain.cost_fn.eq_prime(&best), 0);
    }

    #[test]
    fn early_termination_reduces_testcase_work() {
        let mut cf1 = cost_fn();
        let mut cf2 = cost_fn();
        let start;
        {
            let mut chain = Chain::new(&mut cf1, 17, false);
            start = chain.proposer_mut().random_rewrite();
            chain.run(start.clone(), 3_000);
        }
        let with_early = cf1.stats.testcases_run;
        {
            let mut cf2cfg = cf2.config().clone();
            cf2cfg.early_termination = false;
            *cf2.config_mut() = cf2cfg;
            let mut chain = Chain::new(&mut cf2, 17, false);
            chain.run(start, 3_000);
        }
        let without_early = cf2.stats.testcases_run;
        assert!(
            with_early < without_early,
            "early termination ({}) should evaluate fewer test cases than full evaluation ({})",
            with_early,
            without_early
        );
    }
}
