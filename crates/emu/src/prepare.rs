//! The decode-once form of an instruction sequence.
//!
//! The MCMC inner loop evaluates one candidate rewrite on *every* test
//! case of a suite, and the interpreter ([`run_instrs`](crate::run_instrs))
//! repeats per-instruction work on each case that does not depend on the
//! machine state at all — most importantly the def/use analysis behind the
//! undefined-read fault counter of Equation 11, which allocates fresh use
//! lists on every step. [`PreparedProgram`] hoists that work out of the
//! per-case loop: an instruction sequence is decoded once (typically once
//! per MCMC proposal) into a dense, pre-resolved form, and
//! [`run_prepared`](PreparedProgram::run_prepared) then executes it across
//! all test cases. The batched engine ([`crate::batch`]) builds its handler
//! table from the same decoded form.
//!
//! Execution semantics are shared with the interpreter — both paths drive
//! the same sandboxed step function — so the two cannot drift apart; `run_prepared` is bit-identical to `run_instrs` by construction
//! (and by the randomized property test `prop_prepared` at the workspace
//! root).

use crate::exec::{Cpu, Emulator, Outcome};
use crate::state::MachineState;
use stoke_x86::{Flag, Instruction, Program, Reg, Xmm};

/// Per-instruction half-open ranges into the flattened use lists of a
/// [`PreparedProgram`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UseSpans {
    pub(crate) gpr: (u32, u32),
    pub(crate) xmm: (u32, u32),
    pub(crate) flag: (u32, u32),
}

/// An instruction sequence decoded once into a dense, pre-resolved form
/// that can be executed many times.
///
/// Preparation drops any notion of `UNUSED` slots (callers pass only the
/// live instructions), precomputes every instruction's register/flag use
/// sets for the undefined-read counter, and caches the static latency
/// `H(R)` of Equation 13.
///
/// ```
/// use stoke_emu::{run_instrs, PreparedProgram};
/// use stoke_emu::state::MachineState;
/// use stoke_x86::{Gpr, Program};
///
/// let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
/// let prepared = PreparedProgram::of_program(&p);
/// let mut input = MachineState::new();
/// input.set_gpr64(Gpr::Rdi, 2);
/// input.set_gpr64(Gpr::Rsi, 40);
/// // One prepare, many runs — each bit-identical to the interpreter.
/// for _ in 0..3 {
///     let out = prepared.run_prepared(&input);
///     assert_eq!(out.state, run_instrs(p.instrs(), &input).state);
///     assert_eq!(out.state.read_gpr64(Gpr::Rax), 42);
/// }
/// assert_eq!(prepared.static_latency(), p.static_latency());
/// ```
#[derive(Debug, Clone)]
pub struct PreparedProgram<'a> {
    // Crate-visible so the batched engine (`crate::batch`) can reuse the
    // decoded form — instruction list, flattened use lists and spans —
    // without re-deriving it per proposal.
    pub(crate) instrs: Vec<&'a Instruction>,
    pub(crate) gpr_uses: Vec<Reg>,
    pub(crate) xmm_uses: Vec<Xmm>,
    pub(crate) flag_uses: Vec<Flag>,
    pub(crate) spans: Vec<UseSpans>,
    latency: u64,
}

impl<'a> PreparedProgram<'a> {
    /// Prepare a sequence of instructions (borrowed; preparation performs
    /// the per-proposal decode so that per-test-case execution does no
    /// analysis work and no allocation beyond the machine state itself).
    pub fn new(instrs: impl IntoIterator<Item = &'a Instruction>) -> PreparedProgram<'a> {
        let instrs: Vec<&'a Instruction> = instrs.into_iter().collect();
        let mut prepared = PreparedProgram {
            gpr_uses: Vec::new(),
            xmm_uses: Vec::new(),
            flag_uses: Vec::new(),
            spans: Vec::with_capacity(instrs.len()),
            latency: 0,
            instrs,
        };
        for instr in &prepared.instrs {
            let gpr_start = prepared.gpr_uses.len() as u32;
            instr.gpr_uses_into(&mut prepared.gpr_uses);
            let xmm_start = prepared.xmm_uses.len() as u32;
            instr.xmm_uses_into(&mut prepared.xmm_uses);
            let flag_start = prepared.flag_uses.len() as u32;
            prepared.flag_uses.extend(instr.flag_uses());
            prepared.spans.push(UseSpans {
                gpr: (gpr_start, prepared.gpr_uses.len() as u32),
                xmm: (xmm_start, prepared.xmm_uses.len() as u32),
                flag: (flag_start, prepared.flag_uses.len() as u32),
            });
            prepared.latency += u64::from(instr.latency());
        }
        prepared
    }

    /// Prepare a whole [`Program`].
    pub fn of_program(program: &'a Program) -> PreparedProgram<'a> {
        PreparedProgram::new(program.iter())
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the prepared sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The prepared instructions, in execution order.
    pub fn instructions(&self) -> impl Iterator<Item = &'a Instruction> + '_ {
        self.instrs.iter().copied()
    }

    /// The cached static latency `H(R)` (Equation 13): the sum of every
    /// instruction's latency, including memory-access penalties.
    pub fn static_latency(&self) -> u64 {
        self.latency
    }

    /// The precomputed register uses of instruction `index` (same elements
    /// and order as [`Instruction::gpr_uses`]). Static analyses can read
    /// these instead of re-deriving use sets per proposal.
    pub fn gpr_uses_of(&self, index: usize) -> &[Reg] {
        let span = self.spans[index].gpr;
        &self.gpr_uses[span.0 as usize..span.1 as usize]
    }

    /// The precomputed xmm uses of instruction `index`.
    pub fn xmm_uses_of(&self, index: usize) -> &[Xmm] {
        let span = self.spans[index].xmm;
        &self.xmm_uses[span.0 as usize..span.1 as usize]
    }

    /// The precomputed flag uses of instruction `index`.
    pub fn flag_uses_of(&self, index: usize) -> &[Flag] {
        let span = self.spans[index].flag;
        &self.flag_uses[span.0 as usize..span.1 as usize]
    }

    /// Run the prepared sequence from `input`, sandboxing all undefined
    /// behaviour exactly as [`run_instrs`](crate::run_instrs) does.
    pub fn run_prepared(&self, input: &MachineState) -> Outcome {
        let mut emu = Emulator::start(input);
        for (instr, spans) in self.instrs.iter().zip(&self.spans) {
            // The undefined-read counter of Equation 11, over the
            // precomputed use lists (same elements, same order as the
            // interpreter's per-step analysis).
            for r in &self.gpr_uses[spans.gpr.0 as usize..spans.gpr.1 as usize] {
                if !emu.state.gpr_is_defined(r.parent()) {
                    emu.faults.undef += 1;
                }
            }
            for x in &self.xmm_uses[spans.xmm.0 as usize..spans.xmm.1 as usize] {
                if !emu.state.xmm_is_defined(*x) {
                    emu.faults.undef += 1;
                }
            }
            for f in &self.flag_uses[spans.flag.0 as usize..spans.flag.1 as usize] {
                if !emu.state.flag_is_defined(*f) {
                    emu.faults.undef += 1;
                }
            }
            emu.execute(instr);
        }
        emu.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_instrs;
    use stoke_x86::Gpr;

    fn input() -> MachineState {
        let mut s = MachineState::new();
        s.set_gpr64(Gpr::Rdi, 7);
        s.set_gpr64(Gpr::Rsi, 35);
        s
    }

    #[test]
    fn prepared_matches_interpreter_on_clean_code() {
        let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let a = prepared.run_prepared(&input());
        let b = run_instrs(p.instrs(), &input());
        assert_eq!(a.state, b.state);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.state.read_gpr64(Gpr::Rax), 42);
        assert_eq!(prepared.len(), 2);
        assert!(!prepared.is_empty());
    }

    #[test]
    fn prepared_counts_faults_identically() {
        // Undefined reads (rbx, flags before adc), a wild load, and a
        // divide by zero, all in one program.
        let p: Program = "addq rbx, rdi\nmovq (rbx), rcx\nxorq rdx, rdx\ndivq rdx"
            .parse()
            .unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let a = prepared.run_prepared(&input());
        let b = run_instrs(p.instrs(), &input());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.state, b.state);
        assert!(a.faults.undef > 0);
        assert_eq!(a.faults.sigsegv, 1);
        assert_eq!(a.faults.sigfpe, 1);
    }

    #[test]
    fn prepared_latency_matches_program_latency() {
        let p: Program = "movq rdi, -8(rsp)\nmovq -8(rsp), rax\naddq rsi, rax"
            .parse()
            .unwrap();
        assert_eq!(
            PreparedProgram::of_program(&p).static_latency(),
            p.static_latency()
        );
    }

    #[test]
    fn empty_program_prepares_to_identity() {
        let prepared = PreparedProgram::new(std::iter::empty());
        assert!(prepared.is_empty());
        assert_eq!(prepared.static_latency(), 0);
        let out = prepared.run_prepared(&input());
        assert_eq!(out.state, input());
        assert!(out.faults.is_clean());
    }
}
