//! The decode-once form of an instruction sequence.
//!
//! The MCMC inner loop evaluates one candidate rewrite on *every* test
//! case of a suite, and the interpreter ([`run_instrs`](crate::run_instrs))
//! repeats per-instruction work on each case that does not depend on the
//! machine state at all — most importantly the read recording behind the
//! undefined-read fault counter of Equation 11. This module hoists that
//! work out of the per-case loop:
//!
//! - [`Decoded`] is one instruction decoded once: the instruction itself,
//!   the locations it reads and its latency. [`Decoded::new`]
//!   is the crate's only per-instruction decode.
//! - [`PreparedProgram`] is a dense sequence of decoded entries, executed
//!   across all test cases in lockstep
//!   ([`run_lockstep`](PreparedProgram::run_lockstep), see
//!   [`crate::batch`]).
//! - [`DecodeCache`] keeps the decoded form of a slot vector with `UNUSED`
//!   slots (an MCMC rewrite) in sync one slot at a time, so a proposal
//!   that changes one or two slots re-decodes one or two instructions, and
//!   lends its dense form as a borrowed [`PreparedProgram`].
//!
//! Execution semantics are shared with the interpreter: the batched
//! engine runs the one shared definition, [`stoke_x86::execute`], and the
//! interpreter is its oracle (the randomized property suite
//! `prop_batched` at the workspace root).

use crate::batch::BatchState;
use crate::exec::Outcome;
use crate::state::MachineState;
use std::borrow::Cow;
use stoke_x86::flow::{Access, LocSet};
use stoke_x86::{Instruction, Program};

/// One instruction decoded once for execution: the instruction, the
/// locations it reads (its [`Access`] recording, for the undefined-read
/// counter) and its latency.
///
/// A `Decoded` owns no heap memory, so a decoded program can be patched
/// and rebuilt without allocating.
#[derive(Debug, Clone, PartialEq)]
pub struct Decoded {
    instr: Instruction,
    reads: LocSet,
    latency: u32,
}

impl Decoded {
    /// Decode one instruction. Every decoded form in the crate — a
    /// [`PreparedProgram`] and each slot of a [`DecodeCache`] — is built by
    /// this function.
    pub fn new(instr: &Instruction) -> Decoded {
        let access = Access::of(instr);
        Decoded {
            instr: *instr,
            latency: access.latency(instr.opcode()),
            reads: access.reads,
        }
    }

    /// The decoded instruction.
    pub fn instruction(&self) -> &Instruction {
        &self.instr
    }

    /// The locations the instruction reads ([`Access::reads`]).
    pub fn reads(&self) -> &LocSet {
        &self.reads
    }

    /// The instruction's latency (`LATENCY(i)` of Equation 13).
    pub fn latency(&self) -> u32 {
        self.latency
    }
}

/// An instruction sequence decoded once into a dense, pre-resolved form
/// that can be executed many times across a whole batch of test cases in
/// lockstep.
///
/// Preparation drops any notion of `UNUSED` slots (callers pass only the
/// live instructions), decodes every instruction with [`Decoded::new`],
/// and caches the static latency `H(R)` of Equation 13. The decoded
/// entries are owned when built by [`new`](PreparedProgram::new) and
/// borrowed when a [`DecodeCache`] lends its dense form.
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
///     let out = &prepared.run_batch([&input])[0];
///     assert_eq!(out.state, run_instrs(p.instrs(), &input).state);
///     assert_eq!(out.state.read_gpr64(Gpr::Rax), 42);
/// }
/// assert_eq!(prepared.static_latency(), p.static_latency());
/// ```
#[derive(Debug, Clone)]
pub struct PreparedProgram<'a> {
    decoded: Cow<'a, [Decoded]>,
    latency: u64,
}

impl<'a> PreparedProgram<'a> {
    /// Prepare a sequence of instructions: decode each once, so that
    /// execution does no analysis work.
    pub fn new<'i>(instrs: impl IntoIterator<Item = &'i Instruction>) -> PreparedProgram<'a> {
        let decoded: Vec<Decoded> = instrs.into_iter().map(Decoded::new).collect();
        let latency = decoded.iter().map(|d| u64::from(d.latency)).sum();
        PreparedProgram {
            decoded: Cow::Owned(decoded),
            latency,
        }
    }

    /// Prepare a whole [`Program`].
    pub fn of_program(program: &Program) -> PreparedProgram<'a> {
        PreparedProgram::new(program.iter())
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.decoded.len()
    }

    /// Whether the prepared sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.decoded.is_empty()
    }

    /// The prepared instructions, in execution order.
    pub fn instructions(&self) -> impl Iterator<Item = &Instruction> + '_ {
        self.decoded.iter().map(Decoded::instruction)
    }

    /// The decoded entries, in execution order: each instruction with its
    /// precomputed reads and latency. Static analyses can read these
    /// instead of re-deriving use sets per proposal.
    pub fn decoded(&self) -> &[Decoded] {
        &self.decoded
    }

    /// The cached static latency `H(R)` (Equation 13): the sum of every
    /// instruction's latency, including memory-access penalties.
    pub fn static_latency(&self) -> u64 {
        self.latency
    }

    /// Run the program across all live columns of `state`, in lockstep:
    /// instruction 0 on every column, then instruction 1, and so on.
    /// Columns killed before the call stay dead; execution stops early if
    /// no column is live.
    pub fn run_lockstep(&self, state: &mut BatchState) {
        self.run_lockstep_with(state, |_| true);
    }

    /// [`run_lockstep`](PreparedProgram::run_lockstep) with a
    /// per-instruction-step predicate: after each instruction has been
    /// applied to every live column, `after_step` may inspect the batch,
    /// [`kill`](BatchState::kill) columns that a cost bound has already
    /// ruled out (the §4.5 early exit), and return `false` to abandon the
    /// whole run.
    pub fn run_lockstep_with(
        &self,
        state: &mut BatchState,
        mut after_step: impl FnMut(&mut BatchState) -> bool,
    ) {
        for d in self.decoded.iter() {
            if state.live_columns() == 0 {
                return;
            }
            state.step(d);
            if !after_step(state) {
                return;
            }
        }
    }

    /// Convenience entry point: load `inputs` into a fresh batch, run to
    /// completion, and extract one [`Outcome`] per column — the batched
    /// equivalent of calling [`run_instrs`](crate::run_instrs) per input.
    /// Hot paths should instead hold a reusable [`BatchState`] and call
    /// [`load`](BatchState::load) + [`run_lockstep`](Self::run_lockstep).
    ///
    /// ```
    /// use stoke_emu::{MachineState, PreparedProgram};
    /// use stoke_x86::{Gpr, Program};
    ///
    /// let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
    /// let prepared = PreparedProgram::of_program(&p);
    /// let inputs: Vec<MachineState> = (0..4)
    ///     .map(|i| {
    ///         let mut s = MachineState::new();
    ///         s.set_gpr64(Gpr::Rdi, i);
    ///         s.set_gpr64(Gpr::Rsi, 40);
    ///         s
    ///     })
    ///     .collect();
    /// for (i, out) in prepared.run_batch(&inputs).iter().enumerate() {
    ///     assert_eq!(out.state.read_gpr64(Gpr::Rax), 40 + i as u64);
    ///     assert!(out.faults.is_clean());
    /// }
    /// ```
    pub fn run_batch<'s, I>(&self, inputs: I) -> Vec<Outcome>
    where
        I: IntoIterator<Item = &'s MachineState>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut state = BatchState::new();
        state.load(inputs);
        self.run_lockstep(&mut state);
        (0..state.width())
            .map(|col| Outcome {
                state: state.column_state(col),
                faults: state.faults(col),
            })
            .collect()
    }
}

/// The decoded form of a fixed-length slot vector whose slots are either
/// an instruction or `UNUSED` (`None`) — an MCMC rewrite — kept in sync
/// one slot at a time.
///
/// [`set`](DecodeCache::set) re-decodes one slot and updates the cached
/// `H(R)` by delta; [`prepared`](DecodeCache::prepared) lends the dense
/// form (`UNUSED` slots dropped) as a borrowed [`PreparedProgram`]. The
/// dense buffer is patched in place when a slot changes from one
/// instruction to another, and rebuilt by copying entries into the same
/// buffer when the set of filled slots changes. After construction
/// nothing here allocates.
///
/// ```
/// use stoke_emu::{DecodeCache, PreparedProgram};
/// use stoke_x86::Program;
///
/// let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
/// let mut slots: Vec<_> = p.iter().copied().map(Some).collect();
/// slots.push(None);
/// let mut cache = DecodeCache::new(&slots);
/// slots.swap(1, 2);
/// cache.set(1, slots[1].as_ref());
/// cache.set(2, slots[2].as_ref());
/// let fresh = PreparedProgram::new(slots.iter().flatten());
/// assert_eq!(cache.prepared().decoded(), fresh.decoded());
/// assert_eq!(cache.prepared().static_latency(), fresh.static_latency());
/// ```
#[derive(Debug, Clone)]
pub struct DecodeCache {
    slots: Vec<Option<Decoded>>,
    dense: Vec<Decoded>,
    latency: u64,
    /// Whether `dense` no longer lists the filled slots in order.
    stale: bool,
}

impl DecodeCache {
    /// Decode every slot.
    pub fn new(slots: &[Option<Instruction>]) -> DecodeCache {
        let slots: Vec<Option<Decoded>> = slots
            .iter()
            .map(|slot| slot.as_ref().map(Decoded::new))
            .collect();
        let latency = slots.iter().flatten().map(|d| u64::from(d.latency)).sum();
        DecodeCache {
            dense: Vec::with_capacity(slots.len()),
            slots,
            latency,
            stale: true,
        }
    }

    /// Re-decode slot `slot`, which now holds `instr` (`None` for
    /// `UNUSED`).
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn set(&mut self, slot: usize, instr: Option<&Instruction>) {
        let new = instr.map(Decoded::new);
        self.latency += new.as_ref().map_or(0, |d| u64::from(d.latency));
        let old = std::mem::replace(&mut self.slots[slot], new);
        self.latency -= old.as_ref().map_or(0, |d| u64::from(d.latency));
        match (old, &self.slots[slot]) {
            (Some(_), Some(d)) if !self.stale => {
                // Same filled slots: the entry keeps its dense position.
                let rank = self.slots[..slot].iter().flatten().count();
                self.dense[rank] = d.clone();
            }
            (None, None) => {}
            _ => self.stale = true,
        }
    }

    /// The dense decoded program, borrowed from the cache.
    pub fn prepared(&mut self) -> PreparedProgram<'_> {
        if self.stale {
            self.dense.clear();
            self.dense.extend(self.slots.iter().flatten().cloned());
            self.stale = false;
        }
        PreparedProgram {
            decoded: Cow::Borrowed(&self.dense),
            latency: self.latency,
        }
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

    /// One column of a prepared program's batched run.
    fn run_one(prepared: &PreparedProgram<'_>, input: &MachineState) -> Outcome {
        prepared.run_batch([input]).remove(0)
    }

    #[test]
    fn prepared_matches_interpreter_on_clean_code() {
        let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let a = run_one(&prepared, &input());
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
        let a = run_one(&prepared, &input());
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
        let out = run_one(&prepared, &input());
        assert_eq!(out.state, input());
        assert!(out.faults.is_clean());
    }

    #[test]
    fn decoded_use_lists_match_instruction_metadata() {
        // A memory divide (two address registers plus rdx:rax), a store
        // through a base+index address, a two-source SSE op and a read of
        // CF.
        let p: Program =
            "divq (rsi,rcx,8)\nmovq rax, (rsi,rcx,1)\nshufps 0, xmm1, xmm0\nadcq rdi, rax"
                .parse()
                .unwrap();
        for (d, instr) in PreparedProgram::of_program(&p)
            .decoded()
            .iter()
            .zip(p.iter())
        {
            assert_eq!(d.instruction(), instr);
            assert_eq!(*d.reads(), Access::of(instr).reads);
            assert_eq!(d.latency(), instr.latency());
        }
    }

    #[test]
    fn decode_cache_tracks_slot_edits() {
        let p: Program = "movq rdi, rax\naddq rsi, rax\nsubq rdi, rax"
            .parse()
            .unwrap();
        let other: Program = "imulq rsi, rax".parse().unwrap();
        let mut slots: Vec<Option<Instruction>> = p.iter().copied().map(Some).collect();
        slots.insert(1, None);
        let mut cache = DecodeCache::new(&slots);
        let edits: [(usize, Option<Instruction>); 5] = [
            (2, Some(other.instrs()[0])), // in-place patch
            (1, Some(p.instrs()[2])),     // UNUSED -> filled
            (0, None),                    // filled -> UNUSED
            (1, None),
            (3, Some(p.instrs()[0])),
        ];
        for (slot, instr) in edits {
            slots[slot] = instr;
            cache.set(slot, instr.as_ref());
            let fresh = PreparedProgram::new(slots.iter().flatten());
            let lent = cache.prepared();
            assert_eq!(lent.decoded(), fresh.decoded());
            assert_eq!(lent.static_latency(), fresh.static_latency());
        }
    }
}
