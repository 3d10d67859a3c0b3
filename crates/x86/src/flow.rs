//! Dataflow over straight-line code: register/flag definition and use
//! sets, and backward liveness analysis.
//!
//! Liveness is computed at the granularity of 64-bit architectural
//! registers (a use of `eax` is a use of `rax`), which is the granularity
//! at which the cost function and the validator compare machine states.

use crate::instr::Instruction;
use crate::opcode::{AluOp, Opcode};
use crate::operand::Operand;
use crate::program::Program;
use crate::reg::{Flag, Gpr, Xmm};
use std::collections::BTreeSet;

/// A set of live locations: general purpose registers, SSE registers and
/// flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LocSet {
    /// Live general purpose registers (at 64-bit granularity).
    pub gprs: BTreeSet<Gpr>,
    /// Live SSE registers.
    pub xmms: BTreeSet<Xmm>,
    /// Live flags.
    pub flags: BTreeSet<Flag>,
}

impl LocSet {
    /// An empty location set.
    pub fn new() -> LocSet {
        LocSet::default()
    }

    /// A set containing only the given general purpose registers.
    pub fn from_gprs(gprs: impl IntoIterator<Item = Gpr>) -> LocSet {
        LocSet {
            gprs: gprs.into_iter().collect(),
            ..LocSet::default()
        }
    }

    /// Whether no location is live.
    pub fn is_empty(&self) -> bool {
        self.gprs.is_empty() && self.xmms.is_empty() && self.flags.is_empty()
    }

    /// Number of live locations.
    pub fn len(&self) -> usize {
        self.gprs.len() + self.xmms.len() + self.flags.len()
    }

    /// Insert all locations from `other`.
    pub fn union_with(&mut self, other: &LocSet) {
        self.gprs.extend(other.gprs.iter().copied());
        self.xmms.extend(other.xmms.iter().copied());
        self.flags.extend(other.flags.iter().copied());
    }
}

/// The locations read by an instruction (at 64-bit register granularity).
pub fn uses(instr: &Instruction) -> LocSet {
    let mut s = LocSet::new();
    for r in instr.gpr_uses() {
        s.gprs.insert(r.parent());
    }
    for x in instr.xmm_uses() {
        s.xmms.insert(x);
    }
    for f in instr.flag_uses() {
        s.flags.insert(*f);
    }
    s
}

/// The locations written by an instruction.
///
/// A write to a 32-bit register view counts as a definition of the full
/// 64-bit register (the upper half is zeroed); writes to 8-bit views do
/// *not* kill the parent register (the upper bits are preserved), so they
/// are not included in the kill set used by liveness, but they are still
/// definitions. The `partial` flag distinguishes the two.
pub fn defs(instr: &Instruction) -> (LocSet, LocSet) {
    let mut full = LocSet::new();
    let mut partial = LocSet::new();
    for r in instr.gpr_defs() {
        match r.width() {
            crate::reg::Width::B | crate::reg::Width::W => {
                partial.gprs.insert(r.parent());
            }
            _ => {
                full.gprs.insert(r.parent());
            }
        }
    }
    for x in instr.xmm_defs() {
        full.xmms.insert(x);
    }
    for f in instr.flag_defs() {
        full.flags.insert(*f);
    }
    (full, partial)
}

/// Whether the instruction is a zeroing idiom (`xor r, r` / `sub r, r`):
/// its result is the constant zero whatever the register holds, so no
/// value it reads flows into what it writes. Both taint analyses (the
/// static one in `stoke-analysis` and the emulator's dynamic oracle)
/// apply this rule.
pub fn is_zeroing_idiom(instr: &Instruction) -> bool {
    if !matches!(
        instr.opcode(),
        Opcode::Alu(AluOp::Xor, _) | Opcode::Alu(AluOp::Sub, _)
    ) {
        return false;
    }
    match instr.operands() {
        [Operand::Reg(a), Operand::Reg(b)] => a == b,
        _ => false,
    }
}

/// Backward liveness over a straight-line program.
///
/// Returns, for each instruction index, the set of locations live
/// *before* that instruction; index `len()` (conceptually) corresponds to
/// `live_out` itself. The returned vector has `program.len() + 1` entries
/// with the last entry equal to `live_out`.
pub fn liveness(program: &Program, live_out: &LocSet) -> Vec<LocSet> {
    let n = program.len();
    let mut live = vec![LocSet::new(); n + 1];
    live[n] = live_out.clone();
    for i in (0..n).rev() {
        let instr = &program.instrs()[i];
        let mut cur = live[i + 1].clone();
        let (full_defs, _partial) = defs(instr);
        for g in &full_defs.gprs {
            cur.gprs.remove(g);
        }
        for x in &full_defs.xmms {
            cur.xmms.remove(x);
        }
        for f in &full_defs.flags {
            cur.flags.remove(f);
        }
        cur.union_with(&uses(instr));
        live[i] = cur;
    }
    live
}

/// The live-in set of a program given its live-out set: the locations
/// whose initial values may influence the live outputs. This is the
/// paper's "live inputs with respect to the target".
pub fn live_inputs(program: &Program, live_out: &LocSet) -> LocSet {
    liveness(program, live_out)
        .into_iter()
        .next()
        .unwrap_or_default()
}

/// Instruction indices whose results cannot influence the live outputs
/// (dead code). Useful for sanity checks on generated baselines.
pub fn dead_instructions(program: &Program, live_out: &LocSet) -> Vec<usize> {
    let live = liveness(program, live_out);
    let mut dead = Vec::new();
    for (i, instr) in program.instrs().iter().enumerate() {
        if instr.stores() {
            continue; // stores are always observable
        }
        let after = &live[i + 1];
        let (full, partial) = defs(instr);
        let writes_live = full
            .gprs
            .iter()
            .chain(partial.gprs.iter())
            .any(|g| after.gprs.contains(g))
            || full.xmms.iter().any(|x| after.xmms.contains(x))
            || full.flags.iter().any(|f| after.flags.contains(f));
        if !writes_live && instr.opcode().writes_dst() {
            dead.push(i);
        }
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::build;
    use crate::opcode::{AluOp, Cond};
    use crate::reg::Width;

    fn live_rax() -> LocSet {
        LocSet::from_gprs([Gpr::Rax])
    }

    #[test]
    fn straight_line_liveness() {
        // movq rdi, rax ; addq rsi, rax   with rax live out
        let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let live = liveness(&p, &live_rax());
        assert!(live[0].gprs.contains(&Gpr::Rdi));
        assert!(live[0].gprs.contains(&Gpr::Rsi));
        assert!(
            !live[0].gprs.contains(&Gpr::Rax),
            "rax is killed by the first mov"
        );
        assert!(live[1].gprs.contains(&Gpr::Rax));
    }

    #[test]
    fn flag_liveness_through_adc() {
        // addq rsi, rax sets CF which adcq consumes.
        let p: Program = "addq rsi, rax\nadcq 0, rdx".parse().unwrap();
        let live = liveness(&p, &LocSet::from_gprs([Gpr::Rax, Gpr::Rdx]));
        assert!(live[1].flags.contains(&Flag::Cf));
        assert!(!live[0].flags.contains(&Flag::Cf), "CF defined by addq");
    }

    #[test]
    fn cmov_reads_flags() {
        let p: Program = "cmpl edi, ecx\ncmovel esi, ecx".parse().unwrap();
        let live = liveness(&p, &LocSet::from_gprs([Gpr::Rcx]));
        assert!(live[1].flags.contains(&Flag::Zf));
        assert!(live[0].gprs.contains(&Gpr::Rdi));
        assert!(live[0].gprs.contains(&Gpr::Rsi));
        assert!(live[0].gprs.contains(&Gpr::Rcx));
    }

    #[test]
    fn byte_write_does_not_kill() {
        // sete dl only writes the low byte of rdx, so rdx stays live above.
        let p: Program = "sete dl".parse().unwrap();
        let live = liveness(&p, &LocSet::from_gprs([Gpr::Rdx]));
        assert!(live[0].gprs.contains(&Gpr::Rdx));
        assert!(live[0].flags.contains(&Flag::Zf));
    }

    #[test]
    fn live_inputs_montgomery() {
        // The Montgomery multiplication rewrite reads rsi, rcx, rdx, rdi, r8.
        let text = "
            shlq 32, rcx
            mov edx, edx
            xorq rdx, rcx
            movq rcx, rax
            mulq rsi
            addq r8, rdi
            adcq 0, rdx
            addq rdi, rax
            adcq 0, rdx
            movq rdx, r8
            movq rax, rdi
        ";
        let p: Program = text.parse().unwrap();
        let ins = live_inputs(&p, &LocSet::from_gprs([Gpr::Rdi, Gpr::R8]));
        for g in [Gpr::Rsi, Gpr::Rcx, Gpr::Rdx, Gpr::Rdi, Gpr::R8] {
            assert!(ins.gprs.contains(&g), "{:?} should be a live input", g);
        }
        assert!(!ins.gprs.contains(&Gpr::Rax));
    }

    #[test]
    fn dead_code_detection() {
        let p: Program = "movq rdi, rbx\nmovq rsi, rax".parse().unwrap();
        let dead = dead_instructions(&p, &live_rax());
        assert_eq!(dead, vec![0]);
        // Stores are never dead.
        let p: Program = "movq rdi, (rsp)\nmovq rsi, rax".parse().unwrap();
        assert!(dead_instructions(&p, &live_rax()).is_empty());
    }

    #[test]
    fn defs_partial_vs_full() {
        let i = build::setcc(Cond::E, crate::reg::Reg::new(Gpr::Rdx, Width::B));
        let (full, partial) = defs(&i);
        assert!(full.gprs.is_empty());
        assert!(partial.gprs.contains(&Gpr::Rdx));

        let i = build::alu(
            AluOp::Add,
            Width::L,
            Gpr::Rsi.view(Width::L),
            Gpr::Rax.view(Width::L),
        );
        let (full, _) = defs(&i);
        assert!(
            full.gprs.contains(&Gpr::Rax),
            "32-bit write zeroes the upper half: full def"
        );
    }

    #[test]
    fn zeroing_idioms() {
        let idiom = |text: &str| is_zeroing_idiom(&text.parse::<Program>().unwrap().instrs()[0]);
        assert!(idiom("xorq rax, rax"));
        assert!(idiom("subl ecx, ecx"));
        assert!(!idiom("xorq rbx, rax"), "distinct registers");
        assert!(!idiom("andq rax, rax"), "and r, r keeps the value");
        assert!(!idiom("xorq (rsp), rax"), "a memory operand is read");
    }
}
