//! Canonicalization of loop-free programs for cache keying.
//!
//! A rewrite cache must recognise that two submissions differing only in
//! register naming (or in immediates the machine masks anyway) are the same
//! search problem. This module provides the pieces:
//!
//! * [`Renaming`] — a total, invertible permutation of the sixteen general
//!   purpose registers, applied structurally to operands (memory base/index
//!   registers included, widths preserved).
//! * [`canonical_renaming`] — the alpha-renaming that maps a program (plus
//!   an ordered tail of interface registers that may not appear in its
//!   body) onto a canonical register order: registers are numbered by first
//!   appearance, while *pinned* registers (`rsp` and any register an
//!   opcode in the program reads or writes implicitly, like `rax`/`rdx`
//!   for `mulq`) stay fixed so the renaming is semantics-preserving.
//! * [`normalize_immediates`] — rewrites immediates to the representative
//!   the emulator actually observes (shift counts masked to the width's
//!   count mask, width-typed ALU immediates sign-extended from the operand
//!   width).
//!
//! The defining property, exercised by property tests in `stoke-serve`: for
//! any renaming π that fixes the pinned registers,
//! `canonicalize(π(p)) == canonicalize(p)`.

use crate::flow::{Access, BitSet};
use crate::instr::{Instruction, MAX_OPERANDS};
use crate::opcode::Opcode;
use crate::operand::{Mem, Operand, Scale};
use crate::program::Program;
use crate::reg::{Gpr, Reg, Width, Xmm};
use std::mem::{discriminant, Discriminant};
use std::sync::{Mutex, PoisonError};

/// A total permutation of the sixteen general purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Renaming {
    map: [Gpr; 16],
}

impl Renaming {
    /// The identity renaming.
    pub fn identity() -> Renaming {
        Renaming { map: Gpr::ALL }
    }

    /// Build a renaming from an explicit 16-entry map (`map[i]` is the
    /// image of `Gpr::from_index(i)`). Returns `None` if the map is not a
    /// permutation.
    pub fn from_map(map: [Gpr; 16]) -> Option<Renaming> {
        let mut seen = [false; 16];
        for g in map {
            if seen[g.index()] {
                return None;
            }
            seen[g.index()] = true;
        }
        Some(Renaming { map })
    }

    /// The image of a single register.
    pub fn apply_gpr(&self, g: Gpr) -> Gpr {
        self.map[g.index()]
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Renaming {
        let mut inv = Gpr::ALL;
        for (i, g) in self.map.iter().enumerate() {
            inv[g.index()] = Gpr::from_index(i);
        }
        Renaming { map: inv }
    }

    /// Apply the renaming to one operand, preserving widths.
    pub fn apply_operand(&self, op: &Operand) -> Operand {
        match op {
            Operand::Reg(r) => Operand::Reg(Reg::new(self.apply_gpr(r.parent()), r.width())),
            Operand::Mem(m) => Operand::Mem(Mem {
                base: m.base.map(|b| self.apply_gpr(b)),
                index: m.index.map(|i| self.apply_gpr(i)),
                scale: m.scale,
                disp: m.disp,
            }),
            other => *other,
        }
    }

    /// Apply the renaming to one instruction. Operand kinds and widths
    /// are unchanged, so validity is preserved.
    pub fn apply_instruction(&self, instr: &Instruction) -> Instruction {
        map_operands(instr, |op| self.apply_operand(&op))
    }

    /// Apply the renaming to every instruction of a program.
    pub fn apply_program(&self, program: &Program) -> Program {
        program.iter().map(|i| self.apply_instruction(i)).collect()
    }
}

/// The registers a renaming of `program` must keep fixed: `rsp` (the
/// sandboxed stack) plus every register some opcode in the program reads
/// or writes implicitly (renaming those would change semantics without
/// rewriting the opcode itself).
///
/// This depends on the program's opcodes only, never on its operands, so
/// a renamed program pins the same registers as the original.
pub fn pinned_registers(program: &Program) -> [bool; 16] {
    // The cache keys every submission through here, so each opcode
    // variant is recorded once per process. The implicit registers of the
    // modelled opcodes depend on the variant only, never on its width or
    // operation (`pinned_registers_are_the_implicit_ones` checks every
    // opcode at every width).
    static KNOWN: Mutex<Vec<(Discriminant<Opcode>, BitSet<Gpr>)>> = Mutex::new(Vec::new());
    let mut known = KNOWN.lock().unwrap_or_else(PoisonError::into_inner);
    let mut pinned = [false; 16];
    pinned[Gpr::Rsp.index()] = true;
    for op in program.iter().map(Instruction::opcode) {
        let variant = discriminant(&op);
        let implicit = match known.iter().find(|(v, _)| *v == variant) {
            Some(&(_, implicit)) => implicit,
            None => {
                let implicit = implicit_gprs(op);
                known.push((variant, implicit));
                implicit
            }
        };
        for g in implicit.iter() {
            pinned[g.index()] = true;
        }
    }
    pinned
}

/// The registers every instance of `opcode` touches whatever its
/// operands: what the recordings of two instances with disjoint operand
/// registers share.
fn implicit_gprs(opcode: Opcode) -> BitSet<Gpr> {
    let touched = |regs: [Gpr; MAX_OPERANDS]| {
        let mut operands = [Operand::Imm(1); MAX_OPERANDS];
        for ((slot, g), operand) in opcode.signature().iter().zip(regs).zip(&mut operands) {
            *operand = match slot.reg {
                Some(w) => Operand::Reg(g.view(w)),
                None if slot.xmm => Operand::Xmm(Xmm(g.index() as u8)),
                None if slot.imm => Operand::Imm(1),
                None => Operand::Mem(Mem::base(g)),
            };
        }
        let instr = Instruction::new(opcode, &operands[..opcode.arity()])
            .expect("every slot takes the operand chosen for it");
        let a = Access::of(&instr);
        &a.uses() | &a.writes()
    };
    (&touched([Gpr::Rcx, Gpr::Rbx, Gpr::Rsi]) & &touched([Gpr::R8, Gpr::R9, Gpr::R10])).gprs
}

/// The alpha-renaming mapping `program` onto canonical register order.
///
/// Pinned registers (see [`pinned_registers`]) map to themselves. The
/// remaining registers are assigned canonical names (the non-pinned
/// registers in encoding order) by first appearance: first scanning the
/// program's explicit operands in order (memory base before index), then
/// the `tail` of interface registers in the order given, then any register
/// never mentioned at all. The result is always a total permutation, so it
/// can be inverted to map cached results back into the submitter's
/// register space.
///
/// For any renaming π fixing the pinned registers,
/// `canonical_renaming(π(p), π(tail)) ∘ π == canonical_renaming(p, tail)`
/// — which is what makes the canonical form rename-invariant.
pub fn canonical_renaming(program: &Program, tail: &[Gpr]) -> Renaming {
    let pinned = pinned_registers(program);
    // Canonical names available to non-pinned registers, in encoding order.
    let free: Vec<Gpr> = Gpr::ALL
        .iter()
        .copied()
        .filter(|g| !pinned[g.index()])
        .collect();
    let mut map: [Option<Gpr>; 16] = [None; 16];
    for g in Gpr::ALL {
        if pinned[g.index()] {
            map[g.index()] = Some(g);
        }
    }
    let mut next = 0usize;
    let mut assign = |map: &mut [Option<Gpr>; 16], g: Gpr| {
        if map[g.index()].is_none() {
            map[g.index()] = Some(free[next]);
            next += 1;
        }
    };
    for instr in program.iter() {
        for op in instr.operands() {
            match op {
                Operand::Reg(r) => assign(&mut map, r.parent()),
                Operand::Mem(m) => {
                    if let Some(b) = m.base {
                        assign(&mut map, b);
                    }
                    if let Some(i) = m.index {
                        assign(&mut map, i);
                    }
                }
                _ => {}
            }
        }
    }
    for &g in tail {
        assign(&mut map, g);
    }
    for g in Gpr::ALL {
        assign(&mut map, g);
    }
    let mut out = Gpr::ALL;
    for (i, g) in map.iter().enumerate() {
        out[i] = g.expect("every register assigned");
    }
    Renaming { map: out }
}

/// Rewrite immediates to the representative the emulator observes.
///
/// Two normalizations are applied, both justified by the execution
/// semantics in `stoke-emu` (and mirrored by the symbolic validator):
///
/// * shift counts are masked to the hardware count mask (`0x3f` at 64
///   bits, `0x1f` below) before use;
/// * immediates of width-typed data ops (`mov`, ALU ops, `cmp`, `test`,
///   `imul`) are read at the operand width, so they are replaced by the
///   sign-extension of their low `width` bits.
///
/// Opcodes whose immediate semantics are not width-typed (e.g. SSE shuffle
/// controls) are left untouched.
pub fn normalize_immediates(program: &Program) -> Program {
    program
        .iter()
        .map(|instr| {
            map_operands(instr, |op| match op {
                Operand::Imm(v) => Operand::Imm(normalize_imm(instr.opcode(), v)),
                other => other,
            })
        })
        .collect()
}

/// `instr` with every operand `op` replaced by `f(op)`, in place.
fn map_operands(instr: &Instruction, mut f: impl FnMut(Operand) -> Operand) -> Instruction {
    let mut out = *instr;
    for (slot, op) in instr.operands().iter().enumerate() {
        out = out.with_operand(slot, f(*op));
    }
    out
}

/// The representative of immediate `imm` as an operand of `opcode` (see
/// [`normalize_immediates`]).
fn normalize_imm(opcode: Opcode, imm: i64) -> i64 {
    match opcode {
        Opcode::Shift(_, w) => {
            let mask = if w == Width::Q { 0x3f } else { 0x1f };
            imm & mask
        }
        Opcode::Mov(w)
        | Opcode::Alu(_, w)
        | Opcode::Cmp(w)
        | Opcode::Test(w)
        | Opcode::Imul2(w) => w.sign_extend(w.truncate(imm as u64)) as i64,
        _ => imm,
    }
}

/// Canonicalize a program: normalize immediates, then alpha-rename into
/// canonical register order. Returns the canonical program together with
/// the renaming that produced it (apply [`Renaming::inverse`] to map
/// results computed in canonical space back to the original registers).
///
/// The canonical form also sets the scale of every address without an
/// index register to 1: no semantics reads that scale and `Display` does
/// not print it, so two programs that differ only there are one program,
/// and a canonical program survives printing and parsing unchanged.
pub fn canonicalize(program: &Program, tail: &[Gpr]) -> (Program, Renaming) {
    // The renaming depends on registers and opcodes only, which neither
    // normalization touches.
    let renaming = canonical_renaming(program, tail);
    let canon = program
        .iter()
        .map(|instr| {
            map_operands(instr, |op| {
                renaming.apply_operand(&match op {
                    Operand::Imm(v) => Operand::Imm(normalize_imm(instr.opcode(), v)),
                    Operand::Mem(m) if m.index.is_none() => Operand::Mem(Mem {
                        scale: Scale::S1,
                        ..m
                    }),
                    other => other,
                })
            })
        })
        .collect();
    (canon, renaming)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{build, InstrError};
    use crate::opcode::AluOp;

    fn parse(src: &str) -> Program {
        src.parse().expect("well-formed program")
    }

    #[test]
    fn renaming_roundtrips_through_inverse() {
        let mut map = Gpr::ALL;
        map.swap(0, 7); // rax <-> rdi
        map.swap(1, 6); // rcx <-> rsi
        let pi = Renaming::from_map(map).unwrap();
        let p = parse("movq rdi, rax\naddq rsi, rax");
        let renamed = pi.apply_program(&p);
        assert_ne!(renamed.to_string(), p.to_string());
        assert_eq!(
            pi.inverse().apply_program(&renamed).to_string(),
            p.to_string()
        );
    }

    #[test]
    fn from_map_rejects_non_permutation() {
        let mut map = Gpr::ALL;
        map[0] = Gpr::Rcx; // rax and rcx both map to rcx
        assert!(Renaming::from_map(map).is_none());
    }

    #[test]
    fn canonical_form_is_rename_invariant() {
        let p = parse("movq rdi, rbx\nmovq rbx, rax\naddq rsi, rax");
        let tail = [Gpr::Rdi, Gpr::Rsi, Gpr::Rax];
        let (canon, _) = canonicalize(&p, &tail);

        // Rename rdi->r9, rsi->r10, rbx->r11, rax->r12 (fixing rsp).
        let mut map = Gpr::ALL;
        map.swap(Gpr::Rdi.index(), Gpr::R9.index());
        map.swap(Gpr::Rsi.index(), Gpr::R10.index());
        map.swap(Gpr::Rbx.index(), Gpr::R11.index());
        map.swap(Gpr::Rax.index(), Gpr::R12.index());
        let pi = Renaming::from_map(map).unwrap();
        let renamed = pi.apply_program(&p);
        let renamed_tail: Vec<Gpr> = tail.iter().map(|&g| pi.apply_gpr(g)).collect();
        let (canon2, _) = canonicalize(&renamed, &renamed_tail);
        assert_eq!(canon.to_string(), canon2.to_string());
    }

    #[test]
    fn implicit_registers_stay_pinned() {
        // mulq reads rax and writes rax:rdx implicitly; the canonical form
        // must keep both in place.
        let p = parse("movq rdi, rax\nmulq rsi");
        let (canon, renaming) = canonicalize(&p, &[]);
        assert_eq!(renaming.apply_gpr(Gpr::Rax), Gpr::Rax);
        assert_eq!(renaming.apply_gpr(Gpr::Rdx), Gpr::Rdx);
        assert_eq!(renaming.apply_gpr(Gpr::Rsp), Gpr::Rsp);
        assert!(canon.to_string().contains("rax"));
    }

    /// Every opcode the parser names that `Instruction::new` accepts, with
    /// the registers it pins. The cache key hashes the canonical form, so
    /// this list is what keeps persisted keys stable.
    #[test]
    fn pinned_registers_are_the_implicit_ones() {
        for op in Opcode::all_widths() {
            let expected: &[Gpr] = match op {
                Opcode::Mul1(_)
                | Opcode::Imul1(_)
                | Opcode::Div(_)
                | Opcode::Idiv(_)
                | Opcode::Cqto
                | Opcode::Cltd => &[Gpr::Rax, Gpr::Rdx, Gpr::Rsp],
                Opcode::Cltq => &[Gpr::Rax, Gpr::Rsp],
                _ => &[Gpr::Rsp],
            };
            let mut ops = [Operand::Imm(1); MAX_OPERANDS];
            for (slot, o) in op.signature().iter().zip(&mut ops) {
                *o = match slot.reg {
                    Some(w) => Operand::Reg(Gpr::R11.view(w)),
                    None if slot.xmm => Operand::Xmm(Xmm(3)),
                    None if slot.imm => Operand::Imm(5),
                    None => Operand::Mem(Mem::base(Gpr::R12)),
                };
            }
            let instr = match Instruction::new(op, &ops[..op.arity()]) {
                Ok(instr) => instr,
                // The forms rejected whatever the operands (`mulb`, `leab`).
                Err(InstrError::HighByteForm { .. } | InstrError::NoEncoding { .. }) => continue,
                Err(e) => panic!("{e}"),
            };
            let program = Program::from_instrs(vec![instr]);
            let pinned: Vec<Gpr> = Gpr::ALL
                .into_iter()
                .filter(|g| pinned_registers(&program)[g.index()])
                .collect();
            assert_eq!(pinned, expected, "{op:?}");
        }
    }

    #[test]
    fn canonical_renaming_maps_results_back() {
        let p = parse("movq r8, r9\naddq r10, r9");
        let (canon, renaming) = canonicalize(&p, &[]);
        assert_eq!(
            renaming.inverse().apply_program(&canon).to_string(),
            p.to_string()
        );
    }

    #[test]
    fn shift_counts_and_wide_immediates_normalize() {
        let shl = build::shift(
            crate::opcode::ShiftOp::Shl,
            Width::Q,
            67,
            Gpr::Rax.view(Width::Q),
        );
        let addl = build::alu(
            AluOp::Add,
            Width::L,
            Gpr::Rcx.view(Width::L),
            Gpr::Rax.view(Width::L),
        );
        let addl = addl.with_operand(0, Operand::Imm(0xffff_ffff));
        let p = Program::from_instrs(vec![shl, addl]);
        let n = normalize_immediates(&p);
        assert_eq!(n.instrs()[0].operands()[0], Operand::Imm(3)); // 67 & 0x3f
        assert_eq!(n.instrs()[1].operands()[0], Operand::Imm(-1)); // sign-extended
    }

    #[test]
    fn mem_operands_are_renamed() {
        let p = parse("movq (rdi,rsi,8), rax");
        let mut map = Gpr::ALL;
        map.swap(Gpr::Rdi.index(), Gpr::R8.index());
        let pi = Renaming::from_map(map).unwrap();
        let renamed = pi.apply_program(&p);
        assert_eq!(renamed.to_string().trim(), "movq (r8,rsi,8), rax");
    }
}
