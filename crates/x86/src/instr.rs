//! Instructions: an [`Opcode`] plus its operands, with validation against
//! the opcode's operand signature. What an instruction reads and writes is
//! recorded from its semantics by [`Access::of`].

use crate::flow::Access;
use crate::opcode::{BitOp, Opcode};
use crate::operand::{Mem, Operand, OperandKind};
use crate::reg::Width;
use std::fmt;

/// An error produced when constructing an ill-formed instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum InstrError {
    /// The number of operands does not match the opcode's arity.
    WrongArity {
        opcode: Opcode,
        expected: usize,
        found: usize,
    },
    /// An operand is of a kind not accepted by its slot.
    BadOperand {
        opcode: Opcode,
        slot: usize,
        found: OperandKind,
    },
    /// More than one operand is a memory reference.
    TwoMemoryOperands { opcode: Opcode },
    /// A one-operand 8-bit multiply or divide, whose high half lives in
    /// AH, which is not modelled.
    HighByteForm { opcode: Opcode },
    /// An opcode x86 cannot encode with any operands: 8-bit `lea`, `cmov`,
    /// two-operand `imul`, `popcnt`, `bsf`, `bsr` and `bswap`, and 16-bit
    /// `bswap`. Operands are not checked this way: an immediate too wide
    /// for its instruction's encoding (`addq 0x100000000, rax`) and `rsp`
    /// as an index register are still accepted.
    NoEncoding { opcode: Opcode },
}

impl fmt::Display for InstrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstrError::WrongArity {
                opcode,
                expected,
                found,
            } => write!(
                f,
                "opcode {} expects {} operands, found {}",
                opcode, expected, found
            ),
            InstrError::BadOperand {
                opcode,
                slot,
                found,
            } => {
                write!(
                    f,
                    "opcode {} does not accept {:?} in slot {}",
                    opcode, found, slot
                )
            }
            InstrError::TwoMemoryOperands { opcode } => {
                write!(f, "opcode {} given more than one memory operand", opcode)
            }
            InstrError::HighByteForm { opcode } => {
                write!(f, "opcode {opcode} uses AH, which is not modelled")
            }
            InstrError::NoEncoding { opcode } => {
                write!(f, "opcode {opcode} has no x86 encoding")
            }
        }
    }
}

impl std::error::Error for InstrError {}

/// The most operands any modelled opcode takes (`pshufd` and `shufps`).
pub const MAX_OPERANDS: usize = 3;

/// A single x86-64 instruction: opcode plus operands in AT&T order
/// (sources first, destination last).
///
/// The operands are stored inline, so an instruction is `Copy`: the MCMC
/// proposal moves copy, patch and restore instructions without touching
/// the heap. Equality, hashing and `Debug` see only
/// [`operands`](Instruction::operands), never the unused inline slots.
///
/// ```
/// use stoke_x86::{Instruction, Opcode, Operand, Reg, Gpr, Width, AluOp};
/// let add = Instruction::new(
///     Opcode::Alu(AluOp::Add, Width::Q),
///     vec![
///         Operand::Reg(Reg::new(Gpr::Rdi, Width::Q)),
///         Operand::Reg(Reg::new(Gpr::Rax, Width::Q)),
///     ],
/// ).unwrap();
/// assert_eq!(add.to_string(), "addq rdi, rax");
/// ```
#[derive(Clone, Copy)]
pub struct Instruction {
    pub(crate) opcode: Opcode,
    operands: [Operand; MAX_OPERANDS],
    arity: u8,
}

/// Filler for the inline operand slots past the arity.
const NO_OPERAND: Operand = Operand::Imm(0);

impl Instruction {
    /// Construct a validated instruction. `operands` is anything that
    /// views as a slice: a `Vec`, an array or a borrowed slice.
    ///
    /// # Errors
    /// Returns an [`InstrError`] if the operands do not match the opcode's
    /// signature, if more than one operand is a memory reference, or if
    /// the opcode is a form x86 cannot encode or that keeps a result in AH.
    pub fn new(opcode: Opcode, operands: impl AsRef<[Operand]>) -> Result<Instruction, InstrError> {
        let operands = operands.as_ref();
        Instruction::validate(opcode, operands)?;
        Ok(Instruction::pack(opcode, operands))
    }

    /// Check `operands` against `opcode`'s signature without building an
    /// instruction (and without allocating).
    fn validate(opcode: Opcode, operands: &[Operand]) -> Result<(), InstrError> {
        match opcode {
            Opcode::Imul1(Width::B)
            | Opcode::Mul1(Width::B)
            | Opcode::Div(Width::B)
            | Opcode::Idiv(Width::B) => return Err(InstrError::HighByteForm { opcode }),
            Opcode::Lea(Width::B)
            | Opcode::Cmov(_, Width::B)
            | Opcode::Imul2(Width::B)
            | Opcode::Bits(_, Width::B)
            | Opcode::Bits(BitOp::Bswap, Width::W) => {
                return Err(InstrError::NoEncoding { opcode })
            }
            _ => {}
        }
        let sig = opcode.signature();
        if sig.len() != operands.len() {
            return Err(InstrError::WrongArity {
                opcode,
                expected: sig.len(),
                found: operands.len(),
            });
        }
        for (slot, (spec, opnd)) in sig.iter().zip(operands).enumerate() {
            if !spec.accepts(opnd.kind()) {
                return Err(InstrError::BadOperand {
                    opcode,
                    slot,
                    found: opnd.kind(),
                });
            }
        }
        if operands.iter().filter(|o| o.is_mem()).count() > 1 {
            return Err(InstrError::TwoMemoryOperands { opcode });
        }
        Ok(())
    }

    /// Whether this instruction is well formed (what [`Instruction::new`]
    /// checks). Instructions built with [`new_unchecked`] or the `with_*`
    /// patch methods may not be.
    ///
    /// [`new_unchecked`]: Instruction::new_unchecked
    pub fn is_valid(&self) -> bool {
        Instruction::validate(self.opcode, self.operands()).is_ok()
    }

    fn pack(opcode: Opcode, operands: &[Operand]) -> Instruction {
        let mut inline = [NO_OPERAND; MAX_OPERANDS];
        inline[..operands.len()].copy_from_slice(operands);
        Instruction {
            opcode,
            operands: inline,
            arity: operands.len() as u8,
        }
    }

    /// Construct without validation (used by the proposal moves, which
    /// sample operands from the correct equivalence classes by
    /// construction).
    ///
    /// # Panics
    /// Panics if there are more than [`MAX_OPERANDS`] operands, and in
    /// debug builds if the instruction is invalid.
    pub fn new_unchecked(opcode: Opcode, operands: impl AsRef<[Operand]>) -> Instruction {
        let operands = operands.as_ref();
        debug_assert!(Instruction::validate(opcode, operands).is_ok());
        Instruction::pack(opcode, operands)
    }

    /// A zero-operand instruction.
    pub fn nullary(opcode: Opcode) -> Instruction {
        Instruction::new(opcode, []).expect("nullary opcode")
    }

    /// The opcode.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// The operands, in AT&T order.
    pub fn operands(&self) -> &[Operand] {
        &self.operands[..usize::from(self.arity)]
    }

    /// Replace the opcode, keeping the operands (caller must ensure the
    /// new opcode accepts them; used by the MCMC opcode move which samples
    /// from the compatible equivalence class).
    pub fn with_opcode(&self, opcode: Opcode) -> Instruction {
        debug_assert!(Instruction::validate(opcode, self.operands()).is_ok());
        Instruction { opcode, ..*self }
    }

    /// Replace operand `slot`, keeping everything else. The result may be
    /// invalid (e.g. a second memory operand); check with
    /// [`is_valid`](Instruction::is_valid) where that matters.
    ///
    /// # Panics
    /// Panics if `slot` is not below the arity.
    pub fn with_operand(&self, slot: usize, operand: Operand) -> Instruction {
        let mut out = *self;
        out.operands[..usize::from(self.arity)][slot] = operand;
        out
    }

    /// The memory operand, if any (at most one by construction).
    pub fn mem_operand(&self) -> Option<Mem> {
        self.operands().iter().find_map(|o| o.as_mem())
    }

    /// The latency of the instruction: the opcode's base latency plus a
    /// memory-access penalty when an operand references memory. This is
    /// the `LATENCY(i)` of the paper's Equation 13.
    pub fn latency(&self) -> u32 {
        Access::of(self).latency(self.opcode)
    }
}

impl PartialEq for Instruction {
    fn eq(&self, other: &Instruction) -> bool {
        self.opcode == other.opcode && self.operands() == other.operands()
    }
}

impl Eq for Instruction {}

impl std::hash::Hash for Instruction {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.opcode.hash(state);
        self.operands().hash(state);
    }
}

impl fmt::Debug for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instruction")
            .field("opcode", &self.opcode)
            .field("operands", &self.operands())
            .finish()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode.name())?;
        for (i, opnd) in self.operands().iter().enumerate() {
            if i == 0 {
                write!(f, " ")?;
            } else {
                write!(f, ", ")?;
            }
            write!(f, "{}", opnd)?;
        }
        Ok(())
    }
}

/// Convenience helpers for building common instructions in tests,
/// examples and the mini-compiler's code generators.
pub mod build {
    use super::*;
    use crate::opcode::{AluOp, Cond, ShiftOp, UnOp};

    /// `mov{w} src, dst`
    pub fn mov(w: Width, src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        Instruction::new(Opcode::Mov(w), vec![src.into(), dst.into()]).unwrap()
    }

    /// `movq src, dst`
    pub fn movq(src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        mov(Width::Q, src, dst)
    }

    /// `movl src, dst`
    pub fn movl(src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        mov(Width::L, src, dst)
    }

    /// A two operand ALU instruction `op src, dst`.
    pub fn alu(
        op: AluOp,
        w: Width,
        src: impl Into<Operand>,
        dst: impl Into<Operand>,
    ) -> Instruction {
        Instruction::new(Opcode::Alu(op, w), vec![src.into(), dst.into()]).unwrap()
    }

    /// `addq src, dst`
    pub fn addq(src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        alu(AluOp::Add, Width::Q, src, dst)
    }

    /// `subq src, dst`
    pub fn subq(src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        alu(AluOp::Sub, Width::Q, src, dst)
    }

    /// `andq src, dst`
    pub fn andq(src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        alu(AluOp::And, Width::Q, src, dst)
    }

    /// `xorq src, dst`
    pub fn xorq(src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        alu(AluOp::Xor, Width::Q, src, dst)
    }

    /// `orq src, dst`
    pub fn orq(src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        alu(AluOp::Or, Width::Q, src, dst)
    }

    /// A shift instruction `op count, dst`.
    pub fn shift(
        op: ShiftOp,
        w: Width,
        count: impl Into<Operand>,
        dst: impl Into<Operand>,
    ) -> Instruction {
        Instruction::new(Opcode::Shift(op, w), vec![count.into(), dst.into()]).unwrap()
    }

    /// A one-operand ALU instruction.
    pub fn unary(op: UnOp, w: Width, dst: impl Into<Operand>) -> Instruction {
        Instruction::new(Opcode::Un(op, w), vec![dst.into()]).unwrap()
    }

    /// `cmp{w} src, dst`
    pub fn cmp(w: Width, src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        Instruction::new(Opcode::Cmp(w), vec![src.into(), dst.into()]).unwrap()
    }

    /// `test{w} src, dst`
    pub fn test(w: Width, src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        Instruction::new(Opcode::Test(w), vec![src.into(), dst.into()]).unwrap()
    }

    /// `set{cc} dst`
    pub fn setcc(c: Cond, dst: impl Into<Operand>) -> Instruction {
        Instruction::new(Opcode::Set(c), vec![dst.into()]).unwrap()
    }

    /// `cmov{cc}{w} src, dst`
    pub fn cmov(
        c: Cond,
        w: Width,
        src: impl Into<Operand>,
        dst: impl Into<Operand>,
    ) -> Instruction {
        Instruction::new(Opcode::Cmov(c, w), vec![src.into(), dst.into()]).unwrap()
    }

    /// `imul{w} src, dst` (two operand form)
    pub fn imul2(w: Width, src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        Instruction::new(Opcode::Imul2(w), vec![src.into(), dst.into()]).unwrap()
    }

    /// `mulq src` (widening unsigned multiply)
    pub fn mulq(src: impl Into<Operand>) -> Instruction {
        Instruction::new(Opcode::Mul1(Width::Q), vec![src.into()]).unwrap()
    }

    /// `leaq mem, dst`
    pub fn leaq(mem: Mem, dst: impl Into<Operand>) -> Instruction {
        Instruction::new(Opcode::Lea(Width::Q), vec![Operand::Mem(mem), dst.into()]).unwrap()
    }

    /// `bits op src, dst` (popcnt / bsf / bsr)
    pub fn bits(
        op: BitOp,
        w: Width,
        src: impl Into<Operand>,
        dst: impl Into<Operand>,
    ) -> Instruction {
        Instruction::new(Opcode::Bits(op, w), vec![src.into(), dst.into()]).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use crate::opcode::{AluOp, Cond, ShiftOp};
    use crate::operand::Scale;
    use crate::reg::{Flag, Gpr, Reg, Xmm};

    fn r(g: Gpr, w: Width) -> Operand {
        Operand::Reg(Reg::new(g, w))
    }

    #[test]
    fn validation_rejects_wrong_arity() {
        let err = Instruction::new(Opcode::Mov(Width::Q), vec![r(Gpr::Rax, Width::Q)]);
        assert!(matches!(err, Err(InstrError::WrongArity { .. })));
    }

    #[test]
    fn validation_rejects_width_mismatch() {
        let err = Instruction::new(
            Opcode::Alu(AluOp::Add, Width::Q),
            vec![r(Gpr::Rax, Width::L), r(Gpr::Rbx, Width::Q)],
        );
        assert!(matches!(err, Err(InstrError::BadOperand { slot: 0, .. })));
    }

    #[test]
    fn validation_rejects_two_memory_operands() {
        let m = Operand::Mem(Mem::base(Gpr::Rdi));
        let err = Instruction::new(Opcode::Mov(Width::Q), vec![m, m]);
        assert!(matches!(err, Err(InstrError::TwoMemoryOperands { .. })));
    }

    #[test]
    fn display_matches_paper_syntax() {
        assert_eq!(
            movq(r(Gpr::Rsi, Width::Q), r(Gpr::R9, Width::Q)).to_string(),
            "movq rsi, r9"
        );
        assert_eq!(
            shift(ShiftOp::Shr, Width::Q, 32i64, r(Gpr::Rsi, Width::Q)).to_string(),
            "shrq 32, rsi"
        );
        assert_eq!(
            mov(
                Width::L,
                Operand::Mem(Mem::base_index(Gpr::Rsi, Gpr::Rcx, Scale::S4, 0)),
                r(Gpr::Rax, Width::L)
            )
            .to_string(),
            "movl (rsi,rcx,4), eax"
        );
        assert_eq!(setcc(Cond::E, r(Gpr::Rdx, Width::B)).to_string(), "sete dl");
        assert_eq!(Instruction::nullary(Opcode::Cqto).to_string(), "cqto");
    }

    fn access(i: &Instruction) -> Access {
        Access::of(i)
    }

    #[test]
    fn def_use_explicit() {
        let a = access(&addq(r(Gpr::Rdi, Width::Q), r(Gpr::Rax, Width::Q)));
        assert!(a.reads.gprs.contains(&Gpr::Rdi));
        assert!(
            a.reads.gprs.contains(&Gpr::Rax),
            "read-modify-write dst is also read"
        );
        assert_eq!(a.kills.gprs.iter().collect::<Vec<_>>(), [&Gpr::Rax]);
        assert!(a.kills.flags.contains(&Flag::Cf));
    }

    #[test]
    fn def_use_mov_dst_not_read() {
        let a = access(&movq(r(Gpr::Rdi, Width::Q), r(Gpr::Rax, Width::Q)));
        assert!(!a.reads.gprs.contains(&Gpr::Rax));
        assert_eq!(a.kills.gprs.iter().collect::<Vec<_>>(), [&Gpr::Rax]);
    }

    #[test]
    fn def_use_implicit_mul() {
        let a = access(&mulq(r(Gpr::Rsi, Width::Q)));
        assert!(a.reads.gprs.contains(&Gpr::Rax));
        assert!(a.kills.gprs.contains(&Gpr::Rax));
        assert!(a.kills.gprs.contains(&Gpr::Rdx));
    }

    #[test]
    fn def_use_memory_addressing() {
        let m = Mem::base_index(Gpr::Rsi, Gpr::Rcx, Scale::S4, 0);
        let i = movl(Operand::Mem(m), r(Gpr::Rax, Width::L));
        let a = access(&i);
        assert!(a.reads.gprs.contains(&Gpr::Rsi));
        assert!(a.reads.gprs.contains(&Gpr::Rcx));
        assert!(a.loads && !a.stores);

        let st = access(&movl(r(Gpr::Rax, Width::L), Operand::Mem(m)));
        assert!(st.stores && !st.loads);
        assert!(st.reads.gprs.contains(&Gpr::Rax));
    }

    #[test]
    fn byte_dest_write_merges() {
        // sete dl writes only the low byte, so the rest of rdx is preserved
        // (i.e. the old value is an input).
        let a = access(&setcc(Cond::E, r(Gpr::Rdx, Width::B)));
        assert!(a.reads.gprs.contains(&Gpr::Rdx));
        assert!(a.merges.gprs.contains(&Gpr::Rdx));
    }

    #[test]
    fn lea_does_not_load() {
        let i = leaq(Mem::base_disp(Gpr::Rsp, -8), r(Gpr::Rax, Width::Q));
        let a = access(&i);
        assert!(!a.loads && !a.stores);
    }

    #[test]
    fn rmw_memory_both_loads_and_stores() {
        let m = Operand::Mem(Mem::base(Gpr::Rdi));
        let i = Instruction::new(
            Opcode::Shift(ShiftOp::Shl, Width::L),
            vec![Operand::Imm(1), m],
        )
        .unwrap();
        let a = access(&i);
        assert!(a.loads && a.stores);
    }

    #[test]
    fn latency_includes_memory_penalty() {
        let reg = addq(r(Gpr::Rdi, Width::Q), r(Gpr::Rax, Width::Q));
        let mem = Instruction::new(
            Opcode::Alu(AluOp::Add, Width::Q),
            vec![Operand::Mem(Mem::base(Gpr::Rdi)), r(Gpr::Rax, Width::Q)],
        )
        .unwrap();
        assert!(mem.latency() > reg.latency());
    }

    #[test]
    fn xchg_defs_and_uses_both() {
        let a = access(
            &Instruction::new(
                Opcode::Xchg(Width::Q),
                vec![r(Gpr::Rax, Width::Q), r(Gpr::Rbx, Width::Q)],
            )
            .unwrap(),
        );
        let both = [Gpr::Rax, Gpr::Rbx].into_iter().collect();
        assert_eq!(a.kills.gprs, both);
        assert_eq!(a.reads.gprs, both);
    }

    #[test]
    fn xmm_def_use() {
        use crate::opcode::SseBinOp;
        let a = access(
            &Instruction::new(
                Opcode::SseBin(SseBinOp::Paddd),
                vec![Operand::Xmm(Xmm(1)), Operand::Xmm(Xmm(0))],
            )
            .unwrap(),
        );
        assert_eq!(a.reads.xmms.iter().collect::<Vec<_>>(), [&Xmm(0), &Xmm(1)]);
        assert_eq!(a.kills.xmms.iter().collect::<Vec<_>>(), [&Xmm(0)]);
    }

    #[test]
    fn patched_and_constructed_instructions_are_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |i: &Instruction| {
            let mut h = DefaultHasher::new();
            i.hash(&mut h);
            h.finish()
        };
        let built = addq(r(Gpr::Rdi, Width::Q), r(Gpr::Rax, Width::Q));
        let patched = addq(r(Gpr::Rsi, Width::Q), r(Gpr::Rax, Width::Q))
            .with_operand(0, r(Gpr::Rdi, Width::Q));
        assert_eq!(built, patched);
        assert_eq!(hash(&built), hash(&patched));
        assert_eq!(format!("{built:?}"), format!("{patched:?}"));
        let sub = Instruction::new(
            Opcode::Alu(AluOp::Sub, Width::Q),
            vec![r(Gpr::Rdi, Width::Q), r(Gpr::Rax, Width::Q)],
        )
        .unwrap();
        let opcode_patched = sub.with_opcode(Opcode::Alu(AluOp::Add, Width::Q));
        assert_eq!(built, opcode_patched);
        assert_eq!(hash(&built), hash(&opcode_patched));
        assert!(built.is_valid());
        let two_mems = built
            .with_operand(0, Operand::Mem(Mem::base(Gpr::Rdi)))
            .with_operand(1, Operand::Mem(Mem::base(Gpr::Rsi)));
        assert!(!two_mems.is_valid());
    }

    #[test]
    fn forms_without_an_encoding_are_rejected() {
        use crate::Program;
        let al = r(Gpr::Rax, Width::B);
        assert_eq!(
            Instruction::new(Opcode::Bits(BitOp::Popcnt, Width::B), [al, al]),
            Err(InstrError::NoEncoding {
                opcode: Opcode::Bits(BitOp::Popcnt, Width::B)
            })
        );
        for text in [
            "leab (rax), bl",
            "lea (rax), bl",
            "cmovne al, bl",
            "cmoveb (rdi), bl",
            "imulb bl, al",
            "imul 3, al",
            "popcntb al, bl",
            "bsfb al, bl",
            "bsr al, bl",
            "bswapb al",
            "bswapw ax",
            "bswap ax",
        ] {
            let e = text.parse::<Program>().unwrap_err();
            assert!(
                e.message.contains("no x86 encoding"),
                "{text}: {}",
                e.message
            );
        }
        // The 16-bit forms of the others stay.
        let wide: Program = "lea (rax), bx\ncmovne ax, bx\nimul 3, ax\npopcnt ax, bx\nbsfw ax, bx"
            .parse()
            .unwrap();
        assert_eq!(wide.len(), 5);
    }

    #[test]
    fn signatures_fit_the_inline_operands() {
        for op in Opcode::all() {
            assert!(op.signature().len() <= MAX_OPERANDS, "{op}");
        }
    }
}
