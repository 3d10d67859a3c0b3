//! Instructions: an [`Opcode`] plus its operands, with validation against
//! the opcode's operand signature and def/use information used by the
//! liveness analysis, the emulator and the symbolic validator.

use crate::opcode::{BitOp, Opcode};
use crate::operand::{Mem, Operand, OperandKind};
use crate::reg::{Flag, Gpr, Reg, Width, Xmm};
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
    opcode: Opcode,
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
    /// signature, or if more than one operand is a memory reference.
    pub fn new(opcode: Opcode, operands: impl AsRef<[Operand]>) -> Result<Instruction, InstrError> {
        let operands = operands.as_ref();
        Instruction::validate(opcode, operands)?;
        Ok(Instruction::pack(opcode, operands))
    }

    /// Check `operands` against `opcode`'s signature without building an
    /// instruction (and without allocating).
    fn validate(opcode: Opcode, operands: &[Operand]) -> Result<(), InstrError> {
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

    /// The destination operand, if the opcode writes one.
    pub fn dst(&self) -> Option<&Operand> {
        if self.opcode.writes_dst() {
            self.operands().last()
        } else {
            None
        }
    }

    /// The memory operand, if any (at most one by construction).
    pub fn mem_operand(&self) -> Option<Mem> {
        self.operands().iter().find_map(|o| o.as_mem())
    }

    /// Whether this instruction reads memory.
    pub fn loads(&self) -> bool {
        if matches!(self.opcode, Opcode::Lea(_)) {
            return false;
        }
        if matches!(self.opcode, Opcode::Pop) {
            return true;
        }
        let Some(mem_slot) = self.operands().iter().position(|o| o.is_mem()) else {
            return false;
        };
        let is_dst_slot = self.opcode.writes_dst() && mem_slot == self.operands().len() - 1;
        !is_dst_slot || self.opcode.dst_is_also_src()
    }

    /// Whether this instruction writes memory.
    pub fn stores(&self) -> bool {
        if matches!(self.opcode, Opcode::Push) {
            return true;
        }
        if !self.opcode.writes_dst() {
            return false;
        }
        self.operands().last().is_some_and(Operand::is_mem)
    }

    /// The memory access width in bytes for loads/stores performed by this
    /// instruction (None if it does not access memory).
    pub fn mem_width_bytes(&self) -> Option<u64> {
        if matches!(self.opcode, Opcode::Lea(_)) {
            return None;
        }
        if matches!(self.opcode, Opcode::Push | Opcode::Pop) {
            return Some(8);
        }
        self.mem_operand()?;
        Some(match self.opcode {
            Opcode::Mov128(_)
            | Opcode::SseBin(_)
            | Opcode::Pshufd
            | Opcode::Shufps
            | Opcode::Punpckldq
            | Opcode::Punpcklqdq => 16,
            Opcode::Movslq => 4,
            Opcode::Movsbq | Opcode::Movsbl | Opcode::Movzbq | Opcode::Movzbl => 1,
            op => op.width().map(Width::bytes).unwrap_or(8),
        })
    }

    /// General purpose registers read by this instruction, as (register,
    /// width) views. Includes address registers of memory operands and
    /// implicit uses.
    pub fn gpr_uses(&self) -> Vec<Reg> {
        let mut uses = Vec::new();
        self.for_each_gpr_use(|r| uses.push(r));
        uses
    }

    /// Visit this instruction's GPR uses (same elements, same order as
    /// [`gpr_uses`](Instruction::gpr_uses)) without allocating: the
    /// emulator decodes every proposal's changed instructions into inline
    /// use lists through this.
    ///
    /// There are at most four: a memory operand contributes two address
    /// registers, every other operand at most one, and only the
    /// one-operand multiply/divide family adds implicit uses beyond one.
    pub fn for_each_gpr_use(&self, mut f: impl FnMut(Reg)) {
        let arity = self.operands().len();
        let (writes_dst, rmw) = (self.opcode.writes_dst(), self.opcode.dst_is_also_src());
        for (slot, opnd) in self.operands().iter().enumerate() {
            let is_dst_slot = writes_dst && slot == arity - 1;
            match opnd {
                // `xchg` reads both operands through this arm: it is
                // read-modify-write in its destination.
                Operand::Reg(r) => {
                    if !is_dst_slot || rmw {
                        f(*r);
                    } else if r.width() == Width::B || r.width() == Width::W {
                        // Narrow destination writes merge into the parent
                        // register, so the old value is also read.
                        f(r.parent().full());
                    }
                }
                Operand::Mem(m) => m.regs().map(Gpr::full).for_each(&mut f),
                Operand::Xmm(_) | Operand::Imm(_) => {}
            }
        }
        for g in self.opcode.implicit_uses() {
            f(g.view(self.opcode.width().unwrap_or(Width::Q)));
        }
    }

    /// General purpose registers written by this instruction (as views).
    pub fn gpr_defs(&self) -> Vec<Reg> {
        let mut defs = Vec::new();
        if self.opcode.writes_dst() {
            if let Some(Operand::Reg(r)) = self.operands().last() {
                defs.push(*r);
            }
        }
        if matches!(self.opcode, Opcode::Xchg(_)) {
            if let Some(Operand::Reg(r)) = self.operands().first() {
                defs.push(*r);
            }
        }
        for g in self.opcode.implicit_defs() {
            let w = self.opcode.width().unwrap_or(Width::Q);
            let w = match self.opcode {
                Opcode::Cqto | Opcode::Cltq => Width::Q,
                Opcode::Cltd => Width::L,
                _ => w,
            };
            defs.push(g.view(w));
        }
        defs
    }

    /// SSE registers read by this instruction.
    pub fn xmm_uses(&self) -> Vec<Xmm> {
        let mut uses = Vec::new();
        self.for_each_xmm_use(|x| uses.push(x));
        uses
    }

    /// Visit this instruction's SSE uses without allocating (see
    /// [`for_each_gpr_use`](Instruction::for_each_gpr_use)). There are at
    /// most two: the three-operand forms take an immediate first.
    pub fn for_each_xmm_use(&self, mut f: impl FnMut(Xmm)) {
        let arity = self.operands().len();
        for (slot, opnd) in self.operands().iter().enumerate() {
            if let Operand::Xmm(x) = opnd {
                let is_dst_slot = self.opcode.writes_dst() && slot == arity - 1;
                if !is_dst_slot || self.opcode.dst_is_also_src() {
                    f(*x);
                }
            }
        }
    }

    /// SSE registers written by this instruction.
    pub fn xmm_defs(&self) -> Vec<Xmm> {
        if !self.opcode.writes_dst() {
            return vec![];
        }
        match self.operands().last() {
            Some(Operand::Xmm(x)) => vec![*x],
            _ => vec![],
        }
    }

    /// Condition flags read by this instruction.
    pub fn flag_uses(&self) -> &'static [Flag] {
        self.opcode.flags_read()
    }

    /// Condition flags written by this instruction.
    pub fn flag_defs(&self) -> &'static [Flag] {
        self.opcode.flags_written()
    }

    /// The latency of the instruction: the opcode's base latency plus a
    /// memory-access penalty when an operand references memory. This is
    /// the `LATENCY(i)` of the paper's Equation 13.
    pub fn latency(&self) -> u32 {
        let mut l = self.opcode.latency();
        if self.loads() {
            l += 3;
        }
        if self.stores() {
            l += 3;
        }
        l
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

    #[test]
    fn def_use_explicit() {
        let i = addq(r(Gpr::Rdi, Width::Q), r(Gpr::Rax, Width::Q));
        let uses = i.gpr_uses();
        assert!(uses.contains(&Gpr::Rdi.full()));
        assert!(
            uses.contains(&Gpr::Rax.full()),
            "read-modify-write dst is also read"
        );
        assert_eq!(i.gpr_defs(), vec![Gpr::Rax.full()]);
        assert!(i.flag_defs().contains(&Flag::Cf));
    }

    #[test]
    fn def_use_mov_dst_not_read() {
        let i = movq(r(Gpr::Rdi, Width::Q), r(Gpr::Rax, Width::Q));
        assert!(!i.gpr_uses().contains(&Gpr::Rax.full()));
        assert_eq!(i.gpr_defs(), vec![Gpr::Rax.full()]);
    }

    #[test]
    fn def_use_implicit_mul() {
        let i = mulq(r(Gpr::Rsi, Width::Q));
        let uses = i.gpr_uses();
        assert!(uses.contains(&Gpr::Rax.view(Width::Q)));
        let defs = i.gpr_defs();
        assert!(defs.contains(&Gpr::Rax.view(Width::Q)));
        assert!(defs.contains(&Gpr::Rdx.view(Width::Q)));
    }

    #[test]
    fn def_use_memory_addressing() {
        let m = Mem::base_index(Gpr::Rsi, Gpr::Rcx, Scale::S4, 0);
        let i = movl(Operand::Mem(m), r(Gpr::Rax, Width::L));
        let uses = i.gpr_uses();
        assert!(uses.contains(&Gpr::Rsi.full()));
        assert!(uses.contains(&Gpr::Rcx.full()));
        assert!(i.loads());
        assert!(!i.stores());

        let st = movl(r(Gpr::Rax, Width::L), Operand::Mem(m));
        assert!(st.stores());
        assert!(!st.loads());
        assert!(st.gpr_uses().contains(&Gpr::Rax.view(Width::L)));
    }

    #[test]
    fn byte_dest_write_merges() {
        // sete dl writes only the low byte, so the rest of rdx is preserved
        // (i.e. the old value is an input).
        let i = setcc(Cond::E, r(Gpr::Rdx, Width::B));
        assert!(i.gpr_uses().contains(&Gpr::Rdx.full()));
    }

    #[test]
    fn lea_does_not_load() {
        let i = leaq(Mem::base_disp(Gpr::Rsp, -8), r(Gpr::Rax, Width::Q));
        assert!(!i.loads());
        assert!(!i.stores());
        assert_eq!(i.mem_width_bytes(), None);
    }

    #[test]
    fn rmw_memory_both_loads_and_stores() {
        let m = Operand::Mem(Mem::base(Gpr::Rdi));
        let i = Instruction::new(
            Opcode::Shift(ShiftOp::Shl, Width::L),
            vec![Operand::Imm(1), m],
        )
        .unwrap();
        assert!(i.loads());
        assert!(i.stores());
        assert_eq!(i.mem_width_bytes(), Some(4));
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
        let i = Instruction::new(
            Opcode::Xchg(Width::Q),
            vec![r(Gpr::Rax, Width::Q), r(Gpr::Rbx, Width::Q)],
        )
        .unwrap();
        let defs = i.gpr_defs();
        let uses = i.gpr_uses();
        assert!(defs.contains(&Gpr::Rax.full()) && defs.contains(&Gpr::Rbx.full()));
        assert!(uses.contains(&Gpr::Rax.full()) && uses.contains(&Gpr::Rbx.full()));
    }

    #[test]
    fn xmm_def_use() {
        use crate::opcode::SseBinOp;
        let i = Instruction::new(
            Opcode::SseBin(SseBinOp::Paddd),
            vec![Operand::Xmm(Xmm(1)), Operand::Xmm(Xmm(0))],
        )
        .unwrap();
        assert_eq!(i.xmm_uses(), vec![Xmm(1), Xmm(0)]);
        assert_eq!(i.xmm_defs(), vec![Xmm(0)]);
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
    fn signatures_fit_the_inline_operands() {
        for op in Opcode::all() {
            assert!(op.signature().len() <= MAX_OPERANDS, "{op}");
        }
    }
}
