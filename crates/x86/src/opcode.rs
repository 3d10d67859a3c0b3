//! The modelled 64-bit x86 opcode set.
//!
//! STOKE's search operates over a large subset of the x86-64 instruction
//! set. This module defines the subset modelled by this reproduction: the
//! general purpose ALU (including the widening multiplies central to the
//! Montgomery-multiplication result), data movement, conditional moves and
//! sets, bit-manipulation instructions, and the fixed-point SSE vector
//! instructions needed for the SAXPY vectorization result.
//!
//! Every opcode carries the metadata the rest of the system needs:
//! operand-slot signatures (for instruction validation and for the MCMC
//! opcode/operand equivalence classes) and an average latency used by the
//! `perf(·)` term of the cost function. What an opcode reads and writes,
//! implicit registers and flags included, is not a table here: it is
//! recorded from its semantics ([`crate::flow::Access`]).

use crate::operand::SlotSpec;
use crate::reg::Width;
use std::fmt;

/// A condition code, as used by `set{cc}`, `cmov{cc}` (and, in real x86,
/// `j{cc}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (ZF).
    E,
    /// Not equal (!ZF).
    Ne,
    /// Unsigned above (!CF && !ZF).
    A,
    /// Unsigned above or equal (!CF).
    Ae,
    /// Unsigned below (CF).
    B,
    /// Unsigned below or equal (CF || ZF).
    Be,
    /// Signed greater (!(SF^OF) && !ZF).
    G,
    /// Signed greater or equal (!(SF^OF)).
    Ge,
    /// Signed less (SF^OF).
    L,
    /// Signed less or equal ((SF^OF) || ZF).
    Le,
    /// Sign set (SF).
    S,
    /// Sign not set (!SF).
    Ns,
}

impl Cond {
    /// All modelled condition codes.
    pub const ALL: [Cond; 12] = [
        Cond::E,
        Cond::Ne,
        Cond::A,
        Cond::Ae,
        Cond::B,
        Cond::Be,
        Cond::G,
        Cond::Ge,
        Cond::L,
        Cond::Le,
        Cond::S,
        Cond::Ns,
    ];

    /// The mnemonic suffix (`e`, `ne`, `a`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Cond::E => "e",
            Cond::Ne => "ne",
            Cond::A => "a",
            Cond::Ae => "ae",
            Cond::B => "b",
            Cond::Be => "be",
            Cond::G => "g",
            Cond::Ge => "ge",
            Cond::L => "l",
            Cond::Le => "le",
            Cond::S => "s",
            Cond::Ns => "ns",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Two-operand ALU operations sharing the `op src, dst` shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing
pub enum AluOp {
    Add,
    Adc,
    Sub,
    Sbb,
    And,
    Or,
    Xor,
}

/// One-operand ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing
pub enum UnOp {
    Neg,
    Not,
    Inc,
    Dec,
}

/// Shift and rotate operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing
pub enum ShiftOp {
    Shl,
    Shr,
    Sar,
    Rol,
    Ror,
}

/// Scalar bit-manipulation operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing
pub enum BitOp {
    Popcnt,
    Bsf,
    Bsr,
    Bswap,
}

/// Packed (SSE) integer binary operations. The element width is part of
/// the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing
pub enum SseBinOp {
    Paddb,
    Paddw,
    Paddd,
    Paddq,
    Psubb,
    Psubw,
    Psubd,
    Psubq,
    Pmullw,
    Pmulld,
    Pmuludq,
    Pand,
    Por,
    Pxor,
    Pandn,
}

impl SseBinOp {
    /// The mnemonic for this operation.
    pub fn name(self) -> &'static str {
        match self {
            SseBinOp::Paddb => "paddb",
            SseBinOp::Paddw => "paddw",
            SseBinOp::Paddd => "paddd",
            SseBinOp::Paddq => "paddq",
            SseBinOp::Psubb => "psubb",
            SseBinOp::Psubw => "psubw",
            SseBinOp::Psubd => "psubd",
            SseBinOp::Psubq => "psubq",
            SseBinOp::Pmullw => "pmullw",
            SseBinOp::Pmulld => "pmulld",
            SseBinOp::Pmuludq => "pmuludq",
            SseBinOp::Pand => "pand",
            SseBinOp::Por => "por",
            SseBinOp::Pxor => "pxor",
            SseBinOp::Pandn => "pandn",
        }
    }

    /// All packed binary operations.
    pub const ALL: [SseBinOp; 15] = [
        SseBinOp::Paddb,
        SseBinOp::Paddw,
        SseBinOp::Paddd,
        SseBinOp::Paddq,
        SseBinOp::Psubb,
        SseBinOp::Psubw,
        SseBinOp::Psubd,
        SseBinOp::Psubq,
        SseBinOp::Pmullw,
        SseBinOp::Pmulld,
        SseBinOp::Pmuludq,
        SseBinOp::Pand,
        SseBinOp::Por,
        SseBinOp::Pxor,
        SseBinOp::Pandn,
    ];
}

/// Packed (SSE) shift-by-immediate operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing
pub enum SseShiftOp {
    Psllw,
    Pslld,
    Psllq,
    Psrlw,
    Psrld,
    Psrlq,
}

impl SseShiftOp {
    /// The mnemonic for this operation.
    pub fn name(self) -> &'static str {
        match self {
            SseShiftOp::Psllw => "psllw",
            SseShiftOp::Pslld => "pslld",
            SseShiftOp::Psllq => "psllq",
            SseShiftOp::Psrlw => "psrlw",
            SseShiftOp::Psrld => "psrld",
            SseShiftOp::Psrlq => "psrlq",
        }
    }

    /// All packed shift operations.
    pub const ALL: [SseShiftOp; 6] = [
        SseShiftOp::Psllw,
        SseShiftOp::Pslld,
        SseShiftOp::Psllq,
        SseShiftOp::Psrlw,
        SseShiftOp::Psrld,
        SseShiftOp::Psrlq,
    ];
}

/// Kinds of 128-bit SSE register/memory moves (all modelled identically:
/// alignment faults are not simulated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing
pub enum SseMov128 {
    Movdqa,
    Movdqu,
    Movups,
    Movaps,
}

impl SseMov128 {
    /// The mnemonic for this move.
    pub fn name(self) -> &'static str {
        match self {
            SseMov128::Movdqa => "movdqa",
            SseMov128::Movdqu => "movdqu",
            SseMov128::Movups => "movups",
            SseMov128::Movaps => "movaps",
        }
    }

    /// All 128-bit move flavours.
    pub const ALL: [SseMov128; 4] = [
        SseMov128::Movdqa,
        SseMov128::Movdqu,
        SseMov128::Movups,
        SseMov128::Movaps,
    ];
}

/// An opcode in the modelled x86-64 subset.
///
/// Width-parametric opcodes carry their operand [`Width`]; condition-code
/// parametric opcodes carry their [`Cond`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    // -- data movement -------------------------------------------------
    /// `mov{bwlq} src, dst`
    Mov(Width),
    /// `movabsq imm64, r64`
    Movabs,
    /// `movslq r/m32, r64` (sign extension)
    Movslq,
    /// `movsbq r/m8, r64`
    Movsbq,
    /// `movsbl r/m8, r32`
    Movsbl,
    /// `movzbq r/m8, r64`
    Movzbq,
    /// `movzbl r/m8, r32`
    Movzbl,
    /// `lea{lq} mem, reg`
    Lea(Width),
    /// `xchg{lq} reg, reg`
    Xchg(Width),
    /// `pushq r64`
    Push,
    /// `popq r64`
    Pop,
    /// `cmov{cc}{lq} r/m, reg`
    Cmov(Cond, Width),
    /// `set{cc} r8`
    Set(Cond),

    // -- integer ALU ----------------------------------------------------
    /// Two operand ALU: `op{blq} src, dst`
    Alu(AluOp, Width),
    /// `cmp{blq} src, dst` (subtraction, flags only)
    Cmp(Width),
    /// `test{blq} src, dst` (conjunction, flags only)
    Test(Width),
    /// One operand ALU: `op{lq} dst`
    Un(UnOp, Width),
    /// Two operand signed multiply: `imul{lq} src, dst`
    Imul2(Width),
    /// One operand widening signed multiply into rdx:rax (edx:eax).
    Imul1(Width),
    /// One operand widening unsigned multiply into rdx:rax (edx:eax).
    Mul1(Width),
    /// One operand unsigned divide of rdx:rax (edx:eax).
    Div(Width),
    /// One operand signed divide of rdx:rax (edx:eax).
    Idiv(Width),
    /// Shift / rotate: `op{lq} count, dst` where count is imm8 or an 8-bit register.
    Shift(ShiftOp, Width),
    /// Bit manipulation (`popcnt`, `bsf`, `bsr` take `src, dst`; `bswap` takes `dst`).
    Bits(BitOp, Width),
    /// `cqto`: sign-extend rax into rdx:rax.
    Cqto,
    /// `cltq`: sign-extend eax into rax.
    Cltq,
    /// `cltd`: sign-extend eax into edx:eax.
    Cltd,
    /// `nop`
    Nop,

    // -- SSE (fixed point) ----------------------------------------------
    /// `movd r32, xmm`
    MovdToXmm,
    /// `movd xmm, r32`
    MovdFromXmm,
    /// `movq r64, xmm`
    MovqToXmm,
    /// `movq xmm, r64`
    MovqFromXmm,
    /// 128-bit load/store/register move.
    Mov128(SseMov128),
    /// Packed integer binary operation: `op xmm/m128, xmm`
    SseBin(SseBinOp),
    /// Packed shift by immediate: `op imm8, xmm`
    SseShift(SseShiftOp),
    /// `pshufd imm8, xmm/m128, xmm`
    Pshufd,
    /// `shufps imm8, xmm/m128, xmm`
    Shufps,
    /// `punpckldq xmm/m128, xmm`
    Punpckldq,
    /// `punpcklqdq xmm/m128, xmm`
    Punpcklqdq,
}

impl Opcode {
    /// The complete list of opcodes considered by the search.
    ///
    /// This is the pool sampled by the MCMC `Instruction` move, and the
    /// universe from which opcode equivalence classes are drawn.
    pub fn all() -> Vec<Opcode> {
        let mut v = Vec::with_capacity(200);
        use Width::{B, L, Q};
        // Data movement.
        for w in [B, L, Q] {
            v.push(Opcode::Mov(w));
        }
        v.push(Opcode::Movabs);
        v.extend([
            Opcode::Movslq,
            Opcode::Movsbq,
            Opcode::Movsbl,
            Opcode::Movzbq,
            Opcode::Movzbl,
        ]);
        for w in [L, Q] {
            v.push(Opcode::Lea(w));
            v.push(Opcode::Xchg(w));
        }
        v.push(Opcode::Push);
        v.push(Opcode::Pop);
        for c in Cond::ALL {
            for w in [L, Q] {
                v.push(Opcode::Cmov(c, w));
            }
            v.push(Opcode::Set(c));
        }
        // ALU.
        for op in [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor] {
            for w in [B, L, Q] {
                v.push(Opcode::Alu(op, w));
            }
        }
        for op in [AluOp::Adc, AluOp::Sbb] {
            for w in [L, Q] {
                v.push(Opcode::Alu(op, w));
            }
        }
        for w in [B, L, Q] {
            v.push(Opcode::Cmp(w));
            v.push(Opcode::Test(w));
        }
        for op in [UnOp::Neg, UnOp::Not, UnOp::Inc, UnOp::Dec] {
            for w in [L, Q] {
                v.push(Opcode::Un(op, w));
            }
        }
        for w in [L, Q] {
            v.push(Opcode::Imul2(w));
            v.push(Opcode::Imul1(w));
            v.push(Opcode::Mul1(w));
            v.push(Opcode::Div(w));
            v.push(Opcode::Idiv(w));
        }
        for op in [
            ShiftOp::Shl,
            ShiftOp::Shr,
            ShiftOp::Sar,
            ShiftOp::Rol,
            ShiftOp::Ror,
        ] {
            for w in [L, Q] {
                v.push(Opcode::Shift(op, w));
            }
        }
        for op in [BitOp::Popcnt, BitOp::Bsf, BitOp::Bsr, BitOp::Bswap] {
            for w in [L, Q] {
                v.push(Opcode::Bits(op, w));
            }
        }
        v.extend([Opcode::Cqto, Opcode::Cltq, Opcode::Cltd, Opcode::Nop]);
        // SSE.
        v.extend([
            Opcode::MovdToXmm,
            Opcode::MovdFromXmm,
            Opcode::MovqToXmm,
            Opcode::MovqFromXmm,
        ]);
        for m in SseMov128::ALL {
            v.push(Opcode::Mov128(m));
        }
        for op in SseBinOp::ALL {
            v.push(Opcode::SseBin(op));
        }
        for op in SseShiftOp::ALL {
            v.push(Opcode::SseShift(op));
        }
        v.extend([
            Opcode::Pshufd,
            Opcode::Shufps,
            Opcode::Punpckldq,
            Opcode::Punpcklqdq,
        ]);
        v
    }

    /// Every opcode the assembly text names: [`Opcode::all`] at every
    /// operand width (through [`Opcode::with_width`]), without repeats.
    ///
    /// The parser resolves mnemonics over this list. It holds forms
    /// [`Instruction::new`](crate::Instruction::new) rejects, such as
    /// `leab` or `mulb`, so that their text gets that typed error rather
    /// than "unknown mnemonic".
    pub fn all_widths() -> Vec<Opcode> {
        let mut seen = std::collections::HashSet::new();
        Opcode::all()
            .into_iter()
            .flat_map(|op| Width::ALL.map(|w| op.with_width(w)))
            .filter(|op| seen.insert(*op))
            .collect()
    }

    /// The same operation on `w`-bit operands; fixed-width opcodes are
    /// returned unchanged.
    pub fn with_width(self, w: Width) -> Opcode {
        match self {
            Opcode::Mov(_) => Opcode::Mov(w),
            Opcode::Lea(_) => Opcode::Lea(w),
            Opcode::Xchg(_) => Opcode::Xchg(w),
            Opcode::Cmov(c, _) => Opcode::Cmov(c, w),
            Opcode::Alu(op, _) => Opcode::Alu(op, w),
            Opcode::Cmp(_) => Opcode::Cmp(w),
            Opcode::Test(_) => Opcode::Test(w),
            Opcode::Un(op, _) => Opcode::Un(op, w),
            Opcode::Imul2(_) => Opcode::Imul2(w),
            Opcode::Imul1(_) => Opcode::Imul1(w),
            Opcode::Mul1(_) => Opcode::Mul1(w),
            Opcode::Div(_) => Opcode::Div(w),
            Opcode::Idiv(_) => Opcode::Idiv(w),
            Opcode::Shift(op, _) => Opcode::Shift(op, w),
            Opcode::Bits(op, _) => Opcode::Bits(op, w),
            fixed => fixed,
        }
    }

    /// The operand width for scalar opcodes, if meaningful.
    pub fn width(&self) -> Option<Width> {
        match *self {
            Opcode::Mov(w)
            | Opcode::Lea(w)
            | Opcode::Xchg(w)
            | Opcode::Cmov(_, w)
            | Opcode::Alu(_, w)
            | Opcode::Cmp(w)
            | Opcode::Test(w)
            | Opcode::Un(_, w)
            | Opcode::Imul2(w)
            | Opcode::Imul1(w)
            | Opcode::Mul1(w)
            | Opcode::Div(w)
            | Opcode::Idiv(w)
            | Opcode::Shift(_, w)
            | Opcode::Bits(_, w) => Some(w),
            Opcode::Movabs
            | Opcode::Push
            | Opcode::Pop
            | Opcode::MovqToXmm
            | Opcode::MovqFromXmm => Some(Width::Q),
            Opcode::Movslq | Opcode::Movsbq | Opcode::Movzbq => Some(Width::Q),
            Opcode::Movsbl | Opcode::Movzbl | Opcode::MovdToXmm | Opcode::MovdFromXmm => {
                Some(Width::L)
            }
            Opcode::Set(_) => Some(Width::B),
            _ => None,
        }
    }

    /// Operand slot specifications, in AT&T order (sources before the
    /// destination). An empty slice means the opcode takes no operands.
    ///
    /// Every signature is a constant table, so asking for one (and hence
    /// for [`arity`](Opcode::arity)) never allocates.
    pub fn signature(&self) -> &'static [SlotSpec] {
        use Width::{B, L, Q};
        /// One `&'static` table per operand width `w`.
        macro_rules! per_width {
            ($w:expr, |$v:ident| $sig:expr) => {
                match $w {
                    Width::B => {
                        const $v: Width = Width::B;
                        const SIG: &[SlotSpec] = &$sig;
                        SIG
                    }
                    Width::W => {
                        const $v: Width = Width::W;
                        const SIG: &[SlotSpec] = &$sig;
                        SIG
                    }
                    Width::L => {
                        const $v: Width = Width::L;
                        const SIG: &[SlotSpec] = &$sig;
                        SIG
                    }
                    Width::Q => {
                        const $v: Width = Width::Q;
                        const SIG: &[SlotSpec] = &$sig;
                        SIG
                    }
                }
            };
        }
        match *self {
            Opcode::Mov(w) | Opcode::Alu(_, w) | Opcode::Cmp(w) | Opcode::Test(w) => {
                per_width!(w, |W| [SlotSpec::reg_imm_mem(W), SlotSpec::reg_mem(W)])
            }
            Opcode::Movabs => const { &[SlotSpec::imm(), SlotSpec::reg(Q)] },
            Opcode::Movslq => const { &[SlotSpec::reg_mem(L), SlotSpec::reg(Q)] },
            Opcode::Movsbq | Opcode::Movzbq => const { &[SlotSpec::reg_mem(B), SlotSpec::reg(Q)] },
            Opcode::Movsbl | Opcode::Movzbl => const { &[SlotSpec::reg_mem(B), SlotSpec::reg(L)] },
            Opcode::Lea(w) => per_width!(w, |W| [SlotSpec::mem(), SlotSpec::reg(W)]),
            Opcode::Xchg(w) => per_width!(w, |W| [SlotSpec::reg(W), SlotSpec::reg(W)]),
            Opcode::Push | Opcode::Pop => const { &[SlotSpec::reg(Q)] },
            Opcode::Cmov(_, w) | Opcode::Bits(BitOp::Popcnt | BitOp::Bsf | BitOp::Bsr, w) => {
                per_width!(w, |W| [SlotSpec::reg_mem(W), SlotSpec::reg(W)])
            }
            Opcode::Set(_) => const { &[SlotSpec::reg_mem(B)] },
            Opcode::Un(_, w)
            | Opcode::Imul1(w)
            | Opcode::Mul1(w)
            | Opcode::Div(w)
            | Opcode::Idiv(w) => per_width!(w, |W| [SlotSpec::reg_mem(W)]),
            // `imul imm, reg` is accepted as shorthand for the three-operand
            // immediate form with source == destination.
            Opcode::Imul2(w) => per_width!(w, |W| [SlotSpec::reg_imm_mem(W), SlotSpec::reg(W)]),
            Opcode::Shift(_, w) => per_width!(w, |W| [SlotSpec::reg_imm(B), SlotSpec::reg_mem(W)]),
            Opcode::Bits(BitOp::Bswap, w) => per_width!(w, |W| [SlotSpec::reg(W)]),
            Opcode::Cqto | Opcode::Cltq | Opcode::Cltd | Opcode::Nop => &[],
            Opcode::MovdToXmm => const { &[SlotSpec::reg(L), SlotSpec::xmm()] },
            Opcode::MovdFromXmm => const { &[SlotSpec::xmm(), SlotSpec::reg(L)] },
            Opcode::MovqToXmm => const { &[SlotSpec::reg(Q), SlotSpec::xmm()] },
            Opcode::MovqFromXmm => const { &[SlotSpec::xmm(), SlotSpec::reg(Q)] },
            Opcode::Mov128(_) => const { &[SlotSpec::xmm_mem(), SlotSpec::xmm_mem()] },
            Opcode::SseBin(_) | Opcode::Punpckldq | Opcode::Punpcklqdq => {
                const { &[SlotSpec::xmm_mem(), SlotSpec::xmm()] }
            }
            Opcode::SseShift(_) => const { &[SlotSpec::imm(), SlotSpec::xmm()] },
            Opcode::Pshufd | Opcode::Shufps => {
                const { &[SlotSpec::imm(), SlotSpec::xmm_mem(), SlotSpec::xmm()] }
            }
        }
    }

    /// Number of operands the opcode takes.
    pub fn arity(&self) -> usize {
        self.signature().len()
    }

    /// Average instruction latency in cycles, following the static
    /// approximation of §4.2 of the paper (`H(f) = Σ LATENCY(i)`).
    ///
    /// The values are representative of a Nehalem/Sandy-Bridge class core;
    /// the absolute numbers matter less than their relative ordering.
    pub fn latency(&self) -> u32 {
        match self {
            Opcode::Nop => 0,
            Opcode::Mov(_) | Opcode::Movabs => 1,
            Opcode::Movslq | Opcode::Movsbq | Opcode::Movsbl | Opcode::Movzbq | Opcode::Movzbl => 1,
            Opcode::Lea(_) => 1,
            Opcode::Xchg(_) => 2,
            Opcode::Push | Opcode::Pop => 2,
            Opcode::Cmov(_, _) => 2,
            Opcode::Set(_) => 1,
            Opcode::Alu(_, _) | Opcode::Cmp(_) | Opcode::Test(_) | Opcode::Un(_, _) => 1,
            Opcode::Imul2(_) => 3,
            Opcode::Imul1(_) | Opcode::Mul1(_) => 4,
            Opcode::Div(Width::L) | Opcode::Idiv(Width::L) => 22,
            Opcode::Div(_) | Opcode::Idiv(_) => 40,
            Opcode::Shift(_, _) => 1,
            Opcode::Bits(BitOp::Popcnt, _) => 3,
            Opcode::Bits(BitOp::Bsf, _) | Opcode::Bits(BitOp::Bsr, _) => 3,
            Opcode::Bits(BitOp::Bswap, _) => 1,
            Opcode::Cqto | Opcode::Cltq | Opcode::Cltd => 1,
            Opcode::MovdToXmm | Opcode::MovdFromXmm | Opcode::MovqToXmm | Opcode::MovqFromXmm => 2,
            Opcode::Mov128(_) => 1,
            Opcode::SseBin(op) => match op {
                SseBinOp::Pmullw | SseBinOp::Pmulld | SseBinOp::Pmuludq => 5,
                _ => 1,
            },
            Opcode::SseShift(_) => 1,
            Opcode::Pshufd | Opcode::Shufps | Opcode::Punpckldq | Opcode::Punpcklqdq => 1,
        }
    }

    /// The AT&T mnemonic used when printing the opcode.
    pub fn name(&self) -> String {
        match self {
            Opcode::Mov(w) => format!("mov{}", w.suffix()),
            Opcode::Movabs => "movabsq".to_string(),
            Opcode::Movslq => "movslq".to_string(),
            Opcode::Movsbq => "movsbq".to_string(),
            Opcode::Movsbl => "movsbl".to_string(),
            Opcode::Movzbq => "movzbq".to_string(),
            Opcode::Movzbl => "movzbl".to_string(),
            Opcode::Lea(w) => format!("lea{}", w.suffix()),
            Opcode::Xchg(w) => format!("xchg{}", w.suffix()),
            Opcode::Push => "pushq".to_string(),
            Opcode::Pop => "popq".to_string(),
            Opcode::Cmov(c, w) => format!("cmov{}{}", c.name(), w.suffix()),
            Opcode::Set(c) => format!("set{}", c.name()),
            Opcode::Alu(op, w) => {
                let base = match op {
                    AluOp::Add => "add",
                    AluOp::Adc => "adc",
                    AluOp::Sub => "sub",
                    AluOp::Sbb => "sbb",
                    AluOp::And => "and",
                    AluOp::Or => "or",
                    AluOp::Xor => "xor",
                };
                format!("{}{}", base, w.suffix())
            }
            Opcode::Cmp(w) => format!("cmp{}", w.suffix()),
            Opcode::Test(w) => format!("test{}", w.suffix()),
            Opcode::Un(op, w) => {
                let base = match op {
                    UnOp::Neg => "neg",
                    UnOp::Not => "not",
                    UnOp::Inc => "inc",
                    UnOp::Dec => "dec",
                };
                format!("{}{}", base, w.suffix())
            }
            Opcode::Imul2(w) | Opcode::Imul1(w) => format!("imul{}", w.suffix()),
            Opcode::Mul1(w) => format!("mul{}", w.suffix()),
            Opcode::Div(w) => format!("div{}", w.suffix()),
            Opcode::Idiv(w) => format!("idiv{}", w.suffix()),
            Opcode::Shift(op, w) => {
                let base = match op {
                    ShiftOp::Shl => "shl",
                    ShiftOp::Shr => "shr",
                    ShiftOp::Sar => "sar",
                    ShiftOp::Rol => "rol",
                    ShiftOp::Ror => "ror",
                };
                format!("{}{}", base, w.suffix())
            }
            Opcode::Bits(op, w) => {
                let base = match op {
                    BitOp::Popcnt => "popcnt",
                    BitOp::Bsf => "bsf",
                    BitOp::Bsr => "bsr",
                    BitOp::Bswap => "bswap",
                };
                format!("{}{}", base, w.suffix())
            }
            Opcode::Cqto => "cqto".to_string(),
            Opcode::Cltq => "cltq".to_string(),
            Opcode::Cltd => "cltd".to_string(),
            Opcode::Nop => "nop".to_string(),
            Opcode::MovdToXmm | Opcode::MovdFromXmm => "movd".to_string(),
            Opcode::MovqToXmm | Opcode::MovqFromXmm => "movq".to_string(),
            Opcode::Mov128(m) => m.name().to_string(),
            Opcode::SseBin(op) => op.name().to_string(),
            Opcode::SseShift(op) => op.name().to_string(),
            Opcode::Pshufd => "pshufd".to_string(),
            Opcode::Shufps => "shufps".to_string(),
            Opcode::Punpckldq => "punpckldq".to_string(),
            Opcode::Punpcklqdq => "punpcklqdq".to_string(),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_universe_size() {
        let all = Opcode::all();
        // The paper quotes "nearly 400" opcodes for the full ISA; our
        // modelled subset is deliberately smaller but must stay large
        // enough to make enumeration-based superoptimization hopeless.
        assert!(all.len() >= 140, "only {} opcodes modelled", all.len());
        // No duplicates.
        let mut dedup = all.clone();
        dedup.sort_by_key(|o| format!("{:?}", o));
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn names_unique_per_signature_arity() {
        // The textual assembly syntax must be unambiguous: a mnemonic may
        // only be shared by opcodes that are distinguished by operand
        // kinds (e.g. movd to/from xmm) or arity (imul 1-op vs 2-op).
        use std::collections::HashMap;
        let mut seen: HashMap<(String, usize, Vec<bool>), Opcode> = HashMap::new();
        for op in Opcode::all_widths() {
            let key = (
                op.name(),
                op.arity(),
                // disambiguator: which slots accept an xmm register
                op.signature().iter().map(|s| s.xmm).collect::<Vec<_>>(),
            );
            if let Some(prev) = seen.get(&key) {
                panic!("ambiguous mnemonic {:?} for {:?} and {:?}", key, prev, op);
            }
            seen.insert(key, op);
        }
    }

    #[test]
    fn signatures_are_consistent() {
        for op in Opcode::all() {
            let sig = op.signature();
            assert_eq!(sig.len(), op.arity());
            for slot in sig {
                assert!(
                    slot.reg.is_some() || slot.imm || slot.mem || slot.xmm,
                    "{op} has a slot that accepts nothing"
                );
            }
            if let Some(last) = sig.last() {
                assert!(!last.imm, "{op} takes an immediate as its last operand");
            }
        }
    }

    fn access(text: &str) -> crate::flow::Access {
        crate::flow::Access::of(&text.parse::<crate::Program>().unwrap().instrs()[0])
    }

    #[test]
    fn implicit_regs() {
        use crate::reg::Gpr;
        assert!(access("mulq rsi").kills.gprs.contains(&Gpr::Rdx));
        assert!(access("mulq rsi").reads.gprs.contains(&Gpr::Rax));
        assert!(access("divq rsi").reads.gprs.contains(&Gpr::Rdx));
        assert!(access("cqto").kills.gprs.contains(&Gpr::Rdx));
        assert_eq!(
            access("addq rsi, rdi").writes(),
            crate::flow::LocSet {
                gprs: [Gpr::Rdi].into_iter().collect(),
                flags: crate::reg::Flag::ALL.into_iter().collect(),
                ..Default::default()
            }
        );
    }

    #[test]
    fn flag_effects() {
        use crate::reg::Flag;
        assert!(access("adcq rsi, rax").reads.flags.contains(&Flag::Cf));
        assert!(access("addq rsi, rax").kills.flags.contains(&Flag::Cf));
        assert!(access("notq rax").writes().flags.is_empty());
        assert!(access("cmoveq rsi, rax").reads.flags.contains(&Flag::Zf));
        assert!(access("movq rsi, rax").writes().flags.is_empty());
        // inc/dec preserve CF.
        assert!(!access("incq rax").writes().flags.contains(&Flag::Cf));
    }

    #[test]
    fn latency_ordering() {
        // Division is much slower than multiplication which is slower
        // than simple ALU operations.
        let alu = Opcode::Alu(AluOp::Add, Width::Q).latency();
        let mul = Opcode::Mul1(Width::Q).latency();
        let div = Opcode::Div(Width::Q).latency();
        assert!(alu < mul && mul < div);
    }

    #[test]
    fn load_store_classification() {
        let (mov_load, mov_store) = (access("movq (rsi), rax"), access("movq rax, (rsi)"));
        assert!(mov_load.loads && !mov_load.stores);
        assert!(mov_store.stores && !mov_store.loads);
        assert!(Opcode::Lea(Width::Q).signature()[0].mem);
        let lea = access("leaq 8(rsi), rax");
        assert!(!lea.loads && !lea.stores);
        assert!(access("pushq rax").stores);
        assert!(access("popq rax").loads);
        assert!(!access("sete (rsi)").loads);
    }
}
