//! The meaning of every modelled instruction, written once.
//!
//! [`execute`] is the one definition of what each opcode does. It runs over
//! any [`Machine`]: a value domain (bit-vectors [`Machine::Bv`] and single
//! bits [`Machine::Bit`] with the usual operations) plus the machine state
//! those values live in. `stoke-emu` instantiates it over `u64`/`bool` for
//! the interpreter and the batched engine's column view; `stoke-verify`
//! instantiates it over solver terms for the symbolic executor. Because
//! both run the same code, the cost function (§4) and the validator (§5.2)
//! cannot drift apart. The fourth `Machine` is the recorder behind
//! [`crate::flow::Access`]: its values are known constants or unknown,
//! tagged with the locations they come from, so running `execute` over it
//! yields what the instruction reads, overwrites and merges into. That
//! recording is the workspace's only definition of an instruction's reads
//! and writes.
//!
//! Where the two deliberately model an instruction differently, the
//! difference is a named hook of [`Machine`] rather than a branch here:
//! memory accesses (a fault-counting sandbox against symbolic memory with
//! named stack slots), division (a fault-counting check against
//! uninterpreted functions), the 64-bit widening multiply (native against
//! constant-blasted or uninterpreted), and the bit operations the
//! concrete side computes natively (parity, `popcnt`, `bsf`/`bsr`,
//! `bswap`).
//!
//! Widths are passed in bits to every operation whose result depends on
//! them, so a domain whose values do not carry their width (`u64`) can
//! keep every value truncated to it.

use crate::{
    AluOp, BitOp, Cond, Flag, Gpr, Instruction, Mem, Opcode, Operand, Reg, ShiftOp, SseBinOp,
    SseShiftOp, UnOp, Width, Xmm,
};

/// A value domain and machine state the shared semantics run over.
///
/// Every bit-vector operation whose result depends on the width takes
/// the width in bits of its result first (`sign_ext` also takes its
/// source's); implementations whose values carry their width may ignore
/// it.
pub trait Machine {
    /// A bit-vector of 1 to 64 bits.
    type Bv: Copy;
    /// A single bit: a flag or a condition.
    type Bit: Copy;

    /// Read a register view at its width.
    fn read_reg(&mut self, r: Reg) -> Self::Bv;
    /// Write a register view with x86-64 merge semantics (32-bit writes
    /// zero-extend, 8- and 16-bit writes keep the upper bits).
    fn write_reg(&mut self, r: Reg, v: Self::Bv);
    /// Read a full 64-bit register.
    fn read_gpr64(&mut self, g: Gpr) -> Self::Bv;
    /// Overwrite a full 64-bit register.
    fn set_gpr64(&mut self, g: Gpr, v: Self::Bv);
    /// Read an SSE register as (low, high) 64-bit halves.
    fn read_xmm(&mut self, x: Xmm) -> [Self::Bv; 2];
    /// Write an SSE register.
    fn write_xmm(&mut self, x: Xmm, v: [Self::Bv; 2]);
    /// Read a status flag.
    fn read_flag(&mut self, f: Flag) -> Self::Bit;
    /// Write a status flag.
    fn write_flag(&mut self, f: Flag, v: Self::Bit);

    /// Memory hook: load `w` from a memory operand.
    fn load(&mut self, mem: &Mem, w: Width) -> Self::Bv;
    /// Memory hook: store `w` to a memory operand.
    fn store(&mut self, mem: &Mem, w: Width, v: Self::Bv);
    /// Memory hook: load 128 bits from a memory operand.
    fn load128(&mut self, mem: &Mem) -> [Self::Bv; 2];
    /// Memory hook: store 128 bits to a memory operand.
    fn store128(&mut self, mem: &Mem, v: [Self::Bv; 2]);
    /// Memory hook: load 8 bytes at a computed address (`pop`).
    fn load_at(&mut self, addr: Self::Bv) -> Self::Bv;
    /// Memory hook: store 8 bytes at a computed address (`push`).
    fn store_at(&mut self, addr: Self::Bv, v: Self::Bv);

    /// Division hook: quotient and remainder of `hi:lo / divisor` at width
    /// `w`, or `None` when the division faults (the state is then left
    /// unchanged).
    fn divide(
        &mut self,
        w: Width,
        signed: bool,
        hi: Self::Bv,
        lo: Self::Bv,
        divisor: Self::Bv,
    ) -> Option<(Self::Bv, Self::Bv)>;
    /// Multiply hook: (low, high) halves of the 128-bit product of two
    /// 64-bit values.
    fn mul64(&mut self, a: Self::Bv, b: Self::Bv, signed: bool) -> (Self::Bv, Self::Bv);
    /// Bit hook: PF, the even parity of the low byte of `v`.
    fn parity(&mut self, v: Self::Bv) -> Self::Bit;
    /// Bit hook: the number of set bits of `a`.
    fn popcnt(&mut self, w: Width, a: Self::Bv) -> Self::Bv;
    /// Bit hook: the index of the lowest (`bsf`) or highest (`reverse`,
    /// `bsr`) set bit of `a`, or `old` when `a` is zero.
    fn bit_scan(&mut self, w: Width, reverse: bool, a: Self::Bv, old: Self::Bv) -> Self::Bv;
    /// Bit hook: `a` with its bytes reversed.
    fn bswap(&mut self, w: Width, a: Self::Bv) -> Self::Bv;

    /// The constant `v` truncated to `bits`.
    fn constant(&mut self, bits: u32, v: u64) -> Self::Bv;
    /// The constant bit `b`.
    fn bit_constant(&mut self, b: bool) -> Self::Bit;
    /// Bitwise complement.
    fn not(&mut self, bits: u32, a: Self::Bv) -> Self::Bv;
    /// Bitwise and.
    fn and(&mut self, a: Self::Bv, b: Self::Bv) -> Self::Bv;
    /// Bitwise or.
    fn or(&mut self, a: Self::Bv, b: Self::Bv) -> Self::Bv;
    /// Bitwise exclusive or.
    fn xor(&mut self, a: Self::Bv, b: Self::Bv) -> Self::Bv;
    /// Modular addition.
    fn add(&mut self, bits: u32, a: Self::Bv, b: Self::Bv) -> Self::Bv;
    /// Modular subtraction.
    fn sub(&mut self, bits: u32, a: Self::Bv, b: Self::Bv) -> Self::Bv;
    /// Modular multiplication.
    fn mul(&mut self, bits: u32, a: Self::Bv, b: Self::Bv) -> Self::Bv;
    /// Left shift; zero once the amount reaches the width.
    fn shl(&mut self, bits: u32, a: Self::Bv, n: Self::Bv) -> Self::Bv;
    /// Logical right shift; zero once the amount reaches the width.
    fn lshr(&mut self, bits: u32, a: Self::Bv, n: Self::Bv) -> Self::Bv;
    /// Arithmetic right shift; all sign bits once the amount reaches the
    /// width.
    fn ashr(&mut self, bits: u32, a: Self::Bv, n: Self::Bv) -> Self::Bv;
    /// Equality.
    fn eq(&mut self, a: Self::Bv, b: Self::Bv) -> Self::Bit;
    /// Unsigned less-than.
    fn ult(&mut self, a: Self::Bv, b: Self::Bv) -> Self::Bit;
    /// `if c { a } else { b }`.
    fn ite(&mut self, c: Self::Bit, a: Self::Bv, b: Self::Bv) -> Self::Bv;
    /// Bits `hi..=lo` of `a`.
    fn extract(&mut self, hi: u32, lo: u32, a: Self::Bv) -> Self::Bv;
    /// Bit `i` of `a`.
    fn bit(&mut self, i: u32, a: Self::Bv) -> Self::Bit;
    /// `hi` above `lo`, where `lo` is `lo_bits` wide.
    fn concat(&mut self, lo_bits: u32, hi: Self::Bv, lo: Self::Bv) -> Self::Bv;
    /// Zero-extend to `bits`.
    fn zero_ext(&mut self, bits: u32, a: Self::Bv) -> Self::Bv;
    /// Sign-extend a `from`-bit value to `to` bits.
    fn sign_ext(&mut self, from: u32, to: u32, a: Self::Bv) -> Self::Bv;
    /// A bit as a `bits`-wide value (0 or 1).
    fn extend_bit(&mut self, bits: u32, b: Self::Bit) -> Self::Bv;
    /// Bit complement.
    fn not1(&mut self, a: Self::Bit) -> Self::Bit;
    /// Bit and.
    fn and1(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit;
    /// Bit or.
    fn or1(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit;
    /// Bit exclusive or.
    fn xor1(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit;
    /// Bit equality.
    fn eq1(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit;
    /// `if c { a } else { b }` on bits.
    fn ite1(&mut self, c: Self::Bit, a: Self::Bit, b: Self::Bit) -> Self::Bit;

    /// Write `v` to flag `f` unless `keep` holds, which leaves the flag as
    /// it is (a concrete machine does not write it at all).
    fn write_flag_unless(&mut self, keep: Self::Bit, f: Flag, v: Self::Bit) {
        let old = self.read_flag(f);
        let v = self.ite1(keep, old, v);
        self.write_flag(f, v);
    }

    /// Disequality.
    fn ne(&mut self, a: Self::Bv, b: Self::Bv) -> Self::Bit {
        let e = self.eq(a, b);
        self.not1(e)
    }

    /// Bit disequality.
    fn ne1(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit {
        let e = self.eq1(a, b);
        self.not1(e)
    }
}

/// The effective address of a memory operand: `disp + base + index * scale`.
pub fn address<M: Machine>(m: &mut M, mem: &Mem) -> M::Bv {
    let mut acc = m.constant(64, mem.disp as i64 as u64);
    if let Some(b) = mem.base {
        let base = m.read_gpr64(b);
        acc = m.add(64, acc, base);
    }
    if let Some(i) = mem.index {
        let idx = m.read_gpr64(i);
        let scale = m.constant(64, mem.scale.factor());
        let scaled = m.mul(64, idx, scale);
        acc = m.add(64, acc, scaled);
    }
    acc
}

/// Execute one instruction on `m`.
pub fn execute<M: Machine>(m: &mut M, instr: &Instruction) {
    use Width::{B, L, Q};
    let ops = instr.operands();
    match instr.opcode() {
        Opcode::Nop => {}
        Opcode::Mov(w) => {
            let v = read(m, &ops[0], w);
            write(m, &ops[1], w, v);
        }
        Opcode::Movabs => {
            let v = m.constant(64, imm(&ops[0]));
            write(m, &ops[1], Q, v);
        }
        Opcode::Movslq => extend(m, ops, L, Q, true),
        Opcode::Movsbq => extend(m, ops, B, Q, true),
        Opcode::Movsbl => extend(m, ops, B, L, true),
        Opcode::Movzbq => extend(m, ops, B, Q, false),
        Opcode::Movzbl => extend(m, ops, B, L, false),
        Opcode::Lea(w) => {
            let mem = ops[0].as_mem().expect("lea source is a memory operand");
            let a = address(m, &mem);
            let a = if w == Q {
                a
            } else {
                m.extract(w.bits() - 1, 0, a)
            };
            write(m, &ops[1], w, a);
        }
        Opcode::Xchg(w) => {
            let a = read(m, &ops[0], w);
            let b = read(m, &ops[1], w);
            write(m, &ops[0], w, b);
            write(m, &ops[1], w, a);
        }
        Opcode::Push => {
            let v = read(m, &ops[0], Q);
            let rsp = m.read_gpr64(Gpr::Rsp);
            let eight = m.constant(64, 8);
            let rsp = m.sub(64, rsp, eight);
            m.set_gpr64(Gpr::Rsp, rsp);
            m.store_at(rsp, v);
        }
        Opcode::Pop => {
            let rsp = m.read_gpr64(Gpr::Rsp);
            let v = m.load_at(rsp);
            let eight = m.constant(64, 8);
            let rsp = m.add(64, rsp, eight);
            m.set_gpr64(Gpr::Rsp, rsp);
            write(m, &ops[0], Q, v);
        }
        Opcode::Cmov(c, w) => {
            // A 32-bit cmov zero-extends its destination even when the
            // condition is false, exactly as the hardware does.
            let take = cond(m, c);
            let v = read(m, &ops[0], w);
            let old = read(m, &ops[1], w);
            let r = m.ite(take, v, old);
            write(m, &ops[1], w, r);
        }
        Opcode::Set(c) => {
            let take = cond(m, c);
            let r = m.extend_bit(8, take);
            write(m, &ops[0], B, r);
        }
        Opcode::Alu(op, w) => {
            let bits = w.bits();
            let src = read(m, &ops[0], w);
            let dst = read(m, &ops[1], w);
            let carry = m.read_flag(Flag::Cf);
            let carry_w = m.extend_bit(bits, carry);
            let result = match op {
                AluOp::Add => m.add(bits, dst, src),
                AluOp::Adc => {
                    let s = m.add(bits, dst, src);
                    m.add(bits, s, carry_w)
                }
                AluOp::Sub => m.sub(bits, dst, src),
                AluOp::Sbb => {
                    let s = m.sub(bits, dst, src);
                    m.sub(bits, s, carry_w)
                }
                AluOp::And => m.and(dst, src),
                AluOp::Or => m.or(dst, src),
                AluOp::Xor => m.xor(dst, src),
            };
            match op {
                AluOp::Add | AluOp::Adc => {
                    let cin = carry_in(m, op == AluOp::Adc, carry);
                    flags_add(m, w, dst, src, cin, result);
                }
                AluOp::Sub | AluOp::Sbb => {
                    let bin = carry_in(m, op == AluOp::Sbb, carry);
                    flags_sub(m, w, dst, src, bin, result);
                }
                AluOp::And | AluOp::Or | AluOp::Xor => flags_logic(m, w, result),
            }
            write(m, &ops[1], w, result);
        }
        Opcode::Cmp(w) => {
            let src = read(m, &ops[0], w);
            let dst = read(m, &ops[1], w);
            let r = m.sub(w.bits(), dst, src);
            let f = m.bit_constant(false);
            flags_sub(m, w, dst, src, f, r);
        }
        Opcode::Test(w) => {
            let src = read(m, &ops[0], w);
            let dst = read(m, &ops[1], w);
            let r = m.and(dst, src);
            flags_logic(m, w, r);
        }
        Opcode::Un(op, w) => {
            let bits = w.bits();
            let a = read(m, &ops[0], w);
            match op {
                UnOp::Neg => {
                    let zero = m.constant(bits, 0);
                    let r = m.sub(bits, zero, a);
                    let f = m.bit_constant(false);
                    flags_sub(m, w, zero, a, f, r);
                    write(m, &ops[0], w, r);
                }
                UnOp::Not => {
                    let r = m.not(bits, a);
                    write(m, &ops[0], w, r);
                }
                UnOp::Inc | UnOp::Dec => {
                    // inc and dec preserve CF.
                    let one = m.constant(bits, 1);
                    let inc = op == UnOp::Inc;
                    let r = if inc {
                        m.add(bits, a, one)
                    } else {
                        m.sub(bits, a, one)
                    };
                    let sa = m.bit(bits - 1, a);
                    let sb = m.bit(bits - 1, one);
                    let sr = m.bit(bits - 1, r);
                    let operands_agree = if inc { m.eq1(sa, sb) } else { m.ne1(sa, sb) };
                    let flipped = m.ne1(sr, sa);
                    let of = m.and1(operands_agree, flipped);
                    m.write_flag(Flag::Of, of);
                    result_flags(m, w, r);
                    write(m, &ops[0], w, r);
                }
            }
        }
        Opcode::Imul2(w) => {
            let src = read(m, &ops[0], w);
            let dst = read(m, &ops[1], w);
            let (lo, overflow) = if w == Q {
                let (lo, hi) = m.mul64(src, dst, true);
                (lo, not_sign_fill(m, w, lo, hi))
            } else {
                let (bits, wide) = (w.bits(), 2 * w.bits());
                let ea = m.sign_ext(bits, wide, src);
                let eb = m.sign_ext(bits, wide, dst);
                let full = m.mul(wide, ea, eb);
                let lo = m.extract(bits - 1, 0, full);
                let relo = m.sign_ext(bits, wide, lo);
                (lo, m.ne(full, relo))
            };
            m.write_flag(Flag::Cf, overflow);
            m.write_flag(Flag::Of, overflow);
            result_flags(m, w, lo);
            write(m, &ops[1], w, lo);
        }
        // No 8-bit form of these four is an instruction: its high half
        // would be AH, which is not modelled, so `Instruction::new`
        // rejects it.
        Opcode::Imul1(w) | Opcode::Mul1(w) => {
            let signed = matches!(instr.opcode(), Opcode::Imul1(_));
            let src = read(m, &ops[0], w);
            let acc = m.read_reg(Gpr::Rax.view(w));
            let (lo, hi) = widening_mul(m, w, acc, src, signed);
            m.write_reg(Gpr::Rax.view(w), lo);
            m.write_reg(Gpr::Rdx.view(w), hi);
            // Overflow iff the high half is not the extension of the low.
            let overflow = if signed {
                not_sign_fill(m, w, lo, hi)
            } else {
                let zeros = m.constant(w.bits(), 0);
                m.ne(hi, zeros)
            };
            m.write_flag(Flag::Cf, overflow);
            m.write_flag(Flag::Of, overflow);
            result_flags(m, w, lo);
        }
        Opcode::Div(w) | Opcode::Idiv(w) => {
            let signed = matches!(instr.opcode(), Opcode::Idiv(_));
            let divisor = read(m, &ops[0], w);
            let lo = m.read_reg(Gpr::Rax.view(w));
            let hi = m.read_reg(Gpr::Rdx.view(w));
            if let Some((q, r)) = m.divide(w, signed, hi, lo, divisor) {
                m.write_reg(Gpr::Rax.view(w), q);
                m.write_reg(Gpr::Rdx.view(w), r);
                flags_logic(m, w, q);
            }
        }
        Opcode::Shift(op, w) => shift(m, op, w, ops),
        Opcode::Bits(op, w) => {
            let bits = w.bits();
            let a = read(m, &ops[0], w);
            match op {
                BitOp::Popcnt => {
                    let r = m.popcnt(w, a);
                    let f = m.bit_constant(false);
                    for flag in [Flag::Cf, Flag::Of, Flag::Sf, Flag::Pf] {
                        m.write_flag(flag, f);
                    }
                    let zero = m.constant(bits, 0);
                    let zf = m.eq(a, zero);
                    m.write_flag(Flag::Zf, zf);
                    write(m, &ops[1], w, r);
                }
                BitOp::Bsf | BitOp::Bsr => {
                    // The destination of a zero source is architecturally
                    // undefined; it is modelled as unchanged (and, for a
                    // 32-bit destination, renormalized).
                    let zero = m.constant(bits, 0);
                    let is_zero = m.eq(a, zero);
                    m.write_flag(Flag::Zf, is_zero);
                    let old = read(m, &ops[1], w);
                    let found = m.bit_scan(w, op == BitOp::Bsr, a, old);
                    let r = m.ite(is_zero, old, found);
                    write(m, &ops[1], w, r);
                }
                BitOp::Bswap => {
                    let r = m.bswap(w, a);
                    write(m, &ops[0], w, r);
                }
            }
        }
        Opcode::Cqto => {
            let rax = m.read_gpr64(Gpr::Rax);
            let v = sign_fill(m, 64, 63, rax);
            m.set_gpr64(Gpr::Rdx, v);
        }
        Opcode::Cltq => {
            let rax = m.read_gpr64(Gpr::Rax);
            let lo = m.extract(31, 0, rax);
            let e = m.sign_ext(32, 64, lo);
            m.set_gpr64(Gpr::Rax, e);
        }
        Opcode::Cltd => {
            let rax = m.read_gpr64(Gpr::Rax);
            let v = sign_fill(m, 32, 31, rax);
            m.write_reg(Gpr::Rdx.view(L), v);
        }
        Opcode::MovdToXmm | Opcode::MovqToXmm => {
            let w = instr.opcode().width().unwrap_or(Q);
            let v = read(m, &ops[0], w);
            let v = m.zero_ext(64, v);
            let zero = m.constant(64, 0);
            write128(m, &ops[1], [v, zero]);
        }
        Opcode::MovdFromXmm => {
            let [lo, _] = read128(m, &ops[0]);
            let v = m.extract(31, 0, lo);
            write(m, &ops[1], L, v);
        }
        Opcode::MovqFromXmm => {
            let [lo, _] = read128(m, &ops[0]);
            write(m, &ops[1], Q, lo);
        }
        Opcode::Mov128(_) => {
            let v = read128(m, &ops[0]);
            write128(m, &ops[1], v);
        }
        Opcode::SseBin(op) => {
            let src = read128(m, &ops[0]);
            let dst = read128(m, &ops[1]);
            let r = sse_bin(m, op, dst, src);
            write128(m, &ops[1], r);
        }
        Opcode::SseShift(op) => {
            let count = imm(&ops[0]) & 0xff;
            let dst = read128(m, &ops[1]);
            let (lane_bits, left) = match op {
                SseShiftOp::Psllw => (16, true),
                SseShiftOp::Pslld => (32, true),
                SseShiftOp::Psllq => (64, true),
                SseShiftOp::Psrlw => (16, false),
                SseShiftOp::Psrld => (32, false),
                SseShiftOp::Psrlq => (64, false),
            };
            let r = if count >= u64::from(lane_bits) {
                let zero = m.constant(64, 0);
                [zero, zero]
            } else {
                let n = m.constant(lane_bits, count);
                lanes(m, dst, dst, lane_bits, |m, a, _| {
                    if left {
                        m.shl(lane_bits, a, n)
                    } else {
                        m.lshr(lane_bits, a, n)
                    }
                })
            };
            write128(m, &ops[1], r);
        }
        Opcode::Pshufd => {
            let sel = imm(&ops[0]);
            let src = read128(m, &ops[1]);
            let s = lanes32(m, src);
            let pick = |i: u32| s[((sel >> (2 * i)) & 3) as usize];
            let r = from_lanes32(m, [pick(0), pick(1), pick(2), pick(3)]);
            write128(m, &ops[2], r);
        }
        Opcode::Shufps => {
            let sel = imm(&ops[0]);
            let src = read128(m, &ops[1]);
            let dst = read128(m, &ops[2]);
            let s = lanes32(m, src);
            let d = lanes32(m, dst);
            let pick = |i: u32| ((sel >> (2 * i)) & 3) as usize;
            let r = from_lanes32(m, [d[pick(0)], d[pick(1)], s[pick(2)], s[pick(3)]]);
            write128(m, &ops[2], r);
        }
        Opcode::Punpckldq => {
            let src = read128(m, &ops[0]);
            let dst = read128(m, &ops[1]);
            let s = lanes32(m, src);
            let d = lanes32(m, dst);
            let r = from_lanes32(m, [d[0], s[0], d[1], s[1]]);
            write128(m, &ops[1], r);
        }
        Opcode::Punpcklqdq => {
            let [src, _] = read128(m, &ops[0]);
            let [dst, _] = read128(m, &ops[1]);
            write128(m, &ops[1], [dst, src]);
        }
    }
}

/// An immediate operand's bits (zero for anything else).
fn imm(op: &Operand) -> u64 {
    op.as_imm().unwrap_or(0) as u64
}

/// Read a scalar operand at width `w`.
fn read<M: Machine>(m: &mut M, op: &Operand, w: Width) -> M::Bv {
    match op {
        Operand::Reg(r) => m.read_reg(Reg::new(r.parent(), w)),
        Operand::Imm(i) => m.constant(w.bits(), *i as u64),
        Operand::Mem(mem) => m.load(mem, w),
        Operand::Xmm(x) => m.read_xmm(*x)[0],
    }
}

/// Write a scalar result to a register or memory destination.
fn write<M: Machine>(m: &mut M, op: &Operand, w: Width, v: M::Bv) {
    match op {
        Operand::Reg(r) => m.write_reg(Reg::new(r.parent(), w), v),
        Operand::Mem(mem) => m.store(mem, w, v),
        Operand::Imm(_) | Operand::Xmm(_) => {
            unreachable!("scalar destination cannot be an immediate or xmm")
        }
    }
}

/// Read a 128-bit operand (xmm or memory).
fn read128<M: Machine>(m: &mut M, op: &Operand) -> [M::Bv; 2] {
    match op {
        Operand::Xmm(x) => m.read_xmm(*x),
        Operand::Mem(mem) => m.load128(mem),
        _ => unreachable!("128-bit operand must be xmm or memory"),
    }
}

/// Write a 128-bit result (xmm or memory destination).
fn write128<M: Machine>(m: &mut M, op: &Operand, v: [M::Bv; 2]) {
    match op {
        Operand::Xmm(x) => m.write_xmm(*x, v),
        Operand::Mem(mem) => m.store128(mem, v),
        _ => unreachable!("128-bit destination must be xmm or memory"),
    }
}

/// `movs*`/`movz*`: read at `from`, extend, write at `to`.
fn extend<M: Machine>(m: &mut M, ops: &[Operand], from: Width, to: Width, signed: bool) {
    let v = read(m, &ops[0], from);
    let e = if signed {
        m.sign_ext(from.bits(), to.bits(), v)
    } else {
        m.zero_ext(to.bits(), v)
    };
    write(m, &ops[1], to, e);
}

/// All ones if bit `sign` of `v` is set, else zero, `bits` wide.
fn sign_fill<M: Machine>(m: &mut M, bits: u32, sign: u32, v: M::Bv) -> M::Bv {
    let s = m.bit(sign, v);
    let ones = m.constant(bits, u64::MAX);
    let zeros = m.constant(bits, 0);
    m.ite(s, ones, zeros)
}

/// Whether `hi` differs from the sign extension of `lo`: the overflow of
/// a signed widening multiply.
fn not_sign_fill<M: Machine>(m: &mut M, w: Width, lo: M::Bv, hi: M::Bv) -> M::Bit {
    let expect = sign_fill(m, w.bits(), w.bits() - 1, lo);
    m.ne(hi, expect)
}

/// (low, high) halves of the double-width product of `a` and `b`.
fn widening_mul<M: Machine>(
    m: &mut M,
    w: Width,
    a: M::Bv,
    b: M::Bv,
    signed: bool,
) -> (M::Bv, M::Bv) {
    if w == Width::Q {
        return m.mul64(a, b, signed);
    }
    let (bits, wide) = (w.bits(), 2 * w.bits());
    let (ea, eb) = if signed {
        (m.sign_ext(bits, wide, a), m.sign_ext(bits, wide, b))
    } else {
        (m.zero_ext(wide, a), m.zero_ext(wide, b))
    };
    let full = m.mul(wide, ea, eb);
    let lo = m.extract(bits - 1, 0, full);
    let hi = m.extract(wide - 1, bits, full);
    (lo, hi)
}

/// The evaluated condition code.
fn cond<M: Machine>(m: &mut M, c: Cond) -> M::Bit {
    let cf = m.read_flag(Flag::Cf);
    let zf = m.read_flag(Flag::Zf);
    let sf = m.read_flag(Flag::Sf);
    let of = m.read_flag(Flag::Of);
    match c {
        Cond::E => zf,
        Cond::Ne => m.not1(zf),
        Cond::A => {
            let ncf = m.not1(cf);
            let nzf = m.not1(zf);
            m.and1(ncf, nzf)
        }
        Cond::Ae => m.not1(cf),
        Cond::B => cf,
        Cond::Be => m.or1(cf, zf),
        Cond::G => {
            let same = m.eq1(sf, of);
            let nzf = m.not1(zf);
            m.and1(same, nzf)
        }
        Cond::Ge => m.eq1(sf, of),
        Cond::L => m.ne1(sf, of),
        Cond::Le => {
            let diff = m.ne1(sf, of);
            m.or1(diff, zf)
        }
        Cond::S => sf,
        Cond::Ns => m.not1(sf),
    }
}

/// The carry (or borrow) into an ALU op: CF for `adc`/`sbb`, else clear.
fn carry_in<M: Machine>(m: &mut M, uses_carry: bool, carry: M::Bit) -> M::Bit {
    if uses_carry {
        carry
    } else {
        m.bit_constant(false)
    }
}

/// ZF, SF and PF of a `w`-wide result.
fn result_bits<M: Machine>(m: &mut M, w: Width, r: M::Bv) -> [(Flag, M::Bit); 3] {
    let zero = m.constant(w.bits(), 0);
    let zf = m.eq(r, zero);
    let sf = m.bit(w.bits() - 1, r);
    let pf = m.parity(r);
    [(Flag::Zf, zf), (Flag::Sf, sf), (Flag::Pf, pf)]
}

/// Write ZF, SF and PF of a `w`-wide result.
fn result_flags<M: Machine>(m: &mut M, w: Width, r: M::Bv) {
    for (f, v) in result_bits(m, w, r) {
        m.write_flag(f, v);
    }
}

/// Flags of `r = a + b + cin`: the carry out is `r < a`, or `r == a` with
/// a carry in.
fn flags_add<M: Machine>(m: &mut M, w: Width, a: M::Bv, b: M::Bv, cin: M::Bit, r: M::Bv) {
    let lt = m.ult(r, a);
    let eq = m.eq(r, a);
    let wrapped = m.and1(eq, cin);
    let cf = m.or1(lt, wrapped);
    m.write_flag(Flag::Cf, cf);
    let sign = w.bits() - 1;
    let (sa, sb, sr) = (m.bit(sign, a), m.bit(sign, b), m.bit(sign, r));
    let same_in = m.eq1(sa, sb);
    let flipped = m.ne1(sr, sa);
    let of = m.and1(same_in, flipped);
    m.write_flag(Flag::Of, of);
    result_flags(m, w, r);
}

/// Flags of `r = a - b - bin`: the borrow out is `a < b`, or `a == b`
/// with a borrow in.
fn flags_sub<M: Machine>(m: &mut M, w: Width, a: M::Bv, b: M::Bv, bin: M::Bit, r: M::Bv) {
    let lt = m.ult(a, b);
    let eq = m.eq(a, b);
    let wrapped = m.and1(eq, bin);
    let cf = m.or1(lt, wrapped);
    m.write_flag(Flag::Cf, cf);
    let sign = w.bits() - 1;
    let (sa, sb, sr) = (m.bit(sign, a), m.bit(sign, b), m.bit(sign, r));
    let diff_in = m.ne1(sa, sb);
    let flipped = m.ne1(sr, sa);
    let of = m.and1(diff_in, flipped);
    m.write_flag(Flag::Of, of);
    result_flags(m, w, r);
}

/// Flags of a logical result: CF and OF clear.
fn flags_logic<M: Machine>(m: &mut M, w: Width, r: M::Bv) {
    let f = m.bit_constant(false);
    m.write_flag(Flag::Cf, f);
    m.write_flag(Flag::Of, f);
    result_flags(m, w, r);
}

/// Shifts and rotates. The count is masked to 6 bits (64-bit operands) or
/// 5 bits; a zero masked count changes neither the destination nor any
/// flag (a 32-bit destination register is still renormalized), and a
/// narrow rotate turns by the masked count modulo its width.
fn shift<M: Machine>(m: &mut M, op: ShiftOp, w: Width, ops: &[Operand]) {
    let bits = w.bits();
    let raw = read(m, &ops[0], Width::B);
    let count_mask = m.constant(8, if w == Width::Q { 0x3f } else { 0x1f });
    let count8 = m.and(raw, count_mask);
    let count = m.zero_ext(bits, count8);
    let a = read(m, &ops[1], w);
    let zero = m.constant(bits, 0);
    let count_is_zero = m.eq(count, zero);
    let one = m.constant(bits, 1);
    let bits_c = m.constant(bits, u64::from(bits));
    let (r, cf) = match op {
        ShiftOp::Shl => {
            let r = m.shl(bits, a, count);
            // CF is bit `bits - count` of a.
            let back = m.sub(bits, bits_c, count);
            let moved = m.lshr(bits, a, back);
            (r, m.bit(0, moved))
        }
        ShiftOp::Shr | ShiftOp::Sar => {
            let arith = op == ShiftOp::Sar;
            let r = shr(m, bits, arith, a, count);
            let cm1 = m.sub(bits, count, one);
            let moved = shr(m, bits, arith, a, cm1);
            (r, m.bit(0, moved))
        }
        ShiftOp::Rol | ShiftOp::Ror => {
            let turn = if bits < 32 {
                let low = m.constant(bits, u64::from(bits - 1));
                m.and(count, low)
            } else {
                count
            };
            let rotated = if op == ShiftOp::Rol {
                let left = m.shl(bits, a, turn);
                let back = m.sub(bits, bits_c, turn);
                let right = m.lshr(bits, a, back);
                m.or(left, right)
            } else {
                let right = m.lshr(bits, a, turn);
                let back = m.sub(bits, bits_c, turn);
                let left = m.shl(bits, a, back);
                m.or(left, right)
            };
            // Selected here and again below: the repeated `ite` is part of
            // the term shape the validator's proof times were measured on.
            let r = m.ite(count_is_zero, a, rotated);
            let cf = if op == ShiftOp::Rol {
                m.bit(0, r)
            } else {
                m.bit(bits - 1, r)
            };
            (r, cf)
        }
    };
    let r = m.ite(count_is_zero, a, r);
    m.write_flag_unless(count_is_zero, Flag::Cf, cf);
    let top = m.bit(bits - 1, r);
    if matches!(op, ShiftOp::Rol | ShiftOp::Ror) {
        // Rotates only touch CF and OF; OF is modelled as the xor of the
        // two top bits of the result, deterministically.
        let next = m.bit(bits - 2, r);
        let of = m.xor1(top, next);
        m.write_flag_unless(count_is_zero, Flag::Of, of);
    } else {
        let of = m.xor1(top, cf);
        m.write_flag_unless(count_is_zero, Flag::Of, of);
        for (f, v) in result_bits(m, w, r) {
            m.write_flag_unless(count_is_zero, f, v);
        }
    }
    write(m, &ops[1], w, r);
}

/// Logical or arithmetic right shift.
fn shr<M: Machine>(m: &mut M, bits: u32, arith: bool, a: M::Bv, n: M::Bv) -> M::Bv {
    if arith {
        m.ashr(bits, a, n)
    } else {
        m.lshr(bits, a, n)
    }
}

/// Apply `f` lane-wise to two 128-bit values split into `lane_bits` lanes.
fn lanes<M: Machine>(
    m: &mut M,
    a: [M::Bv; 2],
    b: [M::Bv; 2],
    lane_bits: u32,
    f: impl Fn(&mut M, M::Bv, M::Bv) -> M::Bv,
) -> [M::Bv; 2] {
    let mut out = a;
    for (word, slot) in out.iter_mut().enumerate() {
        let mut acc = None;
        for lo in (0..64).step_by(lane_bits as usize) {
            let hi = lo + lane_bits - 1;
            let x = m.extract(hi, lo, a[word]);
            let y = m.extract(hi, lo, b[word]);
            let r = f(m, x, y);
            acc = Some(match acc {
                None => r,
                Some(prev) => m.concat(lo, r, prev),
            });
        }
        *slot = acc.expect("at least one lane");
    }
    out
}

/// Packed integer binary operation semantics (`dst = op(dst, src)`).
fn sse_bin<M: Machine>(m: &mut M, op: SseBinOp, dst: [M::Bv; 2], src: [M::Bv; 2]) -> [M::Bv; 2] {
    match op {
        SseBinOp::Paddb => lanes(m, dst, src, 8, |m, a, b| m.add(8, a, b)),
        SseBinOp::Paddw => lanes(m, dst, src, 16, |m, a, b| m.add(16, a, b)),
        SseBinOp::Paddd => lanes(m, dst, src, 32, |m, a, b| m.add(32, a, b)),
        SseBinOp::Paddq => lanes(m, dst, src, 64, |m, a, b| m.add(64, a, b)),
        SseBinOp::Psubb => lanes(m, dst, src, 8, |m, a, b| m.sub(8, a, b)),
        SseBinOp::Psubw => lanes(m, dst, src, 16, |m, a, b| m.sub(16, a, b)),
        SseBinOp::Psubd => lanes(m, dst, src, 32, |m, a, b| m.sub(32, a, b)),
        SseBinOp::Psubq => lanes(m, dst, src, 64, |m, a, b| m.sub(64, a, b)),
        SseBinOp::Pmullw => lanes(m, dst, src, 16, |m, a, b| m.mul(16, a, b)),
        SseBinOp::Pmulld => lanes(m, dst, src, 32, |m, a, b| m.mul(32, a, b)),
        SseBinOp::Pmuludq => {
            let [a_lo, b_lo, a_hi, b_hi] =
                [dst[0], src[0], dst[1], src[1]].map(|v| m.extract(31, 0, v));
            let [a_lo, b_lo, a_hi, b_hi] = [a_lo, b_lo, a_hi, b_hi].map(|v| m.zero_ext(64, v));
            [m.mul(64, a_lo, b_lo), m.mul(64, a_hi, b_hi)]
        }
        SseBinOp::Pand => lanes(m, dst, src, 64, |m, a, b| m.and(a, b)),
        SseBinOp::Por => lanes(m, dst, src, 64, |m, a, b| m.or(a, b)),
        SseBinOp::Pxor => lanes(m, dst, src, 64, |m, a, b| m.xor(a, b)),
        SseBinOp::Pandn => lanes(m, dst, src, 64, |m, a, b| {
            let na = m.not(64, a);
            m.and(na, b)
        }),
    }
}

/// A 128-bit value as four 32-bit lanes, lowest first.
fn lanes32<M: Machine>(m: &mut M, v: [M::Bv; 2]) -> [M::Bv; 4] {
    [
        m.extract(31, 0, v[0]),
        m.extract(63, 32, v[0]),
        m.extract(31, 0, v[1]),
        m.extract(63, 32, v[1]),
    ]
}

/// Four 32-bit lanes, lowest first, as a 128-bit value.
fn from_lanes32<M: Machine>(m: &mut M, l: [M::Bv; 4]) -> [M::Bv; 2] {
    [m.concat(32, l[1], l[0]), m.concat(32, l[3], l[2])]
}
