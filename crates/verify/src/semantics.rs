//! Symbolic execution of the modelled x86-64 subset.
//!
//! The instructions' meaning is not written here: [`SymExecutor::step`]
//! runs the one shared definition, [`stoke_x86::execute`], over
//! bit-vector terms built in a [`TermPool`] — the same code the emulator
//! runs over `u64` values, so the validator proves properties of exactly
//! the semantics the cost function measured. This module supplies the
//! symbolic side of its modelling hooks: memory is the byte-granular
//! write history of [`SymMemory`](crate::symstate::SymMemory) with named
//! stack slots, 64-bit widening multiplication (unless an operand is a
//! constant) and all division are uninterpreted functions, exactly as the
//! paper's validator does with STP (§5.2), and the bit operations are
//! blasted into terms.

use crate::symstate::{
    SymState, UF_DIV_QUOT, UF_DIV_REM, UF_IDIV_QUOT, UF_IDIV_REM, UF_MULHI_S64, UF_MULHI_U64,
    UF_MULLO64,
};
use stoke_solver::{TermData, TermId, TermPool};
use stoke_x86::semantics::address;
use stoke_x86::{execute, Flag, Gpr, Instruction, Machine, Mem, Reg, Width, Xmm};

/// Symbolic executor for straight-line code.
pub struct SymExecutor<'a> {
    pool: &'a mut TermPool,
    /// Whether rsp-relative accesses use the named-stack-slot model.
    pub stack_slots: bool,
}

impl<'a> SymExecutor<'a> {
    /// Create an executor over the given term pool.
    pub fn new(pool: &'a mut TermPool, stack_slots: bool) -> SymExecutor<'a> {
        SymExecutor { pool, stack_slots }
    }

    /// Access the underlying pool.
    pub fn pool(&mut self) -> &mut TermPool {
        self.pool
    }

    /// Execute one instruction symbolically, updating `st` in place.
    pub fn step(&mut self, st: &mut SymState, instr: &Instruction) {
        let mut machine = Symbolic {
            pool: self.pool,
            st,
            stack_slots: self.stack_slots,
        };
        execute(&mut machine, instr);
    }
}

/// The term domain of the shared semantics over one symbolic state.
struct Symbolic<'a> {
    pool: &'a mut TermPool,
    st: &'a mut SymState,
    stack_slots: bool,
}

impl Symbolic<'_> {
    /// The displacement of a memory operand that is a named stack slot
    /// under the current configuration.
    fn stack_disp(&self, m: &Mem) -> Option<i64> {
        (self.stack_slots && m.base == Some(Gpr::Rsp) && m.index.is_none())
            .then_some(i64::from(m.disp))
    }

    /// The address of the high 8 bytes of a 16-byte access at `a`.
    fn high_half(&mut self, a: TermId) -> TermId {
        let eight = self.pool.constant(64, 8);
        self.pool.add(a, eight)
    }

    /// Whether a term is a literal constant (cheap to multiply by).
    fn is_const(&self, t: TermId) -> bool {
        matches!(self.pool.data(t), TermData::Const { .. })
    }

    /// Schoolbook high half of an unsigned 64x64 multiplication, built from
    /// four 32x32 partial products. Only used when at least one operand is
    /// a constant, which keeps the blasted formula small.
    fn mulhi_u64(&mut self, a: TermId, b: TermId) -> TermId {
        let p = &mut *self.pool;
        let mask32 = p.constant(64, 0xffff_ffff);
        let c32 = p.constant(64, 32);
        let a0 = p.and(a, mask32);
        let a1 = p.lshr(a, c32);
        let b0 = p.and(b, mask32);
        let b1 = p.lshr(b, c32);
        let t0 = p.mul(a0, b0);
        let t1 = p.mul(a0, b1);
        let t2 = p.mul(a1, b0);
        let t3 = p.mul(a1, b1);
        let t0h = p.lshr(t0, c32);
        let t1l = p.and(t1, mask32);
        let t2l = p.and(t2, mask32);
        let mid = p.add(t0h, t1l);
        let mid = p.add(mid, t2l);
        let carry = p.lshr(mid, c32);
        let t1h = p.lshr(t1, c32);
        let t2h = p.lshr(t2, c32);
        let hi = p.add(t3, t1h);
        let hi = p.add(hi, t2h);
        p.add(hi, carry)
    }

    /// Schoolbook high half of a signed 64x64 multiplication:
    /// `mulhs(a,b) = mulhu(a,b) - (a < 0 ? b : 0) - (b < 0 ? a : 0)`.
    fn mulhi_s64(&mut self, a: TermId, b: TermId) -> TermId {
        let hi_u = self.mulhi_u64(a, b);
        let p = &mut *self.pool;
        let zero = p.constant(64, 0);
        let a_neg = p.slt(a, zero);
        let b_neg = p.slt(b, zero);
        let corr_a = p.ite(a_neg, b, zero);
        let corr_b = p.ite(b_neg, a, zero);
        let hi = p.sub(hi_u, corr_a);
        p.sub(hi, corr_b)
    }
}

impl Machine for Symbolic<'_> {
    type Bv = TermId;
    type Bit = TermId;

    fn read_reg(&mut self, r: Reg) -> TermId {
        self.st.read_reg(self.pool, r)
    }
    fn write_reg(&mut self, r: Reg, v: TermId) {
        self.st.write_reg(self.pool, r, v);
    }
    fn read_gpr64(&mut self, g: Gpr) -> TermId {
        self.st.read_gpr64(g)
    }
    fn set_gpr64(&mut self, g: Gpr, v: TermId) {
        self.st.set_gpr64(g, v);
    }
    fn read_xmm(&mut self, x: Xmm) -> [TermId; 2] {
        let (lo, hi) = self.st.read_xmm(x);
        [lo, hi]
    }
    fn write_xmm(&mut self, x: Xmm, [lo, hi]: [TermId; 2]) {
        self.st.write_xmm(x, (lo, hi));
    }
    fn read_flag(&mut self, f: Flag) -> TermId {
        self.st.read_flag(f)
    }
    fn write_flag(&mut self, f: Flag, v: TermId) {
        self.st.write_flag(f, v);
    }

    fn load(&mut self, mem: &Mem, w: Width) -> TermId {
        if let Some(disp) = self.stack_disp(mem) {
            let slot = self.st.memory.load_stack(self.pool, disp);
            return self.extract(w.bits() - 1, 0, slot);
        }
        let a = address(self, mem);
        self.st.memory.load(self.pool, a, w.bytes())
    }
    fn store(&mut self, mem: &Mem, w: Width, v: TermId) {
        if let Some(disp) = self.stack_disp(mem) {
            let new = if w == Width::Q {
                v
            } else {
                // Merge into the low bits of the 8-byte slot.
                let old = self.st.memory.load_stack(self.pool, disp);
                let hi = self.pool.extract(63, w.bits(), old);
                self.pool.concat(hi, v)
            };
            self.st.memory.store_stack(disp, new);
        } else {
            let a = address(self, mem);
            self.st.memory.store(self.pool, a, v, w.bytes());
        }
    }
    fn load128(&mut self, mem: &Mem) -> [TermId; 2] {
        let a = address(self, mem);
        let lo = self.st.memory.load(self.pool, a, 8);
        let high = self.high_half(a);
        [lo, self.st.memory.load(self.pool, high, 8)]
    }
    fn store128(&mut self, mem: &Mem, [lo, hi]: [TermId; 2]) {
        let a = address(self, mem);
        self.st.memory.store(self.pool, a, lo, 8);
        let high = self.high_half(a);
        self.st.memory.store(self.pool, high, hi, 8);
    }
    fn load_at(&mut self, addr: TermId) -> TermId {
        self.st.memory.load(self.pool, addr, 8)
    }
    fn store_at(&mut self, addr: TermId, v: TermId) {
        self.st.memory.store(self.pool, addr, v, 8);
    }

    fn divide(
        &mut self,
        w: Width,
        signed: bool,
        hi: TermId,
        lo: TermId,
        divisor: TermId,
    ) -> Option<(TermId, TermId)> {
        // Quotient and remainder are uninterpreted functions of the three
        // inputs (§5.2: division is uninterpreted).
        let (fq, fr) = if signed {
            (UF_IDIV_QUOT, UF_IDIV_REM)
        } else {
            (UF_DIV_QUOT, UF_DIV_REM)
        };
        let q = self.pool.uf(fq, vec![hi, lo, divisor], w.bits());
        let r = self.pool.uf(fr, vec![hi, lo, divisor], w.bits());
        Some((q, r))
    }
    fn mul64(&mut self, a: TermId, b: TermId, signed: bool) -> (TermId, TermId) {
        // Blast the product when either operand is a constant
        // (multiplication by constants stays cheap and provable, e.g. the
        // `imulq 2, rax` to `shlq 1, rax` strength reduction); otherwise
        // fall back to the paper's uninterpreted-function modelling.
        if self.is_const(a) || self.is_const(b) {
            let lo = self.pool.mul(a, b);
            let hi = if signed {
                self.mulhi_s64(a, b)
            } else {
                self.mulhi_u64(a, b)
            };
            return (lo, hi);
        }
        let lo = self.pool.uf(UF_MULLO64, vec![a, b], 64);
        let hi_fn = if signed { UF_MULHI_S64 } else { UF_MULHI_U64 };
        (lo, self.pool.uf(hi_fn, vec![a, b], 64))
    }
    fn parity(&mut self, v: TermId) -> TermId {
        let mut parity = self.pool.extract(0, 0, v);
        for i in 1..8 {
            let bit = self.pool.extract(i, i, v);
            parity = self.pool.xor(parity, bit);
        }
        self.pool.not(parity)
    }
    fn popcnt(&mut self, w: Width, a: TermId) -> TermId {
        let mut acc = self.pool.constant(w.bits(), 0);
        for i in 0..w.bits() {
            let bit = self.pool.extract(i, i, a);
            let ext = self.pool.zero_ext(w.bits(), bit);
            acc = self.pool.add(acc, ext);
        }
        acc
    }
    fn bit_scan(&mut self, w: Width, reverse: bool, a: TermId, old: TermId) -> TermId {
        // A priority encoder, applying the highest-priority bit last.
        let mut result = old;
        for k in 0..w.bits() {
            let i = if reverse { k } else { w.bits() - 1 - k };
            let bit = self.pool.extract(i, i, a);
            let idx = self.pool.constant(w.bits(), u64::from(i));
            result = self.pool.ite(bit, idx, result);
        }
        result
    }
    fn bswap(&mut self, w: Width, a: TermId) -> TermId {
        let mut acc = self.pool.extract(7, 0, a);
        for i in 1..w.bits() / 8 {
            let byte = self.pool.extract(8 * i + 7, 8 * i, a);
            acc = self.pool.concat(acc, byte);
        }
        acc
    }

    fn constant(&mut self, bits: u32, v: u64) -> TermId {
        self.pool.constant(bits, v)
    }
    fn bit_constant(&mut self, b: bool) -> TermId {
        self.pool.constant(1, u64::from(b))
    }
    fn not(&mut self, _bits: u32, a: TermId) -> TermId {
        self.pool.not(a)
    }
    fn and(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.and(a, b)
    }
    fn or(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.or(a, b)
    }
    fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.xor(a, b)
    }
    fn add(&mut self, _bits: u32, a: TermId, b: TermId) -> TermId {
        self.pool.add(a, b)
    }
    fn sub(&mut self, _bits: u32, a: TermId, b: TermId) -> TermId {
        self.pool.sub(a, b)
    }
    fn mul(&mut self, _bits: u32, a: TermId, b: TermId) -> TermId {
        self.pool.mul(a, b)
    }
    fn shl(&mut self, _bits: u32, a: TermId, n: TermId) -> TermId {
        self.pool.shl(a, n)
    }
    fn lshr(&mut self, _bits: u32, a: TermId, n: TermId) -> TermId {
        self.pool.lshr(a, n)
    }
    fn ashr(&mut self, _bits: u32, a: TermId, n: TermId) -> TermId {
        self.pool.ashr(a, n)
    }
    fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.eq(a, b)
    }
    fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.ult(a, b)
    }
    fn ite(&mut self, c: TermId, a: TermId, b: TermId) -> TermId {
        self.pool.ite(c, a, b)
    }
    fn extract(&mut self, hi: u32, lo: u32, a: TermId) -> TermId {
        self.pool.extract(hi, lo, a)
    }
    fn bit(&mut self, i: u32, a: TermId) -> TermId {
        self.pool.extract(i, i, a)
    }
    fn concat(&mut self, _lo_bits: u32, hi: TermId, lo: TermId) -> TermId {
        self.pool.concat(hi, lo)
    }
    fn zero_ext(&mut self, bits: u32, a: TermId) -> TermId {
        self.pool.zero_ext(bits, a)
    }
    fn sign_ext(&mut self, _from: u32, to: u32, a: TermId) -> TermId {
        self.pool.sign_ext(to, a)
    }
    fn extend_bit(&mut self, bits: u32, b: TermId) -> TermId {
        self.pool.zero_ext(bits, b)
    }
    fn not1(&mut self, a: TermId) -> TermId {
        self.pool.not(a)
    }
    fn and1(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.and(a, b)
    }
    fn or1(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.or(a, b)
    }
    fn xor1(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.xor(a, b)
    }
    fn eq1(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.eq(a, b)
    }
    fn ite1(&mut self, c: TermId, a: TermId, b: TermId) -> TermId {
        self.pool.ite(c, a, b)
    }
}
