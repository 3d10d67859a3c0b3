//! Concrete execution of the modelled x86-64 subset.
//!
//! Candidate rewrites are executed in a sandbox (§5.1): invalid memory
//! dereferences, arithmetic exceptions and reads from undefined registers
//! are trapped, counted in [`Faults`] and replaced with safe defaults
//! (zero values / discarded stores) so that execution can always continue.
//! The fault counters feed the `err(·)` term of the cost function
//! (Equation 11 of the paper).
//!
//! The instructions' meaning is not written here: it is the one shared
//! definition, [`stoke_x86::execute`], which `stoke-verify` also runs
//! symbolically. This module instantiates it over `u64` values and
//! `bool` flags for the per-case interpreter, and supplies the concrete
//! side of its modelling hooks: the memory sandbox, faulting division, the
//! native 128-bit multiply and the native bit operations (parity,
//! `popcnt`, `bsf`/`bsr`, `bswap`). Each concrete formula is written once,
//! in the private `value` module; the batched engine ([`crate::batch`])
//! applies the same functions lane by lane.

use crate::state::{MachineState, XmmValue};
use stoke_x86::flow::Access;
use stoke_x86::semantics::address;
use stoke_x86::{execute, Flag, Gpr, Instruction, Machine, Mem, Program, Reg, Width, Xmm};

/// Counts of the undefined behaviours observed while executing a rewrite.
///
/// These are the `sigsegv(·)`, `sigfloat(·)` and `undef(·)` counters of
/// Equation 11. Arithmetic exceptions (division by zero or quotient
/// overflow) play the role of the paper's floating point exceptions: the
/// modelled opcode subset is fixed-point only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Faults {
    /// Number of out-of-sandbox memory accesses.
    pub sigsegv: u64,
    /// Number of arithmetic exceptions (divide by zero / quotient overflow).
    pub sigfpe: u64,
    /// Number of reads from undefined registers or flags.
    pub undef: u64,
}

impl Faults {
    /// Whether no fault occurred.
    pub fn is_clean(&self) -> bool {
        self.sigsegv == 0 && self.sigfpe == 0 && self.undef == 0
    }

    /// Total number of faults, irrespective of kind.
    pub fn total(&self) -> u64 {
        self.sigsegv + self.sigfpe + self.undef
    }
}

/// The result of running a program on an input state.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The final machine state.
    pub state: MachineState,
    /// The faults observed during execution.
    pub faults: Faults,
}

/// Run `program` from `input`, sandboxing all undefined behaviour.
///
/// ```
/// use stoke_emu::run;
/// use stoke_emu::state::MachineState;
/// use stoke_x86::{Gpr, Program};
///
/// let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
/// let mut input = MachineState::new();
/// input.set_gpr64(Gpr::Rdi, 2);
/// input.set_gpr64(Gpr::Rsi, 40);
/// let out = run(&p, &input);
/// assert_eq!(out.state.read_gpr64(Gpr::Rax), 42);
/// assert!(out.faults.is_clean());
/// ```
pub fn run(program: &Program, input: &MachineState) -> Outcome {
    run_instrs(program.instrs(), input)
}

/// Run a slice of instructions from `input` (see [`run`]).
pub fn run_instrs(instrs: &[Instruction], input: &MachineState) -> Outcome {
    run_instr_refs(instrs, input)
}

/// Run a sequence of borrowed instructions through the per-step
/// interpreter (see [`run`]). This is the reference execution path that
/// the batched engine is checked against: per-instruction analysis (the
/// undefined-read counter) is recomputed on every step, with no
/// preparation pass.
pub fn run_instr_refs<'a>(
    instrs: impl IntoIterator<Item = &'a Instruction>,
    input: &MachineState,
) -> Outcome {
    let mut emu = Emulator {
        state: input.clone(),
        faults: Faults::default(),
    };
    for instr in instrs {
        emu.count_undefined_reads(instr);
        execute(&mut emu, instr);
    }
    Outcome {
        state: emu.state,
        faults: emu.faults,
    }
}

/// The sandboxed interpreter behind [`run_instrs`]: one [`MachineState`]
/// per run, and the shared semantics executed over it in the `u64`/`bool`
/// value domain. Memory accesses run in the sandbox, where an invalid
/// access counts a `sigsegv` and reads zero or drops the store; a division
/// that faults counts a `sigfpe` and leaves the state unchanged.
struct Emulator {
    state: MachineState,
    faults: Faults,
}

impl Emulator {
    /// Count one undefined read per register or flag the instruction
    /// reads that has not been defined.
    fn count_undefined_reads(&mut self, instr: &Instruction) {
        let reads = Access::of(instr).reads;
        let s = &self.state;
        let undefined = reads.gprs.iter().filter(|g| !s.gpr_is_defined(**g)).count()
            + reads.xmms.iter().filter(|x| !s.xmm_is_defined(**x)).count()
            + reads
                .flags
                .iter()
                .filter(|f| !s.flag_is_defined(**f))
                .count();
        self.faults.undef += undefined as u64;
    }

    fn sandboxed_load(&mut self, addr: u64, len: u64) -> u64 {
        self.state.memory.load(addr, len).unwrap_or_else(|| {
            self.faults.sigsegv += 1;
            0
        })
    }

    fn sandboxed_store(&mut self, addr: u64, value: u64, len: u64) {
        if !self.state.memory.store(addr, value, len) {
            self.faults.sigsegv += 1;
        }
    }
}

/// The concrete formulas of the value domain: values are `u64`s kept
/// truncated to their width, bits are `bool`s. The interpreter calls them
/// once per operation and the batched engine once per lane, so each is
/// written here only. Every one is `#[inline]`: the generic semantics call
/// them on every operation, possibly from another codegen unit, and
/// without it the interpreter measurably slows down.
pub(crate) mod value {
    use stoke_x86::Width;

    /// The low `bits` bits.
    #[inline]
    pub(crate) fn mask(bits: u32) -> u64 {
        u64::MAX >> (64 - bits)
    }

    /// Sign-extend the low `bits` bits of `v` to 64.
    #[inline]
    pub(crate) fn sext(bits: u32, v: u64) -> u64 {
        let shift = 64 - bits;
        (((v << shift) as i64) >> shift) as u64
    }

    #[inline]
    pub(crate) fn not(bits: u32, a: u64) -> u64 {
        !a & mask(bits)
    }

    #[inline]
    pub(crate) fn add(bits: u32, a: u64, b: u64) -> u64 {
        a.wrapping_add(b) & mask(bits)
    }

    #[inline]
    pub(crate) fn sub(bits: u32, a: u64, b: u64) -> u64 {
        a.wrapping_sub(b) & mask(bits)
    }

    #[inline]
    pub(crate) fn mul(bits: u32, a: u64, b: u64) -> u64 {
        a.wrapping_mul(b) & mask(bits)
    }

    #[inline]
    pub(crate) fn shl(bits: u32, a: u64, n: u64) -> u64 {
        if n >= u64::from(bits) {
            0
        } else {
            (a << n) & mask(bits)
        }
    }

    #[inline]
    pub(crate) fn lshr(bits: u32, a: u64, n: u64) -> u64 {
        if n >= u64::from(bits) {
            0
        } else {
            a >> n
        }
    }

    #[inline]
    pub(crate) fn ashr(bits: u32, a: u64, n: u64) -> u64 {
        ((sext(bits, a) as i64) >> n.min(u64::from(bits - 1))) as u64 & mask(bits)
    }

    #[inline]
    pub(crate) fn extract(hi: u32, lo: u32, a: u64) -> u64 {
        (a >> lo) & mask(hi - lo + 1)
    }

    #[inline]
    pub(crate) fn bit(i: u32, a: u64) -> bool {
        (a >> i) & 1 == 1
    }

    #[inline]
    pub(crate) fn concat(lo_bits: u32, hi: u64, lo: u64) -> u64 {
        (hi << lo_bits) | lo
    }

    #[inline]
    pub(crate) fn sign_ext(from: u32, to: u32, a: u64) -> u64 {
        sext(from, a) & mask(to)
    }

    /// PF: the even parity of the low byte.
    #[inline]
    pub(crate) fn parity(v: u64) -> bool {
        (v as u8).count_ones().is_multiple_of(2)
    }

    #[inline]
    pub(crate) fn popcnt(a: u64) -> u64 {
        u64::from(a.count_ones())
    }

    #[inline]
    pub(crate) fn bit_scan(reverse: bool, a: u64, old: u64) -> u64 {
        match (a, reverse) {
            (0, _) => old,
            (_, false) => u64::from(a.trailing_zeros()),
            (_, true) => u64::from(63 - a.leading_zeros()),
        }
    }

    #[inline]
    pub(crate) fn bswap(w: Width, a: u64) -> u64 {
        a.swap_bytes() >> (64 - w.bits())
    }

    /// (low, high) halves of the 128-bit product.
    #[inline]
    pub(crate) fn mul64(a: u64, b: u64, signed: bool) -> (u64, u64) {
        let full = if signed {
            (i128::from(a as i64) * i128::from(b as i64)) as u128
        } else {
            u128::from(a) * u128::from(b)
        };
        (full as u64, (full >> 64) as u64)
    }

    /// Quotient and remainder of `hi:lo / divisor` at width `w`, or `None`
    /// on a division by zero or a quotient that does not fit.
    #[inline]
    pub(crate) fn divide(
        w: Width,
        signed: bool,
        hi: u64,
        lo: u64,
        divisor: u64,
    ) -> Option<(u64, u64)> {
        let bits = w.bits();
        let dividend = (u128::from(hi) << bits) | u128::from(lo);
        if divisor == 0 {
            None
        } else if signed {
            // Sign-extend the 2w-bit dividend and the divisor.
            let shift = 128 - 2 * bits;
            let dividend = ((dividend << shift) as i128) >> shift;
            let divisor = i128::from(sext(bits, divisor) as i64);
            let q = dividend.wrapping_div(divisor);
            let fits = (-(1i128 << (bits - 1))..1i128 << (bits - 1)).contains(&q);
            fits.then(|| {
                let r = dividend.wrapping_rem(divisor);
                (q as u64 & mask(bits), r as u64 & mask(bits))
            })
        } else {
            let q = dividend / u128::from(divisor);
            (q <= u128::from(mask(bits)))
                .then(|| (q as u64, (dividend % u128::from(divisor)) as u64))
        }
    }
}

impl Machine for Emulator {
    type Bv = u64;
    type Bit = bool;

    fn read_reg(&mut self, r: Reg) -> u64 {
        self.state.read_reg(r)
    }
    fn write_reg(&mut self, r: Reg, v: u64) {
        self.state.write_reg(r, v);
    }
    fn read_gpr64(&mut self, g: Gpr) -> u64 {
        self.state.read_gpr64(g)
    }
    fn set_gpr64(&mut self, g: Gpr, v: u64) {
        self.state.set_gpr64(g, v);
    }
    fn read_xmm(&mut self, x: Xmm) -> XmmValue {
        self.state.read_xmm(x)
    }
    fn write_xmm(&mut self, x: Xmm, v: XmmValue) {
        self.state.write_xmm(x, v);
    }
    fn read_flag(&mut self, f: Flag) -> bool {
        self.state.read_flag(f)
    }
    fn write_flag(&mut self, f: Flag, v: bool) {
        self.state.write_flag(f, v);
    }
    fn write_flag_unless(&mut self, keep: bool, f: Flag, v: bool) {
        if !keep {
            self.state.write_flag(f, v);
        }
    }

    fn load(&mut self, mem: &Mem, w: Width) -> u64 {
        let addr = address(self, mem);
        self.sandboxed_load(addr, w.bytes())
    }
    fn store(&mut self, mem: &Mem, w: Width, v: u64) {
        let addr = address(self, mem);
        self.sandboxed_store(addr, w.truncate(v), w.bytes());
    }
    fn load128(&mut self, mem: &Mem) -> XmmValue {
        let addr = address(self, mem);
        self.state.memory.load128(addr).unwrap_or_else(|| {
            self.faults.sigsegv += 1;
            [0, 0]
        })
    }
    fn store128(&mut self, mem: &Mem, v: XmmValue) {
        let addr = address(self, mem);
        if !self.state.memory.store128(addr, v) {
            self.faults.sigsegv += 1;
        }
    }
    fn load_at(&mut self, addr: u64) -> u64 {
        self.sandboxed_load(addr, 8)
    }
    fn store_at(&mut self, addr: u64, v: u64) {
        self.sandboxed_store(addr, v, 8);
    }

    fn divide(
        &mut self,
        w: Width,
        signed: bool,
        hi: u64,
        lo: u64,
        divisor: u64,
    ) -> Option<(u64, u64)> {
        let result = value::divide(w, signed, hi, lo, divisor);
        if result.is_none() {
            self.faults.sigfpe += 1;
        }
        result
    }
    fn mul64(&mut self, a: u64, b: u64, signed: bool) -> (u64, u64) {
        value::mul64(a, b, signed)
    }
    fn parity(&mut self, v: u64) -> bool {
        value::parity(v)
    }
    fn popcnt(&mut self, _w: Width, a: u64) -> u64 {
        value::popcnt(a)
    }
    fn bit_scan(&mut self, _w: Width, reverse: bool, a: u64, old: u64) -> u64 {
        value::bit_scan(reverse, a, old)
    }
    fn bswap(&mut self, w: Width, a: u64) -> u64 {
        value::bswap(w, a)
    }

    fn constant(&mut self, bits: u32, v: u64) -> u64 {
        v & value::mask(bits)
    }
    fn bit_constant(&mut self, b: bool) -> bool {
        b
    }
    fn not(&mut self, bits: u32, a: u64) -> u64 {
        value::not(bits, a)
    }
    fn and(&mut self, a: u64, b: u64) -> u64 {
        a & b
    }
    fn or(&mut self, a: u64, b: u64) -> u64 {
        a | b
    }
    fn xor(&mut self, a: u64, b: u64) -> u64 {
        a ^ b
    }
    fn add(&mut self, bits: u32, a: u64, b: u64) -> u64 {
        value::add(bits, a, b)
    }
    fn sub(&mut self, bits: u32, a: u64, b: u64) -> u64 {
        value::sub(bits, a, b)
    }
    fn mul(&mut self, bits: u32, a: u64, b: u64) -> u64 {
        value::mul(bits, a, b)
    }
    fn shl(&mut self, bits: u32, a: u64, n: u64) -> u64 {
        value::shl(bits, a, n)
    }
    fn lshr(&mut self, bits: u32, a: u64, n: u64) -> u64 {
        value::lshr(bits, a, n)
    }
    fn ashr(&mut self, bits: u32, a: u64, n: u64) -> u64 {
        value::ashr(bits, a, n)
    }
    fn eq(&mut self, a: u64, b: u64) -> bool {
        a == b
    }
    fn ult(&mut self, a: u64, b: u64) -> bool {
        a < b
    }
    fn ite(&mut self, c: bool, a: u64, b: u64) -> u64 {
        if c {
            a
        } else {
            b
        }
    }
    fn extract(&mut self, hi: u32, lo: u32, a: u64) -> u64 {
        value::extract(hi, lo, a)
    }
    fn bit(&mut self, i: u32, a: u64) -> bool {
        value::bit(i, a)
    }
    fn concat(&mut self, lo_bits: u32, hi: u64, lo: u64) -> u64 {
        value::concat(lo_bits, hi, lo)
    }
    fn zero_ext(&mut self, _bits: u32, a: u64) -> u64 {
        a
    }
    fn sign_ext(&mut self, from: u32, to: u32, a: u64) -> u64 {
        value::sign_ext(from, to, a)
    }
    fn extend_bit(&mut self, _bits: u32, b: bool) -> u64 {
        u64::from(b)
    }
    fn not1(&mut self, a: bool) -> bool {
        !a
    }
    fn and1(&mut self, a: bool, b: bool) -> bool {
        a && b
    }
    fn or1(&mut self, a: bool, b: bool) -> bool {
        a || b
    }
    fn xor1(&mut self, a: bool, b: bool) -> bool {
        a ^ b
    }
    fn eq1(&mut self, a: bool, b: bool) -> bool {
        a == b
    }
    fn ite1(&mut self, c: bool, a: bool, b: bool) -> bool {
        if c {
            a
        } else {
            b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoke_x86::Program;

    fn state_with(regs: &[(Gpr, u64)]) -> MachineState {
        let mut s = MachineState::new();
        for (g, v) in regs {
            s.set_gpr64(*g, *v);
        }
        s
    }

    fn run_text(text: &str, input: &MachineState) -> Outcome {
        let p: Program = text.parse().unwrap();
        run(&p, input)
    }

    #[test]
    fn mov_and_add() {
        let s = state_with(&[(Gpr::Rdi, 7), (Gpr::Rsi, 35)]);
        let out = run_text("movq rdi, rax\naddq rsi, rax", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 42);
        assert!(out.faults.is_clean());
    }

    #[test]
    fn mov32_zero_extends() {
        let s = state_with(&[(Gpr::Rdx, 0xffff_ffff_1234_5678)]);
        let out = run_text("mov edx, edx", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rdx), 0x1234_5678);
    }

    #[test]
    fn add_sets_carry_and_overflow() {
        let s = state_with(&[(Gpr::Rax, u64::MAX), (Gpr::Rbx, 1)]);
        let out = run_text("addq rbx, rax", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 0);
        assert!(out.state.read_flag(Flag::Cf));
        assert!(out.state.read_flag(Flag::Zf));
        assert!(!out.state.read_flag(Flag::Of));

        let s = state_with(&[(Gpr::Rax, 0x7fff_ffff_ffff_ffff), (Gpr::Rbx, 1)]);
        let out = run_text("addq rbx, rax", &s);
        assert!(out.state.read_flag(Flag::Of));
        assert!(!out.state.read_flag(Flag::Cf));
    }

    #[test]
    fn adc_chains_carries() {
        // 128-bit increment of 0x0000_0001_ffff_ffff_ffff_ffff.
        let s = state_with(&[(Gpr::Rax, u64::MAX), (Gpr::Rdx, 1), (Gpr::Rbx, 1)]);
        let out = run_text("addq rbx, rax\nadcq 0, rdx", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 0);
        assert_eq!(out.state.read_gpr64(Gpr::Rdx), 2);
    }

    #[test]
    fn sub_cmp_flags_and_cmov() {
        let s = state_with(&[(Gpr::Rdi, 5), (Gpr::Rcx, 5), (Gpr::Rsi, 99)]);
        let out = run_text("cmpl edi, ecx\ncmovel esi, ecx", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rcx), 99);
        let s = state_with(&[(Gpr::Rdi, 6), (Gpr::Rcx, 5), (Gpr::Rsi, 99)]);
        let out = run_text("cmpl edi, ecx\ncmovel esi, ecx", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rcx), 5);
    }

    #[test]
    fn setcc_writes_one_byte() {
        let s = state_with(&[(Gpr::Rdi, 3), (Gpr::Rsi, 3), (Gpr::Rdx, 0xffff_ff00)]);
        let out = run_text("cmpq rdi, rsi\nsete dl", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rdx), 0xffff_ff01);
    }

    #[test]
    fn widening_multiply() {
        // 2^63 * 2 = 2^64: low half 0, high half 1.
        let s = state_with(&[(Gpr::Rax, 1u64 << 63), (Gpr::Rsi, 2)]);
        let out = run_text("mulq rsi", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 0);
        assert_eq!(out.state.read_gpr64(Gpr::Rdx), 1);
        assert!(out.state.read_flag(Flag::Cf));
    }

    #[test]
    fn signed_widening_multiply_32() {
        let s = state_with(&[(Gpr::Rax, (-3i32) as u32 as u64), (Gpr::Rsi, 7)]);
        let out = run_text("imull esi", &s);
        assert_eq!(
            out.state.read_reg(Gpr::Rax.view(Width::L)),
            (-21i32) as u32 as u64
        );
        assert_eq!(
            out.state.read_reg(Gpr::Rdx.view(Width::L)),
            u64::from(u32::MAX)
        );
    }

    #[test]
    fn imul2_truncates_and_flags_overflow() {
        let s = state_with(&[(Gpr::Rax, 1u64 << 62), (Gpr::Rbx, 4)]);
        let out = run_text("imulq rbx, rax", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 0);
        assert!(out.state.read_flag(Flag::Of));
    }

    #[test]
    fn division_and_fault() {
        let s = state_with(&[(Gpr::Rax, 100), (Gpr::Rdx, 0), (Gpr::Rcx, 7)]);
        let out = run_text("divq rcx", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 14);
        assert_eq!(out.state.read_gpr64(Gpr::Rdx), 2);
        assert!(out.faults.is_clean());

        let s = state_with(&[(Gpr::Rax, 100), (Gpr::Rdx, 0), (Gpr::Rcx, 0)]);
        let out = run_text("divq rcx", &s);
        assert_eq!(out.faults.sigfpe, 1);
        assert_eq!(
            out.state.read_gpr64(Gpr::Rax),
            100,
            "faulting divide leaves state unchanged"
        );
    }

    #[test]
    fn shifts() {
        let s = state_with(&[(Gpr::Rcx, 0x0000_0000_9000_0001)]);
        let out = run_text("shlq 32, rcx", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rcx), 0x9000_0001_0000_0000);

        let s = state_with(&[(Gpr::Rsi, 0x9000_0001_0000_0000)]);
        let out = run_text("shrq 32, rsi", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rsi), 0x9000_0001);

        let s = state_with(&[(Gpr::Rax, 0x8000_0000_0000_0000)]);
        let out = run_text("sarq 63, rax", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), u64::MAX);

        // Shift count is masked to 5 bits for 32-bit operands.
        let s = state_with(&[(Gpr::Rax, 0xff)]);
        let out = run_text("shll 32, eax", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 0xff);

        // Shift by CL.
        let s = state_with(&[(Gpr::Rax, 1), (Gpr::Rcx, 4)]);
        let out = run_text("shlq cl, rax", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 16);
    }

    #[test]
    fn rotates() {
        let s = state_with(&[(Gpr::Rax, 0x8000_0000_0000_0001)]);
        let out = run_text("rolq 1, rax", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 3);
        let s = state_with(&[(Gpr::Rax, 0x3)]);
        let out = run_text("rorq 1, rax", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 0x8000_0000_0000_0001);
    }

    #[test]
    fn bit_instructions() {
        let s = state_with(&[(Gpr::Rdi, 0b1011_0100)]);
        let out = run_text("popcntq rdi, rax\nbsfq rdi, rbx\nbsrq rdi, rcx", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 4);
        assert_eq!(out.state.read_gpr64(Gpr::Rbx), 2);
        assert_eq!(out.state.read_gpr64(Gpr::Rcx), 7);

        let s = state_with(&[(Gpr::Rdi, 0x0102_0304)]);
        let out = run_text("bswapl edi", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rdi), 0x0403_0201);
    }

    #[test]
    fn sign_extension_family() {
        let s = state_with(&[(Gpr::Rax, 0xffff_ffff_8000_0000u64 & 0xffff_ffff)]);
        let out = run_text("cltq", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 0xffff_ffff_8000_0000);

        let s = state_with(&[(Gpr::Rax, 0x8000_0000_0000_0000)]);
        let out = run_text("cqto", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rdx), u64::MAX);

        let s = state_with(&[(Gpr::Rcx, 0xffff_ffff)]);
        let out = run_text("movslq ecx, rcx", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rcx), u64::MAX);
    }

    #[test]
    fn memory_load_store_and_lea() {
        let mut s = state_with(&[(Gpr::Rsi, 0x1000), (Gpr::Rcx, 2), (Gpr::Rdi, 3)]);
        s.memory.poke_wide(0x1008, 123, 4);
        let out = run_text(
            "movl (rsi,rcx,4), eax\nimull edi, eax\nmovl eax, (rsi,rcx,4)\nleaq 4(rsi,rcx,4), rbx",
            &s,
        );
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 369);
        assert_eq!(out.state.memory.peek_wide(0x1008, 4), 369);
        assert_eq!(out.state.read_gpr64(Gpr::Rbx), 0x100c);
        assert!(out.faults.is_clean());
    }

    #[test]
    fn out_of_sandbox_access_faults() {
        let s = state_with(&[(Gpr::Rsi, 0x1000)]);
        let out = run_text("movq (rsi), rax", &s);
        assert_eq!(out.faults.sigsegv, 1);
        assert_eq!(
            out.state.read_gpr64(Gpr::Rax),
            0,
            "faulting load produces zero"
        );
        let out = run_text("movq rax, (rsi)", &s);
        assert_eq!(out.faults.sigsegv, 1);
    }

    #[test]
    fn undefined_register_reads_counted() {
        let s = state_with(&[(Gpr::Rdi, 1)]);
        // rbx was never defined.
        let out = run_text("addq rbx, rdi", &s);
        assert_eq!(out.faults.undef, 1);
        // Flags undefined before adc.
        let out = run_text("adcq rdi, rdi", &s);
        assert!(out.faults.undef >= 1);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut s = state_with(&[(Gpr::Rsp, 0x2000), (Gpr::Rdi, 77)]);
        s.memory.mark_valid(0x1ff8, 8);
        let out = run_text("pushq rdi\npopq rax", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 77);
        assert_eq!(out.state.read_gpr64(Gpr::Rsp), 0x2000);
        assert!(out.faults.is_clean());
    }

    #[test]
    fn xchg_swaps() {
        let s = state_with(&[(Gpr::Rax, 1), (Gpr::Rbx, 2)]);
        let out = run_text("xchgq rax, rbx", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 2);
        assert_eq!(out.state.read_gpr64(Gpr::Rbx), 1);
    }

    #[test]
    fn montgomery_rewrite_matches_reference() {
        // Figure 1 (right): c1:c0 := np * mh:ml + c1 + c0
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
        let cases = [
            (
                0x1234_5678_9abc_def0u64,
                0xdead_beefu64,
                0xcafe_babeu64,
                7u64,
                9u64,
            ),
            (
                u64::MAX,
                u32::MAX as u64,
                u32::MAX as u64,
                u64::MAX,
                u64::MAX,
            ),
            (0, 0, 0, 0, 0),
            (1, 0, 1, 0xffff_ffff_ffff_ffff, 1),
        ];
        for (np, mh, ml, c0, c1) in cases {
            let s = state_with(&[
                (Gpr::Rsi, np),
                (Gpr::Rcx, mh),
                (Gpr::Rdx, ml),
                (Gpr::Rdi, c0),
                (Gpr::R8, c1),
            ]);
            let out = run_text(text, &s);
            let expected = u128::from(np) * ((u128::from(mh) << 32) | u128::from(ml))
                + u128::from(c1)
                + u128::from(c0);
            assert_eq!(out.state.read_gpr64(Gpr::Rdi), expected as u64, "low half");
            assert_eq!(
                out.state.read_gpr64(Gpr::R8),
                (expected >> 64) as u64,
                "high half"
            );
            assert!(out.faults.is_clean());
        }
    }

    #[test]
    fn sse_saxpy_rewrite() {
        // Figure 14 (bottom): x[i..i+4] = a * x[i..i+4] + y[i..i+4] with
        // 16-bit lane multiplies (as in the paper's pmullw rewrite) — here
        // exercised with small values where 16-bit and 32-bit agree.
        let text = "
            movd edi, xmm0
            shufps 0, xmm0, xmm0
            movups (rsi,rcx,4), xmm1
            pmullw xmm1, xmm0
            movups (rdx,rcx,4), xmm1
            paddw xmm1, xmm0
            movups xmm0, (rsi,rcx,4)
        ";
        let mut s = state_with(&[
            (Gpr::Rdi, 3),
            (Gpr::Rsi, 0x1000),
            (Gpr::Rdx, 0x2000),
            (Gpr::Rcx, 0),
        ]);
        for i in 0..4u64 {
            s.memory.poke_wide(0x1000 + 4 * i, 10 + i, 4);
            s.memory.poke_wide(0x2000 + 4 * i, 100 + i, 4);
        }
        let out = run_text(text, &s);
        for i in 0..4u64 {
            let expected = 3 * (10 + i) + (100 + i);
            assert_eq!(
                out.state.memory.peek_wide(0x1000 + 4 * i, 4),
                expected,
                "lane {}",
                i
            );
        }
        assert!(out.faults.is_clean());
    }

    #[test]
    fn pshufd_broadcast() {
        let mut s = MachineState::new();
        s.write_xmm(
            stoke_x86::Xmm(1),
            [0x0000_0002_0000_0001, 0x0000_0004_0000_0003],
        );
        let out = run_text("pshufd 0, xmm1, xmm2", &s);
        assert_eq!(
            out.state.read_xmm(stoke_x86::Xmm(2)),
            [0x0000_0001_0000_0001, 0x0000_0001_0000_0001]
        );
    }

    #[test]
    fn punpck_interleaves() {
        let mut s = MachineState::new();
        s.write_xmm(stoke_x86::Xmm(0), [0x0000_0002_0000_0001, 0]);
        s.write_xmm(stoke_x86::Xmm(1), [0x0000_000b_0000_000a, 0]);
        let out = run_text("punpckldq xmm1, xmm0", &s);
        assert_eq!(
            out.state.read_xmm(stoke_x86::Xmm(0)),
            [0x0000_000a_0000_0001, 0x0000_000b_0000_0002]
        );
        let mut s = MachineState::new();
        s.write_xmm(stoke_x86::Xmm(0), [1, 2]);
        s.write_xmm(stoke_x86::Xmm(1), [3, 4]);
        let out = run_text("punpcklqdq xmm1, xmm0", &s);
        assert_eq!(out.state.read_xmm(stoke_x86::Xmm(0)), [1, 3]);
    }

    #[test]
    fn bsf_of_zero_leaves_dst() {
        let s = state_with(&[(Gpr::Rdi, 0), (Gpr::Rax, 55)]);
        let out = run_text("bsfq rdi, rax", &s);
        assert_eq!(out.state.read_gpr64(Gpr::Rax), 55);
        assert!(out.state.read_flag(Flag::Zf));
    }
}
