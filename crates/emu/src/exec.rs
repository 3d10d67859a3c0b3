//! Concrete execution of the modelled x86-64 subset.
//!
//! Candidate rewrites are executed in a sandbox (§5.1): invalid memory
//! dereferences, arithmetic exceptions and reads from undefined registers
//! are trapped, counted in [`Faults`] and replaced with safe defaults
//! (zero values / discarded stores) so that execution can always continue.
//! The fault counters feed the `err(·)` term of the cost function
//! (Equation 11 of the paper).
//!
//! The semantics implemented here are mirrored symbolically by
//! `stoke-verify`; the two are kept in agreement by randomized
//! differential tests in `tests/emu_vs_verify.rs`.

use crate::state::{MachineState, XmmValue};
use stoke_x86::{
    AluOp, BitOp, Flag, Gpr, Instruction, Mem, Opcode, Operand, Program, Reg, ShiftOp, SseBinOp,
    SseShiftOp, UnOp, Width, Xmm,
};

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
    let mut emu = Emulator::start(input);
    for instr in instrs {
        emu.step(instr);
    }
    emu.finish()
}

/// The sandboxed interpreter state behind [`run_instrs`] and
/// [`run_prepared`](crate::prepare::PreparedProgram::run_prepared): one
/// [`MachineState`] per run. All instruction semantics live in the [`Cpu`]
/// trait's provided [`execute`](Cpu::execute) method. The batched engine
/// ([`crate::batch`]) runs the same method through its column view for
/// the instructions it has no row-pass micro-op for; this interpreter is
/// the oracle its micro-ops are tested against.
pub(crate) struct Emulator {
    pub(crate) state: MachineState,
    pub(crate) faults: Faults,
}

impl Emulator {
    pub(crate) fn start(input: &MachineState) -> Emulator {
        Emulator {
            state: input.clone(),
            faults: Faults::default(),
        }
    }

    pub(crate) fn finish(self) -> Outcome {
        Outcome {
            state: self.state,
            faults: self.faults,
        }
    }

    fn step(&mut self, instr: &Instruction) {
        self.count_undefined_reads(instr);
        self.execute(instr);
    }

    /// Count reads from registers or flags that have not been defined.
    fn count_undefined_reads(&mut self, instr: &Instruction) {
        for r in instr.gpr_uses() {
            if !self.state.gpr_is_defined(r.parent()) {
                self.faults.undef += 1;
            }
        }
        for x in instr.xmm_uses() {
            if !self.state.xmm_is_defined(x) {
                self.faults.undef += 1;
            }
        }
        for f in instr.flag_uses() {
            if !self.state.flag_is_defined(*f) {
                self.faults.undef += 1;
            }
        }
    }
}

/// The primitive state accesses an executor of the shared semantics must
/// provide; every instruction's semantics are written once, as provided
/// methods over these primitives (most importantly [`Cpu::execute`]).
///
/// Implemented by [`Emulator`] (one [`MachineState`] per run: the
/// interpreter and [`run_prepared`](crate::prepare::PreparedProgram::run_prepared))
/// and by the batched engine's column view into a structure-of-arrays
/// [`crate::batch::BatchState`]. Instructions the engine executes through
/// that view agree with the interpreter bit-for-bit by construction; its
/// row-pass micro-ops restate the semantics per shape and are checked
/// against the interpreter by the `prop_batched` property suite.
pub(crate) trait Cpu {
    /// Read a register view (masked to the view's width).
    fn read_reg(&self, r: Reg) -> u64;
    /// Write a register view with x86-64 merge semantics; marks defined.
    fn write_reg(&mut self, r: Reg, value: u64);
    /// Read the full 64-bit value of an architectural register.
    fn read_gpr64(&self, g: Gpr) -> u64;
    /// Overwrite the full 64-bit value of a register; marks defined.
    fn set_gpr64(&mut self, g: Gpr, value: u64);
    /// Read an SSE register.
    fn read_xmm(&self, x: Xmm) -> XmmValue;
    /// Write an SSE register; marks defined.
    fn write_xmm(&mut self, x: Xmm, value: XmmValue);
    /// Read a status flag.
    fn read_flag(&self, f: Flag) -> bool;
    /// Write a status flag; marks defined.
    fn write_flag(&mut self, f: Flag, value: bool);
    /// Sandboxed load of `len <= 8` bytes (`None` on a fault).
    fn mem_load(&self, addr: u64, len: u64) -> Option<u64>;
    /// Sandboxed store of `len <= 8` bytes (`false` on a fault).
    fn mem_store(&mut self, addr: u64, value: u64, len: u64) -> bool;
    /// Sandboxed 128-bit load.
    fn mem_load128(&self, addr: u64) -> Option<XmmValue>;
    /// Sandboxed 128-bit store.
    fn mem_store128(&mut self, addr: u64, value: XmmValue) -> bool;
    /// Record an out-of-sandbox memory access.
    fn fault_sigsegv(&mut self);
    /// Record an arithmetic exception.
    fn fault_sigfpe(&mut self);

    fn addr(&self, m: &Mem) -> u64 {
        let base = m.base.map_or(0, |b| self.read_gpr64(b));
        let index = m.index.map_or(0, |i| self.read_gpr64(i));
        base.wrapping_add(index.wrapping_mul(m.scale.factor()))
            .wrapping_add(m.disp as i64 as u64)
    }

    /// Read a scalar operand at the given width (masked).
    fn read(&mut self, op: &Operand, w: Width) -> u64 {
        match op {
            Operand::Reg(r) => self.read_reg(Reg::new(r.parent(), w)),
            Operand::Imm(i) => w.truncate(*i as u64),
            Operand::Mem(m) => {
                let addr = self.addr(m);
                match self.mem_load(addr, w.bytes()) {
                    Some(v) => v,
                    None => {
                        self.fault_sigsegv();
                        0
                    }
                }
            }
            Operand::Xmm(x) => self.read_xmm(*x)[0],
        }
    }

    /// Write a scalar result to a register or memory destination.
    fn write(&mut self, op: &Operand, w: Width, value: u64) {
        match op {
            Operand::Reg(r) => self.write_reg(Reg::new(r.parent(), w), value),
            Operand::Mem(m) => {
                let addr = self.addr(m);
                if !self.mem_store(addr, w.truncate(value), w.bytes()) {
                    self.fault_sigsegv();
                }
            }
            Operand::Imm(_) | Operand::Xmm(_) => {
                unreachable!("scalar destination cannot be an immediate or xmm")
            }
        }
    }

    /// Read a 128-bit operand (xmm or memory).
    fn read128(&mut self, op: &Operand) -> XmmValue {
        match op {
            Operand::Xmm(x) => self.read_xmm(*x),
            Operand::Mem(m) => {
                let addr = self.addr(m);
                match self.mem_load128(addr) {
                    Some(v) => v,
                    None => {
                        self.fault_sigsegv();
                        [0, 0]
                    }
                }
            }
            _ => unreachable!("128-bit operand must be xmm or memory"),
        }
    }

    /// Write a 128-bit result (xmm or memory destination).
    fn write128(&mut self, op: &Operand, value: XmmValue) {
        match op {
            Operand::Xmm(x) => self.write_xmm(*x, value),
            Operand::Mem(m) => {
                let addr = self.addr(m);
                if !self.mem_store128(addr, value) {
                    self.fault_sigsegv();
                }
            }
            _ => unreachable!("128-bit destination must be xmm or memory"),
        }
    }

    fn flags(&self) -> (bool, bool, bool, bool) {
        (
            self.read_flag(Flag::Cf),
            self.read_flag(Flag::Zf),
            self.read_flag(Flag::Sf),
            self.read_flag(Flag::Of),
        )
    }

    fn set_result_flags(&mut self, w: Width, r: u64) {
        self.write_flag(Flag::Zf, w.truncate(r) == 0);
        self.write_flag(Flag::Sf, w.sign_bit(r));
        self.write_flag(
            Flag::Pf,
            (w.truncate(r) as u8).count_ones().is_multiple_of(2),
        );
    }

    fn set_flags_add(&mut self, w: Width, a: u64, b: u64, carry_in: u64, r: u64) {
        let full = u128::from(a) + u128::from(b) + u128::from(carry_in);
        let cf = full > u128::from(w.mask());
        let of = (w.sign_bit(a) == w.sign_bit(b)) && (w.sign_bit(r) != w.sign_bit(a));
        self.write_flag(Flag::Cf, cf);
        self.write_flag(Flag::Of, of);
        self.set_result_flags(w, r);
    }

    fn set_flags_sub(&mut self, w: Width, a: u64, b: u64, borrow_in: u64, r: u64) {
        let cf = u128::from(a) < u128::from(b) + u128::from(borrow_in);
        let of = (w.sign_bit(a) != w.sign_bit(b)) && (w.sign_bit(r) != w.sign_bit(a));
        self.write_flag(Flag::Cf, cf);
        self.write_flag(Flag::Of, of);
        self.set_result_flags(w, r);
    }

    fn set_flags_logic(&mut self, w: Width, r: u64) {
        self.write_flag(Flag::Cf, false);
        self.write_flag(Flag::Of, false);
        self.set_result_flags(w, r);
    }

    /// Execute one instruction's semantics (the undefined-read counter is
    /// the caller's responsibility — see [`Emulator::step`] and the
    /// batched column loop).
    fn execute(&mut self, instr: &Instruction) {
        let ops = instr.operands();
        match instr.opcode() {
            Opcode::Nop => {}
            Opcode::Mov(w) => {
                let v = self.read(&ops[0], w);
                self.write(&ops[1], w, v);
            }
            Opcode::Movabs => {
                let v = ops[0].as_imm().unwrap_or(0) as u64;
                self.write(&ops[1], Width::Q, v);
            }
            Opcode::Movslq => {
                let v = self.read(&ops[0], Width::L);
                self.write(&ops[1], Width::Q, Width::L.sign_extend(v));
            }
            Opcode::Movsbq => {
                let v = self.read(&ops[0], Width::B);
                self.write(&ops[1], Width::Q, Width::B.sign_extend(v));
            }
            Opcode::Movsbl => {
                let v = self.read(&ops[0], Width::B);
                self.write(&ops[1], Width::L, Width::B.sign_extend(v));
            }
            Opcode::Movzbq => {
                let v = self.read(&ops[0], Width::B);
                self.write(&ops[1], Width::Q, v);
            }
            Opcode::Movzbl => {
                let v = self.read(&ops[0], Width::B);
                self.write(&ops[1], Width::L, v);
            }
            Opcode::Lea(w) => {
                let m = ops[0].as_mem().expect("lea source is a memory operand");
                let addr = self.addr(&m);
                self.write(&ops[1], w, addr);
            }
            Opcode::Xchg(w) => {
                let a = self.read(&ops[0], w);
                let b = self.read(&ops[1], w);
                self.write(&ops[0], w, b);
                self.write(&ops[1], w, a);
            }
            Opcode::Push => {
                let v = self.read(&ops[0], Width::Q);
                let rsp = self.read_gpr64(Gpr::Rsp).wrapping_sub(8);
                self.set_gpr64(Gpr::Rsp, rsp);
                if !self.mem_store(rsp, v, 8) {
                    self.fault_sigsegv();
                }
            }
            Opcode::Pop => {
                let rsp = self.read_gpr64(Gpr::Rsp);
                let v = match self.mem_load(rsp, 8) {
                    Some(v) => v,
                    None => {
                        self.fault_sigsegv();
                        0
                    }
                };
                self.set_gpr64(Gpr::Rsp, rsp.wrapping_add(8));
                self.write(&ops[0], Width::Q, v);
            }
            Opcode::Cmov(c, w) => {
                let (cf, zf, sf, of) = self.flags();
                let take = c.eval(cf, zf, sf, of);
                let v = self.read(&ops[0], w);
                let old = self.read(&ops[1], w);
                // A 32-bit cmov zero-extends its destination even when the
                // condition is false, exactly as the hardware does.
                self.write(&ops[1], w, if take { v } else { old });
            }
            Opcode::Set(c) => {
                let (cf, zf, sf, of) = self.flags();
                let v = u64::from(c.eval(cf, zf, sf, of));
                self.write(&ops[0], Width::B, v);
            }
            Opcode::Alu(op, w) => {
                let src = self.read(&ops[0], w);
                let dst = self.read(&ops[1], w);
                let carry = u64::from(self.read_flag(Flag::Cf));
                let result = match op {
                    AluOp::Add => w.truncate(dst.wrapping_add(src)),
                    AluOp::Adc => w.truncate(dst.wrapping_add(src).wrapping_add(carry)),
                    AluOp::Sub => w.truncate(dst.wrapping_sub(src)),
                    AluOp::Sbb => w.truncate(dst.wrapping_sub(src).wrapping_sub(carry)),
                    AluOp::And => dst & src,
                    AluOp::Or => dst | src,
                    AluOp::Xor => dst ^ src,
                };
                match op {
                    AluOp::Add => self.set_flags_add(w, dst, src, 0, result),
                    AluOp::Adc => self.set_flags_add(w, dst, src, carry, result),
                    AluOp::Sub => self.set_flags_sub(w, dst, src, 0, result),
                    AluOp::Sbb => self.set_flags_sub(w, dst, src, carry, result),
                    AluOp::And | AluOp::Or | AluOp::Xor => self.set_flags_logic(w, result),
                }
                self.write(&ops[1], w, result);
            }
            Opcode::Cmp(w) => {
                let src = self.read(&ops[0], w);
                let dst = self.read(&ops[1], w);
                let result = w.truncate(dst.wrapping_sub(src));
                self.set_flags_sub(w, dst, src, 0, result);
            }
            Opcode::Test(w) => {
                let src = self.read(&ops[0], w);
                let dst = self.read(&ops[1], w);
                self.set_flags_logic(w, dst & src);
            }
            Opcode::Un(op, w) => {
                let a = self.read(&ops[0], w);
                match op {
                    UnOp::Neg => {
                        let r = w.truncate(0u64.wrapping_sub(a));
                        self.set_flags_sub(w, 0, a, 0, r);
                        self.write(&ops[0], w, r);
                    }
                    UnOp::Not => {
                        let r = w.truncate(!a);
                        self.write(&ops[0], w, r);
                    }
                    UnOp::Inc => {
                        let r = w.truncate(a.wrapping_add(1));
                        // inc preserves CF.
                        let of =
                            (w.sign_bit(a) == w.sign_bit(1)) && (w.sign_bit(r) != w.sign_bit(a));
                        self.write_flag(Flag::Of, of);
                        self.set_result_flags(w, r);
                        self.write(&ops[0], w, r);
                    }
                    UnOp::Dec => {
                        let r = w.truncate(a.wrapping_sub(1));
                        let of =
                            (w.sign_bit(a) != w.sign_bit(1)) && (w.sign_bit(r) != w.sign_bit(a));
                        self.write_flag(Flag::Of, of);
                        self.set_result_flags(w, r);
                        self.write(&ops[0], w, r);
                    }
                }
            }
            Opcode::Imul2(w) => {
                let src = self.read(&ops[0], w);
                let dst = self.read(&ops[1], w);
                let full =
                    (w.sign_extend(src) as i64 as i128) * (w.sign_extend(dst) as i64 as i128);
                let r = w.truncate(full as u64);
                let overflow = full != (w.sign_extend(r) as i64 as i128);
                self.write_flag(Flag::Cf, overflow);
                self.write_flag(Flag::Of, overflow);
                self.set_result_flags(w, r);
                self.write(&ops[1], w, r);
            }
            Opcode::Imul1(w) => {
                let src = self.read(&ops[0], w);
                let acc = self.read_reg(Gpr::Rax.view(w));
                let full =
                    (w.sign_extend(src) as i64 as i128) * (w.sign_extend(acc) as i64 as i128);
                let lo = w.truncate(full as u64);
                let hi = w.truncate((full >> w.bits()) as u64);
                let overflow = full != (w.sign_extend(lo) as i64 as i128);
                self.write_reg(Gpr::Rax.view(w), lo);
                self.write_reg(Gpr::Rdx.view(w), hi);
                self.write_flag(Flag::Cf, overflow);
                self.write_flag(Flag::Of, overflow);
                self.set_result_flags(w, lo);
            }
            Opcode::Mul1(w) => {
                let src = self.read(&ops[0], w);
                let acc = self.read_reg(Gpr::Rax.view(w));
                let full = u128::from(src) * u128::from(acc);
                let lo = w.truncate(full as u64);
                let hi = w.truncate((full >> w.bits()) as u64);
                let overflow = hi != 0;
                self.write_reg(Gpr::Rax.view(w), lo);
                self.write_reg(Gpr::Rdx.view(w), hi);
                self.write_flag(Flag::Cf, overflow);
                self.write_flag(Flag::Of, overflow);
                self.set_result_flags(w, lo);
            }
            Opcode::Div(w) => {
                let divisor = self.read(&ops[0], w);
                let lo = u128::from(self.read_reg(Gpr::Rax.view(w)));
                let hi = u128::from(self.read_reg(Gpr::Rdx.view(w)));
                let dividend = (hi << w.bits()) | lo;
                if divisor == 0 {
                    self.fault_sigfpe();
                } else {
                    let q = dividend / u128::from(divisor);
                    let r = dividend % u128::from(divisor);
                    if q > u128::from(w.mask()) {
                        self.fault_sigfpe();
                    } else {
                        self.write_reg(Gpr::Rax.view(w), q as u64);
                        self.write_reg(Gpr::Rdx.view(w), r as u64);
                        self.set_flags_logic(w, q as u64);
                    }
                }
            }
            Opcode::Idiv(w) => {
                let divisor = w.sign_extend(self.read(&ops[0], w)) as i64 as i128;
                let lo = u128::from(self.read_reg(Gpr::Rax.view(w)));
                let hi = u128::from(self.read_reg(Gpr::Rdx.view(w)));
                let dividend_bits = (hi << w.bits()) | lo;
                // Sign-extend the 2w-bit dividend.
                let shift = 128 - 2 * w.bits();
                let dividend = ((dividend_bits << shift) as i128) >> shift;
                if divisor == 0 {
                    self.fault_sigfpe();
                } else {
                    let q = dividend.wrapping_div(divisor);
                    let r = dividend.wrapping_rem(divisor);
                    let min = -(1i128 << (w.bits() - 1));
                    let max = (1i128 << (w.bits() - 1)) - 1;
                    if q < min || q > max {
                        self.fault_sigfpe();
                    } else {
                        self.write_reg(Gpr::Rax.view(w), w.truncate(q as u64));
                        self.write_reg(Gpr::Rdx.view(w), w.truncate(r as u64));
                        self.set_flags_logic(w, w.truncate(q as u64));
                    }
                }
            }
            Opcode::Shift(op, w) => {
                let count_mask = if w == Width::Q { 0x3f } else { 0x1f };
                let count = (self.read(&ops[0], Width::B) & count_mask) as u32;
                let a = self.read(&ops[1], w);
                if count == 0 {
                    // Shift by zero leaves the destination and flags alone,
                    // but a 32-bit destination register is still renormalized.
                    self.write(&ops[1], w, a);
                    return;
                }
                let bits = w.bits();
                let (r, cf) = match op {
                    ShiftOp::Shl => {
                        let r = if count >= bits {
                            0
                        } else {
                            w.truncate(a << count)
                        };
                        let cf = if count <= bits {
                            (a >> (bits - count)) & 1 == 1
                        } else {
                            false
                        };
                        (r, cf)
                    }
                    ShiftOp::Shr => {
                        let r = if count >= bits { 0 } else { a >> count };
                        let cf = if count <= bits {
                            (a >> (count - 1)) & 1 == 1
                        } else {
                            false
                        };
                        (r, cf)
                    }
                    ShiftOp::Sar => {
                        let sa = w.sign_extend(a) as i64;
                        let shift = count.min(bits - 1);
                        let r = w.truncate((sa >> shift) as u64);
                        let cf = ((sa >> (count.min(bits) - 1).min(63)) & 1) == 1;
                        (r, cf)
                    }
                    ShiftOp::Rol => {
                        let c = count % bits;
                        let r = if c == 0 {
                            a
                        } else {
                            w.truncate((a << c) | (a >> (bits - c)))
                        };
                        (r, r & 1 == 1)
                    }
                    ShiftOp::Ror => {
                        let c = count % bits;
                        let r = if c == 0 {
                            a
                        } else {
                            w.truncate((a >> c) | (a << (bits - c)))
                        };
                        (r, w.sign_bit(r))
                    }
                };
                self.write_flag(Flag::Cf, cf);
                match op {
                    ShiftOp::Rol | ShiftOp::Ror => {
                        // Rotates only touch CF and OF; model OF as the xor
                        // of the two top bits of the result, deterministically.
                        let of = w.sign_bit(r) ^ (((r >> (bits - 2)) & 1) == 1);
                        self.write_flag(Flag::Of, of);
                    }
                    _ => {
                        let of = w.sign_bit(r) ^ cf;
                        self.write_flag(Flag::Of, of);
                        self.set_result_flags(w, r);
                    }
                }
                self.write(&ops[1], w, r);
            }
            Opcode::Bits(op, w) => match op {
                BitOp::Popcnt => {
                    let a = self.read(&ops[0], w);
                    let r = u64::from(a.count_ones());
                    self.write_flag(Flag::Cf, false);
                    self.write_flag(Flag::Of, false);
                    self.write_flag(Flag::Sf, false);
                    self.write_flag(Flag::Pf, false);
                    self.write_flag(Flag::Zf, a == 0);
                    self.write(&ops[1], w, r);
                }
                BitOp::Bsf | BitOp::Bsr => {
                    let a = self.read(&ops[0], w);
                    if a == 0 {
                        self.write_flag(Flag::Zf, true);
                        // Destination is architecturally undefined; we model
                        // it as unchanged (and renormalized for 32-bit).
                        let old = self.read(&ops[1], w);
                        self.write(&ops[1], w, old);
                    } else {
                        self.write_flag(Flag::Zf, false);
                        let r = if op == BitOp::Bsf {
                            u64::from(a.trailing_zeros())
                        } else {
                            u64::from(63 - a.leading_zeros())
                        };
                        self.write(&ops[1], w, r);
                    }
                }
                BitOp::Bswap => {
                    let a = self.read(&ops[0], w);
                    let r = match w {
                        Width::Q => a.swap_bytes(),
                        Width::L => u64::from((a as u32).swap_bytes()),
                        Width::W => u64::from((a as u16).swap_bytes()),
                        Width::B => a,
                    };
                    self.write(&ops[0], w, r);
                }
            },
            Opcode::Cqto => {
                let rax = self.read_gpr64(Gpr::Rax);
                let v = if rax >> 63 == 1 { u64::MAX } else { 0 };
                self.set_gpr64(Gpr::Rdx, v);
            }
            Opcode::Cltq => {
                let eax = self.read_reg(Gpr::Rax.view(Width::L));
                self.set_gpr64(Gpr::Rax, Width::L.sign_extend(eax));
            }
            Opcode::Cltd => {
                let eax = self.read_reg(Gpr::Rax.view(Width::L));
                let v = if Width::L.sign_bit(eax) {
                    0xffff_ffff
                } else {
                    0
                };
                self.write_reg(Gpr::Rdx.view(Width::L), v);
            }
            Opcode::MovdToXmm => {
                let v = self.read(&ops[0], Width::L);
                self.write128(&ops[1], [v, 0]);
            }
            Opcode::MovdFromXmm => {
                let v = self.read128(&ops[0]);
                self.write(&ops[1], Width::L, v[0] & 0xffff_ffff);
            }
            Opcode::MovqToXmm => {
                let v = self.read(&ops[0], Width::Q);
                self.write128(&ops[1], [v, 0]);
            }
            Opcode::MovqFromXmm => {
                let v = self.read128(&ops[0]);
                self.write(&ops[1], Width::Q, v[0]);
            }
            Opcode::Mov128(_) => {
                let v = self.read128(&ops[0]);
                self.write128(&ops[1], v);
            }
            Opcode::SseBin(op) => {
                let src = self.read128(&ops[0]);
                let dst = self.read128(&ops[1]);
                self.write128(&ops[1], sse_bin(op, dst, src));
            }
            Opcode::SseShift(op) => {
                let count = (ops[0].as_imm().unwrap_or(0) as u64) & 0xff;
                let dst = self.read128(&ops[1]);
                self.write128(&ops[1], sse_shift(op, dst, count));
            }
            Opcode::Pshufd => {
                let imm = (ops[0].as_imm().unwrap_or(0) as u64) & 0xff;
                let src = self.read128(&ops[1]);
                let lanes = to_lanes32(src);
                let pick = |sel: u64| lanes[(sel & 3) as usize];
                let out = [pick(imm), pick(imm >> 2), pick(imm >> 4), pick(imm >> 6)];
                self.write128(&ops[2], from_lanes32(out));
            }
            Opcode::Shufps => {
                let imm = (ops[0].as_imm().unwrap_or(0) as u64) & 0xff;
                let src = to_lanes32(self.read128(&ops[1]));
                let dst = to_lanes32(self.read128(&ops[2]));
                let out = [
                    dst[(imm & 3) as usize],
                    dst[((imm >> 2) & 3) as usize],
                    src[((imm >> 4) & 3) as usize],
                    src[((imm >> 6) & 3) as usize],
                ];
                self.write128(&ops[2], from_lanes32(out));
            }
            Opcode::Punpckldq => {
                let src = to_lanes32(self.read128(&ops[0]));
                let dst = to_lanes32(self.read128(&ops[1]));
                self.write128(&ops[1], from_lanes32([dst[0], src[0], dst[1], src[1]]));
            }
            Opcode::Punpcklqdq => {
                let src = self.read128(&ops[0]);
                let dst = self.read128(&ops[1]);
                self.write128(&ops[1], [dst[0], src[0]]);
            }
        }
    }
}

impl Cpu for Emulator {
    fn read_reg(&self, r: Reg) -> u64 {
        self.state.read_reg(r)
    }

    fn write_reg(&mut self, r: Reg, value: u64) {
        self.state.write_reg(r, value);
    }

    fn read_gpr64(&self, g: Gpr) -> u64 {
        self.state.read_gpr64(g)
    }

    fn set_gpr64(&mut self, g: Gpr, value: u64) {
        self.state.set_gpr64(g, value);
    }

    fn read_xmm(&self, x: Xmm) -> XmmValue {
        self.state.read_xmm(x)
    }

    fn write_xmm(&mut self, x: Xmm, value: XmmValue) {
        self.state.write_xmm(x, value);
    }

    fn read_flag(&self, f: Flag) -> bool {
        self.state.read_flag(f)
    }

    fn write_flag(&mut self, f: Flag, value: bool) {
        self.state.write_flag(f, value);
    }

    fn mem_load(&self, addr: u64, len: u64) -> Option<u64> {
        self.state.memory.load(addr, len)
    }

    fn mem_store(&mut self, addr: u64, value: u64, len: u64) -> bool {
        self.state.memory.store(addr, value, len)
    }

    fn mem_load128(&self, addr: u64) -> Option<XmmValue> {
        self.state.memory.load128(addr)
    }

    fn mem_store128(&mut self, addr: u64, value: XmmValue) -> bool {
        self.state.memory.store128(addr, value)
    }

    fn fault_sigsegv(&mut self) {
        self.faults.sigsegv += 1;
    }

    fn fault_sigfpe(&mut self) {
        self.faults.sigfpe += 1;
    }
}

fn to_lanes32(v: XmmValue) -> [u32; 4] {
    [
        v[0] as u32,
        (v[0] >> 32) as u32,
        v[1] as u32,
        (v[1] >> 32) as u32,
    ]
}

fn from_lanes32(l: [u32; 4]) -> XmmValue {
    [
        u64::from(l[0]) | (u64::from(l[1]) << 32),
        u64::from(l[2]) | (u64::from(l[3]) << 32),
    ]
}

fn map_lanes(a: XmmValue, b: XmmValue, lane_bits: u32, f: impl Fn(u64, u64) -> u64) -> XmmValue {
    let mut out = [0u64; 2];
    let lanes_per_word = 64 / lane_bits;
    let mask = if lane_bits == 64 {
        u64::MAX
    } else {
        (1u64 << lane_bits) - 1
    };
    for word in 0..2 {
        let mut acc = 0u64;
        for lane in 0..lanes_per_word {
            let shift = lane * lane_bits;
            let x = (a[word] >> shift) & mask;
            let y = (b[word] >> shift) & mask;
            acc |= (f(x, y) & mask) << shift;
        }
        out[word] = acc;
    }
    out
}

/// Packed integer binary operation semantics (`dst = op(dst, src)`).
pub fn sse_bin(op: SseBinOp, dst: XmmValue, src: XmmValue) -> XmmValue {
    match op {
        SseBinOp::Paddb => map_lanes(dst, src, 8, |a, b| a.wrapping_add(b)),
        SseBinOp::Paddw => map_lanes(dst, src, 16, |a, b| a.wrapping_add(b)),
        SseBinOp::Paddd => map_lanes(dst, src, 32, |a, b| a.wrapping_add(b)),
        SseBinOp::Paddq => map_lanes(dst, src, 64, |a, b| a.wrapping_add(b)),
        SseBinOp::Psubb => map_lanes(dst, src, 8, |a, b| a.wrapping_sub(b)),
        SseBinOp::Psubw => map_lanes(dst, src, 16, |a, b| a.wrapping_sub(b)),
        SseBinOp::Psubd => map_lanes(dst, src, 32, |a, b| a.wrapping_sub(b)),
        SseBinOp::Psubq => map_lanes(dst, src, 64, |a, b| a.wrapping_sub(b)),
        SseBinOp::Pmullw => map_lanes(dst, src, 16, |a, b| a.wrapping_mul(b)),
        SseBinOp::Pmulld => map_lanes(dst, src, 32, |a, b| a.wrapping_mul(b)),
        SseBinOp::Pmuludq => {
            let lo = (dst[0] & 0xffff_ffff).wrapping_mul(src[0] & 0xffff_ffff);
            let hi = (dst[1] & 0xffff_ffff).wrapping_mul(src[1] & 0xffff_ffff);
            [lo, hi]
        }
        SseBinOp::Pand => [dst[0] & src[0], dst[1] & src[1]],
        SseBinOp::Por => [dst[0] | src[0], dst[1] | src[1]],
        SseBinOp::Pxor => [dst[0] ^ src[0], dst[1] ^ src[1]],
        SseBinOp::Pandn => [!dst[0] & src[0], !dst[1] & src[1]],
    }
}

/// Packed shift-by-immediate semantics (`dst = op(dst, count)`).
pub fn sse_shift(op: SseShiftOp, dst: XmmValue, count: u64) -> XmmValue {
    let shift = |lane_bits: u32, left: bool| -> XmmValue {
        if count >= u64::from(lane_bits) {
            return [0, 0];
        }
        map_lanes(dst, dst, lane_bits, |a, _| {
            if left {
                a << count
            } else {
                a >> count
            }
        })
    };
    match op {
        SseShiftOp::Psllw => shift(16, true),
        SseShiftOp::Pslld => shift(32, true),
        SseShiftOp::Psllq => shift(64, true),
        SseShiftOp::Psrlw => shift(16, false),
        SseShiftOp::Psrld => shift(32, false),
        SseShiftOp::Psrlq => shift(64, false),
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
