//! The batched lockstep execution engine: all test cases at once.
//!
//! The MCMC inner loop evaluates one candidate rewrite on *every* test
//! case of a suite. A per-case prepared run
//! ([`PreparedProgram::run_prepared`]) hoists decode out of that loop but
//! still walks the program once per case — the instruction dispatch, the
//! operand decoding and the machine-state clone are all repeated N times.
//! This module inverts the loops: a [`BatchState`] stores the CPU state of
//! all N cases as a structure of arrays (one *column* per test case —
//! per-register vectors of width N), and
//! [`PreparedProgram::run_lockstep`] applies each instruction's semantics
//! across all live columns in one pass before moving to the next
//! instruction.
//!
//! Why this is faster than N sequential runs of the same semantics:
//!
//! - **Dispatch amortization.** Each instruction is dispatched through the
//!   fn-pointer handler its [`Decoded`] entry selected at decode time
//!   (threaded-code style),
//!   once per instruction *step* instead of once per instruction *per
//!   case*; inside a handler the opcode/operand branches are perfectly
//!   predicted because every column executes the same instruction.
//! - **No per-case clone.** A prepared run clones a full
//!   [`MachineState`] (two heap allocations) per case; a reusable
//!   `BatchState` is reloaded in place, so the steady state of the search
//!   loop performs no allocation at all.
//! - **Early-exit granularity.** A per-column fault/liveness mask lets the
//!   §4.5 early-termination bound kill columns *during* execution (see
//!   [`PreparedProgram::run_lockstep_with`]): once the cost bound provably
//!   trips, dead columns stop costing work per instruction step instead of
//!   per test case.
//!
//! Execution semantics are shared with the interpreter through the
//! crate-internal `Cpu` trait: the column view implements the same
//! primitive accesses and runs the identical provided `execute` body, so
//! the batched engine is bit-identical to
//! [`run_prepared`](PreparedProgram::run_prepared) by construction (and by
//! the randomized property suite `prop_batched` at the workspace root).

use crate::exec::{Cpu, Faults};
use crate::prepare::Decoded;
#[cfg(doc)]
use crate::prepare::PreparedProgram;
use crate::state::{merge_reg_write, MachineState, Memory, XmmValue};
use stoke_x86::{
    AluOp, Cond, Flag, Gpr, Instruction, Mem, Opcode, Operand, Reg, ShiftOp, Width, Xmm,
};

/// The machine states of N test cases in structure-of-arrays layout: one
/// column per test case.
///
/// Register `r`'s values across the batch live at
/// `gprs[r.index() * N + column]` — a contiguous vector of width N per
/// register, mirrored for SSE registers, flags and the three defined-ness
/// masks. Memory images stay per-column ([`Memory`] is a sparse map, which
/// has no useful columnar form). Each column also carries its own
/// [`Faults`] counters and a liveness bit used by the §4.5 early exit.
///
/// A `BatchState` is a reusable scratch buffer: [`load`](BatchState::load)
/// re-fills it in place, reusing every allocation, which is what makes the
/// batched engine allocation-free in the search's steady state.
#[derive(Debug, Clone, Default)]
pub struct BatchState {
    /// Number of columns (test cases).
    n: usize,
    /// Number of columns still live (not killed by the early exit).
    live_cols: usize,
    gprs: Vec<u64>,
    xmms: Vec<XmmValue>,
    flags: Vec<bool>,
    gpr_defined: Vec<bool>,
    xmm_defined: Vec<bool>,
    flag_defined: Vec<bool>,
    memories: Vec<Memory>,
    faults: Vec<Faults>,
    live: Vec<bool>,
    /// Per-column dirty address range `[lo, hi)` covering every successful
    /// store since the last (re)load — `(u64::MAX, 0)` when clean — so
    /// [`reload`](BatchState::reload) re-copies only the bytes a run could
    /// have changed instead of whole memory images.
    dirty: Vec<(u64, u64)>,
    /// Whether every column's memory image has the identical segment
    /// layout (established at load time; execution never changes layouts).
    /// When set, an address resolved against one column's image is valid
    /// for all of them, so the memory handlers resolve each distinct
    /// address once per instruction step instead of once per column.
    uniform_layout: bool,
    /// Width-`n` scratch row used by the all-live row-pass handlers.
    tmp: Vec<u64>,
}

impl BatchState {
    /// An empty batch (zero columns). Load inputs with
    /// [`load`](BatchState::load).
    pub fn new() -> BatchState {
        BatchState::default()
    }

    /// Re-fill the batch from the given input states, one column each, in
    /// place: every column starts live with clean fault counters. Existing
    /// allocations (including the per-column memory images) are reused.
    pub fn load<'s, I>(&mut self, inputs: I)
    where
        I: IntoIterator<Item = &'s MachineState>,
        I::IntoIter: ExactSizeIterator,
    {
        let inputs = inputs.into_iter();
        let n = inputs.len();
        self.n = n;
        self.live_cols = n;
        self.dirty.clear();
        self.dirty.resize(n, (u64::MAX, 0));
        self.tmp.clear();
        self.tmp.resize(n, 0);
        self.gprs.clear();
        self.gprs.resize(16 * n, 0);
        self.xmms.clear();
        self.xmms.resize(16 * n, [0, 0]);
        self.flags.clear();
        self.flags.resize(5 * n, false);
        self.gpr_defined.clear();
        self.gpr_defined.resize(16 * n, false);
        self.xmm_defined.clear();
        self.xmm_defined.resize(16 * n, false);
        self.flag_defined.clear();
        self.flag_defined.resize(5 * n, false);
        self.faults.clear();
        self.faults.resize(n, Faults::default());
        self.live.clear();
        self.live.resize(n, true);
        self.memories.truncate(n);
        while self.memories.len() < n {
            self.memories.push(Memory::new());
        }
        for (col, input) in inputs.enumerate() {
            for i in 0..16 {
                self.gprs[i * n + col] = input.gprs[i];
                self.gpr_defined[i * n + col] = input.gpr_defined[i];
                self.xmms[i * n + col] = input.xmms[i];
                self.xmm_defined[i * n + col] = input.xmm_defined[i];
            }
            for i in 0..5 {
                self.flags[i * n + col] = input.flags[i];
                self.flag_defined[i * n + col] = input.flag_defined[i];
            }
            self.memories[col].copy_from(&input.memory);
        }
        self.uniform_layout = self
            .memories
            .split_first()
            .is_none_or(|(first, rest)| rest.iter().all(|m| first.same_layout(m)));
    }

    /// Re-fill the batch from the *same* input states as the previous
    /// [`load`](BatchState::load) (or `reload`), without re-copying the
    /// per-column memory images: only each column's dirty address range —
    /// the span covering every store the intervening run performed — is
    /// copied back from the input, which restores the image bit-for-bit
    /// (verified by a `debug_assert`). Registers, flags, defined-ness,
    /// faults and liveness are refilled as `load` does.
    ///
    /// Falls back to a full [`load`](BatchState::load) if the batch width
    /// changed. Passing states that differ from the previous load's is a
    /// logic error.
    pub fn reload<'s, I>(&mut self, inputs: I)
    where
        I: IntoIterator<Item = &'s MachineState>,
        I::IntoIter: ExactSizeIterator,
    {
        let inputs = inputs.into_iter();
        let n = self.n;
        if inputs.len() != n || self.memories.len() != n {
            self.load(inputs);
            return;
        }
        self.live_cols = n;
        self.faults.fill(Faults::default());
        self.live.fill(true);
        for (col, input) in inputs.enumerate() {
            for i in 0..16 {
                self.gprs[i * n + col] = input.gprs[i];
                self.gpr_defined[i * n + col] = input.gpr_defined[i];
                self.xmms[i * n + col] = input.xmms[i];
                self.xmm_defined[i * n + col] = input.xmm_defined[i];
            }
            for i in 0..5 {
                self.flags[i * n + col] = input.flags[i];
                self.flag_defined[i * n + col] = input.flag_defined[i];
            }
            let (lo, hi) = std::mem::replace(&mut self.dirty[col], (u64::MAX, 0));
            if lo < hi {
                self.memories[col].copy_range_from(&input.memory, lo, hi);
            }
            debug_assert_eq!(
                self.memories[col], input.memory,
                "reload requires the same inputs as the previous load"
            );
        }
    }

    /// Dirty-tracking store: on success, widen the column's dirty range so
    /// [`reload`](BatchState::reload) knows what to restore.
    fn store_dirty(&mut self, col: usize, addr: u64, value: u64, len: u64) -> bool {
        if !self.memories[col].store(addr, value, len) {
            return false;
        }
        if len > 0 {
            let d = &mut self.dirty[col];
            d.0 = d.0.min(addr);
            // No overflow: the store succeeded, so `addr + len` is in a
            // segment.
            d.1 = d.1.max(addr + len);
        }
        true
    }

    /// Number of columns (test cases) in the batch.
    pub fn width(&self) -> usize {
        self.n
    }

    /// Number of columns still live.
    pub fn live_columns(&self) -> usize {
        self.live_cols
    }

    /// Whether a column is still live (has not been killed).
    pub fn is_live(&self, col: usize) -> bool {
        self.live[col]
    }

    /// Kill a column: it stops executing from the next instruction step
    /// on. Its state is left as of the moment of death (partial — do not
    /// read it as a final state), which is exactly what the §4.5 early
    /// exit wants: columns the cost bound has already ruled out stop
    /// costing work.
    pub fn kill(&mut self, col: usize) {
        if self.live[col] {
            self.live[col] = false;
            self.live_cols -= 1;
        }
    }

    /// The fault counters of a column.
    pub fn faults(&self, col: usize) -> Faults {
        self.faults[col]
    }

    /// A read-only view of one column's machine state, borrowing the
    /// batch (no extraction copy). Only meaningful for columns that were
    /// never killed.
    pub fn column(&self, col: usize) -> ColumnRef<'_> {
        ColumnRef { state: self, col }
    }

    /// Extract one column into an owned [`MachineState`].
    pub fn column_state(&self, col: usize) -> MachineState {
        let n = self.n;
        let mut out = MachineState::new();
        for i in 0..16 {
            out.gprs[i] = self.gprs[i * n + col];
            out.gpr_defined[i] = self.gpr_defined[i * n + col];
            out.xmms[i] = self.xmms[i * n + col];
            out.xmm_defined[i] = self.xmm_defined[i * n + col];
        }
        for i in 0..5 {
            out.flags[i] = self.flags[i * n + col];
            out.flag_defined[i] = self.flag_defined[i * n + col];
        }
        out.memory = self.memories[col].clone();
        out
    }
}

/// A read-only view of one column of a [`BatchState`], exposing the same
/// state reads as [`MachineState`] without copying the column out. Used by
/// the cost function to compare a column's final state against a test
/// case's expected output in place.
#[derive(Clone, Copy)]
pub struct ColumnRef<'a> {
    state: &'a BatchState,
    col: usize,
}

impl ColumnRef<'_> {
    /// Read the full 64-bit value of an architectural register.
    pub fn read_gpr64(&self, g: Gpr) -> u64 {
        self.state.gprs[g.index() * self.state.n + self.col]
    }

    /// Read an SSE register.
    pub fn read_xmm(&self, x: Xmm) -> XmmValue {
        self.state.xmms[x.index() * self.state.n + self.col]
    }

    /// Read a status flag.
    pub fn read_flag(&self, f: Flag) -> bool {
        self.state.flags[f.index() * self.state.n + self.col]
    }

    /// The column's memory image.
    pub fn memory(&self) -> &Memory {
        &self.state.memories[self.col]
    }

    /// The column's fault counters.
    pub fn faults(&self) -> Faults {
        self.state.faults[self.col]
    }
}

/// A mutable view of one column implementing the crate-internal `Cpu`
/// trait, so the shared instruction semantics execute directly against the
/// structure-of-arrays layout.
struct Col<'a> {
    s: &'a mut BatchState,
    col: usize,
}

impl Col<'_> {
    #[inline]
    fn at(&self, lane: usize) -> usize {
        lane * self.s.n + self.col
    }
}

impl Cpu for Col<'_> {
    fn read_reg(&self, r: Reg) -> u64 {
        r.width().truncate(self.s.gprs[self.at(r.parent().index())])
    }

    fn write_reg(&mut self, r: Reg, value: u64) {
        let i = self.at(r.parent().index());
        self.s.gprs[i] = merge_reg_write(self.s.gprs[i], r.width(), value);
        self.s.gpr_defined[i] = true;
    }

    fn read_gpr64(&self, g: Gpr) -> u64 {
        self.s.gprs[self.at(g.index())]
    }

    fn set_gpr64(&mut self, g: Gpr, value: u64) {
        let i = self.at(g.index());
        self.s.gprs[i] = value;
        self.s.gpr_defined[i] = true;
    }

    fn read_xmm(&self, x: Xmm) -> XmmValue {
        self.s.xmms[self.at(x.index())]
    }

    fn write_xmm(&mut self, x: Xmm, value: XmmValue) {
        let i = self.at(x.index());
        self.s.xmms[i] = value;
        self.s.xmm_defined[i] = true;
    }

    fn read_flag(&self, f: Flag) -> bool {
        self.s.flags[self.at(f.index())]
    }

    fn write_flag(&mut self, f: Flag, value: bool) {
        let i = self.at(f.index());
        self.s.flags[i] = value;
        self.s.flag_defined[i] = true;
    }

    fn mem_load(&self, addr: u64, len: u64) -> Option<u64> {
        self.s.memories[self.col].load(addr, len)
    }

    fn mem_store(&mut self, addr: u64, value: u64, len: u64) -> bool {
        self.s.store_dirty(self.col, addr, value, len)
    }

    fn mem_load128(&self, addr: u64) -> Option<XmmValue> {
        self.s.memories[self.col].load128(addr)
    }

    fn mem_store128(&mut self, addr: u64, value: XmmValue) -> bool {
        // Same semantics as `Memory::store128` (one 16-byte validity
        // check, two 8-byte stores), with both halves journaled.
        if !self.s.memories[self.col].is_valid(addr, 16) {
            return false;
        }
        self.s.store_dirty(self.col, addr, value[0], 8);
        self.s
            .store_dirty(self.col, addr.wrapping_add(8), value[1], 8);
        true
    }

    fn fault_sigsegv(&mut self) {
        self.s.faults[self.col].sigsegv += 1;
    }

    fn fault_sigfpe(&mut self) {
        self.s.faults[self.col].sigfpe += 1;
    }
}

/// A decoded instruction's dispatch entry: advances every live column of
/// the batch by that instruction.
pub(crate) type Handler = fn(&Decoded, &mut BatchState);

/// The registers and flags an instruction's undefined-read scan must
/// check, pre-resolved to architectural indices. Copied verbatim from the
/// decoded use lists, so a specialized handler counts undefined reads
/// element-for-element like the sequential scan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Uses {
    gpr: [u8; 2],
    ngpr: u8,
    flag: [u8; 4],
    nflag: u8,
}

impl Uses {
    fn of(gpr_span: &[Reg], flag_span: &[Flag]) -> Option<Uses> {
        if gpr_span.len() > 2 || flag_span.len() > 4 {
            return None;
        }
        let mut uses = Uses {
            ngpr: gpr_span.len() as u8,
            nflag: flag_span.len() as u8,
            ..Uses::default()
        };
        for (i, r) in gpr_span.iter().enumerate() {
            uses.gpr[i] = r.parent().index() as u8;
        }
        for (i, f) in flag_span.iter().enumerate() {
            uses.flag[i] = f.index() as u8;
        }
        Some(uses)
    }
}

/// A pre-decoded scalar source: a 64-bit register row or an immediate
/// already truncated to the operation width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Src {
    Reg(u8),
    Imm(u64),
}

/// The pre-decoded form of one instruction, built by [`Decoded::new`]. The
/// hot shapes of compiled code — 64-bit moves between registers,
/// immediates and `disp(base)` memory, and the flag-writing 64-bit
/// ALU/compare forms — get dedicated handlers whose column loops touch
/// contiguous structure-of-arrays rows with no per-column operand
/// decoding; everything else (`Other`) runs the shared `Cpu` semantics
/// through the generic handler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Micro {
    /// `movq disp(base), dst`
    LoadQ {
        base: u8,
        disp: u64,
        dst: u8,
        uses: Uses,
    },
    /// `movq src, disp(base)`
    StoreQ {
        src: u8,
        base: u8,
        disp: u64,
        uses: Uses,
    },
    /// `movq src, dst` / `movzbq src, dst` (register forms; the source is
    /// pre-masked by `src_mask`).
    MovRR {
        src: u8,
        src_mask: u64,
        dst: u8,
        uses: Uses,
    },
    /// `movq imm, dst` / `movabsq imm, dst`
    MovIR { imm: u64, dst: u8 },
    /// `op{q} src, dst` for the carry-free ALU ops, and `cmpq src, dst`
    /// (`write_back = false`): full 64-bit compute plus the five status
    /// flags.
    AluQ {
        op: AluOp,
        src: Src,
        dst: u8,
        write_back: bool,
        uses: Uses,
    },
    /// `set{cc} dst` (byte register destination; the only specialized
    /// shape that reads flags).
    SetR { cond: Cond, dst: u8, uses: Uses },
    /// `op{q} imm, dst` shifts and rotates with a nonzero count known at
    /// decode time (a zero count decodes to [`Micro::MovRR`], matching the
    /// interpreter's flags-untouched early return).
    ShiftQ {
        op: ShiftOp,
        count: u32,
        dst: u8,
        uses: Uses,
    },
    /// `mulq src` — widening unsigned multiply into `rdx:rax`.
    Mul1Q { src: u8, uses: Uses },
    /// `imulq src, dst` — two-operand signed multiply.
    Imul2Q { src: Src, dst: u8, uses: Uses },
    /// No specialization — run the shared `Cpu::execute` per column.
    Other,
}

/// Decode one instruction into its [`Micro`] form and pick its handler,
/// given its decoded use lists: a shape is only specialized when its
/// undefined-read scan fits the pre-resolved [`Uses`] rows the dedicated
/// handlers walk (no SSE uses; flag uses only for `set{cc}` — which keeps
/// `adc`/`sbb` and `cmov` on the generic path).
pub(crate) fn select(
    instr: &Instruction,
    gpr_uses: &[Reg],
    xmm_uses: &[Xmm],
    flag_uses: &[Flag],
) -> (Micro, Handler) {
    let micro = micro_of(instr, gpr_uses, xmm_uses, flag_uses);
    let handler = match micro {
        Micro::LoadQ { .. } => step_load_q as Handler,
        Micro::StoreQ { .. } => step_store_q as Handler,
        Micro::MovRR { .. } => step_mov_rr as Handler,
        Micro::MovIR { .. } => step_mov_ir as Handler,
        Micro::AluQ { .. } => step_alu_q as Handler,
        Micro::SetR { .. } => step_set_r as Handler,
        Micro::ShiftQ { .. } => step_shift_q as Handler,
        Micro::Mul1Q { .. } => step_mul1_q as Handler,
        Micro::Imul2Q { .. } => step_imul2_q as Handler,
        Micro::Other => match instr.opcode() {
            Opcode::Nop => step_nop as Handler,
            _ if gpr_uses.is_empty() && xmm_uses.is_empty() && flag_uses.is_empty() => {
                step_no_uses as Handler
            }
            _ => step_generic as Handler,
        },
    };
    (micro, handler)
}

fn micro_of(instr: &Instruction, gpr_uses: &[Reg], xmm_uses: &[Xmm], flag_uses: &[Flag]) -> Micro {
    if !xmm_uses.is_empty() {
        return Micro::Other;
    }
    let Some(uses) = Uses::of(gpr_uses, flag_uses) else {
        return Micro::Other;
    };
    if uses.nflag != 0 && !matches!(instr.opcode(), Opcode::Set(_)) {
        return Micro::Other;
    }
    let gpr = |r: &Reg| r.parent().index() as u8;
    let base_disp = |m: &Mem| match (m.base, m.index) {
        (Some(b), None) => Some((b.index() as u8, m.disp as i64 as u64)),
        _ => None,
    };
    let ops = instr.operands();
    match instr.opcode() {
        Opcode::Mov(Width::Q) => match (&ops[0], &ops[1]) {
            (Operand::Mem(m), Operand::Reg(d)) => match base_disp(m) {
                Some((base, disp)) => Micro::LoadQ {
                    base,
                    disp,
                    dst: gpr(d),
                    uses,
                },
                None => Micro::Other,
            },
            (Operand::Reg(s), Operand::Mem(m)) => match base_disp(m) {
                Some((base, disp)) => Micro::StoreQ {
                    src: gpr(s),
                    base,
                    disp,
                    uses,
                },
                None => Micro::Other,
            },
            (Operand::Reg(s), Operand::Reg(d)) => Micro::MovRR {
                src: gpr(s),
                src_mask: u64::MAX,
                dst: gpr(d),
                uses,
            },
            (Operand::Imm(i), Operand::Reg(d)) => Micro::MovIR {
                imm: *i as u64,
                dst: gpr(d),
            },
            _ => Micro::Other,
        },
        Opcode::Movabs => match (&ops[0], &ops[1]) {
            (Operand::Imm(i), Operand::Reg(d)) => Micro::MovIR {
                imm: *i as u64,
                dst: gpr(d),
            },
            _ => Micro::Other,
        },
        Opcode::Movzbq => match (&ops[0], &ops[1]) {
            (Operand::Reg(s), Operand::Reg(d)) => Micro::MovRR {
                src: gpr(s),
                src_mask: 0xff,
                dst: gpr(d),
                uses,
            },
            _ => Micro::Other,
        },
        Opcode::Alu(op, Width::Q)
            if matches!(
                op,
                AluOp::Add | AluOp::Sub | AluOp::And | AluOp::Or | AluOp::Xor
            ) =>
        {
            match (&ops[0], &ops[1]) {
                (Operand::Reg(s), Operand::Reg(d)) => Micro::AluQ {
                    op,
                    src: Src::Reg(gpr(s)),
                    dst: gpr(d),
                    write_back: true,
                    uses,
                },
                (Operand::Imm(i), Operand::Reg(d)) => Micro::AluQ {
                    op,
                    src: Src::Imm(*i as u64),
                    dst: gpr(d),
                    write_back: true,
                    uses,
                },
                _ => Micro::Other,
            }
        }
        Opcode::Cmp(Width::Q) => match (&ops[0], &ops[1]) {
            (Operand::Reg(s), Operand::Reg(d)) => Micro::AluQ {
                op: AluOp::Sub,
                src: Src::Reg(gpr(s)),
                dst: gpr(d),
                write_back: false,
                uses,
            },
            (Operand::Imm(i), Operand::Reg(d)) => Micro::AluQ {
                op: AluOp::Sub,
                src: Src::Imm(*i as u64),
                dst: gpr(d),
                write_back: false,
                uses,
            },
            _ => Micro::Other,
        },
        Opcode::Set(c) => match &ops[0] {
            Operand::Reg(d) => Micro::SetR {
                cond: c,
                dst: gpr(d),
                uses,
            },
            _ => Micro::Other,
        },
        Opcode::Shift(op, Width::Q) => match (&ops[0], &ops[1]) {
            (Operand::Imm(i), Operand::Reg(d)) => {
                let count = (*i as u64 & 0x3f) as u32;
                if count == 0 {
                    // A zero-count shift only rewrites the destination with
                    // its own value (flags untouched) — exactly a self-move.
                    Micro::MovRR {
                        src: gpr(d),
                        src_mask: u64::MAX,
                        dst: gpr(d),
                        uses,
                    }
                } else {
                    Micro::ShiftQ {
                        op,
                        count,
                        dst: gpr(d),
                        uses,
                    }
                }
            }
            _ => Micro::Other,
        },
        Opcode::Mul1(Width::Q) => match &ops[0] {
            Operand::Reg(s) => Micro::Mul1Q { src: gpr(s), uses },
            _ => Micro::Other,
        },
        Opcode::Imul2(Width::Q) => match (&ops[0], &ops[1]) {
            (Operand::Reg(s), Operand::Reg(d)) => Micro::Imul2Q {
                src: Src::Reg(gpr(s)),
                dst: gpr(d),
                uses,
            },
            (Operand::Imm(i), Operand::Reg(d)) => Micro::Imul2Q {
                src: Src::Imm(*i as u64),
                dst: gpr(d),
                uses,
            },
            _ => Micro::Other,
        },
        _ => Micro::Other,
    }
}

/// Row-pass undefined-read counter for the all-live fast paths: walks each
/// pre-resolved use row once across all columns, accumulating branchlessly
/// into the per-column fault counters. Counts exactly what the per-column
/// scan counts (same rows, same totals).
#[inline]
fn count_undef_rows(state: &mut BatchState, uses: &Uses) {
    let n = state.n;
    for k in 0..uses.ngpr as usize {
        let row = uses.gpr[k] as usize * n;
        let def = &state.gpr_defined[row..row + n];
        for (f, d) in state.faults.iter_mut().zip(def) {
            f.undef += u64::from(!*d);
        }
    }
    for k in 0..uses.nflag as usize {
        let row = uses.flag[k] as usize * n;
        let def = &state.flag_defined[row..row + n];
        for (f, d) in state.faults.iter_mut().zip(def) {
            f.undef += u64::from(!*d);
        }
    }
}

/// Split a `5 * n` row-major flag vector into its five disjoint rows,
/// indexable by [`Flag::index`] (Cf, Zf, Sf, Of, Pf).
#[inline]
fn rows5<T>(v: &mut [T], n: usize) -> [&mut [T]; 5] {
    let (cf, rest) = v.split_at_mut(n);
    let (zf, rest) = rest.split_at_mut(n);
    let (sf, rest) = rest.split_at_mut(n);
    let (of, pf) = rest.split_at_mut(n);
    [cf, zf, sf, of, pf]
}

/// Two disjoint width-`n` rows of a row-major vector, mutably.
#[inline]
fn two_rows(v: &mut [u64], a0: usize, b0: usize, n: usize) -> (&mut [u64], &mut [u64]) {
    debug_assert!(a0 + n <= b0 || b0 + n <= a0, "rows must not overlap");
    if a0 < b0 {
        let (x, y) = v.split_at_mut(b0);
        (&mut x[a0..a0 + n], &mut y[..n])
    } else {
        let (x, y) = v.split_at_mut(a0);
        (&mut y[..n], &mut x[b0..b0 + n])
    }
}

/// Count undefined reads for a specialized handler: one check per
/// pre-resolved use row, element-for-element identical to the sequential
/// span scan.
#[inline]
fn count_undef(state: &mut BatchState, col: usize, uses: &Uses) {
    let n = state.n;
    for k in 0..uses.ngpr as usize {
        if !state.gpr_defined[uses.gpr[k] as usize * n + col] {
            state.faults[col].undef += 1;
        }
    }
    for k in 0..uses.nflag as usize {
        if !state.flag_defined[uses.flag[k] as usize * n + col] {
            state.faults[col].undef += 1;
        }
    }
}

/// Specialized handler for `movq disp(base), dst`.
fn step_load_q(d: &Decoded, state: &mut BatchState) {
    let Micro::LoadQ {
        base,
        disp,
        dst,
        uses,
    } = d.micro
    else {
        unreachable!("handler matches its micro-op")
    };
    let n = state.n;
    let (b0, d0) = (base as usize * n, dst as usize * n);
    if n != 0 && state.live_cols == n && state.uniform_layout {
        count_undef_rows(state, &uses);
        for (t, b) in state.tmp.iter_mut().zip(&state.gprs[b0..b0 + n]) {
            *t = b.wrapping_add(disp);
        }
        // All images share one layout, so a resolved (segment, offset)
        // carries across columns; compiled code mostly computes the same
        // address in every column (fixed stack slots), making this one
        // resolution per step.
        let mut cached = (state.tmp[0], state.memories[0].resolve8(state.tmp[0]));
        for col in 0..n {
            let addr = state.tmp[col];
            if addr != cached.0 {
                cached = (addr, state.memories[col].resolve8(addr));
            }
            let value = match cached.1 {
                Some((si, j)) => state.memories[col].read8_at(si, j),
                None => {
                    state.faults[col].sigsegv += 1;
                    0
                }
            };
            state.gprs[d0 + col] = value;
        }
        state.gpr_defined[d0..d0 + n].fill(true);
        return;
    }
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        count_undef(state, col, &uses);
        let addr = state.gprs[b0 + col].wrapping_add(disp);
        let value = match state.memories[col].load(addr, 8) {
            Some(v) => v,
            None => {
                state.faults[col].sigsegv += 1;
                0
            }
        };
        state.gprs[d0 + col] = value;
        state.gpr_defined[d0 + col] = true;
    }
}

/// Specialized handler for `movq src, disp(base)`.
fn step_store_q(d: &Decoded, state: &mut BatchState) {
    let Micro::StoreQ {
        src,
        base,
        disp,
        uses,
    } = d.micro
    else {
        unreachable!("handler matches its micro-op")
    };
    let n = state.n;
    let (s0, b0) = (src as usize * n, base as usize * n);
    if n != 0 && state.live_cols == n && state.uniform_layout {
        count_undef_rows(state, &uses);
        for (t, b) in state.tmp.iter_mut().zip(&state.gprs[b0..b0 + n]) {
            *t = b.wrapping_add(disp);
        }
        let mut cached = (state.tmp[0], state.memories[0].resolve8(state.tmp[0]));
        for col in 0..n {
            let addr = state.tmp[col];
            if addr != cached.0 {
                cached = (addr, state.memories[col].resolve8(addr));
            }
            match cached.1 {
                Some((si, j)) => {
                    state.memories[col].write8_at(si, j, state.gprs[s0 + col]);
                    let d = &mut state.dirty[col];
                    d.0 = d.0.min(addr);
                    d.1 = d.1.max(addr + 8);
                }
                None => state.faults[col].sigsegv += 1,
            }
        }
        return;
    }
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        count_undef(state, col, &uses);
        let addr = state.gprs[b0 + col].wrapping_add(disp);
        let value = state.gprs[s0 + col];
        if !state.store_dirty(col, addr, value, 8) {
            state.faults[col].sigsegv += 1;
        }
    }
}

/// Specialized handler for the register-to-register moves (`movq`,
/// `movzbq`).
fn step_mov_rr(d: &Decoded, state: &mut BatchState) {
    let Micro::MovRR {
        src,
        src_mask,
        dst,
        uses,
    } = d.micro
    else {
        unreachable!("handler matches its micro-op")
    };
    let n = state.n;
    let (s0, d0) = (src as usize * n, dst as usize * n);
    if state.live_cols == n {
        count_undef_rows(state, &uses);
        state.gprs.copy_within(s0..s0 + n, d0);
        if src_mask != u64::MAX {
            for g in &mut state.gprs[d0..d0 + n] {
                *g &= src_mask;
            }
        }
        state.gpr_defined[d0..d0 + n].fill(true);
        return;
    }
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        count_undef(state, col, &uses);
        state.gprs[d0 + col] = state.gprs[s0 + col] & src_mask;
        state.gpr_defined[d0 + col] = true;
    }
}

/// Specialized handler for `movq imm, dst` / `movabsq imm, dst`.
fn step_mov_ir(d: &Decoded, state: &mut BatchState) {
    let Micro::MovIR { imm, dst } = d.micro else {
        unreachable!("handler matches its micro-op")
    };
    let n = state.n;
    let d0 = dst as usize * n;
    if state.live_cols == n {
        state.gprs[d0..d0 + n].fill(imm);
        state.gpr_defined[d0..d0 + n].fill(true);
        return;
    }
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        state.gprs[d0 + col] = imm;
        state.gpr_defined[d0 + col] = true;
    }
}

/// Specialized handler for the carry-free 64-bit ALU ops and `cmpq`:
/// result (unless it is a compare) plus the five status flags, written to
/// contiguous flag rows.
fn step_alu_q(d: &Decoded, state: &mut BatchState) {
    let Micro::AluQ {
        op,
        src,
        dst,
        write_back,
        uses,
    } = d.micro
    else {
        unreachable!("handler matches its micro-op")
    };
    let n = state.n;
    let d0 = dst as usize * n;
    let (cf0, zf0, sf0, of0, pf0) = (
        Flag::Cf.index() * n,
        Flag::Zf.index() * n,
        Flag::Sf.index() * n,
        Flag::Of.index() * n,
        Flag::Pf.index() * n,
    );
    if state.live_cols == n {
        count_undef_rows(state, &uses);
        match src {
            Src::Reg(r) => {
                let r0 = r as usize * n;
                state.tmp.copy_from_slice(&state.gprs[r0..r0 + n]);
            }
            Src::Imm(v) => state.tmp.fill(v),
        }
        let [cf, zf, sf, of, pf] = rows5(&mut state.flags, n);
        let dst_row = &mut state.gprs[d0..d0 + n];
        for col in 0..n {
            let s = state.tmp[col];
            let d = dst_row[col];
            let (r, cfv, ofv) = match op {
                AluOp::Add => {
                    let r = d.wrapping_add(s);
                    (r, r < d, ((d ^ s) as i64) >= 0 && ((r ^ d) as i64) < 0)
                }
                AluOp::Sub => {
                    let r = d.wrapping_sub(s);
                    (r, d < s, ((d ^ s) as i64) < 0 && ((r ^ d) as i64) < 0)
                }
                AluOp::And => (d & s, false, false),
                AluOp::Or => (d | s, false, false),
                AluOp::Xor => (d ^ s, false, false),
                AluOp::Adc | AluOp::Sbb => unreachable!("carry-in ops are never specialized"),
            };
            cf[col] = cfv;
            of[col] = ofv;
            zf[col] = r == 0;
            sf[col] = (r as i64) < 0;
            pf[col] = (r as u8).count_ones().is_multiple_of(2);
            if write_back {
                dst_row[col] = r;
            }
        }
        state.flag_defined.fill(true);
        if write_back {
            state.gpr_defined[d0..d0 + n].fill(true);
        }
        return;
    }
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        count_undef(state, col, &uses);
        let s = match src {
            Src::Reg(r) => state.gprs[r as usize * n + col],
            Src::Imm(v) => v,
        };
        let d = state.gprs[d0 + col];
        // Same carry/overflow definitions as `Cpu::set_flags_add`/`_sub`,
        // reduced to 64-bit arithmetic.
        let (r, cf, of) = match op {
            AluOp::Add => {
                let r = d.wrapping_add(s);
                (r, r < d, ((d ^ s) as i64) >= 0 && ((r ^ d) as i64) < 0)
            }
            AluOp::Sub => {
                let r = d.wrapping_sub(s);
                (r, d < s, ((d ^ s) as i64) < 0 && ((r ^ d) as i64) < 0)
            }
            AluOp::And => (d & s, false, false),
            AluOp::Or => (d | s, false, false),
            AluOp::Xor => (d ^ s, false, false),
            AluOp::Adc | AluOp::Sbb => unreachable!("carry-in ops are never specialized"),
        };
        state.flags[cf0 + col] = cf;
        state.flag_defined[cf0 + col] = true;
        state.flags[of0 + col] = of;
        state.flag_defined[of0 + col] = true;
        state.flags[zf0 + col] = r == 0;
        state.flag_defined[zf0 + col] = true;
        state.flags[sf0 + col] = (r as i64) < 0;
        state.flag_defined[sf0 + col] = true;
        state.flags[pf0 + col] = (r as u8).count_ones().is_multiple_of(2);
        state.flag_defined[pf0 + col] = true;
        if write_back {
            state.gprs[d0 + col] = r;
            state.gpr_defined[d0 + col] = true;
        }
    }
}

/// Specialized handler for `set{cc} dst` on a byte register: evaluate the
/// condition from the flag rows and merge the 0/1 byte into the
/// destination's low byte.
fn step_set_r(d: &Decoded, state: &mut BatchState) {
    let Micro::SetR { cond, dst, uses } = d.micro else {
        unreachable!("handler matches its micro-op")
    };
    let n = state.n;
    let d0 = dst as usize * n;
    let (cf0, zf0, sf0, of0) = (
        Flag::Cf.index() * n,
        Flag::Zf.index() * n,
        Flag::Sf.index() * n,
        Flag::Of.index() * n,
    );
    if state.live_cols == n {
        count_undef_rows(state, &uses);
        let (cf, zf, sf, of) = (
            &state.flags[cf0..cf0 + n],
            &state.flags[zf0..zf0 + n],
            &state.flags[sf0..sf0 + n],
            &state.flags[of0..of0 + n],
        );
        let dst_row = &mut state.gprs[d0..d0 + n];
        for col in 0..n {
            let v = u64::from(cond.eval(cf[col], zf[col], sf[col], of[col]));
            dst_row[col] = merge_reg_write(dst_row[col], Width::B, v);
        }
        state.gpr_defined[d0..d0 + n].fill(true);
        return;
    }
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        count_undef(state, col, &uses);
        let v = u64::from(cond.eval(
            state.flags[cf0 + col],
            state.flags[zf0 + col],
            state.flags[sf0 + col],
            state.flags[of0 + col],
        ));
        state.gprs[d0 + col] = merge_reg_write(state.gprs[d0 + col], Width::B, v);
        state.gpr_defined[d0 + col] = true;
    }
}

/// Specialized handler for the 64-bit shifts and rotates by a nonzero
/// immediate count (`1..=63`, masked at decode time). Same result and flag
/// definitions as the interpreter's `Opcode::Shift` arm reduced to
/// `Width::Q`.
fn step_shift_q(d: &Decoded, state: &mut BatchState) {
    let Micro::ShiftQ {
        op,
        count,
        dst,
        uses,
    } = d.micro
    else {
        unreachable!("handler matches its micro-op")
    };
    let n = state.n;
    let d0 = dst as usize * n;
    let (cf0, zf0, sf0, of0, pf0) = (
        Flag::Cf.index() * n,
        Flag::Zf.index() * n,
        Flag::Sf.index() * n,
        Flag::Of.index() * n,
        Flag::Pf.index() * n,
    );
    if state.live_cols == n {
        count_undef_rows(state, &uses);
        let [cf, zf, sf, of, pf] = rows5(&mut state.flags, n);
        let dst_row = &mut state.gprs[d0..d0 + n];
        for col in 0..n {
            let a = dst_row[col];
            let (r, cfv) = match op {
                ShiftOp::Shl => (a << count, (a >> (64 - count)) & 1 == 1),
                ShiftOp::Shr => (a >> count, (a >> (count - 1)) & 1 == 1),
                ShiftOp::Sar => {
                    let sa = a as i64;
                    ((sa >> count) as u64, (sa >> (count - 1)) & 1 == 1)
                }
                ShiftOp::Rol => {
                    let r = a.rotate_left(count);
                    (r, r & 1 == 1)
                }
                ShiftOp::Ror => {
                    let r = a.rotate_right(count);
                    (r, (r as i64) < 0)
                }
            };
            cf[col] = cfv;
            match op {
                ShiftOp::Rol | ShiftOp::Ror => {
                    of[col] = ((r as i64) < 0) ^ ((r >> 62) & 1 == 1);
                }
                _ => {
                    of[col] = ((r as i64) < 0) ^ cfv;
                    zf[col] = r == 0;
                    sf[col] = (r as i64) < 0;
                    pf[col] = (r as u8).count_ones().is_multiple_of(2);
                }
            }
            dst_row[col] = r;
        }
        let [cfd, zfd, sfd, ofd, pfd] = rows5(&mut state.flag_defined, n);
        cfd.fill(true);
        ofd.fill(true);
        if !matches!(op, ShiftOp::Rol | ShiftOp::Ror) {
            zfd.fill(true);
            sfd.fill(true);
            pfd.fill(true);
        }
        state.gpr_defined[d0..d0 + n].fill(true);
        return;
    }
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        count_undef(state, col, &uses);
        let a = state.gprs[d0 + col];
        let (r, cf) = match op {
            ShiftOp::Shl => (a << count, (a >> (64 - count)) & 1 == 1),
            ShiftOp::Shr => (a >> count, (a >> (count - 1)) & 1 == 1),
            ShiftOp::Sar => {
                let sa = a as i64;
                ((sa >> count) as u64, (sa >> (count - 1)) & 1 == 1)
            }
            ShiftOp::Rol => {
                let r = a.rotate_left(count);
                (r, r & 1 == 1)
            }
            ShiftOp::Ror => {
                let r = a.rotate_right(count);
                (r, (r as i64) < 0)
            }
        };
        state.flags[cf0 + col] = cf;
        state.flag_defined[cf0 + col] = true;
        match op {
            ShiftOp::Rol | ShiftOp::Ror => {
                state.flags[of0 + col] = ((r as i64) < 0) ^ ((r >> 62) & 1 == 1);
                state.flag_defined[of0 + col] = true;
            }
            _ => {
                state.flags[of0 + col] = ((r as i64) < 0) ^ cf;
                state.flag_defined[of0 + col] = true;
                state.flags[zf0 + col] = r == 0;
                state.flag_defined[zf0 + col] = true;
                state.flags[sf0 + col] = (r as i64) < 0;
                state.flag_defined[sf0 + col] = true;
                state.flags[pf0 + col] = (r as u8).count_ones().is_multiple_of(2);
                state.flag_defined[pf0 + col] = true;
            }
        }
        state.gprs[d0 + col] = r;
        state.gpr_defined[d0 + col] = true;
    }
}

/// Specialized handler for `mulq src`: widening unsigned multiply of
/// `rax` by `src` into `rdx:rax`, with CF/OF set iff the high half is
/// nonzero and the result flags taken from the low half.
fn step_mul1_q(d: &Decoded, state: &mut BatchState) {
    let Micro::Mul1Q { src, uses } = d.micro else {
        unreachable!("handler matches its micro-op")
    };
    let n = state.n;
    let s0 = src as usize * n;
    let (rax0, rdx0) = (Gpr::Rax.index() * n, Gpr::Rdx.index() * n);
    let (cf0, zf0, sf0, of0, pf0) = (
        Flag::Cf.index() * n,
        Flag::Zf.index() * n,
        Flag::Sf.index() * n,
        Flag::Of.index() * n,
        Flag::Pf.index() * n,
    );
    if state.live_cols == n {
        count_undef_rows(state, &uses);
        // `src` may alias rax or rdx; snapshot its row before writing.
        state.tmp.copy_from_slice(&state.gprs[s0..s0 + n]);
        let (rax, rdx) = two_rows(&mut state.gprs, rax0, rdx0, n);
        let [cf, zf, sf, of, pf] = rows5(&mut state.flags, n);
        for col in 0..n {
            let full = u128::from(state.tmp[col]) * u128::from(rax[col]);
            let lo = full as u64;
            let hi = (full >> 64) as u64;
            rax[col] = lo;
            rdx[col] = hi;
            let overflow = hi != 0;
            cf[col] = overflow;
            of[col] = overflow;
            zf[col] = lo == 0;
            sf[col] = (lo as i64) < 0;
            pf[col] = (lo as u8).count_ones().is_multiple_of(2);
        }
        state.gpr_defined[rax0..rax0 + n].fill(true);
        state.gpr_defined[rdx0..rdx0 + n].fill(true);
        state.flag_defined.fill(true);
        return;
    }
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        count_undef(state, col, &uses);
        let full = u128::from(state.gprs[s0 + col]) * u128::from(state.gprs[rax0 + col]);
        let lo = full as u64;
        let hi = (full >> 64) as u64;
        state.gprs[rax0 + col] = lo;
        state.gpr_defined[rax0 + col] = true;
        state.gprs[rdx0 + col] = hi;
        state.gpr_defined[rdx0 + col] = true;
        let overflow = hi != 0;
        state.flags[cf0 + col] = overflow;
        state.flag_defined[cf0 + col] = true;
        state.flags[of0 + col] = overflow;
        state.flag_defined[of0 + col] = true;
        state.flags[zf0 + col] = lo == 0;
        state.flag_defined[zf0 + col] = true;
        state.flags[sf0 + col] = (lo as i64) < 0;
        state.flag_defined[sf0 + col] = true;
        state.flags[pf0 + col] = (lo as u8).count_ones().is_multiple_of(2);
        state.flag_defined[pf0 + col] = true;
    }
}

/// Specialized handler for `imulq src, dst`: two-operand signed multiply
/// with CF/OF set iff the full 128-bit product does not fit the 64-bit
/// destination.
fn step_imul2_q(d: &Decoded, state: &mut BatchState) {
    let Micro::Imul2Q { src, dst, uses } = d.micro else {
        unreachable!("handler matches its micro-op")
    };
    let n = state.n;
    let d0 = dst as usize * n;
    let (cf0, zf0, sf0, of0, pf0) = (
        Flag::Cf.index() * n,
        Flag::Zf.index() * n,
        Flag::Sf.index() * n,
        Flag::Of.index() * n,
        Flag::Pf.index() * n,
    );
    if state.live_cols == n {
        count_undef_rows(state, &uses);
        match src {
            Src::Reg(r) => {
                let r0 = r as usize * n;
                state.tmp.copy_from_slice(&state.gprs[r0..r0 + n]);
            }
            Src::Imm(v) => state.tmp.fill(v),
        }
        let [cf, zf, sf, of, pf] = rows5(&mut state.flags, n);
        let dst_row = &mut state.gprs[d0..d0 + n];
        for col in 0..n {
            let s = state.tmp[col];
            let d = dst_row[col];
            let full = (s as i64 as i128) * (d as i64 as i128);
            let r = full as u64;
            let overflow = full != (r as i64 as i128);
            cf[col] = overflow;
            of[col] = overflow;
            zf[col] = r == 0;
            sf[col] = (r as i64) < 0;
            pf[col] = (r as u8).count_ones().is_multiple_of(2);
            dst_row[col] = r;
        }
        state.flag_defined.fill(true);
        state.gpr_defined[d0..d0 + n].fill(true);
        return;
    }
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        count_undef(state, col, &uses);
        let s = match src {
            Src::Reg(r) => state.gprs[r as usize * n + col],
            Src::Imm(v) => v,
        };
        let d = state.gprs[d0 + col];
        let full = (s as i64 as i128) * (d as i64 as i128);
        let r = full as u64;
        let overflow = full != (r as i64 as i128);
        state.flags[cf0 + col] = overflow;
        state.flag_defined[cf0 + col] = true;
        state.flags[of0 + col] = overflow;
        state.flag_defined[of0 + col] = true;
        state.flags[zf0 + col] = r == 0;
        state.flag_defined[zf0 + col] = true;
        state.flags[sf0 + col] = (r as i64) < 0;
        state.flag_defined[sf0 + col] = true;
        state.flags[pf0 + col] = (r as u8).count_ones().is_multiple_of(2);
        state.flag_defined[pf0 + col] = true;
        state.gprs[d0 + col] = r;
        state.gpr_defined[d0 + col] = true;
    }
}

/// Handler for `nop`: no column reads or writes anything.
fn step_nop(_d: &Decoded, _state: &mut BatchState) {}

/// Handler for instructions with empty use sets: skips the undefined-read
/// scan entirely.
fn step_no_uses(d: &Decoded, state: &mut BatchState) {
    for col in 0..state.n {
        if !state.live[col] {
            continue;
        }
        Col { s: state, col }.execute(d.instruction());
    }
}

/// The general handler: per live column, count undefined reads over the
/// decoded use lists (same elements, same order as the sequential
/// interpreter and prepared runs), then execute the shared instruction
/// semantics against the column view.
fn step_generic(d: &Decoded, state: &mut BatchState) {
    let (instr, gpr_uses, xmm_uses, flag_uses) =
        (d.instruction(), d.gpr_uses(), d.xmm_uses(), d.flag_uses());
    let n = state.n;
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        for r in gpr_uses {
            if !state.gpr_defined[r.parent().index() * n + col] {
                state.faults[col].undef += 1;
            }
        }
        for x in xmm_uses {
            if !state.xmm_defined[x.index() * n + col] {
                state.faults[col].undef += 1;
            }
        }
        for f in flag_uses {
            if !state.flag_defined[f.index() * n + col] {
                state.faults[col].undef += 1;
            }
        }
        Col { s: state, col }.execute(instr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::PreparedProgram;
    use stoke_x86::Program;

    fn inputs(n: usize) -> Vec<MachineState> {
        (0..n as u64)
            .map(|i| {
                let mut s = MachineState::new();
                s.set_gpr64(Gpr::Rdi, 3 + i);
                s.set_gpr64(Gpr::Rsi, 100 * i);
                s.set_gpr64(Gpr::Rsp, 0x8000);
                s.memory.mark_valid(0x7000, 0x1010);
                s.memory.poke_wide(0x7000, 0x1111_2222_3333_4444 ^ i, 8);
                s
            })
            .collect()
    }

    fn assert_matches_prepared(text: &str, states: &[MachineState]) {
        let p: Program = text.parse().unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let outs = prepared.run_batch(states);
        assert_eq!(outs.len(), states.len());
        for (input, out) in states.iter().zip(&outs) {
            let want = prepared.run_prepared(input);
            assert_eq!(out.state, want.state, "states diverge");
            assert_eq!(out.faults, want.faults, "faults diverge");
        }
    }

    #[test]
    fn batched_matches_prepared_on_clean_code() {
        assert_matches_prepared("movq rdi, rax\naddq rsi, rax", &inputs(5));
    }

    #[test]
    fn batched_matches_prepared_on_faulting_code() {
        // Undefined reads (rbx, flags before adc), a wild load, a store,
        // and a divide by zero.
        assert_matches_prepared(
            "addq rbx, rdi\nmovq (rbx), rcx\nmovq rdi, -8(rsp)\nxorq rdx, rdx\ndivq rdx",
            &inputs(4),
        );
    }

    #[test]
    fn batched_matches_prepared_on_memory_and_sse() {
        assert_matches_prepared(
            "movq -8(rsp), rax\nmovq rdi, (rsp)\nmovd edi, xmm0\npshufd 0, xmm0, xmm1\npaddd xmm1, xmm0",
            &inputs(3),
        );
    }

    #[test]
    fn empty_batch_and_empty_program() {
        let p: Program = "addq rsi, rdi".parse().unwrap();
        let prepared = PreparedProgram::of_program(&p);
        assert!(prepared.run_batch(&[]).is_empty());

        let empty = PreparedProgram::new(std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.static_latency(), 0);
        let states = inputs(2);
        let outs = empty.run_batch(&states);
        for (input, out) in states.iter().zip(&outs) {
            assert_eq!(&out.state, input);
            assert!(out.faults.is_clean());
        }
    }

    #[test]
    fn killed_columns_stop_faulting() {
        // Every step of this program faults in every column; killing a
        // column after the first step freezes its counters.
        let p: Program = "movq (rbx), rax\nmovq (rbx), rax\nmovq (rbx), rax"
            .parse()
            .unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let states: Vec<MachineState> = (0..3).map(|_| MachineState::new()).collect();
        let mut batch = BatchState::new();
        batch.load(&states);
        let mut steps = 0;
        prepared.run_lockstep_with(&mut batch, |state| {
            steps += 1;
            if steps == 1 {
                state.kill(2);
            }
            true
        });
        assert_eq!(steps, 3);
        assert_eq!(batch.live_columns(), 2);
        // Live columns: one undef (rbx) + one sigsegv per step.
        for col in 0..2 {
            assert_eq!(batch.faults(col).sigsegv, 3);
            assert_eq!(batch.faults(col).undef, 3);
        }
        // The killed column only saw the first step.
        assert_eq!(batch.faults(2).sigsegv, 1);
        assert!(!batch.is_live(2));
    }

    #[test]
    fn all_columns_dead_stops_the_run() {
        let p: Program = "movq (rbx), rax\nmovq (rbx), rax".parse().unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let states = vec![MachineState::new()];
        let mut batch = BatchState::new();
        batch.load(&states);
        let mut steps = 0;
        prepared.run_lockstep_with(&mut batch, |state| {
            steps += 1;
            state.kill(0);
            true
        });
        assert_eq!(steps, 1, "no live column left after the first step");
    }

    #[test]
    fn scratch_reload_resets_everything() {
        let p: Program = "addq rsi, rdi".parse().unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let mut batch = BatchState::new();
        // First use: kill a column, accumulate faults.
        batch.load(&[MachineState::new(), MachineState::new()]);
        batch.kill(1);
        prepared.run_lockstep(&mut batch);
        assert!(batch.faults(0).undef > 0);
        // Reload with different width: clean slate.
        let states = inputs(3);
        batch.load(&states);
        assert_eq!(batch.width(), 3);
        assert_eq!(batch.live_columns(), 3);
        prepared.run_lockstep(&mut batch);
        for (col, input) in states.iter().enumerate() {
            let want = prepared.run_prepared(input);
            assert_eq!(batch.column_state(col), want.state);
            assert_eq!(batch.faults(col), want.faults);
        }
    }

    #[test]
    fn column_ref_reads_match_extraction() {
        let p: Program = "addq rsi, rdi\ncmpq rsi, rdi".parse().unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let states = inputs(2);
        let mut batch = BatchState::new();
        batch.load(&states);
        prepared.run_lockstep(&mut batch);
        for col in 0..2 {
            let owned = batch.column_state(col);
            let view = batch.column(col);
            for g in Gpr::ALL {
                assert_eq!(view.read_gpr64(g), owned.read_gpr64(g));
            }
            for f in Flag::ALL {
                assert_eq!(view.read_flag(f), owned.read_flag(f));
            }
            for x in Xmm::ALL {
                assert_eq!(view.read_xmm(x), owned.read_xmm(x));
            }
            assert_eq!(view.memory(), &owned.memory);
            assert_eq!(view.faults(), batch.faults(col));
        }
    }
}
