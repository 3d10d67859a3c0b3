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
//! - **Row passes.** Each instruction is dispatched through the
//!   fn-pointer handler its [`Decoded`] entry selected at decode time
//!   (threaded-code style), once per instruction *step* instead of once
//!   per instruction *per case*. The shapes compiled code and the search's
//!   rewrites are made of — `mov`, `lea`, sign and zero extension, the ALU
//!   ops including `adc`/`sbb`, `cmp`, `test`, `neg`/`not`/`inc`/`dec`,
//!   shifts and rotates, `cmov{cc}`, `set{cc}` and the multiplies, at every
//!   operand width, over registers, immediates and `disp(base)` memory —
//!   are pre-decoded into width-parametric micro-ops whose column loop
//!   reads operands straight from the structure-of-arrays rows. Only the
//!   tail (division, bit ops, SSE, push/pop/xchg, index-addressed memory)
//!   runs the shared `Cpu` semantics once per column.
//! - **No per-case clone.** A prepared run clones a full
//!   [`MachineState`] (two heap allocations) per case; a reusable
//!   `BatchState` is reloaded in place, so the steady state of the search
//!   loop performs no allocation at all.
//! - **Early-exit granularity.** A per-column fault/liveness mask lets the
//!   §4.5 early-termination bound kill columns *during* execution (see
//!   [`PreparedProgram::run_lockstep_with`]): once the cost bound provably
//!   trips, dead columns stop costing work per instruction step instead of
//!   per test case. [`BatchState::fault_events`] tells the bound when a
//!   step changed any fault counter, so it re-checks only then.
//!
//! The tail shares its semantics with the interpreter (and the symbolic
//! validator): the column view implements the crate-internal `Cpu`
//! trait's primitive accesses and runs the one shared definition,
//! `stoke_x86::execute`. The micro-ops restate those semantics per shape;
//! the interpreter is their oracle, and the randomized property suite `prop_batched` at the
//! workspace root checks every shape at every width against
//! [`run_prepared`](PreparedProgram::run_prepared).

use crate::exec::{Cpu, Faults};
use crate::prepare::Decoded;
#[cfg(doc)]
use crate::prepare::PreparedProgram;
use crate::state::{merge_reg_write, MachineState, Memory, XmmValue};
use stoke_x86::{
    AluOp, Cond, Flag, Gpr, Instruction, Mem, Opcode, Operand, Reg, ShiftOp, UnOp, Width, Xmm,
};

/// A column's dirty range when no store has touched it.
const CLEAN: (u64, u64) = (u64::MAX, 0);

/// The register, flag and defined-ness rows of a batch, in the row-major
/// layout [`BatchState`] describes.
#[derive(Debug, Clone, Default)]
struct Rows {
    gprs: Vec<u64>,
    xmms: Vec<XmmValue>,
    flags: Vec<bool>,
    gpr_defined: Vec<bool>,
    xmm_defined: Vec<bool>,
    flag_defined: Vec<bool>,
}

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
    /// The register and flag rows as of the last [`load`](BatchState::load),
    /// which [`reload`](BatchState::reload) restores with whole-row copies.
    init: Rows,
    memories: Vec<Memory>,
    faults: Vec<Faults>,
    /// Fault counter increments across all columns since the last
    /// (re)load.
    fault_events: u64,
    live: Vec<bool>,
    /// Per-column dirty address range `[lo, hi)` covering every successful
    /// store since the last (re)load — [`CLEAN`] when clean — so
    /// [`reload`](BatchState::reload) re-copies only the bytes a run could
    /// have changed instead of whole memory images.
    dirty: Vec<(u64, u64)>,
    /// Whether every column's memory image has the identical segment
    /// layout (established at load time; execution never changes layouts).
    /// When set, an address resolved against one column's image is valid
    /// for all of them, so the memory micro-ops resolve each distinct
    /// address once per instruction step instead of once per column.
    uniform_layout: bool,
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
        self.dirty.clear();
        self.dirty.resize(n, CLEAN);
        let init = &mut self.init;
        init.gprs.clear();
        init.gprs.resize(16 * n, 0);
        init.xmms.clear();
        init.xmms.resize(16 * n, [0, 0]);
        init.flags.clear();
        init.flags.resize(5 * n, false);
        init.gpr_defined.clear();
        init.gpr_defined.resize(16 * n, false);
        init.xmm_defined.clear();
        init.xmm_defined.resize(16 * n, false);
        init.flag_defined.clear();
        init.flag_defined.resize(5 * n, false);
        self.memories.truncate(n);
        while self.memories.len() < n {
            self.memories.push(Memory::new());
        }
        for (col, input) in inputs.enumerate() {
            for i in 0..16 {
                init.gprs[i * n + col] = input.gprs[i];
                init.gpr_defined[i * n + col] = input.gpr_defined[i];
                init.xmms[i * n + col] = input.xmms[i];
                init.xmm_defined[i * n + col] = input.xmm_defined[i];
            }
            for i in 0..5 {
                init.flags[i * n + col] = input.flags[i];
                init.flag_defined[i * n + col] = input.flag_defined[i];
            }
            self.memories[col].copy_from(&input.memory);
        }
        self.uniform_layout = self
            .memories
            .split_first()
            .is_none_or(|(first, rest)| rest.iter().all(|m| first.same_layout(m)));
        self.restore_rows();
    }

    /// Re-fill the batch from the *same* input states as the previous
    /// [`load`](BatchState::load) (or `reload`). Registers, flags and
    /// defined-ness are copied back as whole rows from the snapshot taken
    /// at load, faults and liveness are reset as `load` does, and of each
    /// column's memory image only the dirty address range — the span
    /// covering every store the intervening run performed — is copied back
    /// from the input, which restores the image bit-for-bit (verified by a
    /// `debug_assert`).
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
        self.restore_rows();
        for (col, input) in inputs.enumerate() {
            let (lo, hi) = std::mem::replace(&mut self.dirty[col], CLEAN);
            if lo < hi {
                self.memories[col].copy_range_from(&input.memory, lo, hi);
            }
            debug_assert!(
                self.column_is(col, input),
                "reload requires the same inputs as the previous load"
            );
        }
    }

    /// Whether a column holds exactly `state`, compared in place.
    fn column_is(&self, col: usize, state: &MachineState) -> bool {
        let n = self.n;
        (0..16).all(|i| {
            self.gprs[i * n + col] == state.gprs[i]
                && self.gpr_defined[i * n + col] == state.gpr_defined[i]
                && self.xmms[i * n + col] == state.xmms[i]
                && self.xmm_defined[i * n + col] == state.xmm_defined[i]
        }) && (0..5).all(|i| {
            self.flags[i * n + col] == state.flags[i]
                && self.flag_defined[i * n + col] == state.flag_defined[i]
        }) && self.memories[col] == state.memory
    }

    /// Copy the load-time register and flag rows back, and reset faults
    /// and liveness.
    fn restore_rows(&mut self) {
        let n = self.n;
        self.live_cols = n;
        self.fault_events = 0;
        self.faults.clear();
        self.faults.resize(n, Faults::default());
        self.live.clear();
        self.live.resize(n, true);
        self.gprs.clone_from(&self.init.gprs);
        self.xmms.clone_from(&self.init.xmms);
        self.flags.clone_from(&self.init.flags);
        self.gpr_defined.clone_from(&self.init.gpr_defined);
        self.xmm_defined.clone_from(&self.init.xmm_defined);
        self.flag_defined.clone_from(&self.init.flag_defined);
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

    /// The number of fault counter increments, summed over every column,
    /// since the last [`load`](BatchState::load) or
    /// [`reload`](BatchState::reload). If it has not moved between two
    /// instruction steps, no column's [`Faults`] changed in between — which
    /// lets a per-step check over the fault counters (the §4.5 kill check)
    /// skip the steps that raised none.
    pub fn fault_events(&self) -> u64 {
        self.fault_events
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

    /// Record an out-of-sandbox access in a column.
    fn fault_sigsegv(&mut self, col: usize) {
        self.faults[col].sigsegv += 1;
        self.fault_events += 1;
    }

    /// Record an undefined read in a column.
    fn fault_undef(&mut self, col: usize) {
        self.faults[col].undef += 1;
        self.fault_events += 1;
    }

    /// Widen a column's dirty range by a successful store, so
    /// [`reload`](BatchState::reload) knows what to restore.
    fn mark_dirty(&mut self, col: usize, addr: u64, len: u64) {
        let d = &mut self.dirty[col];
        d.0 = d.0.min(addr);
        // No overflow: the store succeeded, so `addr + len` is in a
        // segment.
        d.1 = d.1.max(addr + len);
    }

    /// Dirty-tracking store (the `Cpu` view's path).
    fn store_dirty(&mut self, col: usize, addr: u64, value: u64, len: u64) -> bool {
        if !self.memories[col].store(addr, value, len) {
            return false;
        }
        if len > 0 {
            self.mark_dirty(col, addr, len);
        }
        true
    }

    /// Resolve a `len`-byte access for a column, reusing `cache` when the
    /// layout is uniform and the address repeats.
    #[inline(always)]
    fn resolve(
        &self,
        col: usize,
        addr: u64,
        len: u64,
        cache: &mut AddrCache,
    ) -> Option<(u32, u32)> {
        match cache.0 {
            Some((a, at)) if a == addr && self.uniform_layout => at,
            _ => {
                let at = self.memories[col].resolve(addr, len);
                cache.0 = Some((addr, at));
                at
            }
        }
    }

    /// Sandboxed load of `len` bytes in a column: zero and a fault on an
    /// out-of-sandbox access.
    #[inline(always)]
    fn load_mem(&mut self, col: usize, addr: u64, len: u64, cache: &mut AddrCache) -> u64 {
        match self.resolve(col, addr, len, cache) {
            Some((si, j)) => self.memories[col].read_at(si, j, len),
            None => {
                self.fault_sigsegv(col);
                0
            }
        }
    }

    /// Sandboxed store of `len` bytes in a column: discarded with a fault
    /// on an out-of-sandbox access.
    #[inline(always)]
    fn store_mem(&mut self, col: usize, addr: u64, value: u64, len: u64, cache: &mut AddrCache) {
        match self.resolve(col, addr, len, cache) {
            Some((si, j)) => {
                self.memories[col].write_at(si, j, value, len);
                self.mark_dirty(col, addr, len);
            }
            None => self.fault_sigsegv(col),
        }
    }

    /// The full 64-bit value of a register row in a column.
    #[inline(always)]
    fn gpr(&self, r: u8, col: usize) -> u64 {
        self.gprs[usize::from(r) * self.n + col]
    }

    /// Write a register at width `w` (merge rule of
    /// [`WidthOps::merge`]) and mark it defined.
    #[inline(always)]
    fn write_gpr(&mut self, r: u8, col: usize, w: WidthOps, value: u64) {
        let i = usize::from(r) * self.n + col;
        self.gprs[i] = w.merge(self.gprs[i], value);
        self.gpr_defined[i] = true;
    }

    #[inline(always)]
    fn flag(&self, f: Flag, col: usize) -> bool {
        self.flags[f.index() * self.n + col]
    }

    #[inline(always)]
    fn write_flag(&mut self, f: Flag, col: usize, value: bool) {
        let i = f.index() * self.n + col;
        self.flags[i] = value;
        self.flag_defined[i] = true;
    }

    /// ZF, SF and PF of a width-`w` result.
    #[inline(always)]
    fn write_result_flags(&mut self, col: usize, w: WidthOps, r: u64) {
        let r = r & w.mask;
        self.write_flag(Flag::Zf, col, r == 0);
        self.write_flag(Flag::Sf, col, w.negative(r));
        self.write_flag(Flag::Pf, col, (r as u8).count_ones().is_multiple_of(2));
    }

    /// CF, OF and the result flags.
    #[inline(always)]
    fn write_arith_flags(&mut self, col: usize, w: WidthOps, r: u64, cf: bool, of: bool) {
        self.write_flag(Flag::Cf, col, cf);
        self.write_flag(Flag::Of, col, of);
        self.write_result_flags(col, w, r);
    }

    #[inline(always)]
    fn cond(&self, c: Cond, col: usize) -> bool {
        c.eval(
            self.flag(Flag::Cf, col),
            self.flag(Flag::Zf, col),
            self.flag(Flag::Sf, col),
            self.flag(Flag::Of, col),
        )
    }

    /// A pre-decoded operand's raw value in a column: a register's full 64
    /// bits, the immediate, or the zero-extended memory contents.
    #[inline(always)]
    fn read(&mut self, col: usize, src: Opnd, cache: &mut AddrCache) -> u64 {
        match src {
            Opnd::Reg(r) => self.gpr(r, col),
            Opnd::Imm(v) => v,
            Opnd::Mem { base, disp, len } => {
                let addr = self.gpr(base, col).wrapping_add(disp);
                self.load_mem(col, addr, u64::from(len), cache)
            }
        }
    }

    /// Write a width-`w` result to a pre-decoded destination in a column:
    /// a register (merge rule of [`WidthOps::merge`]) or memory.
    #[inline(always)]
    fn write(&mut self, col: usize, dst: Opnd, w: WidthOps, value: u64, cache: &mut AddrCache) {
        match dst {
            Opnd::Reg(r) => self.write_gpr(r, col, w, value),
            Opnd::Mem { base, disp, len } => {
                let addr = self.gpr(base, col).wrapping_add(disp);
                self.store_mem(col, addr, value & w.mask, u64::from(len), cache);
            }
            Opnd::Imm(_) => unreachable!("an immediate is never a destination"),
        }
    }
}

/// The last memory resolution of one instruction step, `(address,
/// location)`. It is reused for the next column only when the batch's
/// layout is uniform: compiled code mostly computes the same address in
/// every column (fixed stack slots), making this one resolution per step.
#[derive(Default)]
struct AddrCache(Option<(u64, Option<(u32, u32)>)>);

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
        self.s.fault_sigsegv(self.col);
    }

    fn fault_sigfpe(&mut self) {
        self.s.faults[self.col].sigfpe += 1;
        self.s.fault_events += 1;
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

/// A pre-decoded scalar operand. An immediate (a source only) is already
/// truncated to the width the instruction reads it at; a memory operand
/// is a `disp(base)` address accessed `len` bytes wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Opnd {
    Reg(u8),
    Imm(u64),
    Mem { base: u8, disp: u64, len: u8 },
}

/// An operand width's masks, hoisted out of the column loops so one
/// handler body serves all four widths.
#[derive(Debug, Clone, Copy)]
struct WidthOps {
    /// The low `bits` bits.
    mask: u64,
    /// The sign bit.
    sign: u64,
    /// The destination bits a register write preserves: none for 64- and
    /// 32-bit writes (the latter zero-extend), the upper bits for 16- and
    /// 8-bit writes.
    keep: u64,
    bits: u32,
}

impl WidthOps {
    fn of(w: Width) -> WidthOps {
        let mask = w.mask();
        WidthOps {
            mask,
            sign: 1 << (w.bits() - 1),
            keep: match w {
                Width::B | Width::W => !mask,
                Width::L | Width::Q => 0,
            },
            bits: w.bits(),
        }
    }

    /// The x86-64 register merge rule (see `merge_reg_write`).
    #[inline(always)]
    fn merge(self, old: u64, value: u64) -> u64 {
        (old & self.keep) | (value & self.mask)
    }

    #[inline(always)]
    fn negative(self, v: u64) -> bool {
        v & self.sign != 0
    }

    /// Sign-extend the low `bits` bits to 64.
    #[inline(always)]
    fn sext(self, v: u64) -> i128 {
        let shift = 64 - self.bits;
        i128::from(((v << shift) as i64) >> shift)
    }

    /// Result, CF and OF of a two-operand ALU op on width-truncated
    /// operands (`carry` is CF, read only by `adc`/`sbb`).
    #[inline(always)]
    fn alu(self, op: AluOp, d: u64, s: u64, carry: u64) -> (u64, bool, bool) {
        match op {
            AluOp::Add | AluOp::Adc => {
                let c = if op == AluOp::Adc { carry } else { 0 };
                let full = u128::from(d) + u128::from(s) + u128::from(c);
                let r = full as u64 & self.mask;
                let of =
                    self.negative(d) == self.negative(s) && self.negative(r) != self.negative(d);
                (r, full > u128::from(self.mask), of)
            }
            AluOp::Sub | AluOp::Sbb => {
                let c = if op == AluOp::Sbb { carry } else { 0 };
                let r = d.wrapping_sub(s).wrapping_sub(c) & self.mask;
                let cf = u128::from(d) < u128::from(s) + u128::from(c);
                let of =
                    self.negative(d) != self.negative(s) && self.negative(r) != self.negative(d);
                (r, cf, of)
            }
            AluOp::And => (d & s, false, false),
            AluOp::Or => (d | s, false, false),
            AluOp::Xor => (d ^ s, false, false),
        }
    }

    /// Result and CF of a shift or rotate of a width-truncated value by a
    /// nonzero masked count.
    #[inline(always)]
    fn shift(self, op: ShiftOp, a: u64, count: u32) -> (u64, bool) {
        let bits = self.bits;
        match op {
            ShiftOp::Shl => {
                let r = if count >= bits {
                    0
                } else {
                    (a << count) & self.mask
                };
                (r, count <= bits && (a >> (bits - count)) & 1 == 1)
            }
            ShiftOp::Shr => {
                let r = if count >= bits { 0 } else { a >> count };
                (r, count <= bits && (a >> (count - 1)) & 1 == 1)
            }
            ShiftOp::Sar => {
                let sa = self.sext(a) as i64;
                let r = (sa >> count.min(bits - 1)) as u64 & self.mask;
                (r, (sa >> (count.min(bits) - 1).min(63)) & 1 == 1)
            }
            ShiftOp::Rol => {
                let c = count % bits;
                let r = if c == 0 {
                    a
                } else {
                    ((a << c) | (a >> (bits - c))) & self.mask
                };
                (r, r & 1 == 1)
            }
            ShiftOp::Ror => {
                let c = count % bits;
                let r = if c == 0 {
                    a
                } else {
                    ((a >> c) | (a << (bits - c))) & self.mask
                };
                (r, self.negative(r))
            }
        }
    }
}

/// The pre-decoded form of one instruction, built by [`Decoded::new`].
/// Every variant but `Other` is a row-pass micro-op: a width-parametric
/// shape whose handler reads its operands straight from the
/// structure-of-arrays rows with no per-column operand decoding. `Other`
/// runs the shared `Cpu` semantics through the generic handler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Micro {
    /// A flag-free write `dst = extend(src + add)` at width `w`, where
    /// `extend` shifts left by `shl`, then right by `shr` (arithmetically
    /// if `signed`): `mov` into a register or `disp(base)`, `movabs`,
    /// `lea disp(base)`, `movz*`/`movs*`, `cltq`/`cltd`/`cqto`, and
    /// zero-count shifts of a register (which only renormalize it).
    Move {
        w: Width,
        src: Opnd,
        add: u64,
        shl: u8,
        shr: u8,
        signed: bool,
        dst: Opnd,
        uses: Uses,
    },
    /// `op{w} src, dst` for all seven ALU ops; `cmp` is `Sub` and `test`
    /// is `And` with `write_back = false`.
    Alu {
        op: AluOp,
        w: Width,
        src: Opnd,
        dst: Opnd,
        write_back: bool,
        uses: Uses,
    },
    /// `neg`/`not`/`inc`/`dec`.
    Un {
        op: UnOp,
        w: Width,
        dst: Opnd,
        uses: Uses,
    },
    /// Shifts and rotates by an immediate or by a byte register (`cl`).
    Shift {
        op: ShiftOp,
        w: Width,
        count: Opnd,
        dst: Opnd,
        uses: Uses,
    },
    /// `cmov{cc}{w} src, dst`.
    Cmov {
        cond: Cond,
        w: Width,
        src: Opnd,
        dst: u8,
        uses: Uses,
    },
    /// `set{cc} dst`.
    Set { cond: Cond, dst: Opnd, uses: Uses },
    /// `mul{w} src` / `imul{w} src`: widening multiply into `rdx:rax`.
    Mul {
        signed: bool,
        w: Width,
        src: Opnd,
        uses: Uses,
    },
    /// `imul{w} src, dst`: two-operand signed multiply.
    Imul2 {
        w: Width,
        src: Opnd,
        dst: u8,
        uses: Uses,
    },
    /// No specialization — run the shared `Cpu::execute` per column.
    Other,
}

/// Decode one instruction into its [`Micro`] form and pick its handler,
/// given its decoded use lists: a shape is only specialized when its
/// undefined-read scan fits the pre-resolved [`Uses`] rows the dedicated
/// handlers walk (no SSE uses, at most two registers and four flags).
pub(crate) fn select(
    instr: &Instruction,
    gpr_uses: &[Reg],
    xmm_uses: &[Xmm],
    flag_uses: &[Flag],
) -> (Micro, Handler) {
    let micro = if xmm_uses.is_empty() {
        Uses::of(gpr_uses, flag_uses)
            .and_then(|uses| micro_of(instr, uses))
            .unwrap_or(Micro::Other)
    } else {
        Micro::Other
    };
    let handler = match micro {
        Micro::Move { .. } => step_move as Handler,
        Micro::Alu { .. } => step_alu as Handler,
        Micro::Un { .. } => step_un as Handler,
        Micro::Shift { .. } => step_shift as Handler,
        Micro::Cmov { .. } => step_cmov as Handler,
        Micro::Set { .. } => step_set as Handler,
        Micro::Mul { .. } => step_mul as Handler,
        Micro::Imul2 { .. } => step_imul2 as Handler,
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

/// A `disp(base)` address as `(base row, displacement)`.
#[inline(always)]
fn base_disp(m: &Mem) -> Option<(u8, u64)> {
    match (m.base, m.index) {
        (Some(b), None) => Some((b.index() as u8, m.disp as i64 as u64)),
        _ => None,
    }
}

/// A scalar operand accessed at width `w`; `None` for SSE registers and
/// index-addressed memory.
#[inline(always)]
fn opnd(op: &Operand, w: Width) -> Option<Opnd> {
    match op {
        Operand::Reg(r) => Some(Opnd::Reg(r.parent().index() as u8)),
        Operand::Imm(i) => Some(Opnd::Imm(w.truncate(*i as u64))),
        Operand::Mem(m) => base_disp(m).map(|(base, disp)| Opnd::Mem {
            base,
            disp,
            len: w.bytes() as u8,
        }),
        Operand::Xmm(_) => None,
    }
}

/// A destination operand accessed at width `w`: a register or memory.
#[inline(always)]
fn dst_opnd(op: &Operand, w: Width) -> Option<Opnd> {
    opnd(op, w).filter(|d| !matches!(d, Opnd::Imm(_)))
}

/// The row-pass form of an instruction, if it has one.
fn micro_of(instr: &Instruction, uses: Uses) -> Option<Micro> {
    let ops = instr.operands();
    let reg = |op: &Operand| match op {
        Operand::Reg(r) => Some(r.parent().index() as u8),
        _ => None,
    };
    // `dst = extend(src)` at width `w`, with `extend` keeping the low
    // `from` bits, sign- or zero-extended.
    let extend = |src: Opnd, from: Width, w: Width, dst: Opnd, signed: bool| {
        let sh = (64 - from.bits()) as u8;
        Micro::Move {
            w,
            src,
            add: 0,
            shl: sh,
            shr: sh,
            signed,
            dst,
            uses,
        }
    };
    // The register-destination extensions: `movs*`/`movz*`.
    let widen = |from: Width, w: Width, signed: bool| {
        Some(extend(
            opnd(&ops[0], from)?,
            from,
            w,
            Opnd::Reg(reg(&ops[1])?),
            signed,
        ))
    };
    let rax = Opnd::Reg(Gpr::Rax.index() as u8);
    let rdx = Opnd::Reg(Gpr::Rdx.index() as u8);
    Some(match instr.opcode() {
        Opcode::Mov(w) if !(ops[0].is_mem() && ops[1].is_mem()) => {
            extend(opnd(&ops[0], w)?, Width::Q, w, dst_opnd(&ops[1], w)?, false)
        }
        Opcode::Movabs => extend(
            Opnd::Imm(ops[0].as_imm()? as u64),
            Width::Q,
            Width::Q,
            Opnd::Reg(reg(&ops[1])?),
            false,
        ),
        Opcode::Movslq => widen(Width::L, Width::Q, true)?,
        Opcode::Movsbq => widen(Width::B, Width::Q, true)?,
        Opcode::Movsbl => widen(Width::B, Width::L, true)?,
        Opcode::Movzbq => widen(Width::B, Width::Q, false)?,
        Opcode::Movzbl => widen(Width::B, Width::L, false)?,
        Opcode::Lea(w) => {
            let (base, disp) = base_disp(&ops[0].as_mem()?)?;
            Micro::Move {
                w,
                src: Opnd::Reg(base),
                add: disp,
                shl: 0,
                shr: 0,
                signed: false,
                dst: Opnd::Reg(reg(&ops[1])?),
                uses,
            }
        }
        // rdx = all ones or zero by rax's sign at the width.
        Opcode::Cqto => Micro::Move {
            w: Width::Q,
            src: rax,
            add: 0,
            shl: 0,
            shr: 63,
            signed: true,
            dst: rdx,
            uses,
        },
        Opcode::Cltd => Micro::Move {
            w: Width::L,
            src: rax,
            add: 0,
            shl: 32,
            shr: 63,
            signed: true,
            dst: rdx,
            uses,
        },
        Opcode::Cltq => extend(rax, Width::L, Width::Q, rax, true),
        Opcode::Cmov(cond, w) => Micro::Cmov {
            cond,
            w,
            src: opnd(&ops[0], w)?,
            dst: reg(&ops[1])?,
            uses,
        },
        Opcode::Set(cond) => Micro::Set {
            cond,
            dst: dst_opnd(&ops[0], Width::B)?,
            uses,
        },
        Opcode::Alu(op, w) if !(ops[0].is_mem() && ops[1].is_mem()) => Micro::Alu {
            op,
            w,
            src: opnd(&ops[0], w)?,
            dst: dst_opnd(&ops[1], w)?,
            write_back: true,
            uses,
        },
        Opcode::Cmp(w) | Opcode::Test(w) if !(ops[0].is_mem() && ops[1].is_mem()) => Micro::Alu {
            op: if matches!(instr.opcode(), Opcode::Cmp(_)) {
                AluOp::Sub
            } else {
                AluOp::And
            },
            w,
            src: opnd(&ops[0], w)?,
            dst: dst_opnd(&ops[1], w)?,
            write_back: false,
            uses,
        },
        Opcode::Un(op, w) => Micro::Un {
            op,
            w,
            dst: dst_opnd(&ops[0], w)?,
            uses,
        },
        Opcode::Shift(op, w) => {
            let dst = dst_opnd(&ops[1], w)?;
            match opnd(&ops[0], Width::B)? {
                // A zero count leaves the flags alone and only rewrites a
                // register destination with its own value.
                Opnd::Imm(c) if c & shift_count_mask(w) == 0 && matches!(dst, Opnd::Reg(_)) => {
                    extend(dst, Width::Q, w, dst, false)
                }
                count @ (Opnd::Imm(_) | Opnd::Reg(_)) => Micro::Shift {
                    op,
                    w,
                    count,
                    dst,
                    uses,
                },
                Opnd::Mem { .. } => return None,
            }
        }
        Opcode::Mul1(w) | Opcode::Imul1(w) => Micro::Mul {
            signed: matches!(instr.opcode(), Opcode::Imul1(_)),
            w,
            src: opnd(&ops[0], w)?,
            uses,
        },
        Opcode::Imul2(w) => Micro::Imul2 {
            w,
            src: opnd(&ops[0], w)?,
            dst: reg(&ops[1])?,
            uses,
        },
        _ => return None,
    })
}

/// The shift count mask of a width: 6 bits for 64-bit shifts, 5 bits
/// otherwise.
fn shift_count_mask(w: Width) -> u64 {
    if w == Width::Q {
        0x3f
    } else {
        0x1f
    }
}

/// Drive a micro-op's per-column `body` over every live column, after the
/// column's undefined-read scan. The all-live case walks each use row once
/// across the batch, branchlessly, then runs the body over `0..n`; with
/// killed columns, each live column is scanned and run in turn. Both
/// count exactly what the sequential per-case scan counts.
#[inline(always)]
fn for_live(state: &mut BatchState, uses: &Uses, mut body: impl FnMut(&mut BatchState, usize)) {
    let n = state.n;
    if state.live_cols == n {
        let mut events = 0;
        let rows = uses.gpr[..usize::from(uses.ngpr)]
            .iter()
            .map(|&g| &state.gpr_defined[usize::from(g) * n..][..n])
            .chain(
                uses.flag[..usize::from(uses.nflag)]
                    .iter()
                    .map(|&f| &state.flag_defined[usize::from(f) * n..][..n]),
            );
        for def in rows {
            for (f, d) in state.faults.iter_mut().zip(def) {
                let undef = u64::from(!*d);
                f.undef += undef;
                events += undef;
            }
        }
        state.fault_events += events;
        for col in 0..n {
            body(state, col);
        }
        return;
    }
    for col in 0..n {
        if !state.live[col] {
            continue;
        }
        for &g in &uses.gpr[..usize::from(uses.ngpr)] {
            if !state.gpr_defined[usize::from(g) * n + col] {
                state.fault_undef(col);
            }
        }
        for &f in &uses.flag[..usize::from(uses.nflag)] {
            if !state.flag_defined[usize::from(f) * n + col] {
                state.fault_undef(col);
            }
        }
        body(state, col);
    }
}

/// Row-pass handler for [`Micro::Move`].
fn step_move(d: &Decoded, state: &mut BatchState) {
    let Micro::Move {
        w,
        src,
        add,
        shl,
        shr,
        signed,
        dst,
        uses,
    } = d.micro
    else {
        unreachable!("handler matches its micro-op")
    };
    let w = WidthOps::of(w);
    let mut cache = AddrCache::default();
    for_live(
        state,
        &uses,
        #[inline(always)]
        |s, col| {
            let x = s.read(col, src, &mut cache).wrapping_add(add) << shl;
            let v = if signed {
                ((x as i64) >> shr) as u64
            } else {
                x >> shr
            };
            s.write(col, dst, w, v, &mut cache);
        },
    );
}

/// Row-pass handler for [`Micro::Alu`].
fn step_alu(d: &Decoded, state: &mut BatchState) {
    let Micro::Alu {
        op,
        w,
        src,
        dst,
        write_back,
        uses,
    } = d.micro
    else {
        unreachable!("handler matches its micro-op")
    };
    let w = WidthOps::of(w);
    let mut cache = AddrCache::default();
    for_live(
        state,
        &uses,
        #[inline(always)]
        |s, col| {
            let sv = s.read(col, src, &mut cache) & w.mask;
            let dv = s.read(col, dst, &mut cache) & w.mask;
            let carry = u64::from(s.flag(Flag::Cf, col));
            let (r, cf, of) = w.alu(op, dv, sv, carry);
            s.write_arith_flags(col, w, r, cf, of);
            if write_back {
                s.write(col, dst, w, r, &mut cache);
            }
        },
    );
}

/// Row-pass handler for [`Micro::Un`]: `neg` sets the flags of `0 - a`,
/// `inc`/`dec` those of `a ± 1` except CF, `not` none.
fn step_un(d: &Decoded, state: &mut BatchState) {
    let Micro::Un { op, w, dst, uses } = d.micro else {
        unreachable!("handler matches its micro-op")
    };
    let w = WidthOps::of(w);
    let mut cache = AddrCache::default();
    for_live(
        state,
        &uses,
        #[inline(always)]
        |s, col| {
            let a = s.read(col, dst, &mut cache) & w.mask;
            let r = match op {
                UnOp::Not => !a & w.mask,
                UnOp::Neg => {
                    let (r, cf, of) = w.alu(AluOp::Sub, 0, a, 0);
                    s.write_arith_flags(col, w, r, cf, of);
                    r
                }
                UnOp::Inc | UnOp::Dec => {
                    let op = if op == UnOp::Inc {
                        AluOp::Add
                    } else {
                        AluOp::Sub
                    };
                    let (r, _, of) = w.alu(op, a, 1, 0);
                    s.write_flag(Flag::Of, col, of);
                    s.write_result_flags(col, w, r);
                    r
                }
            };
            s.write(col, dst, w, r, &mut cache);
        },
    );
}

/// Row-pass handler for [`Micro::Shift`]. A count that masks to zero
/// (possible with `cl`) leaves the flags alone and only renormalizes the
/// destination; rotates write CF and OF only.
fn step_shift(d: &Decoded, state: &mut BatchState) {
    let Micro::Shift {
        op,
        w: width,
        count,
        dst,
        uses,
    } = d.micro
    else {
        unreachable!("handler matches its micro-op")
    };
    let w = WidthOps::of(width);
    let count_mask = 0xff & shift_count_mask(width);
    let mut cache = AddrCache::default();
    for_live(
        state,
        &uses,
        #[inline(always)]
        |s, col| {
            let c = (s.read(col, count, &mut cache) & count_mask) as u32;
            let a = s.read(col, dst, &mut cache) & w.mask;
            if c == 0 {
                s.write(col, dst, w, a, &mut cache);
                return;
            }
            let (r, cf) = w.shift(op, a, c);
            s.write_flag(Flag::Cf, col, cf);
            if matches!(op, ShiftOp::Rol | ShiftOp::Ror) {
                s.write_flag(
                    Flag::Of,
                    col,
                    w.negative(r) ^ ((r >> (w.bits - 2)) & 1 == 1),
                );
            } else {
                s.write_flag(Flag::Of, col, w.negative(r) ^ cf);
                s.write_result_flags(col, w, r);
            }
            s.write(col, dst, w, r, &mut cache);
        },
    );
}

/// Row-pass handler for [`Micro::Cmov`]: the source is read whether or
/// not the condition holds, and the destination is rewritten either way
/// (a 32-bit `cmov` zero-extends even when the condition is false).
fn step_cmov(d: &Decoded, state: &mut BatchState) {
    let Micro::Cmov {
        cond,
        w,
        src,
        dst,
        uses,
    } = d.micro
    else {
        unreachable!("handler matches its micro-op")
    };
    let w = WidthOps::of(w);
    let mut cache = AddrCache::default();
    for_live(
        state,
        &uses,
        #[inline(always)]
        |s, col| {
            let take = s.cond(cond, col);
            let v = s.read(col, src, &mut cache);
            let old = s.gpr(dst, col);
            s.write_gpr(dst, col, w, if take { v } else { old });
        },
    );
}

/// Row-pass handler for [`Micro::Set`].
fn step_set(d: &Decoded, state: &mut BatchState) {
    let Micro::Set { cond, dst, uses } = d.micro else {
        unreachable!("handler matches its micro-op")
    };
    let w = WidthOps::of(Width::B);
    let mut cache = AddrCache::default();
    for_live(
        state,
        &uses,
        #[inline(always)]
        |s, col| {
            let v = u64::from(s.cond(cond, col));
            s.write(col, dst, w, v, &mut cache);
        },
    );
}

/// Row-pass handler for [`Micro::Mul`]: the double-width product of the
/// source and the accumulator view of `rax`, low half into `rax`, high
/// half into `rdx`; CF/OF flag a product that does not fit the low half.
fn step_mul(d: &Decoded, state: &mut BatchState) {
    let Micro::Mul {
        signed,
        w,
        src,
        uses,
    } = d.micro
    else {
        unreachable!("handler matches its micro-op")
    };
    let w = WidthOps::of(w);
    let (rax, rdx) = (Gpr::Rax.index() as u8, Gpr::Rdx.index() as u8);
    let mut cache = AddrCache::default();
    for_live(
        state,
        &uses,
        #[inline(always)]
        |s, col| {
            let sv = s.read(col, src, &mut cache) & w.mask;
            let acc = s.gpr(rax, col) & w.mask;
            let (lo, hi, overflow) = if signed {
                let full = w.sext(sv) * w.sext(acc);
                let lo = full as u64 & w.mask;
                (lo, (full >> w.bits) as u64 & w.mask, full != w.sext(lo))
            } else {
                let full = u128::from(sv) * u128::from(acc);
                let hi = (full >> w.bits) as u64 & w.mask;
                (full as u64 & w.mask, hi, hi != 0)
            };
            s.write_gpr(rax, col, w, lo);
            s.write_gpr(rdx, col, w, hi);
            s.write_arith_flags(col, w, lo, overflow, overflow);
        },
    );
}

/// Row-pass handler for [`Micro::Imul2`]: CF/OF flag a product that does
/// not fit the destination width.
fn step_imul2(d: &Decoded, state: &mut BatchState) {
    let Micro::Imul2 { w, src, dst, uses } = d.micro else {
        unreachable!("handler matches its micro-op")
    };
    let w = WidthOps::of(w);
    let mut cache = AddrCache::default();
    for_live(
        state,
        &uses,
        #[inline(always)]
        |s, col| {
            let sv = s.read(col, src, &mut cache) & w.mask;
            let dv = s.gpr(dst, col) & w.mask;
            let full = w.sext(sv) * w.sext(dv);
            let r = full as u64 & w.mask;
            let overflow = full != w.sext(r);
            s.write_arith_flags(col, w, r, overflow, overflow);
            s.write_gpr(dst, col, w, r);
        },
    );
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
                state.fault_undef(col);
            }
        }
        for x in xmm_uses {
            if !state.xmm_defined[x.index() * n + col] {
                state.fault_undef(col);
            }
        }
        for f in flag_uses {
            if !state.flag_defined[f.index() * n + col] {
                state.fault_undef(col);
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

    /// The shapes real chains run select a row-pass handler, and the tail
    /// stays on the generic one. A silent fallback to `step_generic` would
    /// otherwise only show up as lost speed.
    #[test]
    fn common_shapes_select_row_pass_handlers() {
        let decode = |text: &str| {
            let p: Program = text.parse().unwrap();
            let d = Decoded::new(&p.instrs()[0]);
            (
                d.micro,
                std::ptr::fn_addr_eq(d.handler, step_generic as Handler),
            )
        };
        for text in [
            "movl -8(rsp), eax",
            "movq rax, -16(rsp)",
            "movl 1, eax",
            "movl 7, -4(rsp)",
            "movabsq 1311768467463790320, rax",
            "addl ecx, eax",
            "subl -8(rsp), eax",
            "adcq 0, rdx",
            "sbbl ecx, eax",
            "xorb cl, al",
            "addq rax, -8(rsp)",
            "cmpq 5, 8(rdi)",
            "cmpl ecx, eax",
            "testq rdi, rdi",
            "cmovneq rsi, rax",
            "cmovll -8(rsp), eax",
            "sete al",
            "negl eax",
            "notq rax",
            "incl eax",
            "shrl 3, eax",
            "shrl cl, eax",
            "rolq 1, rax",
            "shll 2, -4(rsp)",
            "shlq 0, rax",
            "leaq 8(rdi), rax",
            "cltq",
            "cltd",
            "cqto",
            "movzbl al, eax",
            "movzbq al, rax",
            "movsbl -1(rsp), eax",
            "movslq ecx, rcx",
            "mulq rsi",
            "imull ecx",
            "imulq rsi, rax",
        ] {
            let (micro, generic) = decode(text);
            assert_ne!(micro, Micro::Other, "{text}");
            assert!(!generic, "{text}");
        }
        for text in [
            "divq rcx",
            "popcntq rdi, rax",
            "pushq rdi",
            "xchgq rax, rbx",
            "paddd xmm1, xmm0",
            "movq (rsi,rcx,8), rax",
            "addq rax, (rsi,rcx,8)",
        ] {
            let (micro, generic) = decode(text);
            assert_eq!(micro, Micro::Other, "{text}");
            assert!(generic, "{text}");
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
