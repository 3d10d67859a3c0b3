//! The batched lockstep execution engine: all test cases at once.
//!
//! The MCMC inner loop evaluates one candidate rewrite on *every* test
//! case of a suite. The interpreter ([`run_instrs`](crate::run_instrs))
//! walks the program once per case, repeating the instruction dispatch,
//! the operand decoding and the machine-state clone N times. This module
//! inverts the loops: a [`BatchState`] stores the CPU state of all N cases
//! as a structure of arrays (one *column* per test case), and
//! [`PreparedProgram::run_lockstep`] applies each instruction to every
//! live column before moving to the next instruction.
//!
//! - **Chunks.** The columns are grouped into chunks of 16. For each
//!   instruction step, the engine runs the one shared definition of the
//!   instructions, [`stoke_x86::execute`], once per chunk, over a private
//!   [`Machine`] whose values are `[u64; 16]` (one lane per column) and
//!   whose bits are lane bitmasks. Each lane operation applies the same
//!   scalar formula the interpreter uses, so the engine restates no
//!   instruction semantics. Register values are stored as contiguous
//!   16-lane rows; flags and defined-ness are stored as lane bitmasks.
//!   The one exception to chunk-wide execution is division: it runs in
//!   one-column chunks, because a faulting division leaves its own
//!   column's state unchanged.
//! - **Liveness masks.** Every state write is masked by the chunk's live
//!   lanes, and the memory hooks run per live lane, so the §4.5
//!   early-termination bound can kill columns *during* execution (see
//!   [`PreparedProgram::run_lockstep_with`]) and dead columns stop costing
//!   memory work and faults. [`BatchState::fault_events`] tells the bound
//!   when a step changed any fault counter, so it re-checks only then.
//! - **No per-case clone.** A reusable `BatchState` is reloaded in place,
//!   restoring only the memory bytes a run could have written, so the
//!   steady state of the search loop performs no allocation at all.
//!
//! The interpreter is the engine's oracle: the randomized property suite
//! `prop_batched` at the workspace root checks chunk boundaries, liveness
//! masking and random kills against it.

use crate::exec::{value, Faults};
use crate::prepare::Decoded;
#[cfg(doc)]
use crate::prepare::PreparedProgram;
use crate::state::{merge_reg_write, MachineState, Memory, XmmValue};
use stoke_x86::semantics::address;
use stoke_x86::{execute, Flag, Gpr, Machine, Mem, Opcode, Reg, Width, Xmm};

/// The number of columns one execution of the shared semantics covers.
const CHUNK: usize = 16;

/// A set of lanes of one chunk: bit `i` stands for lane `i`.
type Lanes = u16;

/// One 64-bit value per lane of a chunk.
type Bv = [u64; CHUNK];

/// A column's dirty range when no store has touched it.
const CLEAN: (u64, u64) = (u64::MAX, 0);

/// The register, flag and defined-ness rows of a batch. Register values
/// are stored per register, one lane per column (`gprs[reg * stride +
/// column]`, `stride` being the width rounded up to whole chunks); flags
/// and defined-ness are stored as one lane bitmask per chunk and location
/// (`flags[chunk * 5 + flag]`, `gpr_defined[chunk * 16 + reg]`).
#[derive(Debug, Clone, Default)]
struct Rows {
    gprs: Vec<u64>,
    xmms: Vec<XmmValue>,
    flags: Vec<Lanes>,
    gpr_defined: Vec<Lanes>,
    xmm_defined: Vec<Lanes>,
    flag_defined: Vec<Lanes>,
}

impl Rows {
    /// Zero every row for `chunks` chunks, reusing the allocations.
    fn reset(&mut self, chunks: usize) {
        fn zero<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
            v.clear();
            v.resize(len, T::default());
        }
        zero(&mut self.gprs, 16 * CHUNK * chunks);
        zero(&mut self.xmms, 16 * CHUNK * chunks);
        zero(&mut self.flags, 5 * chunks);
        zero(&mut self.gpr_defined, 16 * chunks);
        zero(&mut self.xmm_defined, 16 * chunks);
        zero(&mut self.flag_defined, 5 * chunks);
    }

    /// Copy `other` in, reusing the allocations.
    fn copy_from(&mut self, other: &Rows) {
        self.gprs.clone_from(&other.gprs);
        self.xmms.clone_from(&other.xmms);
        self.flags.clone_from(&other.flags);
        self.gpr_defined.clone_from(&other.gpr_defined);
        self.xmm_defined.clone_from(&other.xmm_defined);
        self.flag_defined.clone_from(&other.flag_defined);
    }
}

/// The lanes of the chunk of a column, and the column's own lane.
fn chunk_lane(col: usize) -> (usize, Lanes) {
    (col / CHUNK, 1 << (col % CHUNK))
}

/// The lanes set in `m`, lowest first.
fn lanes(mut m: Lanes) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            lane
        })
    })
}

/// The machine states of N test cases in structure-of-arrays layout: one
/// column per test case.
///
/// Register values live in contiguous rows with one lane per column,
/// padded to whole chunks of 16 columns; flags and the defined-ness of
/// every register and flag are lane bitmasks, one per chunk. Memory images
/// stay per-column ([`Memory`] is a sparse map, which has no useful
/// columnar form). Each column also carries its own [`Faults`] counters
/// and a liveness bit used by the §4.5 early exit.
///
/// A `BatchState` is a reusable scratch buffer: [`load`](BatchState::load)
/// re-fills it in place, reusing every allocation, which is what makes the
/// batched engine allocation-free in the search's steady state.
#[derive(Debug, Clone, Default)]
pub struct BatchState {
    /// Number of columns (test cases).
    n: usize,
    /// Length of a register row: `n` rounded up to whole chunks.
    stride: usize,
    /// Number of columns still live (not killed by the early exit).
    live_cols: usize,
    rows: Rows,
    /// The rows as of the last [`load`](BatchState::load), which
    /// [`reload`](BatchState::reload) restores with whole-row copies.
    init: Rows,
    memories: Vec<Memory>,
    faults: Vec<Faults>,
    /// Fault counter increments across all columns since the last
    /// (re)load.
    fault_events: u64,
    /// The live lanes of each chunk.
    live: Vec<Lanes>,
    /// Per-column dirty address range `[lo, hi)` covering every successful
    /// store since the last (re)load — [`CLEAN`] when clean — so
    /// [`reload`](BatchState::reload) re-copies only the bytes a run could
    /// have changed instead of whole memory images.
    dirty: Vec<(u64, u64)>,
    /// Whether every column's memory image has the identical segment
    /// layout (established at load time; execution never changes layouts).
    /// When set, an address resolved against one column's image is valid
    /// for all of them, so the memory hooks resolve each distinct address
    /// once per instruction step instead of once per column.
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
        let chunks = n.div_ceil(CHUNK);
        self.n = n;
        self.stride = chunks * CHUNK;
        self.dirty.clear();
        self.dirty.resize(n, CLEAN);
        self.init.reset(chunks);
        self.memories.truncate(n);
        while self.memories.len() < n {
            self.memories.push(Memory::new());
        }
        let (stride, init) = (self.stride, &mut self.init);
        for (col, input) in inputs.enumerate() {
            let (c, lane) = chunk_lane(col);
            let set = |mask: &mut Lanes, on: bool| *mask |= if on { lane } else { 0 };
            for i in 0..16 {
                init.gprs[i * stride + col] = input.gprs[i];
                init.xmms[i * stride + col] = input.xmms[i];
                set(&mut init.gpr_defined[c * 16 + i], input.gpr_defined[i]);
                set(&mut init.xmm_defined[c * 16 + i], input.xmm_defined[i]);
            }
            for i in 0..5 {
                set(&mut init.flags[c * 5 + i], input.flags[i]);
                set(&mut init.flag_defined[c * 5 + i], input.flag_defined[i]);
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
        let view = self.column(col);
        Gpr::ALL.into_iter().all(|g| {
            view.read_gpr64(g) == state.read_gpr64(g)
                && view.gpr_is_defined(g) == state.gpr_is_defined(g)
        }) && Xmm::ALL.into_iter().all(|x| {
            view.read_xmm(x) == state.read_xmm(x)
                && view.xmm_is_defined(x) == state.xmm_is_defined(x)
        }) && Flag::ALL.into_iter().all(|f| {
            view.read_flag(f) == state.read_flag(f)
                && view.flag_is_defined(f) == state.flag_is_defined(f)
        }) && self.memories[col] == state.memory
    }

    /// Copy the load-time rows back, and reset faults and liveness.
    fn restore_rows(&mut self) {
        let n = self.n;
        self.live_cols = n;
        self.fault_events = 0;
        self.faults.clear();
        self.faults.resize(n, Faults::default());
        self.live.clear();
        self.live.extend((0..n).step_by(CHUNK).map(|first| {
            let width = (n - first).min(CHUNK);
            ((1u32 << width) - 1) as Lanes
        }));
        self.rows.copy_from(&self.init);
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
        let (c, lane) = chunk_lane(col);
        self.live[c] & lane != 0
    }

    /// Kill a column: it stops executing from the next instruction step
    /// on. Its state is left as of the moment of death (partial — do not
    /// read it as a final state), which is exactly what the §4.5 early
    /// exit wants: columns the cost bound has already ruled out stop
    /// costing work.
    pub fn kill(&mut self, col: usize) {
        assert!(col < self.n, "column {col} out of range");
        if self.is_live(col) {
            let (c, lane) = chunk_lane(col);
            self.live[c] &= !lane;
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
        assert!(col < self.n, "column {col} out of range");
        ColumnRef { state: self, col }
    }

    /// Extract one column into an owned [`MachineState`].
    pub fn column_state(&self, col: usize) -> MachineState {
        let view = self.column(col);
        let mut out = MachineState::new();
        for g in Gpr::ALL {
            out.gprs[g.index()] = view.read_gpr64(g);
            out.gpr_defined[g.index()] = view.gpr_is_defined(g);
        }
        for x in Xmm::ALL {
            out.xmms[x.index()] = view.read_xmm(x);
            out.xmm_defined[x.index()] = view.xmm_is_defined(x);
        }
        for f in Flag::ALL {
            out.flags[f.index()] = view.read_flag(f);
            out.flag_defined[f.index()] = view.flag_is_defined(f);
        }
        out.memory = self.memories[col].clone();
        out
    }

    /// Advance every live column by one instruction: count each live
    /// column's undefined reads over the decoded reads, then run the
    /// shared semantics once per chunk (once per column for a division).
    pub(crate) fn step(&mut self, d: &Decoded) {
        let one_column = matches!(d.instruction().opcode(), Opcode::Div(_) | Opcode::Idiv(_));
        for c in 0..self.live.len() {
            let live = self.live[c];
            if live == 0 {
                continue;
            }
            let reads = d.reads();
            for g in &reads.gprs {
                self.count_undefined(c, live & !self.rows.gpr_defined[c * 16 + g.index()]);
            }
            for x in &reads.xmms {
                self.count_undefined(c, live & !self.rows.xmm_defined[c * 16 + x.index()]);
            }
            for f in &reads.flags {
                self.count_undefined(c, live & !self.rows.flag_defined[c * 5 + f.index()]);
            }
            if one_column {
                for lane in lanes(live) {
                    let live = 1 << lane;
                    execute(&mut Chunk { s: self, c, live }, d.instruction());
                }
            } else {
                execute(&mut Chunk { s: self, c, live }, d.instruction());
            }
        }
    }

    /// Count one undefined read in each of the `undefined` lanes of chunk
    /// `c`.
    fn count_undefined(&mut self, c: usize, undefined: Lanes) {
        for lane in lanes(undefined) {
            self.faults[c * CHUNK + lane].undef += 1;
            self.fault_events += 1;
        }
    }

    /// Record an out-of-sandbox access in a column.
    fn fault_sigsegv(&mut self, col: usize) {
        self.faults[col].sigsegv += 1;
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
}

/// The last memory resolution of one memory hook call, `(address,
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
    /// Whether the column's lane is set in the mask of chunk row `i` of
    /// `masks`, whose chunks hold `per_chunk` masks each.
    fn bit(&self, masks: &[Lanes], per_chunk: usize, i: usize) -> bool {
        let (c, lane) = chunk_lane(self.col);
        masks[c * per_chunk + i] & lane != 0
    }

    /// Read the full 64-bit value of an architectural register.
    pub fn read_gpr64(&self, g: Gpr) -> u64 {
        self.state.rows.gprs[g.index() * self.state.stride + self.col]
    }

    /// Read an SSE register.
    pub fn read_xmm(&self, x: Xmm) -> XmmValue {
        self.state.rows.xmms[x.index() * self.state.stride + self.col]
    }

    /// Read a status flag.
    pub fn read_flag(&self, f: Flag) -> bool {
        self.bit(&self.state.rows.flags, 5, f.index())
    }

    fn gpr_is_defined(&self, g: Gpr) -> bool {
        self.bit(&self.state.rows.gpr_defined, 16, g.index())
    }

    fn xmm_is_defined(&self, x: Xmm) -> bool {
        self.bit(&self.state.rows.xmm_defined, 16, x.index())
    }

    fn flag_is_defined(&self, f: Flag) -> bool {
        self.bit(&self.state.rows.flag_defined, 5, f.index())
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

/// The shared semantics' value domain over one chunk of a batch: a value
/// holds one lane per column, a bit is a lane bitmask. Each lane operation
/// applies the interpreter's scalar formula from `exec::value`. Every
/// state write is masked by `live`; the memory and division hooks run per
/// live lane.
struct Chunk<'a> {
    s: &'a mut BatchState,
    /// The chunk's index.
    c: usize,
    /// The lanes this execution writes.
    live: Lanes,
}

/// Apply `f` lane by lane.
#[inline(always)]
fn zip(a: Bv, b: Bv, f: impl Fn(u64, u64) -> u64) -> Bv {
    std::array::from_fn(|i| f(a[i], b[i]))
}

/// The lanes where `f` holds.
#[inline(always)]
fn lanes_where(f: impl Fn(usize) -> bool) -> Lanes {
    (0..CHUNK).fold(0, |m, i| m | (Lanes::from(f(i)) << i))
}

/// Whether lane `i` is set in `m`.
#[inline(always)]
fn has(m: Lanes, i: usize) -> bool {
    (m >> i) & 1 == 1
}

impl Chunk<'_> {
    /// The chunk's lanes of register row `i`.
    #[inline(always)]
    fn row(&self, i: usize) -> std::ops::Range<usize> {
        let at = i * self.s.stride + self.c * CHUNK;
        at..at + CHUNK
    }

    /// The column of a lane.
    #[inline(always)]
    fn col(&self, lane: usize) -> usize {
        self.c * CHUNK + lane
    }

    /// Write `f(lane, old)` into the live lanes of general-purpose
    /// register `g`, and mark them defined.
    #[inline(always)]
    fn write_gpr(&mut self, g: Gpr, f: impl Fn(usize, u64) -> u64) {
        let (live, range) = (self.live, self.row(g.index()));
        for (i, slot) in self.s.rows.gprs[range].iter_mut().enumerate() {
            let new = f(i, *slot);
            *slot = if has(live, i) { new } else { *slot };
        }
        self.s.rows.gpr_defined[self.c * 16 + g.index()] |= live;
    }

    /// Sandboxed `len`-byte loads at `addr` in the live lanes: zero and a
    /// fault on an out-of-sandbox access.
    fn load_lanes(&mut self, addr: Bv, len: u64) -> Bv {
        let mut out = [0; CHUNK];
        let mut cache = AddrCache::default();
        for lane in lanes(self.live) {
            let col = self.col(lane);
            match self.s.resolve(col, addr[lane], len, &mut cache) {
                Some((si, j)) => out[lane] = self.s.memories[col].read_at(si, j, len),
                None => self.s.fault_sigsegv(col),
            }
        }
        out
    }

    /// Sandboxed `len`-byte stores of `v` at `addr` in the live lanes:
    /// discarded with a fault on an out-of-sandbox access.
    fn store_lanes(&mut self, addr: Bv, v: Bv, len: u64) {
        let mut cache = AddrCache::default();
        for lane in lanes(self.live) {
            let col = self.col(lane);
            match self.s.resolve(col, addr[lane], len, &mut cache) {
                Some((si, j)) => {
                    self.s.memories[col].write_at(si, j, v[lane], len);
                    self.s.mark_dirty(col, addr[lane], len);
                }
                None => self.s.fault_sigsegv(col),
            }
        }
    }

    /// Write `v` into lanes `lanes` of flag `f`, and mark them defined.
    #[inline(always)]
    fn write_flag_lanes(&mut self, f: Flag, v: Lanes, lanes: Lanes) {
        let i = self.c * 5 + f.index();
        let flags = &mut self.s.rows.flags[i];
        *flags = (*flags & !lanes) | (v & lanes);
        self.s.rows.flag_defined[i] |= lanes;
    }
}

impl Machine for Chunk<'_> {
    type Bv = Bv;
    type Bit = Lanes;

    #[inline(always)]
    fn read_reg(&mut self, r: Reg) -> Bv {
        let w = r.width();
        self.read_gpr64(r.parent()).map(|v| w.truncate(v))
    }
    #[inline(always)]
    fn write_reg(&mut self, r: Reg, v: Bv) {
        let w = r.width();
        self.write_gpr(r.parent(), |i, old| merge_reg_write(old, w, v[i]));
    }
    #[inline(always)]
    fn read_gpr64(&mut self, g: Gpr) -> Bv {
        let range = self.row(g.index());
        self.s.rows.gprs[range]
            .try_into()
            .expect("a row holds whole chunks")
    }
    #[inline(always)]
    fn set_gpr64(&mut self, g: Gpr, v: Bv) {
        self.write_gpr(g, |i, _| v[i]);
    }
    #[inline(always)]
    fn read_xmm(&mut self, x: Xmm) -> [Bv; 2] {
        let row = &self.s.rows.xmms[self.row(x.index())];
        [
            std::array::from_fn(|i| row[i][0]),
            std::array::from_fn(|i| row[i][1]),
        ]
    }
    #[inline(always)]
    fn write_xmm(&mut self, x: Xmm, [lo, hi]: [Bv; 2]) {
        let (live, range) = (self.live, self.row(x.index()));
        for (i, slot) in self.s.rows.xmms[range].iter_mut().enumerate() {
            *slot = if has(live, i) { [lo[i], hi[i]] } else { *slot };
        }
        self.s.rows.xmm_defined[self.c * 16 + x.index()] |= live;
    }
    #[inline(always)]
    fn read_flag(&mut self, f: Flag) -> Lanes {
        self.s.rows.flags[self.c * 5 + f.index()]
    }
    #[inline(always)]
    fn write_flag(&mut self, f: Flag, v: Lanes) {
        self.write_flag_lanes(f, v, self.live);
    }
    #[inline(always)]
    fn write_flag_unless(&mut self, keep: Lanes, f: Flag, v: Lanes) {
        self.write_flag_lanes(f, v, self.live & !keep);
    }

    fn load(&mut self, mem: &Mem, w: Width) -> Bv {
        let addr = address(self, mem);
        self.load_lanes(addr, w.bytes())
    }
    fn store(&mut self, mem: &Mem, w: Width, v: Bv) {
        let addr = address(self, mem);
        self.store_lanes(addr, v.map(|v| w.truncate(v)), w.bytes());
    }
    fn load128(&mut self, mem: &Mem) -> [Bv; 2] {
        let addr = address(self, mem);
        let mut out = [[0; CHUNK]; 2];
        let mut cache = AddrCache::default();
        for lane in lanes(self.live) {
            let col = self.col(lane);
            match self.s.resolve(col, addr[lane], 16, &mut cache) {
                Some((si, j)) => {
                    let memory = &self.s.memories[col];
                    out[0][lane] = memory.read_at(si, j, 8);
                    out[1][lane] = memory.read_at(si, j + 8, 8);
                }
                None => self.s.fault_sigsegv(col),
            }
        }
        out
    }
    fn store128(&mut self, mem: &Mem, [lo, hi]: [Bv; 2]) {
        let addr = address(self, mem);
        let mut cache = AddrCache::default();
        for lane in lanes(self.live) {
            let col = self.col(lane);
            match self.s.resolve(col, addr[lane], 16, &mut cache) {
                Some((si, j)) => {
                    let memory = &mut self.s.memories[col];
                    memory.write_at(si, j, lo[lane], 8);
                    memory.write_at(si, j + 8, hi[lane], 8);
                    self.s.mark_dirty(col, addr[lane], 16);
                }
                None => self.s.fault_sigsegv(col),
            }
        }
    }
    fn load_at(&mut self, addr: Bv) -> Bv {
        self.load_lanes(addr, 8)
    }
    fn store_at(&mut self, addr: Bv, v: Bv) {
        self.store_lanes(addr, v, 8);
    }

    /// Divisions run in one-column chunks (see [`BatchState::step`]): the
    /// result, or the fault, is the single live lane's.
    fn divide(&mut self, w: Width, signed: bool, hi: Bv, lo: Bv, divisor: Bv) -> Option<(Bv, Bv)> {
        debug_assert_eq!(self.live.count_ones(), 1, "a division runs per column");
        let lane = self.live.trailing_zeros() as usize;
        match value::divide(w, signed, hi[lane], lo[lane], divisor[lane]) {
            Some((q, r)) => Some(([q; CHUNK], [r; CHUNK])),
            None => {
                let col = self.col(lane);
                self.s.faults[col].sigfpe += 1;
                self.s.fault_events += 1;
                None
            }
        }
    }
    #[inline(always)]
    fn mul64(&mut self, a: Bv, b: Bv, signed: bool) -> (Bv, Bv) {
        let full: [(u64, u64); CHUNK] = std::array::from_fn(|i| value::mul64(a[i], b[i], signed));
        (full.map(|p| p.0), full.map(|p| p.1))
    }
    #[inline(always)]
    fn parity(&mut self, v: Bv) -> Lanes {
        lanes_where(|i| value::parity(v[i]))
    }
    #[inline(always)]
    fn popcnt(&mut self, _w: Width, a: Bv) -> Bv {
        a.map(value::popcnt)
    }
    #[inline(always)]
    fn bit_scan(&mut self, _w: Width, reverse: bool, a: Bv, old: Bv) -> Bv {
        zip(a, old, |a, old| value::bit_scan(reverse, a, old))
    }
    #[inline(always)]
    fn bswap(&mut self, w: Width, a: Bv) -> Bv {
        a.map(|a| value::bswap(w, a))
    }

    #[inline(always)]
    fn constant(&mut self, bits: u32, v: u64) -> Bv {
        [v & value::mask(bits); CHUNK]
    }
    #[inline(always)]
    fn bit_constant(&mut self, b: bool) -> Lanes {
        if b {
            Lanes::MAX
        } else {
            0
        }
    }
    #[inline(always)]
    fn not(&mut self, bits: u32, a: Bv) -> Bv {
        a.map(|a| value::not(bits, a))
    }
    #[inline(always)]
    fn and(&mut self, a: Bv, b: Bv) -> Bv {
        zip(a, b, |a, b| a & b)
    }
    #[inline(always)]
    fn or(&mut self, a: Bv, b: Bv) -> Bv {
        zip(a, b, |a, b| a | b)
    }
    #[inline(always)]
    fn xor(&mut self, a: Bv, b: Bv) -> Bv {
        zip(a, b, |a, b| a ^ b)
    }
    #[inline(always)]
    fn add(&mut self, bits: u32, a: Bv, b: Bv) -> Bv {
        zip(a, b, |a, b| value::add(bits, a, b))
    }
    #[inline(always)]
    fn sub(&mut self, bits: u32, a: Bv, b: Bv) -> Bv {
        zip(a, b, |a, b| value::sub(bits, a, b))
    }
    #[inline(always)]
    fn mul(&mut self, bits: u32, a: Bv, b: Bv) -> Bv {
        zip(a, b, |a, b| value::mul(bits, a, b))
    }
    #[inline(always)]
    fn shl(&mut self, bits: u32, a: Bv, n: Bv) -> Bv {
        zip(a, n, |a, n| value::shl(bits, a, n))
    }
    #[inline(always)]
    fn lshr(&mut self, bits: u32, a: Bv, n: Bv) -> Bv {
        zip(a, n, |a, n| value::lshr(bits, a, n))
    }
    #[inline(always)]
    fn ashr(&mut self, bits: u32, a: Bv, n: Bv) -> Bv {
        zip(a, n, |a, n| value::ashr(bits, a, n))
    }
    #[inline(always)]
    fn eq(&mut self, a: Bv, b: Bv) -> Lanes {
        lanes_where(|i| a[i] == b[i])
    }
    #[inline(always)]
    fn ult(&mut self, a: Bv, b: Bv) -> Lanes {
        lanes_where(|i| a[i] < b[i])
    }
    #[inline(always)]
    fn ite(&mut self, c: Lanes, a: Bv, b: Bv) -> Bv {
        std::array::from_fn(|i| if has(c, i) { a[i] } else { b[i] })
    }
    #[inline(always)]
    fn extract(&mut self, hi: u32, lo: u32, a: Bv) -> Bv {
        a.map(|a| value::extract(hi, lo, a))
    }
    #[inline(always)]
    fn bit(&mut self, i: u32, a: Bv) -> Lanes {
        lanes_where(|lane| value::bit(i, a[lane]))
    }
    #[inline(always)]
    fn concat(&mut self, lo_bits: u32, hi: Bv, lo: Bv) -> Bv {
        zip(hi, lo, |hi, lo| value::concat(lo_bits, hi, lo))
    }
    #[inline(always)]
    fn zero_ext(&mut self, _bits: u32, a: Bv) -> Bv {
        a
    }
    #[inline(always)]
    fn sign_ext(&mut self, from: u32, to: u32, a: Bv) -> Bv {
        a.map(|a| value::sign_ext(from, to, a))
    }
    #[inline(always)]
    fn extend_bit(&mut self, _bits: u32, b: Lanes) -> Bv {
        std::array::from_fn(|i| u64::from(has(b, i)))
    }
    #[inline(always)]
    fn not1(&mut self, a: Lanes) -> Lanes {
        !a
    }
    #[inline(always)]
    fn and1(&mut self, a: Lanes, b: Lanes) -> Lanes {
        a & b
    }
    #[inline(always)]
    fn or1(&mut self, a: Lanes, b: Lanes) -> Lanes {
        a | b
    }
    #[inline(always)]
    fn xor1(&mut self, a: Lanes, b: Lanes) -> Lanes {
        a ^ b
    }
    #[inline(always)]
    fn eq1(&mut self, a: Lanes, b: Lanes) -> Lanes {
        !(a ^ b)
    }
    #[inline(always)]
    fn ite1(&mut self, c: Lanes, a: Lanes, b: Lanes) -> Lanes {
        (c & a) | (!c & b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_instrs;
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

    fn assert_matches_interpreter(text: &str, states: &[MachineState]) {
        let p: Program = text.parse().unwrap();
        let outs = PreparedProgram::of_program(&p).run_batch(states);
        assert_eq!(outs.len(), states.len());
        for (input, out) in states.iter().zip(&outs) {
            let want = run_instrs(p.instrs(), input);
            assert_eq!(out.state, want.state, "states diverge");
            assert_eq!(out.faults, want.faults, "faults diverge");
        }
    }

    #[test]
    fn batched_matches_prepared_on_clean_code() {
        for n in [5, 16, 17, 33] {
            assert_matches_interpreter("movq rdi, rax\naddq rsi, rax", &inputs(n));
        }
    }

    #[test]
    fn batched_matches_prepared_on_faulting_code() {
        // Undefined reads (rbx, flags before adc), a wild load, a store,
        // and a divide by zero.
        for n in [4, 18] {
            assert_matches_interpreter(
                "addq rbx, rdi\nmovq (rbx), rcx\nmovq rdi, -8(rsp)\nxorq rdx, rdx\ndivq rdx",
                &inputs(n),
            );
        }
    }

    #[test]
    fn batched_matches_prepared_on_memory_and_sse() {
        for n in [3, 20] {
            assert_matches_interpreter(
                "movq -8(rsp), rax\nmovq rdi, (rsp)\nmovd edi, xmm0\npshufd 0, xmm0, xmm1\n\
                 paddd xmm1, xmm0\nmovups xmm0, -32(rsp)\nmovups -40(rsp), xmm2\npushq rsi\npopq rbx",
                &inputs(n),
            );
        }
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
        let states = inputs(19);
        batch.load(&states);
        assert_eq!(batch.width(), 19);
        assert_eq!(batch.live_columns(), 19);
        prepared.run_lockstep(&mut batch);
        for (col, input) in states.iter().enumerate() {
            let want = run_instrs(p.instrs(), input);
            assert_eq!(batch.column_state(col), want.state);
            assert_eq!(batch.faults(col), want.faults);
        }
    }

    /// A division that faults in one column leaves that column's state
    /// unchanged and counts its fault, while its neighbours in the same
    /// chunk (and in the next one) divide and stay clean.
    #[test]
    fn a_faulting_division_leaves_its_neighbours_intact() {
        let p: Program = "divq rcx".parse().unwrap();
        let faulting = [1, 16];
        let states: Vec<MachineState> = (0..18)
            .map(|i| {
                let mut s = MachineState::new();
                s.set_gpr64(Gpr::Rax, 1000 + i as u64);
                s.set_gpr64(Gpr::Rdx, 0);
                let divisor = if faulting.contains(&i) { 0 } else { 7 };
                s.set_gpr64(Gpr::Rcx, divisor);
                s
            })
            .collect();
        let outs = PreparedProgram::of_program(&p).run_batch(&states);
        for (i, out) in outs.iter().enumerate() {
            let dividend = 1000 + i as u64;
            if faulting.contains(&i) {
                assert_eq!(out.faults.sigfpe, 1, "column {i}");
                assert_eq!(out.state, states[i], "column {i} is left unchanged");
            } else {
                assert!(out.faults.is_clean(), "column {i}");
                assert_eq!(out.state.read_gpr64(Gpr::Rax), dividend / 7, "column {i}");
                assert_eq!(out.state.read_gpr64(Gpr::Rdx), dividend % 7, "column {i}");
                assert!(out.state.flag_is_defined(Flag::Cf), "column {i}");
            }
        }
    }

    #[test]
    fn column_ref_reads_match_extraction() {
        let p: Program = "addq rsi, rdi\ncmpq rsi, rdi".parse().unwrap();
        let prepared = PreparedProgram::of_program(&p);
        let states = inputs(18);
        let mut batch = BatchState::new();
        batch.load(&states);
        prepared.run_lockstep(&mut batch);
        for col in 0..18 {
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
