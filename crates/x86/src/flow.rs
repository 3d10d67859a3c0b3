//! Dataflow over straight-line code: what each instruction reads and
//! writes, and backward liveness analysis.
//!
//! What an instruction reads and writes is not written down here: it is
//! recorded by running the one definition of the instruction,
//! [`crate::semantics::execute`], over a fourth [`Machine`] beside the
//! interpreter, the batched engine and the symbolic executor. This
//! recorder's values are "a known constant or unknown", each tagged with
//! the locations it was computed from, so [`Access::of`] sees exactly the
//! locations whose values reach a write, a store, a memory address or a
//! division, and which writes may keep old bits. Everything that asks
//! what an instruction touches — liveness and dead code here, the static
//! taint pass, the timing model, the emulator's undefined-read counter,
//! the cache key's pinned registers — asks [`Access::of`].
//!
//! Liveness is computed at the granularity of 64-bit architectural
//! registers (a use of `eax` is a use of `rax`), which is the granularity
//! at which the cost function and the validator compare machine states.

use crate::instr::Instruction;
use crate::opcode::{AluOp, Opcode};
use crate::operand::{Mem, Operand};
use crate::program::Program;
use crate::reg::{Flag, Gpr, Reg, Width, Xmm};
use crate::semantics::{address, execute, Machine};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{BitAnd, BitOr, Sub};

/// A kind of location a [`BitSet`] holds: general purpose registers, SSE
/// registers or flags.
pub trait Location: Copy + 'static {
    /// Every location of this kind, in index order.
    const UNIVERSE: &'static [Self];
    /// The location's dense index (below 16).
    fn index(self) -> usize;
}

impl Location for Gpr {
    const UNIVERSE: &'static [Gpr] = &Gpr::ALL;
    fn index(self) -> usize {
        Gpr::index(self)
    }
}

impl Location for Xmm {
    const UNIVERSE: &'static [Xmm] = &Xmm::ALL;
    fn index(self) -> usize {
        Xmm::index(self)
    }
}

impl Location for Flag {
    const UNIVERSE: &'static [Flag] = &Flag::ALL;
    fn index(self) -> usize {
        Flag::index(self)
    }
}

/// A set of locations of one kind, one bit per location: `Copy` and free
/// of allocation, with the part of the `BTreeSet` API its callers use
/// (iteration in ascending order, `contains`, `insert`, `remove`,
/// `extend`, `len`, `collect`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BitSet<T> {
    bits: u16,
    kind: PhantomData<T>,
}

impl<T: Location> BitSet<T> {
    /// The empty set.
    pub fn new() -> BitSet<T> {
        BitSet::default()
    }

    /// Whether `x` is in the set.
    pub fn contains(&self, x: &T) -> bool {
        self.bits & (1 << x.index()) != 0
    }

    /// Add `x`; whether it was absent.
    pub fn insert(&mut self, x: T) -> bool {
        let absent = !self.contains(&x);
        self.bits |= 1 << x.index();
        absent
    }

    /// Remove `x`; whether it was present.
    pub fn remove(&mut self, x: &T) -> bool {
        let present = self.contains(x);
        self.bits &= !(1 << x.index());
        present
    }

    /// The number of locations in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// The locations in ascending index order.
    pub fn iter(&self) -> Iter<T> {
        Iter(*self)
    }
}

/// The locations of a [`BitSet`], in ascending index order.
pub struct Iter<T>(BitSet<T>);

impl<T: Location> Iterator for Iter<T> {
    type Item = &'static T;
    fn next(&mut self) -> Option<&'static T> {
        let bits = &mut self.0.bits;
        let i = bits.trailing_zeros() as usize;
        (*bits != 0).then(|| {
            *bits &= *bits - 1;
            &T::UNIVERSE[i]
        })
    }
}

impl<T> BitSet<T> {
    fn from_bits(bits: u16) -> BitSet<T> {
        BitSet {
            bits,
            kind: PhantomData,
        }
    }
}

impl<T> Default for BitSet<T> {
    fn default() -> BitSet<T> {
        BitSet::from_bits(0)
    }
}

impl<T: Location + fmt::Debug> fmt::Debug for BitSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Location> FromIterator<T> for BitSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> BitSet<T> {
        let mut set = BitSet::new();
        set.extend(iter);
        set
    }
}

impl<T: Location> Extend<T> for BitSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.insert(x);
        }
    }
}

impl<T: Location> IntoIterator for &BitSet<T> {
    type Item = &'static T;
    type IntoIter = Iter<T>;
    fn into_iter(self) -> Iter<T> {
        self.iter()
    }
}

/// A set of locations: general purpose registers, SSE registers and
/// flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LocSet {
    /// General purpose registers (at 64-bit granularity).
    pub gprs: BitSet<Gpr>,
    /// SSE registers.
    pub xmms: BitSet<Xmm>,
    /// Flags.
    pub flags: BitSet<Flag>,
}

/// A [`LocSet`] packed into one word: gprs in bits 0..16, xmms in
/// 16..32, flags from bit 32.
type Mask = u64;

impl LocSet {
    /// An empty location set.
    pub fn new() -> LocSet {
        LocSet::default()
    }

    /// A set containing only the given general purpose registers.
    pub fn from_gprs(gprs: impl IntoIterator<Item = Gpr>) -> LocSet {
        LocSet {
            gprs: gprs.into_iter().collect(),
            ..LocSet::default()
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.mask() == 0
    }

    /// Number of locations in the set.
    pub fn len(&self) -> usize {
        self.mask().count_ones() as usize
    }

    /// Whether the two sets share a location.
    pub fn intersects(&self, other: &LocSet) -> bool {
        self.mask() & other.mask() != 0
    }

    fn mask(&self) -> Mask {
        Mask::from(self.gprs.bits)
            | Mask::from(self.xmms.bits) << 16
            | Mask::from(self.flags.bits) << 32
    }

    fn of_mask(m: Mask) -> LocSet {
        LocSet {
            gprs: BitSet::from_bits(m as u16),
            xmms: BitSet::from_bits((m >> 16) as u16),
            flags: BitSet::from_bits((m >> 32) as u16),
        }
    }
}

impl BitOr for &LocSet {
    type Output = LocSet;
    fn bitor(self, other: &LocSet) -> LocSet {
        LocSet::of_mask(self.mask() | other.mask())
    }
}

impl BitAnd for &LocSet {
    type Output = LocSet;
    fn bitand(self, other: &LocSet) -> LocSet {
        LocSet::of_mask(self.mask() & other.mask())
    }
}

impl Sub for &LocSet {
    type Output = LocSet;
    fn sub(self, other: &LocSet) -> LocSet {
        LocSet::of_mask(self.mask() & !other.mask())
    }
}

/// What one instruction reads and writes, recorded from its semantics.
///
/// ```
/// use stoke_x86::flow::Access;
/// use stoke_x86::{Flag, Gpr, Program};
///
/// let p: Program = "cmoveq rsi, rax".parse().unwrap();
/// let a = Access::of(&p.instrs()[0]);
/// // The destination is read: a false condition keeps its value.
/// assert!(a.reads.gprs.contains(&Gpr::Rax) && a.reads.gprs.contains(&Gpr::Rsi));
/// assert_eq!(a.reads.flags.iter().collect::<Vec<_>>(), [&Flag::Zf]);
/// assert!(a.kills.gprs.contains(&Gpr::Rax));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Access {
    /// Locations whose current values the instruction reads: every
    /// location whose value reaches a write, a store, a memory address or
    /// a division, and the register a narrow (8/16-bit) write merges
    /// into.
    pub reads: LocSet,
    /// Locations the instruction overwrites entirely.
    pub kills: LocSet,
    /// Locations the instruction writes but may leave partly or wholly as
    /// they were: narrow register writes, flags a shift leaves alone when
    /// its count may be zero, and everything written after a division
    /// (which may fault and write nothing).
    pub merges: LocSet,
    /// Whether the instruction reads memory.
    pub loads: bool,
    /// Whether the instruction writes memory.
    pub stores: bool,
}

impl Access {
    /// Record what `instr` reads and writes by running its semantics over
    /// the recording machine.
    pub fn of(instr: &Instruction) -> Access {
        let mut r = Recorder::default();
        execute(&mut r, instr);
        Access {
            reads: LocSet::of_mask(r.reads),
            kills: LocSet::of_mask(r.kills & !r.merges),
            merges: LocSet::of_mask(r.merges),
            loads: r.loads,
            stores: r.stores,
        }
    }

    /// The locations whose old values may reach the instruction's
    /// results: what it reads and what it merges into.
    pub fn uses(&self) -> LocSet {
        &self.reads | &self.merges
    }

    /// Every location the instruction writes, killed or merged.
    pub fn writes(&self) -> LocSet {
        &self.kills | &self.merges
    }

    /// The `LATENCY(i)` of the paper's Equation 13 for an instruction of
    /// `opcode` with this access: the opcode's base latency plus a
    /// three-cycle penalty for a load and another for a store.
    pub fn latency(&self, opcode: Opcode) -> u32 {
        opcode.latency() + 3 * u32::from(self.loads) + 3 * u32::from(self.stores)
    }
}

/// A value of the recorder, bit-vector or single bit alike: its bits when
/// they are a known constant, and the locations it was computed from.
#[derive(Clone, Copy)]
struct Val {
    known: Option<u64>,
    from: Mask,
}

/// A value computed from `from` whose bits are not known.
fn unknown(from: Mask) -> Val {
    Val { known: None, from }
}

/// `f` of `a`, known when `a` is.
fn map(a: Val, f: impl FnOnce(u64) -> u64) -> Val {
    Val {
        known: a.known.map(f),
        from: a.from,
    }
}

/// `f` of two values, known when both are.
fn fold(a: Val, b: Val, f: impl FnOnce(u64, u64) -> u64) -> Val {
    Val {
        known: a.known.zip(b.known).map(|(x, y)| f(x, y)),
        from: a.from | b.from,
    }
}

/// `a` if `c` is known true, `b` if known false, else unknown.
fn select(c: Val, a: Val, b: Val) -> Val {
    match c.known {
        Some(0) => b,
        Some(_) => a,
        None => unknown(c.from | a.from | b.from),
    }
}

fn mask(bits: u32) -> u64 {
    u64::MAX >> (64 - bits)
}

fn gpr(g: Gpr) -> Mask {
    1 << g.index()
}

/// The fourth [`Machine`]: it computes no values, only where they come
/// from and where they go. Values are known only where every input was an
/// immediate, which is what tells a shift by an immediate (whose zero
/// test is known) from a shift by `cl`.
#[derive(Default)]
struct Recorder {
    reads: Mask,
    kills: Mask,
    merges: Mask,
    loads: bool,
    stores: bool,
    /// Set once the division hook ran: later writes happen only when the
    /// division does not fault.
    after_divide: bool,
}

impl Recorder {
    /// `v` is written to `to`, which keeps its old bits when `merge`.
    fn written(&mut self, to: Mask, v: Mask, merge: bool) {
        self.reads |= v;
        if merge || self.after_divide {
            self.merges |= to;
        } else {
            self.kills |= to;
        }
    }

    /// The locations the address of `mem` is computed from, which the
    /// access reads.
    fn address(&mut self, mem: &Mem) -> Mask {
        let from = address(self, mem).from;
        self.reads |= from;
        from
    }
}

impl Machine for Recorder {
    type Bv = Val;
    type Bit = Val;

    fn read_reg(&mut self, r: Reg) -> Val {
        unknown(gpr(r.parent()))
    }
    fn write_reg(&mut self, r: Reg, v: Val) {
        let to = gpr(r.parent());
        let narrow = matches!(r.width(), Width::B | Width::W);
        if narrow {
            // The preserved upper bits are read into the new value.
            self.reads |= to;
        }
        self.written(to, v.from, narrow);
    }
    fn read_gpr64(&mut self, g: Gpr) -> Val {
        unknown(gpr(g))
    }
    fn set_gpr64(&mut self, g: Gpr, v: Val) {
        self.written(gpr(g), v.from, false);
    }
    fn read_xmm(&mut self, x: Xmm) -> [Val; 2] {
        [unknown(1 << (16 + x.index())); 2]
    }
    fn write_xmm(&mut self, x: Xmm, v: [Val; 2]) {
        self.written(1 << (16 + x.index()), v[0].from | v[1].from, false);
    }
    fn read_flag(&mut self, f: Flag) -> Val {
        unknown(1 << (32 + f.index()))
    }
    fn write_flag(&mut self, f: Flag, v: Val) {
        self.written(1 << (32 + f.index()), v.from, false);
    }
    fn write_flag_unless(&mut self, keep: Val, f: Flag, v: Val) {
        let merge = keep.known != Some(0);
        self.written(1 << (32 + f.index()), keep.from | v.from, merge);
    }

    fn load(&mut self, mem: &Mem, _: Width) -> Val {
        self.loads = true;
        unknown(self.address(mem))
    }
    fn store(&mut self, mem: &Mem, _: Width, v: Val) {
        self.stores = true;
        self.reads |= self.address(mem) | v.from;
    }
    fn load128(&mut self, mem: &Mem) -> [Val; 2] {
        [self.load(mem, Width::Q); 2]
    }
    fn store128(&mut self, mem: &Mem, v: [Val; 2]) {
        self.store(mem, Width::Q, unknown(v[0].from | v[1].from));
    }
    fn load_at(&mut self, addr: Val) -> Val {
        self.loads = true;
        self.reads |= addr.from;
        unknown(addr.from)
    }
    fn store_at(&mut self, addr: Val, v: Val) {
        self.stores = true;
        self.reads |= addr.from | v.from;
    }

    fn divide(&mut self, _: Width, _: bool, hi: Val, lo: Val, d: Val) -> Option<(Val, Val)> {
        let from = hi.from | lo.from | d.from;
        self.reads |= from;
        self.after_divide = true;
        Some((unknown(from), unknown(from)))
    }
    fn mul64(&mut self, a: Val, b: Val, _: bool) -> (Val, Val) {
        (unknown(a.from | b.from), unknown(a.from | b.from))
    }
    fn parity(&mut self, v: Val) -> Val {
        unknown(v.from)
    }
    fn popcnt(&mut self, _: Width, a: Val) -> Val {
        unknown(a.from)
    }
    fn bit_scan(&mut self, _: Width, _: bool, a: Val, old: Val) -> Val {
        unknown(a.from | old.from)
    }
    fn bswap(&mut self, _: Width, a: Val) -> Val {
        unknown(a.from)
    }

    fn constant(&mut self, bits: u32, v: u64) -> Val {
        Val {
            known: Some(v & mask(bits)),
            from: 0,
        }
    }
    fn bit_constant(&mut self, b: bool) -> Val {
        self.constant(1, u64::from(b))
    }
    fn not(&mut self, bits: u32, a: Val) -> Val {
        map(a, |x| !x & mask(bits))
    }
    fn and(&mut self, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| x & y)
    }
    fn or(&mut self, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| x | y)
    }
    fn xor(&mut self, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| x ^ y)
    }
    fn add(&mut self, bits: u32, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| x.wrapping_add(y) & mask(bits))
    }
    fn sub(&mut self, bits: u32, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| x.wrapping_sub(y) & mask(bits))
    }
    fn mul(&mut self, bits: u32, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| x.wrapping_mul(y) & mask(bits))
    }
    fn shl(&mut self, _: u32, a: Val, n: Val) -> Val {
        unknown(a.from | n.from)
    }
    fn lshr(&mut self, _: u32, a: Val, n: Val) -> Val {
        unknown(a.from | n.from)
    }
    fn ashr(&mut self, _: u32, a: Val, n: Val) -> Val {
        unknown(a.from | n.from)
    }
    fn eq(&mut self, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| u64::from(x == y))
    }
    fn ult(&mut self, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| u64::from(x < y))
    }
    fn ite(&mut self, c: Val, a: Val, b: Val) -> Val {
        select(c, a, b)
    }
    fn extract(&mut self, hi: u32, lo: u32, a: Val) -> Val {
        map(a, |x| (x >> lo) & mask(hi - lo + 1))
    }
    fn bit(&mut self, i: u32, a: Val) -> Val {
        map(a, |x| (x >> i) & 1)
    }
    fn concat(&mut self, lo_bits: u32, hi: Val, lo: Val) -> Val {
        fold(hi, lo, |h, l| (h << lo_bits) | l)
    }
    fn zero_ext(&mut self, _: u32, a: Val) -> Val {
        a
    }
    fn sign_ext(&mut self, _: u32, _: u32, a: Val) -> Val {
        unknown(a.from)
    }
    fn extend_bit(&mut self, _: u32, b: Val) -> Val {
        b
    }
    fn not1(&mut self, a: Val) -> Val {
        map(a, |x| x ^ 1)
    }
    fn and1(&mut self, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| x & y)
    }
    fn or1(&mut self, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| x | y)
    }
    fn xor1(&mut self, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| x ^ y)
    }
    fn eq1(&mut self, a: Val, b: Val) -> Val {
        fold(a, b, |x, y| u64::from(x == y))
    }
    fn ite1(&mut self, c: Val, a: Val, b: Val) -> Val {
        select(c, a, b)
    }
}

/// Whether the instruction is a zeroing idiom (`xor r, r` / `sub r, r`):
/// its result is the constant zero whatever the register holds, so no
/// value it reads flows into what it writes. The static taint pass in
/// `stoke-analysis` applies this rule.
pub fn is_zeroing_idiom(instr: &Instruction) -> bool {
    if !matches!(
        instr.opcode(),
        Opcode::Alu(AluOp::Xor, _) | Opcode::Alu(AluOp::Sub, _)
    ) {
        return false;
    }
    match instr.operands() {
        [Operand::Reg(a), Operand::Reg(b)] => a == b,
        _ => false,
    }
}

/// Backward liveness over a straight-line program.
///
/// Returns, for each instruction index, the set of locations live
/// *before* that instruction; index `len()` (conceptually) corresponds to
/// `live_out` itself. The returned vector has `program.len() + 1` entries
/// with the last entry equal to `live_out`. A merged location stays live
/// across its write: the old bits may survive it.
pub fn liveness(program: &Program, live_out: &LocSet) -> Vec<LocSet> {
    let accesses: Vec<Access> = program.instrs().iter().map(Access::of).collect();
    live_sets(&accesses, live_out)
}

/// [`liveness`] over already-recorded accesses, one per instruction.
fn live_sets(accesses: &[Access], live_out: &LocSet) -> Vec<LocSet> {
    let n = accesses.len();
    let mut live = vec![LocSet::new(); n + 1];
    live[n] = live_out.clone();
    for (i, a) in accesses.iter().enumerate().rev() {
        live[i] = &(&live[i + 1] - &a.kills) | &a.uses();
    }
    live
}

/// The live-in set of a program given its live-out set: the locations
/// whose initial values may influence the live outputs. This is the
/// paper's "live inputs with respect to the target".
pub fn live_inputs(program: &Program, live_out: &LocSet) -> LocSet {
    liveness(program, live_out)
        .into_iter()
        .next()
        .unwrap_or_default()
}

/// Instruction indices whose results cannot influence the live outputs
/// (dead code): an instruction is dead if it stores nothing and writes
/// nothing that is live after it. Stores are always observable.
pub fn dead_instructions(program: &Program, live_out: &LocSet) -> Vec<usize> {
    let accesses: Vec<Access> = program.instrs().iter().map(Access::of).collect();
    let live = live_sets(&accesses, live_out);
    (0..accesses.len())
        .filter(|&i| !accesses[i].stores && !accesses[i].writes().intersects(&live[i + 1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::build;
    use crate::opcode::{AluOp, Cond};
    use crate::reg::Width;

    fn live_rax() -> LocSet {
        LocSet::from_gprs([Gpr::Rax])
    }

    fn access(text: &str) -> Access {
        Access::of(&text.parse::<Program>().unwrap().instrs()[0])
    }

    #[test]
    fn straight_line_liveness() {
        // movq rdi, rax ; addq rsi, rax   with rax live out
        let p: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let live = liveness(&p, &live_rax());
        assert!(live[0].gprs.contains(&Gpr::Rdi));
        assert!(live[0].gprs.contains(&Gpr::Rsi));
        assert!(
            !live[0].gprs.contains(&Gpr::Rax),
            "rax is killed by the first mov"
        );
        assert!(live[1].gprs.contains(&Gpr::Rax));
    }

    #[test]
    fn flag_liveness_through_adc() {
        // addq rsi, rax sets CF which adcq consumes.
        let p: Program = "addq rsi, rax\nadcq 0, rdx".parse().unwrap();
        let live = liveness(&p, &LocSet::from_gprs([Gpr::Rax, Gpr::Rdx]));
        assert!(live[1].flags.contains(&Flag::Cf));
        assert!(!live[0].flags.contains(&Flag::Cf), "CF defined by addq");
    }

    #[test]
    fn cmov_reads_flags() {
        let p: Program = "cmpl edi, ecx\ncmovel esi, ecx".parse().unwrap();
        let live = liveness(&p, &LocSet::from_gprs([Gpr::Rcx]));
        assert!(live[1].flags.contains(&Flag::Zf));
        assert!(live[0].gprs.contains(&Gpr::Rdi));
        assert!(live[0].gprs.contains(&Gpr::Rsi));
        assert!(live[0].gprs.contains(&Gpr::Rcx));
    }

    #[test]
    fn byte_write_does_not_kill() {
        // sete dl only writes the low byte of rdx, so rdx stays live above.
        let p: Program = "sete dl".parse().unwrap();
        let live = liveness(&p, &LocSet::from_gprs([Gpr::Rdx]));
        assert!(live[0].gprs.contains(&Gpr::Rdx));
        assert!(live[0].flags.contains(&Flag::Zf));
    }

    #[test]
    fn live_inputs_montgomery() {
        // The Montgomery multiplication rewrite reads rsi, rcx, rdx, rdi, r8.
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
        let p: Program = text.parse().unwrap();
        let ins = live_inputs(&p, &LocSet::from_gprs([Gpr::Rdi, Gpr::R8]));
        for g in [Gpr::Rsi, Gpr::Rcx, Gpr::Rdx, Gpr::Rdi, Gpr::R8] {
            assert!(ins.gprs.contains(&g), "{:?} should be a live input", g);
        }
        assert!(!ins.gprs.contains(&Gpr::Rax));
    }

    #[test]
    fn dead_code_detection() {
        let p: Program = "movq rdi, rbx\nmovq rsi, rax".parse().unwrap();
        let dead = dead_instructions(&p, &live_rax());
        assert_eq!(dead, vec![0]);
        // Stores are never dead.
        let p: Program = "movq rdi, (rsp)\nmovq rsi, rax".parse().unwrap();
        assert!(dead_instructions(&p, &live_rax()).is_empty());
    }

    #[test]
    fn instructions_that_write_nothing_live_are_dead() {
        // A nop writes nothing; a cmp whose flags are overwritten before
        // any read writes nothing live.
        let p: Program = "nop\ncmpq rsi, rdi\naddq rdi, rax".parse().unwrap();
        assert_eq!(dead_instructions(&p, &live_rax()), vec![0, 1]);
        // A cmp that feeds a cmov is live.
        let p: Program = "cmpq rsi, rdi\ncmovlq rsi, rax".parse().unwrap();
        assert!(dead_instructions(&p, &live_rax()).is_empty());
        // cqto and mulq whose rdx:rax results are overwritten are dead.
        let p: Program = "cqto\nmulq rsi\nmovq rdi, rax".parse().unwrap();
        assert_eq!(dead_instructions(&p, &live_rax()), vec![0, 1]);
    }

    #[test]
    fn a_cmov_keeps_the_value_it_may_not_replace() {
        let p: Program = "movq rdi, rax\ncmpq rsi, rdx\ncmoveq rsi, rax"
            .parse()
            .unwrap();
        assert!(dead_instructions(&p, &live_rax()).is_empty());
    }

    #[test]
    fn bit_scans_keep_their_destination_live() {
        for op in [
            "bsfq rsi, rax",
            "bsrq rsi, rax",
            "bsfl esi, eax",
            "bsrl esi, eax",
        ] {
            let p: Program = format!("movq rdi, rax\n{op}").parse().unwrap();
            assert!(dead_instructions(&p, &live_rax()).is_empty(), "{op}");
            let a = access(op);
            assert!(
                a.reads.gprs.contains(&Gpr::Rax),
                "{op}: a zero source keeps it"
            );
        }
    }

    #[test]
    fn a_shift_by_cl_may_keep_its_flags() {
        let zf = LocSet {
            flags: [Flag::Zf].into_iter().collect(),
            ..LocSet::default()
        };
        let by_cl: Program = "shlq cl, rax".parse().unwrap();
        assert!(live_inputs(&by_cl, &zf).flags.contains(&Flag::Zf));
        let by_three: Program = "shlq 3, rax".parse().unwrap();
        assert!(!live_inputs(&by_three, &zf).flags.contains(&Flag::Zf));
        // Kept flags are merged, not read: an undefined flag before the
        // shift stays undefined instead of being read.
        let a = access("shlq cl, rax");
        assert!(a.reads.flags.is_empty());
        assert_eq!(a.merges.flags.len(), 5);
    }

    #[test]
    fn multiplies_write_the_result_flags() {
        for text in ["imulq rdi, rax", "mulq rdi", "imulq rdi"] {
            let a = access(text);
            assert_eq!(a.kills.flags.len(), 5, "{text}");
        }
    }

    #[test]
    fn defs_partial_vs_full() {
        let i = build::setcc(Cond::E, crate::reg::Reg::new(Gpr::Rdx, Width::B));
        let a = Access::of(&i);
        assert!(a.kills.gprs.is_empty());
        assert!(a.merges.gprs.contains(&Gpr::Rdx));

        let i = build::alu(
            AluOp::Add,
            Width::L,
            Gpr::Rsi.view(Width::L),
            Gpr::Rax.view(Width::L),
        );
        assert!(
            Access::of(&i).kills.gprs.contains(&Gpr::Rax),
            "32-bit write zeroes the upper half: full def"
        );
    }

    #[test]
    fn reads_are_the_values_that_reach_an_effect() {
        // add never reads CF; adc does; the condition reads only its flags.
        assert!(access("addq rsi, rax").reads.flags.is_empty());
        assert!(access("adcq rsi, rax").reads.flags.contains(&Flag::Cf));
        let g = access("cmovgq rsi, rax").reads.flags;
        assert_eq!(
            g.iter().collect::<Vec<_>>(),
            [&Flag::Zf, &Flag::Sf, &Flag::Of]
        );
        // A division may fault and write nothing: everything it writes
        // merges, and its flags are not read.
        let div = access("divq rsi");
        assert_eq!(div.merges.flags.len(), 5);
        assert!(div.reads.flags.is_empty());
        assert!(div.merges.gprs.contains(&Gpr::Rax) && div.merges.gprs.contains(&Gpr::Rdx));
        // Memory: a load's address registers are read, and push stores.
        let load = access("movq 8(rsi,rcx,2), rax");
        assert!(load.loads && !load.stores);
        assert_eq!(load.reads, LocSet::from_gprs([Gpr::Rcx, Gpr::Rsi]));
        let push = access("pushq rdi");
        assert!(push.stores && !push.loads);
        assert!(push.kills.gprs.contains(&Gpr::Rsp));
        assert!(!access("leaq 8(rsi), rax").loads);
    }

    #[test]
    fn bit_sets_behave_like_ordered_sets() {
        let mut s: BitSet<Gpr> = [Gpr::R9, Gpr::Rax, Gpr::Rdx].into_iter().collect();
        assert_eq!(s.len(), 3);
        assert!(!s.insert(Gpr::Rax));
        assert!(s.remove(&Gpr::Rdx));
        assert!(!s.remove(&Gpr::Rdx));
        s.extend([Gpr::Rcx]);
        assert_eq!(
            s.iter().copied().collect::<Vec<_>>(),
            [Gpr::Rax, Gpr::Rcx, Gpr::R9]
        );
        assert_eq!(format!("{s:?}"), "{Rax, Rcx, R9}");
        let t = LocSet::from_gprs([Gpr::Rcx]);
        assert!(t.intersects(&LocSet {
            gprs: s,
            ..LocSet::new()
        }));
        assert_eq!(
            (&LocSet {
                gprs: s,
                ..t.clone()
            } - &t)
                .gprs
                .len(),
            2
        );
    }

    #[test]
    fn zeroing_idioms() {
        let idiom = |text: &str| is_zeroing_idiom(&text.parse::<Program>().unwrap().instrs()[0]);
        assert!(idiom("xorq rax, rax"));
        assert!(idiom("subl ecx, ecx"));
        assert!(!idiom("xorq rbx, rax"), "distinct registers");
        assert!(!idiom("andq rax, rax"), "and r, r keeps the value");
        assert!(!idiom("xorq (rsp), rax"), "a memory operand is read");
    }
}
