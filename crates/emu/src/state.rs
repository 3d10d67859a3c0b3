//! Concrete machine state: general purpose registers, SSE registers,
//! status flags, defined-ness tracking and the sandboxed memory image.

use std::collections::BTreeMap;
use stoke_x86::{Flag, Gpr, Reg, Width, Xmm};

/// A 128-bit SSE register value, stored as (low, high) 64-bit halves.
pub type XmmValue = [u64; 2];

/// One contiguous dereferenceable region: dense byte storage plus a
/// written-bitset (one bit per byte) distinguishing stored bytes from
/// unwritten ones, which read as zero but are absent from [`Memory::iter`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Segment {
    start: u64,
    data: Vec<u8>,
    /// Bitset over `data`: bit `i` set means byte `i` has been written.
    written: Vec<u64>,
}

impl Segment {
    fn end(&self) -> u64 {
        self.start + self.data.len() as u64
    }

    fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }

    fn get(&self, i: usize) -> Option<u8> {
        if self.written[i / 64] & (1u64 << (i % 64)) != 0 {
            Some(self.data[i])
        } else {
            None
        }
    }

    fn set(&mut self, i: usize, value: u8) {
        self.data[i] = value;
        self.written[i / 64] |= 1u64 << (i % 64);
    }

    /// Read `len <= 8` bytes little-endian starting at byte index `i`
    /// (the span must be in bounds). Unwritten bytes hold zero in `data`
    /// by construction, so no written-bit masking is needed.
    fn get_wide(&self, i: usize, len: usize) -> u64 {
        if len == 8 {
            return u64::from_le_bytes(self.data[i..i + 8].try_into().expect("8-byte span"));
        }
        let mut v = 0u64;
        for (k, b) in self.data[i..i + len].iter().enumerate() {
            v |= u64::from(*b) << (8 * k);
        }
        v
    }

    /// Write `len <= 8` bytes little-endian at byte index `i` (the span
    /// must be in bounds), setting the written bits word-wise — the span
    /// covers at most two bitset words.
    fn set_wide(&mut self, i: usize, value: u64, len: usize) {
        if len == 8 {
            self.data[i..i + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            for (k, b) in self.data[i..i + len].iter_mut().enumerate() {
                *b = (value >> (8 * k)) as u8;
            }
        }
        let bits = (1u64 << len) - 1;
        let (word, off) = (i / 64, i % 64);
        self.written[word] |= bits << off;
        let spill = (off + len).saturating_sub(64);
        if spill > 0 {
            self.written[word + 1] |= bits >> (len - spill);
        }
    }
}

/// The sandboxed memory image of a machine state.
///
/// Following §5.1 of the paper, "the set of addresses dereferenced by the
/// target are used to define the sandbox in which candidate rewrites are
/// executed": reads and writes of addresses outside the valid ranges are
/// trapped, counted as segmentation faults, and replaced by a constant
/// zero value (reads) or discarded (writes).
///
/// Valid ranges are stored as dense, sorted, non-overlapping segments
/// (sandboxes are a handful of small buffers — a stack page and the
/// target's dereferenced regions), so the evaluation hot path gets
/// branch-predictable bounds checks and direct byte indexing instead of
/// per-byte tree lookups, clones are flat `memcpy`s, and the batched
/// engine's scratch reload reuses allocations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Memory {
    /// Dense storage for every non-wrapping valid range, sorted by start
    /// address, merged when ranges touch or overlap.
    segs: Vec<Segment>,
    /// Bytes poked at addresses no segment covers. Only reachable through
    /// the pathological `poke(u64::MAX)` (whose one-byte validity range
    /// wraps and therefore, exactly as in the sandbox rules, validates
    /// nothing) — kept so `peek`/`iter` semantics stay identical.
    orphans: BTreeMap<u64, u8>,
}

impl Memory {
    /// An empty memory image with no valid addresses.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// The index of the segment containing `addr`, if any.
    fn find_seg(&self, addr: u64) -> Option<usize> {
        let i = self.segs.partition_point(|s| s.start <= addr);
        (i > 0 && self.segs[i - 1].contains(addr)).then(|| i - 1)
    }

    /// Ensure dense storage covers `[start, end)`, merging with any
    /// overlapping or adjacent segments (so contiguous ranges compose into
    /// one segment and a whole valid access always lies in a single one).
    fn cover(&mut self, start: u64, end: u64) {
        let lo = self.segs.partition_point(|s| s.end() < start);
        let mut hi = lo;
        while hi < self.segs.len() && self.segs[hi].start <= end {
            hi += 1;
        }
        let new_start = self.segs.get(lo).map_or(start, |s| s.start.min(start));
        let new_end = (lo..hi).fold(end, |e, i| e.max(self.segs[i].end()));
        if lo < hi && self.segs[lo].start == new_start && self.segs[lo].end() == new_end {
            return; // Already covered by one segment.
        }
        let len = (new_end - new_start) as usize;
        let mut merged = Segment {
            start: new_start,
            data: vec![0; len],
            written: vec![0; len.div_ceil(64)],
        };
        for seg in &self.segs[lo..hi] {
            let off = (seg.start - new_start) as usize;
            merged.data[off..off + seg.data.len()].copy_from_slice(&seg.data);
            for (i, word) in seg.written.iter().enumerate() {
                let mut word = *word;
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    let j = off + i * 64 + bit;
                    merged.written[j / 64] |= 1u64 << (j % 64);
                }
            }
        }
        self.segs.splice(lo..hi, std::iter::once(merged));
    }

    /// Mark a contiguous byte range as legally dereferenceable.
    pub fn mark_valid(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        // A range wrapping past the end of the address space validates
        // nothing (no address can satisfy `addr <= a < addr + len`), so it
        // gets no storage either.
        if let Some(end) = addr.checked_add(len) {
            self.cover(addr, end);
        }
    }

    /// Whether every byte of `[addr, addr + len)` may be dereferenced.
    pub fn is_valid(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let end = match addr.checked_add(len) {
            Some(e) => e,
            None => return false,
        };
        // Touching ranges are merged at mark time, so a fully valid access
        // always lies within a single segment.
        match self.find_seg(addr) {
            Some(i) => end <= self.segs[i].end(),
            None => false,
        }
    }

    /// Set a single byte (also marks it valid).
    pub fn poke(&mut self, addr: u64, value: u8) {
        self.mark_valid(addr, 1);
        self.write_byte(addr, value);
    }

    /// Set a single byte without touching validity: it lands in the
    /// covering segment, or among the orphans if none covers it.
    fn write_byte(&mut self, addr: u64, value: u8) {
        match self.find_seg(addr) {
            Some(i) => {
                let seg = &mut self.segs[i];
                let j = (addr - seg.start) as usize;
                seg.set(j, value);
            }
            None => {
                self.orphans.insert(addr, value);
            }
        }
    }

    /// Read a single byte. Unwritten valid bytes read as zero.
    pub fn peek(&self, addr: u64) -> u8 {
        match self.find_seg(addr) {
            Some(i) => {
                let seg = &self.segs[i];
                seg.get((addr - seg.start) as usize).unwrap_or(0)
            }
            None => self.orphans.get(&addr).copied().unwrap_or(0),
        }
    }

    /// Write `len` bytes of `value` little-endian at `addr`, marking them
    /// valid. Intended for test-case setup; sandboxed execution goes
    /// through [`Memory::store`].
    pub fn poke_wide(&mut self, addr: u64, value: u64, len: u64) {
        if addr.checked_add(len).is_none() {
            // A span running past the end of the address space: validate
            // byte by byte, exactly as `poke` would.
            for i in 0..len {
                self.poke(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
            return;
        }
        self.mark_valid(addr, len);
        for i in 0..len {
            self.write_byte(addr + i, (value >> (8 * i)) as u8);
        }
    }

    /// Read `len <= 8` bytes little-endian without a validity check.
    pub fn peek_wide(&self, addr: u64, len: u64) -> u64 {
        // Fast path: the whole span inside one segment.
        if let Some(i) = self.find_seg(addr) {
            let seg = &self.segs[i];
            if addr.checked_add(len).is_some_and(|end| end <= seg.end()) {
                return seg.get_wide((addr - seg.start) as usize, len as usize);
            }
        }
        let mut v = 0u64;
        for i in 0..len {
            v |= u64::from(self.peek(addr.wrapping_add(i))) << (8 * i);
        }
        v
    }

    /// Sandboxed load of `len <= 8` bytes. Returns `None` (a fault) if any
    /// byte is outside the sandbox.
    pub fn load(&self, addr: u64, len: u64) -> Option<u64> {
        if len == 0 {
            return Some(0);
        }
        // A valid span always lies within a single segment (touching
        // ranges are merged at mark time), so one lookup both bounds-checks
        // the access and locates the bytes.
        let seg = &self.segs[self.find_seg(addr)?];
        if addr.checked_add(len)? > seg.end() {
            return None;
        }
        Some(seg.get_wide((addr - seg.start) as usize, len as usize))
    }

    /// Sandboxed store of `len <= 8` bytes. Returns `false` (a fault) if
    /// any byte is outside the sandbox; the store is discarded.
    pub fn store(&mut self, addr: u64, value: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let Some(i) = self.find_seg(addr) else {
            return false;
        };
        let seg = &mut self.segs[i];
        match addr.checked_add(len) {
            Some(end) if end <= seg.end() => {
                seg.set_wide((addr - seg.start) as usize, value, len as usize);
                true
            }
            _ => false,
        }
    }

    /// Whether `other` has the identical segment layout (same starts and
    /// lengths; contents may differ). Sandboxed execution never changes a
    /// layout, so images that start out layout-equal stay that way.
    pub(crate) fn same_layout(&self, other: &Memory) -> bool {
        self.segs.len() == other.segs.len()
            && self
                .segs
                .iter()
                .zip(&other.segs)
                .all(|(a, b)| a.start == b.start && a.data.len() == b.data.len())
    }

    /// Resolve a `len`-byte access (`1..=8`) at `addr` to a `(segment,
    /// byte offset)` pair, or `None` if the access faults — exactly when
    /// [`load`](Memory::load) and [`store`](Memory::store) fault. Because
    /// resolution depends only on the address and the segment *layout*, a
    /// resolved pair is valid for every memory image with the same layout:
    /// the batched engine resolves once per distinct address and reuses
    /// the result across columns ([`read_at`](Memory::read_at) /
    /// [`write_at`](Memory::write_at)).
    #[inline]
    pub(crate) fn resolve(&self, addr: u64, len: u64) -> Option<(u32, u32)> {
        let i = self.find_seg(addr)?;
        let seg = &self.segs[i];
        if addr.checked_add(len)? > seg.end() {
            return None;
        }
        Some((i as u32, (addr - seg.start) as u32))
    }

    /// Read `len` bytes at a location resolved by
    /// [`resolve`](Memory::resolve) for the same length against an
    /// identically-laid-out image.
    #[inline]
    pub(crate) fn read_at(&self, si: u32, j: u32, len: u64) -> u64 {
        self.segs[si as usize].get_wide(j as usize, len as usize)
    }

    /// Write `len` bytes at a location resolved by
    /// [`resolve`](Memory::resolve) for the same length against an
    /// identically-laid-out image.
    #[inline]
    pub(crate) fn write_at(&mut self, si: u32, j: u32, value: u64, len: u64) {
        self.segs[si as usize].set_wide(j as usize, value, len as usize);
    }

    /// Copy the bytes and written bits of the address range `[lo, hi)`
    /// from `other` into `self`. Both images must have identical segment
    /// layout (the batched engine's scratch reload calls this on a copy
    /// of `other` whose only divergence is sandboxed stores, which never
    /// change the layout). Orphan bytes are untouched — no store can
    /// reach them.
    pub(crate) fn copy_range_from(&mut self, other: &Memory, lo: u64, hi: u64) {
        debug_assert_eq!(self.segs.len(), other.segs.len(), "layouts must match");
        for (seg, oseg) in self.segs.iter_mut().zip(&other.segs) {
            debug_assert_eq!(seg.start, oseg.start, "layouts must match");
            debug_assert_eq!(seg.data.len(), oseg.data.len(), "layouts must match");
            let a = lo.clamp(seg.start, seg.end());
            let b = hi.clamp(seg.start, seg.end());
            if a >= b {
                continue;
            }
            let (i, j) = ((a - seg.start) as usize, (b - seg.start) as usize);
            seg.data[i..j].copy_from_slice(&oseg.data[i..j]);
            // Splice the written bits of [i, j): whole words in the middle,
            // masked edges.
            for w in i / 64..=(j - 1) / 64 {
                let lo_bit = if w == i / 64 { i % 64 } else { 0 };
                let hi_bit = if w == (j - 1) / 64 {
                    (j - 1) % 64 + 1
                } else {
                    64
                };
                let mask = if hi_bit - lo_bit == 64 {
                    u64::MAX
                } else {
                    ((1u64 << (hi_bit - lo_bit)) - 1) << lo_bit
                };
                seg.written[w] = (seg.written[w] & !mask) | (oseg.written[w] & mask);
            }
        }
    }

    /// Sandboxed 128-bit load.
    pub fn load128(&self, addr: u64) -> Option<XmmValue> {
        if !self.is_valid(addr, 16) {
            return None;
        }
        Some([
            self.peek_wide(addr, 8),
            self.peek_wide(addr.wrapping_add(8), 8),
        ])
    }

    /// Sandboxed 128-bit store.
    pub fn store128(&mut self, addr: u64, value: XmmValue) -> bool {
        if !self.is_valid(addr, 16) {
            return false;
        }
        self.store(addr, value[0], 8);
        self.store(addr.wrapping_add(8), value[1], 8);
        true
    }

    /// Iterate over all written (address, byte) pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        // Segments are sorted and disjoint, and orphan addresses (only
        // reachable past the end of the address space) can never fall
        // inside a segment, so a two-stream merge stays address-ordered.
        let mut from_segs = self
            .segs
            .iter()
            .flat_map(|s| {
                // Walk set bits of the written-bitset so sparsely-written
                // segments cost one check per 64 bytes, not one per byte.
                s.written.iter().enumerate().flat_map(move |(w, word)| {
                    let mut word = *word;
                    std::iter::from_fn(move || {
                        if word == 0 {
                            return None;
                        }
                        let bit = word.trailing_zeros() as usize;
                        word &= word - 1;
                        let i = w * 64 + bit;
                        Some((s.start + i as u64, s.data[i]))
                    })
                })
            })
            .peekable();
        let mut from_orphans = self.orphans.iter().map(|(a, b)| (*a, *b)).peekable();
        std::iter::from_fn(move || match (from_segs.peek(), from_orphans.peek()) {
            (Some(a), Some(b)) if a.0 <= b.0 => from_segs.next(),
            (Some(_), Some(_)) => from_orphans.next(),
            (Some(_), None) => from_segs.next(),
            (None, _) => from_orphans.next(),
        })
    }

    /// The number of differing bits between the byte images of `self` and
    /// `other`, skipping addresses inside `exclude = (start, len)`, where
    /// a byte neither image wrote reads as zero — i.e. the Hamming
    /// distance the cost function's memory term (Equation 8) sums
    /// byte-by-byte.
    ///
    /// Returns `None` unless both images have the identical sandbox
    /// layout; two states produced by executing (any) programs against
    /// the same test-case input always do, since sandboxed execution
    /// never changes the layout. In that case the per-address comparison
    /// collapses to a word-wide XOR-popcount over the dense segment
    /// arrays (unwritten bytes hold zero by construction), which is what
    /// makes the memory term cheap enough for the evaluation hot path.
    pub fn diff_bits(&self, other: &Memory, exclude: Option<(u64, u64)>) -> Option<u64> {
        if self.segs.len() != other.segs.len()
            || self
                .segs
                .iter()
                .zip(&other.segs)
                .any(|(a, b)| a.start != b.start || a.data.len() != b.data.len())
            || self.orphans != other.orphans
        {
            return None;
        }
        fn xor_popcount(a: &[u8], b: &[u8]) -> u64 {
            let mut wa = a.chunks_exact(8);
            let mut wb = b.chunks_exact(8);
            let mut total: u64 = wa
                .by_ref()
                .zip(wb.by_ref())
                .map(|(x, y)| {
                    let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
                    let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
                    u64::from((x ^ y).count_ones())
                })
                .sum();
            total += wa
                .remainder()
                .iter()
                .zip(wb.remainder())
                .map(|(x, y)| u64::from((x ^ y).count_ones()))
                .sum::<u64>();
            total
        }
        let mut total = 0u64;
        for (a, b) in self.segs.iter().zip(&other.segs) {
            // Clamp the excluded address range to in-segment byte indices.
            let (x0, x1) = match exclude {
                Some((start, len)) => {
                    let lo = start.clamp(a.start, a.end());
                    let hi = start.saturating_add(len).clamp(a.start, a.end());
                    ((lo - a.start) as usize, (hi - a.start) as usize)
                }
                None => (0, 0),
            };
            total += xor_popcount(&a.data[..x0], &b.data[..x0]);
            total += xor_popcount(&a.data[x1.max(x0)..], &b.data[x1.max(x0)..]);
        }
        Some(total)
    }

    /// Replace this image with a copy of `other`, reusing the existing
    /// allocations where possible (the batched engine reloads one scratch
    /// image per test-case column on every evaluation, and sandbox layouts
    /// are identical across reloads, so the per-segment `clone_from`s
    /// reduce to flat copies with no allocator traffic).
    pub(crate) fn copy_from(&mut self, other: &Memory) {
        self.segs.truncate(other.segs.len());
        for (dst, src) in self.segs.iter_mut().zip(&other.segs) {
            dst.start = src.start;
            dst.data.clone_from(&src.data);
            dst.written.clone_from(&src.written);
        }
        for src in &other.segs[self.segs.len()..] {
            self.segs.push(src.clone());
        }
        self.orphans.clone_from(&other.orphans);
    }
}

/// The x86-64 register merge rule shared by [`MachineState::write_reg`]
/// and the batched engine's column writes: 64-bit writes replace the
/// register, 32-bit writes zero the upper half, 16- and 8-bit writes
/// preserve the untouched bits.
pub(crate) fn merge_reg_write(old: u64, width: Width, value: u64) -> u64 {
    match width {
        Width::Q => value,
        Width::L => value & 0xffff_ffff,
        Width::W => (old & !0xffff) | (value & 0xffff),
        Width::B => (old & !0xff) | (value & 0xff),
    }
}

/// A complete machine state: the object test cases are made of and the
/// object the cost function compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    // Crate-visible so the batched engine (`crate::batch`) can scatter
    // and gather whole states column-wise without going through the
    // per-register accessors; external code uses the accessors below.
    pub(crate) gprs: [u64; 16],
    pub(crate) xmms: [XmmValue; 16],
    pub(crate) flags: [bool; 5],
    pub(crate) gpr_defined: [bool; 16],
    pub(crate) xmm_defined: [bool; 16],
    pub(crate) flag_defined: [bool; 5],
    /// The sandboxed memory image.
    pub memory: Memory,
}

impl Default for MachineState {
    fn default() -> Self {
        MachineState::new()
    }
}

impl MachineState {
    /// A machine state with all registers zero and *undefined*, and an
    /// empty memory image.
    pub fn new() -> MachineState {
        MachineState {
            gprs: [0; 16],
            xmms: [[0, 0]; 16],
            flags: [false; 5],
            gpr_defined: [false; 16],
            xmm_defined: [false; 16],
            flag_defined: [false; 5],
            memory: Memory::new(),
        }
    }

    /// Read a register view (the value is masked to the view's width).
    pub fn read_reg(&self, r: Reg) -> u64 {
        r.width().truncate(self.gprs[r.parent().index()])
    }

    /// Read the full 64-bit value of an architectural register.
    pub fn read_gpr64(&self, g: Gpr) -> u64 {
        self.gprs[g.index()]
    }

    /// Write a register view with x86-64 merge semantics: 64-bit writes
    /// replace the register, 32-bit writes zero the upper half, 16- and
    /// 8-bit writes preserve the untouched bits. Marks the register
    /// defined.
    pub fn write_reg(&mut self, r: Reg, value: u64) {
        let idx = r.parent().index();
        self.gprs[idx] = merge_reg_write(self.gprs[idx], r.width(), value);
        self.gpr_defined[idx] = true;
    }

    /// Overwrite the full 64-bit value of a register and mark it defined.
    pub fn set_gpr64(&mut self, g: Gpr, value: u64) {
        self.gprs[g.index()] = value;
        self.gpr_defined[g.index()] = true;
    }

    /// Whether a register has been defined (written, or set as a live
    /// input of the test case).
    pub fn gpr_is_defined(&self, g: Gpr) -> bool {
        self.gpr_defined[g.index()]
    }

    /// Read an SSE register.
    pub fn read_xmm(&self, x: Xmm) -> XmmValue {
        self.xmms[x.index()]
    }

    /// Write an SSE register and mark it defined.
    pub fn write_xmm(&mut self, x: Xmm, value: XmmValue) {
        self.xmms[x.index()] = value;
        self.xmm_defined[x.index()] = true;
    }

    /// Whether an SSE register has been defined.
    pub fn xmm_is_defined(&self, x: Xmm) -> bool {
        self.xmm_defined[x.index()]
    }

    /// Read a status flag.
    pub fn read_flag(&self, f: Flag) -> bool {
        self.flags[f.index()]
    }

    /// Write a status flag and mark it defined.
    pub fn write_flag(&mut self, f: Flag, value: bool) {
        self.flags[f.index()] = value;
        self.flag_defined[f.index()] = true;
    }

    /// Whether a status flag has been defined.
    pub fn flag_is_defined(&self, f: Flag) -> bool {
        self.flag_defined[f.index()]
    }

    /// Mark every register and flag as undefined (used when building the
    /// initial state of a test case: only live inputs are then defined).
    pub fn clear_definedness(&mut self) {
        self.gpr_defined = [false; 16];
        self.xmm_defined = [false; 16];
        self.flag_defined = [false; 5];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_merge_semantics() {
        let mut s = MachineState::new();
        s.set_gpr64(Gpr::Rax, 0x1122_3344_5566_7788);
        // 32-bit write zeroes the upper half.
        s.write_reg(Gpr::Rax.view(Width::L), 0xdead_beef);
        assert_eq!(s.read_gpr64(Gpr::Rax), 0x0000_0000_dead_beef);
        // 8-bit write preserves everything else.
        s.set_gpr64(Gpr::Rdx, 0x1122_3344_5566_7788);
        s.write_reg(Gpr::Rdx.view(Width::B), 0xff);
        assert_eq!(s.read_gpr64(Gpr::Rdx), 0x1122_3344_5566_77ff);
        // 16-bit write preserves the upper 48 bits.
        s.write_reg(Gpr::Rdx.view(Width::W), 0xaaaa);
        assert_eq!(s.read_gpr64(Gpr::Rdx), 0x1122_3344_5566_aaaa);
    }

    #[test]
    fn read_reg_masks_to_width() {
        let mut s = MachineState::new();
        s.set_gpr64(Gpr::Rcx, 0xffff_ffff_ffff_ffff);
        assert_eq!(s.read_reg(Gpr::Rcx.view(Width::B)), 0xff);
        assert_eq!(s.read_reg(Gpr::Rcx.view(Width::L)), 0xffff_ffff);
        assert_eq!(s.read_reg(Gpr::Rcx.view(Width::Q)), u64::MAX);
    }

    #[test]
    fn definedness_tracking() {
        let mut s = MachineState::new();
        assert!(!s.gpr_is_defined(Gpr::Rdi));
        s.set_gpr64(Gpr::Rdi, 3);
        assert!(s.gpr_is_defined(Gpr::Rdi));
        assert!(!s.flag_is_defined(Flag::Cf));
        s.write_flag(Flag::Cf, true);
        assert!(s.flag_is_defined(Flag::Cf));
        s.clear_definedness();
        assert!(!s.gpr_is_defined(Gpr::Rdi));
    }

    #[test]
    fn memory_sandbox_rules() {
        let mut m = Memory::new();
        m.poke_wide(0x1000, 0x0807_0605_0403_0201, 8);
        assert_eq!(m.load(0x1000, 4), Some(0x0403_0201));
        assert_eq!(m.load(0x1004, 4), Some(0x0807_0605));
        // Out-of-sandbox accesses fault.
        assert_eq!(m.load(0x2000, 4), None);
        assert!(!m.store(0x2000, 1, 4));
        // Partially valid ranges fault too.
        assert_eq!(m.load(0x0ffd, 8), None);
        // Stores inside the sandbox succeed.
        assert!(m.store(0x1000, 0xffff_ffff, 4));
        assert_eq!(m.load(0x1000, 8), Some(0x0807_0605_ffff_ffff));
    }

    #[test]
    fn memory_128_bit_access() {
        let mut m = Memory::new();
        m.mark_valid(0x100, 16);
        assert!(m.store128(0x100, [1, 2]));
        assert_eq!(m.load128(0x100), Some([1, 2]));
        assert_eq!(
            m.load128(0x101),
            None,
            "last byte falls outside the sandbox"
        );
    }

    #[test]
    fn unwritten_valid_memory_reads_zero() {
        let mut m = Memory::new();
        m.mark_valid(0x100, 8);
        assert_eq!(m.load(0x100, 8), Some(0));
    }

    #[test]
    fn equal_images_compare_equal_whatever_the_marking_order() {
        let mut a = Memory::new();
        a.mark_valid(0x100, 16);
        a.mark_valid(0x200, 8);
        a.poke_wide(0x104, 0xdead_beef, 4);
        let mut b = Memory::new();
        b.mark_valid(0x200, 8);
        b.mark_valid(0x100, 16);
        b.poke_wide(0x104, 0xdead_beef, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn poke_wide_matches_bytewise_pokes() {
        // The second span runs past the end of the address space, whose
        // last byte no range can validate.
        for addr in [0x1000, u64::MAX - 3] {
            let mut wide = Memory::new();
            wide.poke_wide(addr, 0x0807_0605_0403_0201, 8);
            let mut bytes = Memory::new();
            for i in 0..8 {
                bytes.poke(addr.wrapping_add(i), i as u8 + 1);
            }
            assert_eq!(wide, bytes, "poke_wide at {addr:#x}");
            assert_eq!(
                wide.iter().collect::<Vec<_>>(),
                bytes.iter().collect::<Vec<_>>()
            );
        }
    }
}
