//! Symbolic machine state: every register, flag and memory location holds
//! a bit-vector term rather than a concrete value.

use std::collections::HashMap;
use stoke_solver::{TermId, TermPool};
use stoke_x86::{Flag, Gpr, Reg, Width, Xmm};

/// A symbolic 128-bit SSE value, stored as (low, high) 64-bit terms.
pub type SymXmm = (TermId, TermId);

/// The symbolic memory model.
///
/// Following §5.2 of the paper, stack addresses (constant offsets from
/// `rsp`) are treated as *named locations*, which keeps the expensive
/// part of the memory theory away from the common case of `llvm -O0`
/// stack traffic. The validator does so only for program pairs whose
/// stack accesses make the model sound: scalar, non-overlapping
/// `disp(rsp)` accesses, no write to `rsp` and no other use of it (see
/// [`stack_slots_sound`](crate::equiv::stack_slots_sound)). All other
/// accesses go through a byte-granular write-history: a load is lowered
/// to an if-then-else chain over all previous stores (most recent first),
/// falling back to an uninterpreted "initial memory" byte.
#[derive(Debug, Clone)]
pub struct SymMemory {
    /// Named stack slots, keyed by displacement from the initial rsp.
    stack: HashMap<i64, TermId>,
    /// Byte-granular write history for non-stack memory: (address, byte).
    writes: Vec<(TermId, TermId)>,
    /// Tag distinguishing the two programs' initial-memory functions must
    /// NOT differ, so both use the same UF id.
    prefix: String,
}

/// The uninterpreted-function identifier used for initial memory bytes.
pub const UF_MEM_INIT: u32 = 1000;
/// Base identifier for uninterpreted multiplication/division functions.
pub const UF_MULLO64: u32 = 1001;
/// High half of an unsigned 64-bit widening multiply.
pub const UF_MULHI_U64: u32 = 1002;
/// High half of a signed 64-bit widening multiply.
pub const UF_MULHI_S64: u32 = 1003;
/// Unsigned division (quotient).
pub const UF_DIV_QUOT: u32 = 1004;
/// Unsigned division (remainder).
pub const UF_DIV_REM: u32 = 1005;
/// Signed division (quotient).
pub const UF_IDIV_QUOT: u32 = 1006;
/// Signed division (remainder).
pub const UF_IDIV_REM: u32 = 1007;

impl SymMemory {
    /// An empty memory with no recorded writes.
    pub fn new(prefix: impl Into<String>) -> SymMemory {
        SymMemory {
            stack: HashMap::new(),
            writes: Vec::new(),
            prefix: prefix.into(),
        }
    }

    /// Read one byte at a symbolic address.
    pub fn load_byte(&self, pool: &mut TermPool, addr: TermId) -> TermId {
        // Fallback: the initial contents of memory at `addr`.
        let mut value = pool.uf(UF_MEM_INIT, vec![addr], 8);
        // Apply the write history oldest-to-newest so the newest wins.
        for (waddr, wbyte) in &self.writes {
            let same = pool.eq(addr, *waddr);
            value = pool.ite(same, *wbyte, value);
        }
        value
    }

    /// Write one byte at a symbolic address.
    pub fn store_byte(&mut self, addr: TermId, byte: TermId) {
        self.writes.push((addr, byte));
    }

    /// Read `bytes` bytes little-endian at a symbolic address, producing a
    /// term of width `8 * bytes` (at most 8 bytes).
    pub fn load(&self, pool: &mut TermPool, addr: TermId, bytes: u64) -> TermId {
        assert!((1..=8).contains(&bytes));
        let mut acc: Option<TermId> = None;
        for i in 0..bytes {
            let off = pool.constant(64, i);
            let a = pool.add(addr, off);
            let byte = self.load_byte(pool, a);
            acc = Some(match acc {
                None => byte,
                Some(lower) => pool.concat(byte, lower),
            });
        }
        acc.expect("at least one byte")
    }

    /// Store a term of width `8 * bytes` little-endian at a symbolic
    /// address.
    pub fn store(&mut self, pool: &mut TermPool, addr: TermId, value: TermId, bytes: u64) {
        assert!((1..=8).contains(&bytes));
        for i in 0..bytes {
            let off = pool.constant(64, i);
            let a = pool.add(addr, off);
            let byte = pool.extract((8 * i + 7) as u32, (8 * i) as u32, value);
            self.store_byte(a, byte);
        }
    }

    /// Read a named stack slot (8 bytes wide) at the given displacement
    /// from the initial stack pointer. Unwritten slots read as a fresh
    /// symbolic initial value shared between target and rewrite.
    pub fn load_stack(&mut self, pool: &mut TermPool, disp: i64) -> TermId {
        if let Some(t) = self.stack.get(&disp) {
            return *t;
        }
        let t = pool.var(64, format!("stack_init_{}", disp));
        self.stack.insert(disp, t);
        t
    }

    /// Write a named stack slot.
    pub fn store_stack(&mut self, disp: i64, value: TermId) {
        self.stack.insert(disp, value);
    }

    /// The set of (address, byte) pairs written through the general
    /// (non-stack) memory path.
    pub fn writes(&self) -> &[(TermId, TermId)] {
        &self.writes
    }

    /// The named stack slots and their final values.
    pub fn stack_slots(&self) -> impl Iterator<Item = (i64, TermId)> + '_ {
        self.stack.iter().map(|(d, t)| (*d, *t))
    }

    /// The prefix used when naming auxiliary variables.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }
}

/// A full symbolic machine state.
#[derive(Debug, Clone)]
pub struct SymState {
    gprs: [TermId; 16],
    xmms: [SymXmm; 16],
    flags: [TermId; 5],
    /// The symbolic memory.
    pub memory: SymMemory,
}

impl SymState {
    /// An initial state whose registers and flags are fresh variables
    /// named `in_<reg>` / `in_<flag>`. Both the target and the rewrite
    /// are executed from states built this way, so the shared variable
    /// names make their inputs identical.
    pub fn initial(pool: &mut TermPool, prefix: impl Into<String>) -> SymState {
        let prefix = prefix.into();
        let gprs =
            std::array::from_fn(|i| pool.var(64, format!("in_{}", Gpr::from_index(i).name64())));
        let xmms = std::array::from_fn(|i| {
            (
                pool.var(64, format!("in_xmm{}_lo", i)),
                pool.var(64, format!("in_xmm{}_hi", i)),
            )
        });
        let flags = std::array::from_fn(|i| pool.var(1, format!("in_{}", Flag::ALL[i].name())));
        SymState {
            gprs,
            xmms,
            flags,
            memory: SymMemory::new(prefix),
        }
    }

    /// Read a register view as a term of the view's width.
    pub fn read_reg(&self, pool: &mut TermPool, r: Reg) -> TermId {
        let full = self.gprs[r.parent().index()];
        match r.width() {
            Width::Q => full,
            w => pool.extract(w.bits() - 1, 0, full),
        }
    }

    /// Read the full 64-bit term of a register.
    pub fn read_gpr64(&self, g: Gpr) -> TermId {
        self.gprs[g.index()]
    }

    /// Write a register view with the same merge semantics as the
    /// concrete emulator.
    pub fn write_reg(&mut self, pool: &mut TermPool, r: Reg, value: TermId) {
        let idx = r.parent().index();
        let old = self.gprs[idx];
        let new = match r.width() {
            Width::Q => value,
            Width::L => {
                let v32 = Self::coerce(pool, value, 32);
                pool.zero_ext(64, v32)
            }
            Width::W => {
                let v16 = Self::coerce(pool, value, 16);
                let hi = pool.extract(63, 16, old);
                pool.concat(hi, v16)
            }
            Width::B => {
                let v8 = Self::coerce(pool, value, 8);
                let hi = pool.extract(63, 8, old);
                pool.concat(hi, v8)
            }
        };
        self.gprs[idx] = new;
    }

    /// Overwrite the full 64-bit term of a register.
    pub fn set_gpr64(&mut self, g: Gpr, value: TermId) {
        self.gprs[g.index()] = value;
    }

    fn coerce(pool: &mut TermPool, value: TermId, width: u32) -> TermId {
        let w = pool.width(value);
        if w == width {
            value
        } else if w > width {
            pool.extract(width - 1, 0, value)
        } else {
            pool.zero_ext(width, value)
        }
    }

    /// Read an SSE register.
    pub fn read_xmm(&self, x: Xmm) -> SymXmm {
        self.xmms[x.index()]
    }

    /// Write an SSE register.
    pub fn write_xmm(&mut self, x: Xmm, value: SymXmm) {
        self.xmms[x.index()] = value;
    }

    /// Read a flag (1-bit term).
    pub fn read_flag(&self, f: Flag) -> TermId {
        self.flags[f.index()]
    }

    /// Write a flag (1-bit term).
    pub fn write_flag(&mut self, f: Flag, value: TermId) {
        self.flags[f.index()] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_shares_input_variables() {
        let mut pool = TermPool::new();
        let a = SymState::initial(&mut pool, "t");
        let b = SymState::initial(&mut pool, "r");
        // Same variable names => same terms: target and rewrite see the
        // same inputs.
        assert_eq!(a.read_gpr64(Gpr::Rdi), b.read_gpr64(Gpr::Rdi));
        assert_eq!(a.read_flag(Flag::Cf), b.read_flag(Flag::Cf));
    }

    #[test]
    fn register_write_merge_semantics() {
        let mut pool = TermPool::new();
        let mut s = SymState::initial(&mut pool, "t");
        let c = pool.constant(32, 0xdead_beef);
        s.write_reg(&mut pool, Gpr::Rax.view(Width::L), c);
        // Evaluating the 64-bit rax term with arbitrary inputs gives the
        // zero-extended value.
        let mut env = std::collections::HashMap::new();
        env.insert("in_rax".to_string(), 0xffff_ffff_0000_0000u64);
        assert_eq!(pool.eval(s.read_gpr64(Gpr::Rax), &env), 0xdead_beef);

        let c8 = pool.constant(8, 0xaa);
        s.write_reg(&mut pool, Gpr::Rax.view(Width::B), c8);
        assert_eq!(pool.eval(s.read_gpr64(Gpr::Rax), &env), 0xdead_beaa);
    }

    #[test]
    fn stack_slots_are_named_locations() {
        let mut pool = TermPool::new();
        let mut m = SymMemory::new("t");
        let v = pool.constant(64, 42);
        m.store_stack(-8, v);
        assert_eq!(m.load_stack(&mut pool, -8), v);
        // A different slot is independent and initially symbolic.
        let other = m.load_stack(&mut pool, -16);
        assert_ne!(other, v);
    }

    #[test]
    fn memory_read_over_write() {
        let mut pool = TermPool::new();
        let mut m = SymMemory::new("t");
        let addr = pool.var(64, "a");
        let val = pool.constant(32, 0x0403_0201);
        m.store(&mut pool, addr, val, 4);
        let back = m.load(&mut pool, addr, 4);
        // Evaluate: the load must return the stored value regardless of the
        // initial memory contents (the UF fallback never fires because the
        // addresses match syntactically after constant folding).
        let mut env = std::collections::HashMap::new();
        env.insert("a".to_string(), 0x1000u64);
        assert_eq!(pool.eval(back, &env), 0x0403_0201);
    }
}
