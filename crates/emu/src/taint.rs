//! A dynamic taint oracle: shadow-propagation of secret bits alongside
//! concrete execution.
//!
//! This is the ground truth the static taint analysis in `stoke-analysis`
//! is tested against: for one concrete input, every location the oracle
//! marks tainted at exit must also be tainted in the static exit fact
//! (the static analysis over-approximates every dynamic flow). Unlike the
//! static side, the oracle tracks tainted memory *per byte*, so it is
//! strictly more precise on stores and loads.
//!
//! The propagation rule mirrors the static transfer function: an
//! instruction's results are tainted iff any value it reads (registers,
//! flags, loaded bytes) is tainted, with the `xor r, r` / `sub r, r`
//! zeroing idiom ([`stoke_x86::flow::is_zeroing_idiom`]) treated as
//! taint-free because its result is a constant. The memory bytes an
//! instruction reads and writes are the spans the interpreter's memory
//! hooks touched while running it.

use std::collections::BTreeSet;

use crate::exec::{Accesses, Emulator, Outcome};
use crate::state::MachineState;
use stoke_x86::flow::{self, LocSet};
use stoke_x86::{Flag, Gpr, Instruction, Width, Xmm};

/// Shadow taint bits for every architectural location plus tainted memory
/// bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaintState {
    gprs: [bool; 16],
    xmms: [bool; 16],
    flags: [bool; 5],
    mem: BTreeSet<u64>,
}

impl TaintState {
    /// A taint state with exactly the given locations marked secret.
    pub fn new(secrets: &LocSet) -> TaintState {
        let mut t = TaintState::default();
        for g in &secrets.gprs {
            t.gprs[g.index()] = true;
        }
        for x in &secrets.xmms {
            t.xmms[x.0 as usize] = true;
        }
        for f in &secrets.flags {
            t.flags[*f as usize] = true;
        }
        t
    }

    /// Whether the full 64-bit register may hold a secret-derived value.
    pub fn gpr(&self, g: Gpr) -> bool {
        self.gprs[g.index()]
    }

    /// Whether the SSE register may hold a secret-derived value.
    pub fn xmm(&self, x: Xmm) -> bool {
        self.xmms[x.0 as usize]
    }

    /// Whether the status flag may hold a secret-derived value.
    pub fn flag(&self, f: Flag) -> bool {
        self.flags[f as usize]
    }

    /// The addresses of memory bytes holding secret-derived values.
    pub fn mem(&self) -> &BTreeSet<u64> {
        &self.mem
    }

    /// The tainted registers and flags as a [`LocSet`] (memory excluded).
    pub fn tainted_locs(&self) -> LocSet {
        let mut out = LocSet::new();
        for (i, tainted) in self.gprs.iter().enumerate() {
            if *tainted {
                out.gprs.insert(Gpr::from_index(i));
            }
        }
        for (i, tainted) in self.xmms.iter().enumerate() {
            if *tainted {
                out.xmms.insert(Xmm(i as u8));
            }
        }
        for f in Flag::ALL {
            if self.flags[f as usize] {
                out.flags.insert(f);
            }
        }
        out
    }

    fn any_mem_byte(&self, addr: u64, len: u64) -> bool {
        (0..len).any(|i| self.mem.contains(&addr.wrapping_add(i)))
    }

    fn set_mem_bytes(&mut self, addr: u64, len: u64, tainted: bool) {
        for i in 0..len {
            let a = addr.wrapping_add(i);
            if tainted {
                self.mem.insert(a);
            } else {
                self.mem.remove(&a);
            }
        }
    }
}

/// Run `instrs` from `input`, shadow-propagating taint from the `secrets`
/// entry locations. Returns the concrete [`Outcome`] (bit-identical to
/// [`run_instrs`](crate::run_instrs)) and the final taint state.
///
/// The memory spans an instruction reads and writes are the ones the
/// interpreter's memory hooks touched while executing it (push and pop
/// included), so the oracle needs no address rules of its own.
pub fn run_tainted<'a>(
    instrs: impl IntoIterator<Item = &'a Instruction>,
    input: &MachineState,
    secrets: &LocSet,
) -> (Outcome, TaintState) {
    let mut emu = Emulator::start(input);
    emu.accesses = Some(Accesses::default());
    let mut taint = TaintState::new(secrets);
    for instr in instrs {
        emu.step(instr);
        let spans = emu.accesses.as_mut().expect("accesses are recorded");
        // Taint of the instruction's inputs, against the pre-instruction
        // taint state.
        let tainted = !flow::is_zeroing_idiom(instr)
            && (instr.gpr_uses().iter().any(|r| taint.gpr(r.parent()))
                || instr.xmm_uses().iter().any(|x| taint.xmm(*x))
                || instr.flag_uses().iter().any(|f| taint.flag(*f))
                || spans.loads.iter().any(|&(a, n)| taint.any_mem_byte(a, n)));
        // Propagate to the outputs. Narrow (8/16-bit) register writes
        // merge into the parent, so old taint survives there; everything
        // else is a strong update. Stores update bytes strongly too —
        // even when the concrete store faulted and was discarded, which
        // only ever *adds* dynamic taint and so preserves the
        // "dynamic is under static" invariant the property test checks.
        for r in instr.gpr_defs() {
            let g = r.parent();
            match r.width() {
                Width::B | Width::W => taint.gprs[g.index()] |= tainted,
                _ => taint.gprs[g.index()] = tainted,
            }
        }
        for x in instr.xmm_defs() {
            taint.xmms[x.0 as usize] = tainted;
        }
        for f in instr.flag_defs() {
            taint.flags[*f as usize] = tainted;
        }
        for &(addr, len) in &spans.stores {
            taint.set_mem_bytes(addr, len, tainted);
        }
        spans.loads.clear();
        spans.stores.clear();
    }
    (emu.finish(), taint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoke_x86::Program;

    fn run(text: &str, secrets: &[Gpr]) -> (Outcome, TaintState) {
        let p: Program = text.parse().unwrap();
        let mut input = MachineState::new();
        for (i, g) in [Gpr::Rdi, Gpr::Rsi, Gpr::Rcx].into_iter().enumerate() {
            input.set_gpr64(g, 0x10 + i as u64);
        }
        input.set_gpr64(Gpr::Rsp, 0x8000);
        input.memory.mark_valid(0x7f00, 0x200);
        run_tainted(
            p.iter(),
            &input,
            &LocSet::from_gprs(secrets.iter().copied()),
        )
    }

    #[test]
    fn register_flow_is_tracked() {
        let (_, t) = run("movq rdi, rax\naddq rsi, rax\nmovq rsi, rdi", &[Gpr::Rdi]);
        assert!(t.gpr(Gpr::Rax));
        assert!(t.flag(Flag::Zf), "add's flags are secret-derived");
        assert!(!t.gpr(Gpr::Rdi), "overwritten with a public value");
    }

    #[test]
    fn zeroing_idiom_clears() {
        let (_, t) = run("movq rdi, rax\nxorq rax, rax", &[Gpr::Rdi]);
        assert!(!t.gpr(Gpr::Rax));
        assert!(!t.flag(Flag::Zf));
    }

    #[test]
    fn memory_bytes_are_tracked_precisely() {
        let (out, t) = run("movq rdi, -8(rsp)\nmovq rsi, -16(rsp)", &[Gpr::Rdi]);
        assert!(out.faults.is_clean());
        assert!(t.any_mem_byte(0x8000 - 8, 8), "secret store taints bytes");
        assert!(!t.any_mem_byte(0x8000 - 16, 8), "public store stays clean");
        let (_, t) = run(
            "movq rdi, -8(rsp)\nmovq rsi, -8(rsp)\nmovq -8(rsp), rax",
            &[Gpr::Rdi],
        );
        assert!(
            !t.gpr(Gpr::Rax),
            "strong update: public store scrubs the bytes"
        );
    }

    #[test]
    fn push_pop_round_trip() {
        let (out, t) = run("pushq rdi\npopq rax", &[Gpr::Rdi]);
        assert!(out.faults.is_clean());
        assert!(t.gpr(Gpr::Rax));
        // The per-instruction rule taints every output once any input is
        // tainted, so push's rsp update is (over-)tainted too — exactly
        // as in the static analysis.
        assert!(t.gpr(Gpr::Rsp));
    }

    #[test]
    fn narrow_write_merges() {
        let (_, t) = run("movq rdi, rdx\ncmpq rsi, rsi\nsete dl", &[Gpr::Rdi]);
        assert!(t.gpr(Gpr::Rdx), "old taint survives a byte write");
        let locs = t.tainted_locs();
        assert!(locs.gprs.contains(&Gpr::Rdx));
    }

    #[test]
    fn outcome_matches_untainted_run() {
        let text = "movq rdi, rax\nimulq rsi, rax\npushq rax\npopq rdx";
        let p: Program = text.parse().unwrap();
        let mut input = MachineState::new();
        input.set_gpr64(Gpr::Rdi, 6);
        input.set_gpr64(Gpr::Rsi, 7);
        input.set_gpr64(Gpr::Rsp, 0x8000);
        let (out, _) = run_tainted(p.iter(), &input, &LocSet::new());
        let reference = crate::run(&p, &input);
        assert_eq!(out.state, reference.state);
        assert_eq!(out.faults, reference.faults);
    }

    #[test]
    fn secret_128_bit_store_taints_sixteen_bytes() {
        let (out, t) = run("movq rdi, xmm0\nmovdqu xmm0, -32(rsp)", &[Gpr::Rdi]);
        assert!(out.faults.is_clean());
        let base = 0x8000 - 32;
        assert_eq!(
            t.mem().iter().copied().collect::<Vec<_>>(),
            (base..base + 16).collect::<Vec<_>>(),
            "exactly the 16 stored bytes"
        );
        let (_, t) = run("movdqu -32(rsp), xmm1\nmovq xmm1, rax", &[Gpr::Rdi]);
        assert!(!t.gpr(Gpr::Rax), "public 128-bit load");
    }

    #[test]
    fn read_modify_write_of_memory_reads_before_it_stores() {
        // `xchg` takes register operands only in the modelled subset; a
        // memory-destination `add` loads and stores one span in a single
        // step the same way.
        let (out, t) = run(
            "movq rdi, -8(rsp)\naddq rsi, -8(rsp)\nmovq -8(rsp), rax",
            &[Gpr::Rdi],
        );
        assert!(out.faults.is_clean());
        assert!(t.any_mem_byte(0x8000 - 8, 8));
        assert!(t.gpr(Gpr::Rax), "the stored sum carries the secret");
        let (_, t) = run("movq rsi, -8(rsp)\naddq rsi, -8(rsp)", &[Gpr::Rdi]);
        assert!(t.mem().is_empty(), "public bytes stay public");
    }

    #[test]
    fn xchg_exchanges_register_taint() {
        let (_, t) = run("xchgq rdi, rax", &[Gpr::Rdi]);
        assert!(t.gpr(Gpr::Rax));
        // Both outputs of the step are tainted once an input is.
        assert!(t.gpr(Gpr::Rdi));
        let (_, t) = run("xchgq rsi, rax", &[Gpr::Rdi]);
        assert!(!t.gpr(Gpr::Rax) && !t.gpr(Gpr::Rsi));
    }

    #[test]
    fn outcome_counts_undefined_reads_like_the_interpreter() {
        let p: Program = "movq rbx, rax\npushq rdx\npopq rcx".parse().unwrap();
        let mut input = MachineState::new();
        input.set_gpr64(Gpr::Rsp, 0x8000);
        input.memory.mark_valid(0x7f00, 0x200);
        let (out, _) = run_tainted(p.iter(), &input, &LocSet::new());
        let reference = crate::run(&p, &input);
        assert_eq!(out.faults.undef, 2, "rbx and rdx are undefined");
        assert_eq!(out.faults, reference.faults);
        assert_eq!(out.state, reference.state);
    }
}
