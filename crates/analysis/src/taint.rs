//! Forward secret-taint propagation.
//!
//! The abstract state tracks which locations may hold secret-derived
//! values: a [`LocSet`] of tainted registers and flags plus a single
//! abstract bit for the sandbox memory image (any store of a
//! secret-derived value taints "memory"; any later load then reads
//! taint). The single memory bit is a deliberate over-approximation.
//!
//! What each instruction reads and writes is its [`Access`] recording, so
//! the analysis sees every flow the semantics has: a `cmov`'s kept
//! destination, the flags a multiply writes, the flags a shift by `cl`
//! may keep. The property test at the workspace root checks the result
//! by noninterference: running a program twice with only the secrets
//! changed, every output that differs must be tainted here.
//!
//! Programs are straight-line (STOKE's search space is loop-free), so one
//! pass in program order computes every fact exactly once.

use stoke_x86::flow::{self, Access, LocSet};
use stoke_x86::Instruction;

/// The taint fact at one program point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaintFact {
    /// Registers and flags that may hold secret-derived values.
    pub locs: LocSet,
    /// Whether any memory byte may hold a secret-derived value.
    pub mem: bool,
}

/// Forward taint analysis: which locations may be secret-derived at each
/// program point, starting from the `secrets` live at entry.
///
/// Returns `instrs.len() + 1` facts, entry first: `facts[i]` holds before
/// instruction `i` and the last fact at program exit.
pub fn taint_analysis(instrs: &[&Instruction], secrets: &LocSet) -> Vec<TaintFact> {
    let mut fact = TaintFact {
        locs: secrets.clone(),
        mem: false,
    };
    let mut facts = Vec::with_capacity(instrs.len() + 1);
    for instr in instrs {
        let access = Access::of(instr);
        // Whether any old value the results may carry is tainted.
        let tainted = !flow::is_zeroing_idiom(instr)
            && (access.uses().intersects(&fact.locs) || (access.loads && fact.mem));
        facts.push(fact.clone());
        // Killed locations take the instruction's taint; merged ones keep
        // their old taint in the bits the write may leave.
        fact.locs = &fact.locs - &access.kills;
        if tainted {
            fact.locs = &fact.locs | &access.writes();
        }
        // Weak update: the abstract memory bit never clears.
        fact.mem |= access.stores && tainted;
    }
    facts.push(fact);
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoke_x86::{Flag, Gpr, Program};

    fn analyze(text: &str, secrets: &[Gpr]) -> TaintFact {
        let p: Program = text.parse().unwrap();
        let instrs: Vec<&Instruction> = p.iter().collect();
        let mut facts = taint_analysis(&instrs, &LocSet::from_gprs(secrets.iter().copied()));
        assert_eq!(facts.len(), instrs.len() + 1, "one fact per program point");
        facts.pop().expect("exit fact")
    }

    #[test]
    fn taint_propagates_through_arithmetic() {
        let t = analyze("movq rdi, rax\naddq rsi, rax", &[Gpr::Rdi]);
        assert!(t.locs.gprs.contains(&Gpr::Rax));
        assert!(t.locs.flags.contains(&Flag::Cf), "flags of add are tainted");
        assert!(!t.locs.gprs.contains(&Gpr::Rsi));
    }

    #[test]
    fn overwrite_with_public_clears_taint() {
        let t = analyze("movq rdi, rax\nmovq rsi, rax", &[Gpr::Rdi]);
        assert!(!t.locs.gprs.contains(&Gpr::Rax));
    }

    #[test]
    fn zeroing_idiom_launders_taint() {
        let t = analyze("movq rdi, rax\nxorq rax, rax", &[Gpr::Rdi]);
        assert!(!t.locs.gprs.contains(&Gpr::Rax));
        assert!(!t.locs.flags.contains(&Flag::Zf));
    }

    #[test]
    fn memory_round_trip_carries_taint() {
        let t = analyze("movq rdi, (rsp)\nmovq (rsp), rax", &[Gpr::Rdi]);
        assert!(t.mem);
        assert!(t.locs.gprs.contains(&Gpr::Rax));
        // Public stores do not clear the abstract bit.
        let t = analyze(
            "movq rdi, (rsp)\nmovq rsi, (rsp)\nmovq (rsp), rax",
            &[Gpr::Rdi],
        );
        assert!(t.locs.gprs.contains(&Gpr::Rax), "weak update: taint stays");
    }

    #[test]
    fn taint_through_flags_into_cmov() {
        let t = analyze("testq 1, rdi\ncmovneq rsi, rax", &[Gpr::Rdi]);
        assert!(t.locs.gprs.contains(&Gpr::Rax));
    }

    #[test]
    fn narrow_write_keeps_old_taint() {
        // sete only writes dl; the tainted upper bits of rdx survive.
        let t = analyze("movq rdi, rdx\ncmpq rsi, rsi\nsete dl", &[Gpr::Rdi]);
        assert!(t.locs.gprs.contains(&Gpr::Rdx));
    }

    #[test]
    fn register_flow_is_tracked() {
        let t = analyze("movq rdi, rax\naddq rsi, rax\nmovq rsi, rdi", &[Gpr::Rdi]);
        assert!(t.locs.gprs.contains(&Gpr::Rax));
        assert!(
            t.locs.flags.contains(&Flag::Zf),
            "add's flags are secret-derived"
        );
        assert!(
            !t.locs.gprs.contains(&Gpr::Rdi),
            "overwritten with a public value"
        );
    }

    #[test]
    fn zeroing_idiom_clears() {
        let t = analyze("movq rdi, rax\nsubq rax, rax", &[Gpr::Rdi]);
        assert!(!t.locs.gprs.contains(&Gpr::Rax));
        assert!(!t.locs.flags.contains(&Flag::Zf));
        // A narrow idiom zeroes only the low byte: the rest keeps its taint.
        let t = analyze("movq rdi, rax\nxorb al, al", &[Gpr::Rdi]);
        assert!(t.locs.gprs.contains(&Gpr::Rax));
    }

    #[test]
    fn push_pop_round_trip() {
        let t = analyze("pushq rdi\npopq rax", &[Gpr::Rdi]);
        assert!(t.mem);
        assert!(t.locs.gprs.contains(&Gpr::Rax));
        // The per-instruction rule taints every output once any input is
        // tainted, so push's rsp update is (over-)tainted too.
        assert!(t.locs.gprs.contains(&Gpr::Rsp));
    }

    #[test]
    fn narrow_write_merges() {
        // A public byte write leaves the secret upper bits tainted; a
        // secret one taints the whole register.
        let t = analyze("movq rdi, rdx\nmovb 1, dl", &[Gpr::Rdi]);
        assert!(t.locs.gprs.contains(&Gpr::Rdx));
        let t = analyze("movq rsi, rdx\ntestq rdi, rdi\nsete dl", &[Gpr::Rdi]);
        assert!(t.locs.gprs.contains(&Gpr::Rdx));
        let t = analyze("movq rsi, rdx\ntestq rsi, rsi\nsete dl", &[Gpr::Rdi]);
        assert!(!t.locs.gprs.contains(&Gpr::Rdx));
    }

    #[test]
    fn read_modify_write_of_memory_reads_before_it_stores() {
        let t = analyze(
            "movq rdi, -8(rsp)\naddq rsi, -8(rsp)\nmovq -8(rsp), rax",
            &[Gpr::Rdi],
        );
        assert!(t.mem);
        assert!(
            t.locs.gprs.contains(&Gpr::Rax),
            "the stored sum carries the secret"
        );
        let t = analyze("movq rsi, -8(rsp)\naddq rsi, -8(rsp)", &[Gpr::Rdi]);
        assert!(!t.mem, "public bytes stay public");
    }

    #[test]
    fn xchg_exchanges_register_taint() {
        let t = analyze("xchgq rdi, rax", &[Gpr::Rdi]);
        assert!(t.locs.gprs.contains(&Gpr::Rax));
        // Both outputs of the step are tainted once an input is.
        assert!(t.locs.gprs.contains(&Gpr::Rdi));
        let t = analyze("xchgq rsi, rax", &[Gpr::Rdi]);
        assert!(!t.locs.gprs.contains(&Gpr::Rax) && !t.locs.gprs.contains(&Gpr::Rsi));
    }

    #[test]
    fn a_multiply_taints_the_zero_flag() {
        let t = analyze("imulq rdi, rax\nsete cl", &[Gpr::Rdi]);
        assert!(t.locs.flags.contains(&Flag::Zf));
        assert!(t.locs.gprs.contains(&Gpr::Rcx));
    }

    #[test]
    fn a_cmov_keeps_a_secret_destination() {
        let t = analyze("cmpq rsi, rdx\ncmoveq rsi, rax", &[Gpr::Rax]);
        assert!(t.locs.gprs.contains(&Gpr::Rax));
        let t = analyze("bsfq rdi, rax", &[Gpr::Rax]);
        assert!(t.locs.gprs.contains(&Gpr::Rax));
    }

    #[test]
    fn a_shift_by_cl_may_keep_secret_flags() {
        let t = analyze("testq rdi, rdi\nshlq cl, rax", &[Gpr::Rdi]);
        assert!(t.locs.flags.contains(&Flag::Zf));
        let t = analyze("testq rdi, rdi\nshlq 3, rax", &[Gpr::Rdi]);
        assert!(!t.locs.flags.contains(&Flag::Zf));
    }
}
