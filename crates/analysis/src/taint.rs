//! Forward secret-taint propagation.
//!
//! The abstract state tracks which locations may hold secret-derived
//! values: a [`LocSet`] of tainted registers and flags plus a single
//! abstract bit for the sandbox memory image (any store of a
//! secret-derived value taints "memory"; any later load then reads
//! taint). The single memory bit is a deliberate over-approximation — the
//! emulator's dynamic oracle tracks tainted bytes precisely, and the
//! property test at the workspace root checks this analysis
//! over-approximates every dynamic flow.
//!
//! Programs are straight-line (STOKE's search space is loop-free), so one
//! pass in program order computes every fact exactly once.

use std::collections::BTreeSet;
use stoke_x86::flow::{self, LocSet};
use stoke_x86::Instruction;

/// The taint fact at one program point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaintFact {
    /// Registers and flags that may hold secret-derived values.
    pub locs: LocSet,
    /// Whether any memory byte may hold a secret-derived value.
    pub mem: bool,
}

/// Whether any value the instruction reads is tainted under `fact`.
pub(crate) fn reads_taint(instr: &Instruction, fact: &TaintFact) -> bool {
    if flow::is_zeroing_idiom(instr) {
        return false;
    }
    let uses = flow::uses(instr);
    uses.gprs.iter().any(|g| fact.locs.gprs.contains(g))
        || uses.xmms.iter().any(|x| fact.locs.xmms.contains(x))
        || uses.flags.iter().any(|f| fact.locs.flags.contains(f))
        || (instr.loads() && fact.mem)
}

/// A strong update: every location in `defs` becomes `tainted`.
fn assign<T: Ord + Copy>(set: &mut BTreeSet<T>, defs: &BTreeSet<T>, tainted: bool) {
    for d in defs {
        if tainted {
            set.insert(*d);
        } else {
            set.remove(d);
        }
    }
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
        let tainted = reads_taint(instr, &fact);
        facts.push(fact.clone());
        let (defs, partial_defs) = flow::defs(instr);
        assign(&mut fact.locs.gprs, &defs.gprs, tainted);
        if tainted {
            // Narrow writes merge into the parent register: old taint
            // survives in the preserved bits.
            fact.locs.gprs.extend(&partial_defs.gprs);
        }
        assign(&mut fact.locs.xmms, &defs.xmms, tainted);
        assign(&mut fact.locs.flags, &defs.flags, tainted);
        // Weak update: the abstract memory bit never clears.
        fact.mem |= instr.stores() && tainted;
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
}
