//! Constant-time violations and the Spectector-style relative leakage
//! check.
//!
//! A program is *constant-time* with respect to a set of secret inputs
//! when neither its memory-access addresses nor the latency of any
//! instruction it executes depends on a secret. The checks here are
//! static: they run the forward [taint analysis](crate::taint) and flag
//! instructions whose observable behaviour may become secret-dependent.
//!
//! The relative check follows Spectector's philosophy of comparing a
//! transformed program against the original: a rewrite is acceptable when
//! every *kind* of secret observation it makes was already made by the
//! target, so superoptimization never introduces a new side channel even
//! when the target itself is not fully constant-time.

use crate::taint::{taint_analysis, TaintFact};
use stoke_x86::flow::{Access, LocSet};
use stoke_x86::{Instruction, Opcode, Operand};

/// A way an instruction's observable behaviour can depend on a secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeakKind {
    /// A load or store whose address (base or index register) is
    /// secret-derived: the cache line touched reveals the secret.
    SecretAddress,
    /// A shift or rotate whose `cl` count is secret-derived: on several
    /// microarchitectures the latency of a variable shift depends on the
    /// count.
    SecretShiftCount,
    /// A division whose operands are secret-derived: `div`/`idiv` latency
    /// is strongly data-dependent.
    SecretDivOperand,
}

impl LeakKind {
    /// A short human-readable description of the channel.
    pub fn describe(self) -> &'static str {
        match self {
            LeakKind::SecretAddress => "memory address depends on a secret",
            LeakKind::SecretShiftCount => "shift count depends on a secret",
            LeakKind::SecretDivOperand => "division operand depends on a secret",
        }
    }
}

/// A constant-time violation at one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending instruction.
    pub index: usize,
    /// The channel through which it observes a secret.
    pub kind: LeakKind,
}

fn violations_at(instr: &Instruction, fact: &TaintFact) -> Vec<LeakKind> {
    let mut kinds = Vec::new();
    let tainted_gpr = |r: stoke_x86::Gpr| fact.locs.gprs.contains(&r);
    if !matches!(instr.opcode(), Opcode::Lea(_)) {
        if let Some(m) = instr.mem_operand() {
            if m.regs().any(tainted_gpr) {
                kinds.push(LeakKind::SecretAddress);
            }
        }
    }
    match instr.opcode() {
        Opcode::Shift(_, _) => {
            if let Some(Operand::Reg(r)) = instr.operands().first() {
                if tainted_gpr(r.parent()) {
                    kinds.push(LeakKind::SecretShiftCount);
                }
            }
        }
        Opcode::Div(_) | Opcode::Idiv(_) => {
            let a = Access::of(instr);
            if a.reads.intersects(&fact.locs) || (a.loads && fact.mem) {
                kinds.push(LeakKind::SecretDivOperand);
            }
        }
        _ => {}
    }
    kinds
}

/// All constant-time violations of a program with respect to the given
/// secret entry locations. Returns one [`Violation`] per (instruction,
/// channel) pair, in program order.
pub fn constant_time_violations<'a>(
    instrs: impl IntoIterator<Item = &'a Instruction>,
    secrets: &LocSet,
) -> Vec<Violation> {
    let instrs: Vec<&Instruction> = instrs.into_iter().collect();
    if secrets.is_empty() {
        return Vec::new();
    }
    let facts = taint_analysis(&instrs, secrets);
    let mut out = Vec::new();
    for (i, instr) in instrs.iter().enumerate() {
        for kind in violations_at(instr, &facts[i]) {
            out.push(Violation { index: i, kind });
        }
    }
    out
}

/// The relative leakage check: violations of `rewrite` whose [`LeakKind`]
/// the `target` never exhibits.
///
/// An empty result means the rewrite observes secrets through at most the
/// channels the target already used, so substituting it does not widen
/// the program's side-channel surface. A non-empty result lists the new
/// observations, ready for an error message.
pub fn introduces_new_leaks<'a, 'b>(
    target: impl IntoIterator<Item = &'a Instruction>,
    rewrite: impl IntoIterator<Item = &'b Instruction>,
    secrets: &LocSet,
) -> Vec<Violation> {
    let allowed: std::collections::BTreeSet<LeakKind> = constant_time_violations(target, secrets)
        .into_iter()
        .map(|v| v.kind)
        .collect();
    constant_time_violations(rewrite, secrets)
        .into_iter()
        .filter(|v| !allowed.contains(&v.kind))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoke_x86::{Gpr, Program};

    fn violations(text: &str, secrets: &[Gpr]) -> Vec<Violation> {
        let p: Program = text.parse().unwrap();
        constant_time_violations(p.iter(), &LocSet::from_gprs(secrets.iter().copied()))
    }

    #[test]
    fn secret_shift_count_flagged() {
        let v = violations("movq rdi, rcx\nshlq cl, rax", &[Gpr::Rdi]);
        assert_eq!(
            v,
            vec![Violation {
                index: 1,
                kind: LeakKind::SecretShiftCount
            }]
        );
    }

    #[test]
    fn immediate_shift_is_clean() {
        assert!(violations("shlq 32, rdi", &[Gpr::Rdi]).is_empty());
    }

    #[test]
    fn secret_address_flagged_lea_exempt() {
        let v = violations("movq (rdi), rax", &[Gpr::Rdi]);
        assert_eq!(v[0].kind, LeakKind::SecretAddress);
        assert!(
            violations("leaq (rdi,rdi,4), rax", &[Gpr::Rdi]).is_empty(),
            "lea computes an address without touching memory"
        );
    }

    #[test]
    fn secret_division_flagged() {
        let v = violations("movq rdi, rax\ncqto\nidivq rsi", &[Gpr::Rdi]);
        assert_eq!(v.last().unwrap().kind, LeakKind::SecretDivOperand);
    }

    #[test]
    fn no_secrets_means_no_violations() {
        assert!(violations("movq (rdi), rax\nshlq cl, rax", &[]).is_empty());
    }

    #[test]
    fn relative_check_allows_existing_channels() {
        let target: Program = "movq rdi, rcx\nshlq cl, rax".parse().unwrap();
        let same: Program = "movl edi, ecx\nshlq cl, rax".parse().unwrap();
        let worse: Program = "movq rdi, rcx\nshlq cl, rax\nmovq (rdi), rdx"
            .parse()
            .unwrap();
        let secrets = LocSet::from_gprs([Gpr::Rdi]);
        assert!(introduces_new_leaks(target.iter(), same.iter(), &secrets).is_empty());
        let new = introduces_new_leaks(target.iter(), worse.iter(), &secrets);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].kind, LeakKind::SecretAddress);
    }
}
