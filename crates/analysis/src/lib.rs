//! Static secret-flow analyses over decoded x86 programs.
//!
//! The search layer evaluates candidate rewrites millions of times, but
//! whether an instruction's latency or memory traffic can depend on a
//! secret input is a *static* question about a rewrite. STOKE's search
//! space is loop-free, so each analysis here is one pass in program
//! order over the reads and writes [`stoke_x86::flow::Access`] records
//! from each instruction's semantics ([`stoke_x86::flow`] also holds the
//! workspace's one liveness and dead-code analysis):
//!
//! - [`taint`] — forward secret-taint propagation, one fact per program
//!   point;
//! - [`leakage`] — the constant-time checks on top of the taint facts:
//!   absolute violations (secret-dependent latency or addresses) and the
//!   Spectector-style *relative* check comparing a rewrite's secret
//!   observations against its target's.
//!
//! The search pipeline consumes these through `stoke`'s
//! `ConstantTimePenalty` cost-model combinator and `LeakageCheck`
//! verifier.

#![deny(missing_docs)]

pub mod leakage;
pub mod taint;

pub use leakage::{constant_time_violations, introduces_new_leaks, LeakKind, Violation};
pub use taint::{taint_analysis, TaintFact};

/// What the taint pass reads and writes comes from
/// [`stoke_x86::flow::Access`]; these tests pin the properties the pass
/// relies on.
#[cfg(test)]
mod defuse {
    mod tests {
        use stoke_x86::flow::Access;
        use stoke_x86::{Gpr, Program};

        #[test]
        fn narrow_write_is_partial() {
            let p: Program = "sete dl".parse().unwrap();
            let a = Access::of(&p.instrs()[0]);
            assert!(a.kills.gprs.is_empty());
            assert!(a.merges.gprs.contains(&Gpr::Rdx));
        }
    }
}

/// Liveness and dead-code detection live only in [`stoke_x86::flow`].
#[cfg(test)]
mod liveness {
    mod tests {
        use stoke_x86::flow::{self, LocSet};
        use stoke_x86::{Gpr, Program};

        #[test]
        fn dead_code_found() {
            let p: Program = "movq rdi, rbx\nmovq rsi, rax".parse().unwrap();
            assert_eq!(
                flow::dead_instructions(&p, &LocSet::from_gprs([Gpr::Rax])),
                vec![0]
            );
        }
    }
}
