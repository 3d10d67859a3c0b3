//! Static secret-flow analyses over decoded x86 programs.
//!
//! The search layer evaluates candidate rewrites millions of times, but
//! whether an instruction's latency or memory traffic can depend on a
//! secret input is a *static* question about a rewrite. STOKE's search
//! space is loop-free, so each analysis here is one pass in program
//! order over the def/use sets of [`stoke_x86::flow`] (which also holds
//! the workspace's one liveness and dead-code analysis):
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

/// The def/use sets the taint pass reads come from [`stoke_x86::flow`];
/// these tests pin the properties the pass relies on.
#[cfg(test)]
mod defuse {
    mod tests {
        use stoke_x86::{flow, Gpr, Program};

        #[test]
        fn narrow_write_is_partial() {
            let p: Program = "sete dl".parse().unwrap();
            let (defs, partial_defs) = flow::defs(&p.instrs()[0]);
            assert!(defs.gprs.is_empty());
            assert!(partial_defs.gprs.contains(&Gpr::Rdx));
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
