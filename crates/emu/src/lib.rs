//! # stoke-emu
//!
//! The concrete execution substrate of the STOKE reproduction: a
//! sandboxed interpreter for the modelled x86-64 subset (the paper's
//! "hardware emulator", §4.1), fault counters feeding the `err(·)` cost
//! term, and a dependency-aware timing model standing in for native
//! benchmarking (§4.2 / Figure 3).
//!
//! Instructions have one meaning, [`stoke_x86::execute`], which this
//! crate runs two ways: per test case in the interpreter ([`run`],
//! [`exec`]) and across a whole suite in the batched engine
//! ([`PreparedProgram::run_lockstep`], [`batch`]), which applies the
//! interpreter's scalar formulas to 16 columns at a time. The interpreter
//! is the engine's differential oracle, and `stoke-verify` runs the same
//! definition symbolically.
//!
//! ```
//! use stoke_emu::{run, state::MachineState};
//! use stoke_x86::{Gpr, Program};
//!
//! // p23: population count, the "typical superoptimizer rewrite".
//! let p: Program = "popcntq rdi, rax".parse().unwrap();
//! let mut input = MachineState::new();
//! input.set_gpr64(Gpr::Rdi, 0b1011_0111);
//! assert_eq!(run(&p, &input).state.read_gpr64(Gpr::Rax), 6);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod exec;
pub mod prepare;
pub mod state;
pub mod timing;

pub use batch::{BatchState, ColumnRef};
pub use exec::{run, run_instr_refs, run_instrs, Faults, Outcome};
pub use prepare::{DecodeCache, Decoded, PreparedProgram};
pub use state::{MachineState, Memory, XmmValue};
pub use timing::TimingModel;

/// Condition codes have one definition, in the shared semantics; this
/// pins a few of them through the interpreter.
#[cfg(test)]
mod opcode {
    mod tests {
        use crate::{run, MachineState};
        use stoke_x86::{Cond, Flag, Gpr, Program};

        /// Whether `set{c}` sets its byte under the given flags.
        fn holds(c: Cond, cf: bool, zf: bool, sf: bool, of: bool) -> bool {
            let p: Program = format!("set{} al", c.name()).parse().unwrap();
            let mut s = MachineState::new();
            s.set_gpr64(Gpr::Rax, 0);
            for (f, v) in [
                (Flag::Cf, cf),
                (Flag::Zf, zf),
                (Flag::Sf, sf),
                (Flag::Of, of),
            ] {
                s.write_flag(f, v);
            }
            run(&p, &s).state.read_gpr64(Gpr::Rax) == 1
        }

        #[test]
        fn cond_eval_matches_flags() {
            // cmp 3, 5 (i.e. 5 - 3): no carry, non-zero, positive.
            assert!(holds(Cond::A, false, false, false, false));
            assert!(holds(Cond::Ne, false, false, false, false));
            assert!(!holds(Cond::E, false, false, false, false));
            assert!(holds(Cond::G, false, false, false, false));
            // Equal case.
            assert!(holds(Cond::E, false, true, false, false));
            assert!(holds(Cond::Le, false, true, false, false));
            assert!(!holds(Cond::A, false, true, false, false));
            // Signed less: SF != OF.
            assert!(holds(Cond::L, false, false, true, false));
            assert!(holds(Cond::L, false, false, false, true));
            assert!(!holds(Cond::L, false, false, true, true));
        }
    }
}
