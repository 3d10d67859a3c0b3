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
pub mod taint;
pub mod timing;

pub use batch::{BatchState, ColumnRef};
pub use exec::{run, run_instr_refs, run_instrs, Faults, Outcome};
pub use prepare::{DecodeCache, Decoded, PreparedProgram};
pub use state::{MachineState, Memory, XmmValue};
pub use taint::{run_tainted, TaintState};
pub use timing::{estimate_cycles, TimingModel};
