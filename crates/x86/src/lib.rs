//! # stoke-x86
//!
//! The x86-64 instruction-set model underlying the STOKE reproduction:
//! registers, operands, the modelled opcode subset with its metadata
//! (operand signatures, latencies), a parser and printer for the
//! AT&T-flavoured syntax used in the paper's figures, the opcode/operand
//! equivalence classes that drive the MCMC proposal distribution, the one
//! definition of every instruction's meaning ([`semantics`]) that both the
//! emulator and the symbolic validator execute, and dataflow/liveness
//! analysis over the reads and writes recorded from that definition
//! ([`flow::Access`]).
//!
//! ## Quick example
//!
//! ```
//! use stoke_x86::{Program, flow::{live_inputs, LocSet}, Gpr};
//!
//! let program: Program = "
//!     movq rdi, rax
//!     addq rsi, rax
//! ".parse().unwrap();
//!
//! assert_eq!(program.len(), 2);
//! // With rax live out, both rdi and rsi are live inputs.
//! let live_in = live_inputs(&program, &LocSet::from_gprs([Gpr::Rax]));
//! assert!(live_in.gprs.contains(&Gpr::Rdi));
//! assert!(live_in.gprs.contains(&Gpr::Rsi));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod canon;
pub mod classes;
pub mod flow;
pub mod instr;
pub mod opcode;
pub mod operand;
pub mod parse;
pub mod program;
pub mod reg;
pub mod semantics;

pub use canon::{canonical_renaming, canonicalize, normalize_immediates, Renaming};
pub use classes::OpcodeClasses;
pub use instr::{build, InstrError, Instruction, MAX_OPERANDS};
pub use opcode::{AluOp, BitOp, Cond, Opcode, ShiftOp, SseBinOp, SseMov128, SseShiftOp, UnOp};
pub use operand::{Mem, Operand, OperandKind, Scale, SlotSpec};
pub use parse::{parse_instruction, parse_program, ParseError};
pub use program::Program;
pub use reg::{Flag, Gpr, Reg, Width, Xmm};
pub use semantics::{execute, Machine};
