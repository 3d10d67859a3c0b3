//! Per-instruction def/use extraction.
//!
//! The same information is available from two sources: the instruction
//! metadata in `stoke-x86`, and the use lists each
//! [`stoke_emu::Decoded`] entry of a prepared program already holds for
//! the undefined-read fault counter. [`DefUse::of_prepared`] reuses the
//! latter so an analysis running per proposal shares the decode work the
//! evaluation engine has already paid for; a unit test pins the two
//! sources to identical results.

use stoke_emu::PreparedProgram;
use stoke_x86::flow::{self, LocSet};
use stoke_x86::{Instruction, Width};

/// The locations an instruction reads and writes, at the 64-bit register
/// granularity the cost function and validator compare states at.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DefUse {
    /// Locations read (including memory-operand address registers and
    /// implicit uses).
    pub uses: LocSet,
    /// Locations fully overwritten (64/32-bit register writes, xmm and
    /// flag writes).
    pub defs: LocSet,
    /// Registers only partially written (8/16-bit views merge into the
    /// parent, so these do not kill the old value).
    pub partial_defs: LocSet,
}

impl DefUse {
    /// Extract def/use information from instruction metadata.
    pub fn of_instruction(instr: &Instruction) -> DefUse {
        let (defs, partial_defs) = flow::defs(instr);
        DefUse {
            uses: flow::uses(instr),
            defs,
            partial_defs,
        }
    }

    /// Extract def/use information for instruction `index` of a prepared
    /// program, reading the use sets from its decoded use lists instead
    /// of re-deriving them.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn of_prepared(prepared: &PreparedProgram<'_>, index: usize) -> DefUse {
        let decoded = &prepared.decoded()[index];
        let instr = decoded.instruction();
        let mut uses = LocSet::new();
        for r in decoded.gpr_uses() {
            uses.gprs.insert(r.parent());
        }
        for x in decoded.xmm_uses() {
            uses.xmms.insert(*x);
        }
        for f in decoded.flag_uses() {
            uses.flags.insert(*f);
        }
        let mut defs = LocSet::new();
        let mut partial_defs = LocSet::new();
        for r in instr.gpr_defs() {
            match r.width() {
                Width::B | Width::W => partial_defs.gprs.insert(r.parent()),
                _ => defs.gprs.insert(r.parent()),
            };
        }
        for x in instr.xmm_defs() {
            defs.xmms.insert(x);
        }
        for f in instr.flag_defs() {
            defs.flags.insert(*f);
        }
        DefUse {
            uses,
            defs,
            partial_defs,
        }
    }
}

/// Def/use information for every instruction of a program.
pub fn def_use<'a>(instrs: impl IntoIterator<Item = &'a Instruction>) -> Vec<DefUse> {
    instrs.into_iter().map(DefUse::of_instruction).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoke_x86::Program;

    #[test]
    fn prepared_and_metadata_sources_agree() {
        // One instruction of each interesting def/use shape: plain moves,
        // read-modify-write, implicit rdx:rax, narrow merges, memory
        // addressing, flags producers and consumers, xchg, SSE.
        let text = "
            movq rdi, rax
            addq rsi, rax
            mulq rsi
            divq rcx
            sete dl
            shlq cl, rax
            movl (rsi,rcx,4), eax
            movq rax, (rsi)
            xchgq rax, rbx
            cmovneq rdx, rax
            pushq rdi
            popq rdx
            cqto
            paddd xmm1, xmm0
        ";
        let p: Program = text.parse().unwrap();
        let prepared = PreparedProgram::of_program(&p);
        for (i, instr) in p.iter().enumerate() {
            assert_eq!(
                DefUse::of_prepared(&prepared, i),
                DefUse::of_instruction(instr),
                "def/use mismatch at {i}: {instr}"
            );
        }
        assert_eq!(def_use(p.iter()).len(), p.len());
    }

    #[test]
    fn narrow_write_is_partial() {
        let p: Program = "sete dl".parse().unwrap();
        let du = DefUse::of_instruction(&p.instrs()[0]);
        assert!(du.defs.gprs.is_empty());
        assert!(du.partial_defs.gprs.contains(&stoke_x86::Gpr::Rdx));
    }
}
