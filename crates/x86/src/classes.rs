//! Equivalence classes used by the MCMC proposal distribution.
//!
//! The paper's `Opcode` move replaces an instruction's opcode with another
//! opcode "drawn from an equivalence class of opcodes expecting the same
//! number and type of operands"; the `Operand` move replaces an operand
//! with another "drawn from an equivalence class of operands with types
//! equivalent to the old operand". This module precomputes those classes
//! so that proposals are cheap and, crucially, *symmetric*: the
//! probability of proposing `o → o'` equals that of proposing `o' → o`
//! because both are uniform draws from the same class.

use crate::instr::{Instruction, MAX_OPERANDS};
use crate::opcode::Opcode;
use crate::operand::{OperandKind, SlotSpec};
use std::collections::HashMap;

/// A concrete operand-kind signature as an inline, hashable key, so a
/// class lookup allocates nothing.
type KindKey = [Option<OperandKind>; MAX_OPERANDS];

/// Precomputed opcode equivalence classes keyed by the concrete operand
/// kinds of an instruction.
///
/// Every class is built up front, so a lookup neither computes nor
/// allocates anything: the MCMC opcode move runs it on every proposal.
#[derive(Debug, Clone)]
pub struct OpcodeClasses {
    /// All opcodes in the search universe.
    universe: Vec<Opcode>,
    /// Map from a concrete operand-kind signature to the opcodes that
    /// accept it, in universe order.
    by_signature: HashMap<KindKey, Vec<Opcode>>,
}

impl OpcodeClasses {
    /// Build the classes for the full modelled opcode set.
    pub fn new() -> OpcodeClasses {
        OpcodeClasses::with_universe(Opcode::all())
    }

    /// Build the classes for a restricted opcode universe (e.g. when a
    /// caller wants to exclude divisions or SSE instructions from the
    /// search).
    pub fn with_universe(universe: Vec<Opcode>) -> OpcodeClasses {
        let mut by_signature: HashMap<KindKey, Vec<Opcode>> = HashMap::new();
        for &op in &universe {
            for_each_accepted_key(op, |key| by_signature.entry(key).or_default().push(op));
        }
        OpcodeClasses {
            universe,
            by_signature,
        }
    }

    /// The opcode universe.
    pub fn universe(&self) -> &[Opcode] {
        &self.universe
    }

    /// The opcodes that accept exactly the given concrete operand kinds,
    /// in universe order.
    pub fn class_for_kinds(&self, kinds: &[OperandKind]) -> &[Opcode] {
        if kinds.len() > MAX_OPERANDS {
            // No opcode takes this many operands.
            return &[];
        }
        let mut key: KindKey = [None; MAX_OPERANDS];
        for (k, kind) in key.iter_mut().zip(kinds) {
            *k = Some(*kind);
        }
        self.by_signature.get(&key).map_or(&[], Vec::as_slice)
    }

    /// The opcode equivalence class of an existing instruction: every
    /// opcode in the universe that accepts the instruction's operands.
    /// The class always contains the instruction's own opcode. An opcode
    /// outside the universe (a target's `movw`, say) is its own class,
    /// so the opcode move neither leaves it nor reaches it and stays
    /// symmetric.
    pub fn class_of<'a>(&'a self, instr: &'a Instruction) -> &'a [Opcode] {
        let mut kinds = [OperandKind::Imm; MAX_OPERANDS];
        let arity = instr.operands().len();
        for (k, opnd) in kinds.iter_mut().zip(instr.operands()) {
            *k = opnd.kind();
        }
        let class = self.class_for_kinds(&kinds[..arity]);
        if class.contains(&instr.opcode) {
            class
        } else {
            std::slice::from_ref(&instr.opcode)
        }
    }
}

/// Visit every concrete operand-kind signature `op` accepts (the kinds
/// for which [`accepts_kinds`] holds), each once.
fn for_each_accepted_key(op: Opcode, mut f: impl FnMut(KindKey)) {
    fn slot_kinds(spec: &SlotSpec) -> impl Iterator<Item = OperandKind> {
        [
            spec.reg.map(OperandKind::Reg),
            spec.imm.then_some(OperandKind::Imm),
            spec.mem.then_some(OperandKind::Mem),
            spec.xmm.then_some(OperandKind::Xmm),
        ]
        .into_iter()
        .flatten()
    }
    fn extend(sig: &[SlotSpec], key: KindKey, slot: usize, f: &mut impl FnMut(KindKey)) {
        let Some(spec) = sig.get(slot) else {
            f(key);
            return;
        };
        for kind in slot_kinds(spec) {
            let has_mem = key.contains(&Some(OperandKind::Mem));
            if kind == OperandKind::Mem && has_mem {
                // At most one memory operand per instruction.
                continue;
            }
            let mut next = key;
            next[slot] = Some(kind);
            extend(sig, next, slot + 1, f);
        }
    }
    extend(op.signature(), [None; MAX_OPERANDS], 0, &mut f);
}

impl Default for OpcodeClasses {
    fn default() -> Self {
        OpcodeClasses::new()
    }
}

/// Whether `op` accepts operands with exactly the given kinds.
pub fn accepts_kinds(op: Opcode, kinds: &[OperandKind]) -> bool {
    let sig = op.signature();
    if sig.len() != kinds.len() {
        return false;
    }
    if kinds
        .iter()
        .filter(|k| matches!(k, OperandKind::Mem))
        .count()
        > 1
    {
        return false;
    }
    sig.iter()
        .zip(kinds)
        .all(|(slot, kind)| slot.accepts(*kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::{AluOp, BitOp, Cond};
    use crate::reg::Width;

    #[test]
    fn alu_class_contains_peers() {
        let classes = OpcodeClasses::new();
        let instr: crate::program::Program = "addq rdi, rax".parse().unwrap();
        let class = classes.class_of(&instr.instrs()[0]).to_vec();
        assert!(class.contains(&Opcode::Alu(AluOp::Add, Width::Q)));
        assert!(class.contains(&Opcode::Alu(AluOp::Sub, Width::Q)));
        assert!(class.contains(&Opcode::Alu(AluOp::Xor, Width::Q)));
        assert!(class.contains(&Opcode::Mov(Width::Q)));
        assert!(class.contains(&Opcode::Imul2(Width::Q)));
        assert!(class.contains(&Opcode::Cmp(Width::Q)));
        // but not different widths or arities
        assert!(!class.contains(&Opcode::Alu(AluOp::Add, Width::L)));
        assert!(!class.contains(&Opcode::Push));
        assert!(!class.contains(&Opcode::Nop));
    }

    #[test]
    fn class_always_contains_self() {
        let classes = OpcodeClasses::new();
        for text in [
            "addq rdi, rax",
            "sete dl",
            "mulq rsi",
            "shlq 3, rcx",
            "popcntq rdi, rax",
            "movups (rsi,rcx,4), xmm1",
            "pmullw xmm1, xmm0",
            "cmovel esi, ecx",
            "movw 5, (rdi)",
        ] {
            let p: crate::program::Program = text.parse().unwrap();
            let instr = &p.instrs()[0];
            let class = classes.class_of(instr);
            assert!(
                class.contains(&instr.opcode()),
                "class for {} should contain its own opcode",
                text
            );
        }
    }

    #[test]
    fn imm_reg_class_differs_from_reg_reg() {
        let classes = OpcodeClasses::new();
        let imm_form: crate::program::Program = "addq 5, rax".parse().unwrap();
        let class = classes.class_of(&imm_form.instrs()[0]).to_vec();
        // popcnt does not take an immediate source.
        assert!(!class.contains(&Opcode::Bits(BitOp::Popcnt, Width::Q)));
        assert!(class.contains(&Opcode::Alu(AluOp::Adc, Width::Q)));
    }

    #[test]
    fn setcc_class_is_byte_writers() {
        let classes = OpcodeClasses::new();
        let p: crate::program::Program = "sete dl".parse().unwrap();
        let class = classes.class_of(&p.instrs()[0]).to_vec();
        assert!(class.contains(&Opcode::Set(Cond::Ne)));
        assert!(class.contains(&Opcode::Set(Cond::A)));
        // All members must take exactly one 8-bit operand.
        for op in &class {
            assert_eq!(op.arity(), 1, "{} in sete class", op);
        }
    }

    #[test]
    fn restricted_universe() {
        let no_div: Vec<Opcode> = Opcode::all()
            .into_iter()
            .filter(|o| !matches!(o, Opcode::Div(_) | Opcode::Idiv(_)))
            .collect();
        let classes = OpcodeClasses::with_universe(no_div);
        let p: crate::program::Program = "mulq rsi".parse().unwrap();
        let class = classes.class_of(&p.instrs()[0]).to_vec();
        assert!(class.contains(&Opcode::Mul1(Width::Q)));
        assert!(!class.contains(&Opcode::Div(Width::Q)));
    }

    #[test]
    fn memoization_is_stable() {
        let classes = OpcodeClasses::new();
        let p: crate::program::Program = "addq rdi, rax".parse().unwrap();
        let a = classes.class_of(&p.instrs()[0]).to_vec();
        let b = classes.class_of(&p.instrs()[0]).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn precomputed_classes_match_the_filter_definition() {
        use crate::reg::Width::{B, L, Q, W};
        let alphabet = [
            OperandKind::Reg(B),
            OperandKind::Reg(W),
            OperandKind::Reg(L),
            OperandKind::Reg(Q),
            OperandKind::Imm,
            OperandKind::Mem,
            OperandKind::Xmm,
        ];
        let universe: Vec<Opcode> = Opcode::all().into_iter().step_by(2).collect();
        let classes = OpcodeClasses::with_universe(universe.clone());
        let mut keys: Vec<Vec<OperandKind>> = vec![vec![]];
        for len in 1..=MAX_OPERANDS + 1 {
            let shorter: Vec<Vec<OperandKind>> = keys
                .iter()
                .filter(|k| k.len() == len - 1)
                .cloned()
                .collect();
            for key in shorter {
                for kind in alphabet {
                    let mut k = key.clone();
                    k.push(kind);
                    keys.push(k);
                }
            }
        }
        for kinds in &keys {
            let want: Vec<Opcode> = universe
                .iter()
                .copied()
                .filter(|op| accepts_kinds(*op, kinds))
                .collect();
            assert_eq!(classes.class_for_kinds(kinds), want.as_slice(), "{kinds:?}");
        }
    }
}
