//! Property-based tests for the ISA model: printing and re-parsing any
//! well-formed instruction is the identity, mutated asm text never panics
//! the parser, and width arithmetic obeys its algebraic laws.

use proptest::prelude::*;
use stoke_x86::{
    build, AluOp, Cond, Gpr, Instruction, Mem, Opcode, Operand, Program, Scale, ShiftOp, Width,
};

fn any_gpr() -> impl Strategy<Value = Gpr> {
    (0..16usize).prop_map(Gpr::from_index)
}

fn any_width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::B), Just(Width::L), Just(Width::Q)]
}

fn any_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Adc),
        Just(AluOp::Sub),
        Just(AluOp::Sbb),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
    ]
}

fn any_cond() -> impl Strategy<Value = Cond> {
    (0..Cond::ALL.len()).prop_map(|i| Cond::ALL[i])
}

/// A strategy over a representative slice of well-formed instructions.
fn any_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        // Register-register ALU at any width (the search universe only
        // carries adc/sbb at 32/64 bits, so the strategy mirrors that).
        (any_alu_op(), any_width(), any_gpr(), any_gpr())
            .prop_filter(
                "adc/sbb are modelled at 32/64 bits only",
                |(op, w, _, _)| { !(matches!(op, AluOp::Adc | AluOp::Sbb) && *w == Width::B) }
            )
            .prop_map(|(op, w, a, b)| build::alu(op, w, a.view(w), b.view(w))),
        // Immediate-register moves.
        (any_width(), any::<i32>(), any_gpr()).prop_map(|(w, imm, r)| build::mov(
            w,
            i64::from(imm),
            r.view(w)
        )),
        // Loads with base + index + scale + displacement addressing.
        (any_gpr(), any_gpr(), -64i32..64, any_gpr()).prop_map(|(base, index, disp, dst)| {
            build::movq(
                Operand::Mem(Mem::base_index(base, index, Scale::S8, disp)),
                dst.view(Width::Q),
            )
        }),
        // Shifts by immediate.
        (
            any_width().prop_filter("shift widths", |w| *w != Width::B),
            0i64..64,
            any_gpr()
        )
            .prop_map(|(w, c, r)| build::shift(ShiftOp::Shr, w, c, r.view(w))),
        // Conditional set / move.
        (any_cond(), any_gpr()).prop_map(|(c, r)| build::setcc(c, r.view(Width::B))),
        (any_cond(), any_gpr(), any_gpr()).prop_map(|(c, a, b)| build::cmov(
            c,
            Width::Q,
            a.view(Width::Q),
            b.view(Width::Q)
        )),
        // Widening multiply and lea.
        any_gpr().prop_map(|r| build::mulq(r.view(Width::Q))),
        (any_gpr(), -32i32..32, any_gpr())
            .prop_map(|(b, d, dst)| build::leaq(Mem::base_disp(b, d), dst.view(Width::Q))),
    ]
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `bytes` after one to eight edits drawn from `seed`: low-bit flips (so
/// ASCII stays ASCII), deletions, and insertions of a byte copied from the
/// text or, one time in four, of any byte.
fn mutate(bytes: &[u8], seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out = bytes.to_vec();
    for _ in 0..=splitmix(&mut state) % 8 {
        let r = splitmix(&mut state);
        let at = (r % (out.len() as u64 + 1)) as usize;
        match (r >> 32) % 3 {
            0 if at < out.len() => out[at] ^= 1 << ((r >> 40) % 7),
            1 if at < out.len() => {
                out.remove(at);
            }
            _ => {
                let byte = match out.get(((r >> 40) % (out.len() as u64).max(1)) as usize) {
                    Some(&b) if r >> 62 != 0 => b,
                    _ => (r >> 48) as u8,
                };
                out.insert(at, byte);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile asm text: a printed program after random byte edits either
    /// parses or returns an error, never panics, and whatever parses
    /// prints back to text that parses to the same program.
    #[test]
    fn mutated_asm_text_never_panics_the_parser(
        instrs in proptest::collection::vec(any_instruction(), 1..12),
        seed in any::<u64>(),
    ) {
        let text = Program::from_instrs(instrs).to_string();
        let mutated = mutate(text.as_bytes(), seed);
        if let Ok(program) = String::from_utf8_lossy(&mutated).parse::<Program>() {
            let reparsed: Program =
                program.to_string().parse().expect("printed program must re-parse");
            prop_assert_eq!(program, reparsed);
        }
    }

    /// Printing any instruction and parsing it back yields the same
    /// instruction (the printer and parser are inverses on the modelled
    /// subset).
    #[test]
    fn print_parse_roundtrip(instrs in proptest::collection::vec(any_instruction(), 1..20)) {
        let program = Program::from_instrs(instrs);
        let text = program.to_string();
        let reparsed: Program = text.parse().expect("printed program must re-parse");
        prop_assert_eq!(program, reparsed);
    }

    /// Truncation and sign extension are consistent: sign-extending a
    /// truncated value and truncating again is the identity, and the
    /// extension only changes bits above the width.
    #[test]
    fn width_truncate_sign_extend_laws(v in any::<u64>(), w in any_width()) {
        let t = w.truncate(v);
        prop_assert_eq!(w.truncate(w.sign_extend(t)), t);
        prop_assert_eq!(w.sign_extend(t) & w.mask(), t);
        if w == Width::Q {
            prop_assert_eq!(w.sign_extend(v), v);
        }
    }

    /// The latency heuristic is monotone in program concatenation.
    #[test]
    fn static_latency_is_additive(
        a in proptest::collection::vec(any_instruction(), 0..10),
        b in proptest::collection::vec(any_instruction(), 0..10),
    ) {
        let pa = Program::from_instrs(a.clone());
        let pb = Program::from_instrs(b.clone());
        let mut joined = a;
        joined.extend(b);
        let pj = Program::from_instrs(joined);
        prop_assert_eq!(pj.static_latency(), pa.static_latency() + pb.static_latency());
    }

    /// Every instruction the strategy produces validates against its own
    /// opcode signature, and every opcode's equivalence class (for the
    /// MCMC opcode move) contains the original opcode.
    #[test]
    fn equivalence_classes_contain_self(instr in any_instruction()) {
        prop_assert!(Instruction::new(instr.opcode(), instr.operands()).is_ok());
        let classes = stoke_x86::OpcodeClasses::new();
        let class: Vec<Opcode> = classes.class_of(&instr).to_vec();
        prop_assert!(class.contains(&instr.opcode()));
    }
}
