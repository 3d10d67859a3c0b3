//! Property-based tests for the ISA model: printing and re-parsing any
//! well-formed instruction is the identity (exhaustively over every opcode
//! the parser names and every operand shape, and on random programs),
//! mutated asm text never panics the parser, and width arithmetic obeys
//! its algebraic laws.

use proptest::prelude::*;
use stoke_x86::{
    build, AluOp, Cond, Gpr, Instruction, Mem, Opcode, Operand, Program, Scale, ShiftOp, Width, Xmm,
};

fn any_gpr() -> impl Strategy<Value = Gpr> {
    (0..16usize).prop_map(Gpr::from_index)
}

fn any_width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::B),
        Just(Width::W),
        Just(Width::L),
        Just(Width::Q)
    ]
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

/// Operand `k` of each kind a slot may take, for slot `slot`: registers
/// of every number, immediates at the edges of every width, and every
/// addressing form (base, displacement, index and scale, no base, bare
/// displacement).
fn operand_choices(spec: &stoke_x86::SlotSpec, slot: usize, k: usize) -> Vec<Operand> {
    const IMMS: [i64; 8] = [
        0,
        -1,
        127,
        -129,
        0xffff,
        i32::MAX as i64,
        u32::MAX as i64,
        i64::MIN,
    ];
    let g = |i: usize| Gpr::from_index(i % 16);
    let mut choices = Vec::new();
    if let Some(w) = spec.reg {
        choices.push(Operand::Reg(g(k + 5 * slot).view(w)));
    }
    if spec.xmm {
        choices.push(Operand::Xmm(Xmm(((k + 3 * slot) % 16) as u8)));
    }
    if spec.imm {
        choices.push(Operand::Imm(IMMS[k % IMMS.len()]));
    }
    if spec.mem {
        choices.push(Operand::Mem(match k % 5 {
            0 => Mem::base(g(k)),
            1 => Mem::base_disp(g(k), -8),
            2 => Mem::base_index(g(k), g(k + 7), Scale::ALL[k % 4], i32::MIN),
            3 => Mem {
                base: None,
                index: Some(g(k)),
                scale: Scale::S8,
                disp: 16,
            },
            _ => Mem {
                base: None,
                index: None,
                scale: Scale::S1,
                disp: 0x40,
            },
        }));
    }
    choices
}

/// Every instruction `Instruction::new` accepts over every opcode the
/// parser names, in every operand shape its signature admits (each slot a
/// register, an SSE register, an immediate or a memory operand), over
/// every register number.
fn every_named_instruction() -> Vec<Instruction> {
    let mut instrs = Vec::new();
    for opcode in Opcode::all_widths() {
        for k in 0..16 {
            let mut shapes: Vec<Vec<Operand>> = vec![vec![]];
            for (slot, spec) in opcode.signature().iter().enumerate() {
                let choices = operand_choices(spec, slot, k);
                shapes = shapes
                    .iter()
                    .flat_map(|prefix| {
                        choices.iter().map(move |op| {
                            let mut shape = prefix.clone();
                            shape.push(*op);
                            shape
                        })
                    })
                    .collect();
            }
            instrs.extend(
                shapes
                    .iter()
                    .filter_map(|operands| Instruction::new(opcode, operands).ok()),
            );
        }
    }
    assert!(instrs.len() > 5_000, "only {} instructions", instrs.len());
    instrs
}

/// Printing any instruction of [`every_named_instruction`] gives text that
/// parses back to the identical instruction.
#[test]
fn every_named_opcode_round_trips_in_every_operand_shape() {
    for instr in every_named_instruction() {
        let text = instr.to_string();
        let parsed = stoke_x86::parse_instruction(&text, &Default::default())
            .unwrap_or_else(|e| panic!("{text:?} ({:?}) does not parse: {e}", instr.opcode()));
        assert_eq!(parsed, instr, "{text:?}");
    }
}

/// The MCMC opcode move is symmetric: whatever opcode it proposes for an
/// instruction, it can propose the instruction's own opcode back from
/// there. That holds for an opcode outside the search universe too, such
/// as a target's `movw 5, (rdi)`.
#[test]
fn opcode_moves_are_symmetric() {
    let classes = stoke_x86::OpcodeClasses::new();
    for instr in every_named_instruction() {
        for &op in classes.class_of(&instr) {
            let moved = instr.with_opcode(op);
            assert!(
                classes.class_of(&moved).contains(&instr.opcode()),
                "{instr} -> {moved} cannot move back"
            );
        }
    }
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
