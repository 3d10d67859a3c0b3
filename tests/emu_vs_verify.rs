//! Differential testing between the concrete emulator (`stoke-emu`) and
//! the symbolic validator (`stoke-verify`).
//!
//! The cost function trusts the emulator and the final equivalence proof
//! trusts the symbolic semantics; the whole system is only sound if the
//! two agree. A program is run concretely, and symbolically with the same
//! concrete inputs substituted into the term evaluator, and every general
//! purpose register, flag and SSE register is compared, and so is every
//! memory byte either side may have written: the emulator's image against
//! `SymMemory::load_byte` of the validator's write history, or against its
//! named stack slot when the validator uses slots for the program.
//!
//! The validator's initial memory is an uninterpreted function, which the
//! term evaluator computes as a fixed pseudo-random function of the
//! address; the emulator's memory region is filled with exactly those
//! bytes, so loads compare too. The other outputs the validator models as
//! uninterpreted functions (64-bit widening multiply, division) have no
//! concrete meaning on the symbolic side and are skipped, and so are runs
//! that fault in the emulator's sandbox, which has no symbolic
//! counterpart.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;
use stoke_suite::emu::{run, MachineState, Memory};
use stoke_suite::solver::{TermData, TermId, TermPool};
use stoke_suite::verify::equiv::stack_slots_sound;
use stoke_suite::verify::symstate::UF_MEM_INIT;
use stoke_suite::verify::{SymExecutor, SymState};
use stoke_suite::x86::{
    Flag, Gpr, InstrError, Instruction, Mem, Opcode, Operand, Program, Reg, Scale, Xmm,
};

/// The memory region every run maps.
const REGION: u64 = 0x10_0000;
const REGION_LEN: u64 = 0x200;
/// The value of `rsp` and of every memory operand's base register: the
/// middle of the region, so every `disp(base)` operand with a
/// displacement in `-0x100..0xf0` is a valid access.
const POINTER: u64 = REGION + 0x100;

/// The region's initial bytes: the validator's initial-memory function at
/// each address, as the term evaluator computes it.
fn initial_memory() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut pool = TermPool::new();
        (REGION..REGION + REGION_LEN)
            .map(|a| {
                let addr = pool.constant(64, a);
                let byte = pool.uf(UF_MEM_INIT, vec![addr], 8);
                pool.eval(byte, &HashMap::new()) as u8
            })
            .collect()
    })
}

/// The emulator's initial memory image: the region, holding
/// [`initial_memory`].
fn initial_image() -> &'static Memory {
    static IMAGE: OnceLock<Memory> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let mut image = Memory::new();
        for (a, byte) in (REGION..).zip(initial_memory()) {
            image.poke(a, *byte);
        }
        image
    })
}

/// The 8 bytes of the initial region at `addr`, little-endian.
fn initial_u64(addr: u64) -> u64 {
    let at = (addr - REGION) as usize;
    u64::from_le_bytes(initial_memory()[at..at + 8].try_into().expect("8 bytes"))
}

/// One concrete input state: all registers and flags defined.
#[derive(Debug, Clone)]
struct Inputs {
    gprs: [u64; 16],
    flags: [bool; 5],
    xmms: [[u64; 2]; 16],
}

/// Run `program` both ways from `inputs` and compare every output the
/// symbolic side interprets.
fn check_agreement(program: &Program, inputs: &Inputs) {
    let mut state = MachineState::new();
    for g in Gpr::ALL {
        state.set_gpr64(g, inputs.gprs[g.index()]);
    }
    for f in Flag::ALL {
        state.write_flag(f, inputs.flags[f.index()]);
    }
    for x in Xmm::ALL {
        state.write_xmm(x, inputs.xmms[x.index()]);
    }
    state.memory = initial_image().clone();
    let outcome = run(program, &state);
    if outcome.faults.sigfpe > 0 || outcome.faults.sigsegv > 0 {
        // A faulting division has no architectural result: the emulator
        // leaves the state unchanged and counts the fault, while the
        // validator models every quotient and remainder as an
        // uninterpreted function of the inputs. An access outside the
        // sandbox reads zero, where the validator reads memory.
        return;
    }
    let conc = outcome.state;

    let slots = stack_slots_sound([program, program]);
    let mut pool = TermPool::new();
    let mut sym = SymState::initial(&mut pool, "t");
    {
        let mut exec = SymExecutor::new(&mut pool, slots);
        for instr in program {
            exec.step(&mut sym, instr);
        }
    }
    let mut env: HashMap<String, u64> = HashMap::new();
    for g in Gpr::ALL {
        env.insert(format!("in_{}", g.name64()), inputs.gprs[g.index()]);
    }
    for f in Flag::ALL {
        env.insert(
            format!("in_{}", f.name()),
            u64::from(inputs.flags[f.index()]),
        );
    }
    for x in Xmm::ALL {
        let [lo, hi] = inputs.xmms[x.index()];
        env.insert(format!("in_xmm{}_lo", x.index()), lo);
        env.insert(format!("in_xmm{}_hi", x.index()), hi);
    }
    // A named slot starts as the 8 bytes at its displacement (`lea`'s
    // address may lie anywhere, but is never a slot).
    let rsp = inputs.gprs[Gpr::Rsp.index()];
    for m in program.iter().filter_map(|i| i.mem_operand()) {
        let start = rsp.wrapping_add(i64::from(m.disp) as u64);
        if m.base == Some(Gpr::Rsp) && (REGION..=REGION + REGION_LEN - 8).contains(&start) {
            env.insert(format!("stack_init_{}", m.disp), initial_u64(start));
        }
    }
    // Every output as (what, symbolic term, concrete value).
    let mut outputs: Vec<(String, TermId, u64)> = Vec::new();
    for g in Gpr::ALL {
        outputs.push((
            g.name64().to_string(),
            sym.read_gpr64(g),
            conc.read_gpr64(g),
        ));
    }
    for f in Flag::ALL {
        let value = u64::from(conc.read_flag(f));
        outputs.push((f.name().to_string(), sym.read_flag(f), value));
    }
    for x in Xmm::ALL {
        let (lo, hi) = sym.read_xmm(x);
        let [clo, chi] = conc.read_xmm(x);
        outputs.push((format!("xmm{} low", x.index()), lo, clo));
        outputs.push((format!("xmm{} high", x.index()), hi, chi));
    }
    // Memory: every named slot, and every other byte the emulator changed
    // or the validator's write history names.
    let mut addresses: BTreeSet<u64> = (REGION..REGION + REGION_LEN)
        .filter(|&a| conc.memory.peek(a) != initial_memory()[(a - REGION) as usize])
        .collect();
    for (addr, _) in sym.memory.writes() {
        addresses.insert(pool.eval(*addr, &env));
    }
    for (disp, slot) in sym.memory.stack_slots() {
        let start = rsp.wrapping_add(disp as u64);
        let value = conc.memory.peek_wide(start, 8);
        outputs.push((format!("the stack slot at {start:#x}"), slot, value));
        for a in start..start + 8 {
            addresses.remove(&a);
        }
    }
    for a in addresses {
        let addr = pool.constant(64, a);
        let byte = sym.memory.load_byte(&mut pool, addr);
        let value = u64::from(conc.memory.peek(a));
        outputs.push((format!("the memory byte at {a:#x}"), byte, value));
    }

    let mut interpreted = HashMap::new();
    for (what, term, concrete) in outputs {
        if mentions_uf(&pool, term, &mut interpreted) {
            continue;
        }
        assert_eq!(
            pool.eval(term, &env),
            concrete,
            "emulator and validator disagree on {what} for program:\n{program}\ninputs: {inputs:?}"
        );
    }
}

/// Whether `t` depends on an uninterpreted function application other
/// than the initial memory, which the region's contents interpret.
fn mentions_uf(pool: &TermPool, t: TermId, memo: &mut HashMap<TermId, bool>) -> bool {
    if let Some(known) = memo.get(&t) {
        return *known;
    }
    let children: Vec<TermId> = match pool.data(t) {
        TermData::Uf { func, args, .. } if *func == UF_MEM_INIT => args.clone(),
        TermData::Uf { .. } => {
            memo.insert(t, true);
            return true;
        }
        TermData::Const { .. } | TermData::Var { .. } => vec![],
        TermData::Not(a)
        | TermData::Neg(a)
        | TermData::Extract { arg: a, .. }
        | TermData::ZeroExt { arg: a, .. }
        | TermData::SignExt { arg: a, .. } => vec![*a],
        TermData::And(a, b)
        | TermData::Or(a, b)
        | TermData::Xor(a, b)
        | TermData::Add(a, b)
        | TermData::Sub(a, b)
        | TermData::Mul(a, b)
        | TermData::Shl(a, b)
        | TermData::Lshr(a, b)
        | TermData::Ashr(a, b)
        | TermData::Eq(a, b)
        | TermData::Ult(a, b)
        | TermData::Slt(a, b)
        | TermData::Concat(a, b) => vec![*a, *b],
        TermData::Ite(c, a, b) => vec![*c, *a, *b],
    };
    let found = children.into_iter().any(|c| mentions_uf(pool, c, memo));
    memo.insert(t, found);
    found
}

/// A deterministic xorshift generator for operands and inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A value biased towards the edges of every width, where carries,
    /// overflows and sign bits flip.
    fn value(&mut self) -> u64 {
        const EDGES: [u64; 8] = [
            0,
            1,
            u64::MAX,
            0x80,
            0x7fff,
            0x8000_0000,
            0x7fff_ffff_ffff_ffff,
            0x8000_0000_0000_0000,
        ];
        match self.below(4) {
            0 => self.below(256),
            1 => EDGES[self.below(8) as usize] ^ self.below(2),
            _ => self.next(),
        }
    }

    fn inputs(&mut self) -> Inputs {
        Inputs {
            gprs: std::array::from_fn(|_| self.value()),
            flags: std::array::from_fn(|_| self.below(2) == 1),
            xmms: std::array::from_fn(|_| [self.value(), self.value()]),
        }
    }
}

/// A random instruction of `opcode` over register, immediate and memory
/// operands, and the registers that must hold [`POINTER`] for its memory
/// accesses to be valid. A memory operand is a `disp(base)` access,
/// often `disp(rsp)`; `lea`'s address may take any form, since it is
/// never accessed. Shift and rotate counts range over all of 0..=255.
/// `None` for the forms `Instruction::new` rejects whatever the operands
/// (`mulb`, `leab`, ...).
fn random_instruction(opcode: Opcode, rng: &mut Rng) -> Option<(Instruction, Vec<Gpr>)> {
    let mut bases = Vec::new();
    if matches!(opcode, Opcode::Push | Opcode::Pop) {
        bases.push(Gpr::Rsp);
    }
    let mut operands = Vec::new();
    for slot in opcode.signature() {
        let gpr = Gpr::from_index(rng.below(16) as usize);
        let accessed = slot.reg.is_some() || slot.xmm;
        let op = if slot.mem && accessed && bases.is_empty() && rng.below(3) == 0 {
            let base = if rng.below(2) == 0 { Gpr::Rsp } else { gpr };
            bases.push(base);
            Operand::Mem(Mem::base_disp(base, rng.below(0x1f0) as i32 - 0x100))
        } else if slot.imm && (slot.reg.is_none() || rng.below(2) == 0) {
            let imm = if matches!(opcode, Opcode::Shift(..)) {
                rng.below(256) as i64
            } else {
                rng.value() as i64
            };
            Operand::Imm(imm)
        } else if let Some(w) = slot.reg {
            Operand::Reg(Reg::new(gpr, w))
        } else if slot.xmm {
            Operand::Xmm(Xmm(rng.below(16) as u8))
        } else {
            Operand::Mem(Mem {
                base: (rng.below(4) > 0).then_some(gpr),
                index: (rng.below(2) == 0).then(|| Gpr::from_index(rng.below(16) as usize)),
                scale: Scale::ALL[rng.below(4) as usize],
                disp: rng.next() as i32,
            })
        };
        operands.push(op);
    }
    match Instruction::new(opcode, &operands) {
        Ok(instr) => Some((instr, bases)),
        Err(InstrError::HighByteForm { .. } | InstrError::NoEncoding { .. }) => None,
        Err(e) => panic!("operands drawn from the opcode's signature: {e}"),
    }
}

/// Run each multi-instruction program from eight random input states,
/// letting `adjust` pin inputs the program is meant to exercise.
fn check_programs(programs: &[&str], seed: u64, adjust: impl Fn(&mut Inputs, &mut Rng)) {
    let mut rng = Rng(seed);
    for text in programs {
        let program: Program = text.parse().expect("program parses");
        for _ in 0..8 {
            let mut inputs = rng.inputs();
            adjust(&mut inputs, &mut rng);
            check_agreement(&program, &inputs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every opcode the parser names, at every operand width, with random
    /// operands, each from a fresh random input state.
    #[test]
    fn every_opcode_agrees_between_engines(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        for opcode in Opcode::all_widths() {
            let Some((instr, bases)) = random_instruction(opcode, &mut rng) else {
                continue;
            };
            let mut inputs = rng.inputs();
            if let (Opcode::Div(w) | Opcode::Idiv(w), true) = (opcode, rng.below(4) > 0) {
                // Mostly a dividend whose quotient fits, so the division
                // does not fault: rdx is the extension of rax.
                let signed = matches!(opcode, Opcode::Idiv(_));
                let negative = w.sign_bit(inputs.gprs[Gpr::Rax.index()]);
                inputs.gprs[Gpr::Rdx.index()] = if signed && negative { u64::MAX } else { 0 };
            }
            for g in bases {
                inputs.gprs[g.index()] = POINTER;
            }
            check_agreement(&Program::from_instrs(vec![instr]), &inputs);
        }
    }
}

#[test]
fn alu_and_flag_programs_agree() {
    // Flag producers feeding flag consumers, at mixed widths.
    let programs = [
        "movq rdi, rax\naddq rsi, rax\nadcq 0, rdx",
        "cmpq rsi, rdi\nsete al\nsetb bl\nsetl cl",
        "movq rdi, rax\nsubq rsi, rax\nsbbq 0, rdx",
        "movq rdi, rax\nnegq rax\nandq rsi, rax",
        "movl edi, eax\nnotl eax\nincl eax\ndecl eax",
        "testq rdi, rdi\ncmovneq rsi, rax",
        "movq rdi, rax\nxorq rsi, rax\norq rdx, rax",
        "cmpl esi, edi\ncmovael esi, edi\nmovq rdi, rax",
        "movq rdi, rax\nimulq 3, rax",
        "movl edi, eax\nimull esi, eax",
    ];
    check_programs(&programs, 0xdead_beef_1234_5678, |_, _| {});
}

#[test]
fn shift_and_bit_programs_agree() {
    let programs = [
        "movq rdi, rax\nshlq 1, rax\nshrq 3, rax",
        "movq rdi, rax\nsarq 63, rax",
        "movl edi, eax\nshll 31, eax\nsarl 5, eax",
        "movq rsi, rcx\nmovq rdi, rax\nshlq cl, rax",
        "movq rsi, rcx\nmovq rdi, rax\nshrq cl, rax\nsarq cl, rax",
        "movq rdi, rax\nrolq 7, rax\nrorq 3, rax",
        "popcntq rdi, rax\npopcntl esi, ebx",
        "bsfq rdi, rax\nbsrq rdi, rbx",
        "bswapq rdi\nmovq rdi, rax",
        "movslq edi, rax\nmovzbl dil, ebx\nmovsbq dil, rcx",
        "movq rdi, rax\ncqto\nmovq rdx, rbx",
        "movl edi, eax\ncltq\ncltd",
    ];
    check_programs(&programs, 0x0123_4567_89ab_cdef, |inputs, rng| {
        // Shift counts worth exercising, on both sides of the width.
        inputs.gprs[Gpr::Rsi.index()] = rng.below(70);
    });
}

#[test]
fn narrow_multiply_and_divide_free_programs_agree() {
    // 32-bit widening multiplies are blasted (not uninterpreted), so the
    // symbolic evaluator must match the emulator bit for bit.
    let programs = [
        "movl edi, eax\nmull esi\nmovl edx, ebx",
        "movl edi, eax\nimull esi\nmovl edx, ebx",
        "movl edi, eax\nimull 100, eax",
    ];
    check_programs(&programs, 0xfeed_face_cafe_f00d, |_, _| {});
}

#[test]
fn memory_programs_agree() {
    // Loads, stores and read-modify-writes through `disp(base)` and
    // `disp(rsp)` at every width, 128-bit accesses, push and pop, and
    // stack accesses the validator cannot name as slots (overlapping, or
    // through a copy of rsp), so both of its memory models run.
    let programs = [
        "movq rdi, -8(rsp)\nmovq -8(rsp), rax",
        "movl esi, -16(rsp)\nmovb dil, -24(rsp)\nmovq -16(rsp), rax\nmovzbl -24(rsp), ebx",
        "addq rdi, -8(rsp)\nmovq -8(rsp), rax\nnegl -32(rsp)",
        "movq rdi, 8(rbx)\naddq 8(rbx), rax\nmov si, 14(rbx)\nsubl 12(rbx), ecx",
        "movq rdi, -8(rsp)\nmovl -4(rsp), eax",
        "movq rsp, rbx\nmovq rdi, -8(rbx)\nmovq -8(rsp), rax",
        "leaq -16(rsp), rbx\nmovq rsi, (rbx)\nmovq -16(rsp), rcx",
        "movups (rbx), xmm0\npaddd 16(rbx), xmm0\nmovups xmm0, -32(rsp)\nmovq -32(rsp), rax",
        "pushq rdi\npushq rsi\npopq rax\npopq rbx",
        "popcntq 8(rbx), rax\nbsfl -4(rsp), ecx\ncmovneq -8(rsp), rdx",
        "shlq cl, -8(rsp)\nsete -1(rbx)\nmovq -8(rsp), rax",
    ];
    check_programs(&programs, 0x6d65_6d6f_7279_0001, |inputs, _| {
        inputs.gprs[Gpr::Rsp.index()] = POINTER;
        inputs.gprs[Gpr::Rbx.index()] = POINTER - 0x40;
        inputs.gprs[Gpr::Rcx.index()] &= 0xff;
    });
}

#[test]
fn paper_rewrites_agree_between_engines() {
    // Note: the Montgomery rewrite is exercised through the emulator and
    // the validator's UNSAT path instead of this concrete cross-check,
    // because its 64-bit widening multiply is deliberately modelled as an
    // uninterpreted function on the symbolic side (§5.2), so the symbolic
    // term evaluator cannot reproduce concrete products.
    use stoke_suite::workloads::hackers_delight::P21_STOKE;
    let program: Program = P21_STOKE.parse().expect("program parses");
    let mut rng = Rng(0x5ca1ab1e);
    for _ in 0..8 {
        let vals = [
            rng.next() & 0xffff,
            rng.next() & 0xffff,
            rng.next() & 0xffff,
        ];
        let x = vals[(rng.next() % 3) as usize];
        let mut inputs = rng.inputs();
        inputs.gprs[Gpr::Rdi.index()] = x;
        inputs.gprs[Gpr::Rsi.index()] = vals[0];
        inputs.gprs[Gpr::Rdx.index()] = vals[1];
        inputs.gprs[Gpr::Rcx.index()] = vals[2];
        check_agreement(&program, &inputs);
    }
}
