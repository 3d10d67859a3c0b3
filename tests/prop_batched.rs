//! Property tests for the batched lockstep engine against its oracle, the
//! interpreter `run_instrs`: for random programs (drawn from the MCMC
//! proposal distribution, i.e. exactly the population the search
//! evaluates) and random suites of 0 to 40 columns — so runs cover empty
//! and single-column batches, a full 16-column chunk and the partial
//! chunks after it (17, 32, 33 columns), and all-faulting columns —
//! `PreparedProgram::run_batch` produces outcomes bit-identical to
//! `run_instrs` per column, and the cost function's `eq'` agrees with a
//! sequential interpreter oracle on totals, §4.5 early-termination
//! decisions, and evaluation statistics.
//!
//! Two more families target instruction shapes directly, at every operand
//! width, over states with pointers into memory (so accesses both hit and
//! fault), partly undefined registers and flags, and memory layouts that
//! differ between columns — each run with every column live and with
//! columns killed at random steps: the shapes compiled code and the
//! search's rewrites are mostly made of (moves, ALU ops, shifts,
//! conditional moves, multiplies over registers, immediates and
//! `disp(base)` memory), and the rest (index-addressed memory,
//! push/pop/xchg, bit operations, SSE including 128-bit memory, and
//! divisions that fault in only some columns).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stoke_suite::emu::{run_instrs, BatchState, MachineState, PreparedProgram};
use stoke_suite::stoke::{generate_testcases, Config, CostFn, EvalStats, Proposer, TargetSpec};
use stoke_suite::x86::{
    AluOp, BitOp, Cond, Flag, Gpr, Instruction, Mem, Opcode, Operand, Program, Scale, ShiftOp,
    SseBinOp, SseMov128, SseShiftOp, UnOp, Width, Xmm,
};

/// A random machine state: a random subset of registers and flags defined
/// (so the undefined-read counter is exercised), one small valid memory
/// region with random contents, and a stack pointer inside it.
fn random_state(seed: u64) -> MachineState {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = MachineState::new();
    for g in Gpr::ALL {
        if rng.gen_bool(0.7) {
            // Small values keep computed addresses near the valid region
            // often enough for sandboxed accesses to sometimes succeed.
            let value = if rng.gen_bool(0.5) {
                rng.gen::<u64>() & 0xffff
            } else {
                rng.gen::<u64>()
            };
            state.set_gpr64(g, value);
        }
    }
    for x in Xmm::ALL {
        if rng.gen_bool(0.3) {
            state.write_xmm(x, [rng.gen(), rng.gen()]);
        }
    }
    for f in Flag::ALL {
        if rng.gen_bool(0.5) {
            state.write_flag(f, rng.gen_bool(0.5));
        }
    }
    state.set_gpr64(Gpr::Rsp, 0x8000);
    state.memory.mark_valid(0x7000, 0x1010);
    let mut addr = 0x7000u64;
    while addr < 0x7040 {
        state.memory.poke_wide(addr, rng.gen::<u64>(), 8);
        addr += 8;
    }
    state
}

/// A random instruction sequence drawn from the proposal distribution
/// `q(·)` of §4.3 over the full opcode universe.
fn random_program(seed: u64, len: usize) -> Vec<Instruction> {
    let config = Config {
        ell: len,
        ..Config::default()
    };
    let mut proposer = Proposer::new(config, seed);
    (0..len).map(|_| proposer.random_instruction()).collect()
}

/// A cost function over a random suite of `suite_width` cases for a
/// fixed two-input target.
fn cost_fn(suite_width: usize, suite_seed: u64) -> CostFn {
    let target: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
    let spec = TargetSpec::with_gprs(target.clone(), &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
    let suite = generate_testcases(&spec, suite_width, suite_seed);
    CostFn::new(Config::quick_test(), suite, target.static_latency())
}

/// An `eq'` outcome: the total (`None` on an early exit), the number of
/// test cases evaluated, and the statistics charged.
type Eval = (Option<u64>, usize, EvalStats);

/// Evaluate `eq'` (bounded or not) through the engine, returning the
/// result, the number of test cases evaluated, and the statistics.
fn eval_engine(cost: &mut CostFn, rewrite: &[Instruction], bound: Option<f64>) -> Eval {
    let (res, evaluated) = match bound {
        None => (Some(cost.eq_prime(rewrite)), cost.suite().len()),
        Some(b) => cost.eq_prime_bounded(rewrite, b),
    };
    (res, evaluated, cost.stats)
}

/// The oracle: the interpreter run case by case in suite order, scored by
/// the cost function's public per-term helpers, with the §4.5 exit taken
/// after the first case whose running sum exceeds the bound.
fn eval_oracle(cost: &CostFn, rewrite: &[Instruction], bound: Option<f64>) -> Eval {
    let mut stats = EvalStats {
        evaluations: 1,
        ..EvalStats::default()
    };
    let mut total = 0u64;
    for (i, case) in cost.suite().cases.iter().enumerate() {
        stats.testcases_run += 1;
        let out = run_instrs(rewrite, &case.input);
        total += cost.reg_term(case, &out.state)
            + cost.mem_term(case, &out.state)
            + cost.err_term(&out.faults);
        if bound.is_some_and(|b| (total as f64) > b) {
            stats.early_terminations += 1;
            return (None, i + 1, stats);
        }
    }
    (Some(total), cost.suite().len(), stats)
}

const WIDTHS: [Width; 4] = [Width::B, Width::W, Width::L, Width::Q];

/// The base of the stack region every column maps, and of the second
/// region only some columns map.
const STACK: u64 = 0x7000;
const HEAP: u64 = 0x1000;

/// A random state for the shape properties: registers defined with
/// probability 0.8, about a third of them pointing into a mapped region
/// (so memory operands both hit and fault, also across segment ends) and
/// some zero or all ones (so divisions fault in some columns only), SSE
/// registers defined with probability 0.5, flags defined with probability
/// 0.7, and one of two memory layouts.
fn pointer_state(rng: &mut StdRng) -> MachineState {
    let mut state = MachineState::new();
    for g in Gpr::ALL {
        if rng.gen_bool(0.8) {
            let value = match rng.gen_range(0..6) {
                0 => STACK + rng.gen_range(0..0x110u64),
                1 => HEAP + rng.gen_range(0..0x48u64),
                2 => rng.gen::<u64>() & 0xff,
                3 => rng.gen(),
                4 => 0,
                _ => u64::MAX,
            };
            state.set_gpr64(g, value);
        }
    }
    for x in Xmm::ALL {
        if rng.gen_bool(0.5) {
            state.write_xmm(x, [rng.gen(), rng.gen()]);
        }
    }
    for f in Flag::ALL {
        if rng.gen_bool(0.7) {
            state.write_flag(f, rng.gen_bool(0.5));
        }
    }
    state.memory.mark_valid(STACK, 0x100);
    if rng.gen_bool(0.5) {
        state.memory.mark_valid(HEAP, 0x40);
    }
    for addr in (STACK..STACK + 0x40).step_by(8) {
        state.memory.poke_wide(addr, rng.gen(), 8);
    }
    state
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn reg(rng: &mut StdRng, w: Width) -> Operand {
    Operand::Reg(pick(rng, &Gpr::ALL).view(w))
}

fn imm(rng: &mut StdRng) -> Operand {
    Operand::Imm(match rng.gen_range(0..3) {
        0 => rng.gen_range(-4..70),
        1 => i64::from(rng.gen::<i32>()),
        _ => rng.gen(),
    })
}

/// A `disp(base)` operand whose displacement lands near the mapped
/// regions' edges.
fn mem(rng: &mut StdRng) -> Operand {
    let disp = pick(rng, &[-16, -8, -4, -1, 0, 1, 4, 8, 0x38, 0xfc, 0x100]);
    Operand::Mem(Mem::base_disp(pick(rng, &Gpr::ALL), disp))
}

/// One of the shapes compiled code is mostly made of, at a random width: moves
/// (register, immediate, load, store), `movabs`, sign and zero extension,
/// `lea`, `cltq`/`cltd`/`cqto`, every ALU op, `cmp`, `test`,
/// `neg`/`not`/`inc`/`dec`, shifts and rotates by an immediate or `cl`,
/// `cmov{cc}`, `set{cc}` and the multiplies, with register or memory
/// destinations where the shape has them.
fn common_instruction(rng: &mut StdRng) -> Instruction {
    const ALU: [AluOp; 7] = [
        AluOp::Add,
        AluOp::Adc,
        AluOp::Sub,
        AluOp::Sbb,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
    ];
    const UN: [UnOp; 4] = [UnOp::Neg, UnOp::Not, UnOp::Inc, UnOp::Dec];
    const SHIFT: [ShiftOp; 5] = [
        ShiftOp::Shl,
        ShiftOp::Shr,
        ShiftOp::Sar,
        ShiftOp::Rol,
        ShiftOp::Ror,
    ];
    loop {
        let w = pick(rng, &WIDTHS);
        let src = match rng.gen_range(0..3) {
            0 => reg(rng, w),
            1 => imm(rng),
            _ => mem(rng),
        };
        // A register or memory destination; memory only beside a
        // non-memory source.
        let dst = if rng.gen_bool(0.3) && !src.is_mem() {
            mem(rng)
        } else {
            reg(rng, w)
        };
        let (opcode, operands) = match rng.gen_range(0..14) {
            0 => (Opcode::Mov(w), vec![src, reg(rng, w)]),
            1 => (
                Opcode::Mov(w),
                vec![
                    if rng.gen_bool(0.5) {
                        reg(rng, w)
                    } else {
                        imm(rng)
                    },
                    mem(rng),
                ],
            ),
            2 => (Opcode::Movabs, vec![imm(rng), reg(rng, Width::Q)]),
            3 => {
                let (op, from, to) = pick(
                    rng,
                    &[
                        (Opcode::Movslq, Width::L, Width::Q),
                        (Opcode::Movsbq, Width::B, Width::Q),
                        (Opcode::Movsbl, Width::B, Width::L),
                        (Opcode::Movzbq, Width::B, Width::Q),
                        (Opcode::Movzbl, Width::B, Width::L),
                    ],
                );
                let from = if rng.gen_bool(0.5) {
                    reg(rng, from)
                } else {
                    mem(rng)
                };
                (op, vec![from, reg(rng, to)])
            }
            4 => (Opcode::Lea(w), vec![mem(rng), reg(rng, w)]),
            5 => (
                pick(rng, &[Opcode::Cltq, Opcode::Cltd, Opcode::Cqto]),
                vec![],
            ),
            6 => (Opcode::Alu(pick(rng, &ALU), w), vec![src, dst]),
            7 => (
                pick(rng, &[Opcode::Cmp(w), Opcode::Test(w)]),
                vec![src, dst],
            ),
            8 => (Opcode::Un(pick(rng, &UN), w), vec![dst]),
            9 => {
                let count = if rng.gen_bool(0.6) {
                    imm(rng)
                } else {
                    reg(rng, Width::B)
                };
                (Opcode::Shift(pick(rng, &SHIFT), w), vec![count, dst])
            }
            10 => {
                let src = if rng.gen_bool(0.7) {
                    reg(rng, w)
                } else {
                    mem(rng)
                };
                (
                    Opcode::Cmov(pick(rng, &Cond::ALL), w),
                    vec![src, reg(rng, w)],
                )
            }
            11 => {
                let dst = if rng.gen_bool(0.3) {
                    mem(rng)
                } else {
                    reg(rng, Width::B)
                };
                (Opcode::Set(pick(rng, &Cond::ALL)), vec![dst])
            }
            12 => {
                let src = if rng.gen_bool(0.7) {
                    reg(rng, w)
                } else {
                    mem(rng)
                };
                (pick(rng, &[Opcode::Mul1(w), Opcode::Imul1(w)]), vec![src])
            }
            _ => (Opcode::Imul2(w), vec![src, reg(rng, w)]),
        };
        if let Ok(instr) = Instruction::new(opcode, operands) {
            return instr;
        }
    }
}

/// An index-addressed `disp(base, index, scale)` operand.
fn indexed_mem(rng: &mut StdRng) -> Operand {
    Operand::Mem(Mem {
        base: Some(pick(rng, &Gpr::ALL)),
        index: Some(pick(rng, &Gpr::ALL)),
        scale: pick(rng, &Scale::ALL),
        disp: pick(rng, &[-16, -8, 0, 8, 0x38, 0xfc]),
    })
}

/// A memory operand of either addressing form.
fn any_mem(rng: &mut StdRng) -> Operand {
    if rng.gen_bool(0.5) {
        indexed_mem(rng)
    } else {
        mem(rng)
    }
}

fn xmm(rng: &mut StdRng) -> Operand {
    Operand::Xmm(pick(rng, &Xmm::ALL))
}

/// An SSE register or a 128-bit memory operand.
fn xmm_or_mem(rng: &mut StdRng) -> Operand {
    if rng.gen_bool(0.4) {
        any_mem(rng)
    } else {
        xmm(rng)
    }
}

/// One of the remaining shapes, at a random width: index-addressed loads
/// and stores, `push`, `pop`, `xchg`, `popcnt`, `bsf`, `bsr`, `bswap`, the
/// SSE moves and arithmetic (with 128-bit memory operands), and `div` and
/// `idiv` (whose divisors the states make zero, or the quotient overflow,
/// in only some columns).
fn tail_instruction(rng: &mut StdRng) -> Instruction {
    loop {
        let w = pick(rng, &WIDTHS);
        let (opcode, operands) = match rng.gen_range(0..12) {
            0 => (Opcode::Mov(w), vec![indexed_mem(rng), reg(rng, w)]),
            1 => {
                let src = if rng.gen_bool(0.5) {
                    reg(rng, w)
                } else {
                    imm(rng)
                };
                (Opcode::Mov(w), vec![src, indexed_mem(rng)])
            }
            2 => (
                Opcode::Alu(AluOp::Add, w),
                vec![reg(rng, w), indexed_mem(rng)],
            ),
            3 => (
                pick(rng, &[Opcode::Push, Opcode::Pop]),
                vec![reg(rng, Width::Q)],
            ),
            4 => (Opcode::Xchg(w), vec![reg(rng, w), reg(rng, w)]),
            5 => {
                let op = pick(rng, &[BitOp::Popcnt, BitOp::Bsf, BitOp::Bsr]);
                let src = if rng.gen_bool(0.7) {
                    reg(rng, w)
                } else {
                    any_mem(rng)
                };
                (Opcode::Bits(op, w), vec![src, reg(rng, w)])
            }
            6 => (Opcode::Bits(BitOp::Bswap, w), vec![reg(rng, w)]),
            7 => {
                let (src, dst) = if rng.gen_bool(0.5) {
                    (xmm_or_mem(rng), xmm(rng))
                } else {
                    (xmm(rng), xmm_or_mem(rng))
                };
                (Opcode::Mov128(pick(rng, &SseMov128::ALL)), vec![src, dst])
            }
            8 => (
                Opcode::SseBin(pick(rng, &SseBinOp::ALL)),
                vec![xmm_or_mem(rng), xmm(rng)],
            ),
            9 => match rng.gen_range(0..7) {
                0 => (Opcode::MovdToXmm, vec![reg(rng, Width::L), xmm(rng)]),
                1 => (Opcode::MovqToXmm, vec![reg(rng, Width::Q), xmm(rng)]),
                2 => (Opcode::MovdFromXmm, vec![xmm(rng), reg(rng, Width::L)]),
                3 => (Opcode::MovqFromXmm, vec![xmm(rng), reg(rng, Width::Q)]),
                4 => (
                    Opcode::SseShift(pick(rng, &SseShiftOp::ALL)),
                    vec![Operand::Imm(rng.gen_range(0..70)), xmm(rng)],
                ),
                5 => (
                    pick(rng, &[Opcode::Pshufd, Opcode::Shufps]),
                    vec![
                        Operand::Imm(rng.gen_range(0..256)),
                        xmm_or_mem(rng),
                        xmm(rng),
                    ],
                ),
                _ => (
                    pick(rng, &[Opcode::Punpckldq, Opcode::Punpcklqdq]),
                    vec![xmm_or_mem(rng), xmm(rng)],
                ),
            },
            _ => {
                let divisor = if rng.gen_bool(0.7) {
                    reg(rng, w)
                } else {
                    any_mem(rng)
                };
                (pick(rng, &[Opcode::Div(w), Opcode::Idiv(w)]), vec![divisor])
            }
        };
        if let Ok(instr) = Instruction::new(opcode, operands) {
            return instr;
        }
    }
}

/// A program of `len` instructions from `shape`, and `n` states.
fn shapes_and_states(
    shape: fn(&mut StdRng) -> Instruction,
    program_seed: u64,
    state_seed: u64,
    len: usize,
    n: usize,
) -> (Vec<Instruction>, Vec<MachineState>) {
    let mut rng = StdRng::seed_from_u64(program_seed);
    let instrs = (0..len).map(|_| shape(&mut rng)).collect();
    let mut rng = StdRng::seed_from_u64(state_seed);
    let states = (0..n).map(|_| pointer_state(&mut rng)).collect();
    (instrs, states)
}

/// Run `instrs` over `states` in lockstep, killing each column after a
/// random step with probability `kill_p` per step, and check every column
/// against `run_instrs` of the prefix it executed: the whole program for
/// columns that stayed live, the first `k` instructions for a column
/// killed after step `k`.
fn check_against_prefixes(
    instrs: &[Instruction],
    states: &[MachineState],
    kill_seed: u64,
    kill_p: f64,
) {
    let mut rng = StdRng::seed_from_u64(kill_seed);
    let mut executed = vec![0usize; states.len()];
    let mut batch = BatchState::new();
    batch.load(states);
    PreparedProgram::new(instrs).run_lockstep_with(&mut batch, |state| {
        for (col, steps) in executed.iter_mut().enumerate() {
            if state.is_live(col) {
                *steps += 1;
                if rng.gen_bool(kill_p) {
                    state.kill(col);
                }
            }
        }
        true
    });
    for (col, (input, &steps)) in states.iter().zip(&executed).enumerate() {
        let want = run_instrs(&instrs[..steps], input);
        prop_assert_eq!(
            batch.column_state(col),
            want.state,
            "column {} state diverges after {} steps of\n{}",
            col,
            steps,
            Program::from_instrs(instrs.to_vec())
        );
        prop_assert_eq!(
            batch.faults(col),
            want.faults,
            "column {} faults diverge",
            col
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The common shapes at every width, all columns live: the engine
    /// matches `run_instrs` on every column's state and faults. (Named
    /// for the row-pass handlers these shapes once had.)
    #[test]
    fn row_pass_shapes_match_run_prepared(
        program_seed in any::<u64>(),
        state_seed in any::<u64>(),
        len in 1usize..16,
        n in 0usize..=40,
    ) {
        let (instrs, states) =
            shapes_and_states(common_instruction, program_seed, state_seed, len, n);
        check_against_prefixes(&instrs, &states, 0, 0.0);
    }

    /// The same shapes with columns killed at random steps, so partly
    /// live chunks run: each column matches `run_instrs` of the prefix it
    /// executed.
    #[test]
    fn row_pass_shapes_match_under_random_kills(
        program_seed in any::<u64>(),
        state_seed in any::<u64>(),
        kill_seed in any::<u64>(),
        len in 1usize..16,
        n in 1usize..=40,
    ) {
        let (instrs, states) =
            shapes_and_states(common_instruction, program_seed, state_seed, len, n);
        check_against_prefixes(&instrs, &states, kill_seed, 0.15);
    }

    /// The remaining shapes (index-addressed memory, push/pop/xchg, bit
    /// operations, SSE, divisions that fault in some columns), all
    /// columns live.
    #[test]
    fn tail_shapes_match_run_instrs(
        program_seed in any::<u64>(),
        state_seed in any::<u64>(),
        len in 1usize..16,
        n in 0usize..=40,
    ) {
        let (instrs, states) =
            shapes_and_states(tail_instruction, program_seed, state_seed, len, n);
        check_against_prefixes(&instrs, &states, 0, 0.0);
    }

    /// The remaining shapes with columns killed at random steps.
    #[test]
    fn tail_shapes_match_under_random_kills(
        program_seed in any::<u64>(),
        state_seed in any::<u64>(),
        kill_seed in any::<u64>(),
        len in 1usize..16,
        n in 1usize..=40,
    ) {
        let (instrs, states) =
            shapes_and_states(tail_instruction, program_seed, state_seed, len, n);
        check_against_prefixes(&instrs, &states, kill_seed, 0.15);
    }

    /// The batched backend agrees with `run_instrs` on every column's
    /// final machine state and fault counters, for any batch width
    /// (including the empty and single-column batches), and on the cached
    /// static latency.
    #[test]
    fn run_batch_is_bit_identical_to_run_prepared(
        program_seed in any::<u64>(),
        state_seed in any::<u64>(),
        len in 1usize..24,
        n in 0usize..=40,
    ) {
        let instrs = random_program(program_seed, len);
        let states: Vec<MachineState> = (0..n as u64)
            .map(|i| random_state(state_seed.wrapping_add(i)))
            .collect();
        let prepared = PreparedProgram::new(&instrs);
        let outs = prepared.run_batch(&states);
        prop_assert_eq!(outs.len(), n);
        for (col, (input, out)) in states.iter().zip(&outs).enumerate() {
            let want = run_instrs(&instrs, input);
            prop_assert_eq!(&out.state, &want.state, "column {} state diverges", col);
            prop_assert_eq!(out.faults, want.faults, "column {} faults diverge", col);
        }
        prop_assert_eq!(
            instrs.iter().map(|i| u64::from(i.latency())).sum::<u64>(),
            prepared.static_latency(),
            "latency diverges"
        );
    }

    /// Columns whose every register is undefined (fresh `MachineState`s,
    /// which fault on nearly every read and memory access) behave
    /// identically under both backends.
    #[test]
    fn all_faulting_columns_match(program_seed in any::<u64>(), len in 1usize..16, n in 1usize..=40) {
        let instrs = random_program(program_seed, len);
        let states = vec![MachineState::new(); n];
        let prepared = PreparedProgram::new(&instrs);
        let outs = prepared.run_batch(&states);
        for (input, out) in states.iter().zip(&outs) {
            let want = run_instrs(&instrs, input);
            prop_assert_eq!(&out.state, &want.state);
            prop_assert_eq!(out.faults, want.faults);
        }
    }

    /// The engine returns the oracle's `eq'` total, §4.5
    /// early-termination decision, number of test cases evaluated, and
    /// statistics — for random rewrites, random suites of varying width,
    /// and random bounds (including bounds low enough to trip on the first
    /// case).
    #[test]
    fn backends_agree_on_eq_prime_and_early_exit(
        program_seed in any::<u64>(),
        suite_seed in any::<u64>(),
        n in 0usize..=40,
        bound_sel in 0u8..4,
        raw_bound in 0u64..200,
    ) {
        let rewrite = random_program(program_seed, 8);
        let bound = match bound_sel {
            0 => None,
            1 => Some(0.0),
            2 => Some(raw_bound as f64),
            _ => Some(1e18),
        };
        let mut cost = cost_fn(n, suite_seed);
        let want = eval_oracle(&cost, &rewrite, bound);
        let got = eval_engine(&mut cost, &rewrite, bound);
        prop_assert_eq!(&got, &want, "engine diverges from the oracle (bound {:?})", bound);
    }
}
