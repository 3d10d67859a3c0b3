//! Property tests for the batched lockstep engine: for random programs
//! (drawn from the MCMC proposal distribution, i.e. exactly the population
//! the search evaluates) and random suites of varying width — including
//! N = 0, N = 1 and all-faulting columns — `PreparedProgram::run_batch`
//! produces outcomes bit-identical to `PreparedProgram::run_prepared` per
//! column,
//! and the cost function's `eq'` agrees with a sequential interpreter
//! oracle on totals, §4.5 early-termination decisions, and evaluation
//! statistics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stoke_suite::emu::{run_instrs, MachineState, PreparedProgram};
use stoke_suite::stoke::{generate_testcases, Config, CostFn, EvalStats, Proposer, TargetSpec};
use stoke_suite::x86::{Flag, Gpr, Instruction, Program, Xmm};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The batched backend agrees with `run_prepared` on every column's
    /// final machine state and fault counters, for any batch width
    /// (including the empty and single-column batches), and on the cached
    /// static latency.
    #[test]
    fn run_batch_is_bit_identical_to_run_prepared(
        program_seed in any::<u64>(),
        state_seed in any::<u64>(),
        len in 1usize..24,
        n in 0usize..6,
    ) {
        let instrs = random_program(program_seed, len);
        let states: Vec<MachineState> = (0..n as u64)
            .map(|i| random_state(state_seed.wrapping_add(i)))
            .collect();
        let prepared = PreparedProgram::new(&instrs);
        let outs = prepared.run_batch(&states);
        prop_assert_eq!(outs.len(), n);
        for (col, (input, out)) in states.iter().zip(&outs).enumerate() {
            let want = prepared.run_prepared(input);
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
    fn all_faulting_columns_match(program_seed in any::<u64>(), len in 1usize..16, n in 1usize..5) {
        let instrs = random_program(program_seed, len);
        let states = vec![MachineState::new(); n];
        let prepared = PreparedProgram::new(&instrs);
        let outs = prepared.run_batch(&states);
        for (input, out) in states.iter().zip(&outs) {
            let want = prepared.run_prepared(input);
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
        n in 0usize..6,
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
