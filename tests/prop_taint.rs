//! Property test for the constant-time analyses, by noninterference: run
//! a program on a machine state and on copies that differ only in the
//! secret registers. Every register, SSE register or flag that ends up
//! different (while defined in both runs) must be tainted in the static
//! exit fact of `stoke-analysis`, and any differing memory byte requires
//! its memory bit. The programs are random draws from the MCMC proposal
//! distribution, the states and secret sets random too. A flow the static
//! analysis misses would let a leaky rewrite through the constant-time
//! cost penalty and the leakage verifier.
//!
//! The check is relational: it compares two concrete runs and shares no
//! read/write table with the analysis it checks (the SPECTECTOR notion of
//! noninterference).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stoke_suite::analysis::{taint_analysis, TaintFact};
use stoke_suite::emu::{run_instrs, MachineState};
use stoke_suite::stoke::{Config, Proposer};
use stoke_suite::x86::flow::LocSet;
use stoke_suite::x86::{Flag, Gpr, Instruction, Program, Xmm};

/// The valid memory region of every state.
const MEMORY: std::ops::Range<u64> = 0x7000..0x8010;

/// A random machine state: a random subset of registers and flags
/// defined, one small valid memory region with random contents, and a
/// stack pointer inside it (mirrors the backend property tests).
fn random_state(seed: u64) -> MachineState {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = MachineState::new();
    for g in Gpr::ALL {
        if rng.gen_bool(0.7) {
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
    state
        .memory
        .mark_valid(MEMORY.start, MEMORY.end - MEMORY.start);
    let mut addr = 0x7000u64;
    while addr < 0x7040 {
        state.memory.poke_wide(addr, rng.gen::<u64>(), 8);
        addr += 8;
    }
    state
}

/// A random instruction sequence drawn from the proposal distribution
/// `q(·)` over the full opcode universe — exactly the population the
/// search (and hence the analyses) evaluate.
fn random_program(seed: u64, len: usize) -> Vec<Instruction> {
    let config = Config {
        ell: len,
        ..Config::default()
    };
    let mut proposer = Proposer::new(config, seed);
    (0..len).map(|_| proposer.random_instruction()).collect()
}

/// A random set of secret entry registers (possibly empty).
fn random_secrets(seed: u64) -> LocSet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef_cafe);
    LocSet::from_gprs(Gpr::ALL.into_iter().filter(|_| rng.gen_bool(0.25)))
}

/// What differs between runs that differ only in the secrets.
#[derive(Debug, Default)]
struct Differences {
    /// Registers and flags that differ while defined in both runs.
    locs: LocSet,
    /// Memory bytes that differ.
    bytes: Vec<u64>,
}

/// Run `instrs` from `input` with the secret registers set to four
/// values each (two random ones, 0 and all ones), and collect what
/// differs between the first run and each of the others.
fn differences(
    instrs: &[Instruction],
    input: &MachineState,
    secrets: &LocSet,
    seed: u64,
) -> Differences {
    let mut rng = StdRng::seed_from_u64(seed);
    let runs: Vec<MachineState> = (0..4)
        .map(|run| {
            let mut state = input.clone();
            for g in &secrets.gprs {
                let value = match run {
                    2 => 0,
                    3 => u64::MAX,
                    _ => rng.gen(),
                };
                state.set_gpr64(*g, value);
            }
            run_instrs(instrs, &state).state
        })
        .collect();
    let (first, others) = runs.split_first().expect("four runs");
    let mut out = Differences::default();
    for other in others {
        for g in Gpr::ALL {
            if first.gpr_is_defined(g)
                && other.gpr_is_defined(g)
                && first.read_gpr64(g) != other.read_gpr64(g)
            {
                out.locs.gprs.insert(g);
            }
        }
        for x in Xmm::ALL {
            if first.xmm_is_defined(x)
                && other.xmm_is_defined(x)
                && first.read_xmm(x) != other.read_xmm(x)
            {
                out.locs.xmms.insert(x);
            }
        }
        for f in Flag::ALL {
            if first.flag_is_defined(f)
                && other.flag_is_defined(f)
                && first.read_flag(f) != other.read_flag(f)
            {
                out.locs.flags.insert(f);
            }
        }
        for addr in MEMORY {
            if first.memory.peek(addr) != other.memory.peek(addr) && !out.bytes.contains(&addr) {
                out.bytes.push(addr);
            }
        }
    }
    out.bytes.sort_unstable();
    out
}

/// The static exit fact of `instrs` from `secrets`.
fn exit_fact(instrs: &[Instruction], secrets: &LocSet) -> TaintFact {
    let refs: Vec<&Instruction> = instrs.iter().collect();
    taint_analysis(&refs, secrets).pop().expect("the exit fact")
}

/// A description of every secret-dependent output the static exit fact
/// leaves untainted, or `None` when there is none.
fn missed_flows(diff: &Differences, exit: &TaintFact) -> Option<String> {
    let missed = &diff.locs - &exit.locs;
    let memory = !diff.bytes.is_empty() && !exit.mem;
    (!missed.is_empty() || memory).then(|| {
        format!(
            "secret-dependent {missed:?}{} untainted in the exit fact {exit:?}",
            if memory { " and memory" } else { "" }
        )
    })
}

/// A hand-written case: `text` from a fixed state with `setup` applied,
/// `secrets` secret. Returns what differs, after checking that none of it
/// is missed by the analysis.
fn check(text: &str, secrets: &[Gpr], setup: &[(Gpr, u64)]) -> Differences {
    let program: Program = text.parse().unwrap();
    let mut input = random_state(7);
    for &(g, v) in setup {
        input.set_gpr64(g, v);
    }
    let secrets = LocSet::from_gprs(secrets.iter().copied());
    let diff = differences(program.instrs(), &input, &secrets, 11);
    if let Some(missed) = missed_flows(&diff, &exit_fact(program.instrs(), &secrets)) {
        panic!("{text}: {missed}");
    }
    diff
}

#[test]
fn a_cmov_that_keeps_a_secret_leaks_it() {
    let diff = check(
        "cmpq rsi, rdx\ncmoveq rsi, rax",
        &[Gpr::Rax],
        &[(Gpr::Rsi, 1), (Gpr::Rdx, 2)],
    );
    assert!(diff.locs.gprs.contains(&Gpr::Rax));
}

#[test]
fn a_multiply_leaks_through_the_zero_flag() {
    let diff = check("imulq rdi, rax\nsete cl", &[Gpr::Rdi], &[(Gpr::Rax, 5)]);
    assert!(diff.locs.gprs.contains(&Gpr::Rcx));
}

#[test]
fn a_bit_scan_of_zero_keeps_a_secret_destination() {
    let diff = check("bsfq rdi, rax", &[Gpr::Rax], &[(Gpr::Rdi, 0)]);
    assert!(diff.locs.gprs.contains(&Gpr::Rax));
}

#[test]
fn memory_bytes_are_tracked_precisely() {
    let diff = check("movq rdi, -8(rsp)\nmovq rsi, -16(rsp)", &[Gpr::Rdi], &[]);
    assert_eq!(diff.bytes, (0x8000 - 8..0x8000).collect::<Vec<_>>());
    // A public store over the secret bytes leaves nothing to observe but
    // the secret register itself.
    let diff = check(
        "movq rdi, -8(rsp)\nmovq rsi, -8(rsp)\nmovq -8(rsp), rax",
        &[Gpr::Rdi],
        &[],
    );
    assert!(diff.bytes.is_empty());
    assert_eq!(diff.locs, LocSet::from_gprs([Gpr::Rdi]));
}

#[test]
fn secret_128_bit_store_taints_sixteen_bytes() {
    let diff = check(
        "movq rdi, xmm0\npunpcklqdq xmm0, xmm0\nmovdqu xmm0, -32(rsp)",
        &[Gpr::Rdi],
        &[],
    );
    let base = 0x8000 - 32;
    assert_eq!(diff.bytes, (base..base + 16).collect::<Vec<_>>());
}

proptest! {
    /// Soundness of the static analysis by noninterference: every output
    /// the secrets can change is tainted in the static exit fact, and any
    /// changed memory byte implies the static (single-bit) memory taint.
    #[test]
    fn static_taint_over_approximates_dynamic_flows(
        program_seed in any::<u64>(),
        state_seed in any::<u64>(),
        secret_seed in any::<u64>(),
        len in 1usize..10,
    ) {
        let instrs = random_program(program_seed, len);
        let input = random_state(state_seed);
        let secrets = random_secrets(secret_seed);
        let diff = differences(&instrs, &input, &secrets, secret_seed);
        let exit = exit_fact(&instrs, &secrets);
        let missed = missed_flows(&diff, &exit);
        prop_assert!(missed.is_none(), "{:?}: {}", instrs, missed.unwrap_or_default());
    }

    /// With no secrets, nothing is ever tainted and no run differs.
    #[test]
    fn no_secrets_no_taint(
        program_seed in any::<u64>(),
        state_seed in any::<u64>(),
        len in 1usize..10,
    ) {
        let instrs = random_program(program_seed, len);
        let input = random_state(state_seed);
        let secrets = LocSet::new();
        let diff = differences(&instrs, &input, &secrets, state_seed);
        prop_assert!(diff.locs.is_empty() && diff.bytes.is_empty());
        let exit = exit_fact(&instrs, &secrets);
        prop_assert!(exit.locs.is_empty());
        prop_assert!(!exit.mem);
    }
}
