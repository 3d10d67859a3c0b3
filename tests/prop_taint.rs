//! Property test for the constant-time analyses: the *static* taint
//! analysis of `stoke-analysis` must over-approximate every *dynamic*
//! secret flow observed by the emulator's shadow propagation
//! (`stoke_emu::run_tainted`) — on random programs drawn from the MCMC
//! proposal distribution, random machine states, and random secret sets.
//! A dynamic flow the static analysis misses would let a leaky rewrite
//! through the constant-time cost penalty and the leakage verifier.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stoke_suite::analysis::taint_analysis;
use stoke_suite::emu::{run_tainted, MachineState};
use stoke_suite::stoke::{Config, Proposer};
use stoke_suite::x86::flow::LocSet;
use stoke_suite::x86::{Flag, Gpr, Instruction, Xmm};

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
    state.memory.mark_valid(0x7000, 0x1010);
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

proptest! {
    /// Soundness of the static analysis with respect to the dynamic
    /// oracle: every location the shadow execution ends with tainted is
    /// tainted in the static exit fact, and any tainted memory byte
    /// implies the static (single-bit) memory taint.
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
        let (_, dynamic) = run_tainted(&instrs, &input, &secrets);
        let refs: Vec<&Instruction> = instrs.iter().collect();
        let facts = taint_analysis(&refs, &secrets);
        let exit = facts.last().expect("the exit fact");
        let observed = dynamic.tainted_locs();
        for g in &observed.gprs {
            prop_assert!(
                exit.locs.gprs.contains(g),
                "dynamic taint on {g:?} missed by the static analysis"
            );
        }
        for x in &observed.xmms {
            prop_assert!(
                exit.locs.xmms.contains(x),
                "dynamic taint on {x:?} missed by the static analysis"
            );
        }
        for f in &observed.flags {
            prop_assert!(
                exit.locs.flags.contains(f),
                "dynamic taint on flag {f:?} missed by the static analysis"
            );
        }
        if !dynamic.mem().is_empty() {
            prop_assert!(
                exit.mem,
                "dynamically tainted memory bytes missed by the static analysis"
            );
        }
    }

    /// With no secrets, nothing is ever tainted — either way.
    #[test]
    fn no_secrets_no_taint(
        program_seed in any::<u64>(),
        state_seed in any::<u64>(),
        len in 1usize..10,
    ) {
        let instrs = random_program(program_seed, len);
        let input = random_state(state_seed);
        let secrets = LocSet::new();
        let (_, dynamic) = run_tainted(&instrs, &input, &secrets);
        prop_assert!(dynamic.tainted_locs().is_empty());
        prop_assert!(dynamic.mem().is_empty());
        let refs: Vec<&Instruction> = instrs.iter().collect();
        let exit = taint_analysis(&refs, &secrets).pop().expect("the exit fact");
        prop_assert!(exit.locs.is_empty());
        prop_assert!(!exit.mem);
    }
}
