//! Helpers shared by the workloads: kernel interfaces, seeded input
//! generation (renamings, shuffles, derived seeds), the fresh-test-case
//! output check, and process measurements.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stoke::{generate_testcases, Config, CostFn, InputSpec, TargetSpec};
use stoke_workloads::{Kernel, ParamKind};
use stoke_x86::canon::{pinned_registers, Renaming};
use stoke_x86::flow::LocSet;
use stoke_x86::{Gpr, Program};

/// System V parameter registers, in order.
const PARAM_REGS: [Gpr; 6] = [Gpr::Rdi, Gpr::Rsi, Gpr::Rdx, Gpr::Rcx, Gpr::R8, Gpr::R9];

/// Test cases in each fresh output check.
const FRESH_CASES: usize = 32;

/// The kernel's `llvm -O0`-style target with its System V interface.
pub fn spec_for(kernel: &Kernel) -> TargetSpec {
    spec_with_program(kernel, kernel.target_o0())
}

/// `program` under `kernel`'s interface.
pub fn spec_with_program(kernel: &Kernel, program: Program) -> TargetSpec {
    let inputs = kernel
        .params
        .iter()
        .enumerate()
        .map(|(i, kind)| match kind {
            ParamKind::Value32 => InputSpec::value32(PARAM_REGS[i]),
            ParamKind::Value64 => InputSpec::value64(PARAM_REGS[i]),
            ParamKind::Pointer(len) => InputSpec::pointer_masked(PARAM_REGS[i], *len, 0x3fff),
        })
        .collect();
    TargetSpec::new(program, inputs, kernel.live_out.clone())
}

/// A seed for a named purpose, derived from the workload seed so that two
/// purposes never share a random stream.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random generator for a named purpose.
pub fn rng_for(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, purpose))
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A random permutation of the registers `spec` mentions (its program's
/// operands and its interface) that the program does not pin (see
/// [`pinned_registers`]); every other register maps to itself.
///
/// Registers the target never mentions stay fixed on purpose: a rewrite
/// may read such a register, which is zero in every generated test case,
/// and a cache hit's inverse renaming could then move that read onto an
/// input register of the resubmitted target.
pub fn random_renaming(rng: &mut StdRng, spec: &TargetSpec) -> Renaming {
    let pinned = pinned_registers(&spec.program);
    let mut mentioned = [false; 16];
    for instr in spec.program.iter() {
        for op in instr.operands() {
            if let Some(reg) = op.as_reg() {
                mentioned[reg.parent().index()] = true;
            }
            if let Some(mem) = op.as_mem() {
                for g in mem.regs() {
                    mentioned[g.index()] = true;
                }
            }
        }
    }
    for g in spec
        .inputs
        .iter()
        .map(|i| i.reg)
        .chain(spec.live_out.gprs.iter().copied())
    {
        mentioned[g.index()] = true;
    }
    let slots: Vec<Gpr> = Gpr::ALL
        .iter()
        .copied()
        .filter(|g| mentioned[g.index()] && !pinned[g.index()])
        .collect();
    let mut targets = slots.clone();
    shuffle(rng, &mut targets);
    let mut map = Gpr::ALL;
    for (from, to) in slots.iter().zip(targets) {
        map[from.index()] = to;
    }
    Renaming::from_map(map).expect("a permutation of the free registers is a renaming")
}

/// `spec` with every register of its program, inputs and live outputs
/// renamed by `pi`; input kinds are kept.
pub fn rename_spec(spec: &TargetSpec, pi: &Renaming) -> TargetSpec {
    let inputs = spec
        .inputs
        .iter()
        .map(|input| InputSpec {
            reg: pi.apply_gpr(input.reg),
            ..input.clone()
        })
        .collect();
    let live_out = LocSet {
        gprs: spec
            .live_out
            .gprs
            .iter()
            .map(|g| pi.apply_gpr(*g))
            .collect(),
        ..spec.live_out.clone()
    };
    TargetSpec::new(pi.apply_program(&spec.program), inputs, live_out)
}

/// Whether `rewrite` agrees with `spec`'s target on [`FRESH_CASES`] test
/// cases drawn from `fresh_seed`, a seed the search never used.
pub fn passes_fresh(
    config: &Config,
    spec: &TargetSpec,
    rewrite: &Program,
    fresh_seed: u64,
) -> bool {
    passes_cases(config, spec, rewrite, FRESH_CASES, fresh_seed)
}

/// Whether `rewrite` agrees with `spec`'s target (`eq' == 0`) on the `n`
/// test cases `generate_testcases` draws from `seed`.
pub fn passes_cases(
    config: &Config,
    spec: &TargetSpec,
    rewrite: &Program,
    n: usize,
    seed: u64,
) -> bool {
    let suite = generate_testcases(spec, n, seed);
    let mut cost = CostFn::new(config.clone(), suite, 0);
    cost.eq_prime(rewrite.instrs()) == 0
}

/// Run `f`, pushing its wall time in seconds onto `times`.
pub fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let out = f();
    times.push(t0.elapsed().as_secs_f64());
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_moves_only_mentioned_unpinned_registers() {
        let program: Program = "movq rdi, rax\nmulq rsi\nmovq rax, rcx".parse().unwrap();
        let spec = TargetSpec::with_gprs(program, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rcx]);
        let a = random_renaming(&mut rng_for(1, 2), &spec);
        let b = random_renaming(&mut rng_for(1, 2), &spec);
        for g in Gpr::ALL {
            assert_eq!(a.apply_gpr(g), b.apply_gpr(g));
            let mentioned = [Gpr::Rdi, Gpr::Rsi, Gpr::Rcx].contains(&g);
            assert!(
                mentioned || a.apply_gpr(g) == g,
                "{g:?} is pinned or unmentioned"
            );
        }
    }

    #[test]
    fn derived_seeds_differ_by_purpose() {
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }
}
