//! Pins the work of eight validator queries: term count, SAT variables,
//! clauses (learnt ones included) and solver conflicts.
//!
//! The SAT solver's search is deterministic, so a change to its data
//! structures that keeps the search the same (see the `stoke_solver::sat`
//! module doc) keeps all four numbers. A change in the conflict count
//! means the solver now makes different decisions: a heuristic change,
//! which should be a deliberate one, judged on the whole validation
//! table, with these values re-recorded. The same holds for the CNF the
//! bit-blaster emits (see the `stoke_solver::blast` module doc).
//!
//! With structural gate hashing an `-O0` ≡ `-O2` miter is mostly one
//! shared circuit and decides without a conflict. Without it p09 and p19
//! took 9 217 and 11 555 conflicts, and p25 and saxpy ran for minutes, so
//! a change that loses the sharing shows here first.

use stoke_suite::verify::{ValidationStats, Validator};
use stoke_suite::workloads::{hackers_delight as hd, kernels, Kernel};
use stoke_suite::x86::Program;

/// Prove the kernel's `-O0` target equivalent to `candidate` over its live
/// outputs and return the query's statistics.
fn stats(kernel: &Kernel, candidate: &Program) -> ValidationStats {
    let (verdict, stats) =
        Validator::new(kernel.live_out.clone()).prove(&kernel.target_o0(), candidate);
    assert!(verdict.is_equivalent(), "{}: not proven", kernel.name);
    stats
}

fn expect(stats: ValidationStats, terms: usize, sat_vars: usize, clauses: usize, conflicts: u64) {
    assert_eq!(
        stats,
        ValidationStats {
            terms,
            sat_vars,
            clauses,
            conflicts,
        }
    );
}

#[test]
fn p09_o0_against_o2() {
    let kernel = hd::p09();
    expect(stats(&kernel, &kernel.baseline_o2()), 224, 251, 653, 0);
}

#[test]
fn p14_o0_against_o2() {
    let kernel = hd::p14();
    expect(stats(&kernel, &kernel.baseline_o2()), 271, 347, 750, 0);
}

#[test]
fn p15_o0_against_o2() {
    let kernel = hd::p15();
    expect(stats(&kernel, &kernel.baseline_o2()), 273, 349, 756, 0);
}

#[test]
fn p16_o0_against_o2() {
    let kernel = hd::p16();
    expect(stats(&kernel, &kernel.baseline_o2()), 336, 354, 774, 0);
}

#[test]
fn p19_o0_against_o2() {
    let kernel = hd::p19();
    expect(stats(&kernel, &kernel.baseline_o2()), 394, 1353, 3578, 0);
}

#[test]
fn p25_o0_against_o2() {
    let kernel = hd::p25();
    expect(stats(&kernel, &kernel.baseline_o2()), 941, 6197, 20250, 0);
}

#[test]
fn saxpy_o0_against_o2() {
    let kernel = kernels::saxpy();
    expect(
        stats(&kernel, &kernel.baseline_o2()),
        1785,
        95906,
        342050,
        0,
    );
}

#[test]
fn p21_o0_against_paper_rewrite() {
    let kernel = hd::p21();
    let rewrite: Program = kernel
        .paper_rewrite
        .expect("p21 has a paper rewrite")
        .parse()
        .expect("the paper rewrite parses");
    expect(stats(&kernel, &rewrite), 400, 1270, 3844, 487);
}
