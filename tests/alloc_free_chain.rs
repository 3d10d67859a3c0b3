//! The MCMC chain's steady state allocates nothing.
//!
//! A counting global allocator counts the allocations made on the calling
//! thread. Two chains of the same seed, one of 1 000 and one of 4 000
//! proposals, differ only in their extra 3 000 proposals, so the
//! difference of their counts is what those proposals allocated: set-up
//! (test suite, buffers, opcode classes, the result) cancels out. The
//! gate covers an optimization chain on the Montgomery kernel and a
//! synthesis chain on Hacker's Delight p01.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stoke_suite::stoke::{
    generate_testcases, Chain, Config, CostFn, InputSpec, Rewrite, StopReason, TargetSpec,
};
use stoke_suite::workloads::{hackers_delight, kernels, Kernel, ParamKind};
use stoke_suite::x86::Gpr;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting `alloc`, `alloc_zeroed` and
/// `realloc` calls per thread (tests run on parallel threads).
struct Counting;

fn count() {
    // `try_with`: the allocator may run while the thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the const-initialized thread-local
// counter neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SHORT: u64 = 1_000;
const LONG: u64 = 4_000;

fn spec_for(kernel: &Kernel) -> TargetSpec {
    const PARAMS: [Gpr; 6] = [Gpr::Rdi, Gpr::Rsi, Gpr::Rdx, Gpr::Rcx, Gpr::R8, Gpr::R9];
    let inputs = kernel
        .params
        .iter()
        .zip(PARAMS)
        .map(|(kind, reg)| match kind {
            ParamKind::Value32 => InputSpec::value32(reg),
            ParamKind::Value64 => InputSpec::value64(reg),
            ParamKind::Pointer(len) => InputSpec::pointer(reg, *len),
        })
        .collect();
    TargetSpec::new(kernel.target_o0(), inputs, kernel.live_out.clone())
}

/// Allocations made by one complete chain run of `proposals` proposals on
/// this thread, checking that the chain used its whole budget.
fn chain_allocations(kernel: &Kernel, optimization: bool, proposals: u64) -> u64 {
    let spec = spec_for(kernel);
    let config = Config::builder()
        .ell(24)
        .num_testcases(16)
        .build()
        .expect("valid configuration");
    let suite = generate_testcases(&spec, config.num_testcases, config.seed);
    let mut cost_fn = CostFn::new(config.clone(), suite, spec.program.static_latency());
    let before = ALLOCATIONS.with(Cell::get);
    let mut chain = Chain::new(&mut cost_fn, 7, optimization);
    let start = if optimization {
        Rewrite::from_program(&spec.program, config.ell)
    } else {
        Rewrite::empty(config.ell)
    };
    let result = chain.run(start, proposals);
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(result.stop, StopReason::Completed, "{}", kernel.name);
    assert_eq!(result.proposals, proposals);
    assert!(result.accepted > 0, "{}: the chain must move", kernel.name);
    after - before
}

fn assert_allocation_free(kernel: Kernel, optimization: bool) {
    // Warm up once so lazily initialized process state is not charged to
    // either measured run.
    chain_allocations(&kernel, optimization, SHORT);
    let short = chain_allocations(&kernel, optimization, SHORT);
    let long = chain_allocations(&kernel, optimization, LONG);
    assert_eq!(
        long.saturating_sub(short),
        0,
        "{}: {} extra allocations over {} steady-state proposals ({short} vs {long})",
        kernel.name,
        long.saturating_sub(short),
        LONG - SHORT,
    );
}

#[test]
fn mont_optimization_chain_allocates_nothing_per_proposal() {
    assert_allocation_free(kernels::montgomery(), true);
}

#[test]
fn p01_synthesis_chain_allocates_nothing_per_proposal() {
    assert_allocation_free(hackers_delight::p01(), false);
}
