//! # stoke-bench
//!
//! The experiment harness: helpers shared by the `experiments` binary that
//! regenerates every figure and table of the paper's evaluation (see the README's "Reproducing the paper's figures"
//! section for the figure index and how to run it).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Arc;
use stoke::{Config, InputSpec, SearchObserver, Session, StokeResult, TargetSpec};
use stoke_obs::{MetricsRegistry, TraceSink};
use stoke_workloads::{Kernel, ParamKind};
use stoke_x86::Gpr;

/// System V parameter registers, in order.
pub const PARAM_REGS: [Gpr; 6] = [Gpr::Rdi, Gpr::Rsi, Gpr::Rdx, Gpr::Rcx, Gpr::R8, Gpr::R9];

/// Build a [`TargetSpec`] for a kernel's `llvm -O0`-style target.
pub fn spec_for(kernel: &Kernel) -> TargetSpec {
    let inputs: Vec<InputSpec> = kernel
        .params
        .iter()
        .enumerate()
        .map(|(i, kind)| match kind {
            ParamKind::Value32 => InputSpec::value32(PARAM_REGS[i]),
            ParamKind::Value64 => InputSpec::value64(PARAM_REGS[i]),
            // Keep buffer elements small so 16-bit-lane vector rewrites
            // (Figure 14) agree with the scalar semantics.
            ParamKind::Pointer(len) => InputSpec::pointer_masked(PARAM_REGS[i], *len, 0x3fff),
        })
        .collect();
    TargetSpec::new(kernel.target_o0(), inputs, kernel.live_out.clone())
}

/// A search configuration scaled to finish a whole 28-kernel sweep on a
/// laptop in minutes rather than the paper's 40-node-cluster half hours.
pub fn sweep_config(iterations: u64, threads: usize) -> Config {
    Config {
        ell: 24,
        num_testcases: 16,
        synthesis_iterations: iterations / 4,
        optimization_iterations: iterations,
        threads,
        ..Config::default()
    }
}

/// Run STOKE on one kernel with the sweep configuration.
pub fn run_kernel(kernel: &Kernel, iterations: u64, threads: usize) -> StokeResult {
    run_kernel_observed(kernel, iterations, threads, Arc::new(stoke::NullObserver))
}

/// Run STOKE on one kernel, streaming pipeline events to `observer` (used
/// by the `experiments` binary to report per-phase progress).
pub fn run_kernel_observed(
    kernel: &Kernel,
    iterations: u64,
    threads: usize,
    observer: Arc<dyn SearchObserver>,
) -> StokeResult {
    run_kernel_instrumented(kernel, iterations, threads, observer, None, None)
}

/// Run STOKE on one kernel with optional observability attached: a
/// metrics registry recording the `stoke_*` families and/or a structured
/// trace sink. Both are passive — fixed-seed results are bit-identical
/// with and without them.
pub fn run_kernel_instrumented(
    kernel: &Kernel,
    iterations: u64,
    threads: usize,
    observer: Arc<dyn SearchObserver>,
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<dyn TraceSink>>,
) -> StokeResult {
    let spec = spec_for(kernel);
    let mut session = Session::new(sweep_config(iterations, threads)).with_observer(observer);
    if let Some(registry) = metrics {
        session = session.with_metrics(registry);
    }
    if let Some(sink) = trace {
        session = session.with_trace(sink);
    }
    session
        .run(&spec)
        .expect("kernel sweep targets are non-empty and the sweep config is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoke_workloads::hackers_delight;

    #[test]
    fn spec_for_maps_parameters_to_registers() {
        let spec = spec_for(&hackers_delight::p14());
        assert_eq!(spec.inputs.len(), 2);
        assert_eq!(spec.inputs[0].reg, Gpr::Rdi);
        assert_eq!(spec.inputs[1].reg, Gpr::Rsi);
        assert!(!spec.program.is_empty());
    }

    #[test]
    fn run_kernel_quickly_improves_p01() {
        let result = run_kernel(&hackers_delight::p01(), 10_000, 1);
        assert!(result.rewrite_latency <= result.target_latency);
    }
}
