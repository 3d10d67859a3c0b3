//! Integration tests for the session-based driver API through the facade
//! crate: builder validation, budgets and cross-thread cancellation,
//! phase ordering in the trace, and the multi-target batch entry point.

use std::sync::Arc;
use std::time::{Duration, Instant};
use stoke_suite::obs::{RingSink, TraceRecord};
use stoke_suite::stoke::{
    Budget, Config, ConfigError, InputSpec, Session, StokeError, TargetSpec, Verification,
};
use stoke_suite::workloads::hackers_delight;
use stoke_suite::x86::Gpr;

fn p01_spec() -> TargetSpec {
    let kernel = hackers_delight::p01();
    TargetSpec::new(
        kernel.target_o0(),
        vec![InputSpec::value32(Gpr::Rdi)],
        kernel.live_out.clone(),
    )
}

fn quick_config() -> Config {
    Config::builder()
        .ell(16)
        .num_testcases(8)
        .synthesis_iterations(2_000)
        .optimization_iterations(10_000)
        .threads(1)
        .build()
        .expect("valid configuration")
}

#[test]
fn builder_validation_is_reachable_through_the_facade() {
    let err = Config::builder().threads(0).build().unwrap_err();
    assert_eq!(err, ConfigError::ZeroThreads);
}

#[test]
fn cancellation_from_another_thread_stops_the_search() {
    // An effectively unbounded synthesis phase, cancelled from a second
    // thread shortly after it starts: the run must come back quickly with
    // a partial result instead of grinding through the huge budget.
    let config = Config::builder()
        .ell(16)
        .num_testcases(8)
        .synthesis_iterations(u64::MAX / 2)
        .optimization_iterations(1_000)
        .threads(1)
        .build()
        .expect("valid configuration");
    let session = Session::new(config);
    let token = session.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
    });
    let t0 = Instant::now();
    let outcome = session.run(&p01_spec());
    canceller.join().expect("canceller thread");
    match outcome {
        Err(StokeError::BudgetExhausted { partial }) => {
            assert!(
                partial.stats.synthesis_proposals > 0,
                "search never started"
            );
        }
        other => panic!("expected BudgetExhausted after cancellation, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "cancellation did not preempt the search"
    );
}

#[test]
fn batch_runs_a_small_workload_end_to_end() {
    let kernels = [hackers_delight::p01(), hackers_delight::p14()];
    let specs: Vec<TargetSpec> = kernels
        .iter()
        .map(|kernel| {
            let inputs = [Gpr::Rdi, Gpr::Rsi]
                .iter()
                .take(kernel.ir.num_params)
                .map(|g| InputSpec::value32(*g))
                .collect();
            TargetSpec::new(kernel.target_o0(), inputs, kernel.live_out.clone())
        })
        .collect();
    let ring = Arc::new(RingSink::new(1 << 16));
    let session = Session::new(quick_config()).with_trace(ring.clone());
    let results = session.run_batch(&specs);
    assert_eq!(results.len(), 2);
    for (kernel, result) in kernels.iter().zip(&results) {
        let result = result.as_ref().expect("batch target succeeds");
        assert!(
            result.rewrite_latency <= result.target_latency,
            "{}: batch rewrite must not be slower than the target",
            kernel.name
        );
        assert_ne!(result.verification, Verification::TargetReturned);
    }
    // Each target went through the full pipeline, phases in order.
    assert_eq!(ring.dropped(), 0);
    let records = ring.records();
    for target in 0..2 {
        let phases: Vec<&str> = records
            .iter()
            .filter_map(|(_, r)| match r {
                TraceRecord::SpanStart { target: t, name } if *t == target => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            phases,
            [
                "phase:testcases",
                "phase:synthesis",
                "phase:optimization",
                "phase:validation"
            ],
            "target {target} phases out of order"
        );
    }
}

#[test]
fn a_batch_wall_clock_budget_is_shared_across_targets() {
    // With a deadline that expires mid-batch, later targets must come back
    // as BudgetExhausted rather than starting fresh clocks.
    let config = Config::builder()
        .ell(16)
        .num_testcases(8)
        .synthesis_iterations(u64::MAX / 2)
        .optimization_iterations(1_000)
        .threads(1)
        .build()
        .expect("valid configuration");
    let session = Session::new(config)
        .with_budget(Budget::unlimited().with_wall_clock(Duration::from_millis(50)));
    let specs = vec![p01_spec(), p01_spec()];
    let results = session.run_batch(&specs);
    assert_eq!(results.len(), 2);
    for result in &results {
        assert!(
            matches!(result, Err(StokeError::BudgetExhausted { .. })),
            "expected BudgetExhausted for every target, got {result:?}"
        );
    }
}
