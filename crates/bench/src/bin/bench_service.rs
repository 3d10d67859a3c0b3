//! Regenerates `BENCH_service.json`: median end-to-end latency of a cold
//! search vs a canonical cache hit through `stoke-serve`, plus the queue
//! throughput when every job is served from the cache — the numbers
//! behind "solve once, serve forever".
//!
//! ```text
//! cargo run --release -p stoke-bench --bin bench-service -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks the sample counts to a smoke-test size (used by CI
//! to keep the harness from rotting); `--out` overrides the output path
//! (default `BENCH_service.json` in the current directory).

use std::sync::Arc;
use std::time::{Duration, Instant};
use stoke::{Budget, Config, InputSpec, TargetSpec, TestOnly};
use stoke_serve::{Disposition, ServeConfig, Service};
use stoke_workloads::kernels::MONT_GCC_O3;
use stoke_x86::flow::LocSet;
use stoke_x86::{Gpr, Program};

/// The Montgomery kernel under the paper's register convention — the same
/// workload the `serve` example uses.
fn montgomery_spec() -> TargetSpec {
    let gcc: Program = MONT_GCC_O3.parse().expect("paper gcc code parses");
    TargetSpec::new(
        gcc,
        vec![
            InputSpec::value64(Gpr::Rsi),
            InputSpec::value32(Gpr::Rcx),
            InputSpec::value32(Gpr::Rdx),
            InputSpec::value64(Gpr::Rdi),
            InputSpec::value64(Gpr::R8),
        ],
        LocSet::from_gprs([Gpr::Rdi, Gpr::R8]),
    )
}

fn serve_config() -> ServeConfig {
    let config = Config::builder()
        .ell(30)
        .num_testcases(16)
        .synthesis_iterations(2_000)
        .optimization_iterations(10_000)
        .threads(2)
        .build()
        .expect("configuration is valid");
    let mut serve = ServeConfig::new(config);
    serve.job_budget = Budget::unlimited().with_wall_clock(Duration::from_secs(300));
    serve.verifier = Some(Arc::new(TestOnly));
    serve
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Median cold-search latency: each sample runs on a fresh service, so the
/// cache can never short-circuit it.
fn bench_cold(samples: usize) -> (Duration, u64) {
    let mut latencies = Vec::with_capacity(samples);
    let mut proposals = 0;
    for _ in 0..samples {
        let service = Service::start(serve_config()).expect("service starts");
        let t0 = Instant::now();
        let job = service.submit(montgomery_spec());
        let outcome = service.wait(job).expect("cold job completes");
        latencies.push(t0.elapsed());
        assert_eq!(outcome.disposition, Disposition::ColdSearch);
        proposals = outcome
            .result
            .expect("cold search succeeds")
            .stats
            .total_proposals();
        service.shutdown().expect("clean shutdown");
    }
    (median(latencies), proposals)
}

/// Median cache-hit latency: one service, solved once, then each sample is
/// a full submit/wait round trip served from the cache.
fn bench_hits(samples: usize) -> Duration {
    let service = Service::start(serve_config()).expect("service starts");
    let warm = service.submit(montgomery_spec());
    service
        .wait(warm)
        .expect("seed job completes")
        .result
        .expect("seed search succeeds");
    let mut latencies = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let job = service.submit(montgomery_spec());
        let outcome = service.wait(job).expect("hit completes");
        latencies.push(t0.elapsed());
        assert_eq!(outcome.disposition, Disposition::CacheHit);
    }
    service.shutdown().expect("clean shutdown");
    median(latencies)
}

/// Queue throughput on an all-hit workload: `jobs` submissions enqueued up
/// front, then drained; jobs per second of wall clock.
fn bench_throughput(jobs: usize) -> f64 {
    let service = Service::start(serve_config()).expect("service starts");
    let warm = service.submit(montgomery_spec());
    service
        .wait(warm)
        .expect("seed job completes")
        .result
        .expect("seed search succeeds");
    let t0 = Instant::now();
    let ids: Vec<_> = (0..jobs)
        .map(|_| service.submit(montgomery_spec()))
        .collect();
    for id in ids {
        service.wait(id).expect("queued job completes");
    }
    let elapsed = t0.elapsed();
    let stats = service.shutdown().expect("clean shutdown");
    assert_eq!(stats.cache_hits, jobs as u64);
    jobs as f64 / elapsed.as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_service.json".to_string());
    let (cold_samples, hit_samples, throughput_jobs) =
        if quick { (3, 20, 50) } else { (9, 200, 500) };

    eprintln!("benchmarking cold searches ({cold_samples} fresh services)...");
    let (cold, proposals) = bench_cold(cold_samples);
    eprintln!("  median {cold:?} ({proposals} proposals each)");
    eprintln!("benchmarking cache hits ({hit_samples} resubmissions)...");
    let hit = bench_hits(hit_samples);
    eprintln!("  median {hit:?}");
    eprintln!("benchmarking queue throughput ({throughput_jobs} enqueued jobs)...");
    let throughput = bench_throughput(throughput_jobs);
    eprintln!("  {throughput:.0} jobs/s");

    let speedup = cold.as_secs_f64() / hit.as_secs_f64().max(1e-12);
    let json = format!(
        "{{\n  \"description\": \"stoke-serve latency medians: cold pipeline search vs \
         canonical cache hit on the Montgomery kernel, plus all-hit queue throughput; \
         regenerate with: cargo run --release -p stoke-bench --bin bench-service\",\n  \
         \"quick\": {quick},\n  \"kernel\": \"mont\",\n  \
         \"cold_search\": {{ \"samples\": {cold_samples}, \"median_ms\": {:.3}, \
         \"proposals_per_search\": {proposals} }},\n  \
         \"cache_hit\": {{ \"samples\": {hit_samples}, \"median_us\": {:.1} }},\n  \
         \"speedup_hit_vs_cold\": {:.0},\n  \
         \"queue_throughput_jobs_per_sec\": {:.0}\n}}\n",
        cold.as_secs_f64() * 1e3,
        hit.as_secs_f64() * 1e6,
        speedup,
        throughput,
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");
    eprintln!("wrote {out_path}");
}
