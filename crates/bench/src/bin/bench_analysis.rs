//! Regenerates `BENCH_analysis.json`: median per-call times of the static
//! analyses that the security-aware pipeline runs on every scored or
//! verified candidate — forward taint + constant-time scan, backward
//! liveness + dead-code report (`stoke_x86::flow`), and the relative
//! leakage check — on the Montgomery and p01 kernels. These numbers bound
//! the overhead the analyses add per proposal/verification, so they are
//! tracked across releases.
//!
//! ```text
//! cargo run --release -p stoke-bench --bin bench-analysis -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks the sample count to a smoke-test size (used by CI to
//! keep the harness from rotting); `--out` overrides the output path
//! (default `BENCH_analysis.json` in the current directory).

use std::time::Instant;
use stoke_analysis::{constant_time_violations, introduces_new_leaks, taint_analysis};
use stoke_bench::spec_for;
use stoke_workloads::{hackers_delight, kernels, Kernel};
use stoke_x86::flow::{self, LocSet};
use stoke_x86::{Gpr, Instruction};

struct Measurement {
    analysis: &'static str,
    median_ns_per_call: f64,
    calls_per_sec: f64,
}

/// Median nanoseconds per call: `samples` timed batches of `iters` calls
/// each, median of the per-call means. The closure folds a value into the
/// sink so the analysis cannot be optimized away.
fn measure(mut call: impl FnMut() -> u64, iters: u32, samples: usize, sink: &mut u64) -> f64 {
    for _ in 0..iters {
        *sink = sink.wrapping_add(call());
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                *sink = sink.wrapping_add(call());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    per_call[samples / 2]
}

fn bench_kernel(kernel: &Kernel, iters: u32, samples: usize, sink: &mut u64) -> Vec<Measurement> {
    let spec = spec_for(kernel);
    // Pretend the first parameter is the secret: the analyses' cost is
    // dominated by program length, not by which register seeds the taint.
    let secrets = LocSet::from_gprs([Gpr::Rdi]);
    let live_out = spec.live_out.clone();
    let instrs: Vec<Instruction> = spec.program.iter().cloned().collect();
    let refs: Vec<&Instruction> = instrs.iter().collect();
    let mut out = Vec::new();
    let median = measure(
        || {
            taint_analysis(&refs, &secrets)
                .last()
                .map_or(0, |exit| exit.locs.len()) as u64
        },
        iters,
        samples,
        sink,
    );
    out.push(Measurement {
        analysis: "taint",
        median_ns_per_call: median,
        calls_per_sec: 1e9 / median,
    });
    let median = measure(
        || constant_time_violations(refs.iter().copied(), &secrets).len() as u64,
        iters,
        samples,
        sink,
    );
    out.push(Measurement {
        analysis: "constant_time",
        median_ns_per_call: median,
        calls_per_sec: 1e9 / median,
    });
    let median = measure(
        || flow::dead_instructions(&spec.program, &live_out).len() as u64,
        iters,
        samples,
        sink,
    );
    out.push(Measurement {
        analysis: "dead_code",
        median_ns_per_call: median,
        calls_per_sec: 1e9 / median,
    });
    let median = measure(
        || introduces_new_leaks(refs.iter().copied(), refs.iter().copied(), &secrets).len() as u64,
        iters,
        samples,
        sink,
    );
    out.push(Measurement {
        analysis: "relative_leakage",
        median_ns_per_call: median,
        calls_per_sec: 1e9 / median,
    });
    out
}

fn json_for(kernel: &Kernel, measurements: &[Measurement]) -> String {
    let mut out = format!(
        "    {{\n      \"kernel\": \"{}\",\n      \"instructions\": {},\n",
        kernel.name,
        kernel.target_o0().len()
    );
    let last = measurements.len() - 1;
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "      \"{}\": {{ \"median_ns_per_call\": {:.1}, \"calls_per_sec\": {:.1} }}{}\n",
            m.analysis,
            m.median_ns_per_call,
            m.calls_per_sec,
            if i == last { "" } else { "," }
        ));
    }
    out.push_str("    }");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_analysis.json".to_string());
    let (iters, samples) = if quick { (50, 3) } else { (5_000, 15) };
    let mut sink = 0u64;
    let kernels = [kernels::montgomery(), hackers_delight::p01()];
    let mut entries = Vec::new();
    for kernel in &kernels {
        eprintln!("benchmarking static analyses on {}...", kernel.name);
        let measurements = bench_kernel(kernel, iters, samples, &mut sink);
        for m in &measurements {
            eprintln!(
                "  {:<17} {:>9.1} ns/call  {:>13.1} calls/s",
                m.analysis, m.median_ns_per_call, m.calls_per_sec
            );
        }
        entries.push(json_for(kernel, &measurements));
    }
    let json = format!(
        "{{\n  \"description\": \"median per-call time of the static analyses \
         (taint + constant-time scan, dead-code report, relative leakage \
         check); regenerate with: cargo run --release -p stoke-bench --bin \
         bench-analysis\",\n  \"quick\": {quick},\n  \"samples_per_analysis\": {samples},\n  \
         \"calls_per_sample\": {iters},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");
    eprintln!("wrote {out_path} (sink {sink:x})");
}
