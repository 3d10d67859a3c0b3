//! The STOKE reproduction's benchmark: three seeded workloads driven
//! through the public API, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search|validate|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation
//! attached. `--trace 1` is a separate run that wraps each layer's public
//! entry points with timers and spans and reports the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! See `perfbench/README.md` for the workloads, metrics and their reasons.

mod alloc;
mod common;
mod machine;
mod report;
mod search;
mod serve;
mod spans;
mod stats;
mod validate;

use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("pass_s", "s"),
    ("op_ms_iqm", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("speedup_geomean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "share"),
];

/// Kernels of the `search` workload, in the order of their per-kernel rows.
pub const SEARCH_KERNELS: [&str; 6] = ["p01", "p18", "p21", "p23", "p20", "mont"];

/// Per-layer metrics, printed by every traced run, with their units. A
/// layer a workload does not exercise reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("driver.testcases_s", "s"),
    ("driver.synthesis_s", "s"),
    ("driver.optimization_s", "s"),
    ("driver.validation_s", "s"),
    ("driver.accounted_frac", "share"),
    ("driver.fresh_ok_frac", "share"),
    ("mcmc.proposals_per_s", "1/s"),
    ("mcmc.syn_ns_per_proposal", "ns"),
    ("mcmc.opt_ns_per_proposal", "ns"),
    ("mcmc.accept_frac", "share"),
    ("mcmc.noop_frac", "share"),
    ("mcmc.propose_ns", "ns"),
    ("mcmc.allocs_per_proposal", "count"),
    ("emu.prepare_ns", "ns"),
    ("model.perf_ns", "ns"),
    ("model.correctness_ns", "ns"),
    ("cost.early_exit_frac", "share"),
    ("cost.testcases_per_proposal", "count"),
    ("verifier.verify_s", "s"),
    ("verifier.cex", "count"),
    ("verify.prove_s_p50", "s"),
    ("verify.prove_s_max", "s"),
    ("verify.terms", "count"),
    ("verify.refuted_frac", "share"),
    ("serve.key_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.queue_wait_s_p50", "s"),
    ("serve.run_s_p50", "s"),
    ("serve.hit_frac", "share"),
    ("serve.warm_frac", "share"),
    ("serve.cold_frac", "share"),
    ("obs.overhead_frac", "share"),
    ("trace.overhead_frac", "share"),
];

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (searches, proofs, jobs).
    pub attempted: u64,
    /// One line per failed operation, naming it and the reason.
    pub failures: Vec<String>,
    /// Metric values by name: the end-to-end set, or the per-layer set
    /// (plus per-kernel rows) in a traced run.
    pub metrics: Vec<(String, f64)>,
    /// Lines printed before the result: digests and sample counts.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Record a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".to_string());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["search", "validate", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// Units of every metric a run of this kind must print, in order.
fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
    }
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for kernel in SEARCH_KERNELS {
        out.push((format!("kernel.{kernel}.search_s"), "s"));
        out.push((format!("kernel.{kernel}.ns_per_proposal"), "ns"));
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "search" => search::run(&args),
        "validate" => validate::run(&args),
        _ => serve::run(&args),
    };
    if !args.trace {
        report.set("peak_rss_mb", common::peak_rss_mb());
        let ok = 1.0 - report.failures.len() as f64 / report.attempted.max(1) as f64;
        report.set("ok_frac", ok);
    }

    // Every expected metric exactly once; a layer the workload did not
    // exercise reads 0.
    let mut rows: Vec<(String, f64, &'static str)> = Vec::new();
    for (name, unit) in expected(args.trace) {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        rows.push((name, value, unit));
    }
    for (name, _) in &report.metrics {
        assert!(
            rows.iter().any(|(n, _, _)| n == name),
            "metric {name} is not declared"
        );
    }

    let kind = if args.trace { "layers" } else { "e2e" };
    let out_dir = PathBuf::from("perfbench/out");
    if let Err(e) = report::write_markdown(
        &out_dir.join(format!("{}-{kind}.md", args.workload)),
        &args,
        &report,
        &rows,
    ) {
        eprintln!("perfbench: report not written: {e}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted.max(1),
        report.failures.len(),
        metrics.join(", ")
    );
}

/// A JSON number with every digit of `v` (non-finite values become 0 with
/// a warning: JSON has no spelling for them).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        eprintln!("perfbench: non-finite metric value {v}");
        "0.0".to_string()
    }
}
