//! Regenerate the figures and tables of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p stoke-bench --bin experiments -- <figure> [iterations]
//! cargo run --release -p stoke-bench --bin experiments -- fig10 2000 \
//!     --metrics --trace results/sweep.jsonl
//! ```
//!
//! `<figure>` is one of `fig01`, `fig02`, `fig03`, `fig05`, `fig06`,
//! `fig07`, `fig08`, `fig10`, `fig11`, `fig12`, `fig13`, `fig14`, `fig15`
//! or `all`. Results are printed as tables and written as CSV files into
//! `results/`. Budgets are scaled down from the paper's 30-minute,
//! 40-machine cluster runs; pass a larger iteration count for closer
//! reproduction.
//!
//! `--metrics` attaches a fresh [`stoke_obs::MetricsRegistry`] to every
//! kernel of the fig10 sweep and emits a per-kernel search-diagnostics
//! report (`results/obs_report.md` + `results/obs_report.json`).
//! `--trace <path>` streams every sweep session's structured span/event
//! records to one JSONL file.

use std::fs;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stoke::{
    generate_testcases, Chain, ChainProgress, Config, CostFn, EqMetric, MoveStats, Phase, Rewrite,
    SearchObserver, StokeResult, ValidationVerdict,
};
use stoke_bench::{run_kernel_instrumented, spec_for, sweep_config};
use stoke_emu::{run as emulate, TimingModel};
use stoke_obs::{JsonlSink, MetricsRegistry, TraceSink};
use stoke_verify::Validator;
use stoke_workloads::{all_kernels, hackers_delight, kernels};
use stoke_x86::Program;

/// Streams pipeline events to stderr as they happen and counts the ones
/// the per-kernel summary reports.
struct StreamingProgress {
    kernel: String,
    phases: AtomicUsize,
    candidates: AtomicUsize,
    proven: AtomicUsize,
}

impl StreamingProgress {
    fn new(kernel: &str) -> StreamingProgress {
        StreamingProgress {
            kernel: kernel.to_string(),
            phases: AtomicUsize::new(0),
            candidates: AtomicUsize::new(0),
            proven: AtomicUsize::new(0),
        }
    }

    /// One line summarizing the finished run.
    fn summary(&self) -> String {
        format!(
            "{} phases, {} candidates re-ranked, {} proven",
            self.phases.load(Ordering::Relaxed),
            self.candidates.load(Ordering::Relaxed),
            self.proven.load(Ordering::Relaxed)
        )
    }
}

impl SearchObserver for StreamingProgress {
    fn on_phase_start(&self, _target: usize, phase: Phase) {
        eprintln!("  [{}] phase {:?}", self.kernel, phase);
        self.phases.fetch_add(1, Ordering::Relaxed);
    }

    fn on_chain_progress(&self, progress: &ChainProgress) {
        eprintln!(
            "  [{}] {:?} chain {}: {}/{} proposals, best cost {:.1} (current eq' {:.1} + perf {:.1})",
            self.kernel,
            progress.phase,
            progress.chain,
            progress.proposals,
            progress.iterations,
            progress.best_cost,
            progress.correctness,
            progress.performance
        );
    }

    fn on_candidate(&self, _target: usize, candidate: &Program, cost: f64) {
        eprintln!(
            "  [{}] candidate: {} instructions, cost {:.1}",
            self.kernel,
            candidate.len(),
            cost
        );
        self.candidates.fetch_add(1, Ordering::Relaxed);
    }

    fn on_validation(&self, _target: usize, verdict: ValidationVerdict) {
        eprintln!("  [{}] validation: {:?}", self.kernel, verdict);
        if verdict == ValidationVerdict::Proven {
            self.proven.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn results_file(name: &str) -> fs::File {
    fs::create_dir_all("results").expect("create results dir");
    fs::File::create(format!("results/{}", name)).expect("create results file")
}

/// Figure 1: the Montgomery multiplication case study.
fn fig01() {
    println!("== Figure 1: Montgomery multiplication ==");
    let kernel = kernels::montgomery();
    let o0 = kernel.target_o0();
    let gcc: Program = kernels::MONT_GCC_O3.parse().unwrap();
    let stoke_code: Program = kernels::MONT_STOKE.parse().unwrap();
    let t = TimingModel::default();
    println!(
        "{:<18}{:>8}{:>10}{:>10}",
        "code", "instrs", "H (lat)", "cycles"
    );
    for (name, p) in [
        ("llvm -O0 (ours)", &o0),
        ("gcc -O3 (paper)", &gcc),
        ("STOKE (paper)", &stoke_code),
    ] {
        println!(
            "{:<18}{:>8}{:>10}{:>10}",
            name,
            p.len(),
            p.static_latency(),
            t.cycles(p)
        );
    }
    println!(
        "speedup of the STOKE code over the gcc -O3 code: {:.2}x (paper: 1.6x)",
        t.cycles(&gcc) as f64 / t.cycles(&stoke_code) as f64
    );
}

/// Figure 2: validations per second and test-case evaluations per second.
fn fig02() {
    println!("== Figure 2: validator vs emulator throughput ==");
    let mut csv = results_file("fig02_throughput.csv");
    writeln!(csv, "kernel,validations_per_sec,testcases_per_sec").unwrap();
    let mut vals = Vec::new();
    let mut evals = Vec::new();
    for kernel in [
        hackers_delight::p01(),
        hackers_delight::p14(),
        hackers_delight::p21(),
    ] {
        let target = kernel.baseline_o3();
        // Validation throughput: prove the target against itself repeatedly.
        let validator = Validator::new(kernel.live_out.clone());
        let n = 5;
        let t0 = Instant::now();
        for _ in 0..n {
            let _ = validator.prove(&target, &target);
        }
        let per_sec = n as f64 / t0.elapsed().as_secs_f64();
        // Test-case evaluation throughput.
        let spec = spec_for(&kernel);
        let suite = generate_testcases(&spec, 32, 7);
        let o0 = kernel.target_o0();
        let t0 = Instant::now();
        let mut count = 0u64;
        for _ in 0..200 {
            for case in &suite.cases {
                let _ = emulate(&o0, &case.input);
                count += 1;
            }
        }
        let evals_per_sec = count as f64 / t0.elapsed().as_secs_f64();
        println!(
            "{:<8} {:>12.1} validations/s {:>14.0} testcases/s",
            kernel.name, per_sec, evals_per_sec
        );
        writeln!(csv, "{},{:.1},{:.0}", kernel.name, per_sec, evals_per_sec).unwrap();
        vals.push(per_sec);
        evals.push(evals_per_sec);
    }
    let gap = evals.iter().sum::<f64>() / vals.iter().sum::<f64>();
    println!(
        "emulator / validator throughput ratio: {:.0}x (paper: >1000x)",
        gap
    );
}

/// Figure 3: static latency heuristic vs the timing model.
fn fig03() {
    println!("== Figure 3: predicted (static latency) vs actual (timing model) runtime ==");
    let mut csv = results_file("fig03_latency_correlation.csv");
    writeln!(csv, "kernel,level,predicted,actual").unwrap();
    let t = TimingModel::default();
    let mut points = Vec::new();
    for kernel in all_kernels() {
        for (level, program) in [
            ("O0", kernel.target_o0()),
            ("O2", kernel.baseline_o2()),
            ("O3", kernel.baseline_o3()),
        ] {
            let predicted = program.static_latency();
            let actual = t.cycles(&program);
            writeln!(csv, "{},{},{},{}", kernel.name, level, predicted, actual).unwrap();
            points.push((predicted as f64, actual as f64));
        }
    }
    // Pearson correlation.
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
    let vx = points
        .iter()
        .map(|p| (p.0 - mx).powi(2))
        .sum::<f64>()
        .sqrt();
    let vy = points
        .iter()
        .map(|p| (p.1 - my).powi(2))
        .sum::<f64>()
        .sqrt();
    println!(
        "{} points, Pearson r = {:.3} (paper shows a strong but outlier-bearing correlation)",
        points.len(),
        cov / (vx * vy)
    );
}

/// Figure 5: proposal throughput with and without early termination.
fn fig05(iterations: u64) {
    println!("== Figure 5: early-termination acceptance (proposals/s, testcases/proposal) ==");
    let kernel = kernels::montgomery();
    let spec = spec_for(&kernel);
    let mut csv = results_file("fig05_early_termination.csv");
    writeln!(
        csv,
        "early_termination,proposals_per_sec,testcases_per_proposal"
    )
    .unwrap();
    for early in [false, true] {
        let mut config = sweep_config(iterations, 1);
        config.early_termination = early;
        let suite = generate_testcases(&spec, config.num_testcases, config.seed);
        let mut cost = CostFn::new(config.clone(), suite, spec.program.static_latency());
        let mut chain = Chain::new(&mut cost, 1, false);
        let start = chain.proposer_mut().random_rewrite();
        let t0 = Instant::now();
        let result = chain.run(start, iterations);
        let secs = t0.elapsed().as_secs_f64();
        let per_proposal = result.testcases_run as f64 / result.proposals as f64;
        println!(
            "early_termination={:<5} {:>10.0} proposals/s {:>6.2} testcases/proposal",
            early,
            result.proposals as f64 / secs,
            per_proposal
        );
        writeln!(
            csv,
            "{},{:.0},{:.2}",
            early,
            result.proposals as f64 / secs,
            per_proposal
        )
        .unwrap();
    }
}

/// Figure 6/7: strict vs improved cost function during synthesis.
fn fig07(iterations: u64) {
    println!("== Figure 7: strict vs improved synthesis cost functions ==");
    let kernel = hackers_delight::p14();
    let spec = spec_for(&kernel);
    let mut csv = results_file("fig07_cost_functions.csv");
    writeln!(csv, "metric,iteration,cost").unwrap();
    for (name, metric) in [
        ("strict", EqMetric::Strict),
        ("improved", EqMetric::Improved),
    ] {
        let mut config = sweep_config(iterations, 1);
        config.eq_metric = metric;
        let suite = generate_testcases(&spec, config.num_testcases, config.seed);
        let mut cost = CostFn::new(config, suite, spec.program.static_latency());
        let mut chain = Chain::new(&mut cost, 42, false);
        chain.trace_every = (iterations / 50).max(1);
        let start = chain.proposer_mut().random_rewrite();
        let result = chain.run(start, iterations);
        for point in &result.trace {
            writeln!(csv, "{},{},{}", name, point.iteration, point.cost).unwrap();
        }
        println!(
            "{:<9} best cost {:>8.1} after {} proposals (zero-cost found: {})",
            name,
            result.best_cost,
            result.proposals,
            result.best_cost == 0.0
        );
    }
}

/// Figure 8: cost vs fraction of the final rewrite discovered.
fn fig08(iterations: u64) {
    println!("== Figure 8: cost function vs percentage of final code during synthesis ==");
    let kernel = hackers_delight::p01();
    let spec = spec_for(&kernel);
    let config = sweep_config(iterations, 1);
    let suite = generate_testcases(&spec, config.num_testcases, config.seed);
    let mut cost = CostFn::new(config, suite, spec.program.static_latency());
    let mut chain = Chain::new(&mut cost, 99, false);
    chain.trace_every = (iterations / 60).max(1);
    let start = Rewrite::empty(24);
    let result = chain.run(start, iterations);
    let final_instrs: Vec<String> = result
        .best
        .to_program()
        .iter()
        .map(|i| i.to_string())
        .collect();
    let mut csv = results_file("fig08_incremental.csv");
    writeln!(csv, "iteration,cost,instructions").unwrap();
    for point in &result.trace {
        writeln!(
            csv,
            "{},{},{}",
            point.iteration, point.cost, point.instructions
        )
        .unwrap();
    }
    println!(
        "synthesis reached cost {:.1}; final rewrite has {} instructions",
        result.best_cost,
        final_instrs.len()
    );
}

/// Observability options threaded through the fig10 sweep.
struct ObsMode {
    /// Attach a fresh registry per kernel and emit `results/obs_report.*`.
    metrics: bool,
    /// Stream every sweep session's trace records to one JSONL sink.
    trace: Option<Arc<dyn TraceSink>>,
}

/// One kernel's worth of search diagnostics for the `--metrics` report.
struct ObsRow {
    name: String,
    speedup: f64,
    result: StokeResult,
    snapshot: stoke_obs::Snapshot,
}

/// Figure 10 and Figure 12: the full kernel sweep (speedups and runtimes).
fn fig10(iterations: u64, threads: usize, obs: &ObsMode) {
    println!("== Figure 10 / Figure 12: speedups over llvm -O0 and search runtimes ==");
    let mut csv = results_file("fig10_speedups.csv");
    writeln!(
        csv,
        "kernel,star,o2_speedup,o3_speedup,stoke_speedup,synthesis_s,optimization_s,verified,\
         opcode_accept,operand_accept,swap_accept,instruction_accept"
    )
    .unwrap();
    let t = TimingModel::default();
    println!(
        "{:<8}{:>6}{:>10}{:>10}{:>10}{:>12}{:>12}  verified",
        "kernel", "star", "icc -O3", "gcc -O3", "STOKE", "synth (s)", "opt (s)"
    );
    let mut report = Vec::new();
    for kernel in all_kernels() {
        let o0 = t.cycles(&kernel.target_o0()).max(1);
        let o2 = t.cycles(&kernel.baseline_o2()).max(1);
        let o3 = t.cycles(&kernel.baseline_o3()).max(1);
        // Pipeline events stream to stderr live as the search runs; their
        // counts become the one-line summary below.
        let observer = Arc::new(StreamingProgress::new(kernel.name));
        let registry = if obs.metrics {
            Some(Arc::new(MetricsRegistry::new()))
        } else {
            None
        };
        let result = run_kernel_instrumented(
            &kernel,
            iterations,
            threads,
            observer.clone(),
            registry.clone(),
            obs.trace.clone(),
        );
        eprintln!("  [{}] {}", kernel.name, observer.summary());
        let stoke_speedup = o0 as f64 / result.rewrite_cycles.max(1) as f64;
        println!(
            "{:<8}{:>6}{:>10.2}{:>10.2}{:>10.2}{:>12.2}{:>12.2}  {:?}",
            kernel.name,
            if kernel.star { "*" } else { "" },
            o0 as f64 / o2 as f64,
            o0 as f64 / o3 as f64,
            stoke_speedup,
            result.stats.synthesis_time.as_secs_f64(),
            result.stats.optimization_time.as_secs_f64(),
            result.verification
        );
        // Per-move acceptance rates: the Figure 10 mixing diagnostics.
        let rates: Vec<String> = MoveStats::KINDS
            .iter()
            .map(|k| format!("{:.4}", result.stats.moves.acceptance_rate(*k)))
            .collect();
        writeln!(
            csv,
            "{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:?},{}",
            kernel.name,
            kernel.star,
            o0 as f64 / o2 as f64,
            o0 as f64 / o3 as f64,
            stoke_speedup,
            result.stats.synthesis_time.as_secs_f64(),
            result.stats.optimization_time.as_secs_f64(),
            result.verification,
            rates.join(",")
        )
        .unwrap();
        if let Some(registry) = registry {
            report.push(ObsRow {
                name: kernel.name.to_string(),
                speedup: stoke_speedup,
                snapshot: registry.snapshot(),
                result,
            });
        }
    }
    if obs.metrics {
        write_obs_report(&report);
    }
    if let Some(sink) = &obs.trace {
        sink.flush();
    }
}

/// Emit the per-kernel search-diagnostics report in markdown and JSON.
fn write_obs_report(rows: &[ObsRow]) {
    let mut md = results_file("obs_report.md");
    writeln!(md, "# Kernel sweep search diagnostics\n").unwrap();
    writeln!(
        md,
        "| kernel | proposals | accept % | proposals/s | testcases | early-term % | \
         validations (proven/refuted) | speedup | verified |"
    )
    .unwrap();
    writeln!(md, "|---|---|---|---|---|---|---|---|---|").unwrap();
    for row in rows {
        let stats = &row.result.stats;
        let snap = &row.snapshot;
        let proposals = stats.total_proposals();
        let secs = stats.total_time.as_secs_f64();
        let evals = snap.counter("stoke_evaluations_total");
        let early = snap.counter("stoke_early_terminations_total");
        writeln!(
            md,
            "| {} | {} | {:.1} | {:.0} | {} | {:.1} | {}/{} | {:.2}x | {:?} |",
            row.name,
            proposals,
            100.0 * stats.moves.total_accepted() as f64 / proposals.max(1) as f64,
            proposals as f64 / secs.max(1e-9),
            snap.counter("stoke_testcases_total"),
            100.0 * early as f64 / evals.max(1) as f64,
            snap.counter(r#"stoke_validations_total{verdict="proven"}"#),
            snap.counter(r#"stoke_validations_total{verdict="refuted"}"#),
            row.speedup,
            row.result.verification
        )
        .unwrap();
    }
    writeln!(md, "\n## Acceptance rate by move kind\n").unwrap();
    writeln!(md, "| kernel | opcode | operand | swap | instruction |").unwrap();
    writeln!(md, "|---|---|---|---|---|").unwrap();
    for row in rows {
        let cells: Vec<String> = MoveStats::KINDS
            .iter()
            .map(|k| {
                format!(
                    "{:.1}% ({}/{})",
                    100.0 * row.result.stats.moves.acceptance_rate(*k),
                    row.result.stats.moves.accepted(*k),
                    row.result.stats.moves.proposed(*k)
                )
            })
            .collect();
        writeln!(md, "| {} | {} |", row.name, cells.join(" | ")).unwrap();
    }

    let mut json = results_file("obs_report.json");
    let entries: Vec<String> = rows
        .iter()
        .map(|row| {
            let stats = &row.result.stats;
            let snap = &row.snapshot;
            let moves: Vec<String> = MoveStats::KINDS
                .iter()
                .map(|k| {
                    format!(
                        r#"{{"kind":"{:?}","proposed":{},"accepted":{}}}"#,
                        k,
                        stats.moves.proposed(*k),
                        stats.moves.accepted(*k)
                    )
                })
                .collect();
            format!(
                concat!(
                    r#"{{"kernel":"{}","speedup":{:.4},"verified":"{:?}","#,
                    r#""proposals":{},"accepted":{},"total_s":{:.4},"#,
                    r#""synthesis_s":{:.4},"optimization_s":{:.4},"#,
                    r#""testcases":{},"evaluations":{},"early_terminations":{},"#,
                    r#""counterexamples":{},"leakage_rejections":{},"#,
                    r#""validations_proven":{},"validations_refuted":{},"moves":[{}]}}"#
                ),
                row.name,
                row.speedup,
                row.result.verification,
                stats.total_proposals(),
                stats.moves.total_accepted(),
                stats.total_time.as_secs_f64(),
                stats.synthesis_time.as_secs_f64(),
                stats.optimization_time.as_secs_f64(),
                snap.counter("stoke_testcases_total"),
                snap.counter("stoke_evaluations_total"),
                snap.counter("stoke_early_terminations_total"),
                snap.counter("stoke_counterexamples_total"),
                snap.counter("stoke_leakage_rejections_total"),
                snap.counter(r#"stoke_validations_total{verdict="proven"}"#),
                snap.counter(r#"stoke_validations_total{verdict="refuted"}"#),
                moves.join(",")
            )
        })
        .collect();
    writeln!(json, "[{}]", entries.join(",\n ")).unwrap();
    println!("search diagnostics written to results/obs_report.md and results/obs_report.json");
}

/// Figure 11: the MCMC parameter table.
fn fig11() {
    println!("== Figure 11: MCMC parameters ==");
    let c = Config::default();
    println!("wsf {:<6} pc {:<6} pu {:<6}", c.wsf, c.pc, c.pu);
    println!("wfp {:<6} po {:<6} beta {:<6}", c.wfp, c.po, c.beta);
    println!("wur {:<6} ps {:<6} ell {:<6}", c.wur, c.ps, c.ell);
    println!(
        "wm  {:<6} pi {:<6} testcases {}",
        c.wm, c.pi, c.num_testcases
    );
}

/// Figures 13/14/15: the case-study code listings.
fn fig13_14_15() {
    println!("== Figure 13: p21 (cycle through three values) ==");
    let p21 = hackers_delight::p21();
    println!("gcc -O3 stand-in:\n{}", p21.baseline_o3());
    println!(
        "STOKE rewrite (paper):\n{}",
        hackers_delight::P21_STOKE.trim()
    );
    println!("\n== Figure 14: SAXPY ==");
    let saxpy = kernels::saxpy();
    println!("gcc -O3 stand-in:\n{}", saxpy.baseline_o3());
    println!(
        "STOKE SSE rewrite (paper):\n{}",
        kernels::SAXPY_STOKE.trim()
    );
    println!("\n== Figure 15: linked-list traversal (loop-free fragment) ==");
    let list = kernels::linked_list();
    println!("llvm -O0 stand-in:\n{}", list.target_o0());
    println!("STOKE rewrite (paper):\n{}", kernels::LIST_STOKE.trim());
}

fn main() {
    let mut positional = Vec::new();
    let mut metrics = false;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics" => metrics = true,
            "--trace" => trace_path = Some(args.next().expect("--trace takes a path")),
            _ => positional.push(arg),
        }
    }
    let which = positional.first().map(String::as_str).unwrap_or("all");
    let iterations: u64 = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);
    let threads = 2;
    let trace: Option<Arc<dyn TraceSink>> = trace_path.map(|path| {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).expect("create trace dir");
            }
        }
        let sink = JsonlSink::create(std::path::Path::new(&path), "experiments")
            .expect("trace file opens");
        Arc::new(sink) as Arc<dyn TraceSink>
    });
    let obs = ObsMode { metrics, trace };
    match which {
        "fig01" => fig01(),
        "fig02" => fig02(),
        "fig03" => fig03(),
        "fig05" => fig05(iterations),
        "fig06" | "fig07" => fig07(iterations),
        "fig08" => fig08(iterations),
        "fig10" | "fig12" => fig10(iterations, threads, &obs),
        "fig11" => fig11(),
        "fig13" | "fig14" | "fig15" => fig13_14_15(),
        "all" => {
            fig01();
            fig11();
            fig02();
            fig03();
            fig05(iterations);
            fig07(iterations);
            fig08(iterations);
            fig13_14_15();
            fig10(iterations, threads, &obs);
        }
        other => {
            eprintln!(
                "unknown experiment '{}'; see --help text in the source",
                other
            );
            std::process::exit(1);
        }
    }
}
