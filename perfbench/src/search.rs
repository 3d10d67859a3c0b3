//! The `search` workload: fixed-seed `Session::run` (Paper cost, default
//! backend, two threads, `TestOnly` verifier) on p01, p18, p21, p23, p20
//! and mont, each under four seeds derived from the workload seed. One
//! pass runs all 24 searches.
//!
//! The verifier is `TestOnly`, not the default `Cascade`, so the pass is
//! the chain's work alone (solver work is the `validate` workload's). At
//! budgets like these (measured at 5 000 optimization iterations)
//! symbolic validation has a heavy tail: about one search
//! in six on p18, p21 or p23, and one in 60 on mont, found a rewrite whose
//! validation took 0.85 to 16 s and up to 1.4 GB, which made pass time
//! and peak memory depend on which seeds hit one. `Cascade` also returned
//! a rewrite failing fresh test cases (its downgrade of counterexamples
//! the refined suite does not reproduce).
//!
//! An untraced run times the machine probe right before each search and
//! reports its times at the reference machine speed (see `machine`).
//!
//! The traced run alternates three kinds of pass: plain (as measured end
//! to end), traced (timers and spans around the public entry points of
//! each layer: a `CostModelSpec::Custom` wrapper around the Paper model, a
//! verifier wrapper around `TestOnly`, and an observer that opens
//! a span per phase), and observed (`Session::with_metrics` plus
//! `with_trace(RingSink)`). All three must produce the same digests. Two
//! probes then time what no public hook reaches inside a real chain: a
//! stream of `Proposer::propose` and `CostFn::prepare_rewrite` calls from
//! each target, and a counting-allocator probe of a steady-state chain on
//! mont.

use crate::common::{derive_seed, passes_cases, passes_fresh, rng_for, shuffle, spec_for, timed};
use crate::machine::Probe;
use crate::spans::Tracer;
use crate::stats::{geomean, iqm_of_op_bests, median, quantile, sum_of_op_bests, tail_quantile};
use crate::{alloc, Args, Report};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stoke::{
    generate_testcases, Chain, ChainStats, Config, CostFn, CostModel, CostModelFactory,
    CostModelSpec, EvalContext, PaperCost, Phase, Proposer, Rewrite, SearchObserver, Session,
    StokeResult, TargetSpec, TestOnly, Verdict, Verifier, VerifierSpec, VerifyContext,
};
use stoke_emu::PreparedProgram;
use stoke_obs::{MetricsRegistry, RingSink};
use stoke_workloads::{hackers_delight as hd, kernels, Kernel};
use stoke_x86::Program;

/// The kernels, short to long targets: 14 (p01), 32, 55, 68, 69 (mont)
/// and 209 (p20) instructions.
const KERNELS: [fn() -> Kernel; 6] = [
    hd::p01,
    hd::p18,
    hd::p21,
    hd::p23,
    hd::p20,
    kernels::montgomery,
];
/// Seeds per kernel in one pass; more draws average out how much work a
/// seed happens to cause (synthesis success adds optimization chains).
const DRAWS: u64 = 4;
/// Chain budgets: small enough that a pass takes about 2.4 s, so each
/// search repeats about 12 times in a 35 s run and its best repetition
/// is a steady figure.
const SYNTHESIS_ITERATIONS: u64 = 625;
const OPTIMIZATION_ITERATIONS: u64 = 2_500;
/// Fewest passes of a run: every run then has ≥ 100 searches, enough for
/// a p90 tail.
const MIN_PASSES: usize = 5;
/// Set-ups timed before each pass. Spreading them over the run, rather
/// than timing them all at process start, keeps `setup_s` from depending
/// on the machine's state in the run's first milliseconds.
const SETUPS_PER_PASS: usize = 5;
/// Proposals per kernel in the propose/prepare probe.
const PROBE_PROPOSALS: u64 = 3_000;
/// Largest share of a traced pass the driver's phase times may leave
/// unaccounted before the run fails.
const ACCOUNTING_SLACK: f64 = 0.05;
/// Chain lengths of the allocation probe; their difference is the
/// steady state.
const ALLOC_SHORT: u64 = 1_000;
const ALLOC_LONG: u64 = 4_000;

/// One search of a pass.
struct Item {
    kernel: usize,
    draw: u64,
    spec: TargetSpec,
    config: Config,
}

impl Item {
    fn label(&self) -> String {
        format!("{} draw {}", crate::SEARCH_KERNELS[self.kernel], self.draw)
    }
}

/// Build the 24 searches: per draw a seeded kernel order and a
/// seeded `Config::seed`.
fn setup(seed: u64) -> Vec<Item> {
    let mut items = Vec::new();
    for draw in 0..DRAWS {
        let mut order: Vec<usize> = (0..KERNELS.len()).collect();
        shuffle(&mut rng_for(seed, 100 + draw), &mut order);
        let config = Config::builder()
            .ell(24)
            .num_testcases(16)
            .synthesis_iterations(SYNTHESIS_ITERATIONS)
            .optimization_iterations(OPTIMIZATION_ITERATIONS)
            .threads(2)
            .verifier(VerifierSpec::TestOnly)
            .seed(derive_seed(seed, 200 + draw))
            .build()
            .expect("the search configuration is valid");
        for kernel in order {
            items.push(Item {
                kernel,
                draw,
                spec: spec_for(&KERNELS[kernel]()),
                config: config.clone(),
            });
        }
    }
    items
}

/// The decision-relevant digest of one search: rewrite text, proposals,
/// acceptances, per-move statistics and verification.
fn digest(result: &StokeResult) -> u64 {
    let text = format!(
        "{}|{}|{}|{:?}|{:?}",
        result.rewrite,
        result.stats.total_proposals(),
        result.stats.moves.total_accepted(),
        result.stats.moves,
        result.verification
    );
    stoke_serve::key::fnv1a64(text.as_bytes())
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Plain,
    Traced,
    Observed,
}

/// Time accumulators and counters filled by the traced pass's wrappers.
#[derive(Default)]
struct Acc {
    perf_ns: AtomicU64,
    perf_calls: AtomicU64,
    correctness_ns: AtomicU64,
    correctness_calls: AtomicU64,
    verify_ns: AtomicU64,
    cex: AtomicU64,
    proposals: [AtomicU64; 2],
    accepted: AtomicU64,
    evaluations: AtomicU64,
    early_exits: AtomicU64,
    testcases_run: AtomicU64,
}

fn add(counter: &AtomicU64, value: u64) {
    counter.fetch_add(value, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Times the two terms of the Paper model inside real chains.
struct TimedModel {
    inner: Box<dyn CostModel>,
    acc: Arc<Acc>,
}

impl CostModel for TimedModel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn perf_term(&mut self, rewrite: &PreparedProgram<'_>, ctx: &mut EvalContext<'_>) -> f64 {
        let t0 = Instant::now();
        let value = self.inner.perf_term(rewrite, ctx);
        add(&self.acc.perf_ns, t0.elapsed().as_nanos() as u64);
        add(&self.acc.perf_calls, 1);
        value
    }

    fn correctness_term(
        &mut self,
        rewrite: &PreparedProgram<'_>,
        bound: Option<f64>,
        ctx: &mut EvalContext<'_>,
    ) -> Option<f64> {
        let t0 = Instant::now();
        let value = self.inner.correctness_term(rewrite, bound, ctx);
        add(&self.acc.correctness_ns, t0.elapsed().as_nanos() as u64);
        add(&self.acc.correctness_calls, 1);
        value
    }
}

struct TimedFactory(Arc<Acc>);

impl CostModelFactory for TimedFactory {
    fn optimization_model(&self) -> Box<dyn CostModel> {
        Box::new(TimedModel {
            inner: Box::new(PaperCost),
            acc: self.0.clone(),
        })
    }
}

/// Per-run observer of a traced search: one span per phase (closed at the
/// next phase start or when `Session::run` returns) and chain-end counters.
struct RunProbe {
    tracer: Arc<Tracer>,
    acc: Arc<Acc>,
    run: u64,
    target: u64,
    phase: Mutex<Option<(u64, &'static str, Duration)>>,
}

impl RunProbe {
    fn close_phase(&self) {
        if let Some((id, name, start)) = self.phase.lock().expect("phase lock").take() {
            self.tracer
                .close(id, Some(self.run), name, self.target, start);
        }
    }

    fn phase_id(&self) -> Option<u64> {
        self.phase.lock().expect("phase lock").map(|(id, _, _)| id)
    }
}

impl SearchObserver for RunProbe {
    fn on_phase_start(&self, _target: usize, phase: Phase) {
        self.close_phase();
        let name = match phase {
            Phase::Testcases => "phase.testcases",
            Phase::Synthesis => "phase.synthesis",
            Phase::Optimization => "phase.optimization",
            Phase::Validation => "phase.validation",
        };
        *self.phase.lock().expect("phase lock") =
            Some((self.tracer.open(), name, self.tracer.now()));
    }

    fn on_chain_end(&self, stats: &ChainStats) {
        let slot = usize::from(stats.phase == Phase::Optimization);
        add(&self.acc.proposals[slot], stats.proposals);
        add(&self.acc.accepted, stats.accepted);
        add(&self.acc.evaluations, stats.eval.evaluations);
        add(&self.acc.early_exits, stats.eval.early_terminations);
        add(&self.acc.testcases_run, stats.eval.testcases_run);
    }
}

/// Times `Verifier::verify` of the `TestOnly` verifier, as a child span of
/// the validation phase.
struct TimedVerifier(Arc<RunProbe>);

impl Verifier for TimedVerifier {
    fn name(&self) -> &'static str {
        "test-only"
    }

    fn verify(&self, candidate: &Program, ctx: &mut VerifyContext<'_>) -> Verdict {
        let probe = &self.0;
        let t0 = Instant::now();
        let verdict = probe
            .tracer
            .span("verifier.verify", probe.target, probe.phase_id(), |_| {
                TestOnly.verify(candidate, ctx)
            });
        add(&probe.acc.verify_ns, t0.elapsed().as_nanos() as u64);
        add(&probe.acc.cex, verdict.counterexamples.len() as u64);
        verdict
    }
}

/// One completed search.
struct Done {
    seconds: f64,
    result: Result<StokeResult, String>,
}

struct Instruments {
    tracer: Arc<Tracer>,
    acc: Arc<Acc>,
    registry: Arc<MetricsRegistry>,
    ring: Arc<RingSink>,
}

/// Run every search once, sampling `machine` right before each one;
/// returns the pass wall time and the outcomes.
fn pass(
    items: &[Item],
    mode: Mode,
    inst: &Instruments,
    mut machine: Option<&mut Probe>,
) -> (f64, Vec<Done>) {
    let t0 = Instant::now();
    let mut done = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        if let Some(machine) = machine.as_deref_mut() {
            machine.sample();
        }
        let start = Instant::now();
        let result = match mode {
            Mode::Plain => Session::new(item.config.clone()).run(&item.spec),
            Mode::Observed => Session::new(item.config.clone())
                .with_metrics(inst.registry.clone())
                .with_trace(inst.ring.clone())
                .run(&item.spec),
            Mode::Traced => {
                let mut config = item.config.clone();
                config.cost_model = CostModelSpec::Custom(Arc::new(TimedFactory(inst.acc.clone())));
                inst.tracer.span("session.run", index as u64, None, |run| {
                    let probe = Arc::new(RunProbe {
                        tracer: inst.tracer.clone(),
                        acc: inst.acc.clone(),
                        run,
                        target: index as u64,
                        phase: Mutex::new(None),
                    });
                    let out = Session::new(config)
                        .with_observer(probe.clone())
                        .with_verifier(Arc::new(TimedVerifier(probe.clone())))
                        .run(&item.spec);
                    probe.close_phase();
                    out
                })
            }
        };
        done.push(Done {
            seconds: start.elapsed().as_secs_f64(),
            result: result.map_err(|e| e.to_string()),
        });
    }
    (t0.elapsed().as_secs_f64(), done)
}

/// Check a pass's outputs: every search succeeded and its digest equals
/// the first pass's. In the first pass every rewrite must also pass the
/// test suite its `TestOnly` verdict promises (its own suite,
/// regenerated); whether it also passes fresh test cases is counted, not
/// failed, since `TestOnly` is unsound by design. Returns the digests and
/// the first pass's fresh-case passes.
fn check(
    items: &[Item],
    done: &[Done],
    reference: Option<&[u64]>,
    seed: u64,
    report: &mut Report,
) -> (Vec<u64>, usize) {
    let mut digests = Vec::with_capacity(done.len());
    let mut fresh_ok = 0;
    for (i, (item, d)) in items.iter().zip(done).enumerate() {
        report.attempted += 1;
        let result = match &d.result {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("search {}: {e}", item.label()));
                digests.push(0);
                continue;
            }
        };
        let dig = digest(result);
        digests.push(dig);
        let config = &item.config;
        match reference {
            Some(first) if first[i] != dig => report.fail(format!(
                "search {}: digest differs from the first pass",
                item.label()
            )),
            Some(_) => {}
            None if !passes_cases(
                config,
                &item.spec,
                &result.rewrite,
                config.num_testcases,
                config.seed,
            ) =>
            {
                report.fail(format!(
                    "search {}: rewrite fails the test suite its verdict promises",
                    item.label()
                ))
            }
            None => {
                let fresh_seed = derive_seed(seed, 300 + i as u64);
                fresh_ok += usize::from(passes_fresh(
                    config,
                    &item.spec,
                    &result.rewrite,
                    fresh_seed,
                ));
            }
        }
    }
    (digests, fresh_ok)
}

fn speedups(done: &[Done]) -> Vec<f64> {
    done.iter()
        .filter_map(|d| d.result.as_ref().ok())
        .map(|r| r.target_cycles as f64 / r.rewrite_cycles.max(1) as f64)
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut items = timed(&mut setups, || setup(args.seed));
    let mut machine = Probe::default();
    let inst = Instruments {
        tracer: Arc::new(Tracer::new()),
        acc: Arc::new(Acc::default()),
        registry: Arc::new(MetricsRegistry::new()),
        ring: Arc::new(RingSink::new(1 << 16)),
    };
    let schedule: &[Mode] = if args.trace {
        &[Mode::Plain, Mode::Traced, Mode::Observed]
    } else {
        &[Mode::Plain]
    };

    let started = Instant::now();
    let mut reference: Option<Vec<u64>> = None;
    let mut walls: Vec<(Mode, f64)> = Vec::new();
    let mut plain: Vec<Done> = Vec::new();
    let mut first_speedups = Vec::new();
    let mut fresh_ok = 0.0;
    // Chain-phase seconds of the traced passes by the driver's own timers
    // (`SearchStats`), to check the phase spans against.
    let mut traced_chain_s = 0.0;
    let mut passes = 0;
    while passes < MIN_PASSES.max(schedule.len()) || started.elapsed() < args.seconds {
        for _ in 0..SETUPS_PER_PASS {
            items = timed(&mut setups, || setup(args.seed));
        }
        let mode = schedule[passes % schedule.len()];
        let (wall, done) = pass(&items, mode, &inst, (!args.trace).then_some(&mut machine));
        let (digests, fresh) = check(&items, &done, reference.as_deref(), args.seed, &mut report);
        if reference.is_none() {
            first_speedups = speedups(&done);
            fresh_ok = fresh as f64 / done.len() as f64;
            report.notes.push(format!(
                "search: {fresh} of {} test-only rewrites pass fresh test cases (the rest are not counted as failed)",
                done.len()
            ));
            for ((item, dig), d) in items.iter().zip(&digests).zip(&done) {
                report.notes.push(format!(
                    "digest search {} {dig:016x} ({:.3} s)",
                    item.label(),
                    d.seconds
                ));
            }
            reference = Some(digests);
        }
        walls.push((mode, wall));
        match mode {
            Mode::Plain => plain.extend(done),
            Mode::Traced => {
                traced_chain_s += done
                    .iter()
                    .filter_map(|d| d.result.as_ref().ok())
                    .map(|r| (r.stats.synthesis_time + r.stats.optimization_time).as_secs_f64())
                    .sum::<f64>()
            }
            Mode::Observed => {}
        }
        passes += 1;
        if args.trace && passes % schedule.len() == 0 && started.elapsed() >= args.seconds {
            break;
        }
    }
    let wall_of = |m: Mode| -> Vec<f64> {
        walls
            .iter()
            .filter(|(w, _)| *w == m)
            .map(|(_, s)| *s)
            .collect()
    };
    let plain_walls = wall_of(Mode::Plain);
    let latencies: Vec<f64> = plain.iter().map(|d| d.seconds * 1e3).collect();
    // The percentile follows from the guaranteed sample count, so every run
    // reports the same one however many passes it made.
    let q = tail_quantile(items.len() * MIN_PASSES);
    report.notes.push(format!(
        "search: {passes} passes, {} searches per pass, op_ms_tail is p{:.0} of {} samples",
        items.len(),
        q * 100.0,
        latencies.len()
    ));

    if !args.trace {
        report
            .notes
            .push(format!("pass seconds: {plain_walls:.3?}"));
        // A pass at each search's best repetition: passes repeat the same
        // searches, and noise on a shared machine only ever adds time.
        // Times are at the reference machine speed (see `machine`).
        let (quiet, typical) = (machine.quiet_scale(), machine.typical_scale());
        let best_sum = sum_of_op_bests(&latencies, items.len()) / 1e3;
        let tail = quantile(&latencies, q);
        report.notes.push(machine.note());
        report.notes.push(format!(
            "search: unscaled pass_s {best_sum:.4} s, op_ms_tail {tail:.2} ms, setup_s {:.6} s",
            median(&setups)
        ));
        let pass_s = best_sum * quiet;
        report.set("pass_s", pass_s);
        report.set(
            "op_ms_iqm",
            iqm_of_op_bests(&latencies, items.len()) * quiet,
        );
        report.set("op_ms_tail", tail * typical);
        report.set("ops_per_s", items.len() as f64 / pass_s);
        report.set("speedup_geomean", geomean(&first_speedups));
        report.set("setup_s", median(&setups) * typical);
        return report;
    }

    let plain_wall = median(&plain_walls);
    let traced_walls = wall_of(Mode::Traced);
    let traced_passes = traced_walls.len() as f64;
    let traced_wall = median(&traced_walls);
    report.set("trace.overhead_frac", traced_wall / plain_wall - 1.0);
    report.set(
        "obs.overhead_frac",
        median(&wall_of(Mode::Observed)) / plain_wall - 1.0,
    );
    report.set("driver.fresh_ok_frac", fresh_ok);

    // Phase spans: per traced pass, and as a share of the traced pass.
    let totals = phase_totals(&inst.tracer);
    let per_pass = |name: &str| {
        totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
            / traced_passes
    };
    let phases = [
        ("driver.testcases_s", "phase.testcases"),
        ("driver.synthesis_s", "phase.synthesis"),
        ("driver.optimization_s", "phase.optimization"),
        ("driver.validation_s", "phase.validation"),
    ];
    for (metric, span) in phases {
        report.set(metric, per_pass(span));
    }
    // The phases must account for the traced passes' wall time. The two
    // chain phases are taken from the driver's own timers, not from the
    // spans that cover the gaps between phase starts, so time spent
    // between or around the chains (test-suite hand-over, chain set-up,
    // the benchmark's loop) shows as a shortfall.
    let accounted = (per_pass("phase.testcases") + per_pass("phase.validation")) * traced_passes
        + traced_chain_s;
    let accounted_frac = accounted / traced_walls.iter().sum::<f64>();
    report.set("driver.accounted_frac", accounted_frac);
    if (accounted_frac - 1.0).abs() > ACCOUNTING_SLACK {
        report.fail(format!(
            "driver phases account for {accounted_frac:.3} of the traced passes' time, \
             not 1 within {ACCOUNTING_SLACK}"
        ));
    }

    let acc = &inst.acc;
    let syn = get(&acc.proposals[0]) as f64;
    let opt = get(&acc.proposals[1]) as f64;
    let syn_s = per_pass("phase.synthesis") * traced_passes;
    let opt_s = per_pass("phase.optimization") * traced_passes;
    report.set("mcmc.proposals_per_s", (syn + opt) / (syn_s + opt_s));
    report.set("mcmc.syn_ns_per_proposal", syn_s * 1e9 / syn);
    report.set("mcmc.opt_ns_per_proposal", opt_s * 1e9 / opt);
    report.set("mcmc.accept_frac", get(&acc.accepted) as f64 / (syn + opt));
    report.set(
        "cost.early_exit_frac",
        get(&acc.early_exits) as f64 / get(&acc.evaluations) as f64,
    );
    report.set(
        "cost.testcases_per_proposal",
        get(&acc.testcases_run) as f64 / (syn + opt),
    );
    report.set(
        "model.perf_ns",
        get(&acc.perf_ns) as f64 / get(&acc.perf_calls) as f64,
    );
    report.set(
        "model.correctness_ns",
        get(&acc.correctness_ns) as f64 / get(&acc.correctness_calls) as f64,
    );
    report.set(
        "verifier.verify_s",
        get(&acc.verify_ns) as f64 * 1e-9 / traced_passes,
    );
    report.set("verifier.cex", get(&acc.cex) as f64 / traced_passes);

    for (k, name) in crate::SEARCH_KERNELS.iter().enumerate() {
        let runs: Vec<&Done> = items
            .iter()
            .cycle()
            .zip(&plain)
            .filter(|(item, _)| item.kernel == k)
            .map(|(_, d)| d)
            .collect();
        let secs: Vec<f64> = runs.iter().map(|d| d.seconds).collect();
        let (chain_s, proposals) =
            runs.iter()
                .filter_map(|d| d.result.as_ref().ok())
                .fold((0.0, 0u64), |(s, p), r| {
                    (
                        s + (r.stats.synthesis_time + r.stats.optimization_time).as_secs_f64(),
                        p + r.stats.total_proposals(),
                    )
                });
        report.set(format!("kernel.{name}.search_s"), median(&secs));
        report.set(
            format!("kernel.{name}.ns_per_proposal"),
            chain_s * 1e9 / proposals.max(1) as f64,
        );
    }

    proposal_probe(&items, &mut report);
    alloc_probe(&items, &mut report);

    let path = std::path::Path::new("perfbench/out/search-trace.jsonl");
    match inst.tracer.write_jsonl(path, "perfbench search") {
        Ok(n) => report.notes.push(format!(
            "trace: {n} records in {} (valid JSONL v1)",
            path.display()
        )),
        Err(e) => report.fail(format!("trace export: {e}")),
    }
    report
}

/// Total duration per phase span name, in seconds.
fn phase_totals(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for s in tracer
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("phase."))
    {
        let secs = (s.end - s.start).as_secs_f64();
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += secs,
            None => out.push((s.name, secs)),
        }
    }
    out
}

fn cost_fn_for(item: &Item) -> CostFn {
    let suite = generate_testcases(&item.spec, item.config.num_testcases, item.config.seed);
    CostFn::new(
        item.config.clone(),
        suite,
        item.spec.program.static_latency(),
    )
}

/// Mean times of `Proposer::propose` and `CostFn::prepare_rewrite`, and
/// the share of proposals that leave the rewrite unchanged, over
/// [`PROBE_PROPOSALS`] proposals from each target of the first draw (the
/// state every optimization chain starts in). Nothing is accepted, so the
/// probe relies on no part of the chain's acceptance protocol.
fn proposal_probe(items: &[Item], report: &mut Report) {
    let (mut propose_ns, mut prepare_ns, mut noops, mut proposals) = (0u128, 0u128, 0u64, 0u64);
    for item in items.iter().filter(|item| item.draw == 0) {
        let cost_fn = cost_fn_for(item);
        let mut proposer = Proposer::new(item.config.clone(), derive_seed(item.config.seed, 400));
        let current = Rewrite::from_program(&item.spec.program, item.config.ell);
        for _ in 0..PROBE_PROPOSALS {
            let t0 = Instant::now();
            let candidate = proposer.propose(&current).0;
            let t1 = Instant::now();
            let prepared = cost_fn.prepare_rewrite(candidate.slots().iter().flatten());
            let t2 = Instant::now();
            drop(prepared);
            propose_ns += (t1 - t0).as_nanos();
            prepare_ns += (t2 - t1).as_nanos();
            noops += u64::from(candidate == current);
            proposals += 1;
        }
    }
    let n = proposals as f64;
    report.set("mcmc.propose_ns", propose_ns as f64 / n);
    report.set("emu.prepare_ns", prepare_ns as f64 / n);
    report.set("mcmc.noop_frac", noops as f64 / n);
}

fn real_chain(item: &Item, seed: u64, proposals: u64) {
    let mut cost_fn = cost_fn_for(item);
    let mut chain = Chain::new(&mut cost_fn, seed, true);
    chain.run(
        Rewrite::from_program(&item.spec.program, item.config.ell),
        proposals,
    );
}

/// Allocations per steady-state proposal of a real optimization chain on
/// mont: two chains of the same seed differ only in their extra proposals.
fn alloc_probe(items: &[Item], report: &mut Report) {
    let mont = items
        .iter()
        .find(|item| crate::SEARCH_KERNELS[item.kernel] == "mont" && item.draw == 0)
        .expect("mont is a search kernel");
    let seed = derive_seed(mont.config.seed, 500);
    let count = |proposals| {
        let before = alloc::allocations();
        real_chain(mont, seed, proposals);
        alloc::allocations() - before
    };
    real_chain(mont, seed, ALLOC_SHORT);
    let short = count(ALLOC_SHORT);
    let long = count(ALLOC_LONG);
    report.set(
        "mcmc.allocs_per_proposal",
        long.saturating_sub(short) as f64 / (ALLOC_LONG - ALLOC_SHORT) as f64,
    );
}
