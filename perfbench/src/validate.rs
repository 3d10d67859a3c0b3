//! The `validate` workload: `stoke_verify::Validator::prove` on a fixed
//! table of (target, candidate) pairs with known answers, and no chain at
//! all. Equivalent pairs are each kernel's `-O0` target against its `-O2`
//! and `-O3` baselines, plus the paper's rewrite where it shares the
//! target's interface. Each kernel but list adds one refuted pair: of 16
//! seeded mutants of its `-O3` baseline, the first one the emulator finds
//! wrong on the most of 32 generated inputs. All 16 are always run, so
//! set-up does the same work whatever the seed. A mutant wrong almost
//! everywhere is refuted in milliseconds, so which mutants a seed draws
//! barely moves the timings; one wrong on a rare corner case can take the
//! solver far longer.
//!
//! An untraced run times the machine probe right before each proof and
//! reports its times at the reference machine speed (see `machine`).
//!
//! Excluded, because the query does not finish in a benchmark's time
//! (`prove` cannot be preempted): p25 `-O0` ≡ `-O2` (over 14 minutes at
//! 900 MB) and saxpy `-O0` ≡ `-O2` (over 4 minutes). Also excluded: mont's
//! paper rewrite against its gcc code, which the validator refutes because
//! it models 64-bit multiplication as an uninterpreted function and cannot
//! relate `mulq` to the schoolbook 32-bit products.

use crate::common::{derive_seed, rng_for, shuffle, spec_with_program, timed};
use crate::machine::Probe;
use crate::spans::Tracer;
use crate::stats::{geomean, iqm_of_op_bests, median, quantile, sum_of_op_bests, tail_quantile};
use crate::{Args, Report};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;
use stoke::{generate_testcases, Config, CostFn};
use stoke_emu::TimingModel;
use stoke_verify::{EquivResult, Validator};
use stoke_workloads::{hackers_delight as hd, kernels, Kernel};
use stoke_x86::flow::LocSet;
use stoke_x86::Program;

/// The kernels: query times from 0.1 ms to 0.5 s, targets of 18 to 209
/// instructions, memory-writing (list) and multiply-heavy (mont) code.
const KERNELS: [fn() -> Kernel; 10] = [
    hd::p09,
    hd::p14,
    hd::p15,
    hd::p16,
    hd::p19,
    hd::p20,
    hd::p21,
    hd::p23,
    kernels::montgomery,
    kernels::linked_list,
];
/// Kernels whose paper rewrite is checked against the `-O0` target.
const PAPER_PAIRS: [&str; 2] = ["p21", "list"];
/// Mutants tried per kernel.
const MUTANT_TRIES: u64 = 16;
/// Test cases the emulator runs on each mutant.
const CONFIRM_CASES: usize = 32;
/// Fewest samples per run, so the tail percentile is p95.
const MIN_SAMPLES: usize = 200;
/// Set-ups timed before each pass (see the `search` workload's
/// `SETUPS_PER_PASS`); fewer than there, as one takes about 50 ms.
const SETUPS_PER_PASS: usize = 2;

/// The known answer of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The candidate computes the target's live outputs on every input.
    Equivalent,
    /// The emulator found an input where they differ.
    Differs,
}

/// One (target, candidate) pair with its known answer.
pub struct Query {
    /// Kernel and pair name, e.g. `p14 o0~o3`.
    pub label: String,
    pub target: Program,
    pub candidate: Program,
    pub live_out: LocSet,
    pub answer: Answer,
}

/// A seeded mutant of `program`: one instruction deleted, duplicated, or
/// swapped with its successor.
fn mutate(rng: &mut StdRng, program: &Program) -> Program {
    let mut instrs = program.instrs().to_vec();
    let i = rng.gen_range(0..instrs.len());
    match rng.gen_range(0..3u32) {
        0 if instrs.len() > 1 => {
            instrs.remove(i);
        }
        1 if i + 1 < instrs.len() => instrs.swap(i, i + 1),
        _ => {
            let dup = instrs[i].clone();
            instrs.insert(i, dup);
        }
    }
    Program::from_instrs(instrs)
}

/// On how many of [`CONFIRM_CASES`] generated inputs the emulator shows
/// `candidate` differs from the kernel's target.
fn emulator_differences(
    kernel: &Kernel,
    target: &Program,
    candidate: &Program,
    seed: u64,
) -> usize {
    let spec = spec_with_program(kernel, target.clone());
    let cost = CostFn::new(
        Config::default(),
        generate_testcases(&spec, CONFIRM_CASES, seed),
        0,
    );
    cost.suite()
        .cases
        .iter()
        .filter(|case| cost.case_cost(case, candidate.instrs()).total() > 0)
        .count()
}

/// The known-answer table for `seed`, in seeded order.
pub fn queries(seed: u64) -> Vec<Query> {
    let mut out = Vec::new();
    for (k, make) in KERNELS.iter().enumerate() {
        let kernel = make();
        let o0 = kernel.target_o0();
        let mut pairs = vec![
            ("o0~o2", kernel.baseline_o2()),
            ("o0~o3", kernel.baseline_o3()),
        ];
        if PAPER_PAIRS.contains(&kernel.name) {
            let text = kernel
                .paper_rewrite
                .expect("listed kernels carry a paper rewrite");
            pairs.push(("o0~paper", text.parse().expect("paper rewrites parse")));
        }
        for (name, candidate) in pairs {
            out.push(Query {
                label: format!("{} {name}", kernel.name),
                target: o0.clone(),
                candidate,
                live_out: kernel.live_out.clone(),
                answer: Answer::Equivalent,
            });
        }
        // The first seeded mutant the emulator finds wrong on the most
        // inputs.
        let mut rng = rng_for(seed, 600 + k as u64);
        let o3 = kernel.baseline_o3();
        let mut best: Option<(usize, Program)> = None;
        for attempt in 0..MUTANT_TRIES {
            let mutant = mutate(&mut rng, &o3);
            let differences =
                emulator_differences(&kernel, &o0, &mutant, derive_seed(seed, 700 + attempt));
            if differences > best.as_ref().map_or(0, |(d, _)| *d) {
                best = Some((differences, mutant));
            }
        }
        // list's mutants are refuted through the symbolic memory model,
        // whose cost varied from 12 to 148 ms and 0 to 13 MB by mutant.
        if let Some((_, mutant)) = best.filter(|_| kernel.name != "list") {
            out.push(Query {
                label: format!("{} mutant", kernel.name),
                target: o0.clone(),
                candidate: mutant,
                live_out: kernel.live_out.clone(),
                answer: Answer::Differs,
            });
        }
    }
    shuffle(&mut rng_for(seed, 650), &mut out);
    out
}

/// One proof: seconds, verdict, term count.
struct Proof {
    seconds: f64,
    answer: Answer,
    terms: usize,
}

fn prove(query: &Query) -> Proof {
    let t0 = Instant::now();
    let (verdict, stats) =
        Validator::new(query.live_out.clone()).prove(&query.target, &query.candidate);
    Proof {
        seconds: t0.elapsed().as_secs_f64(),
        answer: match verdict {
            EquivResult::Equivalent => Answer::Equivalent,
            EquivResult::NotEquivalent(_) => Answer::Differs,
        },
        terms: stats.terms,
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut table = timed(&mut setups, || queries(args.seed));
    let mut machine = Probe::default();
    let tracer = Tracer::new();
    let min_passes = MIN_SAMPLES
        .div_ceil(table.len())
        .max(if args.trace { 2 } else { 1 });

    let started = Instant::now();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut plain: Vec<Proof> = Vec::new();
    let mut traced: Vec<Proof> = Vec::new();
    let mut passes = 0;
    while passes < min_passes || started.elapsed() < args.seconds {
        for _ in 0..SETUPS_PER_PASS {
            table = timed(&mut setups, || queries(args.seed));
        }
        let traced_pass = args.trace && passes % 2 == 1;
        let t0 = Instant::now();
        let proofs: Vec<Proof> = if traced_pass {
            tracer.span("validate.pass", passes as u64, None, |pass| {
                table
                    .iter()
                    .enumerate()
                    .map(|(i, q)| {
                        tracer.span("validator.prove", i as u64, Some(pass), |_| prove(q))
                    })
                    .collect()
            })
        } else {
            table
                .iter()
                .map(|query| {
                    if !args.trace {
                        machine.sample();
                    }
                    prove(query)
                })
                .collect()
        };
        let wall = t0.elapsed().as_secs_f64();
        if passes == 0 {
            for (query, proof) in table.iter().zip(&proofs) {
                report.notes.push(format!(
                    "query {}: {:.3} ms, {} terms",
                    query.label,
                    proof.seconds * 1e3,
                    proof.terms
                ));
            }
        }
        for (query, proof) in table.iter().zip(&proofs) {
            report.attempted += 1;
            if proof.answer != query.answer {
                report.fail(format!(
                    "validate {}: verdict {:?}, known answer {:?}",
                    query.label, proof.answer, query.answer
                ));
            }
        }
        if traced_pass {
            traced_walls.push(wall);
            traced.extend(proofs);
        } else {
            plain_walls.push(wall);
            plain.extend(proofs);
        }
        passes += 1;
        if args.trace && passes % 2 == 0 && started.elapsed() >= args.seconds {
            break;
        }
    }
    let latencies: Vec<f64> = plain.iter().map(|p| p.seconds * 1e3).collect();
    // The percentile follows from the guaranteed sample count, so every run
    // reports the same one however many passes it made.
    let q = tail_quantile(table.len() * min_passes);
    let refuted = table.iter().filter(|q| q.answer == Answer::Differs).count();
    report.notes.push(format!(
        "validate: {passes} passes of {} queries ({refuted} refuted mutants), op_ms_tail is p{:.0} of {} samples",
        table.len(),
        q * 100.0,
        latencies.len()
    ));

    if !args.trace {
        let timing = TimingModel::default();
        let speedups: Vec<f64> = table
            .iter()
            .zip(&plain)
            .filter(|(query, proof)| {
                query.answer == Answer::Equivalent && proof.answer == Answer::Equivalent
            })
            .map(|(query, _)| {
                timing.cycles(&query.target) as f64 / timing.cycles(&query.candidate).max(1) as f64
            })
            .collect();
        report
            .notes
            .push(format!("pass seconds: {plain_walls:.3?}"));
        // A pass at each query's best repetition: passes repeat the same
        // queries, and noise on a shared machine only ever adds time.
        // Times are at the reference machine speed (see `machine`).
        let (quiet, typical) = (machine.quiet_scale(), machine.typical_scale());
        let best_sum = sum_of_op_bests(&latencies, table.len()) / 1e3;
        let tail = quantile(&latencies, q);
        report.notes.push(machine.note());
        report.notes.push(format!(
            "validate: unscaled pass_s {best_sum:.4} s, op_ms_tail {tail:.2} ms, setup_s {:.6} s",
            median(&setups)
        ));
        let pass_s = best_sum * quiet;
        report.set("pass_s", pass_s);
        // The typical proof runs over the equivalent pairs, a fixed set:
        // how long a seed's mutants take to refute varies up to 10x (p21:
        // 6-77 ms). It is an interquartile mean, not a median: the middle
        // of the 22 pairs lies in a gap (p21's pairs near 55 ms, p20's
        // near 100 ms), and noise that reorders the two groups made a
        // median jump between them from run to run.
        let proofs: Vec<f64> = latencies
            .iter()
            .enumerate()
            .filter(|(i, _)| table[i % table.len()].answer == Answer::Equivalent)
            .map(|(_, ms)| *ms)
            .collect();
        let equivalent = table
            .iter()
            .filter(|q| q.answer == Answer::Equivalent)
            .count();
        report.set("op_ms_iqm", iqm_of_op_bests(&proofs, equivalent) * quiet);
        report.set("op_ms_tail", tail * typical);
        report.set("ops_per_s", table.len() as f64 / pass_s);
        report.set("speedup_geomean", geomean(&speedups));
        report.set("setup_s", median(&setups) * typical);
        return report;
    }

    let prove_s: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "validator.prove")
        .map(|s| (s.end - s.start).as_secs_f64())
        .collect();
    report.set("verify.prove_s_p50", median(&prove_s));
    report.set(
        "verify.prove_s_max",
        prove_s.iter().copied().fold(0.0, f64::max),
    );
    report.set(
        "verify.terms",
        traced.iter().map(|p| p.terms as f64).sum::<f64>() / traced.len() as f64,
    );
    report.set(
        "verify.refuted_frac",
        traced
            .iter()
            .filter(|p| p.answer == Answer::Differs)
            .count() as f64
            / traced.len() as f64,
    );
    report.set(
        "trace.overhead_frac",
        median(&traced_walls) / median(&plain_walls) - 1.0,
    );
    let path = std::path::Path::new("perfbench/out/validate-trace.jsonl");
    match tracer.write_jsonl(path, "perfbench validate") {
        Ok(n) => report.notes.push(format!(
            "trace: {n} records in {} (valid JSONL v1)",
            path.display()
        )),
        Err(e) => report.fail(format!("trace export: {e}")),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_table_is_seeded_and_complete() {
        let a = queries(11);
        let b = queries(11);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.candidate, y.candidate);
        }
        let equivalent = a.iter().filter(|q| q.answer == Answer::Equivalent).count();
        assert_eq!(equivalent, 2 * KERNELS.len() + PAPER_PAIRS.len());
        assert_eq!(
            a.len() - equivalent,
            KERNELS.len() - 1,
            "one confirmed mutant per kernel but list"
        );
    }

    #[test]
    fn known_answers_hold_in_the_emulator() {
        for query in queries(3) {
            let name = query.label.split(' ').next().unwrap();
            let kernel = KERNELS
                .iter()
                .map(|make| make())
                .find(|k| k.name == name)
                .unwrap();
            let differences = emulator_differences(&kernel, &query.target, &query.candidate, 99);
            match query.answer {
                Answer::Equivalent => assert_eq!(differences, 0, "{}", query.label),
                Answer::Differs => assert!(differences > 0, "{}", query.label),
            }
        }
    }

    #[test]
    fn validator_agrees_with_known_answers_on_fast_queries() {
        for query in queries(5)
            .iter()
            .filter(|q| q.label.starts_with("p14") || q.label.starts_with("p16"))
        {
            assert_eq!(prove(query).answer, query.answer, "{}", query.label);
        }
    }
}
