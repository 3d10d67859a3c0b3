//! The `serve` workload: a `stoke_serve::Service` (two workers, one search
//! thread each, `TestOnly` verifier) fed by two closed-loop clients, so at
//! most two jobs are outstanding. Each pass starts a fresh service (empty
//! cache) and sends a seeded stream over the 25 Hacker's Delight kernels,
//! mont and list: first every kernel once, in seeded order (cold searches
//! and cache inserts: writes), then a shuffled mix of renamed
//! resubmissions of seen kernels (cache hits: reads) and one near-miss
//! edit per kernel (warm starts through the `nearest` scan, plus an
//! insert).
//!
//! Output check: every job completes, and every rewrite it returns —
//! searched or served from the cache through a renaming — passes the
//! test suite its `TestOnly` verdict promises (the submitted target's own
//! suite, regenerated). `TestOnly` is unsound by design, so rewrites that
//! fail *fresh* test cases are counted and printed, not failed: at the
//! seed commit a few per thousand jobs return such rewrites (for example
//! `x & ((x|64) - 1)` for p01, wrong when the lowest set bit is above bit 6).

use crate::common::{
    derive_seed, passes_cases, passes_fresh, random_renaming, rename_spec, rng_for, shuffle,
    spec_for, timed,
};
use crate::spans::Tracer;
use crate::stats::{geomean, iqm_of_op_bests, median, quantile, sum_of_op_bests, tail_quantile};
use crate::{Args, Report};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stoke::{Budget, Config, StokeResult, TargetSpec, TestOnly, Verifier};
use stoke_serve::{
    CacheConfig, CacheKey, Disposition, JobOutcome, PipelineFingerprint, RewriteCache, ServeConfig,
    Service,
};
use stoke_workloads::{hackers_delight, kernels};
use stoke_x86::Program;

/// Renamed resubmissions per kernel in one pass, beside one first-seen
/// request and one near-miss edit. The 18:1:1 mix is an assumption (no
/// traffic data exists), and `ops_per_s` scales with it: see the README.
const RESUBMISSIONS: usize = 18;
/// Closed-loop clients, hence jobs outstanding.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Fewest samples per run, so the tail percentile is p99.
const MIN_SAMPLES: usize = 1_000;
/// Set-ups timed before each pass (see the `search` workload's
/// `SETUPS_PER_PASS`).
const SETUPS_PER_PASS: usize = 5;

/// What a request is, by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FirstSeen,
    Renamed,
    NearMiss,
}

struct Request {
    label: String,
    kind: Kind,
    spec: TargetSpec,
}

/// `Config::seed` of the service's searches. It is fixed, not drawn from
/// the workload seed: with a drawn seed, which kernels' synthesis
/// succeeded (each success adds an optimization chain) moved `pass_s` by
/// 0.2 (quartile spread over ten seeds) while `search` and `validate`
/// moved by 0.03 in the same hour. The workload seed still sets the
/// request order, the renamings and the near-miss edits.
const SEARCH_SEED: u64 = 800;

/// The service's search budgets: half those first tried, so that a pass
/// takes about 2.5 s and each job repeats about 12 times in a 35 s run.
fn search_config() -> Config {
    Config::builder()
        .ell(24)
        .num_testcases(16)
        .synthesis_iterations(500)
        .optimization_iterations(2_000)
        .threads(1)
        .seed(SEARCH_SEED)
        .build()
        .expect("the serve configuration is valid")
}

fn serve_config(config: &Config) -> ServeConfig {
    let mut serve = ServeConfig::new(config.clone());
    serve.workers = WORKERS;
    serve.verifier = Some(Arc::new(TestOnly));
    serve.job_budget = Budget::unlimited().with_wall_clock(Duration::from_secs(60));
    serve
}

/// One instruction duplicated in place: canonical edit distance 1, within
/// the service's warm-start reach. Duplication keeps every register read
/// defined, so the edited target stays a function of its inputs (a deleted
/// or reordered instruction can leave a read of an undefined register).
fn near_miss(rng: &mut StdRng, program: &Program) -> Program {
    let mut instrs = program.instrs().to_vec();
    let i = rng.gen_range(0..instrs.len());
    let dup = instrs[i].clone();
    instrs.insert(i, dup);
    Program::from_instrs(instrs)
}

/// The seeded request stream of one pass.
fn stream(seed: u64) -> Vec<Request> {
    let mut pool: Vec<(&'static str, TargetSpec)> = hackers_delight::all()
        .into_iter()
        .chain([kernels::montgomery(), kernels::linked_list()])
        .map(|k| (k.name, spec_for(&k)))
        .collect();
    let mut rng = rng_for(seed, 900);
    shuffle(&mut rng, &mut pool);
    let mut later: Vec<(usize, Kind)> = Vec::new();
    for k in 0..pool.len() {
        later.push((k, Kind::NearMiss));
        later.extend(std::iter::repeat_n((k, Kind::Renamed), RESUBMISSIONS));
    }
    shuffle(&mut rng, &mut later);
    let order = (0..pool.len()).map(|k| (k, Kind::FirstSeen)).chain(later);
    order
        .enumerate()
        .map(|(i, (k, kind))| {
            let (name, base) = &pool[k];
            let spec = match kind {
                Kind::FirstSeen => base.clone(),
                Kind::Renamed => rename_spec(base, &random_renaming(&mut rng, base)),
                Kind::NearMiss => {
                    let edited = TargetSpec {
                        program: near_miss(&mut rng, &base.program),
                        ..base.clone()
                    };
                    rename_spec(&edited, &random_renaming(&mut rng, &edited))
                }
            };
            Request {
                label: format!("#{i} {name} {kind:?}"),
                kind,
                spec,
            }
        })
        .collect()
}

/// One finished job.
struct Job {
    seconds: f64,
    outcome: Result<JobOutcome, String>,
}

/// Send the stream through a fresh service from `CLIENTS` closed-loop
/// clients; returns the pass wall time and the jobs in request order.
fn pass(requests: &[Request], config: &Config, tracer: Option<&Tracer>) -> (f64, Vec<Job>) {
    let service =
        Service::start(serve_config(config)).expect("a service without a cache file starts");
    let next = AtomicUsize::new(0);
    let jobs: Mutex<Vec<Option<Job>>> = Mutex::new((0..requests.len()).map(|_| None).collect());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(request) = requests.get(i) else {
                    break;
                };
                let spec = request.spec.clone();
                let start = Instant::now();
                let outcome = match tracer {
                    None => service.wait(service.submit(spec)),
                    Some(t) => t.span("job", i as u64, None, |job| {
                        let id = t.span("serve.submit", i as u64, Some(job), |_| {
                            service.submit(spec)
                        });
                        t.span("serve.wait", i as u64, Some(job), |_| service.wait(id))
                    }),
                };
                let job = Job {
                    seconds: start.elapsed().as_secs_f64(),
                    outcome: outcome.map_err(|e| e.to_string()),
                };
                jobs.lock().expect("job table lock")[i] = Some(job);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    service
        .shutdown()
        .expect("a service without a cache file shuts down cleanly");
    let jobs = jobs
        .into_inner()
        .expect("job table lock")
        .into_iter()
        .map(|j| j.expect("every request ran"))
        .collect();
    (wall, jobs)
}

fn result_of(job: &Job) -> Option<&StokeResult> {
    job.outcome
        .as_ref()
        .ok()
        .and_then(|o| o.result.as_ref().ok())
}

/// Check every job (see the module docs); returns how many returned
/// rewrites fail fresh test cases.
fn check(
    requests: &[Request],
    jobs: &[Job],
    config: &Config,
    seed: u64,
    report: &mut Report,
) -> usize {
    let mut fresh_failures = 0;
    for (i, (request, job)) in requests.iter().zip(jobs).enumerate() {
        report.attempted += 1;
        let outcome = match &job.outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                report.fail(format!("serve {}: {e}", request.label));
                continue;
            }
        };
        let result = match &outcome.result {
            Ok(result) => result,
            Err(e) => {
                report.fail(format!(
                    "serve {}: {:?}: {e}",
                    request.label, outcome.disposition
                ));
                continue;
            }
        };
        if !passes_cases(
            config,
            &request.spec,
            &result.rewrite,
            config.num_testcases,
            config.seed,
        ) {
            report.fail(format!(
                "serve {}: {:?} rewrite fails the test suite its verdict promises",
                request.label, outcome.disposition
            ));
        } else if !passes_fresh(
            config,
            &request.spec,
            &result.rewrite,
            derive_seed(seed, 1000 + i as u64),
        ) {
            fresh_failures += 1;
        }
    }
    fresh_failures
}

/// Mean microseconds of `CacheKey::for_spec` and of the cache lookup the
/// service makes per job (`lookup`, then `nearest` on a miss), replayed on
/// a mirror cache filled as the pass's searches filled the real one.
fn key_lookup_probe(requests: &[Request], jobs: &[Job], config: &Config) -> (f64, f64) {
    let fingerprint = PipelineFingerprint::new(config, Verifier::name(&TestOnly));
    let mut cache = RewriteCache::new(CacheConfig::default());
    let (mut key_ns, mut lookup_ns) = (0u128, 0u128);
    for (request, job) in requests.iter().zip(jobs) {
        let t0 = Instant::now();
        let key = CacheKey::for_spec(&request.spec, fingerprint);
        let t1 = Instant::now();
        if cache.lookup(&key).is_none() {
            cache.nearest(&key, 2);
        }
        let t2 = Instant::now();
        key_ns += (t1 - t0).as_nanos();
        lookup_ns += (t2 - t1).as_nanos();
        if let Some(result) = result_of(job) {
            cache.insert(&key, &result.rewrite, result.verification.clone());
        }
    }
    let n = requests.len() as f64;
    (key_ns as f64 / n / 1e3, lookup_ns as f64 / n / 1e3)
}

/// One timed set-up: the request stream and a service start. The idle
/// service is shut down outside the timing.
fn set_up(seed: u64, config: &Config, times: &mut Vec<f64>) -> Vec<Request> {
    let (requests, service) = timed(times, || {
        let requests = stream(seed);
        let service =
            Service::start(serve_config(config)).expect("a service without a cache file starts");
        (requests, service)
    });
    service
        .shutdown()
        .expect("an idle service shuts down cleanly");
    requests
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let config = search_config();
    let mut setups = Vec::new();
    let mut requests = set_up(args.seed, &config, &mut setups);
    let tracer = Tracer::new();
    let min_passes = MIN_SAMPLES
        .div_ceil(requests.len())
        .max(if args.trace { 2 } else { 1 });

    let started = Instant::now();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    // Untraced jobs are kept as latency and speedup only, so that peak
    // memory does not grow with the number of passes a run makes.
    let mut plain: Vec<(f64, Option<f64>)> = Vec::new();
    let mut traced: Vec<Job> = Vec::new();
    let mut probe = (0.0, 0.0);
    let mut fresh_failures = 0;
    let mut passes = 0;
    while passes < min_passes || started.elapsed() < args.seconds {
        for _ in 0..SETUPS_PER_PASS {
            requests = set_up(args.seed, &config, &mut setups);
        }
        let traced_pass = args.trace && passes % 2 == 1;
        let (wall, jobs) = pass(&requests, &config, traced_pass.then_some(&tracer));
        fresh_failures += check(&requests, &jobs, &config, args.seed, &mut report);
        if traced_pass {
            probe = key_lookup_probe(&requests, &jobs, &config);
            traced_walls.push(wall);
            traced.extend(jobs);
        } else {
            plain_walls.push(wall);
            plain.extend(jobs.iter().map(|job| {
                let speedup =
                    result_of(job).map(|r| r.target_cycles as f64 / r.rewrite_cycles.max(1) as f64);
                (job.seconds, speedup)
            }));
        }
        passes += 1;
        if args.trace && passes % 2 == 0 && started.elapsed() >= args.seconds {
            break;
        }
    }
    let latencies: Vec<f64> = plain.iter().map(|(seconds, _)| seconds * 1e3).collect();
    // The percentile follows from the guaranteed sample count, so every run
    // reports the same one however many passes it made.
    let q = tail_quantile(requests.len() * min_passes);
    let count = |kind: Kind| requests.iter().filter(|r| r.kind == kind).count();
    report.notes.push(format!(
        "serve: {passes} passes of {} requests ({} first-seen, {} renamed, {} near-miss), \
         op_ms_tail is p{:.0} of {} samples",
        requests.len(),
        count(Kind::FirstSeen),
        count(Kind::Renamed),
        count(Kind::NearMiss),
        q * 100.0,
        latencies.len()
    ));
    report.notes.push(format!(
        "serve: {fresh_failures} of {} test-only rewrites fail fresh test cases (not counted as failed)",
        report.attempted
    ));

    if !args.trace {
        let speedups: Vec<f64> = plain.iter().filter_map(|(_, speedup)| *speedup).collect();
        report
            .notes
            .push(format!("pass seconds: {plain_walls:.3?}"));
        // Each closed-loop client is busy for the whole pass, so a pass
        // takes the sum of its jobs' latencies over the clients. Taking
        // each job at its best repetition drops noise that hit one pass.
        // These are wall times, not scaled by the machine probe (see
        // `machine` for why).
        let pass_s = sum_of_op_bests(&latencies, requests.len()) / 1e3 / CLIENTS as f64;
        report.set("pass_s", pass_s);
        report.set("op_ms_iqm", iqm_of_op_bests(&latencies, requests.len()));
        report.set("op_ms_tail", quantile(&latencies, q));
        report.set("ops_per_s", requests.len() as f64 / pass_s);
        report.set("speedup_geomean", geomean(&speedups));
        report.set("setup_s", median(&setups));
        return report;
    }

    let outcomes: Vec<&JobOutcome> = traced
        .iter()
        .filter_map(|j| j.outcome.as_ref().ok())
        .collect();
    let n = outcomes.len() as f64;
    let share = |f: fn(&Disposition) -> bool| {
        outcomes.iter().filter(|o| f(&o.disposition)).count() as f64 / n
    };
    report.set("serve.hit_frac", share(|d| *d == Disposition::CacheHit));
    report.set(
        "serve.warm_frac",
        share(|d| matches!(d, Disposition::WarmStart { .. })),
    );
    report.set("serve.cold_frac", share(|d| *d == Disposition::ColdSearch));
    let queue: Vec<f64> = outcomes
        .iter()
        .map(|o| o.queue_time.as_secs_f64())
        .collect();
    let run: Vec<f64> = outcomes.iter().map(|o| o.run_time.as_secs_f64()).collect();
    report.set("serve.queue_wait_s_p50", median(&queue));
    report.set("serve.run_s_p50", median(&run));
    report.set("serve.key_us", probe.0);
    report.set("serve.lookup_us", probe.1);

    // Searches of cold and warm jobs, by phase, per traced pass.
    let traced_passes = traced_walls.len() as f64;
    let searched: Vec<&StokeResult> = traced
        .iter()
        .filter_map(result_of)
        .filter(|r| r.stats.total_proposals() > 0)
        .collect();
    let syn_s: f64 = searched
        .iter()
        .map(|r| r.stats.synthesis_time.as_secs_f64())
        .sum();
    let opt_s: f64 = searched
        .iter()
        .map(|r| r.stats.optimization_time.as_secs_f64())
        .sum();
    let syn: u64 = searched.iter().map(|r| r.stats.synthesis_proposals).sum();
    let opt: u64 = searched
        .iter()
        .map(|r| r.stats.optimization_proposals)
        .sum();
    let accepted: u64 = searched
        .iter()
        .map(|r| r.stats.moves.total_accepted())
        .sum();
    report.set("driver.synthesis_s", syn_s / traced_passes);
    report.set("driver.optimization_s", opt_s / traced_passes);
    report.set("mcmc.proposals_per_s", (syn + opt) as f64 / (syn_s + opt_s));
    report.set("mcmc.syn_ns_per_proposal", syn_s * 1e9 / syn.max(1) as f64);
    report.set("mcmc.opt_ns_per_proposal", opt_s * 1e9 / opt.max(1) as f64);
    report.set(
        "mcmc.accept_frac",
        accepted as f64 / (syn + opt).max(1) as f64,
    );
    report.set(
        "trace.overhead_frac",
        median(&traced_walls) / median(&plain_walls) - 1.0,
    );
    let path = std::path::Path::new("perfbench/out/serve-trace.jsonl");
    match tracer.write_jsonl(path, "perfbench serve") {
        Ok(n) => report.notes.push(format!(
            "trace: {n} records in {} (valid JSONL v1)",
            path.display()
        )),
        Err(e) => report.fail(format!("trace export: {e}")),
    }
    report
}
