//! End-to-end service tests: cache-hit serving after register renaming
//! (the acceptance-critical zero-proposal resubmission), warm starts from
//! near-miss entries, cancellation, per-job budgets, the lifecycle trace,
//! and persistence across service restarts.

use std::time::{Duration, Instant};
use stoke::{generate_testcases, Budget, Config, CostFn, StokeError, TargetSpec};
use stoke_serve::{
    CacheKey, Disposition, JobId, JobStatus, PipelineFingerprint, ServeConfig, ServeError, Service,
};
use stoke_x86::canon::Renaming;
use stoke_x86::{Gpr, Program};

fn quick_config() -> Config {
    Config {
        ell: 8,
        num_testcases: 8,
        synthesis_iterations: 5_000,
        optimization_iterations: 20_000,
        threads: 1,
        ..Config::default()
    }
}

/// The clumsy `rax = rdi + rsi` target used throughout the driver tests.
fn clumsy_add() -> TargetSpec {
    let program: Program = "
        movq rdi, rbx
        movq rbx, rcx
        movq rcx, rax
        addq rsi, rax
        movq rax, rbx
        movq rbx, rax
    "
    .parse()
    .unwrap();
    TargetSpec::with_gprs(program, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax])
}

/// A register permutation moving every register `clumsy_add` touches
/// (none of them pinned — the program has no implicit-operand opcodes).
fn shuffle() -> Renaming {
    let mut map = Gpr::ALL;
    let mut swap = |a: Gpr, b: Gpr| map.swap(a.index(), b.index());
    swap(Gpr::Rdi, Gpr::R9);
    swap(Gpr::Rsi, Gpr::R10);
    swap(Gpr::Rax, Gpr::R12);
    swap(Gpr::Rbx, Gpr::R13);
    swap(Gpr::Rcx, Gpr::R14);
    Renaming::from_map(map).unwrap()
}

/// `spec` with every register (program, inputs, live-outs) renamed by `pi`.
fn rename_spec(spec: &TargetSpec, pi: &Renaming) -> TargetSpec {
    let inputs: Vec<Gpr> = spec.inputs.iter().map(|i| pi.apply_gpr(i.reg)).collect();
    let outputs: Vec<Gpr> = spec
        .live_out
        .gprs
        .iter()
        .map(|g| pi.apply_gpr(*g))
        .collect();
    TargetSpec::with_gprs(pi.apply_program(&spec.program), &inputs, &outputs)
}

/// Acceptance criterion: resubmitting a canonically-equal target — here
/// the same kernel after a full register renaming — is served from the
/// cache with zero proposals, and the served rewrite is correct in the
/// *submitter's* registers.
#[test]
fn renamed_resubmission_is_served_with_zero_proposals() {
    let service = Service::start(ServeConfig::new(quick_config())).unwrap();
    let first = service.submit(clumsy_add());
    let cold = service.wait(first).unwrap();
    assert_eq!(cold.disposition, Disposition::ColdSearch);
    let cold_result = cold.result.unwrap();
    assert!(cold_result.stats.total_proposals() > 0);

    let renamed = rename_spec(&clumsy_add(), &shuffle());
    let second = service.submit(renamed.clone());
    let hit = service.wait(second).unwrap();
    assert_eq!(hit.disposition, Disposition::CacheHit);
    let served = hit.result.unwrap();
    assert_eq!(
        served.stats.total_proposals(),
        0,
        "a cache hit must not search"
    );

    // The served rewrite must be correct for the *renamed* interface on
    // fresh test cases.
    let fresh = generate_testcases(&renamed, 16, 7777);
    let mut cf = CostFn::new(quick_config(), fresh, 0);
    let instrs: Vec<_> = served.rewrite.iter().cloned().collect();
    assert_eq!(cf.eq_prime(&instrs), 0, "served rewrite fails fresh tests");

    let stats = service.shutdown().unwrap();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cold_searches, 1);
    assert_eq!(stats.hit_rate(), 0.5);
}

/// Acceptance criterion: a near-miss submission warm-starts from the
/// cached neighbour and reaches `eq' == 0` in fewer synthesis proposals
/// than a cold start of the very same target.
#[test]
fn warm_start_from_near_miss_beats_cold_start() {
    // Same function as clumsy_add with one extra (no-op) instruction:
    // canonical edit distance 1 from the cached entry.
    let near_miss_prog: Program = "
        movq rdi, rbx
        movq rbx, rcx
        movq rcx, rax
        addq rsi, rax
        movq rax, rbx
        movq rbx, rax
        addq 0, rax
    "
    .parse()
    .unwrap();
    let near_miss = TargetSpec::with_gprs(near_miss_prog, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);

    // Cold baseline: the same target through a plain session.
    let cold = stoke::Session::new(quick_config()).run(&near_miss).unwrap();
    assert!(cold.stats.synthesis_proposals > 0);

    let ring = std::sync::Arc::new(stoke_obs::RingSink::new(1 << 16));
    let mut config = ServeConfig::new(quick_config());
    config.trace = Some(ring.clone());
    let service = Service::start(config).unwrap();
    let seed_job = service.submit(clumsy_add());
    assert!(service.wait(seed_job).unwrap().result.is_ok());

    let warm_job = service.submit(near_miss.clone());
    let warm = service.wait(warm_job).unwrap();
    assert_eq!(warm.disposition, Disposition::WarmStart { distance: 1 });
    // The trace's completion record names the warm start and its distance.
    let records = ring.records();
    let completed = records
        .iter()
        .map(|(_, r)| r)
        .find(|r| {
            matches!(r, stoke_obs::TraceRecord::Event { name, target, .. }
                if name == "job_completed" && *target == warm_job.value())
        })
        .expect("job_completed event");
    assert_eq!(
        completed.field("disposition"),
        Some(&stoke_obs::Value::Str("warm_start".into()))
    );
    assert_eq!(completed.field("distance"), Some(&stoke_obs::Value::U64(1)));
    let warm_result = warm.result.unwrap();
    assert!(warm_result.stats.synthesis_succeeded);
    assert!(
        warm_result.stats.synthesis_proposals < cold.stats.synthesis_proposals,
        "warm start took {} synthesis proposals, cold start {}",
        warm_result.stats.synthesis_proposals,
        cold.stats.synthesis_proposals
    );
    // Still correct on fresh test cases.
    let fresh = generate_testcases(&near_miss, 16, 31415);
    let mut cf = CostFn::new(quick_config(), fresh, 0);
    let instrs: Vec<_> = warm_result.rewrite.iter().cloned().collect();
    assert_eq!(cf.eq_prime(&instrs), 0);

    let stats = service.shutdown().unwrap();
    assert_eq!(stats.warm_starts, 1);
}

#[test]
fn event_stream_reports_the_job_lifecycle() {
    use std::sync::Arc;
    use stoke_obs::{validate_trace, JsonlSink, RingSink, TraceRecord, TraceSink, Value};

    let ring = Arc::new(RingSink::new(1 << 16));
    let mut config = ServeConfig::new(quick_config());
    config.trace = Some(ring.clone());
    let service = Service::start(config).unwrap();
    let spec = clumsy_add();
    let first = service.submit(spec.clone());
    let second = service.submit(spec);
    service.wait(first).unwrap();
    service.wait(second).unwrap();
    service.shutdown().unwrap();
    assert_eq!(ring.dropped(), 0);
    let records: Vec<TraceRecord> = ring.records().into_iter().map(|(_, r)| r).collect();

    let position = |job: JobId, want: &str| {
        records
            .iter()
            .position(|r| {
                matches!(r, TraceRecord::Event { name, target, .. }
                    if name == want && *target == job.value())
            })
            .unwrap_or_else(|| panic!("{job}: no {want} event"))
    };
    for job in [first, second] {
        let submitted = position(job, "job_submitted");
        let started = position(job, "job_started");
        let completed = position(job, "job_completed");
        assert!(
            submitted < started && started < completed,
            "{job}: submitted at {submitted}, started at {started}, completed at {completed}"
        );
    }
    // One worker drains the queue in submission order.
    assert!(position(first, "job_started") < position(second, "job_started"));
    // The first job runs cold; the second is served from the cache.
    let disposition = |job: JobId| records[position(job, "job_completed")].field("disposition");
    assert_eq!(disposition(first), Some(&Value::Str("cold_search".into())));
    assert_eq!(disposition(second), Some(&Value::Str("cache_hit".into())));
    // Only the cold search ran a session, whose records carry the job id.
    let searched = |job: JobId| {
        records.iter().any(|r| {
            matches!(r, TraceRecord::SpanStart { name, target }
                if name == "phase:synthesis" && *target == job.value())
        })
    };
    assert!(searched(first));
    assert!(!searched(second));

    // Encoded as JSONL, the ring's records form a valid trace.
    let path = std::env::temp_dir().join(format!("stoke-serve-trace-{}.jsonl", std::process::id()));
    {
        let sink = JsonlSink::create(&path, "serve-lifecycle-test").unwrap();
        for record in &records {
            sink.record(record.clone());
        }
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let summary = validate_trace(text.lines()).unwrap();
    assert_eq!(summary.records, records.len() as u64 + 1);
}

#[test]
fn cancellation_preempts_running_jobs_and_withdraws_queued_ones() {
    // Effectively unbounded search so jobs only end by cancellation.
    let config = Config {
        synthesis_iterations: u64::MAX / 2,
        ..quick_config()
    };
    let service = Service::start(ServeConfig::new(config)).unwrap();
    let running = service.submit(clumsy_add());
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.status(running) != Some(JobStatus::Running) {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The single worker is busy, so these stay queued.
    let queued_a = service.submit(clumsy_add());
    let queued_b = service.submit(clumsy_add());
    assert_eq!(service.status(queued_a), Some(JobStatus::Queued));

    assert!(service.cancel(queued_b));
    assert!(service.cancel(queued_a));
    assert_eq!(service.status(queued_a), Some(JobStatus::Cancelled));
    match service.wait(queued_a) {
        Err(ServeError::Cancelled(job)) => assert_eq!(job, queued_a),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // Cancelling twice (or a finished job) is a no-op.
    assert!(!service.cancel(queued_a));

    // Cancelling the running job preempts its chains: the outcome is a
    // budget-exhausted partial result, not a control-plane error.
    service.cancel(running);
    let outcome = service.wait(running).unwrap();
    assert_eq!(outcome.disposition, Disposition::ColdSearch);
    match outcome.result {
        Err(StokeError::BudgetExhausted { .. }) => {}
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }

    // Nothing was cached: partial results carry no reusable guarantee.
    assert_eq!(service.cache_len(), 0);
    let stats = service.shutdown().unwrap();
    assert_eq!(stats.cancelled, 2);
    assert_eq!(stats.failed, 1);
}

#[test]
fn job_budget_bounds_each_job_on_its_own() {
    let mut config = ServeConfig::new(quick_config());
    config.job_budget = Budget::unlimited().with_max_proposals(50);
    let service = Service::start(config).unwrap();

    let first = service.submit(clumsy_add());
    // A different target, so neither the cache nor a warm start applies.
    let other: Program = "movq rdi, rax\nsubq rsi, rax\nsubq rsi, rax"
        .parse()
        .unwrap();
    let second = service.submit(TargetSpec::with_gprs(
        other,
        &[Gpr::Rdi, Gpr::Rsi],
        &[Gpr::Rax],
    ));

    // Each job gets its own 50 proposals: the first job's spending does
    // not leave the second with less.
    for job in [first, second] {
        let outcome = service.wait(job).unwrap();
        match outcome.result {
            Err(StokeError::BudgetExhausted { ref partial }) => {
                let spent = partial.stats.total_proposals();
                assert!(spent > 0 && spent <= 50, "{job} ran {spent} proposals");
            }
            ref other => panic!("expected BudgetExhausted for {job}, got {other:?}"),
        }
    }
    let stats = service.shutdown().unwrap();
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.completed, 0);
}

#[test]
fn wait_rejects_unknown_jobs() {
    let service = Service::start(ServeConfig::new(quick_config())).unwrap();
    let id = service.submit(clumsy_add());
    service.wait(id).unwrap();
    // An id from another service instance is unknown here.
    let other = Service::start(ServeConfig::new(quick_config())).unwrap();
    let foreign = {
        let a = other.submit(clumsy_add());
        other.wait(a).unwrap();
        let b = other.submit(clumsy_add());
        other.wait(b).unwrap();
        b
    };
    assert!(service.status(foreign).is_none());
    match service.wait(foreign) {
        Err(ServeError::UnknownJob(job)) => assert_eq!(job, foreign),
        other => panic!("expected UnknownJob, got {other:?}"),
    }
    service.shutdown().unwrap();
    other.shutdown().unwrap();
}

#[test]
fn cache_persists_across_service_restarts() {
    let path =
        std::env::temp_dir().join(format!("stoke-serve-restart-{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut config = ServeConfig::new(quick_config());
    config.cache_path = Some(path.clone());
    let service = Service::start(config).unwrap();
    let job = service.submit(clumsy_add());
    let cold = service.wait(job).unwrap();
    assert_eq!(cold.disposition, Disposition::ColdSearch);
    service.shutdown().unwrap();
    assert!(path.exists(), "shutdown must persist the cache");

    // A fresh service over the same file serves the kernel immediately —
    // even through renamed registers.
    let mut config = ServeConfig::new(quick_config());
    config.cache_path = Some(path.clone());
    let service = Service::start(config).unwrap();
    assert_eq!(service.cache_len(), 1);
    let job = service.submit(rename_spec(&clumsy_add(), &shuffle()));
    let outcome = service.wait(job).unwrap();
    assert_eq!(outcome.disposition, Disposition::CacheHit);
    assert_eq!(outcome.result.unwrap().stats.total_proposals(), 0);
    service.shutdown().unwrap();

    // A corrupt cache file is rejected at startup, never silently served.
    std::fs::write(&path, "not a cache file\n").unwrap();
    let mut config = ServeConfig::new(quick_config());
    config.cache_path = Some(path.clone());
    match Service::start(config) {
        Err(ServeError::Persist(_)) => {}
        Ok(_) => panic!("corrupt cache file must be rejected"),
        Err(other) => panic!("expected Persist error, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// A target holding a 16-bit instruction (`add si, ax`, printed `addw`)
/// is saved to the cache file as text and loads back at the next start,
/// where it is served as a hit.
#[test]
fn a_cached_16_bit_target_survives_a_restart() {
    let path = std::env::temp_dir().join(format!("stoke-serve-16bit-{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let program: Program = "movq rdi, rax\nadd si, ax".parse().unwrap();
    let spec = TargetSpec::with_gprs(program, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);

    let mut config = ServeConfig::new(quick_config());
    config.cache_path = Some(path.clone());
    let service = Service::start(config).unwrap();
    let cold = service.wait(service.submit(spec.clone())).unwrap();
    assert_eq!(cold.disposition, Disposition::ColdSearch);
    service.shutdown().unwrap();

    let mut config = ServeConfig::new(quick_config());
    config.cache_path = Some(path.clone());
    let service = Service::start(config).expect("the saved cache loads back");
    assert_eq!(service.cache_len(), 1);
    let hit = service.wait(service.submit(spec)).unwrap();
    assert_eq!(hit.disposition, Disposition::CacheHit);
    service.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// A `stoke-rewrite-cache v1` file, laid out record for record as
/// `RewriteCache::save` writes it, loads and is served. Its timestamp is
/// decades old: entries never expire.
#[test]
fn a_v1_cache_file_is_loaded_and_served() {
    let path = std::env::temp_dir().join(format!("stoke-serve-v1-{}.cache", std::process::id()));
    let config = quick_config();
    let fp = PipelineFingerprint::new(&config, config.verifier.name());
    let key = CacheKey::for_spec(&clumsy_add(), fp);
    // The key text is the canonical form (its own tests pin it); the rest
    // of the file is the literal v1 layout: tab-separated `entry` fields
    // (creation time in Unix seconds, LRU tick, verification tag, escaped
    // key, escaped canonical rewrite) and an `end` record count.
    let escaped_key = key
        .text()
        .replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n");
    let file = format!(
        "stoke-rewrite-cache v1\n\
         entry\t1\t7\tproven\t{escaped_key}\tmovq rax, rbx\\naddq rbp, rbx\\n\n\
         end\t1\n"
    );
    std::fs::write(&path, &file).unwrap();

    let mut serve_config = ServeConfig::new(config);
    serve_config.cache_path = Some(path.clone());
    let service = Service::start(serve_config).unwrap();
    assert_eq!(service.cache_len(), 1);
    let job = service.submit(clumsy_add());
    let outcome = service.wait(job).unwrap();
    assert_eq!(outcome.disposition, Disposition::CacheHit);
    let served = outcome.result.unwrap();
    assert_eq!(served.verification, stoke::Verification::Proven);
    assert_eq!(served.rewrite.to_string(), "movq rdi, rax\naddq rsi, rax\n");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn metrics_and_trace_cover_the_job_lifecycle() {
    use std::sync::Arc;
    use stoke_obs::{MetricsRegistry, RingSink, TraceRecord};

    let registry = Arc::new(MetricsRegistry::new());
    let ring = Arc::new(RingSink::new(4096));
    let mut config = ServeConfig::new(quick_config());
    config.metrics = Some(registry.clone());
    config.trace = Some(ring.clone());
    let service = Service::start(config).unwrap();

    let first = service.submit(clumsy_add());
    assert!(service.wait(first).unwrap().result.is_ok());
    let second = service.submit(clumsy_add());
    let outcome = service.wait(second).unwrap();
    assert_eq!(outcome.disposition, Disposition::CacheHit);
    service.shutdown().unwrap();

    let snap = registry.snapshot();
    assert_eq!(snap.counter("stoke_serve_jobs_submitted_total"), 2);
    assert_eq!(snap.counter("stoke_serve_jobs_completed_total"), 2);
    assert_eq!(snap.counter("stoke_serve_jobs_failed_total"), 0);
    assert_eq!(snap.counter("stoke_serve_cache_hits_total"), 1);
    assert_eq!(snap.counter("stoke_serve_cache_misses_total"), 1);
    assert_eq!(snap.counter("stoke_serve_cold_searches_total"), 1);
    // Both jobs left the queue: the depth gauge must be back to zero.
    assert_eq!(snap.gauge("stoke_serve_queue_depth"), 0);
    let run = snap.histogram("stoke_serve_run_seconds").unwrap();
    assert_eq!(run.count, 2);
    // The cold search's session recorded into the same registry.
    assert!(snap.counter(r#"stoke_proposals_total{phase="synthesis"}"#) > 0);
    let searches: u64 = ["proven", "tests_only", "target_returned"]
        .iter()
        .map(|v| snap.counter(&format!(r#"stoke_searches_total{{verification="{v}"}}"#)))
        .sum();
    assert_eq!(searches, 1, "exactly the one cold search finished");

    // The trace captured the serve-level lifecycle events.
    let names: Vec<String> = ring
        .records()
        .into_iter()
        .filter_map(|(_, r)| match r {
            TraceRecord::Event { name, .. } => Some(name),
            _ => None,
        })
        .collect();
    for expected in ["job_submitted", "job_started", "job_completed"] {
        assert!(
            names.iter().filter(|n| n.as_str() == expected).count() >= 2,
            "expected two {expected} events, got {names:?}"
        );
    }
    assert_eq!(ring.dropped(), 0);
}

/// A verifier whose first call panics; later calls run the test suite.
#[derive(Default)]
struct PanicsOnce(std::sync::atomic::AtomicBool);

impl stoke::Verifier for PanicsOnce {
    fn name(&self) -> &'static str {
        "panics-once"
    }

    fn verify(&self, candidate: &Program, ctx: &mut stoke::VerifyContext<'_>) -> stoke::Verdict {
        if !self.0.swap(true, std::sync::atomic::Ordering::SeqCst) {
            panic!("verifier exploded");
        }
        stoke::TestOnly.verify(candidate, ctx)
    }
}

#[test]
fn a_panicking_job_fails_alone() {
    use std::sync::Arc;
    use stoke_obs::{MetricsRegistry, RingSink, TraceRecord, Value};

    let registry = Arc::new(MetricsRegistry::new());
    let ring = Arc::new(RingSink::new(1 << 16));
    let mut config = ServeConfig::new(quick_config());
    config.verifier = Some(Arc::new(PanicsOnce::default()));
    config.metrics = Some(registry.clone());
    config.trace = Some(ring.clone());
    let service = Service::start(config).unwrap();

    let first = service.submit(clumsy_add());
    let outcome = service.wait(first).unwrap();
    match outcome.result {
        Err(StokeError::Panicked(ref message)) => assert_eq!(message, "verifier exploded"),
        ref other => panic!("expected Panicked, got {other:?}"),
    }
    assert_eq!(service.status(first), Some(JobStatus::Done));
    // The worker survived: the next job runs and completes.
    let second = service.submit(clumsy_add());
    let outcome = service.wait(second).unwrap();
    assert_eq!(outcome.disposition, Disposition::ColdSearch);
    assert!(outcome.result.is_ok());
    let stats = service.shutdown().unwrap();
    assert_eq!((stats.failed, stats.completed), (1, 1));

    let snap = registry.snapshot();
    assert_eq!(snap.counter("stoke_serve_jobs_failed_total"), 1);
    assert_eq!(snap.counter("stoke_serve_jobs_completed_total"), 1);
    assert_eq!(snap.gauge("stoke_serve_queue_depth"), 0);
    let failed = ring
        .records()
        .into_iter()
        .find_map(|(_, r)| match r {
            TraceRecord::Event {
                ref name, target, ..
            } if name == "job_failed" && target == first.value() => Some(r),
            _ => None,
        })
        .expect("a job_failed event for the panicking job");
    assert_eq!(
        failed.field("error"),
        Some(&Value::Str("the search panicked: verifier exploded".into()))
    );
    // The panicked run's open phase span is closed and its search ended,
    // so the whole trace balances.
    let records = ring.records();
    let search_end = records.iter().find_map(|(_, r)| match r {
        TraceRecord::Event { name, target, .. }
            if name == "search_end" && *target == first.value() =>
        {
            Some(r)
        }
        _ => None,
    });
    assert_eq!(
        search_end.and_then(|r| r.field("verification")),
        Some(&Value::Str("failed".into()))
    );
    let meta = TraceRecord::Meta {
        version: stoke_obs::TRACE_VERSION,
        source: "test".into(),
    };
    let lines: Vec<String> = std::iter::once((0, meta))
        .chain(records)
        .map(|(ts, r)| stoke_obs::encode_line(ts, &r))
        .collect();
    let summary =
        stoke_obs::validate_trace(lines.iter().map(String::as_str)).expect("the trace balances");
    assert_eq!(summary.spans_started, summary.spans_ended);
}

#[test]
fn queue_depth_counts_queued_jobs_not_withdrawn() {
    use std::sync::Arc;
    use stoke_obs::MetricsRegistry;

    let registry = Arc::new(MetricsRegistry::new());
    // Unbounded phases, so jobs only end by cancellation.
    let mut config = ServeConfig::new(Config {
        synthesis_iterations: u64::MAX / 2,
        optimization_iterations: u64::MAX / 2,
        ..quick_config()
    });
    config.metrics = Some(registry.clone());
    let service = Service::start(config).unwrap();
    let depth = || registry.snapshot().gauge("stoke_serve_queue_depth");
    let running = service.submit(clumsy_add());
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.status(running) != Some(JobStatus::Running) {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(depth(), 0);
    let queued_a = service.submit(clumsy_add());
    let queued_b = service.submit(clumsy_add());
    assert_eq!(depth(), 2);
    // A withdrawn job leaves the queue and the count at once.
    assert!(service.cancel(queued_a));
    assert_eq!(depth(), 1);
    assert!(service.cancel(queued_b));
    assert_eq!(depth(), 0);
    service.cancel(running);
    service.wait(running).unwrap();
    service.shutdown().unwrap();
    assert_eq!(depth(), 0);
}
