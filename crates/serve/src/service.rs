//! The long-running service: a FIFO job queue over worker threads,
//! each job a full [`Session`] pipeline run with its own budget and
//! cancellation, short-circuited through the [`RewriteCache`] when a
//! canonically-equal target was already solved and warm-started when a
//! near-miss was.

use crate::cache::{CacheConfig, CacheStats, RewriteCache};
use crate::key::{CacheKey, PipelineFingerprint};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stoke::{
    Budget, Config, RunRequest, SearchStats, Session, StokeError, StokeResult, TargetSpec, Verifier,
};
use stoke_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, TraceRecord, TraceSink, Value, SECONDS_BOUNDS,
};
use stoke_x86::Program;

/// Identifier of a submitted job, unique within one [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// The raw id (also the `target` of the job's trace records).
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Where a job's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// A full search ran with no cache assistance.
    ColdSearch,
    /// A canonically-equal target was cached: the rewrite was served
    /// without launching a search (zero proposals).
    CacheHit,
    /// A near-miss cache entry seeded the synthesis chains.
    WarmStart {
        /// Canonical edit distance to the entry that seeded the search.
        distance: usize,
    },
}

/// Lifecycle state of a job, from [`Service::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// A worker is running it.
    Running,
    /// Finished; [`Service::wait`] returns its outcome.
    Done,
    /// Cancelled while still queued; it never ran.
    Cancelled,
}

/// The completed outcome of one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job this outcome belongs to.
    pub job: JobId,
    /// Where the result came from.
    pub disposition: Disposition,
    /// The pipeline result — exactly what [`Session::run`] would return,
    /// including [`StokeError::BudgetExhausted`] with a partial result
    /// when the job's budget ran out or the job was cancelled mid-run.
    pub result: Result<StokeResult, StokeError>,
    /// Time spent queued before a worker picked the job up.
    pub queue_time: Duration,
    /// Time from pickup to completion (≈ `stats.total_time` for cold
    /// searches, ~zero for cache hits).
    pub run_time: Duration,
}

/// Counters describing service activity, from [`Service::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs that completed with `Ok`.
    pub completed: u64,
    /// Jobs whose run returned an error (budget exhaustion included).
    pub failed: u64,
    /// Jobs cancelled before running.
    pub cancelled: u64,
    /// Jobs served straight from the cache.
    pub cache_hits: u64,
    /// Jobs warm-started from a near-miss entry.
    pub warm_starts: u64,
    /// Jobs that ran a cold search.
    pub cold_searches: u64,
}

impl ServiceStats {
    /// Fold one lifecycle event into the counters.
    fn count(&mut self, record: &TraceRecord) {
        let TraceRecord::Event { name, .. } = record else {
            return;
        };
        match name.as_str() {
            "job_submitted" => self.submitted += 1,
            "job_cancelled" => self.cancelled += 1,
            "job_completed" => self.completed += 1,
            "job_failed" => self.failed += 1,
            _ => return,
        }
        match disposition(record) {
            "cache_hit" => self.cache_hits += 1,
            "warm_start" => self.warm_starts += 1,
            "cold_search" => self.cold_searches += 1,
            _ => {}
        }
    }

    /// Fraction of finished jobs served straight from the cache.
    pub fn hit_rate(&self) -> f64 {
        let finished = self.completed + self.failed;
        if finished == 0 {
            0.0
        } else {
            self.cache_hits as f64 / finished as f64
        }
    }
}

/// Errors from the service control plane ([`Service::wait`] and friends).
/// Search errors travel inside [`JobOutcome::result`] instead.
#[derive(Debug)]
pub enum ServeError {
    /// The job id was never issued by this service.
    UnknownJob(JobId),
    /// The job was cancelled while queued and has no outcome.
    Cancelled(JobId),
    /// Saving or loading the persistent cache failed.
    Persist(crate::cache::PersistError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownJob(job) => write!(f, "{job} was never submitted here"),
            ServeError::Cancelled(job) => write!(f, "{job} was cancelled before it ran"),
            ServeError::Persist(e) => write!(f, "cache persistence failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<crate::cache::PersistError> for ServeError {
    fn from(e: crate::cache::PersistError) -> ServeError {
        ServeError::Persist(e)
    }
}

/// Configuration of a [`Service`].
pub struct ServeConfig {
    /// The search configuration every job runs under (it is part of the
    /// cache key's pipeline fingerprint).
    pub search: Config,
    /// Worker threads draining the queue (each job then runs its own
    /// `search.threads` chains).
    pub workers: usize,
    /// Template for per-job budgets: each job gets a
    /// [detached](Budget::detached) copy so jobs cancel independently.
    pub job_budget: Budget,
    /// Rewrite-cache sizing.
    pub cache: CacheConfig,
    /// When set, the cache is loaded from this file at start (if it
    /// exists) and saved back on [`Service::shutdown`].
    pub cache_path: Option<PathBuf>,
    /// Verifier for every job's re-rank stage (`None` = the session
    /// default cascade). Its name is part of the pipeline fingerprint.
    pub verifier: Option<Arc<dyn Verifier>>,
    /// Optional metrics registry. When set, the service folds its
    /// lifecycle events (see [`ServeConfig::trace`]) into the
    /// `stoke_serve_*` families: job counters by outcome and disposition,
    /// cache misses (finished jobs not served from the cache), the queue
    /// and run latency histograms, and the `stoke_serve_queue_depth` gauge
    /// (jobs submitted, less those started or withdrawn while queued).
    /// Every job's session folds its search events into the same
    /// registry.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Optional structured trace sink: the service's record of what every
    /// job did. It receives the lifecycle events `job_submitted`,
    /// `job_started`, `job_completed` / `job_failed` (with the
    /// `disposition`, plus the warm-start `distance`; a failed job also
    /// carries its `error`) and `job_cancelled`,
    /// and every job session's span/event records, all with
    /// `target` = [`JobId::value`].
    pub trace: Option<Arc<dyn TraceSink>>,
}

impl ServeConfig {
    /// A service configuration with `search` and defaults everywhere
    /// else: one worker, an unlimited job budget, a 4096-entry cache, no
    /// persistence.
    pub fn new(search: Config) -> ServeConfig {
        ServeConfig {
            search,
            workers: 1,
            job_budget: Budget::unlimited(),
            cache: CacheConfig::default(),
            cache_path: None,
            verifier: None,
            metrics: None,
            trace: None,
        }
    }
}

/// Maximum canonical edit distance between a submission and the cached
/// entry that warm-starts its synthesis chains.
const WARM_START_MAX_DISTANCE: usize = 2;

/// Submitted jobs.
const JOBS_SUBMITTED: Counter = Counter::new("stoke_serve_jobs_submitted_total", None);
/// Jobs cancelled while queued.
const JOBS_CANCELLED: Counter = Counter::new("stoke_serve_jobs_cancelled_total", None);
/// Jobs that finished with a rewrite.
const JOBS_COMPLETED: Counter = Counter::new("stoke_serve_jobs_completed_total", None);
/// Jobs that finished with an error.
const JOBS_FAILED: Counter = Counter::new("stoke_serve_jobs_failed_total", None);
/// Finished jobs served from the cache.
const CACHE_HITS: Counter = Counter::new("stoke_serve_cache_hits_total", None);
/// Finished jobs not served from the cache.
const CACHE_MISSES: Counter = Counter::new("stoke_serve_cache_misses_total", None);
/// Finished jobs that searched from a near-miss cached rewrite.
const WARM_STARTS: Counter = Counter::new("stoke_serve_warm_starts_total", None);
/// Finished jobs that searched from scratch.
const COLD_SEARCHES: Counter = Counter::new("stoke_serve_cold_searches_total", None);
/// Jobs waiting in the queue.
const QUEUE_DEPTH: Gauge = Gauge::new("stoke_serve_queue_depth", None);
/// Time a finished job waited in the queue.
const QUEUE_SECONDS: Histogram = Histogram::new("stoke_serve_queue_seconds", None, &SECONDS_BOUNDS);
/// Time a finished job ran.
const RUN_SECONDS: Histogram = Histogram::new("stoke_serve_run_seconds", None, &SECONDS_BOUNDS);

/// The `disposition` field of a finished job's event, or `""`.
fn disposition(record: &TraceRecord) -> &str {
    match record.field("disposition") {
        Some(Value::Str(d)) => d,
        _ => "",
    }
}

/// Fold one lifecycle event into the `stoke_serve_*` metrics of
/// `registry`: the only place they are updated.
fn count(registry: &MetricsRegistry, record: &TraceRecord) {
    let TraceRecord::Event { name, .. } = record else {
        return;
    };
    let counter = |family: &'static Counter| registry.counter_add(family, "", 1);
    let queue_depth = |n: i64| registry.gauge_add(&QUEUE_DEPTH, "", n);
    let latency = |family: &'static Histogram, key: &str| {
        let seconds = match record.field(key) {
            Some(&Value::U64(us)) => us as f64 / 1e6,
            _ => 0.0,
        };
        registry.histogram_observe(family, "", seconds);
    };
    match name.as_str() {
        "job_submitted" => {
            counter(&JOBS_SUBMITTED);
            queue_depth(1);
        }
        "job_started" => queue_depth(-1),
        "job_cancelled" => {
            counter(&JOBS_CANCELLED);
            queue_depth(-1);
        }
        "job_completed" | "job_failed" => {
            counter(if name == "job_failed" {
                &JOBS_FAILED
            } else {
                &JOBS_COMPLETED
            });
            let served_by = disposition(record);
            counter(match served_by {
                "cache_hit" => &CACHE_HITS,
                "warm_start" => &WARM_STARTS,
                _ => &COLD_SEARCHES,
            });
            if served_by != "cache_hit" {
                counter(&CACHE_MISSES);
            }
            latency(&QUEUE_SECONDS, "queue_us");
            latency(&RUN_SECONDS, "run_us");
        }
        _ => {}
    }
}

/// Take a lock (or wake from a condition variable) even if a thread
/// panicked while holding it. A job's panic is caught around its session
/// run, outside every lock here, and each critical section leaves the
/// service state consistent at every step, so a poisoned lock guards
/// nothing broken and one panic never turns into a dead service.
fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

struct PendingJob {
    id: JobId,
    spec: TargetSpec,
    budget: Budget,
    submitted: Instant,
}

struct JobRecord {
    status: JobStatus,
    cancel: stoke::CancelToken,
    outcome: Option<JobOutcome>,
}

struct QueueState {
    /// Jobs waiting for a worker, oldest first. Holds exactly the jobs
    /// whose status is [`JobStatus::Queued`].
    pending: VecDeque<PendingJob>,
    jobs: HashMap<JobId, JobRecord>,
    next_id: u64,
    shutdown: bool,
    stats: ServiceStats,
}

struct Shared {
    config: Config,
    fingerprint: PipelineFingerprint,
    verifier: Option<Arc<dyn Verifier>>,
    job_budget: Budget,
    queue: Mutex<QueueState>,
    /// Wakes workers (new job / shutdown).
    work: Condvar,
    /// Wakes `wait` callers (job finished / cancelled).
    done: Condvar,
    cache: Mutex<RewriteCache>,
    registry: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<dyn TraceSink>>,
}

impl Shared {
    /// Mark a queued job cancelled. Called under the queue lock, so the
    /// job is counted and traced before any `wait` caller sees it.
    fn withdraw(&self, q: &mut QueueState, job: JobId) {
        q.jobs.get_mut(&job).expect("record exists").status = JobStatus::Cancelled;
        self.record(q, "job_cancelled", job, Vec::new());
        self.done.notify_all();
    }

    /// Record one lifecycle event: fold it into the service counters and
    /// the registry, then forward it to the trace sink. Called under the
    /// queue lock, which owns the counters and keeps each job's events in
    /// lifecycle order.
    fn record(&self, q: &mut QueueState, name: &str, job: JobId, fields: Vec<(String, Value)>) {
        let record = TraceRecord::Event {
            name: name.to_string(),
            target: job.value(),
            fields,
        };
        q.stats.count(&record);
        if let Some(registry) = &self.registry {
            count(registry, &record);
        }
        if let Some(sink) = &self.trace {
            sink.record(record);
        }
    }
}

/// Superoptimization as a service: worker threads drain a FIFO queue of
/// [`TargetSpec`] jobs through the [`Session`] pipeline, short-circuit
/// canonically-cached targets, and warm-start near misses.
///
/// ```
/// use stoke::{Config, TargetSpec};
/// use stoke_serve::{Disposition, ServeConfig, Service};
/// use stoke_x86::Gpr;
///
/// let config = Config::builder()
///     .ell(8).num_testcases(8).threads(1)
///     .synthesis_iterations(2_000).optimization_iterations(8_000)
///     .build().unwrap();
/// let service = Service::start(ServeConfig::new(config)).unwrap();
/// let target = "movq rdi, rbx\nmovq rbx, rax\naddq rsi, rax".parse().unwrap();
/// let spec = TargetSpec::with_gprs(target, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
///
/// let first = service.submit(spec.clone());
/// let second = service.submit(spec); // same target again
/// assert!(service.wait(first).unwrap().result.is_ok());
/// let outcome = service.wait(second).unwrap();
/// // The resubmission is served from the cache without searching.
/// assert_eq!(outcome.disposition, Disposition::CacheHit);
/// assert_eq!(outcome.result.unwrap().stats.total_proposals(), 0);
/// let stats = service.shutdown().unwrap();
/// assert_eq!(stats.cache_hits, 1);
/// ```
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    cache_path: Option<PathBuf>,
}

impl Service {
    /// Start the service: load the persistent cache (when configured and
    /// present) and spawn the worker threads.
    ///
    /// # Errors
    /// [`ServeError::Persist`] if a configured cache file exists but is
    /// corrupt — a damaged cache is rejected, never silently served.
    pub fn start(config: ServeConfig) -> Result<Service, ServeError> {
        // An explicit verifier object wins; otherwise the search config's
        // verifier spec (e.g. the leakage cascade) names the stage.
        let verifier_name = config
            .verifier
            .as_ref()
            .map_or_else(|| config.search.verifier.name(), |v| v.name());
        let fingerprint = PipelineFingerprint::new(&config.search, verifier_name);
        let cache = match &config.cache_path {
            Some(path) if path.exists() => RewriteCache::load(path, config.cache.clone())?,
            _ => RewriteCache::new(config.cache.clone()),
        };
        let shared = Arc::new(Shared {
            fingerprint,
            verifier: config.verifier,
            job_budget: config.job_budget,
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                jobs: HashMap::new(),
                next_id: 0,
                shutdown: false,
                stats: ServiceStats::default(),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cache: Mutex::new(cache),
            registry: config.metrics,
            trace: config.trace,
            config: config.search,
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        Ok(Service {
            shared,
            workers,
            cache_path: config.cache_path,
        })
    }

    /// Submit a target to the back of the queue; returns immediately.
    /// Jobs start in submission order, each under a fresh, independently
    /// cancellable copy of [`ServeConfig::job_budget`].
    pub fn submit(&self, spec: TargetSpec) -> JobId {
        let mut q = unpoison(self.shared.queue.lock());
        let id = JobId(q.next_id);
        q.next_id += 1;
        let budget = self.shared.job_budget.detached();
        q.jobs.insert(
            id,
            JobRecord {
                status: JobStatus::Queued,
                cancel: budget.cancel_token(),
                outcome: None,
            },
        );
        q.pending.push_back(PendingJob {
            id,
            spec,
            budget,
            submitted: Instant::now(),
        });
        // Account for the job before a worker can see it: a worker takes
        // the queue lock to pop the job, so recording here keeps
        // `job_submitted` ahead of `job_started` in the trace and the
        // queue-depth gauge from dipping below zero.
        self.shared.record(&mut q, "job_submitted", id, Vec::new());
        self.shared.work.notify_one();
        id
    }

    /// The job's lifecycle state, or `None` for an unknown id.
    pub fn status(&self, job: JobId) -> Option<JobStatus> {
        let q = unpoison(self.shared.queue.lock());
        q.jobs.get(&job).map(|r| r.status)
    }

    /// Block until the job finishes and return its outcome (cloned, so
    /// several callers may wait on the same job).
    ///
    /// # Errors
    /// [`ServeError::UnknownJob`] for an id this service never issued;
    /// [`ServeError::Cancelled`] if the job was cancelled while queued.
    /// A job cancelled *mid-run* instead completes with
    /// `Err(StokeError::BudgetExhausted { .. })` in its outcome.
    pub fn wait(&self, job: JobId) -> Result<JobOutcome, ServeError> {
        let mut q = unpoison(self.shared.queue.lock());
        loop {
            match q.jobs.get(&job) {
                None => return Err(ServeError::UnknownJob(job)),
                Some(record) => match (&record.outcome, record.status) {
                    (Some(outcome), _) => return Ok(outcome.clone()),
                    (None, JobStatus::Cancelled) => return Err(ServeError::Cancelled(job)),
                    _ => {}
                },
            }
            q = unpoison(self.shared.done.wait(q));
        }
    }

    /// Cancel a job. A queued job is withdrawn and never runs; a running
    /// job's budget is cancelled, preempting its chains at the next
    /// proposal. Returns `false` for unknown or already-finished jobs.
    pub fn cancel(&self, job: JobId) -> bool {
        let mut q = unpoison(self.shared.queue.lock());
        let Some(record) = q.jobs.get_mut(&job) else {
            return false;
        };
        match record.status {
            JobStatus::Done | JobStatus::Cancelled => false,
            JobStatus::Running => {
                record.cancel.cancel();
                true
            }
            JobStatus::Queued => {
                q.pending.retain(|pending| pending.id != job);
                self.shared.withdraw(&mut q, job);
                true
            }
        }
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        unpoison(self.shared.queue.lock()).stats
    }

    /// A snapshot of the rewrite-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        unpoison(self.shared.cache.lock()).stats()
    }

    /// Entries in the rewrite cache.
    pub fn cache_len(&self) -> usize {
        unpoison(self.shared.cache.lock()).len()
    }

    /// Stop the service: cancel still-queued jobs, wait for running jobs
    /// to finish, persist the cache (when configured), and return the
    /// final counters.
    ///
    /// # Errors
    /// [`ServeError::Persist`] if saving the cache file fails; workers
    /// are already stopped by then.
    pub fn shutdown(mut self) -> Result<ServiceStats, ServeError> {
        self.shutdown_impl()?;
        Ok(self.stats())
    }

    fn shutdown_impl(&mut self) -> Result<(), ServeError> {
        {
            let mut q = unpoison(self.shared.queue.lock());
            if !q.shutdown {
                q.shutdown = true;
                while let Some(job) = q.pending.pop_front() {
                    self.shared.withdraw(&mut q, job.id);
                }
            }
        }
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        for handle in std::mem::take(&mut self.workers) {
            let _ = handle.join();
        }
        if let Some(path) = &self.cache_path {
            unpoison(self.shared.cache.lock())
                .save(path)
                .map_err(crate::cache::PersistError::Io)?;
        }
        Ok(())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.shutdown_impl();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let mut q = unpoison(shared.queue.lock());
        let job = loop {
            if let Some(job) = q.pending.pop_front() {
                break job;
            }
            if q.shutdown {
                return;
            }
            q = unpoison(shared.work.wait(q));
        };
        // Marked running under the same lock that took it off the queue,
        // so `cancel` finds every `Queued` job in `pending`.
        let queue_time = job.submitted.elapsed();
        q.jobs.get_mut(&job.id).expect("record exists").status = JobStatus::Running;
        shared.record(
            &mut q,
            "job_started",
            job.id,
            vec![(
                "queue_us".to_string(),
                Value::U64(queue_time.as_micros() as u64),
            )],
        );
        drop(q);
        run_job(&shared, job, queue_time);
    }
}

fn run_job(shared: &Arc<Shared>, job: PendingJob, queue_time: Duration) {
    let PendingJob {
        id, spec, budget, ..
    } = job;
    let started = Instant::now();

    let key = CacheKey::for_spec(&spec, shared.fingerprint);

    // 1. Exact canonical hit: serve without searching.
    let exact = unpoison(shared.cache.lock()).lookup(&key);
    if let Some(hit) = exact {
        let result = StokeResult {
            rewrite: key.renaming().inverse().apply_program(&hit.rewrite),
            target_latency: hit.target_latency,
            rewrite_latency: hit.rewrite_latency,
            target_cycles: hit.target_cycles,
            rewrite_cycles: hit.rewrite_cycles,
            verification: hit.verification,
            stats: SearchStats::default(),
        };
        complete(
            shared,
            id,
            Disposition::CacheHit,
            Ok(result),
            queue_time,
            started.elapsed(),
        );
        return;
    }

    // 2. Near miss: seed synthesis from the closest cached rewrite.
    let near = unpoison(shared.cache.lock()).nearest(&key, WARM_START_MAX_DISTANCE);
    let warm: Option<(Program, usize)> = near.map(|(cached, distance)| {
        (
            key.renaming().inverse().apply_program(&cached.rewrite),
            distance,
        )
    });
    // 3. Full pipeline run under the job's own budget.
    let mut session = Session::new(shared.config.clone()).with_budget(budget);
    if let Some(verifier) = &shared.verifier {
        session = session.with_verifier(verifier.clone());
    }
    if let Some(registry) = &shared.registry {
        session = session.with_metrics(registry.clone());
    }
    if let Some(sink) = &shared.trace {
        session = session.with_trace(sink.clone());
    }
    let mut request = RunRequest::new().for_target(id.value() as usize);
    if let Some((program, _)) = &warm {
        request = request.warm_start(program);
    }
    // A panic in the run (from a custom verifier or cost model, or any
    // `expect` below the session) fails this job alone: the worker lives
    // on to serve the next one.
    let result = panic::catch_unwind(AssertUnwindSafe(|| session.run_request(&spec, request)))
        .unwrap_or_else(|payload| Err(StokeError::Panicked(panic_message(payload.as_ref()))));

    if let Ok(found) = &result {
        // Only fully completed results are cached: a partial result's
        // rewrite passed fewer guarantees than the fingerprint claims.
        // TargetReturned results are still cached — "no improvement
        // exists within this effort" is exactly as reusable.
        unpoison(shared.cache.lock()).insert(&key, &found.rewrite, found.verification.clone());
    }
    let disposition = match warm {
        Some((_, distance)) => Disposition::WarmStart { distance },
        None => Disposition::ColdSearch,
    };
    complete(
        shared,
        id,
        disposition,
        result,
        queue_time,
        started.elapsed(),
    );
}

fn complete(
    shared: &Arc<Shared>,
    id: JobId,
    disposition: Disposition,
    result: Result<StokeResult, StokeError>,
    queue_time: Duration,
    run_time: Duration,
) {
    let mut fields = vec![
        (
            "disposition".to_string(),
            Value::Str(
                match disposition {
                    Disposition::CacheHit => "cache_hit",
                    Disposition::WarmStart { .. } => "warm_start",
                    Disposition::ColdSearch => "cold_search",
                }
                .to_string(),
            ),
        ),
        (
            "queue_us".to_string(),
            Value::U64(queue_time.as_micros() as u64),
        ),
        (
            "run_us".to_string(),
            Value::U64(run_time.as_micros() as u64),
        ),
    ];
    if let Disposition::WarmStart { distance } = disposition {
        fields.push(("distance".to_string(), Value::U64(distance as u64)));
    }
    if let Err(e) = &result {
        fields.push(("error".to_string(), Value::Str(e.to_string())));
    }
    let name = if result.is_err() {
        "job_failed"
    } else {
        "job_completed"
    };
    // Everything is recorded before `wait` callers can see the outcome,
    // so a returned `wait` implies the job's metrics and trace are final.
    let mut q = unpoison(shared.queue.lock());
    shared.record(&mut q, name, id, fields);
    let record = q.jobs.get_mut(&id).expect("record exists");
    record.status = JobStatus::Done;
    record.outcome = Some(JobOutcome {
        job: id,
        disposition,
        result,
        queue_time,
        run_time,
    });
    shared.done.notify_all();
}

/// The message of a caught panic: its `&str` or `String` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "a panic with a non-string payload".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declared families have unique names that all carry the
    /// `stoke_serve_` prefix (which no search family uses, so this fold
    /// and the search fold can share one registry without a clash), and
    /// histogram bounds that are finite and strictly increasing.
    #[test]
    fn the_declared_families_are_unique_and_well_formed() {
        let counters = [
            &JOBS_SUBMITTED,
            &JOBS_CANCELLED,
            &JOBS_COMPLETED,
            &JOBS_FAILED,
            &CACHE_HITS,
            &CACHE_MISSES,
            &WARM_STARTS,
            &COLD_SEARCHES,
        ];
        let histograms = [&QUEUE_SECONDS, &RUN_SECONDS];
        let mut names: Vec<&str> = counters.iter().map(|c| c.name).collect();
        names.push(QUEUE_DEPTH.name);
        names.extend(histograms.iter().map(|h| h.name));
        assert!(names.iter().all(|n| n.starts_with("stoke_serve_")));
        let declared = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), declared, "a family name is declared twice");
        for h in histograms {
            assert!(h.bounds.iter().all(|b| b.is_finite()), "{}", h.name);
            assert!(h.bounds.windows(2).all(|w| w[0] < w[1]), "{}", h.name);
        }
    }

    /// The exposition of the stream folded in
    /// `a_fixed_stream_renders_a_golden_exposition`.
    const GOLDEN: &str = r#"# TYPE stoke_serve_cache_hits_total counter
stoke_serve_cache_hits_total 1
# TYPE stoke_serve_cache_misses_total counter
stoke_serve_cache_misses_total 2
# TYPE stoke_serve_cold_searches_total counter
stoke_serve_cold_searches_total 1
# TYPE stoke_serve_jobs_cancelled_total counter
stoke_serve_jobs_cancelled_total 1
# TYPE stoke_serve_jobs_completed_total counter
stoke_serve_jobs_completed_total 2
# TYPE stoke_serve_jobs_failed_total counter
stoke_serve_jobs_failed_total 1
# TYPE stoke_serve_jobs_submitted_total counter
stoke_serve_jobs_submitted_total 5
# TYPE stoke_serve_warm_starts_total counter
stoke_serve_warm_starts_total 1
# TYPE stoke_serve_queue_depth gauge
stoke_serve_queue_depth 1
# TYPE stoke_serve_queue_seconds histogram
stoke_serve_queue_seconds_bucket{le="0.001"} 2
stoke_serve_queue_seconds_bucket{le="0.01"} 2
stoke_serve_queue_seconds_bucket{le="0.05"} 2
stoke_serve_queue_seconds_bucket{le="0.1"} 3
stoke_serve_queue_seconds_bucket{le="0.5"} 3
stoke_serve_queue_seconds_bucket{le="1"} 3
stoke_serve_queue_seconds_bucket{le="5"} 3
stoke_serve_queue_seconds_bucket{le="30"} 3
stoke_serve_queue_seconds_bucket{le="120"} 3
stoke_serve_queue_seconds_bucket{le="+Inf"} 3
stoke_serve_queue_seconds_sum 0.060739999999999995
stoke_serve_queue_seconds_count 3
# TYPE stoke_serve_run_seconds histogram
stoke_serve_run_seconds_bucket{le="0.001"} 1
stoke_serve_run_seconds_bucket{le="0.01"} 1
stoke_serve_run_seconds_bucket{le="0.05"} 1
stoke_serve_run_seconds_bucket{le="0.1"} 1
stoke_serve_run_seconds_bucket{le="0.5"} 2
stoke_serve_run_seconds_bucket{le="1"} 2
stoke_serve_run_seconds_bucket{le="5"} 3
stoke_serve_run_seconds_bucket{le="30"} 3
stoke_serve_run_seconds_bucket{le="120"} 3
stoke_serve_run_seconds_bucket{le="+Inf"} 3
stoke_serve_run_seconds_sum 2.75003
stoke_serve_run_seconds_count 3
"#;

    /// A fixed lifecycle stream folds into exactly this exposition: the
    /// bytes a metrics scrape returns do not depend on how the registry
    /// stores its values.
    #[test]
    fn a_fixed_stream_renders_a_golden_exposition() {
        let event = |name: &str, job: u64, fields: Vec<(&str, Value)>| TraceRecord::Event {
            name: name.into(),
            target: job,
            fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        };
        let finished = |name: &str, job: u64, served_by: &str, queue_us: u64, run_us: u64| {
            event(
                name,
                job,
                vec![
                    ("disposition", Value::Str(served_by.into())),
                    ("queue_us", Value::U64(queue_us)),
                    ("run_us", Value::U64(run_us)),
                ],
            )
        };
        let stream = [
            event("job_submitted", 0, Vec::new()),
            event("job_submitted", 1, Vec::new()),
            event("job_submitted", 2, Vec::new()),
            event("job_submitted", 3, Vec::new()),
            event("job_started", 0, vec![("queue_us", Value::U64(40))]),
            finished("job_completed", 0, "cold_search", 40, 2_300_000),
            event("job_started", 1, vec![("queue_us", Value::U64(700))]),
            finished("job_completed", 1, "cache_hit", 700, 30),
            event("job_cancelled", 3, Vec::new()),
            event("job_started", 2, vec![("queue_us", Value::U64(60_000))]),
            finished("job_failed", 2, "warm_start", 60_000, 450_000),
            event("job_submitted", 4, Vec::new()),
        ];
        let registry = MetricsRegistry::new();
        for record in &stream {
            count(&registry, record);
        }
        assert_eq!(registry.render_text(), GOLDEN);
    }
}
