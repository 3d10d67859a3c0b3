//! # stoke-serve
//!
//! Superoptimization as a service, on top of the STOKE reproduction's
//! [`Session`](stoke::Session) pipeline: a [`Service`] owns worker
//! threads that drain a first-in, first-out [job queue](Service::submit)
//! of [`TargetSpec`](stoke::TargetSpec)s, each job bounded by its own
//! [`Budget`](stoke::Budget) and cancellable from any thread, with every
//! lifecycle step recorded as a structured trace event through
//! [`ServeConfig::trace`].
//!
//! The economics come from the [`RewriteCache`]: targets are keyed by a
//! canonical form — registers alpha-renamed into canonical order,
//! immediates normalized where the machine semantics make it safe, the
//! whole thing fingerprinted with the opcode pool, cost model and
//! verifier — kept as instructions, so a hit prints nothing and a kernel
//! that was already solved is *served*, not
//! searched (zero proposals), no matter which registers the resubmission
//! happens to use. A submission within a small edit distance of a cached
//! entry instead *warm-starts*: its synthesis chains begin from the
//! cached rewrite rather than random code, reaching `eq' == 0` far
//! sooner. The cache keeps its guarantees honest: the pipeline
//! fingerprint is part of every key, so a rewrite proven under one
//! verifier/cost-model configuration is never served to a submission
//! demanding a different one.
//!
//! ## The cache, standalone
//!
//! ```
//! use stoke::{Config, TargetSpec, Verification};
//! use stoke_serve::{CacheConfig, CacheKey, PipelineFingerprint, RewriteCache};
//! use stoke_x86::Gpr;
//!
//! let config = Config::default();
//! let fp = PipelineFingerprint::new(&config, "cascade");
//! let mut cache = RewriteCache::new(CacheConfig::default());
//!
//! // Solve once (here: pretend the search returned this rewrite).
//! let target = "movq rdi, rbx\nmovq rbx, rax\naddq rsi, rax".parse().unwrap();
//! let spec = TargetSpec::with_gprs(target, &[Gpr::Rdi, Gpr::Rsi], &[Gpr::Rax]);
//! let key = CacheKey::for_spec(&spec, fp);
//! let rewrite = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
//! assert!(cache.insert(&key, &rewrite, Verification::Proven));
//!
//! // The same computation through different registers is the same key:
//! // keys compare their canonical instructions, and print the same text.
//! let renamed = "movq r8, rbx\nmovq rbx, r11\naddq r9, r11".parse().unwrap();
//! let renamed_spec = TargetSpec::with_gprs(renamed, &[Gpr::R8, Gpr::R9], &[Gpr::R11]);
//! let renamed_key = CacheKey::for_spec(&renamed_spec, fp);
//! assert_eq!(key, renamed_key);
//! assert!(key.text().ends_with("prog\nmovq rax, rcx\nmovq rcx, rdx\naddq rbx, rdx\n"));
//! let hit = cache.lookup(&renamed_key).expect("cache hit");
//! // Map the cached rewrite back into the submitter's registers.
//! let served = renamed_key.renaming().inverse().apply_program(&hit.rewrite);
//! assert_eq!(served.to_string().trim(), "movq r8, r11\naddq r9, r11");
//! ```
//!
//! ## The service
//!
//! See [`Service`] for the end-to-end queue example; the `serve.rs`
//! example at the repository root submits one kernel a hundred times and
//! prints the measured hit rate and latencies.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod key;
pub mod service;

pub use cache::{CacheConfig, CacheStats, CachedRewrite, PersistError, RewriteCache};
pub use key::{edit_distance_within, fnv1a64, CacheKey, PipelineFingerprint, SEMANTICS_REVISION};
pub use service::{
    Disposition, JobId, JobOutcome, JobStatus, ServeConfig, ServeError, Service, ServiceStats,
};
