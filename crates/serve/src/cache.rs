//! The canonical rewrite cache: exact lookups, near-miss scans for warm
//! starts, LRU eviction, and optional disk persistence in a
//! hand-rolled line-oriented wire format (no serde available in this
//! workspace).
//!
//! Entries are keyed by the structural [`CacheKey`]; a key's text is
//! rendered only when the cache is saved, and parsed back (and checked to
//! render identically) when it is loaded.

use crate::key::{edit_distance_within, CacheKey};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::time::SystemTime;
use stoke::Verification;
use stoke_emu::TimingModel;
use stoke_x86::Program;

/// Sizing policy for a [`RewriteCache`]. Entries never expire; the
/// capacity bound is what keeps the cache small.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum number of entries; the least-recently-used entry is
    /// evicted when a new insertion would exceed it.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig { capacity: 4096 }
    }
}

/// Counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-key lookups that found an entry.
    pub hits: u64,
    /// Exact-key lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
}

/// A cached rewrite, in canonical register space, with the static
/// latency and timing-model cycles of it and of the cached target.
///
/// The four figures are invariant under the key's register renaming and
/// immediate normalization, so they hold for every submission with an
/// equal key: a hit reports them without measuring either program again.
#[derive(Debug, Clone)]
pub struct CachedRewrite {
    /// The rewrite, alpha-renamed into canonical registers. Apply the
    /// submitting key's inverse renaming before returning it to a caller.
    pub rewrite: Program,
    /// The verification level the rewrite earned when it was cached.
    pub verification: Verification,
    /// Static latency (`H(T)`) of the target.
    pub target_latency: u64,
    /// Static latency (`H(R)`) of the rewrite.
    pub rewrite_latency: u64,
    /// Timing-model cycles of the target.
    pub target_cycles: u64,
    /// Timing-model cycles of the rewrite.
    pub rewrite_cycles: u64,
}

impl CachedRewrite {
    /// `rewrite` cached for canonical target `target`, measured once.
    fn measure(target: &Program, rewrite: Program, verification: Verification) -> CachedRewrite {
        let timing = TimingModel::default();
        CachedRewrite {
            target_latency: target.static_latency(),
            rewrite_latency: rewrite.static_latency(),
            target_cycles: timing.cycles(target),
            rewrite_cycles: timing.cycles(&rewrite),
            rewrite,
            verification,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    cached: CachedRewrite,
    created_unix: u64,
    last_used: u64,
}

/// An in-memory map from canonical target keys to canonical rewrites.
///
/// Exact lookups hash only each key's 64-bit digest and compare the full
/// interface and canonical program for equality, so two targets share an
/// entry exactly when their canonical forms are equal; nothing is printed
/// or parsed. [`RewriteCache::nearest`] additionally scans entries
/// with the same pipeline/interface section for a program body within a
/// bounded edit distance — the warm-start path. The scan is `O(entries)`;
/// with the default capacity of 4096 and whole-instruction comparisons
/// this is microseconds, far below the cost of even one MCMC proposal
/// evaluation, so no index structure is kept.
#[derive(Debug)]
pub struct RewriteCache {
    config: CacheConfig,
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
    stats: CacheStats,
}

impl RewriteCache {
    /// An empty cache with the given policy.
    pub fn new(config: CacheConfig) -> RewriteCache {
        RewriteCache {
            config,
            entries: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Behaviour counters since construction (or load).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Exact lookup. A hit bumps the entry's LRU position.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<CachedRewrite> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.cached.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Near-miss lookup for warm starts: among entries whose
    /// pipeline/interface section equals `key`'s, find the one whose
    /// canonical program body is closest to `key`'s within `max_distance`
    /// whole-instruction edits. Does not bump LRU (a warm start is a hint,
    /// not a serve).
    pub fn nearest(&self, key: &CacheKey, max_distance: usize) -> Option<(CachedRewrite, usize)> {
        let mut best: Option<(usize, &Entry)> = None;
        for (cached_key, entry) in &self.entries {
            if cached_key.interface() != key.interface() {
                continue;
            }
            // An equal key would have been an exact hit already; distance
            // 0 entries can still appear if the caller skipped `lookup`,
            // and are simply the best possible warm start.
            let cap = best.map_or(max_distance, |(d, _)| d.saturating_sub(1));
            if let Some(d) =
                edit_distance_within(key.program_lines(), cached_key.program_lines(), cap)
            {
                best = Some((d, entry));
                if d == 0 {
                    break;
                }
            }
        }
        best.map(|(d, entry)| (entry.cached.clone(), d))
    }

    /// Insert the rewrite found for `key` (submitter register space).
    ///
    /// Returns `false` — and caches nothing — when the rewrite uses a
    /// register implicitly (e.g. `mulq`'s `rax`) that the *target* does
    /// not pin: such a rewrite cannot be alpha-renamed soundly into a
    /// different submitter's register space (see
    /// [`CacheKey::admits_rewrite`]).
    pub fn insert(
        &mut self,
        key: &CacheKey,
        rewrite: &Program,
        verification: Verification,
    ) -> bool {
        if !key.admits_rewrite(rewrite) {
            return false;
        }
        self.tick += 1;
        let entry = Entry {
            cached: CachedRewrite::measure(
                key.program(),
                key.canonical_rewrite(rewrite),
                verification,
            ),
            created_unix: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            last_used: self.tick,
        };
        self.entries.insert(key.clone(), entry);
        self.stats.insertions += 1;
        while self.entries.len() > self.config.capacity.max(1) {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over capacity");
            self.entries.remove(&lru);
            self.stats.evictions += 1;
        }
        true
    }

    /// Serialize the cache to `path` in the versioned line format (see
    /// [`RewriteCache::load`]). Records are written in key-text order, so
    /// the file depends on the cache's contents only.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut records: Vec<(String, &Entry)> = self
            .entries
            .iter()
            .map(|(key, entry)| (key.text(), entry))
            .collect();
        records.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::from("stoke-rewrite-cache v1\n");
        for (key, entry) in records {
            out.push_str(&format!(
                "entry\t{}\t{}\t{}\t{}\t{}\n",
                entry.created_unix,
                entry.last_used,
                verification_tag(&entry.cached.verification),
                escape(&key),
                escape(&entry.cached.rewrite.to_string()),
            ));
        }
        out.push_str(&format!("end\t{}\n", self.entries.len()));
        std::fs::write(path, out)
    }

    /// Load a cache previously written by [`RewriteCache::save`].
    ///
    /// The loader checks the file's structure, not its integrity. It
    /// rejects the file with a typed [`PersistError`] on: a bad header; a
    /// record of unknown type or with the wrong number of fields; an
    /// unparseable timestamp, LRU tick or `end` count; an unknown
    /// verification tag; a broken escape sequence; a cached rewrite that
    /// does not parse; key text that is not a v1 canonical key (its
    /// program does not parse, or does not print back to the stored text);
    /// a rewrite that uses a register implicitly which its key does not pin
    /// (the gate [`insert`](Self::insert) applies); data after the `end`
    /// marker; and a missing `end` marker or an `end` count that disagrees
    /// with the records.
    ///
    /// The v1 format has no checksum, so an edit that still parses is not
    /// detected: a changed `out` register, `pipeline` hash digit or input
    /// mask loads as a different key, and a changed rewrite or tag loads
    /// as that rewrite or tag. Load only files the service wrote itself.
    /// The creation timestamp of each record is kept, but no entry expires.
    pub fn load(path: &Path, config: CacheConfig) -> Result<RewriteCache, PersistError> {
        let text = std::fs::read_to_string(path)?;
        let mut cache = RewriteCache::new(config);
        let mut lines = text.split_terminator('\n').enumerate();
        match lines.next() {
            Some((_, "stoke-rewrite-cache v1")) => {}
            other => {
                return Err(PersistError::BadHeader {
                    found: other.map(|(_, l)| l.to_string()).unwrap_or_default(),
                })
            }
        }
        let mut declared: Option<usize> = None;
        let mut parsed = 0usize;
        for (lineno, line) in lines {
            if declared.is_some() {
                return Err(PersistError::BadRecord {
                    line: lineno + 1,
                    reason: "data after end marker".to_string(),
                });
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let record = |reason: &str| PersistError::BadRecord {
                line: lineno + 1,
                reason: reason.to_string(),
            };
            match fields.first().copied() {
                Some("end") => {
                    if fields.len() != 2 {
                        return Err(record("end marker takes exactly one field"));
                    }
                    declared = Some(
                        fields[1]
                            .parse::<usize>()
                            .map_err(|_| record("unparseable end count"))?,
                    );
                }
                Some("entry") => {
                    if fields.len() != 6 {
                        return Err(record("entry takes exactly five fields"));
                    }
                    let created_unix = fields[1]
                        .parse::<u64>()
                        .map_err(|_| record("unparseable timestamp"))?;
                    let last_used = fields[2]
                        .parse::<u64>()
                        .map_err(|_| record("unparseable LRU tick"))?;
                    let verification = parse_verification(fields[3])
                        .ok_or_else(|| record("unknown verification tag"))?;
                    let key = unescape(fields[4]).ok_or_else(|| record("broken escape in key"))?;
                    let rewrite = unescape(fields[5])
                        .ok_or_else(|| record("broken escape in rewrite"))?
                        .parse::<Program>()
                        .map_err(|_| record("cached rewrite does not parse"))?;
                    parsed += 1;
                    let key = CacheKey::parse(&key)
                        .ok_or_else(|| record("key text is not a v1 canonical key"))?;
                    if !key.admits_rewrite(&rewrite) {
                        return Err(record(
                            "rewrite uses an implicit register the key does not pin",
                        ));
                    }
                    cache.tick = cache.tick.max(last_used);
                    let cached = CachedRewrite::measure(key.program(), rewrite, verification);
                    cache.entries.insert(
                        key,
                        Entry {
                            cached,
                            created_unix,
                            last_used,
                        },
                    );
                }
                _ => return Err(record("unknown record type")),
            }
        }
        match declared {
            Some(n) if n == parsed => Ok(cache),
            Some(n) => Err(PersistError::Truncated {
                declared: n,
                found: parsed,
            }),
            None => Err(PersistError::Truncated {
                declared: 0,
                found: parsed,
            }),
        }
    }
}

fn verification_tag(v: &Verification) -> &'static str {
    match v {
        Verification::Proven => "proven",
        Verification::TestsOnly => "tests-only",
        Verification::TargetReturned => "target-returned",
    }
}

fn parse_verification(tag: &str) -> Option<Verification> {
    match tag {
        "proven" => Some(Verification::Proven),
        "tests-only" => Some(Verification::TestsOnly),
        "target-returned" => Some(Verification::TargetReturned),
        _ => None,
    }
}

/// Escape a field for the tab/newline-delimited wire format.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a dangling or unknown escape.
fn unescape(text: &str) -> Option<String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '\\' => out.push('\\'),
                't' => out.push('\t'),
                'n' => out.push('\n'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Why a persisted cache file was rejected.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The first line was not the expected format header.
    BadHeader {
        /// The line found instead (empty for an empty file).
        found: String,
    },
    /// A record line was malformed.
    BadRecord {
        /// 1-based line number within the file.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The trailing `end` count was missing or did not match the number
    /// of records — the file was truncated mid-write.
    Truncated {
        /// The count the `end` marker declared (0 when missing).
        declared: usize,
        /// Records actually present.
        found: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "cache file I/O error: {e}"),
            PersistError::BadHeader { found } => {
                write!(f, "not a stoke-rewrite-cache v1 file (found {found:?})")
            }
            PersistError::BadRecord { line, reason } => {
                write!(f, "corrupt cache record at line {line}: {reason}")
            }
            PersistError::Truncated { declared, found } => write!(
                f,
                "cache file truncated: end marker declared {declared} records, found {found}"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}
