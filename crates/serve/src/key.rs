//! Canonical cache keys for submitted targets.
//!
//! A [`CacheKey`] is the canonical form of a [`TargetSpec`] under a fixed
//! evaluation pipeline: the program is immediate-normalized and
//! alpha-renamed into canonical register order (see [`stoke_x86::canon`])
//! and kept as instructions, and the interface (inputs and live-outs) is
//! expressed in canonical registers as a few short text lines headed by a
//! fingerprint of the pipeline configuration — opcode pool, cost model,
//! verifier and correctness weights — so a rewrite proven under
//! one pipeline is never served to a submission that demands different
//! guarantees.
//!
//! Keys compare structurally: two keys are equal exactly when their
//! interfaces and canonical programs are, so semantically different
//! programs with distinct canonical forms *cannot* alias. A 64-bit digest
//! of both, computed once per key, is all a hash map hashes. The
//! `stoke-serve key v1` text of a key — the interface lines, then `prog`
//! and one line per canonical instruction — is rendered only on demand
//! ([`CacheKey::text`]), for persistence; equal keys have equal texts and
//! distinct keys distinct ones.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use stoke::{Config, InputKind, InputSpec, TargetSpec};
use stoke_x86::canon::{canonicalize, pinned_registers, Renaming};
use stoke_x86::{Gpr, Instruction, Program};

/// 64-bit FNV-1a over a byte string: tiny, dependency-free, and stable
/// across runs — exactly what a persisted cache fingerprint needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A fingerprint of everything about the evaluation pipeline that affects
/// which rewrites are acceptable: the opcode/immediate/register pools, the
/// cost model, the verifier, the equality metric and its weights, and the
/// test-suite size. Two sessions with the same fingerprint make
/// interchangeable correctness claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineFingerprint(u64);

/// The revision of the instruction semantics and validator behind a
/// correctness claim, hashed into every [`PipelineFingerprint`]. Bumped
/// whenever a change to `stoke_x86::semantics` or the validator changes
/// what a proof means, so the cache stops serving rewrites proven under
/// the old meaning. Revision 2: narrow rotates turn by the count modulo
/// their width, and overlapping or 128-bit stack accesses no longer use
/// named stack slots. Revision 3: neither do programs that use rsp in any
/// operand other than a memory base (`movq rsp, rbx`, `leaq -8(rsp),
/// rbx`).
pub const SEMANTICS_REVISION: u32 = 3;

impl PipelineFingerprint {
    /// Fingerprint a configuration plus the name of the verifier in use
    /// (`"cascade"` for the session default).
    pub fn new(config: &Config, verifier_name: &str) -> PipelineFingerprint {
        let text = format!(
            "semantics={SEMANTICS_REVISION};{}",
            pipeline_text(config, verifier_name)
        );
        PipelineFingerprint(fnv1a64(text.as_bytes()))
    }

    /// The raw 64-bit fingerprint value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The configuration text a fingerprint hashes, before the semantics
/// revision.
fn pipeline_text(config: &Config, verifier_name: &str) -> String {
    let mut text = String::new();
    text.push_str("cost=");
    text.push_str(config.cost_model.synthesis_model().name());
    text.push('/');
    text.push_str(config.cost_model.optimization_model().name());
    text.push_str(";verifier=");
    text.push_str(verifier_name);
    // The spec Debug forms carry the parameters the names elide: the
    // constant-time penalty weight, the leakage check, custom stages.
    text.push_str(&format!(
        ";costspec={:?};verifierspec={:?};strip={}",
        config.cost_model, config.verifier, config.strip_dead_code
    ));
    text.push_str(&format!(
        ";eq={:?};w={},{},{},{};tests={}",
        config.eq_metric, config.wsf, config.wfp, config.wur, config.wm, config.num_testcases
    ));
    text.push_str(";ops=");
    for op in &config.opcode_pool {
        text.push_str(&op.name());
        text.push(',');
    }
    text.push_str(";imms=");
    for imm in &config.immediate_pool {
        text.push_str(&format!("{imm},"));
    }
    text.push_str(";regs=");
    for reg in &config.register_pool {
        text.push_str(reg.name64());
        text.push(',');
    }
    text
}

/// The first line of every key text.
const KEY_HEADER: &str = "stoke-serve key v1\n";
/// The line between a key text's interface and its program.
const PROG_MARKER: &str = "prog\n";

/// The canonical cache key of one submission. See the module docs.
///
/// Equality and hashing see the interface and the canonical program only,
/// never the submitter's [`renaming`](CacheKey::renaming): two submissions
/// of one computation through different registers have equal keys.
#[derive(Debug, Clone)]
pub struct CacheKey {
    digest: u64,
    iface: String,
    program: Program,
    renaming: Renaming,
    pinned: [bool; 16],
}

impl CacheKey {
    /// Canonicalize a submission under `fingerprint`.
    pub fn for_spec(spec: &TargetSpec, fingerprint: PipelineFingerprint) -> CacheKey {
        let descriptions: Vec<String> = spec.inputs.iter().map(describe).collect();
        let tail = interface_tail(spec, &descriptions);
        let (program, renaming) = canonicalize(&spec.program, &tail);

        let mut iface = String::new();
        let _ = writeln!(iface, "pipeline {:016x}", fingerprint.value());
        // Input lines in canonical register order, so permuting the input
        // list (or renaming registers) leaves the serialization unchanged.
        let mut inputs: Vec<(usize, &str)> = spec
            .inputs
            .iter()
            .zip(&descriptions)
            .map(|(input, descr)| (renaming.apply_gpr(input.reg).index(), descr.as_str()))
            .collect();
        inputs.sort();
        for (idx, descr) in inputs {
            let _ = writeln!(iface, "in {} {descr}", Gpr::from_index(idx).name64());
        }
        let out_gprs: BTreeSet<usize> = spec
            .live_out
            .gprs
            .iter()
            .map(|g| renaming.apply_gpr(*g).index())
            .collect();
        for idx in out_gprs {
            let _ = writeln!(iface, "out {}", Gpr::from_index(idx).name64());
        }
        for xmm in &spec.live_out.xmms {
            let _ = writeln!(iface, "outx xmm{}", xmm.index());
        }
        for flag in &spec.live_out.flags {
            let _ = writeln!(iface, "outf {flag}");
        }
        CacheKey::new(iface, program, renaming)
    }

    /// The key of `program`, already canonical, behind interface text
    /// `iface`. `renaming` maps the submitter's registers to canonical ones.
    fn new(iface: String, program: Program, renaming: Renaming) -> CacheKey {
        let mut hasher = DigestHasher::default();
        iface.hash(&mut hasher);
        program.instrs().hash(&mut hasher);
        let pinned = pinned_registers(&program);
        CacheKey {
            digest: hasher.finish(),
            iface,
            program,
            renaming,
            pinned,
        }
    }

    /// Parse the text [`CacheKey::text`] renders back into a key, with the
    /// identity renaming. `None` unless the text is exactly the rendering
    /// of the key parsed from it: a program line that does not parse, or
    /// that parses but prints differently (`addq 0x10, rax`), is refused.
    pub(crate) fn parse(text: &str) -> Option<CacheKey> {
        let body = text.strip_prefix(KEY_HEADER)?;
        let (iface, prog) = body.split_once(PROG_MARKER)?;
        let program: Program = prog.parse().ok()?;
        let key = CacheKey::new(iface.to_string(), program, Renaming::identity());
        (key.text() == text).then_some(key)
    }

    /// The full canonical serialization, the `stoke-serve key v1` text a
    /// cache file stores. Rendered on every call; equal keys render equal
    /// texts and unequal keys unequal ones.
    pub fn text(&self) -> String {
        format!("{KEY_HEADER}{}{PROG_MARKER}{}", self.iface, self.program)
    }

    /// The pipeline + interface section (everything but the program
    /// body). Near-miss warm starts require byte-equal interfaces.
    pub fn interface(&self) -> &str {
        &self.iface
    }

    /// The canonical program, one entry per instruction — the unit of the
    /// near-miss edit distance.
    pub fn program_lines(&self) -> &[Instruction] {
        self.program.instrs()
    }

    /// The canonical program.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// The renaming from submitter registers to canonical registers.
    /// Apply its [`inverse`](Renaming::inverse) to map cached canonical
    /// rewrites back into the submitter's register space.
    pub fn renaming(&self) -> &Renaming {
        &self.renaming
    }

    /// Whether `rewrite` (in submitter register space) can be stored
    /// canonically under this key: every register it uses *implicitly*
    /// must be pinned by the target too, otherwise a different submitter's
    /// inverse renaming could move an implicit register and corrupt the
    /// rewrite's semantics.
    pub fn admits_rewrite(&self, rewrite: &Program) -> bool {
        let needed = pinned_registers(rewrite);
        needed
            .iter()
            .enumerate()
            .all(|(i, pinned)| !pinned || self.pinned[i])
    }

    /// `rewrite` (submitter space) expressed in canonical registers.
    pub fn canonical_rewrite(&self, rewrite: &Program) -> Program {
        self.renaming.apply_program(rewrite)
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.digest == other.digest && self.iface == other.iface && self.program == other.program
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// The hasher of a key's digest: FxHash's word-at-a-time multiply-rotate
/// mix. The derived `Hash` of an instruction makes a dozen writes of a
/// few bytes each, which SipHash charges several times more for. Digests
/// are never persisted, so the mix may change freely.
///
/// Submissions crafted to share a digest cost a lookup one equality test
/// per colliding entry, at most the cache's capacity: no more than the
/// `nearest` scan every miss already makes.
#[derive(Default)]
struct DigestHasher(u64);

impl DigestHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What the key records about one input: `val <mask>` or
/// `ptr <len> <element mask>`, then ` secret` for a secret input.
fn describe(input: &InputSpec) -> String {
    let mut descr = match input.kind {
        InputKind::Value { mask } => format!("val {mask:016x}"),
        InputKind::Pointer { len, elem_mask } => format!("ptr {len} {elem_mask:016x}"),
    };
    if input.secret {
        descr.push_str(" secret");
    }
    descr
}

/// The interface registers a canonical renaming must order even when they
/// never appear in the program body: input registers first (sorted by
/// their `descriptions` and live-out membership, which is exactly the
/// information the key records about them, so any tie is a true symmetry),
/// then remaining live-out registers in encoding order.
fn interface_tail(spec: &TargetSpec, descriptions: &[String]) -> Vec<Gpr> {
    let mut inputs: Vec<(&str, bool, usize, Gpr)> = spec
        .inputs
        .iter()
        .zip(descriptions)
        .enumerate()
        .map(|(pos, (input, descr))| {
            (
                descr.as_str(),
                spec.live_out.gprs.contains(&input.reg),
                pos,
                input.reg,
            )
        })
        .collect();
    // Position is the last tie-breaker: ties on (kind, live-out) are fully
    // symmetric, so keeping submission order there cannot affect the key.
    inputs.sort();
    let mut tail: Vec<Gpr> = inputs.into_iter().map(|(_, _, _, g)| g).collect();
    for g in &spec.live_out.gprs {
        if !tail.contains(g) {
            tail.push(*g);
        }
    }
    tail
}

/// Levenshtein distance between two canonical programs, measured in
/// whole-instruction insertions/deletions/substitutions, with an early
/// exit once the distance provably exceeds `max`. Returns `None` when the
/// programs are farther apart than `max`.
pub fn edit_distance_within<T: PartialEq>(a: &[T], b: &[T], max: usize) -> Option<usize> {
    if a.len().abs_diff(b.len()) > max {
        return None;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0usize; b.len() + 1];
    for (i, ai) in a.iter().enumerate() {
        row[0] = i + 1;
        let mut row_min = row[0];
        for (j, bj) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ai != bj);
            row[j + 1] = sub.min(prev[j + 1] + 1).min(row[j] + 1);
            row_min = row_min.min(row[j + 1]);
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(&mut prev, &mut row);
    }
    (prev[b.len()] <= max).then_some(prev[b.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_tracks_analysis_options() {
        use stoke::{CostModelSpec, VerifierSpec};
        let base = Config::default();
        let fp = |c: &Config| PipelineFingerprint::new(c, "cascade");
        let ct = Config {
            cost_model: CostModelSpec::ConstantTime { penalty: 16.0 },
            ..base.clone()
        };
        assert_ne!(fp(&base), fp(&ct), "cost-model spec must be hashed");
        let ct_other_weight = Config {
            cost_model: CostModelSpec::ConstantTime { penalty: 8.0 },
            ..base.clone()
        };
        assert_ne!(
            fp(&ct),
            fp(&ct_other_weight),
            "penalty weight must be hashed"
        );
        let leakage = Config {
            verifier: VerifierSpec::LeakageCascade,
            ..base.clone()
        };
        assert_ne!(fp(&base), fp(&leakage), "verifier spec must be hashed");
        let strip = Config {
            strip_dead_code: true,
            ..base.clone()
        };
        assert_ne!(fp(&base), fp(&strip), "dead-code stripping must be hashed");
        // And a fingerprint flip propagates into the full cache key.
        let spec = TargetSpec::new(
            "movq rdi, rax".parse().unwrap(),
            vec![stoke::InputSpec::value64(Gpr::Rdi)],
            stoke_x86::flow::LocSet::from_gprs([Gpr::Rax]),
        );
        assert_ne!(
            CacheKey::for_spec(&spec, fp(&base)).text(),
            CacheKey::for_spec(&spec, fp(&leakage)).text(),
            "flipping the leakage option must change the cache key"
        );
    }

    #[test]
    fn secret_annotation_changes_the_cache_key() {
        use stoke::InputSpec;
        use stoke_x86::flow::LocSet;
        let program: Program = "movq rdi, rax".parse().unwrap();
        let out = LocSet::from_gprs([Gpr::Rax]);
        let public = TargetSpec::new(
            program.clone(),
            vec![InputSpec::value64(Gpr::Rdi)],
            out.clone(),
        );
        let secret = TargetSpec::new(program, vec![InputSpec::value64(Gpr::Rdi).secret()], out);
        let fp = PipelineFingerprint::new(&Config::default(), "cascade");
        assert_ne!(
            CacheKey::for_spec(&public, fp).text(),
            CacheKey::for_spec(&secret, fp).text(),
            "secret annotation must change the cache key"
        );
    }

    #[test]
    fn entries_proven_under_the_previous_semantics_are_not_served() {
        use crate::{CacheConfig, RewriteCache};
        use stoke::Verification;
        let config = Config::default();
        // Before the revision was hashed, the fingerprint was the pipeline
        // text alone; under it, `rolb 9, al` was proven equal to zeroing al.
        let previous = PipelineFingerprint(fnv1a64(pipeline_text(&config, "cascade").as_bytes()));
        let current = PipelineFingerprint::new(&config, "cascade");
        let spec = TargetSpec::with_gprs("rolb 9, al".parse().unwrap(), &[Gpr::Rax], &[Gpr::Rax]);
        let rewrite: Program = "movb 0, al".parse().unwrap();
        let mut cache = RewriteCache::new(CacheConfig::default());
        let stale = CacheKey::for_spec(&spec, previous);
        assert!(cache.insert(&stale, &rewrite, Verification::Proven));
        assert!(cache.lookup(&stale).is_some());
        let key = CacheKey::for_spec(&spec, current);
        assert!(cache.lookup(&key).is_none(), "stale proof served as a hit");
        assert!(
            cache.nearest(&key, 4).is_none(),
            "stale proof served as a warm start"
        );
    }

    #[test]
    fn edit_distance_counts_line_edits() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["x".to_string(), "z".to_string(), "w".to_string()];
        assert_eq!(edit_distance_within(&a, &b, 4), Some(2));
        assert_eq!(edit_distance_within(&a, &a, 0), Some(0));
        assert_eq!(edit_distance_within(&a, &b, 1), None);
    }
}
