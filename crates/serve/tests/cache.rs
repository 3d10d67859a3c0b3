//! RewriteCache behaviour: LRU eviction, near-miss scans,
//! the implicit-register soundness gate, and the strict persistence
//! format (round trip and every rejection path).

use std::path::PathBuf;
use stoke::{Config, TargetSpec, Verification};
use stoke_serve::{CacheConfig, CacheKey, PersistError, PipelineFingerprint, RewriteCache};
use stoke_x86::{Gpr, Program};

fn fingerprint() -> PipelineFingerprint {
    PipelineFingerprint::new(&Config::default(), "cascade")
}

/// A key for `rax = <program>(rax)` — distinct programs, distinct keys.
fn key_for(program: &str) -> CacheKey {
    let spec = TargetSpec::with_gprs(program.parse().unwrap(), &[Gpr::Rax], &[Gpr::Rax]);
    CacheKey::for_spec(&spec, fingerprint())
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("stoke-serve-{}-{name}", std::process::id()))
}

#[test]
fn lru_evicts_the_least_recently_used_entry() {
    let mut cache = RewriteCache::new(CacheConfig { capacity: 2 });
    let (k1, k2, k3) = (
        key_for("addq 1, rax"),
        key_for("addq 2, rax"),
        key_for("addq 3, rax"),
    );
    let rewrite: Program = "addq 1, rax".parse().unwrap();
    assert!(cache.insert(&k1, &rewrite, Verification::TestsOnly));
    assert!(cache.insert(&k2, &rewrite, Verification::TestsOnly));
    // Touch k1 so k2 becomes the least recently used entry.
    assert!(cache.lookup(&k1).is_some());
    assert!(cache.insert(&k3, &rewrite, Verification::TestsOnly));
    assert_eq!(cache.len(), 2);
    assert!(cache.lookup(&k2).is_none(), "k2 should have been evicted");
    assert!(cache.lookup(&k1).is_some());
    assert!(cache.lookup(&k3).is_some());
    assert_eq!(cache.stats().evictions, 1);
}

#[test]
fn nearest_requires_matching_interface_and_bounded_distance() {
    let mut cache = RewriteCache::new(CacheConfig::default());
    let cached = key_for("addq 1, rax\naddq 2, rax");
    let rewrite: Program = "addq 3, rax".parse().unwrap();
    assert!(cache.insert(&cached, &rewrite, Verification::TestsOnly));

    // One instruction away: found at distance 1.
    let near = key_for("addq 1, rax\naddq 2, rax\naddq 4, rax");
    let (hit, distance) = cache.nearest(&near, 2).expect("near miss");
    assert_eq!(distance, 1);
    assert_eq!(hit.rewrite.to_string().trim(), rewrite.to_string().trim());

    // Too far for the cap.
    let far = key_for("subq 9, rax\nsubq 8, rax\nsubq 7, rax\nsubq 6, rax");
    assert!(cache.nearest(&far, 2).is_none());

    // Same program body, different interface (extra live-out): no match.
    let spec = TargetSpec::with_gprs(
        "addq 1, rax\naddq 2, rax".parse().unwrap(),
        &[Gpr::Rax],
        &[Gpr::Rax, Gpr::Rdx],
    );
    let other_iface = CacheKey::for_spec(&spec, fingerprint());
    assert!(cache.nearest(&other_iface, 2).is_none());
}

#[test]
fn insert_rejects_rewrites_with_unpinned_implicit_registers() {
    let mut cache = RewriteCache::new(CacheConfig::default());
    // Target pins nothing beyond rsp; a mulq rewrite implicitly reads and
    // writes rax/rdx, which a different submitter's renaming could move.
    let key = key_for("addq rax, rax");
    let mul_rewrite: Program = "mulq rax".parse().unwrap();
    assert!(!key.admits_rewrite(&mul_rewrite));
    assert!(!cache.insert(&key, &mul_rewrite, Verification::Proven));
    assert_eq!(cache.len(), 0);

    // A target that itself uses mulq pins rax/rdx, so the same rewrite is
    // admissible under *its* key.
    let spec = TargetSpec::with_gprs(
        "mulq rax\nmovq rdx, rax".parse().unwrap(),
        &[Gpr::Rax],
        &[Gpr::Rax],
    );
    let mul_key = CacheKey::for_spec(&spec, fingerprint());
    assert!(mul_key.admits_rewrite(&mul_rewrite));
    assert!(cache.insert(&mul_key, &mul_rewrite, Verification::Proven));
    assert_eq!(cache.len(), 1);
}

#[test]
fn save_load_round_trips_entries_and_verification_levels() {
    let path = temp_path("roundtrip.cache");
    let mut cache = RewriteCache::new(CacheConfig::default());
    let k1 = key_for("addq 1, rax");
    let k2 = key_for("addq 2, rax\nsubq 1, rax");
    let r1: Program = "addq 1, rax".parse().unwrap();
    let r2: Program = "addq 1, rax\nxorq rdx, rdx".parse().unwrap();
    assert!(cache.insert(&k1, &r1, Verification::Proven));
    assert!(cache.insert(&k2, &r2, Verification::TestsOnly));
    cache.save(&path).unwrap();

    let mut loaded = RewriteCache::load(&path, CacheConfig::default()).unwrap();
    assert_eq!(loaded.len(), 2);
    let h1 = loaded.lookup(&k1).expect("k1 survives the round trip");
    assert_eq!(h1.verification, Verification::Proven);
    assert_eq!(h1.rewrite.to_string(), r1.to_string());
    let h2 = loaded.lookup(&k2).expect("k2 survives the round trip");
    assert_eq!(h2.verification, Verification::TestsOnly);
    // Near-miss scans work on loaded entries too (iface/body were
    // reconstructed from the persisted key).
    let near = key_for("addq 2, rax\nsubq 1, rax\nsubq 0, rax");
    assert_eq!(loaded.nearest(&near, 2).expect("near miss").1, 1);
    let _ = std::fs::remove_file(&path);
}

/// Every corruption the strict loader must reject, with the typed error
/// it must reject it with.
#[test]
fn load_rejects_corrupt_files() {
    let path = temp_path("corrupt.cache");
    let save = |text: &str| std::fs::write(&path, text).unwrap();
    let load = |path: &PathBuf| RewriteCache::load(path, CacheConfig::default());

    save("not a cache at all\n");
    assert!(matches!(load(&path), Err(PersistError::BadHeader { .. })));

    save("");
    assert!(matches!(load(&path), Err(PersistError::BadHeader { .. })));

    // Missing end marker (truncated mid-write).
    save("stoke-rewrite-cache v1\n");
    assert!(matches!(load(&path), Err(PersistError::Truncated { .. })));

    // End count disagrees with the records present.
    save("stoke-rewrite-cache v1\nend\t3\n");
    assert!(matches!(
        load(&path),
        Err(PersistError::Truncated {
            declared: 3,
            found: 0
        })
    ));

    // Unknown record type.
    save("stoke-rewrite-cache v1\nbogus\tline\nend\t0\n");
    assert!(matches!(
        load(&path),
        Err(PersistError::BadRecord { line: 2, .. })
    ));

    // Entry with the wrong number of fields.
    save("stoke-rewrite-cache v1\nentry\t1\t2\nend\t1\n");
    assert!(matches!(
        load(&path),
        Err(PersistError::BadRecord { line: 2, .. })
    ));

    // Data after the end marker.
    save("stoke-rewrite-cache v1\nend\t0\nentry\t1\t2\tproven\tk\tr\n");
    assert!(matches!(
        load(&path),
        Err(PersistError::BadRecord { line: 3, .. })
    ));

    // Build one valid record, then corrupt it field by field.
    let mut cache = RewriteCache::new(CacheConfig::default());
    let key = key_for("addq 1, rax");
    let rewrite: Program = "addq 1, rax".parse().unwrap();
    assert!(cache.insert(&key, &rewrite, Verification::Proven));
    cache.save(&path).unwrap();
    let good = std::fs::read_to_string(&path).unwrap();
    assert!(RewriteCache::load(&path, CacheConfig::default()).is_ok());

    // Corrupt the one valid record field by field.
    let fields: Vec<&str> = good.lines().nth(1).unwrap().split('\t').collect();
    assert_eq!(fields.len(), 6, "sanity: entry has six fields");
    let rebuild = |f: &[&str]| format!("stoke-rewrite-cache v1\n{}\nend\t1\n", f.join("\t"));

    // Unparseable timestamp.
    let mut f = fields.clone();
    f[1] = "never";
    save(&rebuild(&f));
    assert!(matches!(load(&path), Err(PersistError::BadRecord { .. })));

    // Unknown verification tag.
    let mut f = fields.clone();
    f[3] = "pinky-swear";
    save(&rebuild(&f));
    assert!(matches!(load(&path), Err(PersistError::BadRecord { .. })));

    // Broken escape sequence in the key field.
    let broken_key = format!("{}\\x", fields[4]);
    let mut f = fields.clone();
    f[4] = &broken_key;
    save(&rebuild(&f));
    assert!(matches!(load(&path), Err(PersistError::BadRecord { .. })));

    // Cached rewrite that does not parse as a program.
    let mut f = fields.clone();
    f[5] = "this is not a program";
    save(&rebuild(&f));
    let err = load(&path);
    assert!(
        matches!(err, Err(PersistError::BadRecord { .. })),
        "unparseable rewrite must be rejected, got {err:?}"
    );

    let _ = std::fs::remove_file(&path);
}

/// The file is checked with the gate `insert` applies: a rewrite that uses
/// a register implicitly (`mulq`'s `rax` and `rdx`) is refused under a key
/// that does not pin it, since a hit's inverse renaming could move it.
#[test]
fn load_rejects_rewrites_with_unpinned_implicit_registers() {
    let path = temp_path("unpinned.cache");
    let mut cache = RewriteCache::new(CacheConfig::default());
    let key = key_for("addq rax, rax");
    let rewrite: Program = "addq rax, rax".parse().unwrap();
    assert!(cache.insert(&key, &rewrite, Verification::Proven));
    cache.save(&path).unwrap();
    let good = std::fs::read_to_string(&path).unwrap();
    assert!(RewriteCache::load(&path, CacheConfig::default()).is_ok());

    let mut fields: Vec<&str> = good.lines().nth(1).unwrap().split('\t').collect();
    fields[5] = "mulq rax\\n";
    let edited = format!("stoke-rewrite-cache v1\n{}\nend\t1\n", fields.join("\t"));
    std::fs::write(&path, edited).unwrap();
    let err = RewriteCache::load(&path, CacheConfig::default());
    assert!(
        matches!(err, Err(PersistError::BadRecord { line: 2, .. })),
        "a mulq rewrite under an unpinned key must be rejected, got {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A key's program section must parse, and must print back to exactly the
/// stored text: a loaded key compares structurally with fresh keys, so a
/// line that parses to the same instructions as another text would make
/// two stored texts one key.
#[test]
fn load_rejects_key_programs_that_do_not_print_back() {
    let path = temp_path("key-program.cache");
    let mut cache = RewriteCache::new(CacheConfig::default());
    let key = key_for("addq 16, rax");
    let rewrite: Program = "addq 16, rax".parse().unwrap();
    assert!(cache.insert(&key, &rewrite, Verification::Proven));
    cache.save(&path).unwrap();
    let good = std::fs::read_to_string(&path).unwrap();
    assert!(good.contains("\\nprog\\naddq 16, rax\\n"), "{good}");
    assert!(RewriteCache::load(&path, CacheConfig::default()).is_ok());

    for (line, parses) in [
        ("addq rax", false),
        ("frobq 16, rax", false),
        // An 8-bit one-operand multiply is not an instruction (AH).
        ("mulb cl", false),
        // These print as `addq 16, rax` and `addq 1, rax`.
        ("addq 0x10, rax", true),
        ("addq $1, rax", true),
    ] {
        assert_eq!(line.parse::<Program>().is_ok(), parses, "{line}");
        let edited = good.replace("\\nprog\\naddq 16, rax\\n", &format!("\\nprog\\n{line}\\n"));
        std::fs::write(&path, &edited).unwrap();
        let err = RewriteCache::load(&path, CacheConfig::default());
        assert!(
            matches!(err, Err(PersistError::BadRecord { line: 2, .. })),
            "key program line {line:?} must be rejected, got {err:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}
