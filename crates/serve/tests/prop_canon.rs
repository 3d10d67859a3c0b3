//! Property tests for the canonical cache key: invariance under register
//! alpha-renaming and input reordering, no aliasing between distinct
//! canonical programs, structural equality agreeing with the key text,
//! cost figures invariant under canonicalization, persistence round trips
//! over random entries, loads of randomly corrupted cache files that
//! never panic, and `canonicalize` over programs drawn from every opcode
//! the parser names: it never panics, is idempotent, and its output
//! survives printing and parsing.

use proptest::prelude::*;
use stoke::{Config, InputSpec, Proposer, TargetSpec, Verification};
use stoke_emu::TimingModel;
use stoke_serve::{CacheConfig, CacheKey, PipelineFingerprint, RewriteCache};
use stoke_x86::canon::{canonicalize, normalize_immediates, pinned_registers, Renaming};
use stoke_x86::flow::LocSet;
use stoke_x86::{Gpr, Instruction, Mem, Opcode, Operand, Program, Scale, SlotSpec, Xmm};

fn fingerprint() -> PipelineFingerprint {
    PipelineFingerprint::new(&Config::default(), "cascade")
}

/// A random program drawn from the full proposal distribution (so it can
/// contain implicit-operand opcodes like `mulq`, memory operands, every
/// immediate in the pool, ...).
fn random_program(seed: u64, len: usize) -> Program {
    let config = Config {
        ell: len,
        ..Config::default()
    };
    let mut proposer = Proposer::new(config, seed);
    (0..len).map(|_| proposer.random_instruction()).collect()
}

/// A random program over every opcode the parser names
/// ([`Opcode::all_widths`]: 16-bit forms and opcodes outside the proposal
/// pool included), with random operands of every kind each slot takes.
/// Draws `Instruction::new` rejects (`leab`, two memory operands, ...)
/// are skipped.
fn random_named_program(seed: u64, len: usize) -> Program {
    let opcodes = Opcode::all_widths();
    let mut state = seed;
    let mut instrs = Vec::with_capacity(len);
    while instrs.len() < len {
        let opcode = opcodes[(splitmix(&mut state) % opcodes.len() as u64) as usize];
        let operands: Vec<Operand> = opcode
            .signature()
            .iter()
            .map(|spec| random_operand(spec, &mut state))
            .collect();
        if let Ok(instr) = Instruction::new(opcode, operands) {
            instrs.push(instr);
        }
    }
    Program::from_instrs(instrs)
}

/// A random operand of one of the kinds `spec` accepts: any register
/// number, immediates at the edges of every width, and addresses with
/// and without base and index (and scales no index reads).
fn random_operand(spec: &SlotSpec, state: &mut u64) -> Operand {
    const IMMS: [i64; 7] = [0, 1, -1, 0x80, 0xffff, 0x8000_0000, i64::MIN];
    let mut kinds = Vec::new();
    if let Some(w) = spec.reg {
        kinds.push(Operand::Reg(
            Gpr::from_index((splitmix(state) % 16) as usize).view(w),
        ));
    }
    if spec.xmm {
        kinds.push(Operand::Xmm(Xmm((splitmix(state) % 16) as u8)));
    }
    if spec.imm {
        let r = splitmix(state);
        kinds.push(Operand::Imm(if r.is_multiple_of(2) {
            IMMS[(r >> 8) as usize % IMMS.len()]
        } else {
            (r >> 1) as i64
        }));
    }
    if spec.mem {
        let r = splitmix(state);
        let gpr = |shift: u32| Gpr::from_index(((r >> shift) % 16) as usize);
        kinds.push(Operand::Mem(Mem {
            base: (!r.is_multiple_of(4)).then(|| gpr(8)),
            index: r.is_multiple_of(3).then(|| gpr(16)),
            scale: Scale::ALL[((r >> 24) % 4) as usize],
            disp: (r >> 32) as i32 >> ((r >> 28) % 32),
        }));
    }
    kinds[(splitmix(state) % kinds.len() as u64) as usize]
}

/// `program` with a random scale on every address that has no index
/// register: a scale no semantics reads and `Display` does not print, as
/// a program built other than by parsing may carry.
fn with_hidden_scales(program: &Program, seed: u64) -> Program {
    let mut state = seed;
    program
        .iter()
        .map(|instr| {
            let mut out = *instr;
            for (slot, op) in instr.operands().iter().enumerate() {
                if let Operand::Mem(mut m) = *op {
                    if m.index.is_none() {
                        m.scale = Scale::ALL[(splitmix(&mut state) % 4) as usize];
                        out = out.with_operand(slot, Operand::Mem(m));
                    }
                }
            }
            out
        })
        .collect()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `bytes` after one to eight edits drawn from `seed`: low-bit flips (so
/// ASCII stays ASCII), deletions, and insertions of a byte copied from the
/// file or, one time in four, of any byte.
fn mutate(bytes: &[u8], seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out = bytes.to_vec();
    for _ in 0..=splitmix(&mut state) % 8 {
        let r = splitmix(&mut state);
        let at = (r % (out.len() as u64 + 1)) as usize;
        match (r >> 32) % 3 {
            0 if at < out.len() => out[at] ^= 1 << ((r >> 40) % 7),
            1 if at < out.len() => {
                out.remove(at);
            }
            _ => {
                let byte = match out.get(((r >> 40) % (out.len() as u64).max(1)) as usize) {
                    Some(&b) if r >> 62 != 0 => b,
                    _ => (r >> 48) as u8,
                };
                out.insert(at, byte);
            }
        }
    }
    out
}

/// A uniformly random register permutation that fixes every pinned
/// register — exactly the symmetry group the canonical key must be
/// invariant under.
fn permutation_fixing(pinned: &[bool; 16], seed: u64) -> Renaming {
    let free: Vec<usize> = (0..16).filter(|&i| !pinned[i]).collect();
    let mut images = free.clone();
    let mut state = seed;
    for i in (1..images.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        images.swap(i, j);
    }
    let mut map = Gpr::ALL;
    for (slot, img) in free.iter().zip(&images) {
        map[*slot] = Gpr::from_index(*img);
    }
    Renaming::from_map(map).unwrap()
}

/// `spec` with the permutation applied to the program, the inputs, and
/// the live-out set — the same submission through different registers.
fn rename_spec(spec: &TargetSpec, pi: &Renaming) -> TargetSpec {
    let inputs: Vec<InputSpec> = spec
        .inputs
        .iter()
        .map(|input| InputSpec {
            reg: pi.apply_gpr(input.reg),
            kind: input.kind.clone(),
            secret: input.secret,
        })
        .collect();
    let outputs = spec.live_out.gprs.iter().map(|g| pi.apply_gpr(*g));
    TargetSpec::new(
        pi.apply_program(&spec.program),
        inputs,
        LocSet::from_gprs(outputs),
    )
}

fn spec_for(program: Program) -> TargetSpec {
    TargetSpec::new(
        program,
        vec![InputSpec::value64(Gpr::Rdi), InputSpec::value32(Gpr::Rsi)],
        LocSet::from_gprs([Gpr::Rax]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The acceptance-critical invariance: renaming every register of a
    /// submission by any permutation that fixes the program's pinned
    /// registers leaves the cache key byte-identical.
    #[test]
    fn key_is_invariant_under_register_renaming(
        program_seed in any::<u64>(),
        perm_seed in any::<u64>(),
        len in 1usize..10,
    ) {
        let spec = spec_for(random_program(program_seed, len));
        let pi = permutation_fixing(&pinned_registers(&spec.program), perm_seed);
        let renamed = rename_spec(&spec, &pi);
        let key = CacheKey::for_spec(&spec, fingerprint());
        let renamed_key = CacheKey::for_spec(&renamed, fingerprint());
        prop_assert_eq!(key.text(), renamed_key.text());
        // And the recorded renamings let both submitters round-trip a
        // canonical rewrite into their own register space: mapping the
        // canonical program back must recover each normalized original.
        let canon = Program::from_instrs(key.program_lines().to_vec());
        prop_assert_eq!(
            key.renaming().inverse().apply_program(&canon).to_string(),
            normalize_immediates(&spec.program).to_string()
        );
        prop_assert_eq!(
            renamed_key.renaming().inverse().apply_program(&canon).to_string(),
            normalize_immediates(&renamed.program).to_string()
        );
    }

    /// Reordering the submitted input list is immaterial: the key sorts
    /// interface lines canonically.
    #[test]
    fn key_is_invariant_under_input_reordering(
        program_seed in any::<u64>(),
        len in 1usize..8,
        rotation in 0usize..4,
    ) {
        let program = random_program(program_seed, len);
        let mut inputs = vec![
            InputSpec::value64(Gpr::Rdi),
            InputSpec::value64(Gpr::Rsi),
            InputSpec::value32(Gpr::Rcx),
            InputSpec::pointer(Gpr::R8, 64),
        ];
        let live_out = LocSet::from_gprs([Gpr::Rax]);
        let spec = TargetSpec::new(program.clone(), inputs.clone(), live_out.clone());
        inputs.rotate_left(rotation);
        let rotated = TargetSpec::new(program, inputs, live_out);
        prop_assert_eq!(
            CacheKey::for_spec(&spec, fingerprint()).text(),
            CacheKey::for_spec(&rotated, fingerprint()).text()
        );
    }

    /// Keys alias exactly when the canonical programs are byte-identical:
    /// two submissions share an entry only if they are literally the same
    /// search problem up to renaming, so semantically different programs
    /// (distinct canonical forms) can never collide.
    #[test]
    fn distinct_canonical_programs_never_collide(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        len in 2usize..10,
    ) {
        let a = spec_for(random_program(seed_a, len));
        let b = spec_for(random_program(seed_b.wrapping_add(1), len));
        let key_a = CacheKey::for_spec(&a, fingerprint());
        let key_b = CacheKey::for_spec(&b, fingerprint());
        // interface_tail for this fixed interface is [rdi, rsi, rax].
        let tail = [Gpr::Rdi, Gpr::Rsi, Gpr::Rax];
        let canon_a = canonicalize(&a.program, &tail).0.to_string();
        let canon_b = canonicalize(&b.program, &tail).0.to_string();
        prop_assert_eq!(key_a.text() == key_b.text(), canon_a == canon_b);
    }

    /// Structural key equality is text equality: two keys are equal
    /// exactly when their `stoke-serve key v1` texts are, both for
    /// renamed submissions of one program (whose hidden scales differ)
    /// and for unrelated programs.
    #[test]
    fn keys_are_equal_iff_their_texts_are(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        perm_seed in any::<u64>(),
        scale_seed in any::<u64>(),
        len in 1usize..10,
        same in any::<bool>(),
    ) {
        let program_a = random_program(seed_a, len);
        let program_b = if same { program_a.clone() } else { random_program(seed_b, len) };
        let a = spec_for(with_hidden_scales(&program_a, scale_seed));
        let b = spec_for(with_hidden_scales(&program_b, !scale_seed));
        let pi = permutation_fixing(&pinned_registers(&b.program), perm_seed);
        let b = rename_spec(&b, &pi);
        let key_a = CacheKey::for_spec(&a, fingerprint());
        let key_b = CacheKey::for_spec(&b, fingerprint());
        prop_assert_eq!(key_a == key_b, key_a.text() == key_b.text());
        if same {
            prop_assert!(key_a == key_b);
        }
    }

    /// A hit reports the latency and cycles stored with the entry, which
    /// were measured on the canonical forms: canonicalization must leave
    /// both figures unchanged.
    #[test]
    fn canonical_form_keeps_latency_and_cycles(
        program_seed in any::<u64>(),
        scale_seed in any::<u64>(),
        len in 1usize..10,
    ) {
        let program = with_hidden_scales(&random_program(program_seed, len), scale_seed);
        let (canon, _) = canonicalize(&program, &[Gpr::Rdi, Gpr::Rsi, Gpr::Rax]);
        let timing = TimingModel::default();
        prop_assert_eq!(canon.static_latency(), program.static_latency());
        prop_assert_eq!(timing.cycles(&canon), timing.cycles(&program));
    }

    /// Saving and re-loading a cache full of random entries preserves
    /// every entry bit-for-bit.
    #[test]
    fn persistence_round_trips_random_entries(
        seed in any::<u64>(),
        count in 1usize..4,
        len in 1usize..8,
    ) {
        let mut cache = RewriteCache::new(CacheConfig::default());
        let mut keys = Vec::new();
        for i in 0..count {
            let program = random_program(seed.wrapping_add(i as u64), len);
            let spec = spec_for(program.clone());
            let key = CacheKey::for_spec(&spec, fingerprint());
            // A target is always admissible as its own rewrite: it pins
            // exactly the registers the key already pins.
            prop_assert!(cache.insert(&key, &program, Verification::TestsOnly));
            keys.push((key, program));
        }
        let path = std::env::temp_dir().join(format!(
            "stoke-serve-prop-roundtrip-{}.cache",
            std::process::id()
        ));
        cache.save(&path).unwrap();
        let mut loaded = RewriteCache::load(&path, CacheConfig::default()).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(loaded.len(), cache.len());
        for (key, program) in &keys {
            let hit = loaded.lookup(key).expect("entry survives the round trip");
            prop_assert_eq!(
                hit.rewrite.to_string(),
                key.canonical_rewrite(program).to_string()
            );
            prop_assert_eq!(hit.verification, Verification::TestsOnly);
        }
    }

    /// A corrupt cache file: a saved file of random entries after random
    /// byte edits loads as a cache or is refused with a `PersistError`,
    /// and never panics the loader.
    #[test]
    fn a_corrupted_cache_file_never_panics_the_loader(
        seed in any::<u64>(),
        count in 1usize..4,
        len in 1usize..8,
        mutation_seed in any::<u64>(),
    ) {
        let mut cache = RewriteCache::new(CacheConfig::default());
        for i in 0..count {
            let program = random_program(seed.wrapping_add(i as u64), len);
            let key = CacheKey::for_spec(&spec_for(program.clone()), fingerprint());
            prop_assert!(cache.insert(&key, &program, Verification::TestsOnly));
        }
        let path = std::env::temp_dir().join(format!(
            "stoke-serve-prop-corrupt-{}.cache",
            std::process::id()
        ));
        cache.save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        std::fs::write(&path, mutate(&saved, mutation_seed)).unwrap();
        let loaded = RewriteCache::load(&path, CacheConfig::default());
        let _ = std::fs::remove_file(&path);
        if let Ok(loaded) = loaded {
            prop_assert!(loaded.len() <= count);
        }
    }

    /// `canonicalize` over programs drawn from every opcode the parser
    /// names never panics; is idempotent for the same interface tail (and,
    /// with the tail carried into canonical registers, renames nothing);
    /// and the canonical program's text parses back to it, as the cache
    /// file and the key text need.
    #[test]
    fn canonicalize_is_idempotent_and_its_text_parses_back(
        program_seed in any::<u64>(),
        tail_seed in any::<u64>(),
        len in 1usize..12,
    ) {
        let program = random_named_program(program_seed, len);
        let shuffled = permutation_fixing(&[false; 16], tail_seed);
        let tail: Vec<Gpr> = Gpr::ALL[..(tail_seed % 6) as usize]
            .iter()
            .map(|&g| shuffled.apply_gpr(g))
            .collect();
        let (canon, renaming) = canonicalize(&program, &tail);
        prop_assert_eq!(&canonicalize(&canon, &tail).0, &canon);
        let canon_tail: Vec<Gpr> = tail.iter().map(|&g| renaming.apply_gpr(g)).collect();
        prop_assert_eq!(canonicalize(&canon, &canon_tail), (canon.clone(), Renaming::identity()));
        let text = canon.to_string();
        let reparsed: Program = text
            .parse()
            .unwrap_or_else(|e| panic!("canonical program does not parse: {e}\n{text}"));
        prop_assert_eq!(reparsed, canon);
    }

    /// Immediate normalization is idempotent and register renaming is
    /// invertible — the two rewrite transformations the cache applies.
    #[test]
    fn normalization_is_idempotent_and_renaming_invertible(
        program_seed in any::<u64>(),
        perm_seed in any::<u64>(),
        len in 1usize..10,
    ) {
        let program = random_program(program_seed, len);
        let once = normalize_immediates(&program);
        prop_assert_eq!(normalize_immediates(&once).to_string(), once.to_string());
        let pi = permutation_fixing(&[false; 16], perm_seed);
        prop_assert_eq!(
            pi.inverse().apply_program(&pi.apply_program(&program)).to_string(),
            program.to_string()
        );
    }
}
