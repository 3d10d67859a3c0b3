//! Property tests for the in-place proposal path the MCMC chain runs on.
//!
//! A chain moves one rewrite in place with `Proposer::propose_in_place`,
//! re-decodes the slots the move touched in its `DecodeCache`, and on
//! rejection reverts the move with its `Undo` and re-decodes those slots
//! again. For random rewrites and random accept/reject sequences — short
//! rewrites, so swaps of a slot with itself are common, and a high
//! `UNUSED` probability, so slots empty and fill — the cache must always
//! equal a from-scratch `PreparedProgram::new` of the current rewrite
//! (instructions, use lists, handlers, latency), and the allocating
//! `propose` must agree with `propose_in_place` on the candidate, the move
//! kind and the RNG state it leaves behind.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stoke_suite::emu::{DecodeCache, PreparedProgram};
use stoke_suite::stoke::{Config, MoveKind, Proposer, Rewrite};

fn config(ell: usize, pu: f64) -> Config {
    Config {
        ell,
        pu,
        ..Config::quick_test()
    }
}

/// The cache against a fresh decode of `rewrite`.
fn assert_cache_matches(cache: &mut DecodeCache, rewrite: &Rewrite) {
    let fresh = PreparedProgram::new(rewrite.slots().iter().flatten());
    let lent = cache.prepared();
    prop_assert_eq!(lent.decoded(), fresh.decoded());
    prop_assert_eq!(lent.static_latency(), fresh.static_latency());
    prop_assert!(lent.instructions().eq(rewrite.slots().iter().flatten()));
}

/// Counts of the edge cases a run of [`walk`] exercised.
#[derive(Default)]
struct Coverage {
    self_swaps: u64,
    emptied: u64,
    rejected: u64,
}

/// `steps` proposals of one chain's protocol from a random rewrite,
/// accepting each with probability one half, checking the cache and the
/// allocating proposal path after every step.
fn walk(seed: u64, ell: usize, pu: f64, steps: usize) -> Coverage {
    let config = config(ell, pu);
    let mut proposer = Proposer::new(config.clone(), seed);
    // A twin proposer on the same stream runs the allocating `propose`.
    let mut twin = Proposer::new(config, seed);
    let mut current = proposer.random_rewrite();
    prop_assert_eq!(&twin.random_rewrite(), &current);
    let mut cache = DecodeCache::new(current.slots());
    assert_cache_matches(&mut cache, &current);
    let mut coin = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut coverage = Coverage::default();
    for _ in 0..steps {
        let prev = current.clone();
        let (copy, copy_kind) = twin.propose(&current);
        let (kind, undo) = proposer.propose_in_place(&mut current);
        prop_assert_eq!(kind, copy_kind);
        prop_assert_eq!(&current, &copy);
        prop_assert_eq!(proposer.rng().gen::<u64>(), twin.rng().gen::<u64>());

        let touched: Vec<usize> = undo.slots().collect();
        if kind == MoveKind::Swap && touched[0] == touched[1] {
            coverage.self_swaps += 1;
        }
        if kind == MoveKind::Instruction && current.slots()[touched[0]].is_none() {
            coverage.emptied += 1;
        }
        for &slot in &touched {
            cache.set(slot, current.slots()[slot].as_ref());
        }
        assert_cache_matches(&mut cache, &current);

        if coin.gen_bool(0.5) {
            undo.revert(&mut current);
            prop_assert_eq!(&current, &prev);
            for &slot in &touched {
                cache.set(slot, current.slots()[slot].as_ref());
            }
            assert_cache_matches(&mut cache, &current);
            coverage.rejected += 1;
        }
    }
    coverage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decode_cache_tracks_in_place_proposals(
        seed in any::<u64>(),
        ell in 1usize..6,
        pu_sel in 0u8..3,
        steps in 1usize..96,
    ) {
        let pu = [0.1, 0.5, 0.9][pu_sel as usize];
        walk(seed, ell, pu, steps);
    }
}

/// The fixed-seed walks reach every edge case the property is about.
#[test]
fn walks_cover_self_swaps_emptied_slots_and_rejections() {
    let mut total = Coverage::default();
    for seed in 0..8 {
        let c = walk(seed, 3, 0.5, 200);
        total.self_swaps += c.self_swaps;
        total.emptied += c.emptied;
        total.rejected += c.rejected;
    }
    assert!(total.self_swaps > 0, "no swap of a slot with itself");
    assert!(total.emptied > 0, "no instruction move set a slot UNUSED");
    assert!(total.rejected > 0, "no proposal was rejected");
}
