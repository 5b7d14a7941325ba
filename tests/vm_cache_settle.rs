//! The candidate cache is invisible to a whole universal search, not just
//! to one mounted program: a finite-Levin settle over a class of fuel
//! burners runs the same rounds and produces the same transcript with the
//! cache off, with the cache on and cold, with the cache on and warm
//! (where Levin's restarts are served from the cache and every candidate's
//! machine advances to the memoised post-round state instead of executing),
//! and with the cache on and cold again but with the background prewarm
//! lane running on a second worker (where idle workers execute the next
//! lookahead window's empty-inbox rounds, with fixed-point fill, before the
//! live search reaches them).
//!
//! This file holds a single test so that it owns the process-wide cache:
//! the cold run really starts empty and the warm run really hits.

use goc::core::par::{with_prewarm, with_thread_count};
use goc::core::toy;
use goc::prelude::*;
use goc::vm::cache;
use goc::vm::enumerate::ProgramEnumerator;

/// `[emit.a, jmp, 'h']`: the class's early candidates are self-jumps that
/// burn their whole fuel every round without touching a register, and
/// `[emit.a 'h']` sits behind them at index 6.
const ALPHABET: [u8; 3] = [0x01, 0x0b, b'h'];
const FUEL: u32 = 4096;
const HORIZON: u64 = 1 << 20;

/// One Levin conquest of the magic word "h"; returns the settle round and
/// the transcript's full rendering.
fn settle(cache_on: bool) -> (u64, String) {
    let goal = toy::MagicWordGoal::new("h");
    let class = ProgramEnumerator::over(ALPHABET.to_vec())
        .with_max_len(3)
        .with_fuel(FUEL)
        .with_cache(cache_on);
    let user = LevinUniversalUser::new(Box::new(class), Box::new(toy::ack_sensing()), 8);
    let mut rng = GocRng::seed_from_u64(7);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::default()),
        Box::new(user),
        rng,
    );
    let t = exec.run(HORIZON);
    let verdict = evaluate_finite(&goal, &t);
    assert!(verdict.achieved, "cache={cache_on}: Levin search failed: {verdict:?}");
    (verdict.rounds, format!("{t:?}"))
}

#[test]
fn levin_settle_is_identical_cache_off_cold_and_warm() {
    let (off_round, off_transcript) = settle(false);

    // The cold and warm arms pin the prewarm lane off, so they run inline
    // on any host; the last arm runs it explicitly.
    cache::clear();
    cache::reset_stats();
    let (cold_round, cold_transcript) = with_prewarm(false, || settle(true));
    let cold = cache::stats();

    cache::reset_stats();
    let (warm_round, warm_transcript) = with_prewarm(false, || settle(true));
    let warm = cache::stats();

    assert_eq!(cold_round, off_round, "cold cached settle round differs from uncached");
    assert_eq!(warm_round, off_round, "warm cached settle round differs from uncached");
    assert!(cold_transcript == off_transcript, "cold cached transcript differs from uncached");
    assert!(warm_transcript == off_transcript, "warm cached transcript differs from uncached");
    // Levin's restarts already hit within the cold run, and each restarted
    // candidate then runs on past its memoised rounds from the adopted
    // state; the warm run is served from the cache.
    assert!(cold.hits > 0 && cold.misses > 0, "cold run should both hit and miss: {cold:?}");
    assert!(warm.hits > 0, "warm run never hit: {warm:?}");
    assert!(warm.misses < cold.misses, "warm run missed as often as cold: {cold:?} vs {warm:?}");

    cache::clear();
    let (prewarmed_round, prewarmed_transcript) =
        with_thread_count(2, || with_prewarm(true, || settle(true)));
    assert_eq!(prewarmed_round, off_round, "prewarmed settle round differs from uncached");
    assert!(
        prewarmed_transcript == off_transcript,
        "prewarmed transcript differs from uncached"
    );
}
