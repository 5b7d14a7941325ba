//! The candidate-evaluation cache must be *unobservable*: a cached `VmUser`
//! produces exactly the outputs and halt behaviour of an uncached one, and
//! its machine holds the same registers and retired-instruction count after
//! every round, for arbitrary programs and input histories — the soundness
//! property behind memoising Levin-search revisits. Checked by the seeded
//! `goc-testkit` harness.

use goc_core::msg::{Message, UserIn};
use goc_core::rng::GocRng;
use goc_core::strategy::{StepCtx, UserStrategy};
use goc_testkit::{check, gens, prop_assert_eq};
use goc_vm::adapter::VmUser;
use goc_vm::instr::REG_COUNT;
use goc_vm::program::Program;

/// One round as seen from outside the user and inside its machine: the two
/// outputs, the halt payload, the registers and the cumulative retired count.
type RoundView = (Vec<u8>, Vec<u8>, Option<Vec<u8>>, [u64; REG_COUNT], u64);

/// Runs `user` over `inputs`, collecting per-round outputs, halt states and
/// machine state.
fn drive(mut user: VmUser, inputs: &[(Vec<u8>, Vec<u8>)]) -> Vec<RoundView> {
    let mut rng = GocRng::seed_from_u64(0);
    let mut out = Vec::new();
    for (round, (a, b)) in inputs.iter().enumerate() {
        let mut ctx = StepCtx::new(round as u64, &mut rng);
        let o = user.step(
            &mut ctx,
            &UserIn {
                from_server: Message::from_bytes(a.clone()),
                from_world: Message::from_bytes(b.clone()),
            },
        );
        out.push((
            o.to_server.as_bytes().to_vec(),
            o.to_world.as_bytes().to_vec(),
            UserStrategy::halted(&user).map(|h| h.output.as_bytes().to_vec()),
            *user.machine().regs(),
            user.machine().instructions_retired(),
        ));
    }
    out
}

/// Cached and uncached users are round-for-round identical — outputs, halt,
/// registers and retired count — and a second cached run (now warm, so its
/// rounds are served from the cache) still matches.
#[test]
fn cached_user_is_observably_identical_to_uncached() {
    let round_inputs = gens::tuple2(gens::bytes(0, 6), gens::bytes(0, 6));
    check(
        "cached_user_is_observably_identical_to_uncached",
        gens::tuple2(gens::bytes(0, 24), gens::vec_of(round_inputs, 1, 8)),
        |(code, inputs)| {
            let program = Program::from_bytes(code.clone());
            let fresh = |cached: bool| {
                VmUser::with_fuel(program.clone(), 64).with_cache_enabled(cached)
            };
            let uncached = drive(fresh(false), inputs);
            let cold = drive(fresh(true), inputs);
            let warm = drive(fresh(true), inputs);
            prop_assert_eq!(&cold, &uncached, "cold cached run diverged");
            prop_assert_eq!(&warm, &uncached, "warm cached run diverged");
            Ok(())
        },
    );
}

/// Re-running the same interaction hits the cache (the memoisation actually
/// engages — this guards against silently caching nothing).
#[test]
fn repeated_interactions_hit_the_cache() {
    let program = Program::from_bytes(vec![0x01, b'q', 0x02, b'r']);
    let inputs: Vec<(Vec<u8>, Vec<u8>)> =
        (0..5).map(|i| (vec![i as u8], vec![])).collect();
    let _ = drive(VmUser::new(program.clone()).with_cache_enabled(true), &inputs);
    goc_vm::cache::reset_stats();
    let _ = drive(VmUser::new(program).with_cache_enabled(true), &inputs);
    let stats = goc_vm::cache::stats();
    assert!(stats.hits >= 5, "second identical run must be served from cache: {stats:?}");
}
