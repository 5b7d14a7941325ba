//! The background prewarm must be *unobservable*: cache entries it fills
//! (executed empty-inbox rounds and fixed-point-replicated ones) are
//! value-identical to what scalar execution would compute for the same
//! `(program, fuel, prefix)` — outboxes, halt payload, and the registers
//! and cumulative retired count a live user adopts on a hit — and
//! [`ProgramEnumerator::batch`] produces behaviourally identical candidates
//! whatever the `GOC_PREWARM` × `GOC_THREADS` setting. Checked by the
//! seeded `goc-testkit` harness.

use goc_core::enumeration::StrategyEnumerator;
use goc_core::msg::{Message, UserIn};
use goc_core::par::{with_prewarm, with_thread_count};
use goc_core::rng::GocRng;
use goc_core::strategy::{StepCtx, UserStrategy};
use goc_testkit::{check, gens, prop_assert_eq};
use goc_vm::adapter::{prewarm_deep, VmUser};
use goc_vm::cache::{self, CachedRound};
use goc_vm::dispatch::with_dispatch;
use goc_vm::machine::{Machine, RoundIo};
use goc_vm::program::Program;
use goc_vm::ProgramEnumerator;

/// What a scalar [`Machine`] on the specification `match` loop computes for
/// each round of `inputs`, as the cache entry a live user would record:
/// outboxes, halt payload, registers and cumulative retired count. Stops
/// after the halting round (a halted user records nothing further).
fn scalar_rounds(program: &Program, fuel: u32, inputs: &[(Vec<u8>, Vec<u8>)]) -> Vec<CachedRound> {
    with_dispatch(false, || {
        let mut m = Machine::with_fuel(program.clone(), fuel);
        let mut rounds = Vec::new();
        for (a, b) in inputs {
            let mut io = RoundIo::with_inputs(a.clone(), b.clone());
            m.round(&mut io);
            rounds.push(CachedRound {
                out_a: io.out_a,
                out_b: io.out_b,
                halted: m.halted().map(<[u8]>::to_vec),
                regs: *m.regs(),
                retired: m.instructions_retired(),
            });
            if m.halted().is_some() {
                break;
            }
        }
        rounds
    })
}

/// The cache entries along `inputs`' prefix chain for `program` (`None`
/// where a round is not memoised).
fn chain_entries(
    program: &Program,
    fuel: u32,
    inputs: &[(Vec<u8>, Vec<u8>)],
) -> Vec<Option<CachedRound>> {
    let mut prefix = cache::PREFIX_EMPTY;
    inputs
        .iter()
        .map(|(a, b)| {
            prefix = cache::extend_prefix(prefix, a, b);
            let key = cache::RoundKey {
                program_hash: cache::program_hash(program.as_bytes()),
                fuel,
                prefix_hash: prefix,
            };
            cache::lookup(&key, program.as_bytes())
        })
        .collect()
}

/// Drives a user over `inputs`, collecting per-round outputs and halts.
fn drive(
    user: &mut dyn UserStrategy,
    inputs: &[(Vec<u8>, Vec<u8>)],
) -> Vec<(Vec<u8>, Vec<u8>, Option<Vec<u8>>)> {
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
            user.halted().map(|h| h.output.as_bytes().to_vec()),
        ));
    }
    out
}

/// Every entry `prewarm_deep` records along a program's empty-prefix chain
/// — executed or replicated from a detected fixed point — equals what the
/// scalar machine computes for that round, registers and cumulative retired
/// count included, for random programs and fuels. A lone `jmp` is always
/// among the candidates: it burns its fuel without touching a register, so
/// its chain is filled from round 1 on.
#[test]
fn prewarm_entries_match_scalar_execution() {
    let trial = gens::tuple3(
        gens::vec_of(gens::bytes(0, 12), 1, 5),
        gens::u32_in(16, 512),
        gens::usize_in(1, 24),
    );
    check("prewarm_entries_match_scalar_execution", trial, |(codes, fuel, depth)| {
        let mut programs: Vec<Program> =
            codes.iter().map(|c| Program::from_bytes(c.clone())).collect();
        programs.push(Program::from_bytes(vec![0x0b]));
        let users: Vec<VmUser> = programs
            .iter()
            .map(|p| VmUser::with_fuel(p.clone(), *fuel).with_cache_enabled(true))
            .collect();
        prewarm_deep(&users, *depth);
        let empty_rounds = vec![(Vec::new(), Vec::new()); *depth];
        for p in &programs {
            let truth = scalar_rounds(p, *fuel, &empty_rounds);
            let entries = chain_entries(p, *fuel, &empty_rounds);
            for (r, (truth, entry)) in truth.iter().zip(&entries).enumerate() {
                let Some(entry) = entry else {
                    return Err(goc_testkit::CaseError::fail(format!(
                        "round {r} of {:?} missing from the prewarmed chain",
                        p.as_bytes()
                    )));
                };
                prop_assert_eq!(entry, truth, "entry for round {r} of {:?}", p.as_bytes());
            }
        }
        Ok(())
    });
}

/// Candidates a prewarmed batch hands out behave exactly like scalar ones:
/// live inputs that *don't* match the speculated empty-inbox history miss
/// the speculative entries and are computed correctly anyway.
#[test]
fn prewarmed_candidates_serve_nonempty_histories_correctly() {
    let round_inputs = gens::tuple2(gens::bytes(0, 5), gens::bytes(0, 5));
    let trial = gens::tuple3(
        gens::bytes(0, 12),
        gens::u32_in(16, 256),
        gens::vec_of(round_inputs, 1, 10),
    );
    check("prewarmed_candidates_serve_nonempty_histories_correctly", trial, |(code, fuel, inputs)| {
        let program = Program::from_bytes(code.clone());
        let mut warmed = VmUser::with_fuel(program.clone(), *fuel).with_cache_enabled(true);
        prewarm_deep([&warmed], 16);
        let mut scalar = VmUser::with_fuel(program, *fuel).with_cache_enabled(false);
        let truth = drive(&mut scalar, inputs);
        let got = drive(&mut warmed, inputs);
        prop_assert_eq!(&got, &truth, "prewarmed candidate diverged on a live history");
        Ok(())
    });
}

/// `ProgramEnumerator::batch` (with `prefetch`) yields behaviourally
/// identical candidates across `GOC_PREWARM` off/on × `GOC_THREADS` 1/4.
#[test]
fn batch_is_invariant_across_prewarm_and_threads() {
    let round_inputs = gens::tuple2(gens::bytes(0, 4), gens::bytes(0, 4));
    let trial = gens::tuple3(
        gens::vec_of(gens::usize_in(0, 38), 1, 10),
        gens::u32_in(16, 256),
        gens::vec_of(round_inputs, 1, 10),
    );
    check("batch_is_invariant_across_prewarm_and_threads", trial, |(indices, fuel, inputs)| {
        let run = |threads: usize, prewarm: bool| {
            with_thread_count(threads, || {
                with_prewarm(prewarm, || {
                    let class = ProgramEnumerator::over(vec![0x0b, 0x01, b'h'])
                        .with_max_len(3)
                        .with_fuel(*fuel)
                        .with_cache(true);
                    class.prefetch(indices);
                    class
                        .batch(indices)
                        .into_iter()
                        .map(|u| u.map(|mut u| drive(u.as_mut(), inputs)))
                        .collect::<Vec<_>>()
                })
            })
        };
        let base = run(1, false);
        for (threads, prewarm) in [(1, true), (4, false), (4, true)] {
            let got = run(threads, prewarm);
            prop_assert_eq!(
                &got,
                &base,
                "batch diverged at threads={threads} prewarm={prewarm}"
            );
        }
        Ok(())
    });
}
