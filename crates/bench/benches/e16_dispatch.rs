//! E16 — the predecoded production VM core, measured on the raw
//! interpreter loop.
//!
//! The micro pair times `e9_vm_instructions` over 10k rounds of the busy
//! `inc/emit/jmp` program, once on the specification `match` loop (forced
//! via [`goc_vm::dispatch::with_dispatch`]) and once on the production
//! core. `ci.sh` gates the production arm at >= 1.3x the match median. The
//! end-to-end settle on the same axis is E14.
//!
//! Runs at `t1`: the workload is a single machine; threading only adds
//! scheduler noise to what is purely a dispatch-loop comparison.

use goc_bench::experiments as exp;
use goc_testkit::bench::{Bench, BenchMeta};
use goc_vm::dispatch::with_dispatch;

fn main() {
    let mut g = Bench::group("e16_dispatch").samples(10);
    let meta = |mode: &'static str| BenchMeta {
        threads: Some(1),
        dispatch: Some(mode),
        ..BenchMeta::default()
    };
    g.bench_tagged("vm_instructions_10k_rounds_match", meta("match"), || {
        with_dispatch(false, || exp::e9_vm_instructions(10_000))
    });
    g.bench_tagged("vm_instructions_10k_rounds_table", meta("table"), || {
        with_dispatch(true, || exp::e9_vm_instructions(10_000))
    });
    g.finish();
}
