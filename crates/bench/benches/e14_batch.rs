//! E14 — the production VM core against its specification, end to end.
//!
//! One comparison: a finite-Levin settle over a VM-program class whose
//! early candidates are fuel-burning self-jump programs, run once on the
//! specification `match` loop (forced via
//! [`goc_vm::dispatch::with_dispatch`]) and once on the production core
//! (predecoded per-opcode dispatch). Both arms compute the identical settle
//! round — only interpretation speed differs. `ci.sh` gates the production
//! arm at >= 2x the spec median. The group and row ids predate the single
//! core and are kept so snapshot compares still cover them.
//!
//! Runs at `t1`: the workload is a single conversation, so threading only
//! adds scheduler noise to what is purely a dispatch-loop comparison.

use goc_bench::experiments as exp;
use goc_core::par::with_thread_count;
use goc_testkit::bench::{Bench, BenchMeta};

fn main() {
    let mut g = Bench::group("e14_batch").samples(10);
    let meta = || BenchMeta { threads: Some(1), ..BenchMeta::default() };
    g.bench_tagged("levin_settle_scalar@t1", meta(), || {
        with_thread_count(1, || exp::e14_levin_vm_settle(false))
    });
    g.bench_tagged("levin_settle_batch@t1", meta(), || {
        with_thread_count(1, || exp::e14_levin_vm_settle(true))
    });
    g.finish();
}
