//! E15 — pipelined background prewarm, measured end to end.
//!
//! One comparison: a finite-Levin settle over a burner-heavy VM-program
//! class with the candidate cache on, run once with inline candidate
//! construction (`GOC_PREWARM=0` semantics, forced via
//! [`goc_core::par::with_prewarm`]) and once with the pooled pipeline that
//! pre-executes the next lookahead window on idle workers. Both arms
//! compute the identical settle round — only where the burner rounds
//! execute differs. `ci.sh` gates the prewarm arm at >= 1.5x the inline
//! median.
//!
//! Runs at `t4`: the pipeline needs idle workers to overlap with; at `t1`
//! prewarm disables itself and both arms would be the same code path.

use goc_bench::experiments as exp;
use goc_core::par::with_thread_count;
use goc_testkit::bench::{Bench, BenchMeta};

fn main() {
    let mut g = Bench::group("e15_prewarm").samples(10);
    let meta = || BenchMeta { threads: Some(4), ..BenchMeta::default() };
    g.bench_tagged("levin_settle_inline@t4", meta(), || {
        with_thread_count(4, || exp::e15_levin_prewarm_settle(false))
    });
    g.bench_tagged("levin_settle_prewarm@t4", meta(), || {
        with_thread_count(4, || exp::e15_levin_prewarm_settle(true))
    });
    g.finish();
}
