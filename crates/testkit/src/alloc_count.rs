//! Optional global-allocator instrumentation for the bench harness.
//!
//! Behind the (default-off) `count-allocs` feature this module installs a
//! counting wrapper around the system allocator and exposes its running
//! totals. The bench harness ([`crate::bench`]) uses the counters to record
//! **allocations per iteration** into the JSONL stream, which is how CI
//! enforces the zero-allocation steady-state contract of the pooled round
//! loop (experiment E13).
//!
//! Beyond call counts, the wrapper keeps dhat-style **byte tracking**: a
//! live-bytes gauge (allocated minus freed) and a high-water mark
//! ([`peak_bytes`], resettable with [`reset_peak`]), which the harness
//! surfaces as a `peak_bytes` column so memory-footprint regressions show up
//! next to throughput ones.
//!
//! Without the feature every function here is a stub that reports counting
//! as disabled, so the default build carries no allocator interposition and
//! no atomic traffic.

/// `true` when the crate was built with `count-allocs` and the counting
/// allocator is installed.
pub fn enabled() -> bool {
    cfg!(feature = "count-allocs")
}

/// Running total of allocation calls (`alloc`, `alloc_zeroed`, `realloc`)
/// since process start. Always 0 without the `count-allocs` feature.
pub fn allocs() -> u64 {
    #[cfg(feature = "count-allocs")]
    {
        counting::COUNTERS.allocs.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        0
    }
}

/// Running total of `dealloc` calls since process start. Always 0 without
/// the `count-allocs` feature.
pub fn frees() -> u64 {
    #[cfg(feature = "count-allocs")]
    {
        counting::COUNTERS.frees.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        0
    }
}

/// Bytes currently allocated (allocated minus freed since process start).
/// Clamped at zero: memory allocated before the counters existed may be
/// freed through them. Always 0 without the `count-allocs` feature.
pub fn live_bytes() -> u64 {
    #[cfg(feature = "count-allocs")]
    {
        counting::COUNTERS.live.load(std::sync::atomic::Ordering::Relaxed).max(0) as u64
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        0
    }
}

/// High-water mark of [`live_bytes`] since process start or the last
/// [`reset_peak`]. Always 0 without the `count-allocs` feature.
pub fn peak_bytes() -> u64 {
    #[cfg(feature = "count-allocs")]
    {
        counting::COUNTERS.peak.load(std::sync::atomic::Ordering::Relaxed).max(0) as u64
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        0
    }
}

/// Resets the high-water mark to the current live-bytes level, so a caller
/// can measure the peak *of one region* (the bench harness resets before
/// each measured batch). No-op without the `count-allocs` feature.
pub fn reset_peak() {
    #[cfg(feature = "count-allocs")]
    {
        use std::sync::atomic::Ordering;
        let counters = &counting::COUNTERS;
        counters.peak.store(counters.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

#[cfg(feature = "count-allocs")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    /// The running totals, aligned so that they fill a 128-byte block (two
    /// cache lines, the unit adjacent-line prefetch moves) of their own.
    /// Every allocation on every thread writes them; an unrelated static
    /// sharing their line — a function pointer read on every call, a flag
    /// read on every metric — would pay for that traffic on each read, and
    /// which statics the linker places beside them changes from build to
    /// build, so multi-threaded timings under this feature would move with
    /// the link layout of code they never run.
    #[repr(align(128))]
    pub struct Counters {
        pub allocs: AtomicU64,
        pub frees: AtomicU64,
        /// Live bytes. Signed: frees of pre-instrumentation memory may drive
        /// the balance below zero transiently; readers clamp at 0.
        pub live: AtomicI64,
        /// High-water mark of `live` (monotone between `reset_peak` calls).
        pub peak: AtomicI64,
    }

    pub static COUNTERS: Counters = Counters {
        allocs: AtomicU64::new(0),
        frees: AtomicU64::new(0),
        live: AtomicI64::new(0),
        peak: AtomicI64::new(0),
    };

    /// Charges `delta` bytes to the live gauge and folds the new level into
    /// the peak. The update is racy across threads (two relaxed atomics),
    /// which is fine for instrumentation: the mark can only under-report by
    /// the width of a concurrent in-flight update, never drift.
    fn charge(delta: i64) {
        let live = COUNTERS.live.fetch_add(delta, Ordering::Relaxed) + delta;
        if delta > 0 {
            COUNTERS.peak.fetch_max(live, Ordering::Relaxed);
        }
    }

    /// System allocator plus relaxed counters. Counting must never perturb
    /// what it measures, so there is no locking and no allocation here.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            COUNTERS.allocs.fetch_add(1, Ordering::Relaxed);
            charge(layout.size() as i64);
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            COUNTERS.allocs.fetch_add(1, Ordering::Relaxed);
            charge(layout.size() as i64);
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            COUNTERS.allocs.fetch_add(1, Ordering::Relaxed);
            charge(new_size as i64 - layout.size() as i64);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            COUNTERS.frees.fetch_add(1, Ordering::Relaxed);
            charge(-(layout.size() as i64));
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

#[cfg(all(test, feature = "count-allocs"))]
mod tests {
    #[test]
    fn counters_advance_on_allocation() {
        let before = super::allocs();
        let v: Vec<u8> = Vec::with_capacity(1024);
        std::hint::black_box(&v);
        drop(v);
        assert!(super::allocs() > before);
        assert!(super::enabled());
    }

    #[test]
    fn peak_tracks_highwater_and_resets() {
        super::reset_peak();
        let baseline = super::peak_bytes();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&v);
        let with_block = super::peak_bytes();
        assert!(
            with_block >= baseline + (1 << 20),
            "peak should include the 1MiB block: baseline={baseline} with={with_block}"
        );
        drop(v);
        // The mark holds after the free...
        assert!(super::peak_bytes() >= with_block - 64);
        // ...until reset drops it back near the live level.
        super::reset_peak();
        assert!(super::peak_bytes() < with_block, "reset should shed the freed block");
    }

    #[test]
    fn live_bytes_falls_after_free() {
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&v);
        let held = super::live_bytes();
        drop(v);
        let after = super::live_bytes();
        assert!(after + (1 << 20) <= held + 65536, "live should fall by ~1MiB: {held} -> {after}");
    }
}
