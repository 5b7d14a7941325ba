//! Zero-dependency deterministic parallelism for trial- and candidate-level
//! fan-out.
//!
//! The engine is a lazily-started **persistent worker pool** (see [`pool`]):
//! callers hand [`par_map`] a pure indexed function, workers claim chunked
//! index ranges from a shared atomic cursor (cheap work-stealing — a fast
//! worker simply claims more chunks), and results are merged back **in index
//! order**, so aggregation is deterministic regardless of scheduling. The
//! pool replaces the earlier scoped `std::thread::scope` design, which paid a
//! thread spawn+join per `par_map` call; workers now park on a condvar
//! between calls and the same threads also absorb background prewarm jobs
//! (see [`pool::submit`]) when no foreground work is queued.
//!
//! Thread count resolution, in priority order:
//!
//! 1. a thread-local override installed by [`with_thread_count`] (used by
//!    tests and benches so concurrent test threads don't race on the process
//!    environment),
//! 2. the `GOC_THREADS` environment variable (a positive integer),
//! 3. [`std::thread::available_parallelism`].
//!
//! `GOC_THREADS=1` (or `with_thread_count(1, ..)`) is an *exact* sequential
//! fallback: [`par_map`] degenerates to a plain in-order loop on the calling
//! thread — no pool, no atomics — so single-threaded runs are bit-identical
//! to the pre-parallel code path by construction.
//!
//! Nested calls do not oversubscribe: pool workers run every task under an
//! implicit `with_thread_count(1, ..)`, so a `par_map` reached from inside
//! another `par_map` (or from a background job) executes sequentially on its
//! worker.
//!
//! The module also owns the `GOC_PREWARM` knob ([`prewarm_enabled`] /
//! [`with_prewarm`]): the gate for the pipelined background candidate
//! prewarm that the universal users and `goc-vm`'s enumerators build on top
//! of [`pool::submit`]. Default on; `GOC_PREWARM=0` restores the inline
//! (foreground) prewarm path. The flag is observationally inert either way —
//! background prewarm only inserts value-identical cache entries and emits
//! process-scoped (nondeterministic) metrics, so `GOC_TRACE` output is
//! byte-identical across `GOC_PREWARM` settings.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static PREWARM_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Resolves the effective worker count for this thread (always ≥ 1).
///
/// See the module docs for the resolution order. Invalid or non-positive
/// `GOC_THREADS` values are ignored.
pub fn thread_count() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Ok(raw) = std::env::var("GOC_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f` with the thread count pinned to `n` on the current thread,
/// restoring the previous setting afterwards (also on panic).
///
/// This takes precedence over `GOC_THREADS` and is the race-free way for
/// tests and benches to compare sequential vs parallel runs in-process.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(n))));
    f()
}

/// Whether pipelined background prewarm is enabled on this thread.
///
/// Resolution: a thread-local override installed by [`with_prewarm`], then
/// the `GOC_PREWARM` environment variable (read once and latched; any value
/// other than `"0"` — including unset — enables it). The knob gates
/// *pipelining only*: consumers must additionally have idle workers
/// available ([`thread_count`] > 1) for a background job to be worth
/// dispatching, and with the gate off candidates are built inline on the
/// calling thread exactly as before the pool existed.
pub fn prewarm_enabled() -> bool {
    if let Some(v) = PREWARM_OVERRIDE.with(|o| o.get()) {
        return v;
    }
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("GOC_PREWARM").map(|v| v != "0").unwrap_or(true))
}

/// Runs `f` with background prewarm pinned on/off for the current thread,
/// restoring the previous setting afterwards (also on panic). Mirrors
/// [`with_thread_count`]; benches use it to compare the inline and pipelined
/// prewarm paths in-process without racing on the environment.
pub fn with_prewarm<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PREWARM_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(PREWARM_OVERRIDE.with(|o| o.replace(Some(enabled))));
    f()
}

/// The persistent worker pool behind [`par_map`] and the background prewarm
/// pipeline.
///
/// Workers are plain detached `std::thread`s, spawned lazily the first time
/// they are needed and parked on a condvar between jobs — a `par_map` call
/// in the steady state costs two mutex operations and a notify instead of a
/// `thread::scope` spawn+join cycle. Two queues feed them:
///
/// * **foreground** — lifetime-erased shards of an in-flight [`par_map`]
///   call; always drained first, so background work can never delay a live
///   computation that has reached the pool;
/// * **background** — `'static` jobs handed to [`submit`] (candidate
///   prewarm); drained only when no foreground work is queued.
///
/// Every task runs under `with_thread_count(1, ..)` (nested fan-out stays
/// sequential) and under `catch_unwind` (a panicking job can never take a
/// pool thread down; the payload is re-raised at the matching join).
///
/// # Safety of the foreground path
///
/// Foreground shards borrow the caller's stack (`par_map`'s closure,
/// cursor, and result buffer). The borrow is transmuted to `'static` to
/// cross the queue, which is sound because [`run_scoped`] does not return —
/// not even by unwinding — until every shard has finished: a drop guard
/// blocks on the shard countdown even when the caller's own slice of the
/// work panics. This is the same discipline `std::thread::scope` enforces,
/// applied to persistent threads.
pub mod pool {
    use std::any::Any;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

    type Task = Box<dyn FnOnce() + Send>;

    /// A queued background job: the runnable body plus a handle on its
    /// completion state, kept separately so [`shutdown`] can complete the
    /// handle of a job it discards without running the body.
    struct BgJob {
        state: Arc<JobState>,
        body: Task,
    }

    struct Queues {
        foreground: VecDeque<Task>,
        background: VecDeque<BgJob>,
        /// Background jobs currently executing on a worker. [`drain`] and
        /// [`shutdown`] wait for this to reach zero — a job mid-write is
        /// never abandoned, only completed.
        background_active: usize,
    }

    struct Pool {
        queues: Mutex<Queues>,
        /// Signalled whenever a task is queued; workers park here.
        available: Condvar,
        /// Signalled when the background lane goes idle (queue empty, no
        /// job executing); [`drain`]/[`shutdown`] park here.
        bg_idle: Condvar,
        /// Number of persistent workers spawned so far.
        workers: AtomicUsize,
    }

    fn pool() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            queues: Mutex::new(Queues {
                foreground: VecDeque::new(),
                background: VecDeque::new(),
                background_active: 0,
            }),
            available: Condvar::new(),
            bg_idle: Condvar::new(),
            workers: AtomicUsize::new(0),
        })
    }

    /// Locks the task queues, recovering from poisoning: tasks themselves
    /// run outside the lock (and under `catch_unwind`), so a poisoned queue
    /// mutex carries no information about queue integrity.
    fn lock_queues(p: &Pool) -> std::sync::MutexGuard<'_, Queues> {
        p.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Grows the pool to at least `n` persistent workers. [`submit`] only
    /// guarantees a single worker; callers queueing several background jobs
    /// they expect to overlap should reserve capacity here first.
    pub fn ensure_workers(n: usize) {
        let p = pool();
        loop {
            let cur = p.workers.load(Ordering::Relaxed);
            if cur >= n {
                return;
            }
            if p.workers.compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed).is_err()
            {
                continue; // lost the race; re-check the new count
            }
            crate::obs_count_nd!("par.pool.spawned", 1u64);
            std::thread::Builder::new()
                .name(format!("goc-pool-{cur}"))
                .spawn(worker_loop)
                .expect("spawning a pool worker thread");
        }
    }

    fn worker_loop() {
        let p = pool();
        enum Picked {
            Fg(Task),
            Bg(BgJob),
        }
        loop {
            let picked = {
                let mut q = lock_queues(p);
                loop {
                    if let Some(t) = q.foreground.pop_front() {
                        break Picked::Fg(t);
                    }
                    if let Some(j) = q.background.pop_front() {
                        q.background_active += 1;
                        break Picked::Bg(j);
                    }
                    q = p.available.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Nested par_map calls run sequentially on pool workers, and a
            // panicking task must not take the persistent thread down — the
            // payload is delivered through the task's own completion state.
            match picked {
                Picked::Fg(task) => {
                    let _ = catch_unwind(AssertUnwindSafe(|| super::with_thread_count(1, task)));
                }
                Picked::Bg(job) => {
                    let _ =
                        catch_unwind(AssertUnwindSafe(|| super::with_thread_count(1, job.body)));
                    let mut q = lock_queues(p);
                    q.background_active -= 1;
                    if q.background.is_empty() && q.background_active == 0 {
                        p.bg_idle.notify_all();
                    }
                }
            }
        }
    }

    /// Completion state of one background job.
    #[derive(Default)]
    struct JobDone {
        finished: bool,
        /// The job was removed from the queue by [`shutdown`] without
        /// running.
        discarded: bool,
        /// First panic payload, re-raised at [`JobHandle::join`].
        panic: Option<Box<dyn Any + Send>>,
    }

    struct JobState {
        done: Mutex<JobDone>,
        cv: Condvar,
    }

    /// Handle to a background job queued with [`submit`].
    ///
    /// Dropping the handle detaches the job (it still runs). [`join`]
    /// blocks until completion and re-raises the job's panic, if any.
    ///
    /// [`join`]: JobHandle::join
    pub struct JobHandle {
        state: Arc<JobState>,
    }

    impl JobHandle {
        /// Blocks until the job has finished (or was discarded by
        /// [`shutdown`]); re-raises its panic.
        pub fn join(self) {
            let mut g = self.state.done.lock().unwrap_or_else(PoisonError::into_inner);
            while !g.finished {
                g = self.state.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            if let Some(payload) = g.panic.take() {
                drop(g);
                resume_unwind(payload);
            }
        }

        /// Whether the job has finished (without blocking).
        pub fn is_finished(&self) -> bool {
            self.state.done.lock().unwrap_or_else(PoisonError::into_inner).finished
        }

        /// Whether the job was discarded by [`shutdown`] before it ran.
        /// Background work is advisory (cache prewarm), so a discarded job
        /// completes its handle without running — callers that *require*
        /// the side effect should check this after [`join`].
        ///
        /// [`join`]: JobHandle::join
        pub fn was_discarded(&self) -> bool {
            self.state.done.lock().unwrap_or_else(PoisonError::into_inner).discarded
        }
    }

    /// Queues `f` on the background lane of the pool, growing it to the
    /// effective [`thread_count`](super::thread_count) target so queued
    /// jobs overlap instead of serializing on a single worker — a daemon
    /// enqueueing many prewarm jobs gets the parallelism `GOC_THREADS`
    /// promises without every call site remembering
    /// [`ensure_workers`]. Background tasks run only when no foreground
    /// (`par_map`) shard is queued, under `with_thread_count(1, ..)`.
    pub fn submit(f: impl FnOnce() + Send + 'static) -> JobHandle {
        ensure_workers(super::thread_count());
        let state = Arc::new(JobState { done: Mutex::new(JobDone::default()), cv: Condvar::new() });
        let task_state = Arc::clone(&state);
        let body: Task = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            let mut g = task_state.done.lock().unwrap_or_else(PoisonError::into_inner);
            g.finished = true;
            if let Err(payload) = result {
                g.panic = Some(payload);
            }
            task_state.cv.notify_all();
        });
        let p = pool();
        {
            let mut q = lock_queues(p);
            q.background.push_back(BgJob { state: Arc::clone(&state), body });
        }
        crate::obs_count_nd!("par.pool.jobs", 1u64);
        p.available.notify_one();
        JobHandle { state }
    }

    /// Blocks until the background lane is **empty and quiescent**: every
    /// job queued so far (including jobs queued by other threads while this
    /// call waits) has run to completion and no background job is
    /// executing. Foreground (`par_map`) work is unaffected.
    ///
    /// This is the orderly half of the teardown pair — `goc-serve` calls it
    /// when stopping a shard and the CLI calls it on exit, so a prewarm job
    /// mid-write into a shared cache is completed rather than lost with the
    /// process. The complement is [`shutdown`], which discards the queue.
    pub fn drain() {
        let p = pool();
        {
            // Queued jobs need a worker to ever complete; `submit`
            // guarantees one exists whenever it queues, but be defensive —
            // a hang here would be far worse than one spawn.
            let q = lock_queues(p);
            let queued = !q.background.is_empty();
            drop(q);
            if queued {
                ensure_workers(1);
            }
        }
        let mut q = lock_queues(p);
        while !(q.background.is_empty() && q.background_active == 0) {
            q = p.bg_idle.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Discards every **queued** background job — their handles complete
    /// immediately, marked [`was_discarded`](JobHandle::was_discarded),
    /// without the body running — then waits for jobs already executing to
    /// finish (a job mid-write is never interrupted). Returns the number of
    /// jobs discarded.
    ///
    /// Deterministic teardown contract: after `shutdown` returns, no
    /// background job is running or will ever run from the pre-call queue,
    /// and every handle is complete. The pool itself stays usable — later
    /// [`submit`]/[`par_map`] calls behave normally.
    pub fn shutdown() -> usize {
        let p = pool();
        let mut q = lock_queues(p);
        let dropped: Vec<BgJob> = q.background.drain(..).collect();
        for job in &dropped {
            let mut g = job.state.done.lock().unwrap_or_else(PoisonError::into_inner);
            g.finished = true;
            g.discarded = true;
            job.state.cv.notify_all();
        }
        while q.background_active > 0 {
            q = p.bg_idle.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        drop(q);
        // Other drain()/shutdown() waiters see the lane idle now.
        p.bg_idle.notify_all();
        let n = dropped.len();
        // Job bodies may own arbitrary state; run their destructors outside
        // the queue lock.
        drop(dropped);
        crate::obs_count_nd!("par.pool.discarded", n as u64);
        n
    }

    /// Shared countdown for one scoped (foreground) fan-out.
    struct ScopedJob {
        /// The caller's body, lifetime-erased; valid until `remaining`
        /// reaches zero, which [`run_scoped`] awaits before returning.
        body: &'static (dyn Fn() + Sync),
        remaining: AtomicUsize,
        /// First panic payload raised by a pool-side copy of the body.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
        cv: Condvar,
    }

    /// Runs `body` on `extra` pool workers *and* the calling thread,
    /// returning only after every copy has finished. Pool-side panics are
    /// re-raised here; a panic in the caller's own copy still waits for the
    /// workers before unwinding (so the erased borrows can never dangle).
    ///
    /// The caller always participates, so progress is guaranteed even if
    /// every pool worker is busy with earlier work.
    pub(crate) fn run_scoped(extra: usize, body: &(dyn Fn() + Sync)) {
        if extra == 0 {
            body();
            return;
        }
        ensure_workers(extra);
        // SAFETY: the guard below keeps this frame alive (even through an
        // unwinding caller) until `remaining` hits zero, i.e. until no task
        // can touch `body` again.
        let body_static: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(body) };
        let job = Arc::new(ScopedJob {
            body: body_static,
            remaining: AtomicUsize::new(extra),
            panic: Mutex::new(None),
            cv: Condvar::new(),
        });
        let p = pool();
        {
            let mut q = lock_queues(p);
            for _ in 0..extra {
                let job = Arc::clone(&job);
                q.foreground.push_back(Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(job.body)) {
                        let mut g = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
                        g.get_or_insert(payload);
                    }
                    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Pair the notify with the wait-side mutex so the
                        // caller cannot miss the final wakeup.
                        let _g = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
                        job.cv.notify_all();
                    }
                }));
            }
            p.available.notify_all();
        }
        struct WaitGuard<'a>(&'a ScopedJob);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                let mut g = self.0.panic.lock().unwrap_or_else(PoisonError::into_inner);
                while self.0.remaining.load(Ordering::Acquire) > 0 {
                    g = self.0.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        {
            let _wait = WaitGuard(&job);
            body();
        }
        let payload = job.panic.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Number of persistent workers currently alive (test/metrics hook).
    pub fn worker_count() -> usize {
        pool().workers.load(Ordering::Relaxed)
    }
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// With an effective thread count of 1 (or `n <= 1`) this is exactly
/// `(0..n).map(f).collect()` on the calling thread. Otherwise the calling
/// thread plus `threads - 1` persistent [`pool`] workers claim chunks of the
/// index range from an atomic cursor; each participant evaluates its indices
/// locally and the results are sorted back into index order before
/// returning. `f` must therefore be safe to call from any thread and — for
/// deterministic callers — depend only on its index.
///
/// A panic in `f` propagates to the caller once every participant has
/// stopped.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = thread_count().min(n.max(1));
    // When the recorder is on, each task's observability records are
    // captured in a per-task buffer and flushed in index order below —
    // the same merge discipline as the results — so the record stream is
    // bit-identical at any thread count. Off (the default), `tracing` is
    // false and both paths are exactly the pre-observability code.
    let tracing = crate::obs::enabled();
    if threads <= 1 || n <= 1 {
        if !tracing {
            return (0..n).map(f).collect();
        }
        return (0..n)
            .map(|i| {
                let (v, records) = crate::obs::task_capture(|| f(i));
                crate::obs::flush_task(i as u64, records);
                v
            })
            .collect();
    }
    // Chunks of ~n/(4·threads) amortize cursor contention while letting fast
    // workers steal the tail of a slow worker's share.
    let chunk = (n / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    type Keyed<T> = (usize, T, Vec<crate::obs::Record>);
    let results: Mutex<Vec<Keyed<T>>> = Mutex::new(Vec::with_capacity(n));
    let body = || {
        // Every participant (pool workers and the caller itself) runs
        // nested par_map calls sequentially.
        with_thread_count(1, || {
            let mut local: Vec<Keyed<T>> = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + chunk).min(n) {
                    if tracing {
                        let (v, records) = crate::obs::task_capture(|| f(i));
                        local.push((i, v, records));
                    } else {
                        local.push((i, f(i), Vec::new()));
                    }
                }
            }
            results.lock().unwrap().extend(local);
        });
    };
    pool::run_scoped(threads - 1, &body);
    let mut pairs = results.into_inner().unwrap();
    debug_assert_eq!(pairs.len(), n);
    pairs.sort_unstable_by_key(|&(i, _, _)| i);
    pairs
        .into_iter()
        .map(|(i, v, records)| {
            crate::obs::flush_task(i as u64, records);
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64;
        let seq: Vec<u64> = (0..1000).map(f) .collect();
        for threads in [1, 2, 4, 7] {
            let par = with_thread_count(threads, || par_map(1000, f));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(with_thread_count(4, || par_map(0, |i| i)), Vec::<usize>::new());
        assert_eq!(with_thread_count(4, || par_map(1, |i| i * 3)), vec![0]);
    }

    #[test]
    fn override_is_scoped_and_restored() {
        let before = thread_count();
        with_thread_count(3, || {
            assert_eq!(thread_count(), 3);
            with_thread_count(1, || assert_eq!(thread_count(), 1));
            assert_eq!(thread_count(), 3);
        });
        assert_eq!(thread_count(), before);
    }

    #[test]
    fn prewarm_override_is_scoped_and_restored() {
        let ambient = prewarm_enabled();
        with_prewarm(!ambient, || {
            assert_eq!(prewarm_enabled(), !ambient);
            with_prewarm(ambient, || assert_eq!(prewarm_enabled(), ambient));
            assert_eq!(prewarm_enabled(), !ambient);
        });
        assert_eq!(prewarm_enabled(), ambient);
    }

    #[test]
    fn nested_par_map_runs_sequentially_on_workers() {
        // Inner calls observe a thread count of 1 — no unbounded fan-out.
        let inner_counts = with_thread_count(4, || par_map(8, |_| thread_count()));
        assert!(inner_counts.iter().all(|&c| c == 1), "{inner_counts:?}");
    }

    #[test]
    fn results_arrive_in_index_order_under_contention() {
        // Uneven per-index cost exercises the work-stealing path.
        let out = with_thread_count(4, || {
            par_map(257, |i| {
                let mut acc = i as u64;
                for _ in 0..(i % 13) * 500 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (i, acc)
            })
        });
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(k, *i);
        }
    }

    #[test]
    fn pool_workers_persist_across_calls() {
        // Two calls; the pool must not grow past what the first one needed.
        let _ = with_thread_count(3, || par_map(64, |i| i * 2));
        let after_first = pool::worker_count();
        assert!(after_first >= 2, "first call should have spawned workers");
        let _ = with_thread_count(3, || par_map(64, |i| i * 2));
        // Other tests run concurrently and may grow the pool, so only check
        // this call didn't need more than the process-wide maximum implies.
        assert!(pool::worker_count() >= after_first);
    }

    /// Serializes the tests that touch the process-global background lane:
    /// `shutdown()` discards *every* queued background job, so a test
    /// running it concurrently with another test's `submit`/`join` pair
    /// would discard that test's jobs out from under it.
    static BG_LOCK: Mutex<()> = Mutex::new(());

    fn bg_lock() -> std::sync::MutexGuard<'static, ()> {
        BG_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn background_jobs_run_and_join() {
        use std::sync::atomic::AtomicU64;
        static HITS: AtomicU64 = AtomicU64::new(0);
        let _g = bg_lock();
        let handles: Vec<_> =
            (0..8).map(|_| pool::submit(|| { HITS.fetch_add(1, Ordering::Relaxed); })).collect();
        for h in handles {
            h.join();
        }
        assert!(HITS.load(Ordering::Relaxed) >= 8);
    }

    #[test]
    fn background_job_panic_is_delivered_at_join_not_in_the_pool() {
        let _g = bg_lock();
        let ok = pool::submit(|| {});
        let bad = pool::submit(|| panic!("background boom"));
        ok.join();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join()));
        assert!(err.is_err(), "join must re-raise the job's panic");
        // The pool survives: later work still runs.
        let still = pool::submit(|| {});
        still.join();
        assert_eq!(with_thread_count(2, || par_map(16, |i| i)).len(), 16);
    }

    #[test]
    fn submit_honors_the_effective_thread_target() {
        // Regression: `submit` used to guarantee only one worker, so queued
        // background jobs serialized unless a caller happened to call
        // `ensure_workers(n)` first. Eight jobs rendezvous: each waits for
        // all eight to have started, which is only possible if the pool
        // grew to (at least) the thread-local target of 8.
        use std::sync::atomic::AtomicUsize;
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let _g = bg_lock();
        let handles: Vec<_> = with_thread_count(8, || {
            (0..8)
                .map(|_| {
                    pool::submit(|| {
                        STARTED.fetch_add(1, Ordering::SeqCst);
                        let deadline = std::time::Instant::now()
                            + std::time::Duration::from_secs(30);
                        while STARTED.load(Ordering::SeqCst) < 8 {
                            assert!(
                                std::time::Instant::now() < deadline,
                                "background jobs serialized: the pool never \
                                 grew to the thread target"
                            );
                            std::thread::yield_now();
                        }
                    })
                })
                .collect()
        });
        for h in handles {
            h.join();
        }
        assert!(pool::worker_count() >= 8);
    }

    #[test]
    fn drain_completes_every_queued_background_job() {
        use std::sync::atomic::AtomicUsize;
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let _g = bg_lock();
        let handles: Vec<_> = (0..32)
            .map(|_| pool::submit(|| { RAN.fetch_add(1, Ordering::SeqCst); }))
            .collect();
        pool::drain();
        // After drain, every job has run to completion — nothing is lost
        // and nothing is still mid-write.
        assert!(handles.iter().all(|h| h.is_finished()));
        assert!(handles.iter().all(|h| !h.was_discarded()));
        assert!(RAN.load(Ordering::SeqCst) >= 32);
        for h in handles {
            h.join();
        }
    }

    #[test]
    fn shutdown_discards_queued_jobs_and_finishes_active_ones() {
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        static RELEASE: AtomicBool = AtomicBool::new(false);
        static MARKERS_RAN: AtomicUsize = AtomicUsize::new(0);
        let _g = bg_lock();
        RELEASE.store(false, Ordering::SeqCst);
        // Saturate every live worker (with a wide margin for workers other
        // tests may spawn concurrently) with jobs that park until released,
        // so the marker jobs queued behind them cannot start.
        let blockers: Vec<_> = (0..pool::worker_count() + 64)
            .map(|_| {
                pool::submit(|| {
                    let deadline =
                        std::time::Instant::now() + std::time::Duration::from_secs(30);
                    while !RELEASE.load(Ordering::SeqCst) {
                        assert!(std::time::Instant::now() < deadline, "release never came");
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        let markers: Vec<_> = (0..8)
            .map(|_| pool::submit(|| { MARKERS_RAN.fetch_add(1, Ordering::SeqCst); }))
            .collect();
        // shutdown() blocks on the *active* blockers, so run it on a helper
        // thread, wait until it has cleared the queue (every marker handle
        // completes as discarded), then release the active jobs.
        let shut = std::thread::spawn(pool::shutdown);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !markers.iter().all(|h| h.is_finished()) {
            assert!(std::time::Instant::now() < deadline, "shutdown never cleared the queue");
            std::thread::yield_now();
        }
        RELEASE.store(true, Ordering::SeqCst);
        let discarded = shut.join().expect("shutdown thread");
        // Every marker was queued behind the blockers, so none ran: the
        // discard is deterministic, not racy best-effort.
        assert_eq!(MARKERS_RAN.load(Ordering::SeqCst), 0, "a discarded job ran anyway");
        assert!(markers.iter().all(|h| h.was_discarded()));
        assert!(discarded >= markers.len(), "shutdown discarded {discarded} < 8 jobs");
        for h in markers {
            h.join(); // completes immediately, no panic
        }
        for h in blockers {
            h.join(); // active ones ran to completion; queued ones discarded
        }
        // The pool stays usable after shutdown.
        let again = pool::submit(|| {});
        while !again.is_finished() {
            std::thread::yield_now();
        }
        assert!(!again.was_discarded());
        again.join();
        assert_eq!(with_thread_count(2, || par_map(16, |i| i)).len(), 16);
    }

    #[test]
    fn par_map_panic_propagates_and_pool_survives() {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_thread_count(4, || {
                par_map(64, |i| {
                    if i == 33 {
                        panic!("shard boom");
                    }
                    i
                })
            })
        }));
        assert!(err.is_err(), "par_map must propagate worker panics");
        let seq: Vec<usize> = (0..100).collect();
        assert_eq!(with_thread_count(4, || par_map(100, |i| i)), seq);
    }

    #[test]
    fn background_jobs_observe_sequential_thread_count() {
        let h = pool::submit(|| {
            assert_eq!(thread_count(), 1, "pool tasks must not fan out");
        });
        h.join();
    }
}
