//! Persistent simulation worker pool and a lightweight phase barrier.
//!
//! The threaded statevector path used to spawn a scoped thread pool per
//! fused program and synchronize with a heavyweight [`std::sync::Barrier`]
//! per op — so much fixed cost that 4 threads lost to 1 on a 16-qubit
//! apply. This module replaces both halves:
//!
//! * [`WorkerPool`] — threads are spawned **once** and parked on a condvar;
//!   dispatching a parallel region costs one mutex round-trip instead of
//!   `threads` clone-and-spawns. The caller participates as worker 0, so a
//!   pool of `t` threads holds `t − 1` parked helpers. Dispatch is
//!   serialized by an internal mutex held for the whole epoch; a
//!   concurrent or re-entrant `run` on the same pool executes on plain
//!   scoped threads instead (bitwise-identical results).
//! * [`SpinBarrier`] — a sense-reversing barrier for the *inside* of a
//!   parallel region (one wait per schedule phase). It spins briefly and
//!   then yields, so it stays cheap when workers outnumber cores (CI
//!   containers are routinely 1–2 vCPUs).
//! * [`run`] — a process-global pool, grown on demand and reused across
//!   programs, batches and service jobs. Concurrent dispatchers (service
//!   workers) fall back to plain scoped threads; results are bitwise
//!   identical either way because chunk arithmetic never depends on the
//!   executing thread.
//!
//! Two process-wide counters ([`pool_tasks`], [`barrier_waits`]) feed the
//! `qmetrics` snapshot so `svc status` can show how much work the pool is
//! actually absorbing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, TryLockError};
use std::thread::JoinHandle;

/// Process-wide count of worker tasks dispatched through any pool entry
/// point (one per participating worker per parallel region, including the
/// caller's own share).
static POOL_TASKS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of completed [`SpinBarrier`] episodes (one per
/// barrier crossing, not per waiting thread).
static BARRIER_WAITS: AtomicU64 = AtomicU64::new(0);

/// Total pool tasks dispatched by this process so far.
pub fn pool_tasks() -> u64 {
    POOL_TASKS.load(Ordering::Relaxed)
}

/// Total barrier episodes completed by this process so far.
pub fn barrier_waits() -> u64 {
    BARRIER_WAITS.load(Ordering::Relaxed)
}

/// The number of hardware threads available to this process, detected once.
///
/// Thread-count *requests* above this are requests for oversubscription.
/// The statevector entry points ([`StateVector::apply_fused`] and the
/// scans built on it) run on exactly the width they are given, so tests
/// and benchmarks can pin it; production callers clamp to this first
/// (`NoisyExecutor::sim_threads` in `qnoise`). The clamp cannot change
/// results — every width computes bitwise-identical amplitudes.
///
/// [`StateVector::apply_fused`]: crate::StateVector::apply_fused
pub fn available_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// pool state is a plain bookkeeping struct that stays consistent across
/// unwinds, so poisoning carries no information here.
fn lock_state(m: &Mutex<DispatchState>) -> MutexGuard<'_, DispatchState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Type-erased pointer to the job closure of the current epoch.
///
/// The pointee is borrowed from the dispatching caller's stack;
/// [`WorkerPool::run`] does not return until every participant has finished
/// with it, which is what makes handing it to other threads sound.
#[derive(Clone, Copy)]
struct SendJob(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the dispatch protocol guarantees it outlives every use.
unsafe impl Send for SendJob {}

/// Pool bookkeeping behind the dispatch mutex.
struct DispatchState {
    /// Bumped once per dispatched job; workers track the last epoch they
    /// observed so a wakeup is never mistaken for a new job.
    epoch: u64,
    /// The current job, present from dispatch until the caller reclaims it.
    job: Option<SendJob>,
    /// Workers participating in the current epoch (including the caller).
    participants: usize,
    /// Helper threads still running the current job.
    remaining: usize,
    /// True once a helper's job closure panicked (re-raised by the caller).
    panicked: bool,
    /// Set by `Drop` to unpark and retire every helper.
    shutdown: bool,
}

struct Shared {
    state: Mutex<DispatchState>,
    /// Helpers park here between epochs.
    work_cv: Condvar,
    /// The caller parks here until `remaining` drains to zero.
    done_cv: Condvar,
}

/// A persistent pool of parked worker threads.
///
/// Construction spawns `threads − 1` helpers (the dispatching caller is
/// worker 0); [`WorkerPool::run`] wakes them for one parallel region and
/// returns when all participants have finished. Most code should go
/// through the process-global [`run`] instead of owning a pool.
///
/// # Examples
///
/// ```
/// use qsim::pool::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let sum = AtomicU64::new(0);
/// pool.run(4, &|worker| {
///     sum.fetch_add(worker as u64 + 1, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Held by [`WorkerPool::run`] for the full duration of an epoch, so
    /// only one dispatcher at a time can touch the epoch bookkeeping. A
    /// concurrent (or re-entrant) `run` observes contention and executes
    /// its region on plain scoped threads instead — same worker indices,
    /// same closure, bitwise-identical results.
    dispatch: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool able to run `threads`-wide parallel regions.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(DispatchState {
                epoch: 0,
                job: None,
                participants: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qsim-pool-{index}"))
                    .spawn(move || helper_loop(&shared, index))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            dispatch: Mutex::new(()),
            handles,
        }
    }

    /// The widest parallel region this pool can run (helpers + caller).
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `f(worker)` once per worker `0..participants`, on the calling
    /// thread (worker 0) and `participants − 1` parked helpers, returning
    /// when all of them have finished. `participants` is clamped to the
    /// pool width.
    ///
    /// Dispatch is serialized internally: when another thread is already
    /// running a region on this pool (or `f` itself calls back into the
    /// same pool), the region executes on plain scoped threads instead of
    /// the parked helpers — same worker indices, same closure, so the
    /// results are bitwise identical either way.
    ///
    /// # Panics
    ///
    /// Panics if any worker's `f` panicked (after every other participant
    /// has finished, so the borrow of `f` never dangles).
    pub fn run(&self, participants: usize, f: &(dyn Fn(usize) + Sync)) {
        let participants = participants.clamp(1, self.threads());
        POOL_TASKS.fetch_add(participants as u64, Ordering::Relaxed);
        if participants == 1 {
            f(0);
            return;
        }
        // Exactly one dispatcher may own the epoch bookkeeping at a time:
        // a second concurrent `run` overwriting `remaining` could drain the
        // first caller's completion wait early and dangle the job borrow.
        // Held for the whole epoch (dispatch through drain). Poisoning just
        // means a previous region panicked — the bookkeeping is already
        // drained, so the guard is safe to recover. Contention (including a
        // re-entrant call from inside a job) falls back to scoped threads.
        let _dispatch = match self.dispatch.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                std::thread::scope(|scope| {
                    for worker in 1..participants {
                        scope.spawn(move || f(worker));
                    }
                    f(0);
                });
                return;
            }
        };
        // SAFETY: only the fat-pointer layout changes; the completion wait
        // below (including the unwind path, via `WaitGuard`) keeps the
        // borrow alive for as long as any helper can dereference it.
        let job = SendJob(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        });
        {
            let mut st = lock_state(&self.shared.state);
            debug_assert_eq!(st.remaining, 0, "previous epoch still running");
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(job);
            st.participants = participants;
            st.remaining = participants - 1;
            // A stale flag can survive an epoch whose caller-side `f(0)`
            // unwound before the check below; it must not fail this epoch.
            st.panicked = false;
            self.shared.work_cv.notify_all();
        }
        {
            // Waits for the helpers even if `f(0)` unwinds: the job borrow
            // must outlive every helper's use of it.
            let _wait = WaitGuard {
                shared: &self.shared,
            };
            f(0);
        }
        let mut st = lock_state(&self.shared.state);
        st.job = None;
        if st.panicked {
            st.panicked = false;
            drop(st);
            panic!("a pool worker panicked during the parallel region");
        }
    }
}

/// Blocks until the current epoch's helpers have drained, on drop.
struct WaitGuard<'a> {
    shared: &'a Shared,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(&self.shared.state);
        while st.remaining != 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Body of a parked helper thread: wait for a new epoch, run the job if
/// the helper is a participant, decrement the drain count, repeat.
fn helper_loop(shared: &Shared, index: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock_state(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    if index < st.participants {
                        break st.job;
                    }
                    // Not a participant this epoch: keep waiting. A helper
                    // can never miss an epoch it participates in, because a
                    // new epoch is only posted after `remaining` drains.
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        if let Some(SendJob(ptr)) = job {
            // SAFETY: the dispatching caller blocks in `run` until this
            // helper decrements `remaining` below, so the pointee is alive.
            let f = unsafe { &*ptr };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index)));
            let mut st = lock_state(&shared.state);
            if outcome.is_err() {
                st.panicked = true;
            }
            st.remaining -= 1;
            if st.remaining == 0 {
                shared.done_cv.notify_all();
            }
        }
    }
}

/// The process-global pool, grown on demand and reused across programs.
static GLOBAL: Mutex<Option<WorkerPool>> = Mutex::new(None);

/// Runs `f(worker)` for workers `0..threads` on the process-global
/// persistent pool, creating or growing it on first use.
///
/// The calling thread always executes worker 0. When another thread is
/// already dispatching on the global pool (concurrent service jobs, or a
/// nested parallel region), this falls back to plain scoped threads — the
/// same worker indices run the same closure, so results are identical.
///
/// # Panics
///
/// Panics if `threads` is 0 or any worker's `f` panics.
pub fn run(threads: usize, f: &(dyn Fn(usize) + Sync)) {
    assert!(threads >= 1, "need at least one thread");
    if threads == 1 {
        POOL_TASKS.fetch_add(1, Ordering::Relaxed);
        f(0);
        return;
    }
    // `try_lock`, not `lock`: a blocked dispatcher would serialize
    // independent parallel regions, and a *nested* region (a threaded
    // apply inside a pooled batch) would deadlock against its own caller.
    // Only genuine contention (`WouldBlock`) falls back to scoped threads;
    // a poisoned guard just means a previous job panicked while this mutex
    // was held — the pool itself survives worker panics, so recover it
    // rather than silently degrading every later region to scoped
    // spawning for the rest of the process.
    let guard = match GLOBAL.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    };
    if let Some(mut guard) = guard {
        let wide_enough = guard.as_ref().is_some_and(|p| p.threads() >= threads);
        if !wide_enough {
            // Assigning drops (and joins) the old, narrower pool first.
            *guard = Some(WorkerPool::new(threads));
        }
        guard
            .as_ref()
            .expect("pool installed above")
            .run(threads, f);
        return;
    }
    POOL_TASKS.fetch_add(threads as u64, Ordering::Relaxed);
    std::thread::scope(|scope| {
        for worker in 1..threads {
            scope.spawn(move || f(worker));
        }
        f(0);
    });
}

/// A sense-reversing barrier for the inside of one parallel region.
///
/// Unlike [`std::sync::Barrier`] there is no mutex and no syscall on the
/// fast path: arrival is one `fetch_add`, release is one store of the next
/// generation. Waiters spin briefly, then `yield_now` so an oversubscribed
/// region (more workers than cores) degrades to scheduler round-robin
/// instead of livelock-grade spinning.
///
/// Every participating worker must call [`SpinBarrier::wait`] the same
/// number of times; the barrier is reusable across generations.
#[derive(Debug)]
pub struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

/// Spin iterations before a waiter starts yielding its timeslice.
const SPIN_LIMIT: u32 = 64;

impl SpinBarrier {
    /// Creates a barrier for `parties` workers.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is 0.
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks until all parties of the current generation have arrived.
    #[inline]
    pub fn wait(&self) {
        if self.parties == 1 {
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            BARRIER_WAITS.fetch_add(1, Ordering::Relaxed);
            // Reset before release: late waiters load `generation` with
            // Acquire, so they observe the reset before they can re-arrive.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins < SPIN_LIMIT {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_worker_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits = [const { AtomicU64::new(0) }; 4];
        pool.run(4, &|w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        });
        for (w, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "worker {w}");
        }
    }

    #[test]
    fn pool_is_reusable_and_clamps_participants() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        for round in 1..=5u64 {
            let sum = AtomicU64::new(0);
            // Requests wider than the pool are clamped to its width.
            pool.run(64, &|w| {
                sum.fetch_add(round + w as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 3 * round + 3);
        }
    }

    #[test]
    fn single_participant_runs_inline() {
        let pool = WorkerPool::new(2);
        let before = pool_tasks();
        pool.run(1, &|w| assert_eq!(w, 0));
        assert!(pool_tasks() > before);
    }

    #[test]
    fn spin_barrier_orders_phases() {
        let pool = WorkerPool::new(4);
        let barrier = SpinBarrier::new(4);
        let phase1 = [const { AtomicU64::new(0) }; 4];
        let sums = [const { AtomicU64::new(0) }; 4];
        pool.run(4, &|w| {
            phase1[w].store(w as u64 + 10, Ordering::Release);
            barrier.wait();
            // After the barrier every phase-1 write is visible.
            let total: u64 = phase1.iter().map(|p| p.load(Ordering::Acquire)).sum();
            sums[w].store(total, Ordering::Relaxed);
            barrier.wait();
        });
        for s in &sums {
            assert_eq!(s.load(Ordering::Relaxed), 10 + 11 + 12 + 13);
        }
    }

    #[test]
    fn worker_panic_is_contained_and_reraised() {
        let pool = WorkerPool::new(2);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, &|w| {
                if w == 1 {
                    panic!("scripted worker failure");
                }
            });
        }));
        assert!(died.is_err(), "the worker panic must surface to the caller");
        // The pool survives and keeps dispatching.
        let sum = AtomicU64::new(0);
        pool.run(2, &|w| {
            sum.fetch_add(w as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn global_run_counts_tasks_and_reuses_the_pool() {
        let before = pool_tasks();
        let sum = AtomicU64::new(0);
        run(3, &|w| {
            sum.fetch_add(w as u64 + 1, Ordering::Relaxed);
        });
        run(3, &|w| {
            sum.fetch_add(w as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 12);
        assert!(pool_tasks() >= before + 6);
    }

    #[test]
    fn nested_dispatch_falls_back_without_deadlock() {
        let sum = AtomicU64::new(0);
        run(2, &|_| {
            // The outer dispatch holds the global pool; the nested region
            // must fall back to scoped threads instead of deadlocking.
            run(2, &|w| {
                sum.fetch_add(w as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn concurrent_dispatchers_on_one_pool_are_safe() {
        // Regression test: two threads calling `run(&pool, ..)` at once
        // used to race on the epoch bookkeeping (a second dispatcher could
        // drain the first caller's wait early and dangle the job borrow).
        // Now one wins the dispatch lock and the rest run scoped.
        let pool = Arc::new(WorkerPool::new(4));
        let total = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run(4, &|w| {
                            total.fetch_add(w as u64 + 1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 dispatchers x 50 regions x (1 + 2 + 3 + 4) per region.
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 10);
    }

    #[test]
    fn reentrant_dispatch_on_one_pool_falls_back() {
        let pool = WorkerPool::new(2);
        let sum = AtomicU64::new(0);
        pool.run(2, &|_| {
            // Calling back into the same pool from inside a job must not
            // deadlock against the held dispatch lock.
            pool.run(2, &|w| {
                sum.fetch_add(w as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn global_pool_survives_a_worker_panic() {
        // A worker panic unwinds through `run` while the GLOBAL guard is
        // held, poisoning it. The next dispatch must recover the guard and
        // keep using the persistent pool, not degrade to scoped spawning
        // for the rest of the process.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(2, &|w| {
                if w == 1 {
                    panic!("scripted worker failure");
                }
            });
        }));
        assert!(died.is_err(), "the worker panic must surface");

        // Persistent-pool helpers are named qsim-pool-N; the scoped
        // fallback runs on anonymous threads. Concurrent tests can steal
        // the global pool for a moment (legitimate fallback), so retry a
        // few times before declaring the pool dead.
        let mut on_pool = false;
        for _ in 0..100 {
            let helper_pooled = AtomicU64::new(0);
            run(2, &|w| {
                if w == 1 {
                    let named = std::thread::current()
                        .name()
                        .is_some_and(|n| n.starts_with("qsim-pool"));
                    helper_pooled.store(named as u64, Ordering::Relaxed);
                }
            });
            if helper_pooled.load(Ordering::Relaxed) == 1 {
                on_pool = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(
            on_pool,
            "after a panic the global pool should keep dispatching on persistent helpers"
        );
    }

    #[test]
    fn barrier_counts_episodes_not_waiters() {
        let before = barrier_waits();
        let pool = WorkerPool::new(3);
        let barrier = SpinBarrier::new(3);
        pool.run(3, &|_| {
            barrier.wait();
            barrier.wait();
        });
        assert!(barrier_waits() >= before + 2);
    }
}
