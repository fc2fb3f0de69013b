//! The persistent parked-worker pool behind [`crate::run_tasks`].
//!
//! The first generation of `siesta-par` spawned scoped threads per
//! parallel region (~100µs per spawn, partially hidden by the small-work
//! guards). This module replaces that with a process-wide pool of
//! **lazily spawned, condvar-parked workers** and a **generation-counted
//! job handoff**:
//!
//! * Workers are spawned on first demand, up to the width a region asks
//!   for (capped at [`POOL_CAP`]), and then live for the process. Between
//!   regions they park on a condvar — an idle pool costs nothing.
//! * A region is published as a generation-stamped job under the pool
//!   mutex. Each worker enters a given generation at most once, and entry
//!   (slot accounting, worker count) happens entirely under the mutex, so
//!   the submitter can retire a job race-free: unpublish, then wait for
//!   the entered-worker count to drain to zero.
//! * The job's control block lives on the **submitter's stack**. That is
//!   sound because every worker access goes through the pool mutex and
//!   the submitter does not return from [`run_region`] until no worker
//!   holds the pointer — the same lifetime argument scoped threads make,
//!   without paying a spawn per region.
//!
//! Determinism is unaffected by any of this: the pool hands out *task
//! indices*, results land in index-addressed slots, and the submitter is
//! always a full participant (a region at width N uses the submitter plus
//! at most N−1 pool workers). See DESIGN.md §9 for the contract.

use std::cell::{Cell, UnsafeCell};
use std::sync::{Condvar, Mutex, OnceLock};

/// Hard cap on pool threads. Regions may ask for any width (`--threads
/// 200` is accepted and still bit-identical); the pool simply stops
/// adding helpers here — width is a maximum, never a promise.
const POOL_CAP: usize = 64;

/// Bookkeeping for one in-flight parallel region. Lives on the submitting
/// thread's stack; all access happens under the pool mutex, and the
/// submitter does not return until `workers == 0` with the job
/// unpublished, so worker-held pointers never dangle.
struct JobCtl {
    /// Type-erased runner: claims task indices from the region's shared
    /// counter until exhausted. Lifetime erased to 'static; validity is
    /// guaranteed by the retirement protocol above.
    run: &'static (dyn Fn() + Sync),
    /// Worker entries still allowed (the submitter participates outside
    /// this budget).
    slots_left: usize,
    /// Workers currently inside `run`.
    workers: usize,
}

struct PoolState {
    /// Bumped on every publish; a worker enters each generation at most
    /// once, which is what lets one job hand off to the next without any
    /// per-worker acknowledgement round.
    gen: u64,
    /// The current job, if any: `(generation, control block)`.
    job: Option<(u64, *const UnsafeCell<JobCtl>)>,
    /// Worker threads spawned so far (monotonic, ≤ POOL_CAP).
    spawned: usize,
}

// The raw control-block pointer crosses threads inside the mutex; every
// dereference happens under that mutex (or, for `run`, is kept alive by
// the entered-worker count the mutex protects).
unsafe impl Send for PoolState {}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// Submitters wait here for their job's entered workers to drain.
    done_cv: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { gen: 0, job: None, spawned: 0 }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

thread_local! {
    /// Set inside pool workers: a nested parallel region started from a
    /// worker runs inline instead of re-entering (and possibly starving)
    /// its own pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Is the current thread a pool worker?
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

fn worker_loop() {
    IN_WORKER.with(|w| w.set(true));
    // Register this worker with the flight recorder up front (one lock +
    // one chunk, once per thread) so no span recorded inside a parallel
    // region ever pays for registration.
    siesta_obs::register_thread();
    let p = pool();
    let mut seen_gen = 0u64;
    let mut st = p.state.lock().unwrap();
    loop {
        if let Some((gen, ctl)) = st.job {
            if gen != seen_gen {
                seen_gen = gen;
                // Entry accounting under the mutex: once `workers` is
                // incremented the submitter cannot retire the job until we
                // check back in, so `run` stays valid for the whole call.
                let run = unsafe {
                    let c = &mut *(*ctl).get();
                    if c.slots_left > 0 {
                        c.slots_left -= 1;
                        c.workers += 1;
                        Some(c.run)
                    } else {
                        None
                    }
                };
                if let Some(run) = run {
                    drop(st);
                    run();
                    st = p.state.lock().unwrap();
                    unsafe {
                        let c = &mut *(*ctl).get();
                        c.workers -= 1;
                        if c.workers == 0 {
                            p.done_cv.notify_all();
                        }
                    }
                    // Re-examine the state: a new generation may already
                    // be published.
                    continue;
                }
            }
        }
        st = p.work_cv.wait(st).unwrap();
    }
}

/// Run `run` on the calling thread plus up to `extra_workers` pool
/// workers, blocking until every participant has left `run`. The closure
/// must partition its own work (the callers in `lib.rs` claim task
/// indices from a shared atomic counter).
pub(crate) fn run_region(extra_workers: usize, run: &(dyn Fn() + Sync)) {
    let p = pool();
    // Erase the borrow: the retirement protocol below keeps `run` alive
    // for as long as any worker can reach it.
    let run_static: &'static (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), _>(run) };
    let ctl = UnsafeCell::new(JobCtl { run: run_static, slots_left: extra_workers, workers: 0 });

    let gen = {
        let mut st = p.state.lock().unwrap();
        // Lazily grow the pool to demand; threads park between jobs, so
        // previously spawned workers are free to reuse.
        let want = extra_workers.min(POOL_CAP);
        while st.spawned < want {
            st.spawned += 1;
            std::thread::Builder::new()
                .name(format!("siesta-par-{}", st.spawned))
                .spawn(worker_loop)
                .expect("failed to spawn siesta-par pool worker");
        }
        st.gen += 1;
        st.job = Some((st.gen, &ctl as *const _));
        p.work_cv.notify_all();
        st.gen
    };

    // The submitter is a full participant — width 1 of the region is this
    // very call, not a separate code path.
    run();

    // Retire: unpublish (unless a later region already replaced us), then
    // drain workers that entered. After unpublishing under the mutex no
    // new worker can reach `ctl`, and `workers` only moves under the same
    // mutex, so when it reads zero the stack frame is safe to leave.
    let mut st = p.state.lock().unwrap();
    if let Some((g, _)) = st.job {
        if g == gen {
            st.job = None;
        }
    }
    while unsafe { (*ctl.get()).workers } > 0 {
        st = p.done_cv.wait(st).unwrap();
    }
}
