//! Work-stealing morsel scheduler — the one library module that spawns
//! threads, and the one that holds `unsafe`.
//!
//! Parallel operators (the morsel hash probe, its fused count, the band
//! join) describe their work as `n_tasks` independent, index-addressed
//! tasks and hand a closure to [`run_tasks`]. The calling thread is worker
//! 0; workers `1..` are helper threads of a process-wide pool, parked on a
//! condvar between jobs. Each worker starts with a contiguous block of task
//! indices, one packed atomic `(lo, hi)` range: it pops the front of its own
//! block and, dry, the *back* of a victim's — owners drain their block in
//! order (cache-friendly for morsel ranges), thieves take what the owner
//! would reach last.
//!
//! **The pool** holds as many helpers as the largest `workers - 1` any call
//! has asked for, spawned on first need and never torn down, and one job at
//! a time. A caller that finds it busy — a second engine thread, or a task
//! that itself calls [`run_tasks`] — runs its tasks inline.
//!
//! **Determinism.** Scheduling decides only *who* runs a task and *when*;
//! every result lands in the slot of its task index, so worker count, steal
//! interleavings and a busy pool are invisible to callers: the `steals`
//! counter is the only schedule-dependent output, and it feeds monitoring.
//!
//! **Panics.** els-lint's `parallelism-seam` pass bans `thread::spawn`,
//! `thread::scope` and `thread::Builder` everywhere else in library code, so every parallel path
//! shares one policy: a task panic on any worker is re-raised on the caller
//! once no helper is left in the job, never swallowed into short results.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use els_core::sync::{lock_recovering, wait_recovering};

/// Counters describing one [`run_tasks`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Tasks a worker took from *another* worker's block. Zero on the
    /// serial path; schedule-dependent (not deterministic) when parallel.
    pub steals: u64,
}

/// What a helper runs: the job's worker loop, given its worker index.
type Body<'a> = &'a (dyn Fn(usize) + Sync + 'a);

/// The pool's one job slot. `job` is set from a caller's offer until the
/// last helper has left it (so `running` only ever counts one job's
/// helpers), `open` counts the seats nobody has taken yet, `running` the
/// helpers inside the job, `helpers` the threads spawned so far.
struct State {
    job: Option<Body<'static>>,
    open: usize,
    running: usize,
    helpers: usize,
}

static STATE: Mutex<State> = Mutex::new(State { job: None, open: 0, running: 0, helpers: 0 });
/// Helpers park on `POSTED` (signalled once per open seat); the caller of
/// a job waits on `DRAINED` for the last helper to leave it.
static POSTED: Condvar = Condvar::new();
static DRAINED: Condvar = Condvar::new();

/// A helper thread: take a seat of the posted job, run it, park again.
fn helper() {
    let mut state = lock_recovering(&STATE);
    loop {
        let Some(job) = state.job.filter(|_| state.open > 0) else {
            state = wait_recovering(&POSTED, state);
            continue;
        };
        let seat = state.open;
        state.open -= 1;
        state.running += 1;
        drop(state);
        job(seat);
        state = lock_recovering(&STATE);
        state.running -= 1;
        if state.running == 0 {
            DRAINED.notify_one();
        }
    }
}

/// A job in the pool's slot. Dropping it — on return or unwinding — closes
/// its seats, waits for every helper that took one, then frees the slot.
struct Posted<'a>(PhantomData<Body<'a>>);

impl<'a> Posted<'a> {
    /// Offer `body` to `seats` helpers, which call it with the worker
    /// indices `1..=seats`; `None` when the pool is busy. Fewer helpers
    /// than seats (the OS refused a thread) is fine: unowned work is stolen.
    #[allow(unsafe_code)]
    fn new(body: Body<'a>, seats: usize) -> Option<Posted<'a>> {
        let mut state = lock_recovering(&STATE);
        if state.job.is_some() {
            return None;
        }
        let spawn = || std::thread::Builder::new().name("els-exec-helper".into()).spawn(helper);
        while state.helpers < seats && spawn().is_ok() {
            state.helpers += 1;
        }
        // SAFETY: the transmute only lengthens the lifetime of `body`, and
        // no helper can use the reference after `'a` ends. The one copy
        // lives in `STATE.job`, which this module alone reads: `helper`
        // copies it out under the lock, only while a seat is `open`, and
        // counts itself into `running` in the same critical section, then
        // uses the copy until it counts itself out, again under the lock.
        // The returned `Posted` borrows `'a`, so `body` outlives it, and
        // its `Drop` closes the seats and returns only once `running` is
        // zero, on return and on unwind alike; the slot stays taken until
        // then, so no other job's helpers are ever counted. `Posted` is
        // private and `run_tasks` never leaks one (`mem::forget` would).
        state.job = Some(unsafe { std::mem::transmute::<Body<'a>, Body<'static>>(body) });
        state.open = seats.min(state.helpers);
        (0..state.open).for_each(|_| POSTED.notify_one());
        Some(Posted(PhantomData))
    }
}

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        let mut state = lock_recovering(&STATE);
        state.open = 0;
        while state.running > 0 {
            state = wait_recovering(&DRAINED, state);
        }
        state.job = None;
    }
}

/// Pop one task index off a block `lo..hi`, packed `lo << 32 | hi`: its
/// owner takes the front, a thief the back. Bounds only move inwards, so a
/// successful exchange claims an index nobody else can.
fn take(block: &AtomicU64, front: bool) -> Option<usize> {
    let bounds = |packed: u64| (packed >> 32, packed & u64::from(u32::MAX));
    let shrink = |packed| {
        let (lo, hi) = bounds(packed);
        (lo < hi).then(|| if front { packed + (1 << 32) } else { packed - 1 })
    };
    let (lo, hi) = bounds(block.fetch_update(Ordering::AcqRel, Ordering::Acquire, shrink).ok()?);
    usize::try_from(if front { lo } else { hi - 1 }).ok()
}

/// Run `n_tasks` independent tasks across up to `workers` threads with
/// work-stealing, returning the results in task order (`results[i]` is
/// `task(i)`) regardless of which worker ran what. `workers <= 1`, fewer
/// than two tasks and a busy pool all run inline on the calling thread,
/// with no thread machinery at all: serial callers pay nothing.
pub fn run_tasks<T, F>(workers: usize, n_tasks: usize, task: F) -> (Vec<T>, RunStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let serial = |task: &F| ((0..n_tasks).map(task).collect(), RunStats::default());
    if workers <= 1 || n_tasks <= 1 || u32::try_from(n_tasks).is_err() {
        return serial(&task);
    }
    let workers = workers.min(n_tasks);
    // A contiguous block per worker: an unstolen run goes exactly in order.
    let bound = |w: usize| (w * n_tasks / workers) as u64;
    let blocks: Vec<_> =
        (0..workers).map(|w| AtomicU64::new(bound(w) << 32 | bound(w + 1))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // No worker unwinds: the first panic is kept for the caller.
    let body = |w: usize| {
        let work = || loop {
            // Own block first, front to back; dry, the back of the first
            // non-empty victim, scanning neighbours in a fixed order.
            let own = blocks.get(w).and_then(|own| take(own, true));
            let steal = |off| take(blocks.get((w + off) % workers)?, false);
            let Some(t) = own.or_else(|| (1..workers).find_map(steal)) else { return };
            if own.is_none() {
                steals.fetch_add(1, Ordering::Relaxed);
            }
            let result = task(t);
            if let Some(slot) = results.get(t) {
                *lock_recovering(slot) = Some(result);
            }
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(work)) {
            lock_recovering(&panicked).get_or_insert(payload);
        }
    };
    let Some(posted) = Posted::new(&body, workers - 1) else { return serial(&task) };
    body(0);
    drop(posted);
    if let Some(payload) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    let filled = |slot: Mutex<Option<T>>| slot.into_inner().unwrap_or_else(PoisonError::into_inner);
    #[expect(
        clippy::expect_used,
        reason = "every block was drained and no task panicked, so every slot is filled; anything else would be truncated results"
    )]
    let results =
        results.into_iter().map(filled).collect::<Option<Vec<T>>>().expect("every task ran");
    (results, RunStats { steals: steals.load(Ordering::Relaxed) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_task_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            for n_tasks in [0, 1, 2, 7, 100] {
                let (results, _) = run_tasks(workers, n_tasks, |i| i * 3);
                let expected: Vec<usize> = (0..n_tasks).map(|i| i * 3).collect();
                assert_eq!(results, expected, "workers={workers} tasks={n_tasks}");
            }
        }
    }

    #[test]
    fn a_block_hands_out_each_index_once_from_either_end() {
        let block = AtomicU64::new(3 << 32 | 7);
        assert_eq!(take(&block, true), Some(3));
        assert_eq!(take(&block, false), Some(6));
        assert_eq!(take(&block, false), Some(5));
        assert_eq!(take(&block, true), Some(4));
        assert_eq!((take(&block, true), take(&block, false)), (None, None));
        let empty = AtomicU64::new(0);
        assert_eq!((take(&empty, true), take(&empty, false)), (None, None));
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let (results, stats) = run_tasks(4, 257, |i| {
            ran.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(ran.load(Ordering::SeqCst), 257);
        assert_eq!(results.len(), 257);
        assert!(stats.steals <= 257, "a steal is a task, so steals are bounded by tasks");
    }

    #[test]
    fn serial_path_never_steals_or_spawns() {
        let (results, stats) = run_tasks(1, 50, |i| i);
        assert_eq!(results.len(), 50);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn worker_panic_propagates_instead_of_truncating() {
        let res = std::panic::catch_unwind(|| {
            run_tasks(2, 16, |i| {
                assert!(i != 7, "deliberate");
                i
            })
        });
        assert!(res.is_err(), "task panic must reach the caller");
    }
}
