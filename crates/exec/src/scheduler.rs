//! Work-stealing morsel scheduler — the one library module that spawns
//! threads.
//!
//! Parallel operators (the morsel hash probe, its fused count, the band
//! join) describe their work as `n_tasks` independent, index-addressed
//! tasks and hand a closure to [`run_tasks`]. Each worker starts with a contiguous
//! block of task indices in its own deque, pops from the front of its own
//! deque, and steals from the *back* of a victim's when it runs dry — the
//! classic work-stealing shape: owners drain their block in order (cache-
//! friendly for morsel ranges), thieves take the work the owner would reach
//! last.
//!
//! **Determinism.** Scheduling decides only *who* runs a task and *when*;
//! results are keyed by task index and returned sorted in task order, so
//! the output is a pure function of the task closure — worker count,
//! steal interleavings, and deque layout are invisible to callers. The
//! [`RunStats::steals`] counter is the only schedule-dependent output, and
//! it feeds monitoring counters, never results.
//!
//! els-lint's `parallelism-seam` pass bans `thread::spawn`/`thread::scope`
//! everywhere else in library code, so every parallel code path shares this
//! module's panic policy (worker panics are re-raised on the coordinator,
//! never swallowed into truncated results).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use els_core::sync::lock_recovering;

/// Counters describing one [`run_tasks`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Tasks a worker popped from *another* worker's deque. Zero on the
    /// serial path; schedule-dependent (not deterministic) when parallel.
    pub steals: u64,
}

/// Run `n_tasks` independent tasks across up to `workers` threads with
/// work-stealing, returning the results in task order (`results[i]` is
/// `task(i)`) regardless of which worker ran what.
///
/// `workers <= 1` (or fewer than two tasks) runs inline on the calling
/// thread with no thread machinery at all, so serial callers pay nothing.
pub fn run_tasks<T, F>(workers: usize, n_tasks: usize, task: F) -> (Vec<T>, RunStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n_tasks <= 1 {
        return ((0..n_tasks).map(task).collect(), RunStats::default());
    }
    let workers = workers.min(n_tasks);
    // Seed each worker's deque with a contiguous block of task indices so
    // an unstolen run processes tasks exactly in order.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = w * n_tasks / workers;
            let hi = (w + 1) * n_tasks / workers;
            Mutex::new((lo..hi).collect())
        })
        .collect();
    let steals = AtomicU64::new(0);
    let mut keyed: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (deques, steals, task) = (&deques, &steals, &task);
                s.spawn(move || {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Own deque first, front to back.
                        let own = lock_recovering(&deques[w]).pop_front();
                        if let Some(t) = own {
                            out.push((t, task(t)));
                            continue;
                        }
                        // Dry: steal from the back of the first non-empty
                        // victim, scanning neighbours in a fixed order.
                        let mut stolen = None;
                        for off in 1..deques.len() {
                            let victim = (w + off) % deques.len();
                            if let Some(t) = lock_recovering(&deques[victim]).pop_back() {
                                stolen = Some(t);
                                break;
                            }
                        }
                        let Some(t) = stolen else { break };
                        steals.fetch_add(1, Ordering::Relaxed);
                        out.push((t, task(t)));
                    }
                    out
                })
            })
            .collect();
        // els-lint: allow(panic-freedom, "re-raises a worker panic on the coordinating thread; swallowing it would return truncated results")
        handles.into_iter().flat_map(|h| h.join().expect("scheduler worker panicked")).collect()
    });
    // Tasks are claimed exactly once (every pop holds the deque lock), so
    // sorting by task index restores the deterministic order.
    keyed.sort_unstable_by_key(|&(t, _)| t);
    (
        keyed.into_iter().map(|(_, r)| r).collect(),
        RunStats { steals: steals.load(Ordering::Relaxed) },
    )
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
