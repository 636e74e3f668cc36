//! The scheduler's helper pool, in a process of its own: every test here
//! holds [`alone`], so a `run_tasks` call that expects the pool finds it
//! free and the interleavings below are forced, not hoped for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use els_exec::scheduler::run_tasks;
use els_exec::timing::Stopwatch;

static POOL_TESTS: Mutex<()> = Mutex::new(());

/// The pool is process-wide: one test at a time.
fn alone() -> MutexGuard<'static, ()> {
    POOL_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spin until `reached()`; a state never reached is a failure, not a wait.
fn wait_until(what: &str, reached: impl Fn() -> bool) {
    let waited = Stopwatch::start();
    while !reached() {
        assert!(waited.elapsed() < Duration::from_secs(30), "{what} never happened");
        thread::yield_now();
    }
}

/// What the task closures below capture by value. `run_tasks` drops its
/// closure when it returns or unwinds, which marks the capture `gone`; a
/// task that touches it after that is a helper still inside a closure the
/// caller has given up.
struct Capture {
    gone: Arc<AtomicBool>,
    late: Arc<AtomicUsize>,
}

impl Capture {
    fn touch(&self) {
        if self.gone.load(SeqCst) {
            self.late.fetch_add(1, SeqCst);
        }
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        self.gone.store(true, SeqCst);
    }
}

/// Two tasks on two workers: task 0 is the caller's, and the caller stays
/// in it until the helper has started task 1, so the helper is inside the
/// closure when `panicking_worker` has its task panic. Returns the
/// panic message and whether the helper's task had run to its end when
/// `run_tasks` gave up; asserts nobody touched the closure afterwards and
/// that the pool still works.
fn panic_on(panicking_worker: &'static str) -> (String, bool) {
    let (gone, late) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicUsize::new(0)));
    let capture = Capture { gone: Arc::clone(&gone), late: Arc::clone(&late) };
    let helper_started = Arc::new(AtomicBool::new(false));
    let helper_finished = Arc::new(AtomicBool::new(false));
    let (started, finished) = (Arc::clone(&helper_started), Arc::clone(&helper_finished));
    let caller = thread::current().id();
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        run_tasks(2, 2, move |t| {
            capture.touch();
            if thread::current().id() == caller {
                assert_eq!(t, 0, "the caller is stuck in its own task, it cannot steal");
                wait_until("a helper taking task 1", || started.load(SeqCst));
                assert!(panicking_worker != "caller", "deliberate: caller");
            } else {
                assert_eq!(t, 1);
                started.store(true, SeqCst);
                // Linger: the caller is unwinding by now.
                for _ in 0..2_000 {
                    thread::yield_now();
                    capture.touch();
                }
                finished.store(true, SeqCst);
                assert!(panicking_worker != "helper", "deliberate: helper");
            }
            t
        })
    }));
    let finished = helper_finished.load(SeqCst);
    let payload = outcome.expect_err("the task panic must reach the caller");
    let message = match payload.downcast_ref::<&str>() {
        Some(literal) => (*literal).to_owned(),
        None => payload.downcast_ref::<String>().cloned().unwrap_or_default(),
    };
    assert!(gone.load(SeqCst), "run_tasks drops the closure it was given");
    (0..2_000).for_each(|_| thread::yield_now());
    assert_eq!(late.load(SeqCst), 0, "a helper ran the closure after run_tasks gave it up");
    let (results, _) = run_tasks(2, 100, |i| i * 3);
    assert_eq!(results, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "the pool survives a panic");
    (message, finished)
}

#[test]
fn a_panic_on_a_helper_reaches_the_caller_and_leaves_the_pool_usable() {
    let _alone = alone();
    let (message, helper_finished) = panic_on("helper");
    assert!(message.contains("deliberate: helper"), "payload kept: {message:?}");
    assert!(helper_finished);
}

#[test]
fn a_panic_on_the_callers_own_share_waits_for_the_helper_before_unwinding() {
    let _alone = alone();
    let (message, helper_finished) = panic_on("caller");
    assert!(message.contains("deliberate: caller"), "payload kept: {message:?}");
    assert!(helper_finished, "run_tasks unwound while a helper was inside the closure");
}

/// Threads of this process named like the pool's helpers.
#[cfg(target_os = "linux")]
fn helper_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let comm = |task: &std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm"));
    tasks.flatten().filter(|t| comm(t).is_ok_and(|c| c.trim_end() == "els-exec-helper")).count()
}

#[test]
#[cfg(target_os = "linux")]
fn back_to_back_calls_reuse_the_parked_helpers() {
    let _alone = alone();
    let expected: Vec<usize> = (0..16).collect();
    assert_eq!(run_tasks(3, 16, |i| i).0, expected);
    wait_until("two named helpers", || helper_threads() >= 2);
    let before = helper_threads();
    for call in 0..10_000 {
        let (results, _) = run_tasks(2 + call % 2, 16, |i| i);
        assert_eq!(results, expected, "call {call}");
    }
    assert_eq!(helper_threads(), before, "10 000 calls on a warm pool spawn nothing");
}

#[test]
fn concurrent_and_nested_calls_return_task_ordered_results_without_deadlock() {
    let _alone = alone();
    // Eight callers at once: one gets the pool, the others run inline, and
    // which is which changes from call to call. Tasks are long enough for
    // the helper to wake up and take its seat, so callers keep arriving
    // while another one is waiting for the helper to leave its job — a
    // caller that mistakes the next job's helper for its own waits for a
    // wake-up that goes to somebody else. Detached threads and a deadline:
    // a deadlock fails the test instead of hanging it.
    let (barrier, done) = (Arc::new(Barrier::new(8)), Arc::new(AtomicUsize::new(0)));
    for k in 0..8usize {
        let (barrier, done) = (Arc::clone(&barrier), Arc::clone(&done));
        thread::spawn(move || {
            barrier.wait();
            for call in 0..1_500 {
                let (results, _) = run_tasks(2, 16, |i| {
                    (0..2_000).fold(i * 8 + k, |acc, _| std::hint::black_box(acc))
                });
                let expected: Vec<usize> = (0..16).map(|i| i * 8 + k).collect();
                assert_eq!(results, expected, "thread {k}, call {call}");
            }
            done.fetch_add(1, SeqCst);
        });
    }
    wait_until("all eight callers returning", || done.load(SeqCst) == 8);
    // A task that goes parallel itself finds the pool busy with its parent.
    let (nested, stats) = run_tasks(2, 8, |i| run_tasks(2, 8, |j| i * 8 + j));
    for (i, (inner, inner_stats)) in nested.iter().enumerate() {
        assert_eq!(*inner, (0..8).map(|j| i * 8 + j).collect::<Vec<_>>(), "outer task {i}");
        assert_eq!(inner_stats.steals, 0, "an inline run steals nothing");
    }
    assert!(stats.steals <= 8);
}
