//! The engine's single poisoned-lock policy: **recover** — plus the
//! committed lock-acquisition total order and its runtime audit.
//!
//! Every shared structure in the engine guarded by a `Mutex`/`RwLock` —
//! the plan cache, the metrics registry, the feedback store, the shared
//! catalog — maintains its invariants at every point a panic can unwind
//! through (plain counters, maps, and copy-on-write snapshots; no
//! multi-step states held across calls into user code). Poisoning
//! therefore adds no safety and subtracts a lot of availability: one
//! panicking worker thread would cascade `PoisonError`s into every other
//! thread touching the engine. These helpers centralize the decision to
//! take the guard anyway, so the policy is written (and lintable) in
//! exactly one place instead of being re-decided at each `lock()` site.
//!
//! If a structure ever *does* need partial-update protection, it should
//! not reach for poisoning — it should keep a generation counter or build
//! the new state off to the side and swap it in, as `SharedCatalog` does.
//!
//! # Lock order
//!
//! [`LOCK_ORDER`] is the engine-wide total order over lock *classes* (one
//! class per guarded field, named `<file stem>.<field>`). Two enforcement
//! layers keep it honest:
//!
//! * **Statically**, els-lint's `lock-order` pass extracts every
//!   `lock_recovering`/`read_recovering`/`write_recovering` call site,
//!   builds the inter-procedural held-while-acquiring graph over the
//!   workspace call graph, and hard-fails if any edge runs backwards in
//!   this list (a cycle can never be consistent with a total order).
//! * **Dynamically**, the `els_lock_audit` cargo feature (enabled for
//!   every `cargo test` run via the workspace root's dev-dependencies)
//!   wraps each guard in an [`Audited`] token that pushes the acquiring
//!   class's rank onto a thread-local stack and panics the moment any
//!   thread acquires a class out of order — covering the closures and
//!   trait objects the static pass cannot see through.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// The committed total order of engine lock classes, outermost first. A
/// class is `<file stem>.<field>`; the acquiring module and the field the
/// guard protects name it unambiguously (today every guarded field is
/// acquired only from its defining file — els-lint's `lock-order` pass
/// keeps that true).
///
/// Rationale for the order: catalog publication (`shared.state`) is the
/// outermost state transition and may run caller closures under
/// `SharedCatalog::update`; the plan cache and admission queue are
/// mid-level control structures, and a plan-cache stripe's text slots sit
/// inside the cache's state because an entry's slots are removed while
/// that state is held; the metrics and feedback maps are leaf
/// counters that never call out while held; the scheduler's pool state and
/// result slots are innermost, held for a handful of field updates and
/// never across a task.
pub const LOCK_ORDER: &[&str] = &[
    "shared.state",
    "plan_cache.state",
    "stripe.slots",
    "admission.state",
    "metrics.qerr",
    "feedback.entries",
    "scheduler.state",
];

/// Guard type returned by [`lock_recovering`]: the plain `MutexGuard` in
/// production builds, an [`Audited`] wrapper under `els_lock_audit`.
#[cfg(not(feature = "els_lock_audit"))]
pub type LockGuard<'a, T> = MutexGuard<'a, T>;
/// Guard type returned by [`lock_recovering`] under the audit feature.
#[cfg(feature = "els_lock_audit")]
pub type LockGuard<'a, T> = Audited<MutexGuard<'a, T>>;

/// Guard type returned by [`read_recovering`].
#[cfg(not(feature = "els_lock_audit"))]
pub type ReadGuard<'a, T> = RwLockReadGuard<'a, T>;
/// Guard type returned by [`read_recovering`] under the audit feature.
#[cfg(feature = "els_lock_audit")]
pub type ReadGuard<'a, T> = Audited<RwLockReadGuard<'a, T>>;

/// Guard type returned by [`write_recovering`].
#[cfg(not(feature = "els_lock_audit"))]
pub type WriteGuard<'a, T> = RwLockWriteGuard<'a, T>;
/// Guard type returned by [`write_recovering`] under the audit feature.
#[cfg(feature = "els_lock_audit")]
pub type WriteGuard<'a, T> = Audited<RwLockWriteGuard<'a, T>>;

/// Lock a mutex, recovering the guard if a previous holder panicked.
#[cfg(not(feature = "els_lock_audit"))]
pub fn lock_recovering<T: ?Sized>(mutex: &Mutex<T>) -> LockGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lock a mutex, recovering the guard if a previous holder panicked. The
/// audit build additionally asserts the [`LOCK_ORDER`] rank discipline
/// *before* blocking, so an out-of-order acquisition panics instead of
/// deadlocking.
#[cfg(feature = "els_lock_audit")]
#[track_caller]
pub fn lock_recovering<T: ?Sized>(mutex: &Mutex<T>) -> LockGuard<'_, T> {
    let token = audit::enter(std::panic::Location::caller().file());
    Audited { inner: mutex.lock().unwrap_or_else(PoisonError::into_inner), token }
}

/// Take a read lock, recovering the guard if a writer panicked.
#[cfg(not(feature = "els_lock_audit"))]
pub fn read_recovering<T: ?Sized>(lock: &RwLock<T>) -> ReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Take a read lock, recovering the guard if a writer panicked (audited).
#[cfg(feature = "els_lock_audit")]
#[track_caller]
pub fn read_recovering<T: ?Sized>(lock: &RwLock<T>) -> ReadGuard<'_, T> {
    let token = audit::enter(std::panic::Location::caller().file());
    Audited { inner: lock.read().unwrap_or_else(PoisonError::into_inner), token }
}

/// Take a write lock, recovering the guard if a previous holder panicked.
#[cfg(not(feature = "els_lock_audit"))]
pub fn write_recovering<T: ?Sized>(lock: &RwLock<T>) -> WriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Take a write lock, recovering the guard if a previous holder panicked
/// (audited).
#[cfg(feature = "els_lock_audit")]
#[track_caller]
pub fn write_recovering<T: ?Sized>(lock: &RwLock<T>) -> WriteGuard<'_, T> {
    let token = audit::enter(std::panic::Location::caller().file());
    Audited { inner: lock.write().unwrap_or_else(PoisonError::into_inner), token }
}

/// Wait on a condvar, recovering the reacquired guard if a holder panicked
/// during the wait. With [`wait_timeout_recovering`], the one legal way to
/// pass a recovered guard to a `Condvar` — it keeps the poison policy
/// centralized here and lets the audit build release/reacquire the guard's
/// rank around the wait.
#[cfg(not(feature = "els_lock_audit"))]
pub fn wait_recovering<'a, T>(cv: &Condvar, guard: LockGuard<'a, T>) -> LockGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Wait on a condvar, recovering the reacquired guard if a holder panicked
/// during the wait (audited: the rank is released for the duration of the
/// wait, exactly like the OS lock).
#[cfg(feature = "els_lock_audit")]
pub fn wait_recovering<'a, T>(cv: &Condvar, guard: LockGuard<'a, T>) -> LockGuard<'a, T> {
    let wait = |inner| (cv.wait(inner).unwrap_or_else(PoisonError::into_inner), ());
    guard.around_wait(wait).0
}

/// [`wait_recovering`] with a timeout: returns the guard and whether the
/// wait timed out.
#[cfg(not(feature = "els_lock_audit"))]
pub fn wait_timeout_recovering<'a, T>(
    cv: &Condvar,
    guard: LockGuard<'a, T>,
    timeout: std::time::Duration,
) -> (LockGuard<'a, T>, bool) {
    let (guard, wait) = cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner);
    (guard, wait.timed_out())
}

/// Wait on a condvar with a timeout, recovering the reacquired guard if a
/// holder panicked during the wait (audited: the rank is released for the
/// duration of the wait, exactly like the OS lock).
#[cfg(feature = "els_lock_audit")]
pub fn wait_timeout_recovering<'a, T>(
    cv: &Condvar,
    guard: LockGuard<'a, T>,
    timeout: std::time::Duration,
) -> (LockGuard<'a, T>, bool) {
    let wait = |inner| cv.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
    let (guard, wait) = guard.around_wait(wait);
    (guard, wait.timed_out())
}

/// A guard carrying its lock-order audit token. Derefs straight through to
/// the guarded data; the declaration order (guard first, token second)
/// releases the OS lock before the rank, keeping the audit stack an upper
/// bound on what is really held.
#[cfg(feature = "els_lock_audit")]
pub struct Audited<G> {
    inner: G,
    token: audit::Token,
}

#[cfg(feature = "els_lock_audit")]
impl<G> Audited<G> {
    /// Hand the OS guard to a condvar `wait`, which releases the lock: the
    /// rank is released with it and re-entered (order asserted) once the
    /// wait has the lock back.
    fn around_wait<R>(self, wait: impl FnOnce(G) -> (G, R)) -> (Audited<G>, R) {
        let Audited { inner, token } = self;
        let rank = token.rank();
        drop(token);
        let (inner, out) = wait(inner);
        (Audited { inner, token: audit::enter_rank(rank) }, out)
    }
}

#[cfg(feature = "els_lock_audit")]
impl<G: std::ops::Deref> std::ops::Deref for Audited<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

#[cfg(feature = "els_lock_audit")]
impl<G: std::ops::DerefMut> std::ops::DerefMut for Audited<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// The runtime lock-order audit: a thread-local stack of held
/// [`LOCK_ORDER`] ranks, asserted strictly increasing at every
/// acquisition. Compiled only under the `els_lock_audit` feature, which
/// the workspace root's dev-dependencies enable for every `cargo test`
/// run — release builds carry none of this.
#[cfg(feature = "els_lock_audit")]
pub mod audit {
    use std::cell::{Cell, RefCell};

    use super::LOCK_ORDER;

    thread_local! {
        static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
        /// Acquisitions so far on this thread, by rank.
        static ACQUIRED: Cell<[u64; LOCK_ORDER.len()]> =
            const { Cell::new([0; LOCK_ORDER.len()]) };
    }

    /// How many times this thread has acquired each class so far, in
    /// [`LOCK_ORDER`] order (test hook: compare two readings around a call
    /// to see which locks it takes).
    pub fn acquisitions() -> Vec<(&'static str, u64)> {
        let counts = ACQUIRED.with(Cell::get);
        LOCK_ORDER.iter().copied().zip(counts).collect()
    }

    /// RAII token for one audited acquisition; dropping it releases the
    /// rank from the thread's held stack.
    pub struct Token {
        rank: Option<usize>,
    }

    impl Token {
        /// The [`LOCK_ORDER`] rank this token holds (`None` for locks
        /// acquired from files outside the order, e.g. tests).
        pub fn rank(&self) -> Option<usize> {
            self.rank
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            let Some(rank) = self.rank else { return };
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                // Guards may drop out of stack order (e.g. `drop(a)` before
                // `b` goes away), so remove one matching instance, not the
                // top.
                if let Some(i) = held.iter().rposition(|&r| r == rank) {
                    held.remove(i);
                }
            });
        }
    }

    /// Rank of the lock class acquired from `file` (a
    /// `std::panic::Location` path), via the `<file stem>.<field>` class
    /// naming: every class's stem is the file that owns the field.
    /// Unknown files — tests, examples — get no rank and are not audited.
    fn rank_of_file(file: &str) -> Option<usize> {
        let stem = file.rsplit(['/', '\\']).next()?.strip_suffix(".rs")?;
        LOCK_ORDER.iter().position(|class| {
            class.split_once('.').is_some_and(|(class_stem, _)| class_stem == stem)
        })
    }

    /// Record an acquisition from `file`, asserting every already-held
    /// rank is strictly lower. Called *before* blocking on the lock, so an
    /// order violation panics with a diagnostic instead of deadlocking.
    pub fn enter(file: &str) -> Token {
        enter_rank(rank_of_file(file))
    }

    /// Record an acquisition of a known rank (the condvar reacquire path,
    /// and the direct test hook).
    pub fn enter_rank(rank: Option<usize>) -> Token {
        if let Some(rank) = rank {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                for &r in held.iter() {
                    // els-lint: allow(assert-ban, "panicking on an order violation is the audit's job: a diagnostic instead of a deadlock")
                    assert!(
                        r < rank,
                        "lock-order violation: acquiring `{}` (rank {rank}) while holding \
                         `{}` (rank {r}); els_core::sync::LOCK_ORDER requires strictly \
                         increasing ranks",
                        LOCK_ORDER.get(rank).copied().unwrap_or("?"),
                        LOCK_ORDER.get(r).copied().unwrap_or("?"),
                    );
                }
                held.push(rank);
            });
            ACQUIRED.with(|acquired| {
                let mut counts = acquired.get();
                if let Some(n) = counts.get_mut(rank) {
                    *n += 1;
                }
                acquired.set(counts);
            });
        }
        Token { rank }
    }

    /// Acquire an audit token for `class` directly — the test hook for
    /// exercising the order assertion without real engine locks.
    pub fn enter_class(class: &str) -> Token {
        enter_rank(LOCK_ORDER.iter().position(|c| *c == class))
    }

    /// The ranks the current thread holds, innermost last (test hook).
    pub fn held_ranks() -> Vec<usize> {
        HELD.with(|held| held.borrow().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn poison<T: Send + Sync + 'static>(m: &Arc<Mutex<T>>) {
        let m2 = Arc::clone(m);
        let res = std::thread::spawn(move || {
            let _guard = m2.lock().expect("first holder");
            panic!("deliberate: poison the mutex");
        })
        .join();
        assert!(res.is_err(), "worker should have panicked");
    }

    #[test]
    fn poisoned_mutex_recovers_with_data_intact() {
        let m = Arc::new(Mutex::new(41));
        poison(&m);
        assert!(m.is_poisoned());
        *lock_recovering(&m) += 1;
        assert_eq!(*lock_recovering(&m), 42);
    }

    #[test]
    fn poisoned_rwlock_recovers_for_readers_and_writers() {
        let l = Arc::new(RwLock::new(vec![1, 2, 3]));
        let l2 = Arc::clone(&l);
        let res = std::thread::spawn(move || {
            let _guard = l2.write().expect("first writer");
            panic!("deliberate: poison the rwlock");
        })
        .join();
        assert!(res.is_err());
        assert_eq!(read_recovering(&l).len(), 3);
        write_recovering(&l).push(4);
        assert_eq!(*read_recovering(&l), vec![1, 2, 3, 4]);
    }

    #[test]
    fn wait_timeout_recovering_times_out_and_returns_the_guard() {
        let m = Mutex::new(7);
        let cv = std::sync::Condvar::new();
        let guard = lock_recovering(&m);
        let (guard, timed_out) =
            wait_timeout_recovering(&cv, guard, std::time::Duration::from_millis(1));
        assert!(timed_out);
        assert_eq!(*guard, 7);
    }

    #[test]
    fn wait_recovering_returns_the_guard_once_notified() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let notifier = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            *lock_recovering(&notifier.0) = true;
            notifier.1.notify_one();
        });
        let mut ready = lock_recovering(&shared.0);
        while !*ready {
            ready = wait_recovering(&shared.1, ready);
        }
        assert!(*ready);
        drop(ready);
        handle.join().expect("notifier");
    }

    #[test]
    fn lock_order_is_well_formed() {
        // Classes are `<stem>.<field>`, unique, with unique stems (the
        // runtime audit resolves ranks by file stem).
        let mut stems: Vec<&str> = Vec::new();
        for class in LOCK_ORDER {
            let (stem, field) = class.split_once('.').expect("class must be stem.field");
            assert!(!stem.is_empty() && !field.is_empty(), "malformed class {class}");
            assert!(!stems.contains(&stem), "duplicate stem {stem}");
            stems.push(stem);
        }
    }
}
