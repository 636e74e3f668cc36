//! The engine's single poisoned-lock policy: **recover** — plus the list
//! of engine lock classes and the runtime audit of how they nest.
//!
//! Every shared structure in the engine guarded by a `Mutex`/`RwLock` —
//! the plan cache, the feedback store, the shared catalog — maintains its
//! invariants at every point a panic can unwind through (plain counters,
//! maps, and copy-on-write snapshots; no multi-step states held across
//! calls into user code). Poisoning
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
//! # Lock nesting
//!
//! [`LOCK_CLASSES`] names every engine lock, one class per guarded field,
//! `<file stem>.<field>`; els-lint's `lock-confinement` rule keeps every
//! lock and every acquisition inside the file its class names. The rule
//! is that a thread holds **at most one engine lock**, with one exception:
//! [`NESTED_PAIR`], the plan cache's state and then a stripe's text slots.
//! A deadlock needs a thread that waits while it holds, and here only a
//! holder of the pair's outer class may wait, for its inner class, whose
//! holders wait for nothing.
//!
//! Under the `els_lock_audit` cargo feature each guard carries an
//! [`Audited`] token, and [`audit`] panics *before blocking* on any
//! acquisition the rule forbids, naming both classes. Every crate whose
//! tests take an engine lock, and els-core itself, turns the feature on in
//! its dev-dependencies, so it is on for every `cargo test` and off in
//! release builds.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// The engine's lock classes, in no particular order. A class is
/// `<file stem>.<field>`: the file that owns and acquires the lock, and the
/// field it guards.
pub const LOCK_CLASSES: &[&str] = &[
    "shared.state",
    "plan_cache.state",
    "stripe.slots",
    "admission.state",
    "feedback.entries",
    "scheduler.state",
];

/// The one permitted nesting, `(held, acquired)`: the plan cache keeps
/// and drops an entry's text slots in a stripe while it holds its state,
/// so a slot never outlives its entry.
pub const NESTED_PAIR: (&str, &str) = ("plan_cache.state", "stripe.slots");

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
/// audit build additionally checks the nesting rule *before* blocking, so
/// a forbidden acquisition panics instead of deadlocking.
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

/// A guard carrying its lock audit token. Derefs straight through to
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
    /// rank is released with it and re-entered (nesting checked) once the
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

/// The runtime lock audit: a thread-local stack of held classes, checked
/// against the nesting rule at every acquisition, and a per-class count of
/// acquisitions. Compiled only under the `els_lock_audit` feature — release
/// builds carry none of this.
#[cfg(feature = "els_lock_audit")]
pub mod audit {
    use std::cell::{Cell, RefCell};
    use std::hash::{DefaultHasher, Hash, Hasher};

    use super::{LOCK_CLASSES, NESTED_PAIR};

    /// One audited acquisition in this many yields the thread before it
    /// blocks, so concurrent tests interleave differently on every run.
    const YIELD_ONE_IN: u64 = 4;

    thread_local! {
        static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
        /// Acquisitions so far on this thread, by rank.
        static ACQUIRED: Cell<[u64; LOCK_CLASSES.len()]> =
            const { Cell::new([0; LOCK_CLASSES.len()]) };
        /// The yield coin's xorshift64 state, seeded from the thread id.
        static COIN: Cell<u64> = Cell::new(coin_seed());
    }

    /// How many times this thread has acquired each class so far, in
    /// [`LOCK_CLASSES`] order (test hook: compare two readings around a call
    /// to see which locks it takes).
    pub fn acquisitions() -> Vec<(&'static str, u64)> {
        let counts = ACQUIRED.with(Cell::get);
        LOCK_CLASSES.iter().copied().zip(counts).collect()
    }

    /// RAII token for one audited acquisition; dropping it releases the
    /// rank from the thread's held stack.
    pub struct Token {
        rank: Option<usize>,
    }

    impl Token {
        /// The rank (index into [`LOCK_CLASSES`]) this token holds (`None`
        /// for locks acquired from files that own no class, e.g. tests).
        pub(crate) fn rank(&self) -> Option<usize> {
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
        LOCK_CLASSES.iter().position(|class| {
            class.split_once('.').is_some_and(|(class_stem, _)| class_stem == stem)
        })
    }

    fn class(rank: usize) -> &'static str {
        LOCK_CLASSES.get(rank).copied().unwrap_or("?")
    }

    fn coin_seed() -> u64 {
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        hasher.finish() | 1
    }

    /// One xorshift64 step of this thread's coin: true once in
    /// [`YIELD_ONE_IN`] draws.
    fn coin() -> bool {
        COIN.with(|state| {
            let mut x = state.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            state.set(x);
            x % YIELD_ONE_IN == 0
        })
    }

    /// Record an acquisition from `file`, checking the nesting rule, and
    /// sometimes yield. Called *before* blocking on the lock, so a
    /// forbidden nesting panics with a diagnostic instead of deadlocking.
    pub(crate) fn enter(file: &str) -> Token {
        let token = enter_rank(rank_of_file(file));
        if coin() {
            std::thread::yield_now();
        }
        token
    }

    /// Record an acquisition of a known rank (the condvar reacquire path,
    /// and the direct test hook): the thread must hold no engine lock, or
    /// hold exactly [`NESTED_PAIR`]'s first class and acquire its second.
    pub(crate) fn enter_rank(rank: Option<usize>) -> Token {
        if let Some(rank) = rank {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                let allowed = match held.as_slice() {
                    [] => true,
                    [outer] => (class(*outer), class(rank)) == NESTED_PAIR,
                    _ => false,
                };
                // els-lint: allow(assert-ban, "panicking on a forbidden nesting is the audit's job: a diagnostic instead of a deadlock")
                assert!(
                    allowed,
                    "lock-nesting violation: acquiring `{}` while holding `{}`; a thread \
                     holds one engine lock at a time, plus els_core::sync::NESTED_PAIR \
                     {NESTED_PAIR:?}",
                    class(rank),
                    held.iter().map(|&r| class(r)).collect::<Vec<_>>().join("`, `"),
                );
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
    /// exercising the nesting rule without real engine locks.
    pub fn enter_class(class: &str) -> Token {
        enter_rank(LOCK_CLASSES.iter().position(|c| *c == class))
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
    fn lock_classes_are_well_formed() {
        // Classes are `<stem>.<field>`, unique, with unique stems (the
        // runtime audit resolves ranks by file stem), and the nested pair
        // names two of them.
        assert!(LOCK_CLASSES.contains(&NESTED_PAIR.0) && LOCK_CLASSES.contains(&NESTED_PAIR.1));
        let mut stems: Vec<&str> = Vec::new();
        for class in LOCK_CLASSES {
            let (stem, field) = class.split_once('.').expect("class must be stem.field");
            assert!(!stem.is_empty() && !field.is_empty(), "malformed class {class}");
            assert!(!stems.contains(&stem), "duplicate stem {stem}");
            stems.push(stem);
        }
    }
}
