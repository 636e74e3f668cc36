//! Integration tests for the `els_lock_audit` runtime shim, the one check
//! of how engine locks nest: a thread holds at most one engine lock, plus
//! `NESTED_PAIR`. Compiled only when the feature is on — which els-core's
//! own dev-dependencies arrange for every `cargo test` run.
#![cfg(feature = "els_lock_audit")]

use els_core::sync::{audit, lock_recovering, LOCK_CLASSES, NESTED_PAIR};
use std::sync::Mutex;

/// Rank (index into `LOCK_CLASSES`) of `class`.
fn rank(class: &str) -> usize {
    LOCK_CLASSES.iter().position(|c| *c == class).expect("a lock class")
}

/// Run `f` on its own thread (the held stack is thread-local) and return
/// the message it panicked with.
fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
    let panic = std::thread::spawn(f).join().expect_err("the acquisition must panic");
    panic.downcast_ref::<String>().expect("panic carries a message").clone()
}

#[test]
fn the_declared_pair_succeeds_and_tracks_held_ranks() {
    assert_eq!(audit::held_ranks(), Vec::<usize>::new());
    let outer = audit::enter_class(NESTED_PAIR.0);
    let inner = audit::enter_class(NESTED_PAIR.1);
    assert_eq!(audit::held_ranks(), vec![rank(NESTED_PAIR.0), rank(NESTED_PAIR.1)]);
    drop(inner);
    drop(outer);
    assert_eq!(audit::held_ranks(), Vec::<usize>::new());
}

#[test]
fn a_nesting_outside_the_pair_panics_and_names_both_classes() {
    // `shared.state` then `feedback.entries` ran forward in the old total
    // order; the one-lock rule rejects it.
    let msg = panic_message(|| {
        let _held = audit::enter_class("shared.state");
        let _acquired = audit::enter_class("feedback.entries");
    });
    assert!(msg.contains("lock-nesting violation"), "unexpected message: {msg}");
    assert!(msg.contains("shared.state") && msg.contains("feedback.entries"), "{msg}");
}

#[test]
fn the_reversed_pair_panics() {
    let msg = panic_message(|| {
        let _inner = audit::enter_class(NESTED_PAIR.1);
        let _outer = audit::enter_class(NESTED_PAIR.0);
    });
    assert!(msg.contains(NESTED_PAIR.0) && msg.contains(NESTED_PAIR.1), "{msg}");
}

#[test]
fn a_third_lock_under_the_pair_panics() {
    let msg = panic_message(|| {
        let _outer = audit::enter_class(NESTED_PAIR.0);
        let _inner = audit::enter_class(NESTED_PAIR.1);
        let _third = audit::enter_class("scheduler.state");
    });
    assert!(msg.contains("scheduler.state"), "{msg}");
}

#[test]
fn reentrant_acquisition_of_the_same_class_panics() {
    let msg = panic_message(|| {
        let _a = audit::enter_class(NESTED_PAIR.0);
        let _b = audit::enter_class(NESTED_PAIR.0);
    });
    assert!(msg.contains(NESTED_PAIR.0), "{msg}");
}

#[test]
fn dropping_a_token_releases_its_rank_out_of_stack_order() {
    let outer = audit::enter_class(NESTED_PAIR.0);
    let inner = audit::enter_class(NESTED_PAIR.1);
    drop(outer); // released before the inner guard — legal with RAII guards
    assert_eq!(audit::held_ranks(), vec![rank(NESTED_PAIR.1)]);
    drop(inner);
    assert_eq!(audit::held_ranks(), Vec::<usize>::new());
    // Nothing is held any more, so any one class may be taken.
    drop(audit::enter_class("scheduler.state"));
}

#[test]
fn locks_acquired_from_unranked_files_are_not_audited() {
    // This file's stem (`lock_audit`) names no lock class, so the
    // recovering helpers hand out rank-None tokens: acquisitions from
    // tests and tools never trip the audit, however they nest.
    let (m1, m2) = (Mutex::new(1u32), Mutex::new(2u32));
    let _engine = audit::enter_class("shared.state");
    let g2 = lock_recovering(&m2);
    let g1 = lock_recovering(&m1);
    assert_eq!(*g1 + *g2, 3);
    assert_eq!(audit::held_ranks(), vec![rank("shared.state")]);
}

#[test]
fn acquisitions_are_counted_per_thread_by_class() {
    let count = |class: &str| {
        audit::acquisitions().into_iter().find(|(c, _)| *c == class).map_or(0, |(_, n)| n)
    };
    let before = count(LOCK_CLASSES[1]);
    drop(audit::enter_class(LOCK_CLASSES[1]));
    drop(audit::enter_class(LOCK_CLASSES[1]));
    drop(audit::enter_class("no_such.class"));
    assert_eq!(count(LOCK_CLASSES[1]), before + 2);
    // Another thread's acquisitions are its own.
    std::thread::spawn(|| drop(audit::enter_class(LOCK_CLASSES[1]))).join().unwrap();
    assert_eq!(count(LOCK_CLASSES[1]), before + 2);
    assert_eq!(audit::acquisitions().len(), LOCK_CLASSES.len());
}

#[test]
fn unknown_class_names_get_no_rank() {
    let t = audit::enter_class("no_such.class");
    assert_eq!(audit::held_ranks(), Vec::<usize>::new());
    drop(t);
}
