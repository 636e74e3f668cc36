//! Integration tests for the `els_lock_audit` runtime shim: the dynamic
//! half of the lock-order story (els-lint's `lock-order` pass is the
//! static half). Compiled only when the feature is on — which the
//! workspace root's dev-dependencies arrange for every full `cargo test`
//! run.
#![cfg(feature = "els_lock_audit")]

use els_core::sync::{audit, lock_recovering, LOCK_ORDER};
use std::sync::Mutex;

#[test]
fn in_order_acquisition_succeeds_and_tracks_held_ranks() {
    assert_eq!(audit::held_ranks(), Vec::<usize>::new());
    let outer = audit::enter_class(LOCK_ORDER[0]);
    let inner = audit::enter_class(LOCK_ORDER[2]);
    assert_eq!(audit::held_ranks(), vec![0, 2]);
    drop(inner);
    drop(outer);
    assert_eq!(audit::held_ranks(), Vec::<usize>::new());
}

#[test]
fn out_of_order_acquisition_panics() {
    // The held stack is thread-local, so run the violation on its own
    // thread and observe the panic through the join handle.
    let result = std::thread::spawn(|| {
        let _inner = audit::enter_class(LOCK_ORDER[LOCK_ORDER.len() - 1]);
        let _outer = audit::enter_class(LOCK_ORDER[0]); // backwards: must panic
    })
    .join();
    let panic = result.expect_err("backwards acquisition must panic");
    let msg = panic.downcast_ref::<String>().expect("panic carries a message");
    assert!(msg.contains("lock-order violation"), "unexpected message: {msg}");
    assert!(msg.contains(LOCK_ORDER[0]), "message should name the class: {msg}");
}

#[test]
fn reentrant_acquisition_of_the_same_class_panics() {
    let result = std::thread::spawn(|| {
        let _a = audit::enter_class(LOCK_ORDER[1]);
        let _b = audit::enter_class(LOCK_ORDER[1]); // equal rank: not strictly increasing
    })
    .join();
    assert!(result.is_err(), "re-entrant acquisition must panic");
}

#[test]
fn dropping_a_token_releases_its_rank_out_of_stack_order() {
    let a = audit::enter_class(LOCK_ORDER[0]);
    let b = audit::enter_class(LOCK_ORDER[1]);
    drop(a); // released before the inner guard — legal with RAII guards
    assert_eq!(audit::held_ranks(), vec![1]);
    // With rank 0 released, acquiring it again while holding rank 1 is
    // still a violation (1 is not < 0).
    drop(b);
    assert_eq!(audit::held_ranks(), Vec::<usize>::new());
}

#[test]
fn locks_acquired_from_unranked_files_are_not_audited() {
    // This file's stem (`lock_audit`) names no LOCK_ORDER class, so the
    // recovering helpers hand out rank-None tokens: acquisitions from
    // tests and tools never trip the audit, whatever their order.
    let (m1, m2) = (Mutex::new(1u32), Mutex::new(2u32));
    let g2 = lock_recovering(&m2);
    let g1 = lock_recovering(&m1); // any order is fine: unranked
    assert_eq!(*g1 + *g2, 3);
    assert_eq!(audit::held_ranks(), Vec::<usize>::new());
}

#[test]
fn acquisitions_are_counted_per_thread_by_class() {
    let count = |class: &str| {
        audit::acquisitions().into_iter().find(|(c, _)| *c == class).map_or(0, |(_, n)| n)
    };
    let before = count(LOCK_ORDER[1]);
    drop(audit::enter_class(LOCK_ORDER[1]));
    drop(audit::enter_class(LOCK_ORDER[1]));
    drop(audit::enter_class("no_such.class"));
    assert_eq!(count(LOCK_ORDER[1]), before + 2);
    // Another thread's acquisitions are its own.
    std::thread::spawn(|| drop(audit::enter_class(LOCK_ORDER[1]))).join().unwrap();
    assert_eq!(count(LOCK_ORDER[1]), before + 2);
    assert_eq!(audit::acquisitions().len(), LOCK_ORDER.len());
}

#[test]
fn unknown_class_names_get_no_rank() {
    let t = audit::enter_class("no_such.class");
    assert_eq!(audit::held_ranks(), Vec::<usize>::new());
    drop(t);
}
