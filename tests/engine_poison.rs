//! A panicking worker thread must not take the shared [`Engine`] down with
//! it. The engine's internal locks (catalog state, plan cache, feedback
//! store, metrics) all go through `els_core::sync::lock_recovering`, whose
//! policy is *recover*: a poisoned lock yields its inner data instead of
//! cascading the panic into every other thread. This test drives that
//! policy end to end — one worker warms the shared state and dies, and the
//! engine keeps answering with the same results and a live plan cache.

use std::sync::Arc;
use std::thread;

use els::engine::Engine;
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};

const QUERY: &str = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.f < 50";

fn shared_engine() -> Arc<Engine> {
    let engine = Engine::new();
    engine
        .generate(
            TableSpec::new("a", 1000)
                .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
                .column(ColumnSpec::new("f", Distribution::UniformInt { lo: 0, hi: 99 })),
            7,
        )
        .unwrap();
    engine
        .generate(
            TableSpec::new("b", 500)
                .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
            8,
        )
        .unwrap();
    Arc::new(engine)
}

#[test]
fn caught_worker_panic_leaves_engine_usable() {
    let engine = shared_engine();
    let baseline = engine.execute(QUERY).unwrap().count;

    // The worker exercises the shared catalog and plan cache, then panics
    // mid-flight like a buggy thread would.
    let worker = {
        let engine = Arc::clone(&engine);
        thread::spawn(move || {
            let count = engine.execute(QUERY).unwrap().count;
            assert!(count > 0);
            panic!("injected worker bug");
        })
    };
    assert!(worker.join().is_err(), "worker must have panicked");

    // The engine keeps serving from the other side of the panic: identical
    // results, and the plan the dead worker cached is still reusable.
    let after = engine.execute(QUERY).unwrap();
    assert_eq!(after.count, baseline);
    assert!(after.cache_hit, "plan cached before the panic must survive it");

    // Registering new tables (a catalog write) also still works.
    engine
        .generate(
            TableSpec::new("c", 100)
                .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
            9,
        )
        .unwrap();
    let joined = engine.execute("SELECT COUNT(*) FROM a, c WHERE a.k = c.k").unwrap();
    assert_eq!(joined.count, 100);
}

#[test]
fn panics_in_many_workers_do_not_cascade() {
    let engine = shared_engine();
    let expected = engine.execute(QUERY).unwrap().count;

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                for _ in 0..5 {
                    assert_eq!(engine.execute(QUERY).unwrap().count, expected);
                }
                if i % 2 == 0 {
                    panic!("injected worker bug {i}");
                }
            })
        })
        .collect();

    let panicked = handles.into_iter().map(|h| h.join().is_err()).filter(|&p| p).count();
    assert_eq!(panicked, 2);
    assert_eq!(engine.execute(QUERY).unwrap().count, expected);
}
