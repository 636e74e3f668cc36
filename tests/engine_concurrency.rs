//! Concurrency and plan-cache semantics of the shared [`els::engine::Engine`]:
//! many threads over one engine must produce exactly the serial results, the
//! catalog epoch must fence off stale plans, and cache hits must skip join
//! enumeration.
//!
//! The enumeration counter (`els_exec::metrics::enumerations`) is
//! process-wide, so every test here serializes on [`GUARD`] — otherwise a
//! concurrently running test's optimizations would pollute the deltas.

use std::sync::Mutex;

use els::catalog::FeedbackMode;
use els::engine::{Engine, EngineError};
use els::exec::metrics::enumerations;
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};

static GUARD: Mutex<()> = Mutex::new(());

/// A small three-table engine: joins take microseconds, so the stress test
/// stays fast even in debug builds.
fn small_engine() -> Engine {
    let engine = Engine::new();
    engine
        .generate(
            TableSpec::new("a", 1000)
                .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
                .column(ColumnSpec::new("f", Distribution::UniformInt { lo: 0, hi: 99 })),
            1,
        )
        .unwrap();
    engine
        .generate(
            TableSpec::new("b", 500)
                .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
            2,
        )
        .unwrap();
    engine
        .generate(
            TableSpec::new("c", 200)
                .column(ColumnSpec::new("k", Distribution::CycleInt { modulus: 50, start: 0 })),
            3,
        )
        .unwrap();
    engine
}

/// The mixed query set: joins, filters, projections, formatting variants.
fn mixed_queries() -> Vec<String> {
    let mut queries = vec![
        "SELECT COUNT(*) FROM a".to_owned(),
        "SELECT COUNT(*) FROM a WHERE k < 100".to_owned(),
        "SELECT COUNT(*) FROM a, b WHERE a.k = b.k".to_owned(),
        // Same query as above up to canonicalization.
        "select count(*) from a, b where b.k = a.k".to_owned(),
        "SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k < 10".to_owned(),
        "SELECT COUNT(*) FROM b, c WHERE b.k = c.k".to_owned(),
        "SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k".to_owned(),
        "SELECT a.k FROM a, b WHERE a.k = b.k AND a.k < 5".to_owned(),
    ];
    for cut in [20, 40, 60, 80] {
        queries.push(format!("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.f < {cut}"));
    }
    queries
}

#[test]
fn eight_threads_of_mixed_queries_match_serial_results() {
    let _guard = GUARD.lock().unwrap();
    let engine = small_engine();
    let queries = mixed_queries();

    // Serial ground truth from an identical but separate engine.
    let reference = small_engine();
    let expected: Vec<u64> = queries.iter().map(|q| reference.execute(q).unwrap().count).collect();

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let engine = &engine;
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                // 100 queries per thread, each thread in a different order.
                for i in 0..100usize {
                    let q = (i + t) % queries.len();
                    let out = engine.execute(&queries[q]).unwrap();
                    assert_eq!(
                        out.count, expected[q],
                        "thread {t} iteration {i} diverged on `{}`",
                        queries[q]
                    );
                }
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, 800, "every execution consults the cache");
    // 12 query texts, 11 distinct fingerprints (two differ only in
    // formatting); everything after the cold pass should hit.
    assert!(stats.hit_rate() > 0.9, "{stats:?}");
    assert_eq!(stats.invalidations, 0);
}

/// Four clients share one engine whose joins go parallel: the scheduler's
/// pool runs one job at a time, so at any moment one client's probe has the
/// helper and the others' run inline on their own threads. Which is which
/// must not show: every answer equals the one-worker engine's.
#[test]
fn four_clients_on_a_two_worker_engine_match_the_serial_answers() {
    use els::exec::{MORSEL_ROWS, PARALLEL_MIN_ROWS};

    let _guard = GUARD.lock().unwrap();
    let engine_with = |workers: usize| {
        let options = els::optimizer::OptimizerOptions::default().with_hash_join();
        let engine = Engine::with_options(options).exec_workers(workers);
        let build = TableSpec::new("build", 2000)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }));
        let probe = TableSpec::new("probe", 3 * PARALLEL_MIN_ROWS)
            .column(ColumnSpec::new("k", Distribution::UniformInt { lo: 0, hi: 2999 }))
            .column(ColumnSpec::new("f", Distribution::UniformInt { lo: 0, hi: 99 }));
        engine.generate(build, 1).unwrap();
        engine.generate(probe, 2).unwrap();
        engine
    };
    let mut queries = vec!["SELECT COUNT(*) FROM build, probe WHERE build.k = probe.k".to_owned()];
    for cut in [5, 25, 50] {
        queries.push(format!(
            "SELECT COUNT(*) FROM build, probe WHERE build.k = probe.k AND probe.f >= {cut}"
        ));
    }
    queries.push("SELECT probe.k FROM build, probe WHERE build.k = probe.k AND probe.f < 2".into());
    let answer = |engine: &Engine, sql: &str| {
        let out = engine.execute(sql).unwrap();
        let mut keys: Vec<_> =
            out.rows.columns().first().map(|k| k.iter().collect()).unwrap_or_default();
        keys.sort_by(|a: &els::storage::Value, b| a.total_cmp(b));
        (out.count, keys, out.metrics.morsels)
    };
    let serial = engine_with(1);
    let expected: Vec<_> = queries.iter().map(|q| answer(&serial, q)).collect();
    assert!(expected.iter().all(|(count, _, _)| *count > 0));

    let engine = engine_with(2);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let (engine, queries, expected) = (&engine, &queries, &expected);
            scope.spawn(move || {
                for i in 0..40usize {
                    let q = (i + t) % queries.len();
                    let (count, keys, morsels) = answer(engine, &queries[q]);
                    assert_eq!(
                        (count, &keys),
                        (expected[q].0, &expected[q].1),
                        "thread {t}, `{}`",
                        queries[q]
                    );
                    // All but the last query probe more than half of `probe`.
                    assert!(
                        morsels >= (PARALLEL_MIN_ROWS / MORSEL_ROWS) as u64 || q == 4,
                        "`{}` probes enough rows to go parallel: {morsels} morsels",
                        queries[q]
                    );
                }
            });
        }
    });
}

#[test]
fn cache_hits_skip_enumeration() {
    let _guard = GUARD.lock().unwrap();
    let engine = small_engine();
    let sql = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k < 10";

    let before = enumerations();
    let cold = engine.execute(sql).unwrap();
    let after_cold = enumerations();
    assert!(!cold.cache_hit);
    assert!(after_cold > before, "a miss must run join enumeration");

    let warm = engine.execute(sql).unwrap();
    assert!(warm.cache_hit);
    assert_eq!(enumerations(), after_cold, "a hit must not re-enumerate");
    assert_eq!(warm.count, cold.count);
    assert_eq!(warm.join_order, cold.join_order);

    // A canonically equal spelling also skips enumeration.
    let respelled = engine.execute("select count(*) from a, b where b.k = a.k and a.k < 10");
    assert!(respelled.unwrap().cache_hit);
    assert_eq!(enumerations(), after_cold);
}

#[test]
fn epoch_bump_invalidates_cached_plans() {
    let _guard = GUARD.lock().unwrap();
    let engine = small_engine();
    let sql = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k";
    assert!(!engine.execute(sql).unwrap().cache_hit);
    assert!(engine.execute(sql).unwrap().cache_hit);

    // Any catalog mutation bumps the epoch...
    let epoch = engine.epoch();
    engine
        .generate(
            TableSpec::new("d", 10)
                .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
            4,
        )
        .unwrap();
    assert_eq!(engine.epoch(), epoch + 1);

    // ...so the next execution re-optimizes (counted as an invalidation)
    // and re-caches at the new epoch.
    let before = enumerations();
    let replanned = engine.execute(sql).unwrap();
    assert!(!replanned.cache_hit, "stale-epoch plan must not be served");
    assert!(enumerations() > before);
    assert_eq!(engine.cache_stats().invalidations, 1);
    assert!(engine.execute(sql).unwrap().cache_hit, "new-epoch plan caches normally");

    // Explicit invalidation works without any content change.
    engine.invalidate_plans();
    assert!(!engine.execute(sql).unwrap().cache_hit);
}

#[test]
fn feedback_apply_stays_correct_and_bounded_under_concurrency() {
    let _guard = GUARD.lock().unwrap();
    // Skewed data so corrections actually publish while eight threads hammer
    // the same queries: results must stay exactly serial, no observation may
    // be lost, and the per-key publication cap must bound epoch churn.
    let make = || {
        let engine = Engine::new().feedback(FeedbackMode::Apply);
        engine
            .generate(
                TableSpec::new("z", 2000).column(ColumnSpec::new(
                    "k",
                    Distribution::ZipfInt { n: 1000, theta: 1.0, start: 0 },
                )),
                7,
            )
            .unwrap();
        engine
            .generate(
                TableSpec::new("b", 500)
                    .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                2,
            )
            .unwrap();
        engine
    };
    let engine = make();
    let queries = [
        "SELECT COUNT(*) FROM z WHERE k < 10".to_owned(),
        "SELECT COUNT(*) FROM z WHERE k < 50".to_owned(),
        "SELECT COUNT(*) FROM z, b WHERE z.k = b.k".to_owned(),
        "SELECT COUNT(*) FROM z, b WHERE z.k = b.k AND z.k < 10".to_owned(),
    ];
    let reference = make();
    let expected: Vec<u64> = queries.iter().map(|q| reference.execute(q).unwrap().count).collect();

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let engine = &engine;
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..50usize {
                    let q = (i + t) % queries.len();
                    let out = engine.execute(&queries[q]).unwrap();
                    assert_eq!(
                        out.count, expected[q],
                        "thread {t} iteration {i} diverged on `{}`",
                        queries[q]
                    );
                }
            });
        }
    });

    let counters = engine.snapshot().feedback().counters();
    // Every execution harvests at least its root operator: 400 executions,
    // no lost updates under contention.
    assert!(counters.learned >= 400, "observations were lost: {counters:?}");
    // Edge-triggered publication with a per-key cap bounds epoch churn: far
    // fewer bumps than executions, and never more than cap x keys.
    assert!(counters.epoch_bumps >= 1, "skewed workload must publish: {counters:?}");
    assert!(
        counters.epoch_bumps <= 8 * counters.keys,
        "epoch churn exceeded the per-key cap: {counters:?}"
    );
    assert!(
        counters.epoch_bumps < 40,
        "epoch bumps should be rare after corrections settle: {counters:?}"
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, 400);
    // Corrections settle, so the cache still serves the vast majority of
    // executions from corrected plans.
    assert!(stats.hit_rate() > 0.8, "{stats:?}");
}

#[test]
fn snapshot_isolation_under_concurrent_registration() {
    let _guard = GUARD.lock().unwrap();
    let engine = small_engine();
    let queries = mixed_queries();
    let reference = small_engine();
    let expected: Vec<u64> = queries.iter().map(|q| reference.execute(q).unwrap().count).collect();

    // Readers keep getting correct answers while a writer registers new
    // tables (bumping the epoch under them).
    let engine = &engine;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..6u64 {
                engine
                    .generate(
                        TableSpec::new(format!("extra{i}"), 50)
                            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                        10 + i,
                    )
                    .unwrap();
            }
        });
        for t in 0..4usize {
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..50usize {
                    let q = (i + t) % queries.len();
                    assert_eq!(engine.execute(&queries[q]).unwrap().count, expected[q]);
                }
            });
        }
    });
    // All six registrations landed despite the read traffic.
    assert_eq!(engine.snapshot().len(), 3 + 6);
    // Readers raced epoch bumps, so *some* lookups were invalidated or
    // missed, but the final counters must balance.
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, 200);
}

#[test]
fn one_hot_text_never_meets_a_plan_of_another_epoch() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let _guard = GUARD.lock().unwrap();
    let engine = small_engine();
    let sql = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k < 10";
    engine.prepare(sql).unwrap();

    // Four readers send the same bytes over and over while a writer bumps
    // the epoch; the writer waits for fresh reader traffic between bumps,
    // so every epoch is both planned for and hit by text.
    let (done, sent) = (AtomicBool::new(false), AtomicU64::new(0));
    let (engine, done, sent) = (&engine, &done, &sent);
    let observed: Vec<_> = std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..8u64 {
                let seen = sent.load(Ordering::SeqCst);
                while sent.load(Ordering::SeqCst) < seen + 40 {
                    std::thread::yield_now();
                }
                engine
                    .generate(
                        TableSpec::new(format!("extra{i}"), 5)
                            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                        i,
                    )
                    .unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    while !done.load(Ordering::SeqCst) {
                        let before = engine.epoch();
                        let plan = engine.prepare(sql).unwrap();
                        let after = engine.epoch();
                        assert_eq!(engine.execute(sql).unwrap().count, 10);
                        sent.fetch_add(1, Ordering::SeqCst);
                        seen.push((before, after, plan));
                    }
                    seen
                })
            })
            .collect();
        readers.into_iter().flat_map(|r| r.join().unwrap()).collect()
    });

    // A plan belongs to the one epoch it was made at, and `prepare` serves
    // it only at that epoch — which lies between the epochs read just
    // before and just after the call. So all sightings of one plan (the
    // `Arc`s are kept, so a pointer is a plan) must agree on an epoch.
    let mut windows = std::collections::HashMap::new();
    for (before, after, plan) in &observed {
        let w = windows.entry(Arc::as_ptr(plan)).or_insert((*before, *after));
        *w = (w.0.max(*before), w.1.min(*after));
    }
    for (latest_before, earliest_after) in windows.values() {
        assert!(latest_before <= earliest_after, "one plan was served at two epochs");
    }
    // (The last epoch may go unseen: the readers stop with the writer.)
    assert!(windows.len() >= 8, "every epoch re-plans: {} plans", windows.len());
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, 1 + 2 * observed.len() as u64);
    assert!(stats.hits > stats.misses, "{stats:?}");
    assert_eq!(engine.plan_cache().len(), 1);
}

/// Text slots under churn: two readers repeat texts through a capacity-4
/// cache (so entries, and their slots in both readers' stripes, are
/// evicted all the time) while a writer registers the tables `t1..t6` one
/// by one and invalidates every plan in between. A text over `t{j}` is a
/// typed error before `t{j}` exists and `10·j` rows after, so every answer
/// must be the serial answer at an epoch the call overlapped. Then an
/// evicted plan is held by no slot, and a dropped engine by nothing.
#[test]
fn text_slots_follow_their_entries_through_churn_and_drop() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let _guard = GUARD.lock().unwrap();
    let owned = Engine::new().cache_capacity(4);
    let key = ColumnSpec::new("k", Distribution::SequentialInt { start: 0 });
    owned.generate(TableSpec::new("a", 100).column(key), 1).unwrap();
    let fixed = [
        ("SELECT COUNT(*) FROM a WHERE k < 10", 10),
        ("select count(*) from a where k < 10", 10),
        ("SELECT COUNT(*) FROM a WHERE k < 20", 20),
        ("SELECT COUNT(*) FROM a WHERE k >= 90", 10),
    ];
    let over = |j: u64| format!("SELECT COUNT(*) FROM t{j} WHERE k >= 0");
    // The epoch at which `t{j}` was registered; 0 until it is.
    let registered: Vec<AtomicU64> = (0..=6).map(|_| AtomicU64::new(0)).collect();
    let (done, issued) = (AtomicBool::new(false), AtomicU64::new(0));
    let (engine, registered, done, issued) = (&owned, &registered, &done, &issued);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for j in 1..=6u64 {
                let seen = issued.load(Ordering::SeqCst);
                while issued.load(Ordering::SeqCst) < seen + 200 {
                    std::thread::yield_now();
                }
                let table = TableSpec::new(format!("t{j}"), 10 * j as usize)
                    .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }));
                // Only this thread moves the epoch: registering moves it
                // by one. Published first, so a reader that finds the
                // table also finds its epoch.
                registered[j as usize].store(engine.epoch() + 1, Ordering::SeqCst);
                engine.generate(table, j).unwrap();
                engine.invalidate_plans();
            }
            done.store(true, Ordering::SeqCst);
        });
        for reader in 0..2u64 {
            scope.spawn(move || {
                let mut i = reader;
                while !done.load(Ordering::SeqCst) {
                    i += 1;
                    let before = engine.epoch();
                    if i % 3 == 0 {
                        let j = 1 + i / 3 % 6;
                        let answer = engine.execute(&over(j)).map(|r| r.count);
                        let after = engine.epoch();
                        let at = registered[j as usize].load(Ordering::SeqCst);
                        match answer {
                            Ok(count) => {
                                assert_eq!(count, 10 * j);
                                assert!(at != 0 && at <= after, "t{j} answered before it existed");
                            }
                            Err(e) => {
                                assert!(matches!(e, EngineError::Sql(_)), "{e}");
                                assert!(at == 0 || at > before, "t{j} existed at {at}");
                            }
                        }
                    } else {
                        let (sql, want) = fixed[(i % fixed.len() as u64) as usize];
                        assert_eq!(engine.execute(sql).unwrap().count, want, "`{sql}`");
                    }
                    issued.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    // Every call counted exactly one hit or one miss, errors included
    // (they fail binding after the probe).
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, issued.load(Ordering::SeqCst), "{stats:?}");
    assert!(stats.evictions > 0 && stats.invalidations > 0, "{stats:?}");

    // One plan, with a slot in this thread's stripe and in two others'.
    let (sql, _) = fixed[0];
    let plan = engine.prepare(sql).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| (0..2).for_each(|_| assert!(engine.execute(sql).unwrap().cache_hit)));
        }
    });
    assert!(Arc::ptr_eq(&plan, &engine.prepare(sql).unwrap()));
    assert!(Arc::strong_count(&plan) > 2, "the entry and the slots hold it too");
    // Four fresh texts evict it from the capacity-4 cache: no stripe may
    // keep it alive.
    for c in 30..34 {
        engine.execute(&format!("SELECT COUNT(*) FROM a WHERE k < {c}")).unwrap();
    }
    assert_eq!(Arc::strong_count(&plan), 1, "an evicted plan is held by its caller alone");

    // Dropping the engine drops its cache, and every table its slots held.
    let table = Arc::downgrade(&engine.snapshot().table_data("a").unwrap());
    drop(owned);
    assert!(table.upgrade().is_none(), "a dropped engine's tables outlive it");
}
