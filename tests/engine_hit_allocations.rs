//! A byte-identical repeat of a cached text must reach its plan without
//! touching the heap: no parse (an AST is `Vec`s and `String`s), no
//! `canonical_sql` (a `String`), no `config_fingerprint()` (a `format!`),
//! no clone of the optimizer options (a `Vec` of join methods). `prepare`
//! is `execute` up to, but not including, running the plan. Nor may it
//! take a lock another thread's repeat takes:
//! `a_repeat_text_takes_no_lock_but_its_stripe` counts the lock classes a
//! repeat acquires under the lock audit.
//!
//! Running the plan still allocates (selection vectors, the join's working
//! set; an unobserved run records nothing); `a_hit_executes_under_its_allocation_ceiling` pins
//! how often, so the count can only go down, and
//! `composite_key_and_nested_loop_hits_do_not_allocate_with_the_data` that
//! it is a count per operator: ten times the rows add a few `Vec` doublings.
//!
//! Its own test binary: the counting allocator
//! (`tests/support/counting_alloc.rs`) is process-wide, though it counts
//! per thread.

use els::core::sync::audit;
use els::engine::Engine;
use els::exec::JoinMethod;
use els::optimizer::OptimizerOptions;
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;

const POINT: &str = "SELECT COUNT(*) FROM b WHERE k < 117";
const JOIN: &str = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k < 24";

fn with_tables(engine: Engine) -> Engine {
    for (name, rows) in [("a", 64), ("b", 256)] {
        let key = ColumnSpec::new("k", Distribution::SequentialInt { start: 0 });
        engine.generate(TableSpec::new(name, rows).column(key), 1).unwrap();
    }
    engine
}

#[test]
fn a_repeat_text_reaches_its_plan_without_allocating() {
    let engine = with_tables(Engine::new());
    let respelled = "select  count(*)  from  a,  b  where  a.k  =  b.k  and  a.k  <  24";

    for sql in [POINT, JOIN, respelled] {
        let (first, cold) = allocations_in(|| engine.prepare(sql).unwrap());
        assert!(cold > 0, "a first sighting parses: `{sql}`");
        for _ in 0..3 {
            let (again, warm) = allocations_in(|| engine.prepare(sql).unwrap());
            assert_eq!(warm, 0, "{warm} allocations on a repeat of `{sql}`");
            assert!(std::sync::Arc::ptr_eq(&first, &again));
        }
    }
    assert_eq!(engine.plan_cache().len(), 2, "the respelling is a second name, not a second plan");
}

/// The lock classes `f` acquires on this thread, with how often: the
/// lock audit (on in every test build) counts acquisitions by class.
fn locks_in<T>(f: impl FnOnce() -> T) -> (T, Vec<(&'static str, u64)>) {
    let before = audit::acquisitions();
    let out = f();
    let taken = audit::acquisitions()
        .into_iter()
        .zip(before)
        .filter(|((_, after), (_, before))| after > before)
        .map(|((class, after), (_, before))| (class, after - before))
        .collect();
    (out, taken)
}

/// A repeat takes its own stripe's lock once and nothing else: not the
/// catalog's `shared.state`, not the cache's `plan_cache.state`.
#[test]
fn a_repeat_text_takes_no_lock_but_its_stripe() {
    let engine = with_tables(Engine::new());
    for sql in [POINT, JOIN] {
        let (_, cold) = locks_in(|| engine.execute(sql).unwrap());
        assert!(cold.iter().any(|&(class, _)| class == "plan_cache.state"), "{cold:?}");
        let (out, taken) = locks_in(|| engine.execute(sql).unwrap());
        assert!(out.cache_hit);
        assert_eq!(taken, [("stripe.slots", 1)], "a repeat `execute` of `{sql}`");
        let (_, taken) = locks_in(|| engine.prepare(sql).unwrap());
        assert_eq!(taken, [("stripe.slots", 1)], "a repeat `prepare` of `{sql}`");
    }
}

/// Heap allocations of one `Engine::execute` on a cached text, as `<=`
/// ceilings: an allocation per filter conjunct, or per distinct build key of
/// the hash join (24 here), would put a run over them.
#[test]
fn a_hit_executes_under_its_allocation_ceiling() {
    let sort_merge = with_tables(Engine::new());
    let hash = with_tables(Engine::with_options(OptimizerOptions::default().with_hash_join()));
    for (engine, sql, method, rows, ceiling) in [
        (&sort_merge, POINT, "", 117, 11),
        (&sort_merge, JOIN, "SMJoin", 24, 21),
        (&hash, JOIN, "HASHJoin", 24, 21),
    ] {
        assert!(engine.explain(sql).unwrap().contains(method), "`{sql}` is not a {method}");
        assert_eq!(engine.execute(sql).unwrap().count, rows);
        let (again, warm) = allocations_in(|| engine.execute(sql).unwrap());
        assert_eq!(again.count, rows);
        assert!(warm <= ceiling, "{warm} allocations executing `{sql}` ({method}), over {ceiling}");
    }
}

const CHAIN: &str = "SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k";
const BAND: &str = "SELECT COUNT(*) FROM a, b WHERE a.k < b.k AND b.k < 20";
const PAIR: &str = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k";

/// `a`, `b` and `c` with sequential keys, `scale` times 64, 256 and 128
/// rows, and a string payload no query reads: one heap allocation per row
/// for whoever copies a table or materializes an input.
fn with_scaled_tables(engine: Engine, scale: usize) -> Engine {
    for (name, rows) in [("a", 64), ("b", 256), ("c", 128)] {
        let key = ColumnSpec::new("k", Distribution::SequentialInt { start: 0 });
        let tag = Distribution::StrTag { prefix: "payload".into(), modulus: 1 << 20 };
        let spec = TableSpec::new(name, rows * scale).column(key);
        engine.generate(spec.column(ColumnSpec::new("tag", tag)), 1).unwrap();
    }
    engine
}

/// The hash join closure makes composite (`{a, b} ⋈ c` on two key pairs)
/// and the nested loop of a band count allocate per operator, not per row,
/// key or pair: with ten times the rows in every table a cached `execute`
/// may only add the few doublings of the lower join's pair list, and the
/// band count, which sorts its inner's keys once and counts each outer
/// key's band from its boundary, adds none at all. (The band
/// count starts from larger tables: below them the optimizer picks the
/// sort-based band join. A composite-key *sort-merge* still gathers a
/// `Vec<Value>` per row and has no ceiling here.) An indexed nested loop
/// probes its stored inner in place and composes row ids like every other
/// join, so it clones and materializes neither input and adds only the
/// doublings of its own pair list.
#[test]
fn composite_key_and_nested_loop_hits_do_not_allocate_with_the_data() {
    let hash = || Engine::with_options(OptimizerOptions::default().with_hash_join());
    let indexed = || {
        let join_methods = vec![JoinMethod::IndexNestedLoop];
        Engine::with_options(OptimizerOptions { join_methods, ..OptimizerOptions::default() })
    };
    for (engine, sql, method, scale, ceiling, ceiling_at_ten_times) in [
        (hash as fn() -> Engine, CHAIN, "HASHJoin", 1, 37, 41),
        (Engine::new as fn() -> Engine, BAND, "NLJoin", 4, 21, 21),
        (indexed as fn() -> Engine, PAIR, "INLJoin", 1, 25, 29),
    ] {
        let mut warm_at = Vec::new();
        for (scale, ceiling) in [(scale, ceiling), (10 * scale, ceiling_at_ten_times)] {
            let engine = with_scaled_tables(engine(), scale);
            let plan = engine.explain(sql).unwrap();
            assert!(plan.contains(method), "`{sql}` is not a {method} at scale {scale}:\n{plan}");
            let first = engine.execute(sql).unwrap().count;
            let (again, warm) = allocations_in(|| engine.execute(sql).unwrap());
            assert_eq!(again.count, first);
            // Keys are 0, 1, 2, ...: the equi-joins keep `a`'s, the band the pairs under 20.
            let rows = if sql == BAND { (0..20).sum() } else { 64 * scale as u64 };
            assert_eq!(first, rows, "`{sql}` at scale {scale}");
            assert!(
                warm <= ceiling,
                "{warm} allocations executing `{sql}` ({method}) at scale {scale}, over {ceiling}"
            );
            warm_at.push(warm);
        }
        if sql == BAND {
            assert_eq!(warm_at[0], warm_at[1], "ten times the rows add allocations to `{sql}`");
        }
    }
}
