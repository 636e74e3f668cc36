//! The engine facade exercised the way a downstream user would: CSV in,
//! SQL with every supported clause, buffering, estimator switching, and
//! EXPLAIN output.

use std::io::Cursor;

use els::engine::{Engine, EngineError};
use els::exec::{execute_plan_observed, ExecMode, ExecOutput};
use els::optimizer::{EstimatorPreset, OptimizerOptions};
use els::storage::csv::{read_csv, write_csv};
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els::storage::Value;

fn loaded(engine: Engine) -> Engine {
    engine
        .generate(
            TableSpec::new("fact", 2000)
                .column(ColumnSpec::new("key", Distribution::CycleInt { modulus: 100, start: 0 }))
                .column(ColumnSpec::new(
                    "v",
                    Distribution::WithNulls {
                        inner: Box::new(Distribution::UniformInt { lo: 0, hi: 9 }),
                        null_fraction: 0.2,
                    },
                )),
            1,
        )
        .unwrap();
    engine
        .generate(
            TableSpec::new("dim", 100)
                .column(ColumnSpec::new("id", Distribution::SequentialInt { start: 0 })),
            2,
        )
        .unwrap();
    engine
}

fn engine() -> Engine {
    loaded(Engine::new())
}

/// `sql`'s prepared plan run through the executor API under `mode`, with
/// base-table reads through a buffer pool of `buffer_pages` pages.
fn run_with(engine: &Engine, sql: &str, mode: ExecMode, buffer_pages: Option<usize>) -> ExecOutput {
    let plan = engine.prepare(sql).unwrap();
    let snapshot = engine.snapshot();
    let tables: Vec<_> =
        plan.table_names.iter().map(|name| snapshot.table_data(name).unwrap()).collect();
    execute_plan_observed(&plan.optimized.plan, &tables, mode, buffer_pages).unwrap().0
}

#[test]
fn csv_round_trip_through_the_engine() {
    let engine = engine();
    // Export `dim`, re-import it under a new name, and join against it.
    let dim = engine.snapshot().table_data("dim").unwrap();
    let mut buf = Vec::new();
    write_csv(&dim, &mut buf).unwrap();
    let copy = read_csv("dim2", &mut Cursor::new(&buf), None).unwrap();
    let engine2 = self::engine();
    engine2.register(copy).unwrap();
    let r = engine2.execute("SELECT COUNT(*) FROM dim, dim2 WHERE dim.id = dim2.id").unwrap();
    assert_eq!(r.count, 100);
}

#[test]
fn between_and_is_null_clauses() {
    let engine = engine();
    let total = engine.execute("SELECT COUNT(*) FROM fact").unwrap().count;
    let nulls = engine.execute("SELECT COUNT(*) FROM fact WHERE v IS NULL").unwrap().count;
    let non_nulls = engine.execute("SELECT COUNT(*) FROM fact WHERE v IS NOT NULL").unwrap().count;
    assert_eq!(nulls + non_nulls, total);
    // BETWEEN equals the two-sided range.
    let between =
        engine.execute("SELECT COUNT(*) FROM fact WHERE key BETWEEN 10 AND 19").unwrap().count;
    let manual =
        engine.execute("SELECT COUNT(*) FROM fact WHERE key >= 10 AND key <= 19").unwrap().count;
    assert_eq!(between, manual);
    assert_eq!(between, 200); // 10 of 100 cyclic keys, 20 rows each.
}

#[test]
fn buffered_execution_reduces_physical_io_only() {
    // The band join runs as a nested loop that rescans `fact` once per
    // surviving `dim` row: the pool absorbs the repeats, so strictly fewer
    // reads are physical, and every logical read is still counted.
    let engine = engine();
    let sql = "SELECT COUNT(*) FROM fact, dim WHERE fact.key < dim.id AND dim.id < 5";
    let plan = engine.explain(sql).unwrap();
    assert!(plan.contains("NLJoin"), "{plan}");
    let unbuffered = run_with(&engine, sql, ExecMode::default(), None);
    let buffered = run_with(&engine, sql, ExecMode::default(), Some(64));
    assert_eq!(unbuffered.count, buffered.count);
    let (logical, physical) = (unbuffered.metrics.pages_read, buffered.metrics.physical_pages_read);
    assert_eq!(buffered.metrics.pages_read, logical);
    assert_eq!(unbuffered.metrics.physical_pages_read, logical);
    assert!(physical < logical, "{}", buffered.metrics);
}

#[test]
fn group_by_with_filters_and_joins() {
    let engine = engine();
    let r = engine
        .execute(
            "SELECT fact.v, COUNT(*) FROM fact, dim \
             WHERE fact.key = dim.id AND fact.v IS NOT NULL GROUP BY fact.v",
        )
        .unwrap();
    assert!(r.count <= 10);
    // Counts must sum to the non-null join size.
    let total: i64 =
        (0..r.rows.num_rows()).map(|i| r.rows.row(i).unwrap()[1].as_int().unwrap()).sum();
    let expect = engine
        .execute("SELECT COUNT(*) FROM fact, dim WHERE fact.key = dim.id AND fact.v IS NOT NULL")
        .unwrap()
        .count;
    assert_eq!(total as u64, expect);
}

#[test]
fn explain_shows_steps_and_estimates() {
    let engine = engine();
    let text = engine
        .explain("SELECT COUNT(*) FROM fact, dim WHERE fact.key = dim.id AND fact.key < 5")
        .unwrap();
    assert!(text.contains("fact"));
    assert!(text.contains("join order"));
    assert!(text.contains("estimated sizes"));
}

#[test]
fn estimator_switch_changes_estimates_not_results() {
    let engine = engine();
    let sql = "SELECT COUNT(*) FROM fact, dim WHERE fact.key = dim.id AND fact.key < 5";
    let els = engine.execute(sql).unwrap();
    let sm = loaded(Engine::with_options(OptimizerOptions::preset(EstimatorPreset::Sm)));
    let sm = sm.execute(sql).unwrap();
    assert_eq!(els.count, sm.count);
    // ELS's final estimate is (much) closer to the truth.
    let truth = els.count as f64;
    let els_err = (els.estimated_sizes.last().unwrap() - truth).abs();
    let sm_err = (sm.estimated_sizes.last().unwrap() - truth).abs();
    assert!(els_err <= sm_err, "ELS {els_err} vs SM {sm_err}");
}

#[test]
fn errors_do_not_poison_the_database() {
    let engine = engine();
    assert!(matches!(engine.execute("SELECT"), Err(EngineError::Sql(_))));
    // A failed registration leaves prior tables usable.
    let dup = TableSpec::new("dim", 1)
        .column(ColumnSpec::new("id", Distribution::ConstInt { value: 0 }))
        .generate(3);
    assert!(engine.register(dup).is_err());
    assert_eq!(engine.execute("SELECT COUNT(*) FROM dim").unwrap().count, 100);
}

#[test]
fn values_surface_in_result_rows() {
    let engine = Engine::new();
    let csv = "name,score\nalice,3.5\nbob,1.0\n";
    engine.register(read_csv("people", &mut Cursor::new(csv), None).unwrap()).unwrap();
    let r = engine.execute("SELECT name FROM people WHERE score > 2").unwrap();
    assert_eq!(r.count, 1);
    assert_eq!(r.rows.row(0).unwrap()[0], Value::from("alice"));
}

#[test]
fn order_by_and_limit_through_the_engine() {
    let engine = engine();
    let r = engine
        .execute(
            "SELECT fact.key FROM fact, dim WHERE fact.key = dim.id ORDER BY fact.key DESC LIMIT 7",
        )
        .unwrap();
    assert_eq!(r.count, 7);
    // Rows are sorted descending by key.
    let keys: Vec<i64> =
        (0..r.rows.num_rows()).map(|i| r.rows.row(i).unwrap()[0].as_int().unwrap()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(keys, sorted);
    assert_eq!(keys[0], 99);
    // LIMIT without ORDER BY also truncates.
    let r = engine.execute("SELECT * FROM dim LIMIT 10").unwrap();
    assert_eq!(r.count, 10);
    assert_eq!(r.rows.num_rows(), 10);
}

#[test]
fn explain_analyze_reports_estimates_vs_actuals() {
    let engine = engine();
    let report = engine
        .explain_analyze("SELECT COUNT(*) FROM fact, dim WHERE fact.key = dim.id AND fact.key < 5")
        .unwrap();
    // One join over two scans, root first.
    assert_eq!(report.operators.len(), 3, "{report}");
    let root = report.root().unwrap();
    assert!(root.is_join, "{report}");
    assert_eq!(root.actual, report.result_rows, "{report}");
    // Model assumptions hold exactly here (cyclic keys, nested domains), so
    // the ELS estimate matches the actual join size: q-error 1.0.
    assert_eq!(report.query_q_error(), 1.0, "{report}");
    let text = report.to_string();
    assert!(text.contains("est="), "{text}");
    assert!(text.contains("act="), "{text}");
    assert!(text.contains("qerr="), "{text}");
    assert!(text.contains("fact"), "{text}");
}

/// 2^53 and 2^53 + 1 share an f64 image; comparing through it answered
/// `>` with 0 rows and `=` with 2. A float column holding 2^53 must
/// likewise meet only the one integer constant it is the image of.
fn int_meets_float_exactly_beyond_2_pow_53(mode: ExecMode) {
    use els::storage::{ColumnVector, Table};
    let two53 = 9_007_199_254_740_992i64;
    let engine = Engine::new();
    let columns = vec![
        ("k".to_owned(), ColumnVector::from_ints([two53, two53 + 1])),
        ("f".to_owned(), ColumnVector::from_floats([two53 as f64, 0.5])),
    ];
    engine.register(Table::new("t", columns).unwrap()).unwrap();
    for (predicate, rows) in [
        ("k > 9007199254740992.0", 1),
        ("k = 9007199254740992.0", 1),
        ("k >= 9007199254740992.0", 2),
        ("k <= 9007199254740992.0", 1),
        ("k <> 9007199254740992.0", 1),
        ("k < 9007199254740994.0", 2),
        ("f = 9007199254740993", 0),
        ("f < 9007199254740993", 2),
        ("f = 9007199254740992", 1),
    ] {
        let sql = format!("SELECT COUNT(*) FROM t WHERE {predicate}");
        assert_eq!(run_with(&engine, &sql, mode, None).count, rows, "{sql}");
    }
}

#[test]
fn row_oracle_compares_int_with_float_exactly() {
    int_meets_float_exactly_beyond_2_pow_53(ExecMode::RowAtATime);
}

#[test]
fn vectorized_kernels_compare_int_with_float_exactly() {
    int_meets_float_exactly_beyond_2_pow_53(ExecMode::Vectorized { workers: 1 });
}
