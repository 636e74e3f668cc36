//! End-to-end tests of `explain_analyze`: the per-operator
//! estimated-vs-actual report, its stability across execution modes, and
//! its aggregation into the global metrics registry.

use els::engine::Engine;
use els::exec::{execute_plan_observed, ExecMode, MetricsRegistry};
use els::storage::datagen::starburst_experiment_tables_sized;

const SECTION8_SQL: &str =
    "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100";

fn section8_engine(workers: usize) -> Engine {
    let engine = Engine::new().exec_workers(workers);
    for t in starburst_experiment_tables_sized(42, &[1_000, 10_000, 20_000, 30_000]) {
        engine.register(t).unwrap();
    }
    engine
}

#[test]
fn section8_report_has_per_operator_estimates_and_actuals() {
    let engine = section8_engine(1);
    let report = engine.explain_analyze(SECTION8_SQL).unwrap();

    // Four scans + three joins, root first.
    assert_eq!(report.operators.len(), 7, "{report}");
    assert_eq!(report.join_operators().count(), 3, "{report}");
    let root = report.root().unwrap();
    assert!(root.is_join, "{report}");
    assert_eq!(root.tables, vec![0, 1, 2, 3], "{report}");

    // Containment holds by construction, so `s < 100` makes every join
    // produce exactly 100 rows and ELS gets each one exactly right.
    assert_eq!(report.result_rows, 100, "{report}");
    assert_eq!(root.actual, 100, "{report}");
    assert_eq!(report.query_q_error(), 1.0, "{report}");
    for op in report.join_operators() {
        assert_eq!(op.actual, 100, "{report}");
        assert_eq!(op.q_error(), 1.0, "{report}");
        assert_eq!(op.error_ratio(), 1.0, "{report}");
    }
    assert_eq!(report.rule, "LS", "ELS defaults to rule LS");
}

#[test]
fn actuals_are_identical_across_execution_modes() {
    let serial = section8_engine(1).explain_analyze(SECTION8_SQL).unwrap();
    let parallel = section8_engine(4).explain_analyze(SECTION8_SQL).unwrap();
    assert_eq!(serial.mode, ExecMode::Vectorized { workers: 1 });
    assert_eq!(parallel.mode, ExecMode::Vectorized { workers: 4 });
    assert_eq!(serial.operators.len(), parallel.operators.len());
    for (a, b) in serial.operators.iter().zip(&parallel.operators) {
        assert_eq!(a.actual, b.actual, "{}: actuals diverged across modes", a.label);
        assert_eq!(a.tables, b.tables, "{}: operator order diverged", a.label);
    }

    // The row oracle, serial and parallel kernels on one prepared plan.
    let engine = section8_engine(1);
    let plan = engine.prepare(SECTION8_SQL).unwrap();
    let snapshot = engine.snapshot();
    let tables: Vec<_> =
        plan.table_names.iter().map(|name| snapshot.table_data(name).unwrap()).collect();
    let observe =
        |mode| execute_plan_observed(&plan.optimized.plan, &tables, mode, None).unwrap().1;
    let row = observe(ExecMode::RowAtATime);
    assert_eq!(row.join_outputs.len(), 3);
    for workers in [1, 4] {
        assert_eq!(observe(ExecMode::Vectorized { workers }), row, "{workers} worker(s)");
    }
}

#[test]
fn display_renders_the_annotated_tree() {
    let engine = section8_engine(1);
    let text = engine.explain_analyze(SECTION8_SQL).unwrap().to_string();
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains("est="), "{text}");
    assert!(text.contains("act="), "{text}");
    assert!(text.contains("qerr="), "{text}");
    assert!(text.contains("Scan(S"), "{text}");
    assert!(text.contains("Join<"), "{text}");
    assert!(text.contains("rule=LS"), "{text}");
}

#[test]
fn second_analysis_hits_the_plan_cache_and_feeds_the_registry() {
    let engine = section8_engine(1);
    let before = MetricsRegistry::global().q_error_histogram("LS").map_or(0, |h| h.count());
    let cold = engine.explain_analyze(SECTION8_SQL).unwrap();
    assert!(!cold.cache_hit);
    let warm = engine.explain_analyze(SECTION8_SQL).unwrap();
    assert!(warm.cache_hit, "second analysis should reuse the cached plan");
    assert_eq!(cold.operators.len(), warm.operators.len());
    let after = MetricsRegistry::global().q_error_histogram("LS").map_or(0, |h| h.count());
    // Each analysis records one sample per join; other tests share the
    // registry, so assert a lower bound rather than an exact delta.
    assert!(after >= before + 6, "expected >= 6 new LS samples, {before} -> {after}");
}
