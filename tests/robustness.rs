//! Failure injection: hostile statistics and degenerate inputs must produce
//! errors or clamped estimates — never panics, NaNs, or negative sizes.

use els::core::prelude::*;
use proptest::prelude::*;

fn two_table_query() -> Vec<Predicate> {
    vec![
        Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
        Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Lt, 10i64),
    ]
}

#[test]
fn non_finite_statistics_are_rejected() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(bad, vec![ColumnStatistics::with_distinct(1.0)]),
            TableStatistics::new(10.0, vec![ColumnStatistics::with_distinct(5.0)]),
        ]);
        assert!(
            Els::prepare(&two_table_query(), &stats, &ElsOptions::default()).is_err(),
            "cardinality {bad} must be rejected"
        );
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(10.0, vec![ColumnStatistics::with_distinct(bad)]),
            TableStatistics::new(10.0, vec![ColumnStatistics::with_distinct(5.0)]),
        ]);
        assert!(
            Els::prepare(&two_table_query(), &stats, &ElsOptions::default()).is_err(),
            "distinct {bad} must be rejected"
        );
    }
}

#[test]
fn inconsistent_distinct_counts_are_rejected() {
    // More distinct values than rows.
    let stats = QueryStatistics::new(vec![
        TableStatistics::new(5.0, vec![ColumnStatistics::with_distinct(10.0)]),
        TableStatistics::new(10.0, vec![ColumnStatistics::with_distinct(5.0)]),
    ]);
    assert!(Els::prepare(&two_table_query(), &stats, &ElsOptions::default()).is_err());
}

#[test]
fn predicates_out_of_shape_are_rejected() {
    let stats = QueryStatistics::new(vec![TableStatistics::new(
        10.0,
        vec![ColumnStatistics::with_distinct(5.0)],
    )]);
    // Join predicate to a non-existent second table.
    assert!(Els::prepare(&two_table_query(), &stats, &ElsOptions::default()).is_err());
    // Column index out of range.
    let preds = vec![Predicate::local_cmp(ColumnRef::new(0, 7), CmpOp::Eq, 1i64)];
    assert!(Els::prepare(&preds, &stats, &ElsOptions::default()).is_err());
}

#[test]
fn empty_tables_propagate_zero_not_nan() {
    let stats = QueryStatistics::new(vec![
        TableStatistics::new(0.0, vec![ColumnStatistics::with_distinct(0.0)]),
        TableStatistics::new(10.0, vec![ColumnStatistics::with_distinct(5.0)]),
    ]);
    let preds = vec![Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap()];
    let els = Els::prepare(&preds, &stats, &ElsOptions::default()).unwrap();
    let final_size = els.estimate_final(&[0, 1]).unwrap();
    assert_eq!(final_size, 0.0);
    assert!(!final_size.is_nan());
}

#[test]
fn nan_literal_in_a_predicate_does_not_panic() {
    let stats = QueryStatistics::new(vec![TableStatistics::new(
        100.0,
        vec![ColumnStatistics::with_domain(100.0, 0.0, 99.0)],
    )]);
    let preds = vec![Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Lt, f64::NAN)];
    let els = Els::prepare(&preds, &stats, &ElsOptions::default()).unwrap();
    let est = els.effective_cardinality(0).unwrap();
    assert!(est.is_finite());
    assert!(est >= 0.0);
}

/// One NaN or ±∞ row in a `Float` column leaves its range predicates
/// plannable: the collected domain is the column's finite values, so the
/// uniform interpolation ELS sizes `f < 5` with stays finite.
#[test]
fn non_finite_float_rows_leave_range_predicates_plannable() {
    use els::engine::Engine;
    use els::storage::{ColumnVector, Table};

    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut cases: Vec<Vec<f64>> = specials.iter().map(|&x| vec![x]).collect();
    cases.push(specials.to_vec());
    for extra in cases {
        let values: Vec<f64> = (0..1000).map(f64::from).chain(extra.iter().copied()).collect();
        let column = ColumnVector::from_floats(values.iter().copied());
        let table = Table::new("t", vec![("f".to_owned(), column)]).unwrap();
        let engine = Engine::new();
        engine.register(table).unwrap();
        // The executor orders floats by `total_cmp`, so a NaN row is above 5.
        let count = |side| values.iter().filter(|x| x.total_cmp(&5.0) == side).count();
        for (sql, truth) in [
            ("SELECT COUNT(*) FROM t WHERE f < 5", count(std::cmp::Ordering::Less)),
            ("SELECT COUNT(*) FROM t WHERE f > 5", count(std::cmp::Ordering::Greater)),
        ] {
            let result = engine.execute(sql).unwrap_or_else(|e| panic!("{sql} {extra:?}: {e}"));
            assert_eq!(result.count, truth as u64, "{sql} {extra:?}");
            let report = engine.explain_analyze(sql).unwrap();
            let estimate = report.root().unwrap().estimated;
            assert!(estimate.is_finite() && estimate >= 0.0, "{sql} {extra:?}: {estimate}");
            assert_eq!(report.result_rows, truth as u64, "{sql} {extra:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any *valid* statistics and any well-shaped predicate set yields
    /// finite, non-negative estimates in every rule and order.
    #[test]
    fn estimates_are_always_finite_and_non_negative(
        rows in proptest::collection::vec(0u64..100_000, 3..=3),
        ds in proptest::collection::vec(0u64..100_000, 3..=3),
        consts in proptest::collection::vec(-1000i64..1000, 0..3),
        order_seed in 0u64..6,
    ) {
        let stats = QueryStatistics::new(
            rows.iter()
                .zip(&ds)
                .map(|(&r, &d)| {
                    let d = d.min(r);
                    TableStatistics::new(r as f64, vec![ColumnStatistics::with_distinct(d as f64)])
                })
                .collect(),
        );
        let mut preds = vec![
            Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
            Predicate::join_eq(ColumnRef::new(1, 0), ColumnRef::new(2, 0)).unwrap(),
        ];
        for (i, &c) in consts.iter().enumerate() {
            preds.push(Predicate::local_cmp(
                ColumnRef::new(i % 3, 0),
                [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq][i % 3],
                c,
            ));
        }
        let orders = [[0usize, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let order = orders[order_seed as usize];
        for rule in [
            SelectivityRule::Multiplicative,
            SelectivityRule::SmallestSelectivity,
            SelectivityRule::LargestSelectivity,
            SelectivityRule::Representative,
        ] {
            let els = Els::prepare(&preds, &stats, &ElsOptions::default().with_rule(rule)).unwrap();
            for size in els.estimate_order(&order).unwrap() {
                prop_assert!(size.is_finite(), "{rule:?} produced {size}");
                prop_assert!(size >= 0.0, "{rule:?} produced {size}");
            }
        }
    }

    /// Effective statistics are internally consistent for arbitrary valid
    /// inputs: 0 <= ||R||' <= ||R|| and 0 <= d' <= min(d, ||R||').
    #[test]
    fn effective_stats_invariants(
        rows in 1u64..100_000,
        d in 1u64..100_000,
        cut in -100i64..200_000,
    ) {
        let d = d.min(rows);
        let stats = QueryStatistics::new(vec![TableStatistics::new(
            rows as f64,
            vec![
                ColumnStatistics::with_domain(d as f64, 0.0, (d - 1) as f64),
                ColumnStatistics::with_distinct((d / 2).max(1).min(rows) as f64),
            ],
        )]);
        let preds = vec![Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Lt, cut)];
        let els = Els::prepare(&preds, &stats, &ElsOptions::default()).unwrap();
        let eff = els.effective_stats();
        let t = &eff.tables[0];
        prop_assert!(t.cardinality >= 0.0 && t.cardinality <= t.original_cardinality + 1e-9);
        for (i, &dp) in t.column_distinct.iter().enumerate() {
            prop_assert!(dp >= 0.0);
            prop_assert!(dp <= t.original_distinct[i] + 1e-9, "column {i}: {dp}");
            prop_assert!(dp <= t.cardinality + 1e-9, "column {i}: {dp} > rows {}", t.cardinality);
        }
    }
}
