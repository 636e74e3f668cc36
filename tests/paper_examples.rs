//! Every numeric example in the paper, checked through the public API.
//!
//! Paper: Swami & Schiefer, "On the Estimation of Join Result Sizes",
//! EDBT 1994. Section references below are to the paper.

use els::core::prelude::*;
use els::core::{exact, urn};

/// Example 1a/1b statistics: ||R1||=100, ||R2||=1000, ||R3||=1000,
/// d_x=10, d_y=100, d_z=1000, one equivalence class {x, y, z}.
fn example_1b(rule: SelectivityRule) -> Els {
    let stats = QueryStatistics::new(vec![
        TableStatistics::new(100.0, vec![ColumnStatistics::with_distinct(10.0)]),
        TableStatistics::new(1000.0, vec![ColumnStatistics::with_distinct(100.0)]),
        TableStatistics::new(1000.0, vec![ColumnStatistics::with_distinct(1000.0)]),
    ]);
    let predicates = vec![
        Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
        Predicate::join_eq(ColumnRef::new(1, 0), ColumnRef::new(2, 0)).unwrap(),
    ];
    Els::prepare(&predicates, &stats, &ElsOptions::default().with_rule(rule)).unwrap()
}

#[test]
fn example_1b_selectivities_and_sizes() {
    // S_J1 = 0.01, S_J2 = 0.001, S_J3 = 0.001.
    let els = example_1b(SelectivityRule::LargestSelectivity);
    let mut sels: Vec<f64> =
        els.prepared().join_predicates().iter().map(|p| p.selectivity).collect();
    sels.sort_by(f64::total_cmp);
    assert_eq!(sels, vec![0.001, 0.001, 0.01]);
    // ||R2 ⋈ R3|| = 1000; ||R1 ⋈ R2 ⋈ R3|| = 1000.
    assert_eq!(els.estimate_order(&[1, 2]).unwrap(), vec![1000.0]);
    assert_eq!(exact::n_way(&[(100.0, 10.0), (1000.0, 100.0), (1000.0, 1000.0)]), 1000.0);
}

#[test]
fn example_2_rule_m_estimates_1() {
    let els = example_1b(SelectivityRule::Multiplicative);
    let sizes = els.estimate_order(&[1, 2, 0]).unwrap();
    assert_eq!(sizes, vec![1000.0, 1.0]);
}

#[test]
fn example_3_rule_ss_estimates_100_rule_ls_estimates_1000() {
    let ss = example_1b(SelectivityRule::SmallestSelectivity);
    assert_eq!(ss.estimate_order(&[1, 2, 0]).unwrap(), vec![1000.0, 100.0]);
    let ls = example_1b(SelectivityRule::LargestSelectivity);
    assert_eq!(ls.estimate_order(&[1, 2, 0]).unwrap(), vec![1000.0, 1000.0]);
}

#[test]
fn section_3_3_representative_rule_has_no_correct_value() {
    // Representative 0.01 -> 10000 (too high); 0.001 -> 100 (too low).
    use els::core::rules::RepresentativeStrategy;
    let stats = QueryStatistics::new(vec![
        TableStatistics::new(100.0, vec![ColumnStatistics::with_distinct(10.0)]),
        TableStatistics::new(1000.0, vec![ColumnStatistics::with_distinct(100.0)]),
        TableStatistics::new(1000.0, vec![ColumnStatistics::with_distinct(1000.0)]),
    ]);
    let predicates = vec![
        Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
        Predicate::join_eq(ColumnRef::new(1, 0), ColumnRef::new(2, 0)).unwrap(),
    ];
    let high = Els::prepare(
        &predicates,
        &stats,
        &ElsOptions::default()
            .with_rule(SelectivityRule::Representative)
            .with_representative(RepresentativeStrategy::LargestInClass),
    )
    .unwrap();
    assert_eq!(high.estimate_final(&[1, 2, 0]).unwrap(), 10_000.0);
    let low = Els::prepare(
        &predicates,
        &stats,
        &ElsOptions::default()
            .with_rule(SelectivityRule::Representative)
            .with_representative(RepresentativeStrategy::SmallestInClass),
    )
    .unwrap();
    assert_eq!(low.estimate_final(&[1, 2, 0]).unwrap(), 100.0);
}

#[test]
fn section_5_urn_example() {
    // d_x = 10000, ||R|| = 100000, ||R||' = 50000: urn gives 9933,
    // proportional gives 5000; with ||R||' = ||R|| the urn gives 10000.
    assert_eq!(urn::expected_distinct_rounded(10_000.0, 50_000.0).unwrap(), 9933.0);
    assert_eq!(urn::proportional_distinct(10_000.0, 50_000.0, 100_000.0).unwrap(), 5000.0);
    assert_eq!(urn::expected_distinct_rounded(10_000.0, 100_000.0).unwrap(), 10_000.0);
}

#[test]
fn section_6_same_table_example() {
    // ||R1||=100, d_x=100; ||R2||=1000, d_y=10, d_w=50;
    // R1.x = R2.y AND R1.x = R2.w.
    let stats = QueryStatistics::new(vec![
        TableStatistics::new(100.0, vec![ColumnStatistics::with_distinct(100.0)]),
        TableStatistics::new(
            1000.0,
            vec![ColumnStatistics::with_distinct(10.0), ColumnStatistics::with_distinct(50.0)],
        ),
    ]);
    let predicates = vec![
        Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
        Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 1)).unwrap(),
    ];
    let els = Els::prepare(&predicates, &stats, &ElsOptions::default()).unwrap();
    let adj = els.same_table_adjustments();
    assert_eq!(adj.len(), 1);
    assert_eq!(adj[0].cardinality_after, 20.0); // ||R2||' = 1000/50
    assert_eq!(adj[0].join_distinct, 9.0); // ceil(10 * (1 - 0.9^20))
}

#[test]
fn section_8_estimates_rows_2_and_3_exactly() {
    // Statistics of the S/M/B/G experiment; order M ⋈ B ⋈ S ⋈ G as in the
    // paper's table.
    let mk = |rows: f64| {
        TableStatistics::new(rows, vec![ColumnStatistics::with_domain(rows, 0.0, rows - 1.0)])
    };
    let stats = QueryStatistics::new(vec![mk(1000.0), mk(10_000.0), mk(50_000.0), mk(100_000.0)]);
    let predicates = vec![
        Predicate::col_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
        Predicate::col_eq(ColumnRef::new(1, 0), ColumnRef::new(2, 0)).unwrap(),
        Predicate::col_eq(ColumnRef::new(2, 0), ColumnRef::new(3, 0)).unwrap(),
        Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Lt, 100i64),
    ];
    let order = [1usize, 2, 0, 3];

    let sm = Els::prepare(&predicates, &stats, &ElsOptions::algorithm_sm()).unwrap();
    let sizes = sm.estimate_order(&order).unwrap();
    assert!((sizes[0] - 0.2).abs() < 1e-12);
    assert!((sizes[1] - 4e-8).abs() < 1e-20);
    assert!((sizes[2] - 4e-21).abs() < 1e-33);

    let sss = Els::prepare(&predicates, &stats, &ElsOptions::algorithm_sss()).unwrap();
    let sizes = sss.estimate_order(&order).unwrap();
    assert!((sizes[0] - 0.2).abs() < 1e-12);
    assert!((sizes[1] - 4e-4).abs() < 1e-16);
    assert!((sizes[2] - 4e-7).abs() < 1e-19);

    // ELS: every intermediate is 100 in any order (correct answer).
    let els = Els::prepare(&predicates, &stats, &ElsOptions::algorithm_els()).unwrap();
    for order in [[2usize, 3, 1, 0], [0, 1, 2, 3], [1, 2, 0, 3]] {
        let sizes = els.estimate_order(&order).unwrap();
        assert!(sizes.iter().all(|s| (s - 100.0).abs() < 1e-9), "{sizes:?}");
    }
}

#[test]
fn section_4_step1_duplicate_predicates_are_dropped() {
    // Queries like (R1.x > 500) AND (R1.x > 500).
    let stats = QueryStatistics::new(vec![TableStatistics::new(
        1000.0,
        vec![ColumnStatistics::with_domain(1000.0, 0.0, 999.0)],
    )]);
    let p = Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Gt, 500i64);
    let once = Els::prepare(std::slice::from_ref(&p), &stats, &ElsOptions::default()).unwrap();
    let twice = Els::prepare(&[p.clone(), p], &stats, &ElsOptions::default()).unwrap();
    assert_eq!(once.effective_cardinality(0).unwrap(), twice.effective_cardinality(0).unwrap());
    assert_eq!(twice.predicates().len(), 1);
}
