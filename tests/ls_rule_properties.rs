//! Property tests for the paper's central claim: under the model
//! assumptions, incremental estimation with Rule LS agrees with the closed
//! form of Equation 3 — for any statistics and any join order — while
//! Rules M and SS only ever underestimate (paper, Sections 3 and 7).
//!
//! An estimator that reports `order_independent()` promises more: the same
//! bits for a join set however it was built. Checked here over random join
//! graphs for every left-deep order and every bushy split, and checked not
//! to be claimed by the configurations that are order dependent.

use std::collections::HashMap;

use els::core::correction::CorrectionSource;
use els::core::exact;
use els::core::prelude::*;
use els::core::selectivity::NoOracle;
use els::core::PreparedQuery;
use proptest::prelude::*;

/// Build a single-equivalence-class chain query over `dims` tables, where
/// `dims[i] = (cardinality, join-column distinct)`.
fn chain_query(dims: &[(f64, f64)], rule: SelectivityRule) -> Els {
    let stats = QueryStatistics::new(
        dims.iter()
            .map(|&(rows, d)| TableStatistics::new(rows, vec![ColumnStatistics::with_distinct(d)]))
            .collect(),
    );
    let predicates: Vec<Predicate> = (1..dims.len())
        .map(|i| Predicate::join_eq(ColumnRef::new(i - 1, 0), ColumnRef::new(i, 0)).unwrap())
        .collect();
    Els::prepare(&predicates, &stats, &ElsOptions::default().with_rule(rule)).unwrap()
}

/// Random table dimensions: distinct count <= cardinality.
fn dims_strategy(n: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((1u64..5000, 1u64..5000), n..=n).prop_map(|v| {
        v.into_iter()
            .map(|(rows, d)| {
                let rows = rows.max(d) as f64;
                (rows, d as f64)
            })
            .collect()
    })
}

/// All permutations of 0..n (n small).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for i in 0..=p.len() {
            let mut q = p.clone();
            q.insert(i, n - 1);
            out.push(q);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's Section 7 proof, checked numerically: Rule LS's
    /// incremental estimate equals Equation 3 for every join order.
    #[test]
    fn ls_matches_equation_3_for_every_order(dims in dims_strategy(4)) {
        let els = chain_query(&dims, SelectivityRule::LargestSelectivity);
        let truth = exact::n_way(&dims);
        for order in permutations(dims.len()) {
            let estimate = els.estimate_final(&order).unwrap();
            let rel = (estimate - truth).abs() / truth.max(1e-12);
            prop_assert!(rel < 1e-9,
                "order {order:?}: LS {estimate} != Eq3 {truth} for dims {dims:?}");
        }
    }

    /// Consequently Rule LS is join-order independent — to the bit, since
    /// the query declares it.
    #[test]
    fn ls_is_order_independent(dims in dims_strategy(5)) {
        let els = chain_query(&dims, SelectivityRule::LargestSelectivity);
        prop_assert!(els.order_independent());
        let reference = els.estimate_final(&[0, 1, 2, 3, 4]).unwrap();
        for order in [[4usize, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 4, 0, 3, 2]] {
            let estimate = els.estimate_final(&order).unwrap();
            prop_assert_eq!(
                estimate.to_bits(), reference.to_bits(),
                "order {:?}: {} != {}", order, estimate, reference
            );
        }
    }

    /// Els under Rule LS with closure, the UES bound and the no-estimates
    /// baseline all declare order independence on any join graph, and
    /// keep the promise.
    #[test]
    fn declared_estimators_are_set_functions_to_the_bit(g in graph_strategy()) {
        let estimators: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(Els::prepare(&g.predicates, &g.stats, &ElsOptions::default()).unwrap()),
            Box::new(UpperBoundEstimator::new(&g.predicates, &g.stats).unwrap()),
            Box::new(NoEstimatesEstimator::new(&g.predicates, &g.stats).unwrap()),
        ];
        for est in &estimators {
            prop_assert!(est.order_independent(), "{} does not declare", est.name());
            check_set_function(est.as_ref())?;
        }
    }

    /// Feedback corrections scale every edge of a class by one factor,
    /// which keeps each class's pair selectivities `min(s_i, s_j)`: the
    /// corrected estimator still declares, and still keeps the promise.
    #[test]
    fn class_wide_corrections_keep_the_set_function(g in graph_strategy(), factor in 0.1f64..8.0) {
        let els = Els::prepare_full(
            &g.predicates, &g.stats, &ElsOptions::default(), &NoOracle, &EveryJoin(factor),
        ).unwrap();
        prop_assert!(els.order_independent());
        check_set_function(&els)?;
    }

    /// Rules M and SS never exceed LS (they underestimate within a class).
    #[test]
    fn m_and_ss_never_exceed_ls(dims in dims_strategy(4)) {
        let ls = chain_query(&dims, SelectivityRule::LargestSelectivity);
        let ss = chain_query(&dims, SelectivityRule::SmallestSelectivity);
        let m = chain_query(&dims, SelectivityRule::Multiplicative);
        for order in permutations(dims.len()) {
            let e_ls = ls.estimate_final(&order).unwrap();
            let e_ss = ss.estimate_final(&order).unwrap();
            let e_m = m.estimate_final(&order).unwrap();
            prop_assert!(e_m <= e_ss * (1.0 + 1e-9), "M {e_m} > SS {e_ss} for {order:?}");
            prop_assert!(e_ss <= e_ls * (1.0 + 1e-9), "SS {e_ss} > LS {e_ls} for {order:?}");
        }
    }

    /// Two independent equivalence classes multiply (Section 7): the
    /// estimate of a query with two disjoint join-column classes equals the
    /// product of the per-class reductions.
    #[test]
    fn independent_classes_compose_multiplicatively(
        a in dims_strategy(3),
        b in dims_strategy(3),
    ) {
        // Three tables, each with two join columns; class A links column 0
        // across tables, class B links column 1.
        let stats = QueryStatistics::new(
            (0..3)
                .map(|i| {
                    let rows = a[i].0.max(b[i].0);
                    TableStatistics::new(
                        rows,
                        vec![
                            ColumnStatistics::with_distinct(a[i].1),
                            ColumnStatistics::with_distinct(b[i].1),
                        ],
                    )
                })
                .collect(),
        );
        let rows: Vec<f64> = (0..3).map(|i| a[i].0.max(b[i].0)).collect();
        let predicates = vec![
            Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
            Predicate::join_eq(ColumnRef::new(1, 0), ColumnRef::new(2, 0)).unwrap(),
            Predicate::join_eq(ColumnRef::new(0, 1), ColumnRef::new(1, 1)).unwrap(),
            Predicate::join_eq(ColumnRef::new(1, 1), ColumnRef::new(2, 1)).unwrap(),
        ];
        let els = Els::prepare(&predicates, &stats, &ElsOptions::default()).unwrap();
        let estimate = els.estimate_final(&[0, 1, 2]).unwrap();

        // Expected: prod(rows) / (prod d_a except min) / (prod d_b except min).
        let da: Vec<f64> = a.iter().map(|x| x.1).collect();
        let db: Vec<f64> = b.iter().map(|x| x.1).collect();
        let prod_except_min = |d: &[f64]| {
            let min = d.iter().copied().fold(f64::INFINITY, f64::min);
            d.iter().product::<f64>() / min
        };
        let expected: f64 =
            rows.iter().product::<f64>() / prod_except_min(&da) / prod_except_min(&db);
        let rel = (estimate - expected).abs() / expected.max(1e-12);
        prop_assert!(rel < 1e-9, "estimate {estimate} != expected {expected}");
    }
}

#[test]
fn ls_handles_equal_distinct_counts() {
    // Degenerate ties: all d equal; any order, estimate = prod rows / d^(n-1).
    let dims = vec![(100.0, 10.0); 4];
    let els = chain_query(&dims, SelectivityRule::LargestSelectivity);
    let expected = 100.0f64.powi(4) / 10.0f64.powi(3);
    for order in permutations(4) {
        assert_eq!(els.estimate_final(&order).unwrap(), expected);
    }
}

#[test]
fn single_join_all_rules_agree() {
    // With one eligible predicate there is nothing to choose: M = SS = LS.
    let dims = vec![(100.0, 10.0), (200.0, 50.0)];
    for rule in [
        SelectivityRule::Multiplicative,
        SelectivityRule::SmallestSelectivity,
        SelectivityRule::LargestSelectivity,
    ] {
        let els = chain_query(&dims, rule);
        assert_eq!(els.estimate_final(&[0, 1]).unwrap(), 100.0 * 200.0 / 50.0);
    }
}

/// A join graph over three to five tables of two columns each: random
/// equalities (some between two columns of one table), at most one
/// inequality, and a filter on some tables.
#[derive(Debug, Clone)]
struct Graph {
    stats: QueryStatistics,
    predicates: Vec<Predicate>,
}

fn graph_strategy() -> impl Strategy<Value = Graph> {
    (
        3usize..=5,
        proptest::collection::vec((2u64..5000, 1u64..5000, 1u64..5000), 5),
        proptest::collection::vec((0..5usize, 0..2usize, 0..5usize, 0..2usize), 1..8),
        proptest::option::of((0..5usize, 0..5usize)),
        proptest::collection::vec(proptest::option::of(1i64..2000), 5),
    )
        .prop_map(|(n, mut tables, equalities, range, cuts)| {
            tables.truncate(n);
            let within = |(a, ca, b, cb): (usize, usize, usize, usize)| (a % n, ca, b % n, cb);
            let equalities = equalities.into_iter().map(within);
            let range = range.map(|(a, b)| (a % n, b % n));
            let stats = QueryStatistics::new(
                tables
                    .iter()
                    .map(|&(rows, d0, d1)| {
                        let column = |d: u64| {
                            let d = d.min(rows) as f64;
                            ColumnStatistics::with_domain(d, 0.0, d - 1.0)
                        };
                        TableStatistics::new(rows as f64, vec![column(d0), column(d1)])
                    })
                    .collect(),
            );
            let mut predicates: Vec<Predicate> = equalities
                .filter(|&(a, ca, b, cb)| (a, ca) != (b, cb))
                .map(|(a, ca, b, cb)| {
                    Predicate::col_eq(ColumnRef::new(a, ca), ColumnRef::new(b, cb)).unwrap()
                })
                .collect();
            if let Some((a, b)) = range.filter(|(a, b)| a != b) {
                predicates.push(
                    Predicate::join_range(ColumnRef::new(a, 1), CmpOp::Lt, ColumnRef::new(b, 1))
                        .unwrap(),
                );
            }
            for (t, cut) in cuts.into_iter().take(n).enumerate() {
                if let Some(cut) = cut {
                    predicates.push(Predicate::local_cmp(ColumnRef::new(t, 0), CmpOp::Lt, cut));
                }
            }
            Graph { stats, predicates }
        })
}

/// Every table subset's estimate along ascending tables is the reference;
/// every prefix of every left-deep order of all tables, and every split of
/// every subset into two joined halves, must reproduce its bits.
fn check_set_function(est: &dyn CardinalityEstimator) -> Result<(), TestCaseError> {
    let n = est.num_tables();
    let by_set: Vec<Option<JoinState>> = (0usize..1 << n)
        .map(|mask| {
            let mut tables = (0..n).filter(|t| mask & (1 << t) != 0);
            let first = tables.next()?;
            Some(tables.fold(est.initial_state(first).unwrap(), |s, t| est.join(&s, t).unwrap()))
        })
        .collect();
    let bits = |mask: usize| by_set[mask].unwrap().cardinality().to_bits();
    for order in permutations(n) {
        let mut state = est.initial_state(order[0]).unwrap();
        for &t in &order[1..] {
            state = est.join(&state, t).unwrap();
            let mask = state.table_mask() as usize;
            prop_assert_eq!(
                state.cardinality().to_bits(),
                bits(mask),
                "{} order {:?}, prefix {:#b}",
                est.name(),
                order,
                mask
            );
        }
    }
    for mask in 1usize..1 << n {
        let mut left = (mask - 1) & mask;
        while left > 0 {
            let (l, r) = (by_set[left].unwrap(), by_set[mask ^ left].unwrap());
            let joined = est.join_sets(&l, &r).unwrap();
            prop_assert_eq!(
                joined.cardinality().to_bits(),
                bits(mask),
                "{} split {:#b} | {:#b}",
                est.name(),
                left,
                mask ^ left
            );
            left = (left - 1) & mask;
        }
    }
    Ok(())
}

/// The same feedback factor for every join class.
struct EveryJoin(f64);

impl CorrectionSource for EveryJoin {
    fn scan_correction(&self, _: usize, _: &str) -> Option<f64> {
        None
    }

    fn join_correction(&self, _: &[ColumnRef]) -> Option<f64> {
        Some(self.0)
    }
}

/// The paper's Example 1b under each rule: three tables in one class.
fn example_1b(rule: SelectivityRule) -> Els {
    chain_query(&[(100.0, 10.0), (1000.0, 100.0), (1000.0, 1000.0)], rule)
}

#[test]
fn order_dependent_configurations_do_not_declare() {
    // Rules M and SS choose among a step's eligible edges otherwise than
    // Equation 3 does (Examples 2 and 3).
    for rule in [SelectivityRule::Multiplicative, SelectivityRule::SmallestSelectivity] {
        assert!(!example_1b(rule).order_independent(), "{rule:?}");
    }
    // Closure off: the chain is no clique, and joining the two ends first
    // (a cartesian step) leaves one edge uncounted.
    let stats = QueryStatistics::new(
        [(100.0, 10.0), (1000.0, 100.0), (1000.0, 1000.0)]
            .iter()
            .map(|&(rows, d)| TableStatistics::new(rows, vec![ColumnStatistics::with_distinct(d)]))
            .collect(),
    );
    let chain = [
        Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
        Predicate::join_eq(ColumnRef::new(1, 0), ColumnRef::new(2, 0)).unwrap(),
    ];
    let open = Els::prepare(&chain, &stats, &ElsOptions::default().with_closure(false)).unwrap();
    assert!(!open.order_independent());
    assert_ne!(open.estimate_final(&[0, 1, 2]).unwrap(), open.estimate_final(&[0, 2, 1]).unwrap());
}

#[test]
fn one_corrected_join_edge_does_not_declare() {
    // Example 1b's pair selectivities are min(s_i, s_j) for s = (1/10,
    // 1/100, 1/1000)... until one edge alone is corrected by a factor 5.
    let els = example_1b(SelectivityRule::LargestSelectivity);
    let q = els.prepared();
    assert!(q.order_independent());
    let cards: Vec<f64> = (0..3).map(|t| q.base_cardinality(t).unwrap()).collect();
    let mut infos = q.join_predicates().to_vec();
    let edge = infos.iter_mut().find(|p| (p.left.table, p.right.table) == (0, 2)).unwrap();
    edge.selectivity *= 5.0;
    let corrected = PreparedQuery::from_parts(
        cards,
        infos,
        HashMap::new(),
        SelectivityRule::LargestSelectivity,
    );
    assert!(!corrected.order_independent());
    let last = |order: &[usize]| *corrected.estimate_order(order).unwrap().last().unwrap();
    assert_ne!(last(&[0, 2, 1]), last(&[1, 2, 0]));
}
