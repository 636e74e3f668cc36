//! Differential tests for the `CardinalityEstimator` trait.
//!
//! Enumeration and analysis reach every estimator through
//! `&dyn CardinalityEstimator`, whose provided `join` is `join_sets` with
//! the new table's initial state. These tests pin that the two transitions
//! agree to the bit — across the paper's four Section 8 presets, every
//! selectivity rule and both rival estimators — and fail alike, and that
//! the UES contender really is an upper bound on the bench workloads.

use els_bench::accuracy::{analyze, contender};
use els_bench::{chain_predicates, chain_statistics};
use els_core::{
    CardinalityEstimator, Els, ElsError, ElsOptions, NoEstimatesEstimator, SelectivityRule,
    UpperBoundEstimator,
};
use els_optimizer::{EstimatorPreset, EstimatorStrategy, OptimizerOptions};
use els_storage::datagen::starburst_experiment_tables_sized;

/// The Section 8 chain's statistics at benchmark scale: `(rows, distinct)`
/// for S/M/B/G, one join column per table.
fn section8_dims() -> Vec<(f64, f64)> {
    vec![(1_000.0, 1_000.0), (10_000.0, 1_000.0), (50_000.0, 5_000.0), (100_000.0, 10_000.0)]
}

/// All left-deep orders of a 4-table query.
fn orders() -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for a in 0..4usize {
        for b in 0..4 {
            for c in 0..4 {
                for d in 0..4 {
                    let o = vec![a, b, c, d];
                    let mut s = o.clone();
                    s.sort_unstable();
                    s.dedup();
                    if s.len() == 4 {
                        out.push(o);
                    }
                }
            }
        }
    }
    out
}

/// Every estimator over the Section 8 chain: `Els` under the four presets
/// and under each rule, the UES bound and the no-estimates baseline.
fn estimators() -> Vec<(String, Box<dyn CardinalityEstimator>)> {
    let stats = chain_statistics(&section8_dims());
    let preds = chain_predicates(4);
    let els = |options: &ElsOptions| Box::new(Els::prepare(&preds, &stats, options).unwrap());
    let mut out: Vec<(String, Box<dyn CardinalityEstimator>)> = Vec::new();
    let presets =
        [EstimatorPreset::SmNoPtc, EstimatorPreset::Sm, EstimatorPreset::Sss, EstimatorPreset::Els];
    for preset in presets {
        out.push((format!("{preset:?}"), els(&OptimizerOptions::preset(preset).els)));
    }
    let rules = [
        SelectivityRule::Multiplicative,
        SelectivityRule::SmallestSelectivity,
        SelectivityRule::LargestSelectivity,
        SelectivityRule::Representative,
    ];
    for rule in rules {
        out.push((format!("{rule:?}"), els(&ElsOptions::default().with_rule(rule))));
    }
    out.push(("ues".into(), Box::new(UpperBoundEstimator::new(&preds, &stats).unwrap())));
    out.push(("none".into(), Box::new(NoEstimatesEstimator::new(&preds, &stats).unwrap())));
    out
}

#[test]
fn join_is_join_sets_with_the_initial_state_on_every_order() {
    for (name, est) in estimators() {
        for order in orders() {
            let mut state = est.initial_state(order[0]).expect("state starts");
            for &t in &order[1..] {
                let joined = est.join(&state, t).expect("state extends");
                let single = est.initial_state(t).expect("table starts");
                let paired = est.join_sets(&state, &single).expect("sets join");
                assert_eq!(joined.table_mask(), paired.table_mask(), "{name} on {order:?}");
                assert_eq!(
                    joined.cardinality().to_bits(),
                    paired.cardinality().to_bits(),
                    "{name} diverged at {t} on {order:?}"
                );
                state = joined;
            }
        }
    }
}

#[test]
fn join_and_join_sets_fail_alike() {
    for (name, est) in estimators() {
        for order in orders() {
            let mut state = est.initial_state(order[0]).expect("state starts");
            for &t in &order[1..] {
                state = est.join(&state, t).expect("state extends");
                // Every table of the state is already joined: both
                // transitions refuse it, naming the table.
                for &done in order.iter().filter(|&&u| state.table_mask() & (1 << u) != 0) {
                    let single = est.initial_state(done).expect("table starts");
                    for err in [est.join(&state, done), est.join_sets(&state, &single)] {
                        assert!(
                            matches!(err, Err(ElsError::InvalidJoinStep { table, .. }) if table == done),
                            "{name}: {err:?} re-joining {done}"
                        );
                    }
                }
            }
            // A table outside the query, or outside the 64-table state mask,
            // has no initial state to hand `join_sets`, and `join` fails
            // with the same error.
            for bad in [4, 64, usize::MAX] {
                let expected = est.initial_state(bad);
                assert!(
                    matches!(
                        expected,
                        Err(ElsError::InvalidJoinStep { table, reason: "table out of range" })
                            if table == bad
                    ),
                    "{name}: {expected:?}"
                );
                assert_eq!(est.join(&state, bad), expected, "{name} on {bad}");
            }
        }
    }
}

#[test]
fn ues_bound_holds_on_the_bench_workloads() {
    // Every measured join under the UpperBound strategy must estimate at
    // or above the observed actual — on the filtered Section 8 chain and
    // on an unfiltered two-table probe, at two different scales.
    let workloads = [
        "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100",
        "SELECT COUNT(*) FROM M, G WHERE m = g",
        "SELECT COUNT(*) FROM S, M WHERE s = m",
    ];
    for scale in [[50usize, 500, 2_000, 4_000], [100, 1_000, 5_000, 10_000]] {
        let options = OptimizerOptions::default().with_bushy_trees().with_hash_join();
        let tables = starburst_experiment_tables_sized(7, &scale);
        let engine = contender(options, EstimatorStrategy::UpperBound, &tables);
        for (sql, report) in workloads.iter().zip(analyze(&engine, &workloads).0) {
            for op in report.join_operators() {
                assert!(
                    op.estimated >= op.actual as f64,
                    "UES under-estimated {sql:?} at scale {scale:?}: {} < {}",
                    op.estimated,
                    op.actual
                );
            }
        }
    }
}
