//! Differential tests for the `CardinalityEstimator` trait refactor.
//!
//! The refactor routed all enumeration and analysis through
//! `&dyn CardinalityEstimator`; these tests pin that the trait path is
//! bit-exact with the inherent `Els` methods it delegates to — across the
//! paper's four Section 8 presets and every selectivity rule — and that
//! the UES contender really is an upper bound on the bench workloads.

use els_bench::accuracy::{analyze, contender};
use els_bench::{chain_predicates, chain_statistics};
use els_core::{CardinalityEstimator, Els, SelectivityRule};
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

#[test]
fn trait_path_is_bit_exact_with_inherent_els_across_presets() {
    let stats = chain_statistics(&section8_dims());
    let preds = chain_predicates(4);
    let presets =
        [EstimatorPreset::SmNoPtc, EstimatorPreset::Sm, EstimatorPreset::Sss, EstimatorPreset::Els];
    for preset in presets {
        let options = OptimizerOptions::preset(preset);
        let els = Els::prepare(&preds, &stats, &options.els).expect("fixture prepares");
        let dynamic: &dyn CardinalityEstimator = &els;
        for order in orders() {
            let direct = els.estimate_order(&order).expect("direct path estimates");
            let via_trait = dynamic.estimate_order(&order).expect("trait path estimates");
            assert_eq!(direct.len(), via_trait.len());
            for (d, t) in direct.iter().zip(&via_trait) {
                assert_eq!(d.to_bits(), t.to_bits(), "{preset:?} diverged on {order:?}");
            }
        }
    }
}

#[test]
fn trait_path_is_bit_exact_with_inherent_els_across_rules() {
    let stats = chain_statistics(&section8_dims());
    let preds = chain_predicates(4);
    let rules = [
        SelectivityRule::Multiplicative,
        SelectivityRule::SmallestSelectivity,
        SelectivityRule::LargestSelectivity,
        SelectivityRule::Representative,
    ];
    for rule in rules {
        let els_options = els_core::ElsOptions::default().with_rule(rule);
        let els = Els::prepare(&preds, &stats, &els_options).expect("fixture prepares");
        let dynamic: &dyn CardinalityEstimator = &els;
        for order in orders() {
            let direct = els.estimate_order(&order).expect("direct path estimates");
            let via_trait = dynamic.estimate_order(&order).expect("trait path estimates");
            for (d, t) in direct.iter().zip(&via_trait) {
                assert_eq!(d.to_bits(), t.to_bits(), "{rule:?} diverged on {order:?}");
            }
        }
        // The two state-transition entry points agree with the batch path.
        let mut state = dynamic.initial_state(0).expect("state starts");
        for &t in &[1usize, 2, 3] {
            state = dynamic.join(&state, t).expect("state extends");
        }
        let direct = els.estimate_order(&[0, 1, 2, 3]).expect("direct path estimates");
        assert_eq!(state.cardinality().to_bits(), direct.last().unwrap().to_bits());
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
