//! The headline reproduction (experiment T1) as a test, so `cargo test`
//! guards the paper's Section 8 shape end to end:
//!
//! * PTC+Rule-M's estimates collapse through (1, 4·10⁻⁸, 4·10⁻²¹);
//! * PTC+Rule-SS's through (1, 2·10⁻³, 2·10⁻⁶) on the optimizer's order;
//! * ELS estimates exactly 100 everywhere;
//! * every plan computes the true count (100);
//! * the misled plans pay ≥10× the ELS plan's I/O (the paper's 9–12×).

use els_bench::{section8_catalog, SECTION8_SQL};
use els_core::CardinalityEstimator;
use els_exec::{execute_plan_with, ExecMode};
use els_optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};
use els_sql::{bind, parse};

#[test]
fn section8_experiment_shape_holds() {
    let catalog = section8_catalog(42);
    let bound = bind(&parse(SECTION8_SQL).unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();

    let mut pages = std::collections::HashMap::new();
    for preset in EstimatorPreset::all() {
        let optimized =
            optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset)).unwrap();
        let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
        assert_eq!(out.count, 100, "{} computed a wrong answer", preset.label());
        pages.insert(preset.label(), out.metrics.pages_read);

        match preset {
            EstimatorPreset::Els => {
                for s in &optimized.estimated_sizes {
                    assert!(
                        (s - 100.0).abs() < 1e-6,
                        "ELS must estimate 100 everywhere, got {:?}",
                        optimized.estimated_sizes
                    );
                }
            }
            EstimatorPreset::Sm => {
                let last = *optimized.estimated_sizes.last().unwrap();
                assert!(last < 1e-15, "PTC+M must collapse, got {last}");
            }
            EstimatorPreset::Sss => {
                let last = *optimized.estimated_sizes.last().unwrap();
                assert!(last < 1.0, "PTC+SS must underestimate, got {last}");
            }
            EstimatorPreset::SmNoPtc => {}
        }
    }

    let els_pages = pages["Orig. ELS"];
    for label in ["Orig.+PTC SM", "Orig.+PTC SSS"] {
        assert!(
            pages[label] >= 10 * els_pages,
            "{label} should pay >=10x the ELS plan's I/O: {} vs {els_pages}",
            pages[label]
        );
    }
}

#[test]
fn paper_join_order_reproduces_rows_2_and_3_exactly() {
    // On the paper's own order M ⋈ B ⋈ S ⋈ G the estimate sequences match
    // the published table digits exactly.
    let catalog = section8_catalog(42);
    let bound = bind(&parse(SECTION8_SQL).unwrap(), &catalog).unwrap();
    let order = [1usize, 2, 0, 3];

    let sm =
        optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Sm)).unwrap();
    let sizes = sm.els.estimate_order(&order).unwrap();
    assert!((sizes[0] - 0.2).abs() < 1e-12, "{sizes:?}");
    assert!((sizes[1] - 4e-8).abs() < 1e-20, "{sizes:?}");
    assert!((sizes[2] - 4e-21).abs() < 1e-33, "{sizes:?}");

    let sss =
        optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Sss)).unwrap();
    let sizes = sss.els.estimate_order(&order).unwrap();
    assert!((sizes[0] - 0.2).abs() < 1e-12, "{sizes:?}");
    assert!((sizes[1] - 4e-4).abs() < 1e-16, "{sizes:?}");
    assert!((sizes[2] - 4e-7).abs() < 1e-19, "{sizes:?}");

    // ELS: the paper's chosen order B ⋈ G ⋈ M ⋈ S gives (100, 100, 100).
    let els =
        optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Els)).unwrap();
    let sizes = els.els.estimate_order(&[2, 3, 1, 0]).unwrap();
    assert_eq!(sizes, vec![100.0, 100.0, 100.0]);
}
