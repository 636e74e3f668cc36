//! Join-predicate selectivities (Algorithm ELS, Step 5; paper Equation 2).
//!
//! The selectivity of a join predicate `R1.x1 = R2.x2` is
//!
//! ```text
//! S_J = 1 / max(d1, d2)
//! ```
//!
//! derived from the uniformity and containment assumptions (paper,
//! Section 2). Which `d` values are plugged in distinguishes the paper's
//! algorithm from the standard one: **ELS** uses the *effective* column
//! cardinalities after Steps 4–5, the **standard** algorithm the original
//! (unreduced) ones.

use crate::correction::CorrectionSource;
use crate::equivalence::EquivalenceClasses;
use crate::error::{ElsError, ElsResult};
use crate::ids::{ClassId, ColumnRef};
use crate::predicate::{CmpOp, Predicate};
use crate::selectivity::{model_join_range_selectivity, SelectivityOracle};
use crate::stats::QueryStatistics;

/// Equation 2: selectivity of one join predicate from its two column
/// cardinalities. Returns 0 when either column is empty (an empty side makes
/// the join empty, which a factor of 0 propagates).
pub(crate) fn join_selectivity(d_left: f64, d_right: f64) -> f64 {
    let m = d_left.max(d_right);
    if d_left <= 0.0 || d_right <= 0.0 {
        return 0.0;
    }
    1.0 / m
}

/// One join predicate, annotated for the incremental estimator.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JoinPredicateInfo {
    /// Left column (lower-numbered table).
    pub left: ColumnRef,
    /// Right column (higher-numbered table).
    pub right: ColumnRef,
    /// The j-equivalence class both sides belong to.
    pub class: ClassId,
    /// Equation 2 selectivity, computed from the chosen distinct counts.
    pub selectivity: f64,
}

/// Annotate every [`Predicate::JoinEq`] in `predicates` with its class and
/// selectivity. `distinct_of` supplies the column cardinality to use (the
/// caller decides between effective and original values).
pub(crate) fn annotate_join_predicates(
    predicates: &[Predicate],
    classes: &EquivalenceClasses,
    mut distinct_of: impl FnMut(ColumnRef) -> f64,
) -> ElsResult<Vec<JoinPredicateInfo>> {
    let mut out = Vec::new();
    for p in predicates {
        if let Predicate::JoinEq { left, right } = p {
            let class = classes.class_of(*left).ok_or_else(|| {
                ElsError::MalformedPredicate(format!(
                    "join predicate {p} has no equivalence class (classes must be built \
                     from the same predicate set)"
                ))
            })?;
            debug_assert_eq!(classes.class_of(*right), Some(class));
            let selectivity = join_selectivity(distinct_of(*left), distinct_of(*right));
            out.push(JoinPredicateInfo { left: *left, right: *right, class, selectivity });
        }
    }
    Ok(out)
}

/// [`annotate_join_predicates`] with a feedback hook: each annotated
/// predicate's Equation 2 selectivity is multiplied by the published
/// correction of its equivalence class (if any) and clamped back into
/// `[0, 1]`. Every predicate of a class receives the *same* factor — a
/// uniform scaling that preserves the relative ordering rule LS selects
/// by, which is why corrections compose with the paper's Step 6 instead
/// of replacing it.
pub(crate) fn annotate_join_predicates_corrected(
    predicates: &[Predicate],
    classes: &EquivalenceClasses,
    distinct_of: impl FnMut(ColumnRef) -> f64,
    corrections: &dyn CorrectionSource,
) -> ElsResult<Vec<JoinPredicateInfo>> {
    let mut infos = annotate_join_predicates(predicates, classes, distinct_of)?;
    for info in &mut infos {
        if let Some(corr) = corrections.join_correction(classes.members(info.class)) {
            if corr.is_finite() && corr > 0.0 {
                info.selectivity = (info.selectivity * corr).clamp(0.0, 1.0);
            }
        }
    }
    Ok(infos)
}

/// One inequality join predicate, annotated for the incremental estimator.
/// Unlike [`JoinPredicateInfo`], range predicates have no equivalence class:
/// each one multiplies its selectivity into the step that first crosses it,
/// like an extra restriction on the cross product.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RangePredicateInfo {
    /// Left column (lower-numbered table).
    pub left: ColumnRef,
    /// The range operator.
    pub op: CmpOp,
    /// Right column (higher-numbered table).
    pub right: ColumnRef,
    /// Estimated selectivity over the cross product of the two tables.
    pub selectivity: f64,
}

/// Annotate every [`Predicate::JoinRange`] in `predicates` with its
/// selectivity: the oracle (histogram integration in `els-catalog`) is
/// consulted first, then the uniform-domain model over the base column
/// statistics, and finally the feedback correction for the predicate's
/// inequality key is multiplied in and the result clamped to `[0, 1]`.
pub(crate) fn annotate_range_predicates(
    predicates: &[Predicate],
    stats: &QueryStatistics,
    oracle: &dyn SelectivityOracle,
    corrections: &dyn CorrectionSource,
) -> ElsResult<Vec<RangePredicateInfo>> {
    let mut out = Vec::new();
    for p in predicates {
        if let Predicate::JoinRange { left, op, right } = p {
            let mut selectivity = match oracle.join_range_selectivity(*left, *op, *right) {
                Some(s) => s.clamp(0.0, 1.0),
                None => {
                    model_join_range_selectivity(stats.column(*left)?, *op, stats.column(*right)?)?
                }
            };
            if let Some(corr) = corrections.range_correction(*left, *op, *right) {
                if corr.is_finite() && corr > 0.0 {
                    selectivity = (selectivity * corr).clamp(0.0, 1.0);
                }
            }
            out.push(RangePredicateInfo { left: *left, op: *op, right: *right, selectivity });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    #[test]
    fn example_1b_selectivities() {
        // d_x=10, d_y=100, d_z=1000 (paper Example 1b).
        assert_eq!(join_selectivity(10.0, 100.0), 0.01); // J1
        assert_eq!(join_selectivity(100.0, 1000.0), 0.001); // J2
        assert_eq!(join_selectivity(10.0, 1000.0), 0.001); // J3
    }

    #[test]
    fn selectivity_is_symmetric() {
        assert_eq!(join_selectivity(7.0, 3.0), join_selectivity(3.0, 7.0));
    }

    #[test]
    fn empty_side_gives_zero() {
        assert_eq!(join_selectivity(0.0, 100.0), 0.0);
        assert_eq!(join_selectivity(10.0, 0.0), 0.0);
    }

    #[test]
    fn annotate_assigns_classes_and_selectivities() {
        let preds = crate::closure::transitive_closure(&[
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
        ]);
        let classes = EquivalenceClasses::from_predicates(&preds);
        let d = |cr: ColumnRef| [10.0, 100.0, 1000.0][cr.table];
        let infos = annotate_join_predicates(&preds, &classes, d).unwrap();
        assert_eq!(infos.len(), 3);
        assert!(infos.iter().all(|i| i.class == ClassId(0)));
        let mut sels: Vec<f64> = infos.iter().map(|i| i.selectivity).collect();
        sels.sort_by(f64::total_cmp);
        assert_eq!(sels, vec![0.001, 0.001, 0.01]);
    }

    #[test]
    fn annotate_rejects_classless_join_predicate() {
        // Classes built from a *different* predicate set than the join list.
        let classes = EquivalenceClasses::from_predicates(&[]);
        let preds = vec![Predicate::col_eq(c(0, 0), c(1, 0)).unwrap()];
        let err = annotate_join_predicates(&preds, &classes, |_| 1.0).unwrap_err();
        assert!(matches!(err, ElsError::MalformedPredicate(_)));
    }

    #[test]
    fn corrected_annotation_scales_whole_classes_uniformly() {
        struct PerClass;
        impl CorrectionSource for PerClass {
            fn scan_correction(&self, _: usize, _: &str) -> Option<f64> {
                None
            }
            fn join_correction(&self, members: &[ColumnRef]) -> Option<f64> {
                // Receives the full sorted member set, so the key cannot
                // depend on which predicate of the class asks.
                assert_eq!(members, &[c(0, 0), c(1, 0), c(2, 0)][..]);
                Some(10.0)
            }
        }
        let preds = crate::closure::transitive_closure(&[
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
        ]);
        let classes = EquivalenceClasses::from_predicates(&preds);
        let d = |cr: ColumnRef| [10.0, 100.0, 1000.0][cr.table];
        let plain = annotate_join_predicates(&preds, &classes, d).unwrap();
        let corrected = annotate_join_predicates_corrected(&preds, &classes, d, &PerClass).unwrap();
        for (p, q) in plain.iter().zip(&corrected) {
            assert!((q.selectivity - (p.selectivity * 10.0).min(1.0)).abs() < 1e-12);
        }
        // Uniform scaling preserves the LS ordering within the class.
        let max_plain = plain.iter().map(|i| i.selectivity).fold(f64::NEG_INFINITY, f64::max);
        let max_corr = corrected.iter().map(|i| i.selectivity).fold(f64::NEG_INFINITY, f64::max);
        assert!((max_corr - (max_plain * 10.0).min(1.0)).abs() < 1e-12);
        // Degenerate factors are ignored; NoCorrections is the identity.
        struct Bad;
        impl CorrectionSource for Bad {
            fn scan_correction(&self, _: usize, _: &str) -> Option<f64> {
                None
            }
            fn join_correction(&self, _: &[ColumnRef]) -> Option<f64> {
                Some(f64::NAN)
            }
        }
        let ignored = annotate_join_predicates_corrected(&preds, &classes, d, &Bad).unwrap();
        assert_eq!(ignored, plain);
        let identity = annotate_join_predicates_corrected(
            &preds,
            &classes,
            d,
            &crate::correction::NoCorrections,
        )
        .unwrap();
        assert_eq!(identity, plain);
    }

    #[test]
    fn annotate_range_predicates_uses_model_oracle_and_corrections() {
        use crate::stats::{ColumnStatistics, TableStatistics};
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(100.0, vec![ColumnStatistics::with_domain(100.0, 0.0, 99.0)]),
            TableStatistics::new(100.0, vec![ColumnStatistics::with_domain(100.0, 0.0, 99.0)]),
        ]);
        let preds = vec![
            Predicate::join_range(c(0, 0), CmpOp::Lt, c(1, 0)).unwrap(),
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
        ];
        // Model path: identical 100-point grids → (d−1)/2d = 0.495.
        let infos = crate::correction::NoCorrections;
        let out = annotate_range_predicates(&preds, &stats, &crate::selectivity::NoOracle, &infos)
            .unwrap();
        assert_eq!(out.len(), 1, "equi predicate skipped");
        assert_eq!(out[0].op, CmpOp::Lt);
        assert!((out[0].selectivity - 0.495).abs() < 1e-12, "got {}", out[0].selectivity);

        // Oracle path overrides the model.
        struct Fixed;
        impl SelectivityOracle for Fixed {
            fn local_selectivity(
                &self,
                _: ColumnRef,
                _: CmpOp,
                _: &els_storage::Value,
            ) -> Option<f64> {
                None
            }
            fn join_range_selectivity(&self, _: ColumnRef, _: CmpOp, _: ColumnRef) -> Option<f64> {
                Some(0.25)
            }
        }
        let out = annotate_range_predicates(&preds, &stats, &Fixed, &infos).unwrap();
        assert_eq!(out[0].selectivity, 0.25);

        // Corrections multiply in and clamp; degenerate factors are ignored.
        struct Corr(f64);
        impl CorrectionSource for Corr {
            fn scan_correction(&self, _: usize, _: &str) -> Option<f64> {
                None
            }
            fn join_correction(&self, _: &[ColumnRef]) -> Option<f64> {
                None
            }
            fn range_correction(&self, _: ColumnRef, _: CmpOp, _: ColumnRef) -> Option<f64> {
                Some(self.0)
            }
        }
        let out = annotate_range_predicates(&preds, &stats, &Fixed, &Corr(2.0)).unwrap();
        assert_eq!(out[0].selectivity, 0.5);
        let out = annotate_range_predicates(&preds, &stats, &Fixed, &Corr(100.0)).unwrap();
        assert_eq!(out[0].selectivity, 1.0);
        let out = annotate_range_predicates(&preds, &stats, &Fixed, &Corr(f64::NAN)).unwrap();
        assert_eq!(out[0].selectivity, 0.25);
    }

    #[test]
    fn annotate_skips_local_predicates() {
        let preds = vec![Predicate::local_cmp(c(0, 0), crate::CmpOp::Lt, 5i64)];
        let classes = EquivalenceClasses::from_predicates(&preds);
        let infos = annotate_join_predicates(&preds, &classes, |_| 1.0).unwrap();
        assert!(infos.is_empty());
    }
}
