//! Feedback-correction hook (runtime extension; not part of the paper).
//!
//! The paper's estimator is purely static: Steps 3–5 read catalog
//! statistics and never learn from execution. This module is the seam a
//! feedback loop plugs into — a [`CorrectionSource`] supplies
//! multiplicative correction factors learned from executed queries, and
//! the corrected variants in [`crate::local_effects`] and
//! `crate::join_sel` multiply them into the Step 3/Step 5 selectivities
//! *before* clamping. The Section 4 incremental machinery (Step 6, rule
//! LS) is untouched: within a class every implied predicate receives the
//! same factor, so the LS max-selection ordering is preserved.
//!
//! Corrections are keyed structurally, not positionally:
//!
//! * scans by the [`scan_fingerprint`] of the table's local predicates
//!   (within-table column indices, sorted rendering — independent of the
//!   table's `FROM` position);
//! * joins by the full member set of the predicate's equivalence class
//!   (the source canonicalizes the members however it likes; `els-core`
//!   passes all of them so the key cannot depend on `FROM` order).

use crate::ids::ColumnRef;
use crate::predicate::{CmpOp, Predicate};

/// Supplier of learned correction factors. A `None` answer means "no
/// published correction" and leaves the estimate untouched, so a source
/// with nothing learned is bit-identical to [`NoCorrections`].
pub trait CorrectionSource {
    /// Correction factor for the scan of `table` (a `FROM`-list position)
    /// under the given [`scan_fingerprint`]; never called with an empty
    /// fingerprint (an unfiltered scan's estimate is exact).
    fn scan_correction(&self, table: usize, fingerprint: &str) -> Option<f64>;

    /// Correction factor for a join whose equivalence class has exactly
    /// `members` (sorted, at least two entries).
    fn join_correction(&self, members: &[ColumnRef]) -> Option<f64>;

    /// Correction factor for the inequality join predicate `left op right`
    /// (already canonicalized: `left.table < right.table`). Inequality
    /// predicates have no equivalence class, so they are keyed separately
    /// from [`CorrectionSource::join_correction`]. Default: none.
    fn range_correction(&self, left: ColumnRef, op: CmpOp, right: ColumnRef) -> Option<f64> {
        let _ = (left, op, right);
        None
    }
}

/// A source that has learned nothing; estimation is exactly the paper's.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCorrections;

impl CorrectionSource for NoCorrections {
    fn scan_correction(&self, _: usize, _: &str) -> Option<f64> {
        None
    }

    fn join_correction(&self, _: &[ColumnRef]) -> Option<f64> {
        None
    }
}

/// Canonical fingerprint of the local predicates restricting `table`:
/// each conjunct rendered with its *within-table* column index (`c0<100`,
/// `c2 IS NULL`), sorted, joined with `&`. Identical predicate sets yield
/// identical fingerprints regardless of conjunct order or of where the
/// table sits in the `FROM` list. Empty when the table has no local
/// constant/null predicate (local column equalities are Section 6
/// business and join predicates are keyed separately).
pub fn scan_fingerprint(predicates: &[Predicate], table: usize) -> String {
    let mut parts: Vec<String> = predicates
        .iter()
        .filter_map(|p| match p {
            Predicate::LocalCmp { column, op, value } if column.table == table => {
                Some(format!("c{}{}{}", column.column, op, value))
            }
            Predicate::IsNull { column, negated } if column.table == table => {
                Some(format!("c{} IS {}NULL", column.column, if *negated { "NOT " } else { "" }))
            }
            _ => None,
        })
        .collect();
    parts.sort();
    parts.join("&")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    #[test]
    fn fingerprint_is_order_independent_and_table_scoped() {
        let a = vec![
            Predicate::local_cmp(c(1, 0), CmpOp::Lt, 100i64),
            Predicate::local_cmp(c(1, 2), CmpOp::Eq, 7i64),
            Predicate::local_cmp(c(0, 0), CmpOp::Gt, 5i64),
        ];
        let b = vec![
            Predicate::local_cmp(c(1, 2), CmpOp::Eq, 7i64),
            Predicate::local_cmp(c(1, 0), CmpOp::Lt, 100i64),
        ];
        assert_eq!(scan_fingerprint(&a, 1), scan_fingerprint(&b, 1));
        assert_eq!(scan_fingerprint(&a, 1), "c0<100&c2=7");
        assert_eq!(scan_fingerprint(&a, 0), "c0>5");
        assert_eq!(scan_fingerprint(&a, 2), "");
    }

    #[test]
    fn fingerprint_uses_within_table_indices_not_from_position() {
        // The same filter on "the first column of some table" fingerprints
        // identically whether that table is FROM position 0 or 3.
        let at0 = vec![Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64)];
        let at3 = vec![Predicate::local_cmp(c(3, 0), CmpOp::Lt, 100i64)];
        assert_eq!(scan_fingerprint(&at0, 0), scan_fingerprint(&at3, 3));
    }

    #[test]
    fn fingerprint_covers_null_tests_and_ignores_join_predicates() {
        let preds = vec![
            Predicate::IsNull { column: c(0, 1), negated: false },
            Predicate::is_not_null(c(0, 2)),
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
        ];
        assert_eq!(scan_fingerprint(&preds, 0), "c1 IS NULL&c2 IS NOT NULL");
        assert_eq!(scan_fingerprint(&preds, 1), "");
    }

    #[test]
    fn no_corrections_answers_nothing() {
        assert_eq!(NoCorrections.scan_correction(0, "c0<1"), None);
        assert_eq!(NoCorrections.join_correction(&[c(0, 0), c(1, 0)]), None);
    }
}
