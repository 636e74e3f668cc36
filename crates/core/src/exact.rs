//! Closed-form join sizes under the model assumptions
//! (paper Equations 1–3).
//!
//! For tables `R1..Rn` joined on columns of a *single* equivalence class,
//! with the uniformity and containment assumptions, the result size is
//!
//! ```text
//! ‖R1 ⋈ … ⋈ Rn‖ = (∏ ‖Ri‖) / (∏ d(i), all but the smallest)
//! ```
//!
//! (Equation 3; Equations 1 and 2 are the two-table case). These closed
//! forms serve as ground truth: the paper proves Rule LS's incremental
//! estimates agree with Equation 3, a fact this crate verifies by property
//! test (see `tests/` and [`crate::estimator`]).

/// Equation 1/2: expected size of `R1 ⋈ R2` on one join predicate with
/// column cardinalities `d1`, `d2`.
pub fn two_way(r1: f64, d1: f64, r2: f64, d2: f64) -> f64 {
    if d1 <= 0.0 || d2 <= 0.0 {
        return 0.0;
    }
    r1 * r2 / d1.max(d2)
}

/// Equation 2's selectivity form: `S_J = 1/max(d1, d2)`. Identical to
/// `crate::join_sel::join_selectivity`; re-exported here so the equation
/// set is complete in one module.
pub fn selectivity(d1: f64, d2: f64) -> f64 {
    crate::join_sel::join_selectivity(d1, d2)
}

/// Equation 3: expected size of the n-way join of `tables`, each given as
/// `(cardinality, join-column distinct count)`, all join columns in one
/// equivalence class. Returns 0 for an empty input or any empty column.
/// # Examples
///
/// Example 1b's three-way join:
///
/// ```
/// use els_core::exact::n_way;
/// let size = n_way(&[(100.0, 10.0), (1000.0, 100.0), (1000.0, 1000.0)]);
/// assert_eq!(size, 1000.0);
/// ```
pub fn n_way(tables: &[(f64, f64)]) -> f64 {
    if tables.is_empty() {
        return 0.0;
    }
    if tables.iter().any(|&(_, d)| d <= 0.0) {
        return 0.0;
    }
    let numerator: f64 = tables.iter().map(|&(r, _)| r).product();
    let d_min = tables.iter().map(|&(_, d)| d).fold(f64::INFINITY, f64::min);
    let all_d: f64 = tables.iter().map(|&(_, d)| d).product();
    // Divide by all d except the smallest: ∏d / d_min.
    numerator / (all_d / d_min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_1_example_1b() {
        // ||R2 ⋈ R3|| = 1000·1000/max(100,1000) = 1000.
        assert_eq!(two_way(1000.0, 100.0, 1000.0, 1000.0), 1000.0);
    }

    #[test]
    fn equation_3_example_1b() {
        // (100·1000·1000)/(100·1000) = 1000.
        let t = [(100.0, 10.0), (1000.0, 100.0), (1000.0, 1000.0)];
        assert_eq!(n_way(&t), 1000.0);
    }

    #[test]
    fn n_way_reduces_to_two_way() {
        let t = [(50.0, 5.0), (70.0, 7.0)];
        assert_eq!(n_way(&t), two_way(50.0, 5.0, 70.0, 7.0));
    }

    #[test]
    fn n_way_single_table_is_its_cardinality() {
        assert_eq!(n_way(&[(42.0, 7.0)]), 42.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(n_way(&[]), 0.0);
        assert_eq!(n_way(&[(10.0, 0.0)]), 0.0);
        assert_eq!(two_way(10.0, 0.0, 10.0, 5.0), 0.0);
    }

    #[test]
    fn selectivity_matches_join_sel() {
        assert_eq!(selectivity(10.0, 1000.0), 0.001);
    }

    #[test]
    fn section8_all_prefixes_are_100() {
        // Effective stats after s < 100 under ELS: every table 100 rows,
        // every join column 100 distinct values. Any subset joins to 100.
        let t = [(100.0, 100.0), (100.0, 100.0), (100.0, 100.0), (100.0, 100.0)];
        for k in 1..=4 {
            assert_eq!(n_way(&t[..k]), 100.0);
        }
    }

    #[test]
    fn n_way_is_permutation_invariant() {
        let a = [(100.0, 10.0), (1000.0, 100.0), (500.0, 20.0)];
        let mut b = a;
        b.reverse();
        assert!((n_way(&a) - n_way(&b)).abs() < 1e-9);
    }
}
