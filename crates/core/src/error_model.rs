//! Propagation of base-statistic errors through join estimates.
//!
//! The paper's Section 1 cites Ioannidis & Christodoulakis [4]: even a
//! *correct* estimation algorithm amplifies errors in its inputs, and the
//! amplification grows with the number of joins. This module provides both
//! sides of that analysis for the single-equivalence-class closed form
//! (Equation 3):
//!
//! * [`worst_case_amplification`] — the analytic worst case: with every
//!   cardinality off by a factor `(1+ε)` and every distinct count off by
//!   `(1−δ)`, the n-way estimate is off by `(1+ε)ⁿ / (1−δ)ⁿ⁻¹`, i.e.
//!   exponential in n.
//! * [`perturb_statistics`] — randomized perturbation of a
//!   [`QueryStatistics`] for Monte-Carlo studies (each statistic is
//!   multiplied by an independent factor log-uniform in `[1/(1+ε), 1+ε]`,
//!   preserving validity: distinct counts stay within table cardinalities).
//!
//! Experiment F10 uses both to replay [4]'s qualitative result inside this
//! framework: Rule LS is exactly right with exact inputs (F1), yet its
//! output error still compounds when the *catalog* is wrong — motivating
//! the paper's care about keeping the statistics pipeline (Steps 3–5)
//! consistent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::QueryStatistics;

/// Worst-case multiplicative error of an n-way single-class estimate when
/// every table cardinality is off by at most a factor `1 + eps_card` (in
/// the inflating direction) and every distinct count by at most a factor
/// `1 - eps_distinct` (in the deflating direction — the combination that
/// maximizes the estimate).
///
/// # Examples
///
/// ```
/// use els_core::error_model::worst_case_amplification;
/// // 10% errors on two tables: (1.1)^2 / (0.9)^1 ≈ 1.34.
/// let r = worst_case_amplification(2, 0.1, 0.1);
/// assert!((r - 1.1f64.powi(2) / 0.9).abs() < 1e-12);
/// // Amplification grows with the join count.
/// assert!(worst_case_amplification(8, 0.1, 0.1) > worst_case_amplification(4, 0.1, 0.1));
/// ```
/// The **q-error** of an estimate against the observed truth:
/// `max(est/act, act/est)`, the standard symmetric multiplicative error
/// metric for cardinality estimation (equivalent to the paper's Section 8
/// "error ratio" with over- and under-estimation folded onto one scale).
///
/// Both sides are floored at 1 tuple so that exact zero-row operators —
/// common under contradictory predicates — compare as perfect rather than
/// dividing by zero; a perfect estimate therefore scores exactly `1.0`.
/// Non-finite inputs score `f64::INFINITY` (an estimator that produced NaN
/// is maximally wrong, not "unmeasurable").
///
/// # Examples
///
/// ```
/// use els_core::error_model::q_error;
/// assert_eq!(q_error(100.0, 100.0), 1.0);
/// assert_eq!(q_error(10.0, 1000.0), 100.0);   // under-estimate
/// assert_eq!(q_error(1000.0, 10.0), 100.0);   // over-estimate, same score
/// assert_eq!(q_error(0.0, 0.0), 1.0);         // empty result, exact
/// assert_eq!(q_error(f64::NAN, 5.0), f64::INFINITY);
/// ```
pub fn q_error(estimate: f64, actual: f64) -> f64 {
    if !estimate.is_finite() || !actual.is_finite() {
        return f64::INFINITY;
    }
    let est = estimate.max(1.0);
    let act = actual.max(1.0);
    (est / act).max(act / est)
}

pub fn worst_case_amplification(n_tables: usize, eps_card: f64, eps_distinct: f64) -> f64 {
    if n_tables == 0 {
        return 1.0;
    }
    // Saturate rather than wrap for absurd table counts: the
    // amplification is monotone in n, and powi(i32::MAX) overflows to
    // infinity, which is the honest answer there.
    let n = i32::try_from(n_tables).unwrap_or(i32::MAX);
    let num = (1.0 + eps_card.max(0.0)).powi(n);
    let den = (1.0 - eps_distinct.clamp(0.0, 0.999_999)).powi(n - 1);
    num / den
}

/// Multiply every cardinality and distinct count by an independent random
/// factor log-uniform in `[1/(1+eps), 1+eps]`, then re-clamp distinct
/// counts to the perturbed cardinalities so the result stays valid.
/// Deterministic in `seed`.
pub fn perturb_statistics(stats: &QueryStatistics, eps: f64, seed: u64) -> QueryStatistics {
    let mut rng = StdRng::seed_from_u64(seed);
    let factor = move |rng: &mut StdRng| -> f64 {
        if eps <= 0.0 {
            return 1.0;
        }
        let hi = (1.0 + eps).ln();
        (rng.gen_range(-hi..hi)).exp()
    };
    let mut out = stats.clone();
    for table in &mut out.tables {
        table.cardinality = (table.cardinality * factor(&mut rng)).max(0.0).round();
        for col in &mut table.columns {
            col.distinct =
                (col.distinct * factor(&mut rng)).max(0.0).round().min(table.cardinality);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn stats() -> QueryStatistics {
        QueryStatistics::new(vec![
            TableStatistics::new(1000.0, vec![ColumnStatistics::with_distinct(100.0)]),
            TableStatistics::new(5000.0, vec![ColumnStatistics::with_distinct(500.0)]),
        ])
    }

    #[test]
    fn worst_case_grows_exponentially() {
        let r4 = worst_case_amplification(4, 0.2, 0.2);
        let r8 = worst_case_amplification(8, 0.2, 0.2);
        // Doubling n should (more than) square the n=4 growth beyond the
        // first factor; just assert strong growth.
        assert!(r8 > r4 * r4 / 1.2 - 1e-9, "r4={r4} r8={r8}");
        assert_eq!(worst_case_amplification(0, 0.5, 0.5), 1.0);
        assert_eq!(worst_case_amplification(1, 0.0, 0.0), 1.0);
    }

    #[test]
    fn perturbation_is_deterministic_and_bounded() {
        let base = stats();
        let a = perturb_statistics(&base, 0.2, 9);
        let b = perturb_statistics(&base, 0.2, 9);
        assert_eq!(a, b);
        let c = perturb_statistics(&base, 0.2, 10);
        assert_ne!(a, c);
        for (t, orig) in a.tables.iter().zip(&base.tables) {
            let ratio = t.cardinality / orig.cardinality;
            assert!((1.0 / 1.21..=1.21).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn perturbed_statistics_remain_valid() {
        let base = stats();
        for seed in 0..50 {
            let p = perturb_statistics(&base, 0.5, seed);
            p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn zero_epsilon_is_identity_up_to_rounding() {
        let base = stats();
        let p = perturb_statistics(&base, 0.0, 1);
        assert_eq!(p, base);
    }

    #[test]
    fn perturbed_estimates_stay_usable() {
        // Els::prepare accepts perturbed statistics and produces finite
        // estimates — the Monte-Carlo loop of F10 relies on this.
        let base = stats();
        let preds = vec![Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap()];
        for seed in 0..20 {
            let p = perturb_statistics(&base, 0.3, seed);
            let els = Els::prepare(&preds, &p, &ElsOptions::default()).unwrap();
            let est = els.estimate_final(&[0, 1]).unwrap();
            assert!(est.is_finite() && est >= 0.0);
        }
    }
}
