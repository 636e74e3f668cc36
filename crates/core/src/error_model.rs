//! The error metric estimates are scored by.

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
/// use els_core::q_error;
/// assert_eq!(q_error(100.0, 100.0), 1.0);
/// assert_eq!(q_error(10.0, 1000.0), 100.0);   // under-estimate
/// assert_eq!(q_error(1000.0, 10.0), 100.0);   // over-estimate, same score
/// assert_eq!(q_error(0.0, 0.0), 1.0);         // empty result, exact
/// assert_eq!(q_error(5.0, 0.0), 5.0);         // empty truth counts as one row
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
