//! Local-predicate selectivities (Algorithm ELS, Step 3).
//!
//! Each local predicate `R.x op c` is assigned a selectivity. Uniformity is
//! *not* assumed for local predicates when better information exists: a
//! [`SelectivityOracle`] (implemented over histograms by `els-catalog`) is
//! consulted first, and only on a miss does estimation fall back to the
//! discrete-uniform-domain model below.
//!
//! **Model.** A column with distinct count `d`, minimum `min` and maximum
//! `max` is modelled as `d` equally spaced values on `[min, max]` (the
//! uniformity assumption made concrete). Selectivities of range predicates
//! are then exact set counts over that grid — e.g. the paper's Section 8
//! filter `s < 100` over `d_s = 1000` sequential values `0..999` gets
//! selectivity exactly `0.1`. When no domain bounds are known the classic
//! System-R default of 1/3 per range predicate applies.
//!
//! **Multiple predicates on one column.** Following the paper's companion
//! report [16] (Section 4, step 3): if any *equality* predicate exists, the
//! most restrictive consistent equality wins (contradictory constants make
//! the column — and the whole conjunct — empty); otherwise the *tightest
//! pair of range bounds* is kept. `<>` predicates contribute their
//! complement selectivity multiplicatively and never constrain the bounds.

use els_storage::Value;

use crate::error::{ElsError, ElsResult};
use crate::ids::ColumnRef;
use crate::predicate::CmpOp;
use crate::stats::ColumnStatistics;

/// Default selectivity of a range predicate when nothing is known about the
/// column's domain (System R's classic 1/3).
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Default selectivity of an equality predicate when even the distinct count
/// is unknown or zero (System R's classic 1/10).
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;

/// Default selectivity of an inequality join predicate `L op R` when neither
/// histograms nor domain bounds are known — same 1/3 convention as local
/// range predicates.
pub const DEFAULT_RANGE_JOIN_SELECTIVITY: f64 = 1.0 / 3.0;

/// Hook for distribution statistics (histograms, most-common values).
///
/// `els-core` calls this before applying its uniform model; a `Some(s)`
/// answer is used as-is. Implementations must return selectivities of the
/// predicate against the **base** table (before any other predicate).
pub trait SelectivityOracle {
    /// Selectivity in `[0, 1]` of `column op value`, if this oracle knows.
    fn local_selectivity(&self, column: ColumnRef, op: CmpOp, value: &Value) -> Option<f64>;

    /// Selectivity in `[0, 1]` of the inequality join `left op right` over
    /// the cross product of the two base tables, if this oracle knows —
    /// histogram implementations integrate `fraction_below`/`fraction_equal`
    /// of one side over the other side's buckets. Default: unknown.
    fn join_range_selectivity(&self, left: ColumnRef, op: CmpOp, right: ColumnRef) -> Option<f64> {
        let _ = (left, op, right);
        None
    }
}

/// An oracle that knows nothing; estimation always falls back to the
/// uniform-domain model.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOracle;

impl SelectivityOracle for NoOracle {
    fn local_selectivity(&self, _: ColumnRef, _: CmpOp, _: &Value) -> Option<f64> {
        None
    }
}

/// Uniform-domain model for an inequality join `L op R`: both columns are
/// modelled as uniform on their `[min, max]` domains (the same assumption
/// [`model_selectivity`] makes for local ranges), which gives `P(L < R)` in
/// closed form; `P(L = R)` reuses Equation 2's `1 / max(d1, d2)` when the
/// domains overlap. NULLs never satisfy a comparison, so both null
/// fractions scale the result. Falls back to
/// [`DEFAULT_RANGE_JOIN_SELECTIVITY`] when either domain is unknown; `=` and
/// `<>` are an [`ElsError::MalformedPredicate`].
pub fn model_join_range_selectivity(
    left: &ColumnStatistics,
    op: CmpOp,
    right: &ColumnStatistics,
) -> ElsResult<f64> {
    // `L < R` (or `L > R`), and whether the diagonal `L = R` counts too.
    let (less, or_equal) = match op {
        CmpOp::Lt => (true, false),
        CmpOp::Le => (true, true),
        CmpOp::Gt => (false, false),
        CmpOp::Ge => (false, true),
        CmpOp::Eq | CmpOp::Ne => {
            return Err(ElsError::MalformedPredicate(format!(
                "`{op}` is not a range operator for an inequality join"
            )))
        }
    };
    let non_null = (1.0 - left.null_fraction) * (1.0 - right.null_fraction);
    let (Some(a), Some(b), Some(c), Some(d)) = (left.min, left.max, right.min, right.max) else {
        return Ok((DEFAULT_RANGE_JOIN_SELECTIVITY * non_null).clamp(0.0, 1.0));
    };
    if !(a.is_finite() && b.is_finite() && c.is_finite() && d.is_finite()) || b < a || d < c {
        return Ok((DEFAULT_RANGE_JOIN_SELECTIVITY * non_null).clamp(0.0, 1.0));
    }
    // Mass on the diagonal: zero when the domains are disjoint, Equation 2's
    // containment bound otherwise. The continuous integral below splits that
    // mass evenly between `<` and `>`, so half of it is moved out of each
    // strict side — for two identical d-point grids this reproduces the
    // exact discrete answers (d−1)/2d, 1/d, (d−1)/2d.
    let eq = if b < c || d < a {
        0.0
    } else if b <= a && d <= c {
        // Two overlapping point domains are the same single value.
        1.0
    } else {
        crate::join_sel::join_selectivity(left.distinct.max(1.0), right.distinct.max(1.0))
    };
    let strict = if less { uniform_prob_less(a, b, c, d) } else { uniform_prob_less(c, d, a, b) };
    let strict = (strict - eq / 2.0).max(0.0);
    let sel = if or_equal { strict + eq } else { strict };
    Ok((sel * non_null).clamp(0.0, 1.0))
}

/// `P(L < R)` for independent `L ~ U[a, b]`, `R ~ U[c, d]`, handling
/// degenerate (single-point) intervals. Computed as the average of
/// `F_L(r) = P(L < r)` over `[c, d]`.
fn uniform_prob_less(a: f64, b: f64, c: f64, d: f64) -> f64 {
    // Degenerate right side: a point mass at c.
    if d <= c {
        return if b <= a {
            if a < c {
                1.0
            } else {
                0.0
            }
        } else {
            ((c - a) / (b - a)).clamp(0.0, 1.0)
        };
    }
    // Degenerate left side: F_L(r) = [r > a].
    if b <= a {
        return ((d - a.max(c)) / (d - c)).clamp(0.0, 1.0);
    }
    // Piecewise integral of F_L over [c, d]: zero below a, linear ramp on
    // [a, b], one above b.
    let lo = c.max(a);
    let hi = d.min(b);
    let mut integral = 0.0;
    if hi > lo {
        integral += ((hi - a).powi(2) - (lo - a).powi(2)) / (2.0 * (b - a));
    }
    if d > b {
        integral += d - b.max(c);
    }
    (integral / (d - c)).clamp(0.0, 1.0)
}

/// What the per-column resolution of Step 3 decided.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedShape {
    /// No constant predicate on this column.
    Unconstrained,
    /// A single consistent equality `x = value`; the column cardinality
    /// after the predicate is 1 (paper, Section 5).
    Equality(Value),
    /// A (possibly one-sided) range; column cardinality scales with the
    /// selectivity (`d' = d · S_L`, paper Section 5).
    Range,
    /// The predicates contradict each other — the table is empty.
    Contradiction,
}

/// Result of resolving all constant predicates on one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedColumn {
    /// Combined selectivity of the retained predicates.
    pub selectivity: f64,
    /// The retained shape, which drives the column-cardinality update.
    pub shape: ResolvedShape,
}

/// Selectivity of a single `column op value` under the uniform-domain model
/// (oracle misses handled by the caller). Always in `[0, 1]`.
/// # Examples
///
/// The Section 8 filter `s < 100` over 1000 sequential values:
///
/// ```
/// use els_core::{selectivity::model_selectivity, ColumnStatistics, CmpOp};
/// use els_storage::Value;
/// let stats = ColumnStatistics::with_domain(1000.0, 0.0, 999.0);
/// assert_eq!(model_selectivity(&stats, CmpOp::Lt, &Value::Int(100)), 0.1);
/// ```
pub fn model_selectivity(stats: &ColumnStatistics, op: CmpOp, value: &Value) -> f64 {
    let non_null = 1.0 - stats.null_fraction;
    let d = stats.distinct;
    let sel = match op {
        CmpOp::Eq => {
            if d <= 0.0 {
                DEFAULT_EQ_SELECTIVITY
            } else if out_of_domain(stats, value) {
                0.0
            } else {
                1.0 / d
            }
        }
        CmpOp::Ne => {
            if d <= 0.0 {
                1.0 - DEFAULT_EQ_SELECTIVITY
            } else if out_of_domain(stats, value) {
                1.0
            } else {
                1.0 - 1.0 / d
            }
        }
        CmpOp::Lt => fraction_satisfying(stats, value, RangeSide::Below { strict: true }),
        CmpOp::Le => fraction_satisfying(stats, value, RangeSide::Below { strict: false }),
        CmpOp::Gt => fraction_satisfying(stats, value, RangeSide::Above { strict: true }),
        CmpOp::Ge => fraction_satisfying(stats, value, RangeSide::Above { strict: false }),
    };
    (sel * non_null).clamp(0.0, 1.0)
}

enum RangeSide {
    Below { strict: bool },
    Above { strict: bool },
}

fn out_of_domain(stats: &ColumnStatistics, value: &Value) -> bool {
    match (value.as_f64(), stats.min, stats.max) {
        (Some(c), Some(lo), Some(hi)) => c < lo || c > hi,
        _ => false,
    }
}

/// Count how many of the `d` grid points satisfy the one-sided range, as a
/// fraction of `d`. Falls back to [`DEFAULT_RANGE_SELECTIVITY`] when the
/// domain or the constant is not numeric.
fn fraction_satisfying(stats: &ColumnStatistics, value: &Value, side: RangeSide) -> f64 {
    let (Some(c), Some(lo), Some(hi)) = (value.as_f64(), stats.min, stats.max) else {
        return DEFAULT_RANGE_SELECTIVITY;
    };
    // NaN constants sort above every float in the engine's total order, so
    // `x < NaN` is satisfied by everything and `x > NaN` by nothing.
    if c.is_nan() {
        return match side {
            RangeSide::Below { .. } => 1.0,
            RangeSide::Above { .. } => 0.0,
        };
    }
    let d = stats.distinct;
    if d <= 0.0 {
        return DEFAULT_RANGE_SELECTIVITY;
    }
    let below = grid_points_below(
        c,
        lo,
        hi,
        d,
        matches!(side, RangeSide::Below { strict: true } | RangeSide::Above { strict: false }),
    );
    match side {
        // `x < c` counts strictly-below points; `x <= c` counts
        // non-strictly-below (grid_points_below's flag selects which).
        RangeSide::Below { .. } => below / d,
        // `x > c` = 1 - (x <= c); `x >= c` = 1 - (x < c).
        RangeSide::Above { .. } => 1.0 - below / d,
    }
}

/// Number of the `d` equally spaced grid points on `[lo, hi]` that are
/// `< c` (when `strict`) or `<= c` (when `!strict`).
fn grid_points_below(c: f64, lo: f64, hi: f64, d: f64, strict: bool) -> f64 {
    if d <= 1.0 {
        // One value at lo (== hi).
        let sat = if strict { lo < c } else { lo <= c };
        return if sat { d.clamp(0.0, 1.0) } else { 0.0 };
    }
    if c < lo || (strict && c == lo) {
        return 0.0;
    }
    if c > hi || (!strict && c == hi) {
        return d;
    }
    let step = (hi - lo) / (d - 1.0);
    // Index positions i = 0..d at lo + i*step; count those below c.
    let t = (c - lo) / step;
    let count = if strict {
        // points with i*step < c - lo  <=>  i < t; count = ceil(t) (t not
        // integer) or t (integer).
        t.ceil()
    } else {
        t.floor() + 1.0
    };
    count.clamp(0.0, d)
}

/// Resolve all constant predicates on one column, per [16]: keep the most
/// restrictive equality if any exists, otherwise the tightest range-bound
/// pair; `<>` predicates multiply in their complement. The oracle is
/// consulted per retained predicate.
pub fn resolve_column_predicates(
    column: ColumnRef,
    stats: &ColumnStatistics,
    preds: &[(CmpOp, Value)],
    oracle: &dyn SelectivityOracle,
) -> ResolvedColumn {
    if preds.is_empty() {
        return ResolvedColumn { selectivity: 1.0, shape: ResolvedShape::Unconstrained };
    }

    let sel_of = |op: CmpOp, v: &Value| -> f64 {
        oracle
            .local_selectivity(column, op, v)
            .unwrap_or_else(|| model_selectivity(stats, op, v))
            .clamp(0.0, 1.0)
    };

    // Sort the predicates: the equalities, the tightest lower bound (largest
    // constant; at a tie the strict bound is tighter), the tightest upper
    // bound (smallest constant; strict tighter) and the `<>` count.
    let mut equalities: Vec<&Value> = Vec::new();
    let mut lower: Option<(CmpOp, &Value)> = None;
    let mut upper: Option<(CmpOp, &Value)> = None;
    let mut ne_count = 0usize;
    for (op, v) in preds {
        match op {
            CmpOp::Eq => equalities.push(v),
            CmpOp::Gt | CmpOp::Ge => {
                lower = Some(match lower {
                    None => (*op, v),
                    Some((cur_op, cur_v)) => match v.sql_cmp(cur_v) {
                        Some(std::cmp::Ordering::Greater) => (*op, v),
                        Some(std::cmp::Ordering::Equal) if *op == CmpOp::Gt => (*op, v),
                        _ => (cur_op, cur_v),
                    },
                });
            }
            CmpOp::Lt | CmpOp::Le => {
                upper = Some(match upper {
                    None => (*op, v),
                    Some((cur_op, cur_v)) => match v.sql_cmp(cur_v) {
                        Some(std::cmp::Ordering::Less) => (*op, v),
                        Some(std::cmp::Ordering::Equal) if *op == CmpOp::Lt => (*op, v),
                        _ => (cur_op, cur_v),
                    },
                });
            }
            CmpOp::Ne => ne_count += 1,
        }
    }

    // Phase 1: equalities. All must agree on one constant; the constant must
    // satisfy every other predicate on the column.
    if let Some(first) = equalities.first() {
        if equalities.iter().any(|v| !v.sql_eq(first)) {
            return ResolvedColumn { selectivity: 0.0, shape: ResolvedShape::Contradiction };
        }
        for (op, v) in preds.iter().filter(|(op, _)| *op != CmpOp::Eq) {
            let sat = first.sql_cmp(v).map(|ord| op.eval(ord));
            if sat == Some(false) {
                return ResolvedColumn { selectivity: 0.0, shape: ResolvedShape::Contradiction };
            }
        }
        return ResolvedColumn {
            selectivity: sel_of(CmpOp::Eq, first),
            shape: ResolvedShape::Equality((*first).clone()),
        };
    }

    // Phase 2: the bounds.
    // Detect an empty range (lo >= hi in the strict sense).
    if let (Some((lop, lv)), Some((uop, uv))) = (&lower, &upper) {
        if let Some(ord) = lv.sql_cmp(uv) {
            use std::cmp::Ordering::{Equal, Greater};
            let empty = match ord {
                Greater => true,
                Equal => *lop == CmpOp::Gt || *uop == CmpOp::Lt,
                _ => false,
            };
            if empty {
                return ResolvedColumn { selectivity: 0.0, shape: ResolvedShape::Contradiction };
            }
        }
    }

    let mut sel = match (&lower, &upper) {
        (None, None) => 1.0,
        (Some((op, v)), None) | (None, Some((op, v))) => sel_of(*op, v),
        (Some((lop, lv)), Some((uop, uv))) => {
            // The satisfied sets are a suffix and a prefix of the value grid,
            // so |A ∩ B| = max(0, |A| + |B| − d): exact under the model.
            (sel_of(*lop, lv) + sel_of(*uop, uv) - 1.0).max(0.0)
        }
    };
    // Each `<>` removes (at most) one value.
    for _ in 0..ne_count {
        let d = stats.distinct;
        sel *= if d > 1.0 { 1.0 - 1.0 / d } else { 1.0 };
    }

    let shape = if lower.is_none() && upper.is_none() && ne_count == 0 {
        ResolvedShape::Unconstrained
    } else {
        ResolvedShape::Range
    };
    ResolvedColumn { selectivity: sel.clamp(0.0, 1.0), shape }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col() -> ColumnRef {
        ColumnRef::new(0, 0)
    }

    fn seq_stats(d: f64) -> ColumnStatistics {
        // Sequential integer column 0..d-1, the Section 8 shape.
        ColumnStatistics::with_domain(d, 0.0, d - 1.0)
    }

    #[test]
    fn section8_filter_selectivity_is_exactly_one_tenth() {
        let stats = seq_stats(1000.0);
        let s = model_selectivity(&stats, CmpOp::Lt, &Value::Int(100));
        assert_eq!(s, 0.1);
    }

    #[test]
    fn le_counts_the_boundary_value() {
        let stats = seq_stats(1000.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Le, &Value::Int(99)), 0.1);
        assert_eq!(model_selectivity(&stats, CmpOp::Le, &Value::Int(100)), 0.101);
    }

    #[test]
    fn gt_ge_are_complements_of_le_lt() {
        let stats = seq_stats(100.0);
        let c = Value::Int(30);
        let lt = model_selectivity(&stats, CmpOp::Lt, &c);
        let ge = model_selectivity(&stats, CmpOp::Ge, &c);
        assert!((lt + ge - 1.0).abs() < 1e-12);
        let le = model_selectivity(&stats, CmpOp::Le, &c);
        let gt = model_selectivity(&stats, CmpOp::Gt, &c);
        assert!((le + gt - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equality_is_one_over_d_inside_domain_and_zero_outside() {
        let stats = seq_stats(50.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Eq, &Value::Int(10)), 1.0 / 50.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Eq, &Value::Int(500)), 0.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Ne, &Value::Int(500)), 1.0);
    }

    #[test]
    fn range_without_domain_uses_default() {
        let stats = ColumnStatistics::with_distinct(100.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Lt, &Value::Int(5)), DEFAULT_RANGE_SELECTIVITY);
    }

    #[test]
    fn string_equality_uses_distinct_count() {
        let stats = ColumnStatistics::with_distinct(4.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Eq, &Value::from("a")), 0.25);
        assert_eq!(
            model_selectivity(&stats, CmpOp::Lt, &Value::from("a")),
            DEFAULT_RANGE_SELECTIVITY
        );
    }

    #[test]
    fn null_fraction_scales_everything() {
        let mut stats = seq_stats(10.0);
        stats.null_fraction = 0.5;
        assert_eq!(model_selectivity(&stats, CmpOp::Eq, &Value::Int(3)), 0.05);
    }

    #[test]
    fn out_of_range_boundaries_clamp() {
        let stats = seq_stats(10.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Lt, &Value::Int(-5)), 0.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Lt, &Value::Int(100)), 1.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Gt, &Value::Int(-5)), 1.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Gt, &Value::Int(100)), 0.0);
    }

    #[test]
    fn single_value_domain() {
        let stats = ColumnStatistics::with_domain(1.0, 7.0, 7.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Le, &Value::Int(7)), 1.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Lt, &Value::Int(7)), 0.0);
        assert_eq!(model_selectivity(&stats, CmpOp::Ge, &Value::Int(7)), 1.0);
    }

    #[test]
    fn resolve_empty_is_unconstrained() {
        let r = resolve_column_predicates(col(), &seq_stats(10.0), &[], &NoOracle);
        assert_eq!(r.selectivity, 1.0);
        assert_eq!(r.shape, ResolvedShape::Unconstrained);
    }

    #[test]
    fn resolve_picks_equality_over_ranges() {
        // x = 5 AND x < 100: the equality wins, selectivity 1/d.
        let preds = vec![(CmpOp::Eq, Value::Int(5)), (CmpOp::Lt, Value::Int(100))];
        let r = resolve_column_predicates(col(), &seq_stats(1000.0), &preds, &NoOracle);
        assert_eq!(r.selectivity, 1.0 / 1000.0);
        assert_eq!(r.shape, ResolvedShape::Equality(Value::Int(5)));
    }

    #[test]
    fn resolve_detects_equality_contradictions() {
        let preds = vec![(CmpOp::Eq, Value::Int(5)), (CmpOp::Eq, Value::Int(6))];
        let r = resolve_column_predicates(col(), &seq_stats(1000.0), &preds, &NoOracle);
        assert_eq!(r.shape, ResolvedShape::Contradiction);
        assert_eq!(r.selectivity, 0.0);

        // x = 5 AND x > 100 is also empty.
        let preds = vec![(CmpOp::Eq, Value::Int(5)), (CmpOp::Gt, Value::Int(100))];
        let r = resolve_column_predicates(col(), &seq_stats(1000.0), &preds, &NoOracle);
        assert_eq!(r.shape, ResolvedShape::Contradiction);
    }

    #[test]
    fn resolve_keeps_tightest_bounds() {
        // x > 10 AND x > 500 AND x < 900: keep (x > 500, x < 900).
        let preds = vec![
            (CmpOp::Gt, Value::Int(10)),
            (CmpOp::Gt, Value::Int(500)),
            (CmpOp::Lt, Value::Int(900)),
        ];
        let stats = seq_stats(1000.0);
        let r = resolve_column_predicates(col(), &stats, &preds, &NoOracle);
        // Values 501..=899: 399 of 1000.
        assert!((r.selectivity - 0.399).abs() < 1e-9, "got {}", r.selectivity);
        assert_eq!(r.shape, ResolvedShape::Range);
    }

    #[test]
    fn resolve_duplicate_range_predicate_is_idempotent() {
        // The paper's Step 1 example: (x > 500) AND (x > 500).
        let preds = vec![(CmpOp::Gt, Value::Int(500)), (CmpOp::Gt, Value::Int(500))];
        let once = resolve_column_predicates(col(), &seq_stats(1000.0), &preds[..1], &NoOracle);
        let twice = resolve_column_predicates(col(), &seq_stats(1000.0), &preds, &NoOracle);
        assert_eq!(once.selectivity, twice.selectivity);
    }

    #[test]
    fn resolve_detects_empty_ranges() {
        let preds = vec![(CmpOp::Gt, Value::Int(900)), (CmpOp::Lt, Value::Int(100))];
        let r = resolve_column_predicates(col(), &seq_stats(1000.0), &preds, &NoOracle);
        assert_eq!(r.shape, ResolvedShape::Contradiction);

        // x > 5 AND x < 5 and x >= 5 AND x < 5 are empty; x >= 5 AND x <= 5
        // is the single value 5.
        let r = resolve_column_predicates(
            col(),
            &seq_stats(1000.0),
            &[(CmpOp::Ge, Value::Int(5)), (CmpOp::Lt, Value::Int(5))],
            &NoOracle,
        );
        assert_eq!(r.shape, ResolvedShape::Contradiction);
        let r = resolve_column_predicates(
            col(),
            &seq_stats(1000.0),
            &[(CmpOp::Ge, Value::Int(5)), (CmpOp::Le, Value::Int(5))],
            &NoOracle,
        );
        assert!((r.selectivity - 1.0 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn resolve_strict_bound_is_tighter_at_equal_constant() {
        let stats = seq_stats(100.0);
        let strict = resolve_column_predicates(
            col(),
            &stats,
            &[(CmpOp::Gt, Value::Int(50)), (CmpOp::Ge, Value::Int(50))],
            &NoOracle,
        );
        let only_strict =
            resolve_column_predicates(col(), &stats, &[(CmpOp::Gt, Value::Int(50))], &NoOracle);
        assert_eq!(strict.selectivity, only_strict.selectivity);
    }

    #[test]
    fn resolve_ne_multiplies_complement() {
        let stats = seq_stats(10.0);
        let r = resolve_column_predicates(col(), &stats, &[(CmpOp::Ne, Value::Int(3))], &NoOracle);
        assert!((r.selectivity - 0.9).abs() < 1e-12);
        assert_eq!(r.shape, ResolvedShape::Range);
    }

    #[test]
    fn oracle_overrides_model() {
        struct Fixed;
        impl SelectivityOracle for Fixed {
            fn local_selectivity(&self, _: ColumnRef, _: CmpOp, _: &Value) -> Option<f64> {
                Some(0.25)
            }
        }
        let stats = seq_stats(1000.0);
        let r = resolve_column_predicates(col(), &stats, &[(CmpOp::Lt, Value::Int(100))], &Fixed);
        assert_eq!(r.selectivity, 0.25);
    }

    #[test]
    fn join_range_model_on_identical_grids_matches_exact_discrete_answers() {
        // L and R both d=1000 sequential values 0..999: exactly
        // P(L < R) = (d−1)/2d = 0.4995, P(L <= R) = (d+1)/2d = 0.5005.
        let stats = seq_stats(1000.0);
        let lt = model_join_range_selectivity(&stats, CmpOp::Lt, &stats).unwrap();
        assert!((lt - 0.4995).abs() < 1e-12, "got {lt}");
        let le = model_join_range_selectivity(&stats, CmpOp::Le, &stats).unwrap();
        assert!((le - 0.5005).abs() < 1e-12, "got {le}");
        // Lt and Gt are symmetric on identical domains.
        let gt = model_join_range_selectivity(&stats, CmpOp::Gt, &stats).unwrap();
        assert_eq!(lt, gt);
    }

    #[test]
    fn join_range_model_on_disjoint_domains_is_zero_or_one() {
        let lo = ColumnStatistics::with_domain(100.0, 0.0, 99.0);
        let hi = ColumnStatistics::with_domain(100.0, 1000.0, 1099.0);
        assert_eq!(model_join_range_selectivity(&lo, CmpOp::Lt, &hi).unwrap(), 1.0);
        assert_eq!(model_join_range_selectivity(&lo, CmpOp::Gt, &hi).unwrap(), 0.0);
        assert_eq!(model_join_range_selectivity(&hi, CmpOp::Le, &lo).unwrap(), 0.0);
        assert_eq!(model_join_range_selectivity(&hi, CmpOp::Ge, &lo).unwrap(), 1.0);
    }

    #[test]
    fn join_range_model_handles_offset_and_degenerate_domains() {
        // L ~ U[0, 100], R ~ U[50, 150]: P(L < R) by the piecewise integral:
        // (1/100)·[∫_50^100 (r/100) dr + 50] = (1/100)·[37.5 + 50] = 0.875,
        // minus half the diagonal mass 1/101.
        let l = ColumnStatistics::with_domain(101.0, 0.0, 100.0);
        let r = ColumnStatistics::with_domain(101.0, 50.0, 150.0);
        let lt = model_join_range_selectivity(&l, CmpOp::Lt, &r).unwrap();
        assert!((lt - (0.875 - 0.5 / 101.0)).abs() < 1e-12, "got {lt}");
        // Degenerate single-point sides.
        let point = ColumnStatistics::with_domain(1.0, 7.0, 7.0);
        let wide = ColumnStatistics::with_domain(100.0, 0.0, 13.0);
        // P(7 < R) with R ~ U[0, 13] = 6/13, minus half the diagonal mass
        // 1/max(1, 100) = 0.01.
        let s = model_join_range_selectivity(&point, CmpOp::Lt, &wide).unwrap();
        assert!((s - (6.0 / 13.0 - 0.005)).abs() < 1e-12, "got {s}");
        // Two identical points: L < R never, L <= R always (eq mass 1).
        let s = model_join_range_selectivity(&point, CmpOp::Lt, &point).unwrap();
        assert_eq!(s, 0.0);
        let s = model_join_range_selectivity(&point, CmpOp::Le, &point).unwrap();
        assert_eq!(s, 1.0);
    }

    #[test]
    fn join_range_model_without_domains_uses_default_and_scales_nulls() {
        let unknown = ColumnStatistics::with_distinct(100.0);
        let s = model_join_range_selectivity(&unknown, CmpOp::Lt, &unknown).unwrap();
        assert_eq!(s, DEFAULT_RANGE_JOIN_SELECTIVITY);
        let mut nully = seq_stats(10.0);
        nully.null_fraction = 0.5;
        let full = seq_stats(10.0);
        let s = model_join_range_selectivity(&nully, CmpOp::Lt, &full).unwrap();
        let base = model_join_range_selectivity(&full, CmpOp::Lt, &full).unwrap();
        assert!((s - base * 0.5).abs() < 1e-12);
    }

    proptest::proptest! {
        #[test]
        fn join_range_model_is_a_probability_and_complements(
            a in -500.0f64..500.0,
            w1 in 0.0f64..1000.0,
            c in -500.0f64..500.0,
            w2 in 0.0f64..1000.0,
            d1 in 1.0f64..10_000.0,
            d2 in 1.0f64..10_000.0,
        ) {
            let l = ColumnStatistics::with_domain(d1.floor(), a, a + w1);
            let r = ColumnStatistics::with_domain(d2.floor(), c, c + w2);
            let lt = model_join_range_selectivity(&l, CmpOp::Lt, &r).unwrap();
            let le = model_join_range_selectivity(&l, CmpOp::Le, &r).unwrap();
            let gt = model_join_range_selectivity(&l, CmpOp::Gt, &r).unwrap();
            let ge = model_join_range_selectivity(&l, CmpOp::Ge, &r).unwrap();
            for s in [lt, le, gt, ge] {
                proptest::prop_assert!((0.0..=1.0).contains(&s));
            }
            proptest::prop_assert!(lt <= le + 1e-12);
            proptest::prop_assert!(gt <= ge + 1e-12);
            // Complements never lose mass (`L < R` and `L >= R` partition
            // the non-NULL pairs); clamping the diagonal split can only
            // overcount, and by at most the eq mass.
            let eq = 1.0 / d1.floor().max(d2.floor());
            proptest::prop_assert!(lt + ge >= 1.0 - 1e-9);
            proptest::prop_assert!(le + gt >= 1.0 - 1e-9);
            proptest::prop_assert!(lt + ge <= 1.0 + eq + 1e-9);
            proptest::prop_assert!(le + gt <= 1.0 + eq + 1e-9);
        }
    }

    proptest::proptest! {
        #[test]
        fn model_selectivity_is_a_probability(
            d in 1.0f64..10_000.0,
            c in -100i64..1100,
            op_idx in 0usize..6,
        ) {
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            let stats = ColumnStatistics::with_domain(d.floor(), 0.0, 999.0);
            let s = model_selectivity(&stats, ops[op_idx], &Value::Int(c));
            proptest::prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn tighter_bound_never_increases_selectivity(
            a in 0i64..1000,
            b in 0i64..1000,
        ) {
            let stats = ColumnStatistics::with_domain(1000.0, 0.0, 999.0);
            let wide = model_selectivity(&stats, CmpOp::Lt, &Value::Int(a.max(b)));
            let joint = resolve_column_predicates(
                ColumnRef::new(0, 0),
                &stats,
                &[(CmpOp::Lt, Value::Int(a)), (CmpOp::Lt, Value::Int(b))],
                &NoOracle,
            );
            proptest::prop_assert!(joint.selectivity <= wide + 1e-12);
        }
    }
}
