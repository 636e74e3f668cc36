//! Distribution statistics: histograms and most-common-value lists.
//!
//! The paper (Section 5) allows local-predicate selectivities to come from
//! "distribution statistics on y" instead of the uniformity assumption.
//! This module provides the two classic histogram flavours —
//! **equi-width** (fixed-width value ranges) and **equi-depth** (fixed
//! tuple count per bucket, per Piatetsky-Shapiro & Connell [10] and
//! Muralikrishna & DeWitt [8]) — plus a most-common-values list for highly
//! skewed (Zipfian) columns, the case Lynch [6] targets.
//!
//! Histograms are built over the numeric projection of a column; string
//! columns fall back to distinct-count-based estimation in `els-core`.

use std::collections::HashMap;

use els_core::predicate::CmpOp;

/// One histogram bucket over `[lo, hi]` (buckets partition the domain; a
/// value that falls exactly on an interior boundary belongs to the *later*
/// bucket — the equi-width build convention `idx = (v - lo) / width` — and
/// only the last bucket includes its `hi`).
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Upper bound (inclusive for the last bucket, exclusive otherwise).
    pub hi: f64,
    /// Number of rows in the bucket.
    pub count: u64,
    /// Number of distinct values in the bucket.
    pub distinct: u64,
}

/// An equi-width histogram: the value domain is cut into equal-width ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiWidthHistogram {
    buckets: Vec<Bucket>,
    total: u64,
}

/// An equi-depth histogram: buckets hold (approximately) equal row counts.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    buckets: Vec<Bucket>,
    total: u64,
}

/// Either histogram flavour, behind one estimation interface.
#[derive(Debug, Clone, PartialEq)]
pub enum Histogram {
    /// Equal-width buckets.
    EquiWidth(EquiWidthHistogram),
    /// Equal-depth buckets.
    EquiDepth(EquiDepthHistogram),
}

impl Histogram {
    /// Build an equi-width histogram from the (unsorted) non-NULL numeric
    /// values of a column. Returns `None` for empty input or `bucket_count
    /// == 0`.
    pub fn equi_width(values: &[f64], bucket_count: usize) -> Option<Histogram> {
        if values.is_empty() || bucket_count == 0 {
            return None;
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if hi <= lo {
            // Single-valued column: one point bucket. The general path
            // would synthesize width-1 buckets past `hi` (the last one with
            // `hi < lo`) and linearly interpolate inside them, giving e.g.
            // `fraction_below(point + 0.5) == 0.5` instead of 1.
            return Some(Histogram::EquiWidth(EquiWidthHistogram {
                buckets: vec![Bucket { lo, hi: lo, count: values.len() as u64, distinct: 1 }],
                total: values.len() as u64,
            }));
        }
        let nb = bucket_count.min(values.len()).max(1);
        let width = (hi - lo) / nb as f64;
        // Per bucket: its row count and the bit patterns of its values.
        let mut slots: Vec<(u64, HashMap<u64, ()>)> = vec![(0, HashMap::new()); nb];
        for &v in values {
            let idx = (((v - lo) / width) as usize).min(nb - 1);
            if let Some((count, seen)) = slots.get_mut(idx) {
                *count += 1;
                seen.insert(v.to_bits(), ());
            }
        }
        let buckets = slots
            .into_iter()
            .enumerate()
            .map(|(i, (count, seen))| Bucket {
                lo: lo + width * i as f64,
                hi: if i == nb - 1 { hi } else { lo + width * (i + 1) as f64 },
                count,
                distinct: seen.len() as u64,
            })
            .collect();
        Some(Histogram::EquiWidth(EquiWidthHistogram { buckets, total: values.len() as u64 }))
    }

    /// Build an equi-depth histogram. Values are sorted internally; equal
    /// values never straddle a bucket boundary (so equality estimates inside
    /// one bucket stay meaningful).
    pub fn equi_depth(values: &[f64], bucket_count: usize) -> Option<Histogram> {
        if values.is_empty() || bucket_count == 0 {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let nb = bucket_count.min(n).max(1);
        let target = n.div_ceil(nb) as u64;
        // Whole runs of equal values fill a bucket until it holds `target`
        // rows, so equal values stay together.
        let mut buckets = Vec::with_capacity(nb);
        let mut open: Option<Bucket> = None;
        for run in sorted.chunk_by(|a, b| a == b) {
            let (Some(&first), Some(&last)) = (run.first(), run.last()) else { continue };
            let b = open.get_or_insert(Bucket { lo: first, hi: first, count: 0, distinct: 0 });
            b.hi = last;
            b.count += run.len() as u64;
            b.distinct += 1;
            if b.count >= target {
                buckets.extend(open.take());
            }
        }
        buckets.extend(open);
        Some(Histogram::EquiDepth(EquiDepthHistogram { buckets, total: n as u64 }))
    }

    fn buckets(&self) -> &[Bucket] {
        match self {
            Histogram::EquiWidth(h) => &h.buckets,
            Histogram::EquiDepth(h) => &h.buckets,
        }
    }

    /// Total number of rows the histogram describes.
    pub fn total_count(&self) -> u64 {
        match self {
            Histogram::EquiWidth(h) => h.total,
            Histogram::EquiDepth(h) => h.total,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets().len()
    }

    /// Estimated fraction of rows with value strictly less than `v`.
    pub fn fraction_below(&self, v: f64) -> f64 {
        let total = self.total_count() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0f64;
        for b in self.buckets() {
            if v <= b.lo {
                break;
            }
            if v > b.hi {
                acc += b.count as f64;
            } else {
                // Linear interpolation inside the bucket.
                let span = (b.hi - b.lo).max(f64::MIN_POSITIVE);
                acc += b.count as f64 * ((v - b.lo) / span).clamp(0.0, 1.0);
                break;
            }
        }
        (acc / total).clamp(0.0, 1.0)
    }

    /// Estimated fraction of rows equal to `v` (uniformity within the
    /// containing bucket: `count / distinct` rows per value).
    pub fn fraction_equal(&self, v: f64) -> f64 {
        let total = self.total_count() as f64;
        if total == 0.0 {
            return 0.0;
        }
        // The equi-width builder puts a value sitting exactly on an interior
        // boundary into the *later* bucket (`idx = (v - lo) / width`), so the
        // lookup must prefer the last bucket containing `v` — otherwise a
        // boundary value is estimated with the earlier bucket's
        // `count/distinct` even though it was never counted there. Equi-depth
        // buckets never share a boundary value, so the direction is
        // indifferent for them.
        for b in self.buckets().iter().rev() {
            if v >= b.lo && v <= b.hi {
                let per_value = b.count as f64 / b.distinct.max(1) as f64;
                return (per_value / total).clamp(0.0, 1.0);
            }
        }
        0.0
    }

    /// Estimated probability that a row drawn from this histogram is
    /// **strictly below** a row drawn independently from `other`:
    /// `P(X < Y) = E_Y[F_X(Y)]`, integrated bucket-by-bucket over `other`
    /// — each of `other`'s buckets contributes its row fraction times the
    /// exact average of this histogram's piecewise-linear
    /// [`Histogram::fraction_below`] over the bucket's range (endpoint
    /// trapezoids would overestimate *both* directions at once wherever a
    /// convex CDF kinks inside the other side's bucket, violating
    /// `P(X<Y) + P(Y<X) <= 1`).
    ///
    /// The result is strict on purpose: inclusive variants come from the
    /// complement (`P(X <= Y) = 1 - P(Y < X)`), which keeps "below or
    /// equal = below + equal" exact without a separate pair-equality
    /// integral. A point bucket (`lo == hi`) contributes exactly
    /// `F_X(point)`, so two single-valued columns at the same value give
    /// `P(X < Y) = 0` and `P(X <= Y) = 1`.
    pub fn fraction_pairs_below(&self, other: &Histogram) -> f64 {
        let total = other.total_count() as f64;
        if total == 0.0 || self.total_count() == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for b in other.buckets() {
            let weight = b.count as f64 / total;
            acc += weight * self.mean_fraction_below(b.lo, b.hi);
        }
        acc.clamp(0.0, 1.0)
    }

    /// Average of [`Histogram::fraction_below`] over `[lo, hi]` under a
    /// uniform density — exact for the piecewise-linear interpolated CDF;
    /// plain `fraction_below(lo)` when the interval is a point.
    fn mean_fraction_below(&self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return self.fraction_below(lo);
        }
        let total = self.total_count() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let width = hi - lo;
        let mut acc = 0.0;
        for b in self.buckets() {
            // This bucket's contribution to the CDF is 0 below `b.lo`, a
            // linear ramp across `[b.lo, b.hi]`, and 1 above `b.hi` (for a
            // point bucket the ramp degenerates to a step at the point).
            let span = (b.hi - b.lo).max(f64::MIN_POSITIVE);
            let (l, h) = (lo.max(b.lo), hi.min(b.hi));
            let mut integral = 0.0;
            if h > l {
                integral += ((h - b.lo).powi(2) - (l - b.lo).powi(2)) / (2.0 * span);
            }
            integral += (hi - b.hi.max(lo)).max(0.0);
            acc += b.count as f64 * integral;
        }
        (acc / (total * width)).clamp(0.0, 1.0)
    }

    /// Selectivity of `column op v` from this histogram.
    pub fn selectivity(&self, op: CmpOp, v: f64) -> f64 {
        match op {
            CmpOp::Eq => self.fraction_equal(v),
            CmpOp::Ne => (1.0 - self.fraction_equal(v)).clamp(0.0, 1.0),
            CmpOp::Lt => self.fraction_below(v),
            CmpOp::Le => (self.fraction_below(v) + self.fraction_equal(v)).clamp(0.0, 1.0),
            CmpOp::Gt => (1.0 - self.fraction_below(v) - self.fraction_equal(v)).clamp(0.0, 1.0),
            CmpOp::Ge => (1.0 - self.fraction_below(v)).clamp(0.0, 1.0),
        }
    }
}

/// The `k` most frequent values of a column with their exact row counts —
/// the sharp tool for equality predicates on skewed data.
#[derive(Debug, Clone, PartialEq)]
pub struct MostCommonValues {
    /// `(value, row count)` pairs, most frequent first.
    entries: Vec<(f64, u64)>,
    /// Total rows in the column (including rows not in the list).
    total: u64,
}

impl MostCommonValues {
    /// Build from the non-NULL numeric values of a column, keeping the top
    /// `k` by frequency. Returns `None` on empty input.
    pub fn build(values: &[f64], k: usize) -> Option<MostCommonValues> {
        if values.is_empty() || k == 0 {
            return None;
        }
        let mut freq: HashMap<u64, u64> = HashMap::new();
        for &v in values {
            *freq.entry(v.to_bits()).or_insert(0) += 1;
        }
        let mut entries: Vec<(f64, u64)> =
            freq.into_iter().map(|(bits, n)| (f64::from_bits(bits), n)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.total_cmp(&b.0)));
        entries.truncate(k);
        Some(MostCommonValues { entries, total: values.len() as u64 })
    }

    /// Exact selectivity of `= v` when `v` is in the list.
    pub fn eq_selectivity(&self, v: f64) -> Option<f64> {
        self.entries.iter().find(|(val, _)| *val == v).map(|(_, n)| *n as f64 / self.total as f64)
    }

    /// The tracked entries.
    pub fn entries(&self) -> &[(f64, u64)] {
        &self.entries
    }

    /// Total row count of the underlying column.
    pub fn total_count(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_0_999() -> Vec<f64> {
        (0..1000).map(|i| i as f64).collect()
    }

    #[test]
    fn equi_width_counts_everything() {
        let h = Histogram::equi_width(&uniform_0_999(), 10).unwrap();
        assert_eq!(h.total_count(), 1000);
        assert_eq!(h.num_buckets(), 10);
        let total: u64 = h.buckets().iter().map(|b| b.count).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn equi_depth_balances_counts() {
        let h = Histogram::equi_depth(&uniform_0_999(), 10).unwrap();
        for b in h.buckets() {
            assert_eq!(b.count, 100);
        }
    }

    #[test]
    fn uniform_range_selectivity_matches_model() {
        for h in [
            Histogram::equi_width(&uniform_0_999(), 20).unwrap(),
            Histogram::equi_depth(&uniform_0_999(), 20).unwrap(),
        ] {
            let s = h.selectivity(CmpOp::Lt, 100.0);
            assert!((s - 0.1).abs() < 0.02, "lt selectivity {s} far from 0.1");
            let s = h.selectivity(CmpOp::Ge, 900.0);
            assert!((s - 0.1).abs() < 0.02, "ge selectivity {s} far from 0.1");
        }
    }

    #[test]
    fn skewed_data_equality_is_sharper_than_uniform() {
        // 900 copies of 0, then 1..=100 once each.
        let mut values = vec![0.0; 900];
        values.extend((1..=100).map(|i| i as f64));
        let h = Histogram::equi_depth(&values, 10).unwrap();
        let hot = h.selectivity(CmpOp::Eq, 0.0);
        // True selectivity 0.9; the uniformity model (1/d = 1/101) is
        // hopeless. The histogram must get within 2x.
        assert!(hot > 0.45, "hot-value selectivity {hot} too low");
        let cold = h.selectivity(CmpOp::Eq, 50.0);
        assert!(cold < 0.05, "cold-value selectivity {cold} too high");
    }

    #[test]
    fn boundaries_clamp_to_zero_and_one() {
        let h = Histogram::equi_width(&uniform_0_999(), 10).unwrap();
        assert_eq!(h.selectivity(CmpOp::Lt, -1.0), 0.0);
        assert_eq!(h.selectivity(CmpOp::Ge, -1.0), 1.0);
        assert_eq!(h.selectivity(CmpOp::Lt, 5000.0), 1.0);
        assert_eq!(h.selectivity(CmpOp::Gt, 5000.0), 0.0);
        assert_eq!(h.selectivity(CmpOp::Eq, 5000.0), 0.0);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(Histogram::equi_width(&[], 10).is_none());
        assert!(Histogram::equi_depth(&[], 10).is_none());
        assert!(Histogram::equi_width(&[1.0], 0).is_none());
        // Single value: one bucket covering a point.
        let h = Histogram::equi_width(&[5.0, 5.0, 5.0], 4).unwrap();
        assert_eq!(h.selectivity(CmpOp::Eq, 5.0), 1.0);
        assert_eq!(h.selectivity(CmpOp::Lt, 5.0), 0.0);
    }

    #[test]
    fn single_valued_column_collapses_to_point_bucket() {
        // Regression: the pre-fix builder synthesized width-1 buckets past
        // `hi` (last bucket with hi < lo) and interpolated inside them, so
        // fraction_below(5.5) on an all-5.0 column came out 0.5.
        let h = Histogram::equi_width(&[5.0, 5.0, 5.0], 4).unwrap();
        assert_eq!(h.num_buckets(), 1);
        assert_eq!(h.fraction_below(5.5), 1.0);
        // Strictly below the point.
        assert_eq!(h.selectivity(CmpOp::Lt, 4.5), 0.0);
        assert_eq!(h.selectivity(CmpOp::Le, 4.5), 0.0);
        assert_eq!(h.selectivity(CmpOp::Gt, 4.5), 1.0);
        assert_eq!(h.selectivity(CmpOp::Ge, 4.5), 1.0);
        // Strictly above the point.
        assert_eq!(h.selectivity(CmpOp::Lt, 5.5), 1.0);
        assert_eq!(h.selectivity(CmpOp::Le, 5.5), 1.0);
        assert_eq!(h.selectivity(CmpOp::Gt, 5.5), 0.0);
        assert_eq!(h.selectivity(CmpOp::Ge, 5.5), 0.0);
        // At the point itself.
        assert_eq!(h.selectivity(CmpOp::Eq, 5.0), 1.0);
        assert_eq!(h.selectivity(CmpOp::Lt, 5.0), 0.0);
        assert_eq!(h.selectivity(CmpOp::Ge, 5.0), 1.0);
    }

    #[test]
    fn equi_width_boundary_value_uses_later_bucket() {
        // lo=0, hi=4, 2 buckets of width 2: the six 0s land in bucket 0
        // (count 6, distinct 1), while 2.0 and 4.0 land in bucket 1 (count
        // 2, distinct 2) because idx = (v - lo)/width sends a boundary value
        // to the later bucket. The pre-fix lookup matched bucket 0 first and
        // estimated Eq(2.0) at (6/1)/8 = 0.75 instead of (2/2)/8 = 0.125.
        let values = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 4.0];
        let h = Histogram::equi_width(&values, 2).unwrap();
        assert_eq!(h.num_buckets(), 2);
        assert_eq!(h.fraction_equal(2.0), 0.125);
    }

    #[test]
    fn equi_depth_boundary_value_keeps_its_own_bucket() {
        // Equi-depth buckets never share a value across a boundary: a value
        // equal to some bucket's hi must still resolve to that bucket under
        // the reversed lookup order.
        let values = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0];
        let h = Histogram::equi_depth(&values, 2).unwrap();
        assert_eq!(h.num_buckets(), 2);
        // Bucket 0 is the four 0s (hi = 0.0): per-value 4 of 8 rows.
        assert_eq!(h.fraction_equal(0.0), 0.5);
        // Bucket 1 is {1,1,2,3}: per-value (4/3)/8 = 1/6.
        assert!((h.fraction_equal(1.0) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn equi_depth_keeps_equal_values_together() {
        // 10 copies each of 0..10; 4 buckets of target 25 would split value
        // groups — the builder must extend to group boundaries.
        let mut values = Vec::new();
        for v in 0..10 {
            values.extend(std::iter::repeat_n(v as f64, 10));
        }
        let h = Histogram::equi_depth(&values, 4).unwrap();
        for b in h.buckets() {
            // count must be a multiple of 10 (whole value groups).
            assert_eq!(b.count % 10, 0, "bucket split a value group: {b:?}");
        }
    }

    #[test]
    fn pairs_below_on_identical_uniform_columns_is_half() {
        for h in [
            Histogram::equi_width(&uniform_0_999(), 10).unwrap(),
            Histogram::equi_depth(&uniform_0_999(), 10).unwrap(),
        ] {
            let lt = h.fraction_pairs_below(&h);
            // True P(X < Y) on 1000 i.i.d. uniform points is
            // (1 - 1/1000)/2 = 0.4995.
            assert!((lt - 0.5).abs() < 0.02, "P(X<Y) {lt} far from 0.5");
            // Strict + strict leaves room for the equality diagonal.
            assert!(2.0 * lt <= 1.0 + 1e-9, "strict halves overlap: {lt}");
        }
    }

    #[test]
    fn pairs_below_on_disjoint_domains_is_degenerate() {
        let low: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let high: Vec<f64> = (0..100).map(|i| 1000.0 + i as f64).collect();
        let hl = Histogram::equi_depth(&low, 8).unwrap();
        let hh = Histogram::equi_depth(&high, 8).unwrap();
        assert!((hl.fraction_pairs_below(&hh) - 1.0).abs() < 1e-9);
        assert!(hh.fraction_pairs_below(&hl).abs() < 1e-9);
    }

    #[test]
    fn pairs_below_point_vs_uniform_matches_truth() {
        // X ≡ 7 against Y uniform on {0..13}: P(X < Y) = P(Y > 7) = 6/14,
        // P(Y < X) = P(Y < 7) = 7/14.
        let point = Histogram::equi_width(&[7.0; 50], 4).unwrap();
        let unif: Vec<f64> = (0..14).map(|i| i as f64).collect();
        let u = Histogram::equi_depth(&unif, 14).unwrap();
        let lt = point.fraction_pairs_below(&u);
        assert!((lt - 6.0 / 14.0).abs() < 0.05, "P(7<Y) {lt}");
        let gt = u.fraction_pairs_below(&point);
        assert!((gt - 7.0 / 14.0).abs() < 0.05, "P(Y<7) {gt}");
    }

    #[test]
    fn pairs_below_two_equal_points_leaves_all_mass_on_the_diagonal() {
        // Degenerate single-valued buckets on both sides: strictly-below is
        // 0 both ways, so below-or-equal (the complement of the reverse
        // strict) is 1 — the whole cross product is the equality diagonal.
        let a = Histogram::equi_width(&[5.0, 5.0, 5.0], 4).unwrap();
        let b = Histogram::equi_depth(&[5.0; 7], 2).unwrap();
        assert_eq!(a.fraction_pairs_below(&b), 0.0);
        assert_eq!(b.fraction_pairs_below(&a), 0.0);
        // Shifted point: everything on one side.
        let c = Histogram::equi_width(&[6.0, 6.0], 1).unwrap();
        assert_eq!(a.fraction_pairs_below(&c), 1.0);
        assert_eq!(c.fraction_pairs_below(&a), 0.0);
    }

    #[test]
    fn inclusive_selectivity_is_below_plus_equal_at_bucket_edges() {
        // Satellite audit: `<=` must be fraction_below + fraction_equal and
        // `>` its complement, exactly, at interior bucket boundaries where
        // the strict/inclusive distinction is easiest to get wrong.
        let h = Histogram::equi_width(&uniform_0_999(), 10).unwrap();
        for edge in [100.0, 500.0, 900.0] {
            let below = h.fraction_below(edge);
            let eq = h.fraction_equal(edge);
            assert!(eq > 0.0, "boundary value {edge} has mass");
            assert_eq!(h.selectivity(CmpOp::Le, edge), below + eq);
            assert_eq!(h.selectivity(CmpOp::Gt, edge), 1.0 - below - eq);
            assert_eq!(h.selectivity(CmpOp::Ge, edge), 1.0 - below);
        }
    }

    #[test]
    fn ne_is_complement_of_eq() {
        let h = Histogram::equi_depth(&uniform_0_999(), 10).unwrap();
        let eq = h.selectivity(CmpOp::Eq, 500.0);
        let ne = h.selectivity(CmpOp::Ne, 500.0);
        assert!((eq + ne - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mcv_tracks_top_values_exactly() {
        let mut values = vec![7.0; 500];
        values.extend(vec![3.0; 300]);
        values.extend((0..200).map(|i| 100.0 + i as f64));
        let mcv = MostCommonValues::build(&values, 2).unwrap();
        assert_eq!(mcv.entries().len(), 2);
        assert_eq!(mcv.eq_selectivity(7.0), Some(0.5));
        assert_eq!(mcv.eq_selectivity(3.0), Some(0.3));
        assert_eq!(mcv.eq_selectivity(100.0), None);
        assert_eq!(mcv.total_count(), 1000);
    }

    #[test]
    fn mcv_empty_input() {
        assert!(MostCommonValues::build(&[], 4).is_none());
        assert!(MostCommonValues::build(&[1.0], 0).is_none());
    }

    proptest::proptest! {
        #[test]
        fn selectivities_are_probabilities(
            values in proptest::collection::vec(-1000.0f64..1000.0, 1..300),
            v in -1500.0f64..1500.0,
            nb in 1usize..16,
        ) {
            for h in [
                Histogram::equi_width(&values, nb).unwrap(),
                Histogram::equi_depth(&values, nb).unwrap(),
            ] {
                for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                    let s = h.selectivity(op, v);
                    proptest::prop_assert!((0.0..=1.0).contains(&s), "{op:?} gave {s}");
                }
            }
        }

        #[test]
        fn constant_column_range_selectivities_are_degenerate(
            point in -1000.0f64..1000.0,
            n in 1usize..200,
            nb in 1usize..16,
            delta in 0.001f64..100.0,
        ) {
            let values = vec![point; n];
            let below = point - delta;
            let above = point + delta;
            for h in [
                Histogram::equi_width(&values, nb).unwrap(),
                Histogram::equi_depth(&values, nb).unwrap(),
            ] {
                // Every range selectivity on either side of the point is
                // exactly 0 or 1 — never an interpolated in-between.
                proptest::prop_assert_eq!(h.selectivity(CmpOp::Lt, below), 0.0);
                proptest::prop_assert_eq!(h.selectivity(CmpOp::Le, below), 0.0);
                proptest::prop_assert_eq!(h.selectivity(CmpOp::Gt, below), 1.0);
                proptest::prop_assert_eq!(h.selectivity(CmpOp::Ge, below), 1.0);
                proptest::prop_assert_eq!(h.selectivity(CmpOp::Lt, above), 1.0);
                proptest::prop_assert_eq!(h.selectivity(CmpOp::Le, above), 1.0);
                proptest::prop_assert_eq!(h.selectivity(CmpOp::Gt, above), 0.0);
                proptest::prop_assert_eq!(h.selectivity(CmpOp::Ge, above), 0.0);
                proptest::prop_assert_eq!(h.selectivity(CmpOp::Eq, point), 1.0);
            }
        }

        #[test]
        fn pairs_below_is_a_probability_and_strict_halves_fit(
            xs in proptest::collection::vec(-100.0f64..100.0, 1..120),
            ys in proptest::collection::vec(-100.0f64..100.0, 1..120),
            nb in 1usize..8,
        ) {
            for (hx, hy) in [
                (Histogram::equi_width(&xs, nb).unwrap(), Histogram::equi_width(&ys, nb).unwrap()),
                (Histogram::equi_depth(&xs, nb).unwrap(), Histogram::equi_depth(&ys, nb).unwrap()),
            ] {
                let lt = hx.fraction_pairs_below(&hy);
                let gt = hy.fraction_pairs_below(&hx);
                proptest::prop_assert!((0.0..=1.0).contains(&lt));
                proptest::prop_assert!((0.0..=1.0).contains(&gt));
                // P(X<Y) + P(Y<X) <= 1: the diagonal never goes negative.
                proptest::prop_assert!(lt + gt <= 1.0 + 1e-9, "lt {lt} + gt {gt} > 1");
            }
        }

        #[test]
        fn fraction_below_bounded_mid_bucket(
            values in proptest::collection::vec(-50.0f64..50.0, 1..100),
            nb in 1usize..8,
        ) {
            for h in [
                Histogram::equi_width(&values, nb).unwrap(),
                Histogram::equi_depth(&values, nb).unwrap(),
            ] {
                for b in h.buckets() {
                    let mid = (b.lo + b.hi) / 2.0;
                    proptest::prop_assert!(h.fraction_below(mid) <= 1.0);
                    proptest::prop_assert!(h.fraction_below(b.hi) <= 1.0);
                }
            }
        }

        #[test]
        fn fraction_below_is_monotone(
            values in proptest::collection::vec(0.0f64..100.0, 1..200),
        ) {
            let h = Histogram::equi_depth(&values, 8).unwrap();
            let mut prev = 0.0;
            for step in 0..=110 {
                let cur = h.fraction_below(step as f64);
                proptest::prop_assert!(cur + 1e-12 >= prev);
                prev = cur;
            }
        }
    }
}
