//! Selectivity-choice rules for incremental estimation
//! (paper Sections 3.3 and 7).
//!
//! When a table is joined into an intermediate result, several *eligible*
//! join predicates may belong to one equivalence class; their effects are
//! not independent, so an estimator must pick how to combine them:
//!
//! * **Rule M** (multiplicative, System R [13]) uses *all* selectivities —
//!   and can underestimate catastrophically (paper Example 2: 1 instead of
//!   1000).
//! * **Rule SS** (smallest selectivity) picks the most selective predicate
//!   per class — the "intuitive" choice, still wrong (Example 3: 100).
//! * **Rule LS** (largest selectivity) — the paper's new rule, provably
//!   consistent with the closed form of Equation 3.
//! * **Representative** — the third strawman of Section 3.3: a fixed
//!   per-class selectivity applied once per join step; no fixed value is
//!   correct in all cases.

/// How to combine the eligible join selectivities within one equivalence
/// class at one join step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectivityRule {
    /// Multiply every eligible selectivity (Rule M).
    Multiplicative,
    /// Use only the smallest selectivity per class (Rule SS).
    SmallestSelectivity,
    /// Use only the largest selectivity per class (Rule LS — the paper's
    /// correct rule, and the default).
    #[default]
    LargestSelectivity,
    /// Use a fixed representative selectivity per class, once per step.
    Representative,
}

impl SelectivityRule {
    /// Short name as used in the paper's experiment table.
    pub fn short_name(self) -> &'static str {
        match self {
            SelectivityRule::Multiplicative => "M",
            SelectivityRule::SmallestSelectivity => "SS",
            SelectivityRule::LargestSelectivity => "LS",
            SelectivityRule::Representative => "REP",
        }
    }

    /// Combine the eligible selectivities of ONE class at one join step.
    /// `representative` is the class's fixed value (used only by
    /// [`SelectivityRule::Representative`]).
    ///
    /// **Contract:** an empty `eligible` slice means "no eligible join
    /// predicate applies at this step", and every order-based rule returns
    /// the neutral selectivity `1.0` (the estimate is left unchanged).
    /// Earlier revisions only `debug_assert!`ed here, so release builds
    /// silently produced `±inf` from the min/max folds and poisoned every
    /// downstream estimate.
    pub(crate) fn combine(self, eligible: &[f64], representative: f64) -> f64 {
        if eligible.is_empty() && self != SelectivityRule::Representative {
            return 1.0;
        }
        match self {
            SelectivityRule::Multiplicative => eligible.iter().product(),
            SelectivityRule::SmallestSelectivity => {
                eligible.iter().copied().fold(f64::INFINITY, f64::min)
            }
            SelectivityRule::LargestSelectivity => {
                eligible.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
            SelectivityRule::Representative => representative,
        }
    }
}

/// How the per-class representative selectivity is derived for
/// [`SelectivityRule::Representative`]. The paper's example tries the
/// class's two distinct selectivities (0.01 and 0.001) and shows each fails
/// on one side; these strategies let the benchmarks replay that argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RepresentativeStrategy {
    /// The smallest selectivity among the class's join predicates.
    SmallestInClass,
    /// The largest selectivity among the class's join predicates.
    #[default]
    LargestInClass,
    /// The geometric mean of the class's join-predicate selectivities.
    GeometricMean,
}

impl RepresentativeStrategy {
    /// Derive the class representative from all of that class's predicate
    /// selectivities.
    ///
    /// **Contract:** an empty slice yields the neutral selectivity `1.0`
    /// (a class with no join predicates filters nothing). This used to be
    /// a `debug_assert!` only, letting release builds return `±inf` from
    /// the min/max folds.
    pub(crate) fn derive(self, class_selectivities: &[f64]) -> f64 {
        if class_selectivities.is_empty() {
            return 1.0;
        }
        match self {
            RepresentativeStrategy::SmallestInClass => {
                class_selectivities.iter().copied().fold(f64::INFINITY, f64::min)
            }
            RepresentativeStrategy::LargestInClass => {
                class_selectivities.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
            RepresentativeStrategy::GeometricMean => {
                let log_sum: f64 =
                    class_selectivities.iter().map(|s| s.max(f64::MIN_POSITIVE).ln()).sum();
                (log_sum / class_selectivities.len() as f64).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ELIGIBLE: [f64; 2] = [0.01, 0.001]; // J1 and J3 of the paper.

    #[test]
    fn rule_m_multiplies() {
        let s = SelectivityRule::Multiplicative.combine(&ELIGIBLE, 0.5);
        assert!((s - 1e-5).abs() < 1e-18);
    }

    #[test]
    fn rule_ss_takes_smallest() {
        assert_eq!(SelectivityRule::SmallestSelectivity.combine(&ELIGIBLE, 0.5), 0.001);
    }

    #[test]
    fn rule_ls_takes_largest() {
        assert_eq!(SelectivityRule::LargestSelectivity.combine(&ELIGIBLE, 0.5), 0.01);
    }

    #[test]
    fn representative_ignores_eligible() {
        assert_eq!(SelectivityRule::Representative.combine(&ELIGIBLE, 0.42), 0.42);
    }

    #[test]
    fn single_eligible_selectivity_is_returned_by_all_order_rules() {
        for rule in [
            SelectivityRule::Multiplicative,
            SelectivityRule::SmallestSelectivity,
            SelectivityRule::LargestSelectivity,
        ] {
            assert_eq!(rule.combine(&[0.25], 0.9), 0.25, "{rule:?}");
        }
    }

    #[test]
    fn representative_strategies() {
        let sels = [0.01, 0.001, 0.001];
        assert_eq!(RepresentativeStrategy::SmallestInClass.derive(&sels), 0.001);
        assert_eq!(RepresentativeStrategy::LargestInClass.derive(&sels), 0.01);
        let gm = RepresentativeStrategy::GeometricMean.derive(&sels);
        let expected = (0.01f64 * 0.001 * 0.001).powf(1.0 / 3.0);
        assert!((gm - expected).abs() < 1e-12);
    }

    /// Regression: before the empty-slice contract, release builds (where
    /// `debug_assert!` compiles out) returned `+inf`/`-inf` from the
    /// min/max folds and `NaN`-free garbage from the product, poisoning
    /// every downstream cardinality. Empty input must be the neutral 1.0
    /// in every build profile.
    #[test]
    fn empty_eligible_is_neutral_not_infinite() {
        for rule in [
            SelectivityRule::Multiplicative,
            SelectivityRule::SmallestSelectivity,
            SelectivityRule::LargestSelectivity,
        ] {
            let s = rule.combine(&[], 0.42);
            assert!(s.is_finite(), "{rule:?} returned {s}");
            assert_eq!(s, 1.0, "{rule:?}");
        }
        // Representative still answers with its fixed per-class value.
        assert_eq!(SelectivityRule::Representative.combine(&[], 0.42), 0.42);
    }

    /// Regression companion for [`RepresentativeStrategy::derive`].
    #[test]
    fn empty_class_derives_neutral_representative() {
        for strategy in [
            RepresentativeStrategy::SmallestInClass,
            RepresentativeStrategy::LargestInClass,
            RepresentativeStrategy::GeometricMean,
        ] {
            let s = strategy.derive(&[]);
            assert!(s.is_finite(), "{strategy:?} returned {s}");
            assert_eq!(s, 1.0, "{strategy:?}");
        }
    }

    #[test]
    fn short_names_match_paper() {
        assert_eq!(SelectivityRule::Multiplicative.short_name(), "M");
        assert_eq!(SelectivityRule::SmallestSelectivity.short_name(), "SS");
        assert_eq!(SelectivityRule::LargestSelectivity.short_name(), "LS");
    }

    proptest::proptest! {
        #[test]
        fn rules_are_ordered_m_le_ss_le_ls(sels in proptest::collection::vec(1e-6f64..1.0, 1..6)) {
            let m = SelectivityRule::Multiplicative.combine(&sels, 0.0);
            let ss = SelectivityRule::SmallestSelectivity.combine(&sels, 0.0);
            let ls = SelectivityRule::LargestSelectivity.combine(&sels, 0.0);
            proptest::prop_assert!(m <= ss + 1e-15);
            proptest::prop_assert!(ss <= ls + 1e-15);
        }
    }
}
