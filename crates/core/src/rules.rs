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
    /// min/max folds. An empty class must derive the neutral 1.0 in every
    /// build profile.
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
}
