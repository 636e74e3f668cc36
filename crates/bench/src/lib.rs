//! # els-bench
//!
//! The experiment driver: `els-bench <name>` regenerates one table or
//! figure of `EXPERIMENTS.md` (see [`experiments::EXPERIMENTS`], and
//! `DESIGN.md` for the experiment index). The rest of this crate is what
//! the experiments share.

#![deny(unsafe_code)]

pub mod accuracy;
pub mod experiments;
pub mod heuristic;
pub mod table;
pub mod workload;

use els_catalog::collect::CollectOptions;
use els_catalog::Catalog;
use els_core::{ColumnStatistics, QueryStatistics, TableStatistics};
use els_storage::datagen::starburst_experiment_tables;

/// The Section 8 query.
pub const SECTION8_SQL: &str =
    "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100";

/// S/M/B/G row counts of the Section 8 schema scaled down 20–25× (the full
/// tables have 1k/10k/50k/100k rows): the size the `bakeoff` experiment
/// prints and the accuracy and bake-off unit tests pin their gates on.
pub const SECTION8_SCALED_ROWS: [usize; 4] = [50, 500, 2_000, 4_000];

/// Build the Section 8 catalog (S/M/B/G with key join columns + payload).
pub fn section8_catalog(seed: u64) -> Catalog {
    let mut catalog = Catalog::new();
    for t in starburst_experiment_tables(seed) {
        catalog
            .register(t, &CollectOptions::default())
            .expect("fresh catalog accepts the experiment tables");
    }
    catalog
}

/// Statistics-only version of a single-class chain query: `dims[i]` is
/// `(cardinality, join-column distinct count)` of table `i`.
pub fn chain_statistics(dims: &[(f64, f64)]) -> QueryStatistics {
    QueryStatistics::new(
        dims.iter()
            .map(|&(rows, d)| TableStatistics::new(rows, vec![ColumnStatistics::with_distinct(d)]))
            .collect(),
    )
}

/// The chain's join predicates (adjacent equalities, one class).
pub fn chain_predicates(n: usize) -> Vec<els_core::Predicate> {
    (1..n)
        .map(|i| {
            els_core::Predicate::join_eq(
                els_core::ColumnRef::new(i - 1, 0),
                els_core::ColumnRef::new(i, 0),
            )
            .unwrap()
        })
        .collect()
}

/// Geometric mean of strictly positive samples.
pub fn geometric_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = samples.iter().map(|s| s.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / samples.len() as f64).exp()
}

/// Format a float compactly for report tables (scientific when extreme).
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if !(0.001..=1e6).contains(&v.abs()) {
        format!("{v:.2e}")
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section8_catalog_has_the_four_tables() {
        let c = section8_catalog(42);
        assert_eq!(c.table_names(), vec!["S", "M", "B", "G"]);
        assert_eq!(c.table_stats("G").unwrap().cardinality, 100_000.0);
    }

    #[test]
    fn chain_helpers_are_consistent() {
        let dims = [(10.0, 2.0), (20.0, 4.0), (30.0, 6.0)];
        let stats = chain_statistics(&dims);
        assert_eq!(stats.num_tables(), 3);
        let preds = chain_predicates(3);
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn fmt_num_ranges() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(100.0), "100");
        assert_eq!(fmt_num(0.25), "0.250");
        assert_eq!(fmt_num(4e-8), "4.00e-8");
    }
}
