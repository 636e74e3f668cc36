//! Effect of local predicates on table and column cardinalities
//! (Algorithm ELS, Step 4; paper Section 5).
//!
//! After Step 3 has resolved the constant predicates on each column, this
//! module computes, per table:
//!
//! * the **effective table cardinality** ‖R‖′ = ‖R‖ · ∏ S_c (product over
//!   the per-column resolved selectivities, independence assumption), and
//! * the **effective column cardinality** d′ of every column:
//!   * a column constrained by its own equality predicate has d′ = 1;
//!   * a column constrained by its own range predicates has d′ = d · S_c
//!     (paper: "d_y′ = d_y × S_L");
//!   * any column is additionally bounded by the urn model
//!     d′ ≤ ⌈d·(1−(1−1/d)^‖R‖′)⌉ — the paper's treatment of columns *other*
//!     than the predicate column, generalized here to several predicate
//!     columns by taking the minimum of the own-predicate bound and the urn
//!     bound (each is an upper bound on the surviving distinct count);
//!   * nothing exceeds ‖R‖′ (a table cannot hold fewer rows than distinct
//!     values).
//!
//! After this step the rest of the algorithm deals exclusively with join
//! predicates (paper, end of Section 5): the original statistics are
//! retained alongside for the *standard* (pre-ELS) estimation mode and for
//! access-cost calculations.

use std::collections::HashMap;

use crate::correction::{scan_fingerprint, CorrectionSource};
use crate::error::{ElsError, ElsResult};
use crate::float::exactly_zero;
use crate::ids::ColumnRef;
use crate::predicate::Predicate;
use crate::selectivity::{resolve_column_predicates, ResolvedShape, SelectivityOracle};
use crate::stats::QueryStatistics;
use crate::urn;

/// Which distinct-value reduction model to use for columns that are reduced
/// indirectly (by predicates on *other* columns). The paper argues for the
/// urn model; the proportional alternative is kept for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistinctReduction {
    /// The paper's urn model (Section 5).
    #[default]
    UrnModel,
    /// The "other common estimate" d′ = d · ‖R‖′/‖R‖ the paper criticizes.
    Proportional,
}

/// Post-Step-4 statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectiveTable {
    /// ‖R‖ before local predicates.
    pub original_cardinality: f64,
    /// ‖R‖′ after local predicates.
    pub cardinality: f64,
    /// d′ per column (indexed by column position).
    pub column_distinct: Vec<f64>,
    /// Original d per column, kept for the standard estimation mode.
    pub original_distinct: Vec<f64>,
    /// Combined selectivity of all local constant predicates on this table.
    pub local_selectivity: f64,
    /// True when the local predicates are contradictory (empty table).
    pub contradiction: bool,
}

/// Post-Step-4 statistics for the whole query.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectiveStats {
    /// Per-table effective statistics, in `FROM`-list order.
    pub tables: Vec<EffectiveTable>,
}

impl EffectiveStats {
    /// Effective distinct count d′ of a column (0.0 when unknown).
    pub(crate) fn distinct(&self, c: ColumnRef) -> f64 {
        self.tables
            .get(c.table)
            .and_then(|t| t.column_distinct.get(c.column))
            .copied()
            // els-lint: allow(numeric-discipline, "documented degrade-don't-panic API: 0.0 distinct values for an unknown column is the doc-comment contract, and join_sel treats 0 as 'no join support'")
            .unwrap_or(0.0)
    }

    /// Original (pre-predicate) distinct count of a column (0.0 when
    /// unknown).
    pub(crate) fn original_distinct(&self, c: ColumnRef) -> f64 {
        self.tables
            .get(c.table)
            .and_then(|t| t.original_distinct.get(c.column))
            .copied()
            // els-lint: allow(numeric-discipline, "documented degrade-don't-panic API: same 0.0-when-unknown contract as EffectiveStats::distinct above")
            .unwrap_or(0.0)
    }
}

/// Compute Step 4 for all tables. `predicates` must already be deduplicated
/// (and normally closed under transitivity, so that derived filters like the
/// Section 8 `m < 100` are present). Only [`Predicate::LocalCmp`] conjuncts
/// are consumed here; local column equalities are the business of Step 5
/// ([`crate::same_table`]).
///
/// The feedback hook: after a table's local selectivity is resolved, a
/// published scan correction (keyed by the table's [`scan_fingerprint`]) is
/// multiplied in and the product clamped back into `[0, 1]`, so learned
/// corrections adjust ‖R‖′ — and, downstream, the urn bounds — without
/// touching the Step 3/4 machinery.
pub(crate) fn compute_effective_stats(
    predicates: &[Predicate],
    stats: &QueryStatistics,
    oracle: &dyn SelectivityOracle,
    reduction: DistinctReduction,
    corrections: &dyn CorrectionSource,
) -> ElsResult<EffectiveStats> {
    stats.validate()?;
    let shape = stats.shape();
    for p in predicates {
        p.validate(&shape)?;
    }

    // Bucket constant predicates by column; collect nullness tests apart
    // (they are not comparisons and compose differently).
    let mut by_column: HashMap<ColumnRef, Vec<(crate::predicate::CmpOp, els_storage::Value)>> =
        HashMap::new();
    let mut null_tests: HashMap<ColumnRef, (bool, bool)> = HashMap::new(); // (is_null, is_not_null)
    for p in predicates {
        match p {
            Predicate::LocalCmp { column, op, value } => {
                by_column.entry(*column).or_default().push((*op, value.clone()));
            }
            Predicate::IsNull { column, negated } => {
                let e = null_tests.entry(*column).or_insert((false, false));
                if *negated {
                    e.1 = true;
                } else {
                    e.0 = true;
                }
            }
            _ => {}
        }
    }

    let mut tables = Vec::with_capacity(stats.tables.len());
    for (t, tstats) in stats.tables.iter().enumerate() {
        let ncols = tstats.columns.len();
        let mut table_sel = 1.0f64;
        let mut contradiction = false;
        // Resolve each column's own predicates: `(selectivity, bound)` per
        // column, in column order.
        let mut own: Vec<(f64, Option<f64>)> = Vec::with_capacity(ncols);
        for (c, cstats) in tstats.columns.iter().enumerate() {
            let cref = ColumnRef::new(t, c);
            let has_cmp = by_column.contains_key(&cref);
            let mut own_sel = 1.0f64;
            let mut own_bound: Option<f64> = None;
            // Nullness tests first: `IS NULL` conflicts with any comparison
            // (comparisons require a non-NULL value) and with IS NOT NULL;
            // `IS NOT NULL` is redundant next to a comparison (the model
            // selectivities already carry the non-NULL factor).
            if let Some(&(is_null, is_not_null)) = null_tests.get(&cref) {
                if is_null {
                    if is_not_null || has_cmp || exactly_zero(cstats.null_fraction) {
                        contradiction = true;
                    } else {
                        table_sel *= cstats.null_fraction;
                        own_sel *= cstats.null_fraction;
                        // Only NULL rows remain: the column carries no
                        // joinable values at all.
                        own_bound = Some(0.0);
                    }
                } else if is_not_null && !has_cmp {
                    let sel = 1.0 - cstats.null_fraction;
                    table_sel *= sel;
                    own_sel *= sel;
                    // Every distinct (non-NULL) value survives.
                    own_bound = Some(cstats.distinct);
                }
            }
            if let Some(preds) = by_column.get(&cref) {
                let resolved = resolve_column_predicates(cref, cstats, preds, oracle);
                table_sel *= resolved.selectivity;
                own_sel *= resolved.selectivity;
                match resolved.shape {
                    ResolvedShape::Contradiction => contradiction = true,
                    ResolvedShape::Equality(_) => own_bound = Some(1.0),
                    ResolvedShape::Range => {
                        own_bound = Some(cstats.distinct * resolved.selectivity)
                    }
                    ResolvedShape::Unconstrained => {}
                }
            }
            own.push((own_sel, own_bound));
        }

        // Feedback hook: fold a learned scan correction into the table's
        // combined local selectivity (clamped — a correction can never
        // resurrect more rows than the table holds). Unfiltered tables
        // have an empty fingerprint and are never corrected: their
        // estimate is the exact row count.
        if !contradiction {
            let fingerprint = scan_fingerprint(predicates, t);
            if !fingerprint.is_empty() {
                if let Some(corr) = corrections.scan_correction(t, &fingerprint) {
                    if corr.is_finite() && corr > 0.0 {
                        table_sel = (table_sel * corr).clamp(0.0, 1.0);
                    }
                }
            }
        }

        let original = tstats.cardinality;
        let cardinality = if contradiction { 0.0 } else { original * table_sel };
        // `stats.validate()` vetted the base statistics, but a misbehaving
        // oracle can still return a NaN or negative selectivity; catch the
        // poison here rather than letting it flow into the urn model (which
        // used to swallow it as a silent 0.0 estimate).
        if !cardinality.is_finite() || cardinality < 0.0 {
            return Err(ElsError::DegenerateStats(format!(
                "effective cardinality of table R{t} is {cardinality} \
                 (selectivity {table_sel} on {original} rows)"
            )));
        }

        let mut column_distinct = Vec::with_capacity(ncols);
        for (cstats, &(own_sel, own_bound)) in tstats.columns.iter().zip(&own) {
            let d = cstats.distinct;
            // Selectivity contributed by predicates on *other* columns.
            let other_sel = if own_sel > 0.0 { table_sel / own_sel } else { 0.0 };
            let d_prime = if contradiction || exactly_zero(cardinality) {
                0.0
            } else if cardinality >= original {
                // No reduction at all: keep d exactly.
                d
            } else if other_sel >= 1.0 - 1e-12 {
                // Reduction comes only from this column's own predicates:
                // the paper's exact rule (d' = 1 for equality, d·S for
                // ranges) applies with no urn shaving.
                own_bound.unwrap_or(d)
            } else {
                // Other columns shrank the table too: the urn bound with the
                // final ||R||' captures their effect; own predicates give an
                // independent upper bound. Both hold, so take the minimum.
                let indirect = match reduction {
                    DistinctReduction::UrnModel => urn::expected_distinct_rounded(d, cardinality)?,
                    DistinctReduction::Proportional => {
                        urn::proportional_distinct(d, cardinality, original)?
                    }
                };
                match own_bound {
                    Some(own) => own.min(indirect),
                    None => indirect,
                }
            };
            column_distinct.push(d_prime.min(cardinality.max(0.0)).min(d));
        }

        tables.push(EffectiveTable {
            original_cardinality: original,
            cardinality,
            column_distinct,
            original_distinct: tstats.columns.iter().map(|c| c.distinct).collect(),
            local_selectivity: if contradiction { 0.0 } else { table_sel },
            contradiction,
        });
    }
    Ok(EffectiveStats { tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correction::NoCorrections;
    use crate::local_effects::DistinctReduction::{Proportional, UrnModel};
    use crate::predicate::CmpOp;
    use crate::selectivity::NoOracle;
    use crate::stats::{ColumnStatistics, TableStatistics};

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    /// One table, ||R|| rows, sequential-style columns with given d.
    fn one_table(rows: f64, ds: &[f64]) -> QueryStatistics {
        QueryStatistics::new(vec![TableStatistics::new(
            rows,
            ds.iter().map(|&d| ColumnStatistics::with_domain(d, 0.0, d - 1.0)).collect(),
        )])
    }

    #[test]
    fn no_predicates_changes_nothing() {
        let stats = one_table(1000.0, &[100.0, 1000.0]);
        let eff =
            compute_effective_stats(&[], &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert_eq!(eff.tables[0].cardinality, 1000.0);
        assert_eq!(eff.distinct(c(0, 0)), 100.0);
        assert_eq!(eff.distinct(c(0, 1)), 1000.0);
        assert_eq!(eff.tables[0].local_selectivity, 1.0);
    }

    #[test]
    fn section8_filter_on_s() {
        // ||S|| = 1000, d_s = 1000, s < 100 -> ||S||' = 100, d_s' = 100.
        let stats = one_table(1000.0, &[1000.0]);
        let preds = vec![Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64)];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert_eq!(eff.tables[0].cardinality, 100.0);
        assert_eq!(eff.distinct(c(0, 0)), 100.0);
        assert_eq!(eff.tables[0].local_selectivity, 0.1);
    }

    #[test]
    fn equality_predicate_pins_distinct_to_one() {
        let stats = one_table(1000.0, &[100.0, 500.0]);
        let preds = vec![Predicate::local_cmp(c(0, 0), CmpOp::Eq, 7i64)];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        // ||R||' = 1000/100 = 10 (uniformity), d0' = 1.
        assert_eq!(eff.tables[0].cardinality, 10.0);
        assert_eq!(eff.distinct(c(0, 0)), 1.0);
        // The untouched column is urn-reduced: urn(500, 10) = 10 (ceil) —
        // ten tuples can hold at most ten distinct values.
        assert!(eff.distinct(c(0, 1)) <= 10.0);
        assert!(eff.distinct(c(0, 1)) >= 9.0);
    }

    #[test]
    fn paper_section5_urn_numbers() {
        // d_x = 10000, ||R|| = 100000, local predicate halves the table:
        // urn gives 9933, proportional gives 5000.
        let stats = one_table(100_000.0, &[10_000.0, 100_000.0]);
        // Predicate on column 1 (a key) keeping half the rows: v < 50000.
        let preds = vec![Predicate::local_cmp(c(0, 1), CmpOp::Lt, 50_000i64)];
        let eff_urn =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert_eq!(eff_urn.tables[0].cardinality, 50_000.0);
        assert_eq!(eff_urn.distinct(c(0, 0)), 9933.0);
        let eff_prop =
            compute_effective_stats(&preds, &stats, &NoOracle, Proportional, &NoCorrections)
                .unwrap();
        assert_eq!(eff_prop.distinct(c(0, 0)), 5000.0);
    }

    #[test]
    fn own_range_reduction_is_linear_not_urn() {
        // Paper: d_y' = d_y * S_L for the predicate column itself, even when
        // d_y equals ||R|| (where the urn model would shave ~37%).
        let stats = one_table(1000.0, &[1000.0]);
        let preds = vec![Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64)];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert_eq!(eff.distinct(c(0, 0)), 100.0);
    }

    #[test]
    fn contradiction_empties_the_table() {
        let stats = one_table(1000.0, &[100.0, 50.0]);
        let preds = vec![
            Predicate::local_cmp(c(0, 0), CmpOp::Eq, 5i64),
            Predicate::local_cmp(c(0, 0), CmpOp::Eq, 6i64),
        ];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert!(eff.tables[0].contradiction);
        assert_eq!(eff.tables[0].cardinality, 0.0);
        assert_eq!(eff.distinct(c(0, 0)), 0.0);
        assert_eq!(eff.distinct(c(0, 1)), 0.0);
    }

    #[test]
    fn predicates_on_two_columns_compound() {
        // Two independent 0.1-selectivity filters: ||R||' = 10.
        let stats = one_table(1000.0, &[1000.0, 1000.0, 200.0]);
        let preds = vec![
            Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64),
            Predicate::local_cmp(c(0, 1), CmpOp::Lt, 100i64),
        ];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert!((eff.tables[0].cardinality - 10.0).abs() < 1e-9);
        // Own bound for column 0 is 100, but only 10 rows remain.
        assert!(eff.distinct(c(0, 0)) <= 10.0);
        // The bystander column is urn-bounded by the 10 surviving rows.
        assert!(eff.distinct(c(0, 2)) <= 10.0);
    }

    #[test]
    fn distinct_never_exceeds_rows_or_original() {
        let stats = one_table(100.0, &[100.0]);
        let preds = vec![Predicate::local_cmp(c(0, 0), CmpOp::Le, 999i64)];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert!(eff.distinct(c(0, 0)) <= 100.0);
        assert!(eff.distinct(c(0, 0)) <= eff.tables[0].cardinality);
    }

    #[test]
    fn multiple_tables_processed_independently() {
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(1000.0, vec![ColumnStatistics::with_domain(1000.0, 0.0, 999.0)]),
            TableStatistics::new(500.0, vec![ColumnStatistics::with_domain(500.0, 0.0, 499.0)]),
        ]);
        let preds = vec![Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64)];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert_eq!(eff.tables[0].cardinality, 100.0);
        assert_eq!(eff.tables[1].cardinality, 500.0);
        assert_eq!(eff.distinct(c(1, 0)), 500.0);
    }

    #[test]
    fn is_null_keeps_only_the_null_fraction() {
        let mut stats = one_table(1000.0, &[100.0, 50.0]);
        stats.tables[0].columns[0].null_fraction = 0.2;
        let preds = vec![Predicate::IsNull { column: c(0, 0), negated: false }];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert_eq!(eff.tables[0].cardinality, 200.0);
        // The IS NULL column carries no joinable values.
        assert_eq!(eff.distinct(c(0, 0)), 0.0);
        // Bystander columns shrink with the table.
        assert!(eff.distinct(c(0, 1)) <= 200.0);
    }

    #[test]
    fn is_not_null_scales_by_complement() {
        let mut stats = one_table(1000.0, &[100.0]);
        stats.tables[0].columns[0].null_fraction = 0.25;
        let preds = vec![Predicate::is_not_null(c(0, 0))];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert_eq!(eff.tables[0].cardinality, 750.0);
        // All distinct (non-NULL) values survive.
        assert_eq!(eff.distinct(c(0, 0)), 100.0);
    }

    #[test]
    fn is_null_conflicts_with_comparisons_and_not_null() {
        let mut stats = one_table(1000.0, &[100.0]);
        stats.tables[0].columns[0].null_fraction = 0.2;
        for extra in
            [Predicate::local_cmp(c(0, 0), CmpOp::Lt, 10i64), Predicate::is_not_null(c(0, 0))]
        {
            let preds = vec![Predicate::IsNull { column: c(0, 0), negated: false }, extra];
            let eff = compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections)
                .unwrap();
            assert!(eff.tables[0].contradiction);
            assert_eq!(eff.tables[0].cardinality, 0.0);
        }
        // IS NULL on a column with no NULLs empties the table too.
        let stats = one_table(1000.0, &[100.0]);
        let preds = vec![Predicate::IsNull { column: c(0, 0), negated: false }];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert_eq!(eff.tables[0].cardinality, 0.0);
    }

    #[test]
    fn is_not_null_is_redundant_next_to_a_comparison() {
        // The model selectivity of a comparison already carries (1 - nf);
        // adding IS NOT NULL must not double-count it.
        let mut stats = one_table(1000.0, &[1000.0]);
        stats.tables[0].columns[0].null_fraction = 0.5;
        let cmp_only = vec![Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64)];
        let both =
            vec![Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64), Predicate::is_not_null(c(0, 0))];
        let a = compute_effective_stats(&cmp_only, &stats, &NoOracle, UrnModel, &NoCorrections)
            .unwrap();
        let b =
            compute_effective_stats(&both, &stats, &NoOracle, UrnModel, &NoCorrections).unwrap();
        assert_eq!(a.tables[0].cardinality, b.tables[0].cardinality);
    }

    #[test]
    fn nan_oracle_selectivity_is_a_typed_error_not_a_zero_estimate() {
        // A custom oracle returning NaN used to flow through table_sel into
        // the urn model, which silently emitted 0.0 — a confident "empty
        // table" estimate from garbage input. It must now surface as
        // DegenerateStats.
        struct NanOracle;
        impl crate::selectivity::SelectivityOracle for NanOracle {
            fn local_selectivity(
                &self,
                _column: ColumnRef,
                _op: CmpOp,
                _value: &els_storage::Value,
            ) -> Option<f64> {
                Some(f64::NAN)
            }
        }
        let stats = one_table(1000.0, &[100.0, 500.0]);
        let preds = vec![Predicate::local_cmp(c(0, 0), CmpOp::Lt, 10i64)];
        let err = compute_effective_stats(&preds, &stats, &NanOracle, UrnModel, &NoCorrections)
            .unwrap_err();
        assert!(
            matches!(err, crate::error::ElsError::DegenerateStats(_)),
            "expected DegenerateStats, got {err:?}"
        );
        assert!(err.to_string().contains("R0"), "error must name the table: {err}");
    }

    #[test]
    fn negative_oracle_selectivity_clamps_to_empty_not_garbage() {
        // Out-of-range (but finite) oracle answers are clamped into [0, 1]
        // at resolution time, so a negative selectivity degrades to "no rows
        // survive" — a defensible answer — rather than a negative
        // cardinality or an error.
        struct NegOracle;
        impl crate::selectivity::SelectivityOracle for NegOracle {
            fn local_selectivity(
                &self,
                _column: ColumnRef,
                _op: CmpOp,
                _value: &els_storage::Value,
            ) -> Option<f64> {
                Some(-0.5)
            }
        }
        let stats = one_table(1000.0, &[100.0]);
        let preds = vec![Predicate::local_cmp(c(0, 0), CmpOp::Lt, 10i64)];
        let eff =
            compute_effective_stats(&preds, &stats, &NegOracle, UrnModel, &NoCorrections).unwrap();
        assert_eq!(eff.tables[0].cardinality, 0.0);
        assert_eq!(eff.distinct(c(0, 0)), 0.0);
    }

    #[test]
    fn scan_corrections_scale_the_local_selectivity() {
        struct Fixed(f64);
        impl crate::correction::CorrectionSource for Fixed {
            fn scan_correction(&self, table: usize, fingerprint: &str) -> Option<f64> {
                assert_eq!(table, 0);
                assert_eq!(fingerprint, "c0<100");
                Some(self.0)
            }
            fn join_correction(&self, _: &[ColumnRef]) -> Option<f64> {
                None
            }
        }
        let stats = one_table(1000.0, &[1000.0]);
        let preds = vec![Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64)];
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &Fixed(3.0)).unwrap();
        // Uncorrected: 0.1 · 1000 = 100; corrected: 0.3 · 1000 = 300.
        assert!(
            (eff.tables[0].cardinality - 300.0).abs() < 1e-9,
            "got {}",
            eff.tables[0].cardinality
        );
        assert!((eff.tables[0].local_selectivity - 0.3).abs() < 1e-12);
        // Corrections clamp into [0, 1]: a 100x factor caps at the full
        // table, and degenerate factors are ignored.
        let eff =
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &Fixed(100.0)).unwrap();
        assert_eq!(eff.tables[0].cardinality, 1000.0);
        for bad in [f64::NAN, 0.0, -2.0, f64::INFINITY] {
            let eff =
                compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &Fixed(bad)).unwrap();
            assert_eq!(eff.tables[0].cardinality, 100.0, "correction {bad} must be ignored");
        }
    }

    #[test]
    fn unfiltered_tables_are_never_corrected() {
        struct Panicky;
        impl crate::correction::CorrectionSource for Panicky {
            fn scan_correction(&self, _: usize, _: &str) -> Option<f64> {
                panic!("scan_correction must not be called without local predicates");
            }
            fn join_correction(&self, _: &[ColumnRef]) -> Option<f64> {
                None
            }
        }
        let stats = one_table(1000.0, &[100.0]);
        let eff = compute_effective_stats(&[], &stats, &NoOracle, UrnModel, &Panicky).unwrap();
        assert_eq!(eff.tables[0].cardinality, 1000.0);
    }

    #[test]
    fn invalid_predicate_indices_are_rejected() {
        let stats = one_table(10.0, &[10.0]);
        let preds = vec![Predicate::local_cmp(c(2, 0), CmpOp::Eq, 1i64)];
        assert!(
            compute_effective_stats(&preds, &stats, &NoOracle, UrnModel, &NoCorrections).is_err()
        );
    }
}
