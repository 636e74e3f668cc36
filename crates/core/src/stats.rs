//! Statistics inputs for estimation.
//!
//! The paper's estimation algorithms consume exactly two base statistics
//! (Section 2): the **table cardinality** ‖R‖ and the **column cardinality**
//! d_x of each column. Optionally, a column may carry its min/max domain
//! bounds, which sharpen range-predicate selectivities under the uniformity
//! assumption; richer distribution information (histograms) is supplied
//! separately through [`crate::selectivity::SelectivityOracle`] so that this
//! crate stays independent of any particular statistics store.
//!
//! All statistics are `f64`: cardinalities in estimation formulas are
//! expectations, not integers.

use crate::error::{ElsError, ElsResult};
use crate::ids::{ColumnRef, TableId};

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStatistics {
    /// Column cardinality d_x: the number of distinct non-NULL values.
    pub distinct: f64,
    /// Smallest value in the column, as a numeric key (None when unknown or
    /// non-numeric).
    pub min: Option<f64>,
    /// Largest value in the column, as a numeric key.
    pub max: Option<f64>,
    /// Fraction of rows that are NULL (0 when unknown). NULLs never satisfy
    /// comparison predicates and never join.
    pub null_fraction: f64,
    /// Frequency of the most common non-NULL value (None when not
    /// collected). This is the MF(x) statistic of UES-style upper-bound
    /// estimation: `|R ⋈ S on a=b| ≤ min(‖R‖·MF_S(b), ‖S‖·MF_R(a))` holds
    /// for any data, so a true per-column maximum yields guaranteed upper
    /// bounds on join sizes.
    pub max_frequency: Option<f64>,
}

impl ColumnStatistics {
    /// Statistics with a known distinct count and nothing else.
    pub fn with_distinct(distinct: f64) -> Self {
        ColumnStatistics { distinct, min: None, max: None, null_fraction: 0.0, max_frequency: None }
    }

    /// Statistics with a distinct count and numeric domain bounds.
    pub fn with_domain(distinct: f64, min: f64, max: f64) -> Self {
        ColumnStatistics {
            distinct,
            min: Some(min),
            max: Some(max),
            null_fraction: 0.0,
            max_frequency: None,
        }
    }

    /// Validate ranges: distinct must be ≥ 0 and finite, null fraction in
    /// `[0, 1]`, domain bounds finite and min ≤ max when both present.
    pub(crate) fn validate(&self) -> ElsResult<()> {
        if !self.distinct.is_finite() || self.distinct < 0.0 {
            return Err(ElsError::InvalidStatistics(format!(
                "distinct count must be finite and non-negative, got {}",
                self.distinct
            )));
        }
        if !(0.0..=1.0).contains(&self.null_fraction) {
            return Err(ElsError::InvalidStatistics(format!(
                "null fraction must be in [0,1], got {}",
                self.null_fraction
            )));
        }
        if let Some(bound) = self.min.into_iter().chain(self.max).find(|b| !b.is_finite()) {
            return Err(ElsError::InvalidStatistics(format!(
                "domain bounds must be finite, got {bound}"
            )));
        }
        if let (Some(lo), Some(hi)) = (self.min, self.max) {
            if lo > hi {
                return Err(ElsError::InvalidStatistics(format!("min {lo} exceeds max {hi}")));
            }
        }
        if let Some(mf) = self.max_frequency {
            if !mf.is_finite() || mf < 0.0 {
                return Err(ElsError::InvalidStatistics(format!(
                    "max frequency must be finite and non-negative, got {mf}"
                )));
            }
        }
        Ok(())
    }
}

/// Statistics for one table: cardinality plus per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStatistics {
    /// Table cardinality ‖R‖.
    pub cardinality: f64,
    /// Per-column statistics, indexed by column position.
    pub columns: Vec<ColumnStatistics>,
}

impl TableStatistics {
    /// Create table statistics.
    pub fn new(cardinality: f64, columns: Vec<ColumnStatistics>) -> Self {
        TableStatistics { cardinality, columns }
    }

    /// Validate the table and all its columns. A non-empty table must not
    /// claim more distinct values in a column than it has rows.
    pub(crate) fn validate(&self) -> ElsResult<()> {
        if !self.cardinality.is_finite() || self.cardinality < 0.0 {
            return Err(ElsError::InvalidStatistics(format!(
                "table cardinality must be finite and non-negative, got {}",
                self.cardinality
            )));
        }
        for (i, c) in self.columns.iter().enumerate() {
            c.validate()?;
            if c.distinct > self.cardinality && self.cardinality > 0.0 {
                return Err(ElsError::InvalidStatistics(format!(
                    "column {i} claims {} distinct values but the table has only {} rows",
                    c.distinct, self.cardinality
                )));
            }
        }
        Ok(())
    }
}

/// Statistics for every table of a query, in `FROM`-list order.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStatistics {
    /// Per-table statistics.
    pub tables: Vec<TableStatistics>,
}

impl QueryStatistics {
    /// Create query statistics.
    pub fn new(tables: Vec<TableStatistics>) -> Self {
        QueryStatistics { tables }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The column counts per table, used to validate predicates.
    pub(crate) fn shape(&self) -> Vec<usize> {
        self.tables.iter().map(|t| t.columns.len()).collect()
    }

    /// Statistics of a table.
    pub(crate) fn table(&self, t: TableId) -> ElsResult<&TableStatistics> {
        self.tables.get(t).ok_or(ElsError::UnknownTable(t))
    }

    /// Statistics of a column.
    pub(crate) fn column(&self, c: ColumnRef) -> ElsResult<&ColumnStatistics> {
        self.table(c.table)?.columns.get(c.column).ok_or(ElsError::UnknownColumn(c))
    }

    /// Validate every table.
    pub fn validate(&self) -> ElsResult<()> {
        for t in &self.tables {
            t.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let qs = QueryStatistics::new(vec![
            TableStatistics::new(100.0, vec![ColumnStatistics::with_distinct(10.0)]),
            TableStatistics::new(
                1000.0,
                vec![
                    ColumnStatistics::with_domain(100.0, 0.0, 99.0),
                    ColumnStatistics::with_distinct(50.0),
                ],
            ),
        ]);
        assert_eq!(qs.num_tables(), 2);
        assert_eq!(qs.shape(), vec![1, 2]);
        assert_eq!(qs.column(ColumnRef::new(1, 0)).unwrap().min, Some(0.0));
        assert!(qs.validate().is_ok());
    }

    #[test]
    fn unknown_lookups_error() {
        let qs = QueryStatistics::new(vec![TableStatistics::new(1.0, vec![])]);
        assert_eq!(qs.table(2).unwrap_err(), ElsError::UnknownTable(2));
        assert_eq!(
            qs.column(ColumnRef::new(0, 0)).unwrap_err(),
            ElsError::UnknownColumn(ColumnRef::new(0, 0))
        );
    }

    #[test]
    fn validation_rejects_negative_cardinality() {
        let t = TableStatistics::new(-1.0, vec![]);
        assert!(matches!(t.validate(), Err(ElsError::InvalidStatistics(_))));
    }

    #[test]
    fn validation_rejects_distinct_exceeding_rows() {
        let t = TableStatistics::new(10.0, vec![ColumnStatistics::with_distinct(20.0)]);
        assert!(matches!(t.validate(), Err(ElsError::InvalidStatistics(_))));
    }

    #[test]
    fn validation_rejects_inverted_domain() {
        let c = ColumnStatistics::with_domain(5.0, 10.0, 0.0);
        assert!(matches!(c.validate(), Err(ElsError::InvalidStatistics(_))));
    }

    #[test]
    fn validation_rejects_non_finite_bounds() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let high = ColumnStatistics::with_domain(5.0, 0.0, bad);
            assert!(matches!(high.validate(), Err(ElsError::InvalidStatistics(_))), "max {bad}");
            let low = ColumnStatistics::with_domain(5.0, bad, 999.0);
            assert!(matches!(low.validate(), Err(ElsError::InvalidStatistics(_))), "min {bad}");
            let mut alone = ColumnStatistics::with_distinct(5.0);
            alone.max = Some(bad);
            assert!(matches!(alone.validate(), Err(ElsError::InvalidStatistics(_))), "{bad}");
        }
    }

    #[test]
    fn validation_rejects_bad_null_fraction() {
        let mut c = ColumnStatistics::with_distinct(5.0);
        c.null_fraction = 1.5;
        assert!(matches!(c.validate(), Err(ElsError::InvalidStatistics(_))));
    }

    #[test]
    fn validation_rejects_bad_max_frequency() {
        let c =
            ColumnStatistics { max_frequency: Some(-1.0), ..ColumnStatistics::with_distinct(5.0) };
        assert!(matches!(c.validate(), Err(ElsError::InvalidStatistics(_))));
        let ok =
            ColumnStatistics { max_frequency: Some(3.0), ..ColumnStatistics::with_distinct(5.0) };
        assert!(ok.validate().is_ok());
        assert_eq!(ok.max_frequency, Some(3.0));
    }

    #[test]
    fn empty_table_with_zero_distinct_is_valid() {
        let t = TableStatistics::new(0.0, vec![ColumnStatistics::with_distinct(0.0)]);
        assert!(t.validate().is_ok());
    }
}
