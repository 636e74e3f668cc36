//! Statistics containers.

use els_storage::Value;

use crate::histogram::{Histogram, MostCommonValues};

/// Statistics for one column, as maintained by the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Exact distinct non-NULL value count (column cardinality d_x).
    pub distinct: f64,
    /// Minimum non-NULL value.
    pub min: Option<Value>,
    /// Maximum non-NULL value.
    pub max: Option<Value>,
    /// Fraction of NULL rows.
    pub null_fraction: f64,
    /// Optional histogram (numeric columns only).
    pub histogram: Option<Histogram>,
    /// Optional most-common-values list (numeric columns only).
    pub mcv: Option<MostCommonValues>,
    /// Exact frequency of the most common non-NULL value (0 when there is
    /// none) — the MF(x) statistic of UES-style upper-bound estimation.
    pub max_frequency: f64,
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Exact row count ‖R‖.
    pub row_count: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl ColumnStats {
    /// Convert to the positional statistics consumed by `els-core`. Min/max
    /// survive only when numeric.
    pub fn to_core(&self) -> els_core::ColumnStatistics {
        els_core::ColumnStatistics {
            distinct: self.distinct,
            min: self.min.as_ref().and_then(Value::as_f64),
            max: self.max.as_ref().and_then(Value::as_f64),
            null_fraction: self.null_fraction,
            max_frequency: Some(self.max_frequency),
        }
    }
}

impl TableStats {
    /// Convert to the positional statistics consumed by `els-core`.
    pub fn to_core(&self) -> els_core::TableStatistics {
        els_core::TableStatistics {
            cardinality: self.row_count as f64,
            columns: self.columns.iter().map(ColumnStats::to_core).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_to_core_preserves_numerics() {
        let ts = TableStats {
            row_count: 42,
            columns: vec![ColumnStats {
                distinct: 7.0,
                min: Some(Value::Int(1)),
                max: Some(Value::Int(9)),
                null_fraction: 0.1,
                histogram: None,
                mcv: None,
                max_frequency: 6.0,
            }],
        };
        let core = ts.to_core();
        assert_eq!(core.cardinality, 42.0);
        assert_eq!(core.columns[0].distinct, 7.0);
        assert_eq!(core.columns[0].min, Some(1.0));
        assert_eq!(core.columns[0].max, Some(9.0));
        assert_eq!(core.columns[0].null_fraction, 0.1);
        assert_eq!(core.columns[0].max_frequency, Some(6.0));
    }

    #[test]
    fn string_bounds_do_not_convert() {
        let cs = ColumnStats {
            distinct: 2.0,
            min: Some(Value::from("a")),
            max: Some(Value::from("z")),
            null_fraction: 0.0,
            histogram: None,
            mcv: None,
            max_frequency: 0.0,
        };
        let core = cs.to_core();
        assert_eq!(core.min, None);
        assert_eq!(core.max, None);
    }
}
