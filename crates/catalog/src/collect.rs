//! Statistics collection (the ANALYZE pass).
//!
//! Collection is exact for row counts, distinct counts, min/max and the
//! NULL fraction — at the scales of the paper's experiment a full scan is
//! cheap, and exact base statistics isolate the estimation-*algorithm*
//! comparison from sampling noise (the paper's Section 8 likewise assumes
//! exact catalog statistics). Histograms and MCV lists are optional.

use std::collections::HashMap;

use els_storage::{Table, Value};

use crate::histogram::{Histogram, MostCommonValues};
use crate::stats::{ColumnStats, TableStats};

/// Which histogram flavour to collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistogramKind {
    /// No histogram.
    None,
    /// Equi-width buckets.
    EquiWidth,
    /// Equi-depth buckets (the default when histograms are requested).
    #[default]
    EquiDepth,
}

/// Options for one collection pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectOptions {
    /// Histogram flavour for numeric columns.
    pub histogram: HistogramKind,
    /// Bucket count for histograms.
    pub histogram_buckets: usize,
    /// Number of most-common values to track (0 = none).
    pub mcv_size: usize,
}

impl Default for CollectOptions {
    fn default() -> Self {
        CollectOptions { histogram: HistogramKind::None, histogram_buckets: 32, mcv_size: 0 }
    }
}

impl CollectOptions {
    /// Collect equi-depth histograms and an MCV list — the full-statistics
    /// configuration used by the skew experiments.
    pub fn full() -> Self {
        CollectOptions { histogram: HistogramKind::EquiDepth, histogram_buckets: 32, mcv_size: 16 }
    }
}

/// Identity of a non-NULL value for counting its occurrences. Keying on
/// `to_string()` would be wrong for floats: `-0.0` and `0.0` render
/// differently yet compare equal, and display formatting drops trailing
/// zeros, conflating an integer-valued float column with differently-typed
/// twins. `-0.0` is normalized to `0.0`; all other floats key on their bit
/// pattern.
#[derive(PartialEq, Eq, Hash)]
enum DistinctKey<'a> {
    Int(i64),
    Float(u64),
    Str(&'a str),
}

fn distinct_key(v: &Value) -> Option<DistinctKey<'_>> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(DistinctKey::Int(*i)),
        Value::Float(x) => {
            let normalized = if *x == 0.0 { 0.0 } else { *x };
            Some(DistinctKey::Float(normalized.to_bits()))
        }
        Value::Str(s) => Some(DistinctKey::Str(s)),
    }
}

/// Scan `table` and compute its statistics.
pub fn collect_table_stats(table: &Table, options: &CollectOptions) -> TableStats {
    let columns = table
        .columns()
        .iter()
        .map(|col| {
            let values: Vec<_> = col.iter().collect();
            let rows = values.len();
            let nulls = values.iter().filter(|v| v.is_null()).count();
            let null_fraction = if rows == 0 { 0.0 } else { nulls as f64 / rows as f64 };
            let mut min: Option<Value> = None;
            let mut max: Option<Value> = None;
            for v in values.iter().filter(|v| !v.is_null()) {
                if min.as_ref().is_none_or(|m| v.total_cmp(m) == std::cmp::Ordering::Less) {
                    min = Some(v.clone());
                }
                if max.as_ref().is_none_or(|m| v.total_cmp(m) == std::cmp::Ordering::Greater) {
                    max = Some(v.clone());
                }
            }
            let distinct = col.distinct_count() as f64;
            // Numeric projection for distribution statistics.
            let numeric: Vec<f64> =
                values.iter().filter(|v| !v.is_null()).filter_map(|v| v.as_f64()).collect();
            let histogram = match options.histogram {
                HistogramKind::None => None,
                HistogramKind::EquiWidth => {
                    Histogram::equi_width(&numeric, options.histogram_buckets)
                }
                HistogramKind::EquiDepth => {
                    Histogram::equi_depth(&numeric, options.histogram_buckets)
                }
            };
            let mcv = if options.mcv_size > 0 {
                MostCommonValues::build(&numeric, options.mcv_size)
            } else {
                None
            };
            // Max frequency (UES upper bounds), exact.
            let mut counts: HashMap<DistinctKey<'_>, u64> = HashMap::new();
            for k in values.iter().filter_map(distinct_key) {
                *counts.entry(k).or_insert(0) += 1;
            }
            let max_frequency = counts.values().copied().max().unwrap_or(0) as f64;
            ColumnStats { distinct, min, max, null_fraction, histogram, mcv, max_frequency }
        })
        .collect();
    TableStats { row_count: table.num_rows(), columns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};
    use els_storage::Value;

    #[test]
    fn exact_statistics_on_sequential_column() {
        let t = TableSpec::new("t", 500)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 100 }))
            .generate(3);
        let stats = collect_table_stats(&t, &CollectOptions::default());
        assert_eq!(stats.row_count, 500);
        let c = &stats.columns[0];
        assert_eq!(c.distinct, 500.0);
        assert_eq!(c.min, Some(Value::Int(100)));
        assert_eq!(c.max, Some(Value::Int(599)));
        assert_eq!(c.null_fraction, 0.0);
        assert!(c.histogram.is_none());
        assert!(c.mcv.is_none());
    }

    #[test]
    fn null_fraction_is_counted() {
        let t = TableSpec::new("t", 1000)
            .column(ColumnSpec::new(
                "v",
                Distribution::WithNulls {
                    inner: Box::new(Distribution::ConstInt { value: 3 }),
                    null_fraction: 0.5,
                },
            ))
            .generate(5);
        let stats = collect_table_stats(&t, &CollectOptions::default());
        let c = &stats.columns[0];
        assert!((c.null_fraction - 0.5).abs() < 0.1);
        assert_eq!(c.distinct, 1.0);
    }

    #[test]
    fn full_options_collect_histogram_and_mcv() {
        let t = TableSpec::new("t", 2000)
            .column(ColumnSpec::new("z", Distribution::ZipfInt { n: 100, theta: 1.2, start: 0 }))
            .generate(7);
        let stats = collect_table_stats(&t, &CollectOptions::full());
        let c = &stats.columns[0];
        let h = c.histogram.as_ref().expect("histogram collected");
        assert_eq!(h.total_count(), 2000);
        let mcv = c.mcv.as_ref().expect("mcv collected");
        // Rank 0 dominates a theta=1.2 Zipf sample.
        let s = mcv.eq_selectivity(0.0).expect("hot value tracked");
        assert!(s > 0.1, "hot value selectivity {s}");
    }

    #[test]
    fn string_columns_get_no_distribution_stats() {
        let t = TableSpec::new("t", 100)
            .column(ColumnSpec::new("s", Distribution::StrTag { prefix: "p".into(), modulus: 5 }))
            .generate(1);
        let stats = collect_table_stats(&t, &CollectOptions::full());
        let c = &stats.columns[0];
        assert!(c.histogram.is_none());
        assert!(c.mcv.is_none());
        assert_eq!(c.distinct, 5.0);
        assert_eq!(c.min, Some(Value::from("p0")));
    }

    #[test]
    fn max_frequency_is_exact_on_full_scans() {
        // CycleInt over 10 values in 1000 rows: every value occurs exactly
        // 100 times; a key column has MF = 1.
        let t = TableSpec::new("t", 1000)
            .column(ColumnSpec::new("c", Distribution::CycleInt { modulus: 10, start: 0 }))
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
            .generate(1);
        let stats = collect_table_stats(&t, &CollectOptions::default());
        assert_eq!(stats.columns[0].max_frequency, 100.0);
        assert_eq!(stats.columns[1].max_frequency, 1.0);
    }

    #[test]
    fn max_frequency_skips_nulls() {
        let t = TableSpec::new("t", 1000)
            .column(ColumnSpec::new(
                "v",
                Distribution::WithNulls {
                    inner: Box::new(Distribution::ConstInt { value: 3 }),
                    null_fraction: 0.5,
                },
            ))
            .generate(5);
        let full = collect_table_stats(&t, &CollectOptions::default());
        // Only the non-NULL rows count toward the most common value.
        let non_null = (1000.0 * (1.0 - full.columns[0].null_fraction)).round();
        assert_eq!(full.columns[0].max_frequency, non_null);
    }

    #[test]
    fn empty_table_collects_zeroes() {
        let t = els_storage::Table::empty("e", &[("a", els_storage::DataType::Int)]);
        let stats = collect_table_stats(&t, &CollectOptions::full());
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.columns[0].distinct, 0.0);
        assert_eq!(stats.columns[0].max_frequency, 0.0);
        assert!(stats.columns[0].histogram.is_none());
    }
}
