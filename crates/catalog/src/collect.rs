//! Statistics collection (the ANALYZE pass).
//!
//! Collection is exact for row counts, distinct counts, min/max, the NULL
//! fraction and the max frequency: exact base statistics isolate the
//! estimation-*algorithm* comparison from sampling noise (the paper's
//! Section 8 likewise assumes exact catalog statistics). Histograms and MCV
//! lists are optional.
//!
//! # One sort per column
//!
//! Each column's non-NULL values are gathered straight from its typed slice
//! (`i64`, `f64` under `total_cmp`, or `&str`; no `Value` per row) into one
//! buffer and sorted in place. Equal values are then adjacent, so one walk
//! over the runs gives the distinct count (the number of runs) and the max
//! frequency (the longest run), and min and max are the two ends: the
//! numeric domain ELS interpolates ranges over. A `Float` column's domain
//! is its finite values only (NaNs and infinities sort to the ends, and a
//! bound at either would make every interpolation NaN); a `Str` column has
//! none. A histogram or MCV list, when asked for, is built from the same
//! sorted values (`Histogram::equi_depth` and `MostCommonValues::build` take
//! them as they are). An `Int` column's values are projected `i64 as f64`
//! for those, which keeps their order; a `Str` column gets neither. So a
//! column costs one `O(n log n)` sort and a constant number of allocations,
//! however many rows it has.
//!
//! Value identity follows the types: for floats, `distinct` counts bit
//! patterns (so `-0.0` and `0.0` are two values, as are NaNs with different
//! payloads), while `max_frequency` counts `-0.0` as `0.0`; the two zeros
//! are adjacent under `total_cmp`, so they still form one run.

use els_core::{ColumnStatistics, TableStatistics};
use els_storage::{ColumnVector, DataType, Table};

use crate::histogram::{Histogram, MostCommonValues};

/// Which histogram flavour to collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistogramKind {
    /// No histogram.
    None,
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

/// One column's distribution synopses, kept beside its
/// [`ColumnStatistics`]: what [`crate::QueryOracle`] answers local and
/// range-join selectivities from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Synopses {
    /// Optional histogram (numeric columns only).
    pub histogram: Option<Histogram>,
    /// Optional most-common-values list (numeric columns only).
    pub mcv: Option<MostCommonValues>,
}

/// Scan `table` and compute its statistics, with each column's synopses
/// in schema order.
pub fn collect_table_stats(
    table: &Table,
    options: &CollectOptions,
) -> (TableStatistics, Vec<Synopses>) {
    let (columns, synopses) =
        table.columns().iter().map(|col| collect_column(col, options)).unzip();
    (TableStatistics::new(table.num_rows() as f64, columns), synopses)
}

fn collect_column(col: &ColumnVector, options: &CollectOptions) -> (ColumnStatistics, Synopses) {
    let rows = col.len();
    let valid = col.validity();
    match col.data_type() {
        DataType::Int => {
            let mut sorted = non_null(col.as_int_slice().unwrap_or_default(), valid, |&v| v);
            sorted.sort_unstable();
            let bounds = sorted.first().zip(sorted.last()).map(|(&lo, &hi)| (lo as f64, hi as f64));
            let stats = column_stats(rows, &sorted, i64::eq, i64::eq, bounds);
            if options.histogram == HistogramKind::None && options.mcv_size == 0 {
                return (stats, Synopses::default());
            }
            let numeric: Vec<f64> = sorted.iter().map(|&v| v as f64).collect();
            (stats, synopses(&numeric, options))
        }
        DataType::Float => {
            let mut sorted = non_null(col.as_float_slice().unwrap_or_default(), valid, |&v| v);
            sorted.sort_unstable_by(f64::total_cmp);
            let same_bits = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
            let alike = |a: &f64, b: &f64| same_bits(a, b) || (*a == 0.0 && *b == 0.0);
            // NaNs and infinities sort to the ends; the domain is the finite rest.
            let lo = sorted.iter().copied().find(|v| v.is_finite());
            let hi = sorted.iter().rev().copied().find(|v| v.is_finite());
            let stats = column_stats(rows, &sorted, same_bits, alike, lo.zip(hi));
            (stats, synopses(&sorted, options))
        }
        DataType::Str => {
            let mut sorted =
                non_null(col.as_str_slice().unwrap_or_default(), valid, String::as_str);
            sorted.sort_unstable();
            (column_stats(rows, &sorted, <&str>::eq, <&str>::eq, None), Synopses::default())
        }
    }
}

/// The non-NULL entries of a typed column slice, in one allocation.
fn non_null<'a, S, T>(values: &'a [S], valid: &[bool], get: impl Fn(&'a S) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(values.len());
    out.extend(values.iter().zip(valid).filter(|(_, ok)| **ok).map(|(v, _)| get(v)));
    out
}

/// A column's statistics from its `rows` row count, its non-NULL values in
/// sorted order and its numeric `(min, max)` domain, if it has one.
/// `distinct` counts the runs of `same` values; `max_frequency` is the
/// longest stretch of adjacent runs whose values are `alike`.
fn column_stats<T>(
    rows: usize,
    sorted: &[T],
    same: impl Fn(&T, &T) -> bool,
    alike: impl Fn(&T, &T) -> bool,
    bounds: Option<(f64, f64)>,
) -> ColumnStatistics {
    let (mut distinct, mut longest, mut current) = (0usize, 0usize, 0usize);
    let mut previous: Option<&T> = None;
    for run in sorted.chunk_by(&same) {
        let Some(head) = run.first() else { continue };
        distinct += 1;
        if !previous.is_some_and(|p| alike(p, head)) {
            current = 0;
        }
        current += run.len();
        longest = longest.max(current);
        previous = Some(head);
    }
    let nulls = rows - sorted.len();
    ColumnStatistics {
        distinct: distinct as f64,
        min: bounds.map(|(lo, _)| lo),
        max: bounds.map(|(_, hi)| hi),
        null_fraction: if rows == 0 { 0.0 } else { nulls as f64 / rows as f64 },
        max_frequency: Some(longest as f64),
    }
}

/// The histogram and MCV list `options` ask for, built from the column's
/// non-NULL values as `f64`s in `total_cmp` order.
fn synopses(sorted: &[f64], options: &CollectOptions) -> Synopses {
    let histogram = match options.histogram {
        HistogramKind::None => None,
        HistogramKind::EquiDepth => Histogram::equi_depth(sorted, options.histogram_buckets),
    };
    Synopses { histogram, mcv: MostCommonValues::build(sorted, options.mcv_size) }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use super::*;
    use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};
    use els_storage::Value;
    use proptest::prelude::*;

    #[test]
    fn exact_statistics_on_sequential_column() {
        let t = TableSpec::new("t", 500)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 100 }))
            .generate(3);
        let (stats, synopses) = collect_table_stats(&t, &CollectOptions::default());
        assert_eq!(stats.cardinality, 500.0);
        let c = &stats.columns[0];
        assert_eq!(c.distinct, 500.0);
        assert_eq!(c.min, Some(100.0));
        assert_eq!(c.max, Some(599.0));
        assert_eq!(c.null_fraction, 0.0);
        assert_eq!(synopses[0], Synopses::default());
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
        let (stats, _) = collect_table_stats(&t, &CollectOptions::default());
        let c = &stats.columns[0];
        assert!((c.null_fraction - 0.5).abs() < 0.1);
        assert_eq!(c.distinct, 1.0);
    }

    #[test]
    fn full_options_collect_histogram_and_mcv() {
        let t = TableSpec::new("t", 2000)
            .column(ColumnSpec::new("z", Distribution::ZipfInt { n: 100, theta: 1.2, start: 0 }))
            .generate(7);
        let (_, synopses) = collect_table_stats(&t, &CollectOptions::full());
        let c = &synopses[0];
        let h = c.histogram.as_ref().expect("histogram collected");
        assert_eq!(h.total_count(), 2000);
        let mcv = c.mcv.as_ref().expect("mcv collected");
        // Rank 0 dominates a theta=1.2 Zipf sample.
        let s = mcv.eq_selectivity(0.0).expect("hot value tracked");
        assert!(s > 0.1, "hot value selectivity {s}");
    }

    #[test]
    fn string_columns_get_no_distribution_stats_and_no_bounds() {
        let t = TableSpec::new("t", 100)
            .column(ColumnSpec::new("s", Distribution::StrTag { prefix: "p".into(), modulus: 5 }))
            .generate(1);
        let (stats, synopses) = collect_table_stats(&t, &CollectOptions::full());
        let c = &stats.columns[0];
        assert_eq!(synopses[0], Synopses::default());
        assert_eq!(c.distinct, 5.0);
        assert_eq!((c.min, c.max), (None, None));
    }

    #[test]
    fn max_frequency_is_exact_on_full_scans() {
        // CycleInt over 10 values in 1000 rows: every value occurs exactly
        // 100 times; a key column has MF = 1.
        let t = TableSpec::new("t", 1000)
            .column(ColumnSpec::new("c", Distribution::CycleInt { modulus: 10, start: 0 }))
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
            .generate(1);
        let (stats, _) = collect_table_stats(&t, &CollectOptions::default());
        assert_eq!(stats.columns[0].max_frequency, Some(100.0));
        assert_eq!(stats.columns[1].max_frequency, Some(1.0));
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
        let (full, _) = collect_table_stats(&t, &CollectOptions::default());
        // Only the non-NULL rows count toward the most common value.
        let non_null = (1000.0 * (1.0 - full.columns[0].null_fraction)).round();
        assert_eq!(full.columns[0].max_frequency, Some(non_null));
    }

    #[test]
    fn negative_zero_is_its_own_value_but_not_its_own_frequency() {
        let col = ColumnVector::from_floats([0.0, -0.0, 0.0]);
        let t = Table::new("t", vec![("x".to_owned(), col)]).unwrap();
        let c = &collect_table_stats(&t, &CollectOptions::default()).0.columns[0];
        assert_eq!(c.distinct, 2.0);
        assert_eq!(c.max_frequency, Some(3.0));
        assert_eq!(c.min.map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(c.max.map(f64::to_bits), Some(0.0f64.to_bits()));
    }

    #[test]
    fn empty_table_collects_zeroes() {
        let t = els_storage::Table::empty("e", &[("a", els_storage::DataType::Int)]);
        let (stats, synopses) = collect_table_stats(&t, &CollectOptions::full());
        assert_eq!(stats.cardinality, 0.0);
        assert_eq!(stats.columns[0].distinct, 0.0);
        assert_eq!(stats.columns[0].max_frequency, Some(0.0));
        assert_eq!((stats.columns[0].min, stats.columns[0].max), (None, None));
        assert!(synopses[0].histogram.is_none());
    }

    /// A value's identity, floats by bit pattern.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Key {
        Int(i64),
        Float(u64),
        Str(String),
    }

    fn key(v: &Value) -> Option<Key> {
        match v {
            Value::Null => None,
            Value::Int(i) => Some(Key::Int(*i)),
            Value::Float(x) => Some(Key::Float(x.to_bits())),
            Value::Str(s) => Some(Key::Str(s.clone())),
        }
    }

    /// A bucket as `[lo, hi, count, distinct]`, bounds as bit patterns.
    type BucketBits = [u64; 4];

    /// Every number in one column's statistics, floats as bit patterns.
    #[derive(Debug, PartialEq)]
    struct Bits {
        distinct: u64,
        min: Option<u64>,
        max: Option<u64>,
        null_fraction: u64,
        max_frequency: Option<u64>,
        /// Buckets and total row count.
        histogram: Option<(Vec<BucketBits>, u64)>,
        /// `(value bits, count)` entries and total row count.
        mcv: Option<(Vec<(u64, u64)>, u64)>,
    }

    fn bits(c: &ColumnStatistics, s: &Synopses) -> Bits {
        let histogram = s.histogram.as_ref().map(|h| {
            let buckets =
                h.buckets().iter().map(|b| [b.lo.to_bits(), b.hi.to_bits(), b.count, b.distinct]);
            (buckets.collect(), h.total_count())
        });
        Bits {
            distinct: c.distinct.to_bits(),
            min: c.min.map(f64::to_bits),
            max: c.max.map(f64::to_bits),
            null_fraction: c.null_fraction.to_bits(),
            max_frequency: c.max_frequency.map(f64::to_bits),
            histogram,
            mcv: s.mcv.as_ref().map(|m| {
                let entries = m.entries.iter().map(|&(v, n)| (v.to_bits(), n)).collect();
                (entries, m.total)
            }),
        }
    }

    /// The collector as it was before the typed sort, one `Value` at a
    /// time, with the histogram and MCV builders as they were: hash sets
    /// for the distinct count and the max frequency (which folds `-0.0`
    /// into `0.0`), an unsorted `f64` projection for the distribution. The
    /// domain bounds are the least and greatest finite `Value::as_f64`.
    fn oracle(col: &ColumnVector, options: &CollectOptions) -> Bits {
        let values: Vec<Value> = col.iter().collect();
        let rows = values.len();
        let present: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
        let mut min: Option<f64> = None;
        let mut max: Option<f64> = None;
        for v in present.iter().filter_map(|v| v.as_f64()).filter(|v| v.is_finite()) {
            if min.is_none_or(|m| v.total_cmp(&m) == std::cmp::Ordering::Less) {
                min = Some(v);
            }
            if max.is_none_or(|m| v.total_cmp(&m) == std::cmp::Ordering::Greater) {
                max = Some(v);
            }
        }
        let distinct: HashSet<Key> = present.iter().filter_map(|v| key(v)).collect();
        let mut counts: HashMap<Key, u64> = HashMap::new();
        for &v in &present {
            let folded = match v {
                Value::Float(x) if *x == 0.0 => Value::Float(0.0),
                other => other.clone(),
            };
            *counts.entry(key(&folded).unwrap()).or_insert(0) += 1;
        }
        let numeric: Vec<f64> = present.iter().filter_map(|v| v.as_f64()).collect();
        let nb = options.histogram_buckets;
        let histogram = match options.histogram {
            HistogramKind::None => None,
            HistogramKind::EquiDepth => old_equi_depth(&numeric, nb),
        }
        .map(|buckets| (buckets, numeric.len() as u64));
        Bits {
            distinct: (distinct.len() as f64).to_bits(),
            min: min.map(f64::to_bits),
            max: max.map(f64::to_bits),
            null_fraction: if rows == 0 {
                0.0
            } else {
                (rows - present.len()) as f64 / rows as f64
            }
            .to_bits(),
            max_frequency: Some((counts.values().copied().max().unwrap_or(0) as f64).to_bits()),
            histogram,
            mcv: old_mcv(&numeric, options.mcv_size).map(|e| (e, numeric.len() as u64)),
        }
    }

    fn old_equi_depth(values: &[f64], bucket_count: usize) -> Option<Vec<BucketBits>> {
        if values.is_empty() || bucket_count == 0 {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let target = sorted.len().div_ceil(bucket_count.min(sorted.len()).max(1)) as u64;
        let mut buckets = Vec::new();
        let mut open: Option<(f64, f64, u64, u64)> = None;
        for run in sorted.chunk_by(|a, b| a == b) {
            let b = open.get_or_insert((run[0], run[0], 0, 0));
            b.1 = run[run.len() - 1];
            b.2 += run.len() as u64;
            b.3 += 1;
            if b.2 >= target {
                buckets.extend(open.take());
            }
        }
        buckets.extend(open);
        Some(buckets.into_iter().map(|(lo, hi, n, d)| [lo.to_bits(), hi.to_bits(), n, d]).collect())
    }

    fn old_mcv(values: &[f64], k: usize) -> Option<Vec<(u64, u64)>> {
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
        Some(entries.into_iter().map(|(v, n)| (v.to_bits(), n)).collect())
    }

    fn column(ty: DataType, cells: impl IntoIterator<Item = Value>) -> ColumnVector {
        let mut col = ColumnVector::new(ty);
        for v in cells {
            col.push(v).unwrap();
        }
        col
    }

    /// A column of `cell`s: up to 40 rows, or one in five a short all-NULL
    /// one.
    fn cells(cell: impl Strategy<Value = Value>) -> impl Strategy<Value = Vec<Value>> {
        (proptest::collection::vec(cell, 0..40), 0u8..5).prop_map(|(cells, shape)| match shape {
            0 => vec![Value::Null; cells.len() % 4],
            _ => cells,
        })
    }

    /// NULL one time in seven, else a small value four times in six, else
    /// one of `special`.
    fn cell<T: Copy>(
        special: &'static [T],
        small: impl Fn(i64) -> Value,
        value: impl Fn(T) -> Value,
    ) -> impl Strategy<Value = Value> {
        (0u8..7, -3i64..3, 0..special.len()).prop_map(move |(kind, i, pick)| match kind {
            0 => Value::Null,
            1..=4 => small(i),
            _ => value(special[pick]),
        })
    }

    fn int_cell() -> impl Strategy<Value = Value> {
        const EXTREMES: [i64; 8] = [
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            1 << 53,
            (1 << 53) + 1,
            (1 << 53) + 2,
            -(1 << 53) - 1,
            (1 << 62) + 1,
        ];
        cell(&EXTREMES, Value::Int, Value::Int)
    }

    fn float_cell() -> impl Strategy<Value = Value> {
        const SPECIAL: [u64; 9] = [
            0x8000_0000_0000_0000, // -0.0
            0x0000_0000_0000_0000, // 0.0
            0x7ff8_0000_0000_0000, // NaN
            0x7ff8_0000_0000_0001, // NaN, another payload
            0x7ff0_0000_0000_0001, // signalling NaN
            0xfff8_0000_0000_0000, // negative NaN
            0x7ff0_0000_0000_0000, // +inf
            0xfff0_0000_0000_0000, // -inf
            0x0000_0000_0000_0001, // smallest subnormal
        ];
        cell(&SPECIAL, |i| Value::Float(i as f64 / 2.0), |b| Value::Float(f64::from_bits(b)))
    }

    fn str_cell() -> impl Strategy<Value = Value> {
        const WORDS: [&str; 9] = ["", "a", "b", "z", "é", "e\u{301}", "ß", "日本", "ñandú"];
        cell(&WORDS, |i| Value::from(["x", "y", "é"][i.unsigned_abs() as usize % 3]), Value::from)
    }

    fn option_sets() -> [CollectOptions; 3] {
        // Few buckets, so buckets hold several runs.
        let small = CollectOptions {
            histogram: HistogramKind::EquiDepth,
            histogram_buckets: 4,
            mcv_size: 3,
        };
        [CollectOptions::default(), CollectOptions::full(), small]
    }

    fn check(ty: DataType, cells: Vec<Value>) -> Result<(), TestCaseError> {
        let col = column(ty, cells);
        let rows = col.len();
        let t = Table::new("t", vec![("c".to_owned(), col.clone())]).unwrap();
        for options in option_sets() {
            let (stats, synopses) = collect_table_stats(&t, &options);
            prop_assert_eq!(stats.cardinality, rows as f64);
            prop_assert_eq!(
                bits(&stats.columns[0], &synopses[0]),
                oracle(&col, &options),
                "{:?}",
                options
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn int_columns_match_the_value_oracle(cells in cells(int_cell())) {
            check(DataType::Int, cells)?;
        }

        #[test]
        fn float_columns_match_the_value_oracle(cells in cells(float_cell())) {
            check(DataType::Float, cells)?;
        }

        #[test]
        fn str_columns_match_the_value_oracle(cells in cells(str_cell())) {
            check(DataType::Str, cells)?;
        }
    }
}
