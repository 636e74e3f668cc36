//! Typed column vectors with validity bitmaps.

use std::collections::HashSet;

use crate::error::{StorageError, StorageResult};
use crate::value::{cmp_int_float, DataType, Value};

/// A typed column of values plus a validity bitmap.
///
/// The payload vectors always have one slot per row; rows whose validity bit
/// is `false` are NULL and the corresponding payload slot holds an arbitrary
/// default. This mirrors the layout of columnar engines (validity + data) and
/// keeps scans branch-light.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVector {
    data: ColumnData,
    /// `validity[i]` is true iff row `i` is non-NULL. Kept as `Vec<bool>`;
    /// a packed bitmap buys nothing at the scales exercised here.
    validity: Vec<bool>,
}

#[derive(Debug, Clone, PartialEq)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
}

impl ColumnVector {
    /// Create an empty column of the given type.
    pub fn new(data_type: DataType) -> Self {
        let data = match data_type {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
        };
        ColumnVector { data, validity: Vec::new() }
    }

    /// Create an empty column with capacity for `cap` rows.
    pub fn with_capacity(data_type: DataType, cap: usize) -> Self {
        let data = match data_type {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(cap)),
        };
        ColumnVector { data, validity: Vec::with_capacity(cap) }
    }

    /// Build an integer column from an iterator of values (all non-NULL).
    pub fn from_ints(values: impl IntoIterator<Item = i64>) -> Self {
        let data: Vec<i64> = values.into_iter().collect();
        let validity = vec![true; data.len()];
        ColumnVector { data: ColumnData::Int(data), validity }
    }

    /// Build a float column from an iterator of values (all non-NULL).
    pub fn from_floats(values: impl IntoIterator<Item = f64>) -> Self {
        let data: Vec<f64> = values.into_iter().collect();
        let validity = vec![true; data.len()];
        ColumnVector { data: ColumnData::Float(data), validity }
    }

    /// Build a string column from an iterator of values (all non-NULL).
    pub fn from_strs<S: Into<String>>(values: impl IntoIterator<Item = S>) -> Self {
        let data: Vec<String> = values.into_iter().map(Into::into).collect();
        let validity = vec![true; data.len()];
        ColumnVector { data: ColumnData::Str(data), validity }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
        }
    }

    /// Number of rows, including NULLs.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity.iter().filter(|v| !**v).count()
    }

    /// Append one value. NULL is accepted by every column type; a non-NULL
    /// value must match the column type.
    pub fn push(&mut self, value: Value) -> StorageResult<()> {
        match (&mut self.data, value) {
            (_, Value::Null) => {
                match &mut self.data {
                    ColumnData::Int(v) => v.push(0),
                    ColumnData::Float(v) => v.push(0.0),
                    ColumnData::Str(v) => v.push(String::new()),
                }
                self.validity.push(false);
                Ok(())
            }
            (ColumnData::Int(v), Value::Int(x)) => {
                v.push(x);
                self.validity.push(true);
                Ok(())
            }
            (ColumnData::Float(v), Value::Float(x)) => {
                v.push(x);
                self.validity.push(true);
                Ok(())
            }
            // Widen integers into float columns; common when literals are
            // written without a decimal point.
            (ColumnData::Float(v), Value::Int(x)) => {
                v.push(x as f64);
                self.validity.push(true);
                Ok(())
            }
            (ColumnData::Str(v), Value::Str(x)) => {
                v.push(x);
                self.validity.push(true);
                Ok(())
            }
            (_, other) => Err(StorageError::TypeMismatch {
                expected: self.data_type(),
                // `other` is non-NULL in this arm, so the type exists; fall
                // back to the column's own type rather than assert.
                actual: other.data_type().unwrap_or(self.data_type()),
            }),
        }
    }

    /// Read the value at `row`.
    pub fn get(&self, row: usize) -> StorageResult<Value> {
        self.value_ref(row).map(ValueRef::to_value)
    }

    /// Read the value at `row` without cloning string payloads. Used by
    /// inner loops of the executor.
    pub fn value_ref(&self, row: usize) -> StorageResult<ValueRef<'_>> {
        let cell = match self.validity.get(row) {
            Some(false) => Some(ValueRef::Null),
            Some(true) => match &self.data {
                ColumnData::Int(v) => v.get(row).map(|&x| ValueRef::Int(x)),
                ColumnData::Float(v) => v.get(row).map(|&x| ValueRef::Float(x)),
                ColumnData::Str(v) => v.get(row).map(|x| ValueRef::Str(x)),
            },
            None => None,
        };
        cell.ok_or(StorageError::RowOutOfBounds { index: row, len: self.len() })
    }

    /// Iterate over all values (cloning strings).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i).unwrap_or(Value::Null))
    }

    /// Count distinct non-NULL values. This is the *column cardinality* `d_x`
    /// of the paper, computed exactly (used when collecting statistics).
    pub fn distinct_count(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v
                .iter()
                .zip(&self.validity)
                .filter_map(|(x, ok)| ok.then_some(*x))
                .collect::<HashSet<_>>()
                .len(),
            ColumnData::Float(v) => v
                .iter()
                .zip(&self.validity)
                .filter_map(|(x, ok)| ok.then_some(x.to_bits()))
                .collect::<HashSet<_>>()
                .len(),
            ColumnData::Str(v) => v
                .iter()
                .zip(&self.validity)
                .filter_map(|(x, ok)| ok.then_some(x.as_str()))
                .collect::<HashSet<_>>()
                .len(),
        }
    }

    /// Minimum and maximum non-NULL values, or `None` if all rows are NULL.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        for i in 0..self.len() {
            let v = self.get(i).unwrap_or(Value::Null);
            if v.is_null() {
                continue;
            }
            match (&min, &max) {
                (Some(lo), Some(hi)) => {
                    if v.total_cmp(lo) == std::cmp::Ordering::Less {
                        min = Some(v.clone());
                    }
                    if v.total_cmp(hi) == std::cmp::Ordering::Greater {
                        max = Some(v);
                    }
                }
                _ => {
                    min = Some(v.clone());
                    max = Some(v);
                }
            }
        }
        min.zip(max)
    }

    /// Borrowed payload slice of an `Int` column (`None` for other types).
    /// Slots whose validity bit is `false` are NULL and hold an arbitrary
    /// default — always consult [`ColumnVector::validity`] alongside.
    pub fn as_int_slice(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowed payload slice of a `Float` column (`None` for other types).
    pub fn as_float_slice(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowed payload slice of a `Str` column (`None` for other types).
    pub fn as_str_slice(&self) -> Option<&[String]> {
        match &self.data {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The validity bitmap: `validity()[i]` is true iff row `i` is non-NULL.
    pub fn validity(&self) -> &[bool] {
        &self.validity
    }

    /// Gather the rows at `indices` into a new column (used by joins).
    pub fn gather(&self, indices: &[usize]) -> StorageResult<Self> {
        self.gather_by(indices.iter().copied(), indices.len())
    }

    /// [`ColumnVector::gather`] over `u32` row ids — the executor's
    /// selection-vector representation.
    pub fn gather_u32(&self, indices: &[u32]) -> StorageResult<Self> {
        self.gather_by(indices.iter().map(|&i| i as usize), indices.len())
    }

    /// Typed gather: copies payload slots directly instead of round-tripping
    /// each cell through an owned [`Value`], checking each index as it goes.
    fn gather_by(&self, indices: impl Iterator<Item = usize>, n: usize) -> StorageResult<Self> {
        let mut validity = Vec::with_capacity(n);
        let data = match &self.data {
            ColumnData::Int(v) => {
                ColumnData::Int(gather_slots(v, &self.validity, indices, n, &mut validity)?)
            }
            ColumnData::Float(v) => {
                ColumnData::Float(gather_slots(v, &self.validity, indices, n, &mut validity)?)
            }
            ColumnData::Str(v) => {
                ColumnData::Str(gather_slots(v, &self.validity, indices, n, &mut validity)?)
            }
        };
        Ok(ColumnVector { data, validity })
    }
}

/// Copy the payload and validity slots at `indices` in one pass; the first
/// index past the column is an error.
fn gather_slots<T: Clone>(
    data: &[T],
    valid: &[bool],
    indices: impl Iterator<Item = usize>,
    n: usize,
    validity: &mut Vec<bool>,
) -> StorageResult<Vec<T>> {
    let mut out = Vec::with_capacity(n);
    for i in indices {
        let (Some(x), Some(&ok)) = (data.get(i), valid.get(i)) else {
            return Err(StorageError::RowOutOfBounds { index: i, len: data.len() });
        };
        out.push(x.clone());
        validity.push(ok);
    }
    Ok(out)
}

/// A borrowed view of one cell, avoiding string clones in hot paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Integer cell.
    Int(i64),
    /// Float cell.
    Float(f64),
    /// Borrowed string cell.
    Str(&'a str),
}

impl ValueRef<'_> {
    /// Convert to an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
        }
    }

    /// SQL equality (NULL never equals anything).
    pub fn sql_eq(self, other: ValueRef<'_>) -> bool {
        match (self, other) {
            (ValueRef::Null, _) | (_, ValueRef::Null) => false,
            (ValueRef::Int(a), ValueRef::Int(b)) => a == b,
            (ValueRef::Float(a), ValueRef::Float(b)) => a.total_cmp(&b).is_eq(),
            (ValueRef::Int(a), ValueRef::Float(b)) | (ValueRef::Float(b), ValueRef::Int(a)) => {
                cmp_int_float(a, b).is_eq()
            }
            (ValueRef::Str(a), ValueRef::Str(b)) => a == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut c = ColumnVector::new(DataType::Int);
        c.push(Value::Int(5)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(-2)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0).unwrap(), Value::Int(5));
        assert_eq!(c.get(1).unwrap(), Value::Null);
        assert_eq!(c.get(2).unwrap(), Value::Int(-2));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn push_rejects_wrong_type() {
        let mut c = ColumnVector::new(DataType::Int);
        let err = c.push(Value::from("nope")).unwrap_err();
        assert_eq!(
            err,
            StorageError::TypeMismatch { expected: DataType::Int, actual: DataType::Str }
        );
    }

    #[test]
    fn float_column_widens_ints() {
        let mut c = ColumnVector::new(DataType::Float);
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.get(0).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn get_out_of_bounds_errors() {
        let c = ColumnVector::from_ints([1, 2]);
        assert_eq!(c.get(2).unwrap_err(), StorageError::RowOutOfBounds { index: 2, len: 2 });
    }

    #[test]
    fn distinct_count_ignores_nulls() {
        let mut c = ColumnVector::from_ints([1, 1, 2, 3, 3, 3]);
        assert_eq!(c.distinct_count(), 3);
        c.push(Value::Null).unwrap();
        assert_eq!(c.distinct_count(), 3);
    }

    #[test]
    fn distinct_count_on_strings() {
        let c = ColumnVector::from_strs(["a", "b", "a"]);
        assert_eq!(c.distinct_count(), 2);
    }

    #[test]
    fn min_max_skips_nulls() {
        let mut c = ColumnVector::new(DataType::Int);
        c.push(Value::Null).unwrap();
        c.push(Value::Int(4)).unwrap();
        c.push(Value::Int(-1)).unwrap();
        let (lo, hi) = c.min_max().unwrap();
        assert_eq!(lo, Value::Int(-1));
        assert_eq!(hi, Value::Int(4));
    }

    #[test]
    fn min_max_of_all_null_column_is_none() {
        let mut c = ColumnVector::new(DataType::Float);
        c.push(Value::Null).unwrap();
        assert!(c.min_max().is_none());
    }

    #[test]
    fn gather_reorders_and_duplicates() {
        let c = ColumnVector::from_ints([10, 20, 30]);
        let g = c.gather(&[2, 0, 0]).unwrap();
        assert_eq!(g.get(0).unwrap(), Value::Int(30));
        assert_eq!(g.get(1).unwrap(), Value::Int(10));
        assert_eq!(g.get(2).unwrap(), Value::Int(10));
    }

    #[test]
    fn slice_accessors_expose_payload_and_validity() {
        let mut c = ColumnVector::new(DataType::Int);
        c.push(Value::Int(7)).unwrap();
        c.push(Value::Null).unwrap();
        assert_eq!(c.as_int_slice().unwrap().len(), 2);
        assert_eq!(c.as_int_slice().unwrap()[0], 7);
        assert_eq!(c.validity(), &[true, false]);
        assert!(c.as_float_slice().is_none());
        assert!(c.as_str_slice().is_none());
        let f = ColumnVector::from_floats([1.5]);
        assert_eq!(f.as_float_slice().unwrap(), &[1.5]);
        let s = ColumnVector::from_strs(["x"]);
        assert_eq!(s.as_str_slice().unwrap(), &["x".to_owned()]);
    }

    #[test]
    fn gather_u32_matches_gather_and_keeps_nulls() {
        let mut c = ColumnVector::new(DataType::Str);
        c.push(Value::from("a")).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::from("c")).unwrap();
        let a = c.gather(&[2, 1, 0]).unwrap();
        let b = c.gather_u32(&[2, 1, 0]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.get(1).unwrap(), Value::Null);
        assert_eq!(a.get(0).unwrap(), Value::from("c"));
        assert!(c.gather_u32(&[3]).is_err());
    }

    #[test]
    fn value_ref_equality_matches_sql_semantics() {
        assert!(ValueRef::Int(2).sql_eq(ValueRef::Float(2.0)));
        let two53 = 9_007_199_254_740_992i64;
        assert!(ValueRef::Float(two53 as f64).sql_eq(ValueRef::Int(two53)));
        assert!(!ValueRef::Int(two53 + 1).sql_eq(ValueRef::Float(two53 as f64)));
        assert!(!ValueRef::Null.sql_eq(ValueRef::Null));
        assert!(ValueRef::Str("x").sql_eq(ValueRef::Str("x")));
        assert!(!ValueRef::Int(1).sql_eq(ValueRef::Str("1")));
    }

    #[test]
    fn iter_yields_all_rows() {
        let c = ColumnVector::from_floats([1.0, 2.5]);
        let vals: Vec<Value> = c.iter().collect();
        assert_eq!(vals, vec![Value::Float(1.0), Value::Float(2.5)]);
    }
}
