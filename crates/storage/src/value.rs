//! Dynamically typed cell values.
//!
//! The engine is dynamically typed at the cell level: a [`Value`] is an
//! integer, a float, a string, or NULL. Comparison semantics follow SQL for
//! predicates (any comparison involving NULL is *unknown*, treated as false by
//! conjunctive filters) while [`Value::total_cmp`] provides the total order
//! needed by sort-merge joins and histogram construction.

use std::cmp::Ordering;
use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Approximate width in bytes of one cell of this type, used by the page
    /// model ([`crate::Table::estimated_row_bytes`]). Strings are charged a
    /// fixed 24 bytes (pointer + small payload), which mirrors the fixed-width
    /// CHAR columns of 1990s benchmark schemas closely enough for cost
    /// purposes.
    pub(crate) fn estimated_width(self) -> usize {
        match self {
            DataType::Int | DataType::Float => 8,
            DataType::Str => 24,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STR"),
        }
    }
}

/// A single dynamically typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// The [`DataType`] of this value, or `None` for NULL (NULL is typeless).
    pub(crate) fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL three-valued comparison: `None` when either side is NULL or the
    /// types are incomparable, otherwise the ordering. Int and Float compare
    /// numerically with each other.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some(cmp_int_float(*a, *b)),
            (Value::Float(a), Value::Int(b)) => Some(cmp_int_float(*b, *a).reverse()),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order over all values, used for sorting. NULL sorts first, then
    /// numeric values (Int and Float interleaved by numeric value, with Int
    /// before an equal Float so the order is antisymmetric), then strings.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b).then(Ordering::Less),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)).then(Ordering::Greater),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL equality: `false` if either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }

    /// Extract an integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a float; integers are widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }
}

/// Exact numeric comparison of an integer with a float: the one place
/// `Int` meets `Float` under SQL comparison ([`Value::sql_cmp`],
/// `ValueRef::sql_eq` and the executor's filter kernels all call it).
///
/// Widening the integer with `a as f64` would round beyond 2⁵³ and make
/// `9007199254740993` equal to `9007199254740992.0`; instead the float's
/// integer part is compared as an `i64` and its fraction breaks the tie.
/// A constant outside `i64`'s range, an infinity
/// or a NaN is ordered by its sign alone, which is where `f64::total_cmp`
/// puts them; `-0.0` still orders below `Int(0)`, as it does under
/// `total_cmp` (the sort order and the join keys share that placement).
#[inline]
pub fn cmp_int_float(a: i64, b: f64) -> Ordering {
    /// 2⁶³, the first float above every `i64`.
    const I64_END: f64 = 9_223_372_036_854_775_808.0;
    if !(-I64_END..I64_END).contains(&b) {
        return if b.is_sign_negative() { Ordering::Greater } else { Ordering::Less };
    }
    // In range, so the truncation is exact, and so is widening it back.
    let whole = b.trunc() as i64;
    a.cmp(&whole).then_with(|| (whole as f64).total_cmp(&b))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_types_report_widths() {
        assert_eq!(DataType::Int.estimated_width(), 8);
        assert_eq!(DataType::Float.estimated_width(), 8);
        assert_eq!(DataType::Str.estimated_width(), 24);
    }

    #[test]
    fn null_is_typeless_and_never_equal() {
        assert_eq!(Value::Null.data_type(), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Float(1.5)), Some(Ordering::Less));
        assert_eq!(Value::Float(2.5).sql_cmp(&Value::Int(2)), Some(Ordering::Greater));
    }

    #[test]
    fn int_float_comparison_is_exact_beyond_2_pow_53() {
        use Ordering::{Equal, Greater, Less};
        let two53 = 9_007_199_254_740_992i64;
        assert_eq!(cmp_int_float(two53, two53 as f64), Equal);
        assert_eq!(cmp_int_float(two53 + 1, two53 as f64), Greater);
        assert_eq!(cmp_int_float(-two53 - 1, -(two53 as f64)), Less);
        assert_eq!(Value::Int(two53 + 1).sql_cmp(&Value::Float(two53 as f64)), Some(Greater));
        assert_eq!(Value::Float(two53 as f64).sql_cmp(&Value::Int(two53 + 1)), Some(Less));
        assert!(!Value::Int(two53 + 1).sql_eq(&Value::Float(two53 as f64)));
        // Fractions on both sides of zero, and the ends of the i64 range.
        for (a, b, want) in [
            (2, 2.5, Less),
            (3, 2.5, Greater),
            (-2, -2.5, Greater),
            (-3, -2.5, Less),
            (0, -0.5, Greater),
            (0, 0.5, Less),
            (i64::MAX, 9_223_372_036_854_775_808.0, Less),
            (i64::MIN, -9_223_372_036_854_775_808.0, Equal),
            (i64::MIN, -9_223_372_036_854_777_856.0, Greater),
            (i64::MAX, f64::INFINITY, Less),
            (i64::MIN, f64::NEG_INFINITY, Greater),
        ] {
            assert_eq!(cmp_int_float(a, b), want, "{a} vs {b}");
        }
        // NaN and -0.0 stay where `total_cmp` on the widened integer put them.
        for a in [i64::MIN, -1, 0, 1, i64::MAX] {
            for b in [f64::NAN, -f64::NAN, -0.0, 0.0] {
                assert_eq!(cmp_int_float(a, b), (a as f64).total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(Value::from("apple").sql_cmp(&Value::from("banana")), Some(Ordering::Less));
        assert!(Value::from("x").sql_eq(&Value::from("x")));
    }

    #[test]
    fn incomparable_types_yield_none() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::from("1")), None);
        assert!(!Value::Int(1).sql_eq(&Value::from("1")));
    }

    #[test]
    fn total_order_sorts_null_first_then_numbers_then_strings() {
        let mut vals =
            vec![Value::from("a"), Value::Int(3), Value::Null, Value::Float(1.5), Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vals,
            vec![Value::Null, Value::Int(1), Value::Float(1.5), Value::Int(3), Value::from("a"),]
        );
    }

    #[test]
    fn total_order_is_antisymmetric_for_equal_int_float() {
        // Int(2) and Float(2.0) must order consistently in both directions.
        let a = Value::Int(2);
        let b = Value::Float(2.0);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(b.total_cmp(&a), Ordering::Greater);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::from("s").as_int(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::from("hi").to_string(), "'hi'");
    }
}
