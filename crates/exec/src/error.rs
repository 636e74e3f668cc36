//! Error type for the executor.

use std::fmt;

use els_core::ColumnRef;

/// Errors raised while building or executing a physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A plan node referenced a table id with no registered data.
    UnknownTable(usize),
    /// A column reference did not resolve in an intermediate schema.
    ColumnNotInSchema(ColumnRef),
    /// Several column references did not resolve when binding an operator's
    /// filters; lists *every* missing column so a malformed plan is
    /// diagnosable in one pass.
    ColumnsNotInSchema(Vec<ColumnRef>),
    /// Underlying storage failure.
    Storage(String),
    /// A plan was structurally invalid (e.g. join key columns on the wrong
    /// side).
    InvalidPlan(String),
    /// An input has more rows than a `u32` selection vector can address.
    /// Row ids are `u32` throughout the vectorized path (selection
    /// vectors, join pair lists); beyond `u32::MAX` rows they would
    /// silently alias, so the executor refuses instead.
    SelectionOverflow {
        /// The offending row count.
        rows: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "no data registered for table {t}"),
            ExecError::ColumnNotInSchema(c) => {
                write!(f, "column {c} not present in intermediate schema")
            }
            ExecError::ColumnsNotInSchema(cs) => {
                let list: Vec<String> = cs.iter().map(ToString::to_string).collect();
                write!(f, "columns [{}] not present in intermediate schema", list.join(", "))
            }
            ExecError::Storage(m) => write!(f, "storage error: {m}"),
            ExecError::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            ExecError::SelectionOverflow { rows } => write!(
                f,
                "input has {rows} rows but row ids are u32: the vectorized executor \
                 addresses at most {} rows per input",
                u32::MAX
            ),
        }
    }
}

/// Guard for every place that builds `u32` row ids over an input of `rows`
/// rows (selection vectors, identity selections, pair lists). In release
/// builds an unchecked cast would silently alias row ids beyond
/// `u32::MAX`; this returns the typed error instead. Callable without
/// allocating anything, so the boundary is testable.
pub(crate) fn check_rowid_range(rows: usize) -> ExecResult<()> {
    if rows > u32::MAX as usize {
        Err(ExecError::SelectionOverflow { rows })
    } else {
        Ok(())
    }
}

/// Narrow a row index to a `u32` row id. This is the executor's single
/// sanctioned `usize → u32` narrowing: every caller sits downstream of a
/// [`check_rowid_range`] guard on its input's row count, so the cast is
/// provably lossless there — the debug assert re-states (and the tests
/// exercise) that contract.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the one sanctioned usize->u32 narrowing: callers are downstream of check_rowid_range on their input's row count, and debug builds assert it"
)]
pub(crate) fn rowid(i: usize) -> u32 {
    debug_assert!(i <= u32::MAX as usize, "row index {i} escaped check_rowid_range");
    i as u32
}

impl std::error::Error for ExecError {}

impl From<els_storage::StorageError> for ExecError {
    fn from(e: els_storage::StorageError) -> Self {
        ExecError::Storage(e.to_string())
    }
}

/// Result alias for this crate.
pub type ExecResult<T> = Result<T, ExecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        assert!(ExecError::UnknownTable(2).to_string().contains('2'));
        assert!(ExecError::ColumnNotInSchema(ColumnRef::new(0, 1)).to_string().contains("R0.c1"));
        let multi = ExecError::ColumnsNotInSchema(vec![ColumnRef::new(0, 1), ColumnRef::new(2, 3)]);
        let text = multi.to_string();
        assert!(text.contains("R0.c1") && text.contains("R2.c3"), "{text}");
        let overflow = ExecError::SelectionOverflow { rows: 5_000_000_000 };
        assert!(overflow.to_string().contains("5000000000"), "{overflow}");
    }

    #[test]
    fn rowid_range_guard_is_exact_at_the_u32_boundary() {
        // No 4-billion-row table needed: the guard is a pure function of
        // the row count.
        assert!(check_rowid_range(0).is_ok());
        assert!(check_rowid_range(u32::MAX as usize).is_ok());
        assert_eq!(
            check_rowid_range(u32::MAX as usize + 1),
            Err(ExecError::SelectionOverflow { rows: u32::MAX as usize + 1 })
        );
    }

    #[test]
    fn rowid_is_exact_over_the_guarded_range() {
        assert_eq!(rowid(0), 0);
        assert_eq!(rowid(7), 7);
        assert_eq!(rowid(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "escaped check_rowid_range")]
    #[cfg(debug_assertions)]
    fn rowid_catches_unguarded_overflow_in_debug_builds() {
        let _ = rowid(u32::MAX as usize + 1);
    }
}
