//! Identifiers for tables, columns, and equivalence classes.
//!
//! A query is described positionally: the tables of the `FROM` list are
//! numbered `0..n`, and each table's columns are numbered within it. These
//! indices are resolved against names by the SQL binder (`els-sql`); the
//! estimation core itself is name-free.

use std::fmt;

/// Index of a table in the query's `FROM` list.
pub type TableId = usize;

/// A reference to one column of one query table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnRef {
    /// The table's position in the `FROM` list.
    pub table: TableId,
    /// The column's position in that table's schema.
    pub column: usize,
}

impl ColumnRef {
    /// Create a column reference.
    pub const fn new(table: TableId, column: usize) -> Self {
        ColumnRef { table, column }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}.c{}", self.table, self.column)
    }
}

/// Identifier of a j-equivalence class (dense indices assigned by
/// `crate::equivalence::EquivalenceClasses`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub usize);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EC{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_refs_order_by_table_then_column() {
        let a = ColumnRef::new(0, 5);
        let b = ColumnRef::new(1, 0);
        let c = ColumnRef::new(1, 2);
        assert!(a < b && b < c);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ColumnRef::new(2, 3).to_string(), "R2.c3");
        assert_eq!(ClassId(1).to_string(), "EC1");
    }
}
