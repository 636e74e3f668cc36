//! Error type for catalog operations.

use std::fmt;

/// Errors raised by catalog registration and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A table with this name is already registered.
    DuplicateTable(String),
    /// No table with this name exists.
    UnknownTable(String),
    /// No column with this name exists in the given table.
    UnknownColumn {
        /// Table searched.
        table: String,
        /// Missing column.
        column: String,
    },
    /// Underlying storage failure (ragged columns etc.).
    Storage(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateTable(n) => write!(f, "table `{n}` already registered"),
            CatalogError::UnknownTable(n) => write!(f, "unknown table `{n}`"),
            CatalogError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            CatalogError::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<els_storage::StorageError> for CatalogError {
    fn from(e: els_storage::StorageError) -> Self {
        CatalogError::Storage(e.to_string())
    }
}

/// Result alias for this crate.
pub type CatalogResult<T> = Result<T, CatalogError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_offenders() {
        assert!(CatalogError::UnknownTable("x".into()).to_string().contains("`x`"));
        let e = CatalogError::UnknownColumn { table: "t".into(), column: "c".into() };
        assert!(e.to_string().contains("`c`") && e.to_string().contains("`t`"));
    }

    #[test]
    fn storage_errors_convert() {
        let e: CatalogError = els_storage::StorageError::UnknownColumn("z".into()).into();
        assert!(matches!(e, CatalogError::Storage(_)));
    }
}
