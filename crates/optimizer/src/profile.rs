//! Physical table profiles for the cost model.
//!
//! The paper keeps the *original* (unreduced) table statistics for access
//! cost calculations even after local predicates have reduced the effective
//! cardinalities (Section 5, last paragraph): scanning a table costs its
//! full page count no matter how selective the filters are. Profiles carry
//! exactly those physical numbers.

use els_storage::{Table, PAGE_SIZE_BYTES};

/// Physical description of one query table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableProfile {
    /// Stored row count (original, pre-predicate).
    pub rows: f64,
    /// Stored page count.
    pub pages: f64,
    /// Estimated bytes per tuple.
    pub row_bytes: usize,
}

impl TableProfile {
    /// Profile a stored table.
    pub fn of(table: &Table) -> TableProfile {
        TableProfile {
            rows: table.num_rows() as f64,
            pages: table.num_pages() as f64,
            row_bytes: table.estimated_row_bytes(),
        }
    }

    /// Synthesize a profile from a row count and tuple width (for tests and
    /// statistics-only experiments with no materialized data).
    pub fn synthetic(rows: f64, row_bytes: usize) -> TableProfile {
        let per_page = (PAGE_SIZE_BYTES / row_bytes.max(1)).max(1) as f64;
        TableProfile { rows, pages: (rows / per_page).ceil(), row_bytes: row_bytes.max(1) }
    }

    /// Pages occupied by `rows` tuples of `row_bytes` width under the page
    /// model — used for intermediate results.
    pub(crate) fn pages_for(rows: f64, row_bytes: usize) -> f64 {
        if rows <= 0.0 {
            return 0.0;
        }
        let per_page = (PAGE_SIZE_BYTES / row_bytes.max(1)).max(1) as f64;
        (rows / per_page).ceil()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};

    #[test]
    fn profile_of_stored_table() {
        let t = TableSpec::new("t", 1000)
            .column(ColumnSpec::new("a", Distribution::SequentialInt { start: 0 }))
            .column(ColumnSpec::new("b", Distribution::SequentialInt { start: 0 }))
            .generate(1);
        let p = TableProfile::of(&t);
        assert_eq!(p.rows, 1000.0);
        assert_eq!(p.row_bytes, 16);
        // 256 tuples per 4KiB page -> 4 pages.
        assert_eq!(p.pages, 4.0);
    }

    #[test]
    fn synthetic_matches_of() {
        let t = TableSpec::new("t", 1000)
            .column(ColumnSpec::new("a", Distribution::SequentialInt { start: 0 }))
            .generate(1);
        let a = TableProfile::of(&t);
        let b = TableProfile::synthetic(1000.0, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn pages_for_rounds_up_and_handles_zero() {
        assert_eq!(TableProfile::pages_for(0.0, 8), 0.0);
        assert_eq!(TableProfile::pages_for(1.0, 8), 1.0);
        assert_eq!(TableProfile::pages_for(513.0, 8), 2.0);
        // Fractional expected rows still cost a page.
        assert_eq!(TableProfile::pages_for(0.25, 8), 1.0);
    }
}
