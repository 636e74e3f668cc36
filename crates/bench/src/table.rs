//! The one markdown-table writer the experiments print through.
//!
//! Rows stream to stdout as they are computed, so column widths are fixed
//! by the caller rather than measured from the cells.

use std::fmt::Display;

/// One column: its heading, its width in characters, and which side its
/// cells are padded on.
#[derive(Debug, Clone, Copy)]
pub struct Col<'a> {
    name: &'a str,
    width: usize,
    left: bool,
}

/// A left-aligned column.
pub fn l(name: &str, width: usize) -> Col<'_> {
    Col { name, width, left: true }
}

/// A right-aligned column.
pub fn r(name: &str, width: usize) -> Col<'_> {
    Col { name, width, left: false }
}

/// A table whose heading has been printed; [`Table::row`] adds rows.
#[derive(Debug)]
pub struct Table {
    cols: Vec<(usize, bool)>,
}

impl Table {
    /// Print the heading and the separator row under it.
    pub fn header(cols: &[Col<'_>]) -> Table {
        let table = Table { cols: cols.iter().map(|c| (c.width, c.left)).collect() };
        println!("{}", table.line(cols.iter().map(|c| c.name)));
        let rules: Vec<String> = cols.iter().map(|c| "-".repeat(c.width + 2)).collect();
        println!("|{}|", rules.join("|"));
        table
    }

    /// Print one row. A cell is rendered first and padded second, so a
    /// `format_args!("{:.1}x", v)` cell aligns like any other.
    pub fn row(&self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.cols.len(), "one cell per column");
        println!("{}", self.line(cells.iter()));
    }

    fn line(&self, cells: impl Iterator<Item = impl Display>) -> String {
        let mut out = String::from("|");
        for (cell, &(width, left)) in cells.zip(&self.cols) {
            let cell = cell.to_string();
            out += &if left { format!(" {cell:<width$} |") } else { format!(" {cell:>width$} |") };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_pad_to_their_column_by_character_count() {
        let table = Table { cols: vec![(7, true), (6, false)] };
        assert_eq!(table.line(["S⋈M", "1.5x"].iter()), "| S⋈M     |   1.5x |");
        // An over-wide cell is printed whole, never truncated.
        assert_eq!(table.line(["estimator", "1"].iter()), "| estimator |      1 |");
    }
}
