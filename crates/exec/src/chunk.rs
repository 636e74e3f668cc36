//! Intermediate results with column provenance.

use els_core::ColumnRef;
use els_storage::{ColumnVector, Table};

use crate::error::{ExecError, ExecResult};

/// A materialized intermediate result: a table whose columns are tracked
/// back to `(table, column)` positions of the original query, so predicates
/// expressed against the query can be evaluated at any point in the plan.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The data. Column names are synthesized (`t{T}_c{C}`).
    pub data: Table,
    /// Provenance of each data column, parallel to the table's columns.
    pub provenance: Vec<ColumnRef>,
}

impl Chunk {
    /// Wrap a base table scan result: every stored column, with provenance
    /// `(table_id, i)`.
    pub fn from_base_table(table_id: usize, data: Table) -> Chunk {
        let provenance = (0..data.num_columns()).map(|i| ColumnRef::new(table_id, i)).collect();
        Chunk { data, provenance }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.data.num_rows()
    }

    /// Position of a query column in this chunk, if present.
    pub fn position_of(&self, c: ColumnRef) -> Option<usize> {
        self.provenance.iter().position(|p| *p == c)
    }

    /// Position of a query column, as an error when absent.
    pub fn require(&self, c: ColumnRef) -> ExecResult<usize> {
        self.position_of(c).ok_or(ExecError::ColumnNotInSchema(c))
    }

    /// True when this chunk carries any column of query table `t`.
    pub fn covers_table(&self, t: usize) -> bool {
        self.provenance.iter().any(|p| p.table == t)
    }

    /// Build a chunk by concatenating columns gathered from two parents
    /// (used by joins): `rows` lists `(left_row, right_row)` pairs.
    pub fn join_rows(left: &Chunk, right: &Chunk, rows: &[(usize, usize)]) -> ExecResult<Chunk> {
        let (l_idx, r_idx): (Vec<usize>, Vec<usize>) = rows.iter().copied().unzip();
        let mut columns: Vec<(String, ColumnVector)> = Vec::new();
        let mut provenance = Vec::new();
        for (side, idx) in [(left, &l_idx), (right, &r_idx)] {
            for (col, &p) in side.data.columns().iter().zip(&side.provenance) {
                columns.push((format!("t{}_c{}", p.table, p.column), col.gather(idx)?));
                provenance.push(p);
            }
        }
        Ok(Chunk { data: Table::new("join", columns)?, provenance })
    }

    /// Keep only the rows at `indices`.
    pub fn filter_rows(&self, indices: &[usize]) -> ExecResult<Chunk> {
        Ok(Chunk {
            data: self.data.gather(self.data.name().to_owned(), indices)?,
            provenance: self.provenance.clone(),
        })
    }

    /// Project to the given query columns (each must be present).
    pub fn project(&self, columns: &[ColumnRef]) -> ExecResult<Chunk> {
        let mut cols: Vec<(String, ColumnVector)> = Vec::new();
        let mut provenance = Vec::new();
        for &c in columns {
            let pos = self.require(c)?;
            cols.push((format!("t{}_c{}", c.table, c.column), self.data.column(pos)?.clone()));
            provenance.push(c);
        }
        Ok(Chunk { data: Table::new("project", cols)?, provenance })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::{DataType, Value};

    fn base(table_id: usize, values: &[i64]) -> Chunk {
        let mut t = Table::empty("b", &[("k", DataType::Int)]);
        for &v in values {
            t.push_row(vec![Value::Int(v)]).unwrap();
        }
        Chunk::from_base_table(table_id, t)
    }

    #[test]
    fn provenance_tracks_base_columns() {
        let c = base(3, &[1, 2]);
        assert_eq!(c.provenance, vec![ColumnRef::new(3, 0)]);
        assert!(c.covers_table(3));
        assert!(!c.covers_table(0));
        assert_eq!(c.position_of(ColumnRef::new(3, 0)), Some(0));
        assert!(c.require(ColumnRef::new(1, 0)).is_err());
    }

    #[test]
    fn join_rows_concatenates_schemas() {
        let l = base(0, &[10, 20]);
        let r = base(1, &[30, 40]);
        let j = Chunk::join_rows(&l, &r, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(j.num_rows(), 2);
        assert_eq!(j.provenance, vec![ColumnRef::new(0, 0), ColumnRef::new(1, 0)]);
        assert_eq!(j.data.row(0).unwrap(), vec![Value::Int(10), Value::Int(40)]);
        assert_eq!(j.data.row(1).unwrap(), vec![Value::Int(20), Value::Int(30)]);
    }

    #[test]
    fn filter_rows_keeps_selection() {
        let c = base(0, &[5, 6, 7]);
        let f = c.filter_rows(&[2, 0]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.data.row(0).unwrap(), vec![Value::Int(7)]);
    }

    #[test]
    fn project_reorders_columns() {
        let l = base(0, &[1]);
        let r = base(1, &[2]);
        let j = Chunk::join_rows(&l, &r, &[(0, 0)]).unwrap();
        let p = j.project(&[ColumnRef::new(1, 0)]).unwrap();
        assert_eq!(p.provenance, vec![ColumnRef::new(1, 0)]);
        assert_eq!(p.data.row(0).unwrap(), vec![Value::Int(2)]);
        assert!(j.project(&[ColumnRef::new(9, 9)]).is_err());
    }
}
