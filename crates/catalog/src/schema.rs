//! Table and column definitions.

use els_storage::{DataType, Table};

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within its table).
    pub name: String,
    /// Stored data type.
    pub data_type: DataType,
}

/// Definition of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Table name (unique within the catalog).
    pub name: String,
    /// Columns in schema order.
    pub columns: Vec<ColumnDef>,
}

impl TableDef {
    /// Derive a definition from stored data.
    pub(crate) fn from_table(table: &Table) -> Self {
        let columns = table
            .column_names()
            .iter()
            .zip(table.columns())
            .map(|(name, col)| ColumnDef { name: name.clone(), data_type: col.data_type() })
            .collect();
        TableDef { name: table.name().to_owned(), columns }
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::ColumnVector;

    #[test]
    fn derives_from_stored_table() {
        let t = Table::new(
            "orders",
            vec![
                ("id".into(), ColumnVector::from_ints([1, 2])),
                ("tag".into(), ColumnVector::from_strs(["a", "b"])),
            ],
        )
        .unwrap();
        let def = TableDef::from_table(&t);
        assert_eq!(def.name, "orders");
        assert_eq!(def.columns.len(), 2);
        assert_eq!(def.columns[0], ColumnDef { name: "id".into(), data_type: DataType::Int });
        assert_eq!(def.column_index("tag"), Some(1));
        assert_eq!(def.column_index("nope"), None);
    }
}
