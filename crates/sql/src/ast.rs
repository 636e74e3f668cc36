//! Abstract syntax tree for the SPJ subset.

use els_core::predicate::CmpOp;
use els_storage::Value;
use std::fmt;

/// A possibly qualified column reference as written in the query text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRefAst {
    /// Table name or alias, when qualified.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl fmt::Display for ColRefAst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// One `FROM`-list entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRefAst {
    /// Catalog table name.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRefAst {
    /// The name this table is referred to by in predicates.
    pub(crate) fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// What the query projects.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `COUNT(*)` — the paper's experimental query shape.
    CountStar,
    /// `*` — all columns of all tables.
    Star,
    /// An explicit column list.
    Columns(Vec<ColRefAst>),
    /// Columns followed by `COUNT(*)` — requires a matching `GROUP BY`.
    ColumnsAndCount(Vec<ColRefAst>),
}

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A column reference.
    Column(ColRefAst),
    /// A literal constant.
    Literal(Value),
}

/// One conjunct of the `WHERE` clause. (`BETWEEN a AND b` is desugared by
/// the parser into two [`PredicateAst::Cmp`] conjuncts.)
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateAst {
    /// `left op right`.
    Cmp {
        /// Left operand.
        left: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
    },
    /// `operand IS [NOT] NULL`.
    IsNull {
        /// The tested operand (must bind to a column).
        operand: Operand,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The projection.
    pub projection: Projection,
    /// `FROM` list, in order.
    pub from: Vec<TableRefAst>,
    /// `WHERE` conjuncts, in order (empty when absent).
    pub predicates: Vec<PredicateAst>,
    /// `GROUP BY` columns (empty when absent).
    pub group_by: Vec<ColRefAst>,
    /// `ORDER BY` items (empty when absent).
    pub order_by: Vec<OrderItemAst>,
    /// `LIMIT` row count, when present.
    pub limit: Option<u64>,
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderItemAst {
    /// The sort column.
    pub column: ColRefAst,
    /// True for `DESC`.
    pub descending: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_name_prefers_alias() {
        let t = TableRefAst { name: "orders".into(), alias: Some("o".into()) };
        assert_eq!(t.binding_name(), "o");
        let t = TableRefAst { name: "orders".into(), alias: None };
        assert_eq!(t.binding_name(), "orders");
    }

    #[test]
    fn colref_display() {
        let c = ColRefAst { table: Some("R".into()), column: "x".into() };
        assert_eq!(c.to_string(), "R.x");
        let c = ColRefAst { table: None, column: "x".into() };
        assert_eq!(c.to_string(), "x");
    }
}
