//! Name resolution: AST → positional predicates over a catalog.

use els_catalog::Catalog;
use els_core::predicate::CmpOp;
use els_core::{ColumnRef, Predicate};

use crate::ast::{ColRefAst, Operand, Projection, Query};
use crate::error::{SqlError, SqlResult};

/// A resolved projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundProjection {
    /// `COUNT(*)`.
    CountStar,
    /// Every column of every `FROM` table.
    Star,
    /// Specific columns.
    Columns(Vec<ColumnRef>),
    /// `GROUP BY` columns with a per-group `COUNT(*)`.
    GroupCount(Vec<ColumnRef>),
}

/// A fully resolved query, ready for estimation and execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    /// Catalog table names, in `FROM` order (positional table ids).
    pub table_names: Vec<String>,
    /// The names the query text binds each table to (alias or name).
    pub binding_names: Vec<String>,
    /// Resolved projection.
    pub projection: BoundProjection,
    /// Resolved conjuncts.
    pub predicates: Vec<Predicate>,
    /// Resolved `ORDER BY` items (`(column, descending)`); the columns must
    /// appear in the output.
    pub order_by: Vec<(ColumnRef, bool)>,
    /// `LIMIT`, when present.
    pub limit: Option<u64>,
}

/// Resolve `query` against `catalog`.
///
/// Shapes extend the paper's conjunctive-query model: between two columns
/// `=` binds to an equality predicate (what transitive closure and
/// equivalence classes consume), and the range comparisons `<`, `<=`, `>`,
/// `>=` bind to a [`Predicate::join_range`] when the columns live in
/// different `FROM` tables (`!=` and same-table ranges stay typed errors);
/// between a column and a literal any comparison works, and a
/// literal-first predicate is flipped. The tautology `R.x = R.x` is
/// dropped. Comparisons between two literals are rejected.
pub fn bind(query: &Query, catalog: &Catalog) -> SqlResult<BoundQuery> {
    // FROM list: every table must exist; binding names must be unique.
    let mut binding_names: Vec<String> = Vec::with_capacity(query.from.len());
    let mut table_names: Vec<String> = Vec::with_capacity(query.from.len());
    for t in &query.from {
        catalog.table_def(&t.name)?; // existence check
        let binding = t.binding_name().to_owned();
        if binding_names.contains(&binding) {
            return Err(SqlError::Bind(format!("duplicate table binding `{binding}`")));
        }
        binding_names.push(binding);
        table_names.push(t.name.clone());
    }

    let resolve = |c: &ColRefAst| -> SqlResult<ColumnRef> {
        match &c.table {
            Some(tname) => {
                let (t, table) = binding_names
                    .iter()
                    .zip(&table_names)
                    .enumerate()
                    .find_map(|(t, (b, table))| (b == tname).then_some((t, table)))
                    .ok_or_else(|| SqlError::Bind(format!("unknown table `{tname}` in `{c}`")))?;
                let def = catalog.table_def(table)?;
                let col = def.column_index(&c.column).ok_or_else(|| {
                    SqlError::Bind(format!("unknown column `{}` in table `{tname}`", c.column))
                })?;
                Ok(ColumnRef::new(t, col))
            }
            None => {
                let mut hit: Option<ColumnRef> = None;
                for (t, tname) in table_names.iter().enumerate() {
                    if let Some(col) = catalog.table_def(tname)?.column_index(&c.column) {
                        if hit.is_some() {
                            return Err(SqlError::Bind(format!(
                                "ambiguous column `{}`: present in more than one FROM table",
                                c.column
                            )));
                        }
                        hit = Some(ColumnRef::new(t, col));
                    }
                }
                hit.ok_or_else(|| {
                    SqlError::Bind(format!("unknown column `{}` in any FROM table", c.column))
                })
            }
        }
    };

    let projection = match &query.projection {
        Projection::CountStar if query.group_by.is_empty() => BoundProjection::CountStar,
        Projection::Star if query.group_by.is_empty() => BoundProjection::Star,
        Projection::Columns(cols) if query.group_by.is_empty() => {
            BoundProjection::Columns(cols.iter().map(&resolve).collect::<SqlResult<Vec<_>>>()?)
        }
        Projection::ColumnsAndCount(cols) => {
            // Minimal GROUP BY semantics: the grouped columns must be
            // exactly the projected ones.
            let projected = cols.iter().map(&resolve).collect::<SqlResult<Vec<_>>>()?;
            let grouped = query.group_by.iter().map(&resolve).collect::<SqlResult<Vec<_>>>()?;
            if grouped.is_empty() {
                return Err(SqlError::Bind(
                    "`col, COUNT(*)` projections require a GROUP BY clause".into(),
                ));
            }
            let mut a = projected.clone();
            let mut b = grouped.clone();
            a.sort();
            b.sort();
            if a != b {
                return Err(SqlError::Bind(
                    "GROUP BY columns must match the projected columns".into(),
                ));
            }
            BoundProjection::GroupCount(projected)
        }
        _ => {
            return Err(SqlError::Bind(
                "GROUP BY requires a `col [, col]*, COUNT(*)` projection".into(),
            ))
        }
    };

    let mut predicates = Vec::with_capacity(query.predicates.len());
    for p in &query.predicates {
        match p {
            crate::ast::PredicateAst::IsNull { operand, negated } => {
                let Operand::Column(c) = operand else {
                    return Err(SqlError::Bind("IS NULL requires a column operand".into()));
                };
                predicates.push(Predicate::IsNull { column: resolve(c)?, negated: *negated });
            }
            crate::ast::PredicateAst::Cmp { left, op, right } => match (left, right) {
                (Operand::Column(a), Operand::Column(b)) => {
                    let (ra, rb) = (resolve(a)?, resolve(b)?);
                    match op {
                        CmpOp::Eq => {
                            if ra == rb {
                                // R.x = R.x: a tautology; drop it.
                                continue;
                            }
                            predicates.push(
                                Predicate::col_eq(ra, rb)
                                    .map_err(|e| SqlError::Bind(e.to_string()))?,
                            );
                        }
                        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                            if ra.table == rb.table {
                                return Err(SqlError::Bind(format!(
                                    "range comparisons between columns of one table are not \
                                     supported, got `{a} {op} {b}`"
                                )));
                            }
                            predicates.push(
                                Predicate::join_range(ra, *op, rb)
                                    .map_err(|e| SqlError::Bind(e.to_string()))?,
                            );
                        }
                        CmpOp::Ne => {
                            return Err(SqlError::Bind(format!(
                                "`!=` is not supported between columns, got `{a} {op} {b}`"
                            )));
                        }
                    }
                }
                (Operand::Column(c), Operand::Literal(v)) => {
                    predicates.push(Predicate::LocalCmp {
                        column: resolve(c)?,
                        op: *op,
                        value: v.clone(),
                    });
                }
                (Operand::Literal(v), Operand::Column(c)) => {
                    predicates.push(Predicate::LocalCmp {
                        column: resolve(c)?,
                        op: op.flip(),
                        value: v.clone(),
                    });
                }
                (Operand::Literal(_), Operand::Literal(_)) => {
                    return Err(SqlError::Bind(
                        "comparisons between two literals are not supported".into(),
                    ))
                }
            },
        }
    }

    // ORDER BY columns must be visible in the output rows.
    let mut order_by = Vec::with_capacity(query.order_by.len());
    for item in &query.order_by {
        let col = resolve(&item.column)?;
        let visible = match &projection {
            BoundProjection::Star => true,
            BoundProjection::Columns(cols) | BoundProjection::GroupCount(cols) => {
                cols.contains(&col)
            }
            BoundProjection::CountStar => false,
        };
        if !visible {
            return Err(SqlError::Bind(format!(
                "ORDER BY column `{}` is not in the projected output",
                item.column
            )));
        }
        order_by.push((col, item.descending));
    }

    Ok(BoundQuery {
        table_names,
        binding_names,
        projection,
        predicates,
        order_by,
        limit: query.limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use els_catalog::collect::CollectOptions;
    use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, col, rows) in
            [("S", "s", 1000usize), ("M", "m", 10_000), ("B", "b", 50_000), ("G", "g", 100_000)]
        {
            let t = TableSpec::new(name, rows)
                .column(ColumnSpec::new(col, Distribution::SequentialInt { start: 0 }))
                .generate(1);
            c.register(t, &CollectOptions::default()).unwrap();
        }
        c
    }

    fn bound(sql: &str) -> SqlResult<BoundQuery> {
        bind(&parse(sql).unwrap(), &catalog())
    }

    #[test]
    fn binds_the_section8_query() {
        let b =
            bound("SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100")
                .unwrap();
        assert_eq!(b.table_names, vec!["S", "M", "B", "G"]);
        assert_eq!(b.projection, BoundProjection::CountStar);
        assert_eq!(b.predicates.len(), 4);
        assert_eq!(
            b.predicates[0],
            Predicate::col_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap()
        );
        assert_eq!(b.predicates[3], Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Lt, 100i64));
    }

    #[test]
    fn unqualified_names_resolve_across_tables() {
        let b = bound("SELECT * FROM S, M WHERE s = m").unwrap();
        assert_eq!(
            b.predicates,
            vec![Predicate::col_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap()]
        );
    }

    #[test]
    fn aliases_bind() {
        let b = bound("SELECT COUNT(*) FROM S x, M AS y WHERE x.s = y.m").unwrap();
        assert_eq!(b.binding_names, vec!["x", "y"]);
        assert_eq!(b.predicates.len(), 1);
    }

    #[test]
    fn literal_on_left_flips() {
        let b = bound("SELECT COUNT(*) FROM S WHERE 100 > s").unwrap();
        assert_eq!(
            b.predicates,
            vec![Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Lt, 100i64)]
        );
    }

    #[test]
    fn self_equality_is_dropped() {
        let b = bound("SELECT COUNT(*) FROM S WHERE s = s").unwrap();
        assert!(b.predicates.is_empty());
    }

    #[test]
    fn errors_unknown_table_column_ambiguity() {
        assert!(matches!(bound("SELECT * FROM Q"), Err(SqlError::Bind(_))));
        assert!(matches!(bound("SELECT * FROM S WHERE nope = 1"), Err(SqlError::Bind(_))));
        assert!(matches!(bound("SELECT * FROM S WHERE M.m = 1"), Err(SqlError::Bind(_))));
        // Same table twice without aliases: duplicate binding.
        assert!(matches!(bound("SELECT * FROM S, S"), Err(SqlError::Bind(_))));
        // With aliases a self-join binds fine.
        let b = bound("SELECT COUNT(*) FROM S a, S b WHERE a.s = b.s").unwrap();
        assert_eq!(b.predicates.len(), 1);
    }

    #[test]
    fn ambiguous_unqualified_column_errors() {
        // Column `s` exists in both aliases of a self-join.
        let err = bound("SELECT COUNT(*) FROM S a, S b WHERE s = 1").unwrap_err();
        assert!(matches!(err, SqlError::Bind(msg) if msg.contains("ambiguous")));
    }

    #[test]
    fn range_comparison_between_columns_binds_as_join_range() {
        let b = bound("SELECT COUNT(*) FROM S, M WHERE s < m").unwrap();
        assert_eq!(
            b.predicates,
            vec![Predicate::join_range(ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(1, 0))
                .unwrap()]
        );
        // A self-join across two aliases is two distinct positional tables.
        let b = bound("SELECT COUNT(*) FROM S a, S b WHERE a.s >= b.s").unwrap();
        assert_eq!(
            b.predicates,
            vec![Predicate::join_range(ColumnRef::new(0, 0), CmpOp::Ge, ColumnRef::new(1, 0))
                .unwrap()]
        );
    }

    #[test]
    fn non_join_inequalities_between_columns_rejected() {
        // `!=` between columns has no estimation model.
        let err = bound("SELECT * FROM S, M WHERE s != m").unwrap_err();
        assert!(matches!(err, SqlError::Bind(msg) if msg.contains("!=")));
        // A range between two columns of one table is not a join.
        let err = bound("SELECT * FROM S WHERE s < s").unwrap_err();
        assert!(matches!(err, SqlError::Bind(msg) if msg.contains("one table")));
    }

    #[test]
    fn literal_literal_rejected() {
        assert!(matches!(bound("SELECT * FROM S WHERE 1 = 1"), Err(SqlError::Bind(_))));
    }

    #[test]
    fn is_null_binds_to_core_predicate() {
        let b = bound("SELECT COUNT(*) FROM S WHERE s IS NOT NULL").unwrap();
        assert_eq!(
            b.predicates,
            vec![Predicate::IsNull { column: ColumnRef::new(0, 0), negated: true }]
        );
        // IS NULL on a literal is rejected at bind time.
        let q = crate::parser::parse("SELECT COUNT(*) FROM S WHERE 5 IS NULL").unwrap();
        assert!(matches!(bind(&q, &catalog()), Err(SqlError::Bind(_))));
    }

    #[test]
    fn between_binds_as_two_local_predicates() {
        let b = bound("SELECT COUNT(*) FROM S WHERE s BETWEEN 10 AND 20").unwrap();
        assert_eq!(
            b.predicates,
            vec![
                Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Ge, 10i64),
                Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Le, 20i64),
            ]
        );
    }

    #[test]
    fn group_by_binds_and_validates() {
        let b = bound("SELECT s, COUNT(*) FROM S GROUP BY s").unwrap();
        assert_eq!(b.projection, BoundProjection::GroupCount(vec![ColumnRef::new(0, 0)]));
        // Projected and grouped columns must match.
        let q = crate::parser::parse("SELECT s, COUNT(*) FROM S, M GROUP BY m").unwrap();
        assert!(matches!(bind(&q, &catalog()), Err(SqlError::Bind(_))));
        // ColumnsAndCount without GROUP BY is rejected.
        let q = crate::parser::parse("SELECT s, COUNT(*) FROM S").unwrap();
        assert!(matches!(bind(&q, &catalog()), Err(SqlError::Bind(_))));
        // GROUP BY with a plain column projection is rejected (no aggregate).
        let q = crate::parser::parse("SELECT s FROM S GROUP BY s").unwrap();
        assert!(matches!(bind(&q, &catalog()), Err(SqlError::Bind(_))));
    }

    #[test]
    fn order_by_must_be_in_the_output() {
        let b = bound("SELECT s FROM S ORDER BY s DESC LIMIT 3").unwrap();
        assert_eq!(b.order_by, vec![(ColumnRef::new(0, 0), true)]);
        assert_eq!(b.limit, Some(3));
        // Ordering by a column that is not projected is rejected.
        let q = crate::parser::parse("SELECT COUNT(*) FROM S ORDER BY s").unwrap();
        assert!(matches!(bind(&q, &catalog()), Err(SqlError::Bind(_))));
        // Star output allows ordering by anything in scope.
        let b = bound("SELECT * FROM S ORDER BY s").unwrap();
        assert_eq!(b.order_by.len(), 1);
    }

    #[test]
    fn projection_columns_resolve() {
        let b = bound("SELECT S.s, m FROM S, M").unwrap();
        assert_eq!(
            b.projection,
            BoundProjection::Columns(vec![ColumnRef::new(0, 0), ColumnRef::new(1, 0)])
        );
    }
}
