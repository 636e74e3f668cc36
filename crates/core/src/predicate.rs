//! Predicate representation and normalization (Algorithm ELS, Step 1).
//!
//! Queries are *conjunctive*: the `WHERE` clause is a conjunction of
//! comparison predicates (paper, Section 2). Three shapes exist:
//!
//! * **Local comparison** `R.x op c` — one column against a constant.
//! * **Local column equality** `R.x = R.y` — two columns of the *same*
//!   table. These arise both directly and through transitive closure
//!   (paper, Section 4, rule 2.b).
//! * **Join equality** `R.x = S.y` — columns of two different tables.
//!
//! Constructors canonicalize operand order so that structurally identical
//! predicates compare equal, which makes Step 1's deduplication (e.g. of
//! `(R1.x > 500) AND (R1.x > 500)`) a plain equality scan.

use std::cmp::Ordering;
use std::fmt;

use els_storage::Value;

use crate::error::{ElsError, ElsResult};
use crate::ids::ColumnRef;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped: `a op b  ≡  b op.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluate the operator against a comparison result.
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// True for `<`, `<=`, `>`, `>=`.
    pub fn is_range(self) -> bool {
        matches!(self, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
    }

    /// True for `=` and `<>`, where `a op b ≡ b op a`.
    pub fn is_symmetric(self) -> bool {
        matches!(self, CmpOp::Eq | CmpOp::Ne)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// One conjunct of a conjunctive `WHERE` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column op value`.
    LocalCmp {
        /// The column being restricted.
        column: ColumnRef,
        /// Comparison operator.
        op: CmpOp,
        /// Constant right-hand side.
        value: Value,
    },
    /// `left = right` with both columns in the same table; canonicalized so
    /// `left < right`.
    LocalColEq {
        /// Lower-numbered column.
        left: ColumnRef,
        /// Higher-numbered column.
        right: ColumnRef,
    },
    /// `left = right` across two tables; canonicalized so `left.table <
    /// right.table`.
    JoinEq {
        /// Column of the lower-numbered table.
        left: ColumnRef,
        /// Column of the higher-numbered table.
        right: ColumnRef,
    },
    /// `left op right` across two tables with a range operator (`<`, `<=`,
    /// `>`, `>=`) — an inequality (band) join predicate. Canonicalized so
    /// `left.table < right.table`, flipping the operator when the operands
    /// swap. Range predicates never merge equivalence classes and never
    /// participate in transitive closure; they restrict join results
    /// multiplicatively, like the paper's local predicates restrict scans.
    JoinRange {
        /// Column of the lower-numbered table.
        left: ColumnRef,
        /// The range operator relating `left` to `right`.
        op: CmpOp,
        /// Column of the higher-numbered table.
        right: ColumnRef,
    },
    /// `column IS NULL` / `column IS NOT NULL`. Not part of the paper's
    /// predicate language, but required for SQL completeness; NULLs never
    /// satisfy comparisons and never join, so these interact with the rest
    /// of the pipeline only through the NULL fraction statistics.
    IsNull {
        /// The tested column.
        column: ColumnRef,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Predicate {
    /// Build a local comparison `column op value`.
    pub fn local_cmp(column: ColumnRef, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate::LocalCmp { column, op, value: value.into() }
    }

    /// Build an equality between two columns, classifying it as a join or a
    /// local column equality and canonicalizing operand order.
    ///
    /// # Errors
    /// [`ElsError::MalformedPredicate`] when both sides are the same column
    /// (`R.x = R.x` is a tautology the caller should drop; keeping it would
    /// silently skew selectivities).
    pub fn col_eq(a: ColumnRef, b: ColumnRef) -> ElsResult<Predicate> {
        if a == b {
            return Err(ElsError::MalformedPredicate(format!(
                "column equality `{a} = {b}` with itself is a tautology"
            )));
        }
        let (left, right) = if a <= b { (a, b) } else { (b, a) };
        Ok(if left.table == right.table {
            Predicate::LocalColEq { left, right }
        } else {
            Predicate::JoinEq { left, right }
        })
    }

    /// Build a join equality; two columns of the same table are an
    /// [`ElsError::MalformedPredicate`] — use [`Predicate::col_eq`] when the
    /// classification isn't known.
    pub fn join_eq(a: ColumnRef, b: ColumnRef) -> ElsResult<Predicate> {
        match Predicate::col_eq(a, b)? {
            p @ Predicate::JoinEq { .. } => Ok(p),
            _ => Err(ElsError::MalformedPredicate(format!(
                "join equality `{a} = {b}` between two columns of the same table"
            ))),
        }
    }

    /// Build an inequality join predicate `a op b` between columns of two
    /// different tables, canonicalizing so the lower-numbered table is on
    /// the left (the operator flips with the operands).
    ///
    /// # Errors
    /// [`ElsError::MalformedPredicate`] when `op` is not a range operator or
    /// both columns are in the same table — same-table inequalities are not
    /// join predicates.
    pub fn join_range(a: ColumnRef, op: CmpOp, b: ColumnRef) -> ElsResult<Predicate> {
        if !op.is_range() || a.table == b.table {
            return Err(ElsError::MalformedPredicate(format!(
                "join range `{a} {op} {b}` needs a range operator between two tables"
            )));
        }
        Ok(if a.table < b.table {
            Predicate::JoinRange { left: a, op, right: b }
        } else {
            Predicate::JoinRange { left: b, op: op.flip(), right: a }
        })
    }

    /// Build `column IS NULL`.
    pub fn is_null(column: ColumnRef) -> Predicate {
        Predicate::IsNull { column, negated: false }
    }

    /// Build `column IS NOT NULL`.
    pub fn is_not_null(column: ColumnRef) -> Predicate {
        Predicate::IsNull { column, negated: true }
    }

    /// True for every predicate shape except cross-table join predicates
    /// (equalities and range predicates).
    pub fn is_local(&self) -> bool {
        !matches!(self, Predicate::JoinEq { .. } | Predicate::JoinRange { .. })
    }

    /// True for column-equality predicates (local or join) — the predicates
    /// that merge equivalence classes.
    pub fn is_column_equality(&self) -> bool {
        matches!(self, Predicate::LocalColEq { .. } | Predicate::JoinEq { .. })
    }

    /// The columns this predicate mentions (one or two).
    pub fn columns(&self) -> Vec<ColumnRef> {
        match self {
            Predicate::LocalCmp { column, .. } | Predicate::IsNull { column, .. } => vec![*column],
            Predicate::LocalColEq { left, right }
            | Predicate::JoinEq { left, right }
            | Predicate::JoinRange { left, right, .. } => {
                vec![*left, *right]
            }
        }
    }

    /// Validate the predicate against the shape of the statistics: all table
    /// and column indices must exist, and the variant must match the operand
    /// tables.
    pub fn validate(&self, num_columns_per_table: &[usize]) -> ElsResult<()> {
        let check = |c: ColumnRef| -> ElsResult<()> {
            let ncols =
                *num_columns_per_table.get(c.table).ok_or(ElsError::UnknownTable(c.table))?;
            if c.column >= ncols {
                return Err(ElsError::UnknownColumn(c));
            }
            Ok(())
        };
        match self {
            Predicate::LocalCmp { column, .. } | Predicate::IsNull { column, .. } => check(*column),
            Predicate::LocalColEq { left, right } => {
                check(*left)?;
                check(*right)?;
                if left.table != right.table {
                    return Err(ElsError::MalformedPredicate(format!(
                        "local column equality spans tables: {left} = {right}"
                    )));
                }
                Ok(())
            }
            Predicate::JoinEq { left, right } => {
                check(*left)?;
                check(*right)?;
                if left.table == right.table {
                    return Err(ElsError::MalformedPredicate(format!(
                        "join equality within one table: {left} = {right}"
                    )));
                }
                Ok(())
            }
            Predicate::JoinRange { left, op, right } => {
                check(*left)?;
                check(*right)?;
                if !op.is_range() {
                    return Err(ElsError::MalformedPredicate(format!(
                        "range join with a non-range operator: {left} {op} {right}"
                    )));
                }
                if left.table == right.table {
                    return Err(ElsError::MalformedPredicate(format!(
                        "range join within one table: {left} {op} {right}"
                    )));
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::LocalCmp { column, op, value } => write!(f, "{column} {op} {value}"),
            Predicate::LocalColEq { left, right } => write!(f, "{left} = {right}"),
            Predicate::JoinEq { left, right } => write!(f, "{left} = {right}"),
            Predicate::JoinRange { left, op, right } => write!(f, "{left} {op} {right}"),
            Predicate::IsNull { column, negated: false } => write!(f, "{column} IS NULL"),
            Predicate::IsNull { column, negated: true } => write!(f, "{column} IS NOT NULL"),
        }
    }
}

/// Step 1 deduplication: drop predicates identical to an earlier one,
/// preserving first-occurrence order. Equality is structural on the
/// *canonicalized* predicates, so `R1.x = R2.y` and `R2.y = R1.x` collapse.
pub fn dedup_predicates(predicates: &[Predicate]) -> Vec<Predicate> {
    let mut out: Vec<Predicate> = Vec::with_capacity(predicates.len());
    for p in predicates {
        if !out.contains(p) {
            out.push(p.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_flip_round_trips() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.flip().flip(), op);
        }
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
    }

    #[test]
    fn op_eval_matches_semantics() {
        assert!(CmpOp::Lt.eval(Ordering::Less));
        assert!(!CmpOp::Lt.eval(Ordering::Equal));
        assert!(CmpOp::Le.eval(Ordering::Equal));
        assert!(CmpOp::Ne.eval(Ordering::Greater));
        assert!(CmpOp::Ge.eval(Ordering::Equal));
        assert!(!CmpOp::Eq.eval(Ordering::Less));
    }

    #[test]
    fn col_eq_classifies_and_canonicalizes() {
        let same = Predicate::col_eq(ColumnRef::new(1, 3), ColumnRef::new(1, 0)).unwrap();
        assert_eq!(
            same,
            Predicate::LocalColEq { left: ColumnRef::new(1, 0), right: ColumnRef::new(1, 3) }
        );
        let cross = Predicate::col_eq(ColumnRef::new(2, 0), ColumnRef::new(0, 1)).unwrap();
        assert_eq!(
            cross,
            Predicate::JoinEq { left: ColumnRef::new(0, 1), right: ColumnRef::new(2, 0) }
        );
    }

    #[test]
    fn self_equality_is_malformed() {
        let c = ColumnRef::new(0, 0);
        assert!(
            matches!(Predicate::col_eq(c, c), Err(ElsError::MalformedPredicate(m)) if m.contains("tautology"))
        );
        let same_table = Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(0, 1));
        assert!(
            matches!(same_table, Err(ElsError::MalformedPredicate(m)) if m.contains("same table"))
        );
    }

    #[test]
    fn dedup_drops_structural_duplicates() {
        let a = Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Gt, 500i64);
        let b = Predicate::col_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap();
        let b_flipped = Predicate::col_eq(ColumnRef::new(1, 0), ColumnRef::new(0, 0)).unwrap();
        let out = dedup_predicates(&[a.clone(), b.clone(), a.clone(), b_flipped]);
        assert_eq!(out, vec![a, b]);
    }

    #[test]
    fn validate_catches_bad_indices_and_shapes() {
        let shape = vec![2usize, 1];
        assert!(Predicate::local_cmp(ColumnRef::new(0, 1), CmpOp::Eq, 1i64)
            .validate(&shape)
            .is_ok());
        assert_eq!(
            Predicate::local_cmp(ColumnRef::new(5, 0), CmpOp::Eq, 1i64)
                .validate(&shape)
                .unwrap_err(),
            ElsError::UnknownTable(5)
        );
        assert_eq!(
            Predicate::local_cmp(ColumnRef::new(1, 4), CmpOp::Eq, 1i64)
                .validate(&shape)
                .unwrap_err(),
            ElsError::UnknownColumn(ColumnRef::new(1, 4))
        );
        // A hand-built malformed variant is rejected.
        let bad = Predicate::JoinEq { left: ColumnRef::new(0, 0), right: ColumnRef::new(0, 1) };
        assert!(matches!(bad.validate(&shape), Err(ElsError::MalformedPredicate(_))));
        let bad = Predicate::LocalColEq { left: ColumnRef::new(0, 0), right: ColumnRef::new(1, 0) };
        assert!(matches!(bad.validate(&shape), Err(ElsError::MalformedPredicate(_))));
    }

    #[test]
    fn join_range_canonicalizes_by_flipping() {
        let forward =
            Predicate::join_range(ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(1, 0)).unwrap();
        assert_eq!(
            forward,
            Predicate::JoinRange {
                left: ColumnRef::new(0, 0),
                op: CmpOp::Lt,
                right: ColumnRef::new(1, 0)
            }
        );
        // `R1.c0 > R0.c0` is the same predicate written the other way round.
        let flipped =
            Predicate::join_range(ColumnRef::new(1, 0), CmpOp::Gt, ColumnRef::new(0, 0)).unwrap();
        assert_eq!(flipped, forward);
        let out = dedup_predicates(&[forward.clone(), flipped]);
        assert_eq!(out, vec![forward]);
    }

    #[test]
    fn join_range_rejects_equality_operator() {
        let p = Predicate::join_range(ColumnRef::new(0, 0), CmpOp::Eq, ColumnRef::new(1, 0));
        assert!(matches!(p, Err(ElsError::MalformedPredicate(m)) if m.contains("range operator")));
    }

    #[test]
    fn join_range_rejects_same_table() {
        let p = Predicate::join_range(ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(0, 1));
        assert!(matches!(p, Err(ElsError::MalformedPredicate(m)) if m.contains("two tables")));
    }

    #[test]
    fn join_range_validates_and_is_not_local() {
        let shape = vec![2usize, 1];
        let p =
            Predicate::join_range(ColumnRef::new(0, 1), CmpOp::Le, ColumnRef::new(1, 0)).unwrap();
        assert!(p.validate(&shape).is_ok());
        assert!(!p.is_local());
        assert!(!p.is_column_equality());
        assert_eq!(p.columns(), vec![ColumnRef::new(0, 1), ColumnRef::new(1, 0)]);
        let bad = Predicate::JoinRange {
            left: ColumnRef::new(0, 0),
            op: CmpOp::Eq,
            right: ColumnRef::new(1, 0),
        };
        assert!(matches!(bad.validate(&shape), Err(ElsError::MalformedPredicate(_))));
        let bad = Predicate::JoinRange {
            left: ColumnRef::new(0, 0),
            op: CmpOp::Lt,
            right: ColumnRef::new(0, 1),
        };
        assert!(matches!(bad.validate(&shape), Err(ElsError::MalformedPredicate(_))));
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Lt, 100i64);
        assert_eq!(p.to_string(), "R0.c0 < 100");
        let j = Predicate::col_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap();
        assert_eq!(j.to_string(), "R0.c0 = R1.c0");
        let r =
            Predicate::join_range(ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(1, 0)).unwrap();
        assert_eq!(r.to_string(), "R0.c0 < R1.c0");
    }
}
