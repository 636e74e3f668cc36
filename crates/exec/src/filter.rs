//! Local predicate evaluation during scans.
//!
//! Two evaluation strategies share the [`CompiledFilter`] representation:
//!
//! * the original tuple-at-a-time path ([`apply_filters`]), kept as the
//!   reference oracle, and
//! * whole-column kernels ([`filter_selection`]) that dispatch once per
//!   conjunct on (column type, constant type, operator) to a loop compiled
//!   for exactly that test, and produce a selection vector of surviving row
//!   ids block by block without branching on the data — no per-row
//!   [`Value`], closure call or `position_of` lookup.
//!
//! Both resolve column positions once per operator via [`bind_filters`]
//! (satellite of the vectorization PR: `Chunk::position_of` is an
//! O(columns) scan and used to run per row per predicate).

use std::cell::Cell;
use std::cmp::Ordering;

use els_core::predicate::{CmpOp, Predicate};
use els_core::ColumnRef;
use els_storage::column::ValueRef;
use els_storage::value::cmp_int_float;
use els_storage::{Table, Value};

use crate::chunk::Chunk;
use crate::error::{ExecError, ExecResult};
use crate::metrics::ExecMetrics;

/// A local predicate compiled against one scan: either `column op constant`
/// or `column = column` within the same table.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledFilter {
    /// `column op value`.
    Cmp {
        /// The restricted column.
        column: ColumnRef,
        /// Operator.
        op: CmpOp,
        /// Constant.
        value: Value,
    },
    /// `left = right` with both columns in the scanned table.
    ColEq {
        /// First column.
        left: ColumnRef,
        /// Second column.
        right: ColumnRef,
    },
    /// `column IS NULL` / `column IS NOT NULL`.
    IsNull {
        /// The tested column.
        column: ColumnRef,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl CompiledFilter {
    /// Compile a local [`Predicate`]; join predicates are rejected.
    pub fn from_predicate(p: &Predicate) -> ExecResult<CompiledFilter> {
        match p {
            Predicate::LocalCmp { column, op, value } => {
                Ok(CompiledFilter::Cmp { column: *column, op: *op, value: value.clone() })
            }
            Predicate::LocalColEq { left, right } => {
                Ok(CompiledFilter::ColEq { left: *left, right: *right })
            }
            Predicate::IsNull { column, negated } => {
                Ok(CompiledFilter::IsNull { column: *column, negated: *negated })
            }
            Predicate::JoinEq { .. } | Predicate::JoinRange { .. } => Err(ExecError::InvalidPlan(
                format!("join predicate `{p}` cannot run as a scan filter"),
            )),
        }
    }

    /// Evaluate against one row of a chunk (SQL semantics: NULL comparisons
    /// are false).
    pub fn matches(&self, chunk: &Chunk, row: usize) -> ExecResult<bool> {
        match self {
            CompiledFilter::Cmp { column, op, value } => {
                let pos = chunk.require(*column)?;
                let v = chunk.data.column(pos)?.get(row)?;
                Ok(v.sql_cmp(value).map(|ord| op.eval(ord)).unwrap_or(false))
            }
            CompiledFilter::ColEq { left, right } => {
                let lp = chunk.require(*left)?;
                let rp = chunk.require(*right)?;
                let lv = chunk.data.column(lp)?.get(row)?;
                let rv = chunk.data.column(rp)?.get(row)?;
                Ok(lv.sql_eq(&rv))
            }
            CompiledFilter::IsNull { column, negated } => {
                let pos = chunk.require(*column)?;
                let is_null = chunk.data.column(pos)?.get(row)?.is_null();
                Ok(is_null != *negated)
            }
        }
    }
}

/// A filter whose column references have been resolved to physical column
/// positions, once, at operator-bind time.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundFilter {
    /// `column op value` with the column position resolved.
    Cmp {
        /// Position of the restricted column.
        pos: usize,
        /// Operator.
        op: CmpOp,
        /// Constant.
        value: Value,
    },
    /// `left = right`, both positions resolved.
    ColEq {
        /// Position of the first column.
        left: usize,
        /// Position of the second column.
        right: usize,
    },
    /// `column IS [NOT] NULL`, position resolved.
    IsNull {
        /// Position of the tested column.
        pos: usize,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl BoundFilter {
    /// Evaluate against one row (SQL semantics: NULL comparisons are
    /// false). The tuple-at-a-time reference path.
    pub fn matches(&self, table: &Table, row: usize) -> ExecResult<bool> {
        match self {
            BoundFilter::Cmp { pos, op, value } => {
                let v = table.column(*pos)?.get(row)?;
                Ok(v.sql_cmp(value).map(|ord| op.eval(ord)).unwrap_or(false))
            }
            BoundFilter::ColEq { left, right } => {
                let lv = table.column(*left)?.value_ref(row)?;
                let rv = table.column(*right)?.value_ref(row)?;
                Ok(lv.sql_eq(rv))
            }
            BoundFilter::IsNull { pos, negated } => {
                let is_null = matches!(table.column(*pos)?.value_ref(row)?, ValueRef::Null);
                Ok(is_null != *negated)
            }
        }
    }
}

/// Resolve every filter's columns through `resolve`, collecting **all**
/// unresolvable references into one [`ExecError::ColumnsNotInSchema`].
pub fn bind_filters<F>(filters: &[CompiledFilter], mut resolve: F) -> ExecResult<Vec<BoundFilter>>
where
    F: FnMut(ColumnRef) -> Option<usize>,
{
    let mut bound = Vec::with_capacity(filters.len());
    let mut missing: Vec<ColumnRef> = Vec::new();
    for f in filters {
        let mut need = |c: ColumnRef| {
            resolve(c).unwrap_or_else(|| {
                if !missing.contains(&c) {
                    missing.push(c);
                }
                usize::MAX
            })
        };
        bound.push(match f {
            CompiledFilter::Cmp { column, op, value } => {
                BoundFilter::Cmp { pos: need(*column), op: *op, value: value.clone() }
            }
            CompiledFilter::ColEq { left, right } => {
                BoundFilter::ColEq { left: need(*left), right: need(*right) }
            }
            CompiledFilter::IsNull { column, negated } => {
                BoundFilter::IsNull { pos: need(*column), negated: *negated }
            }
        });
    }
    if missing.is_empty() {
        Ok(bound)
    } else {
        Err(ExecError::ColumnsNotInSchema(missing))
    }
}

/// [`bind_filters`] against a chunk's provenance.
pub fn bind_filters_to_chunk(
    filters: &[CompiledFilter],
    chunk: &Chunk,
) -> ExecResult<Vec<BoundFilter>> {
    bind_filters(filters, |c| chunk.position_of(c))
}

/// Apply a conjunction of filters to a chunk, counting comparisons.
pub fn apply_filters(
    chunk: &Chunk,
    filters: &[CompiledFilter],
    metrics: &mut ExecMetrics,
) -> ExecResult<Chunk> {
    if filters.is_empty() {
        return Ok(chunk.clone());
    }
    let bound = bind_filters_to_chunk(filters, chunk)?;
    let mut keep = Vec::new();
    for row in 0..chunk.num_rows() {
        let mut ok = true;
        for f in &bound {
            metrics.comparisons += 1;
            if !f.matches(&chunk.data, row)? {
                ok = false;
                break;
            }
        }
        if ok {
            keep.push(row);
        }
    }
    chunk.filter_rows(&keep)
}

/// Rows the first conjunct examines between two resizes of the selection.
const BLOCK_ROWS: usize = 1024;

/// One conjunct's turn at the selection vector: the first fills it, every
/// later one compacts it in place.
struct Pass<'a> {
    sel: &'a mut Vec<u32>,
    first: bool,
}

impl Pass<'_> {
    /// The one selection loop. `hit(row, payload, valid)` is a closure type,
    /// so every caller gets its own copy with the test inlined. The first
    /// conjunct grows `sel` by a block, stores each row id at the write
    /// cursor, advances the cursor only past a hit and cuts the unused tail
    /// off again: a store and an add per row, no branch on the data, and a
    /// big table's selection grows only as rows survive. A later conjunct
    /// reads ahead of its own write cursor, hence the `Cell` view.
    fn select<T>(&mut self, data: &[T], valid: &[bool], hit: impl Fn(usize, &T, bool) -> bool) {
        let sel = &mut *self.sel;
        if self.first {
            let mut row = 0;
            for (xs, oks) in data.chunks(BLOCK_ROWS).zip(valid.chunks(BLOCK_ROWS)) {
                let kept = sel.len();
                sel.resize(kept + xs.len(), 0);
                let out = sel.get_mut(kept..).unwrap_or_default();
                let mut k = 0;
                for (x, &ok) in xs.iter().zip(oks) {
                    if let Some(slot) = out.get_mut(k) {
                        *slot = crate::error::rowid(row);
                    }
                    k += usize::from(hit(row, x, ok));
                    row += 1;
                }
                sel.truncate(kept + k);
            }
        } else {
            let cells = Cell::from_mut(sel.as_mut_slice()).as_slice_of_cells();
            let mut k = 0;
            for cell in cells {
                let row = cell.get() as usize;
                if let Some(slot) = cells.get(k) {
                    slot.set(cell.get());
                }
                let x = data.get(row).zip(valid.get(row));
                k += usize::from(x.is_some_and(|(x, &ok)| hit(row, x, ok)));
            }
            sel.truncate(k);
        }
    }

    /// `column op constant` over non-NULL rows: the one place the operator
    /// is matched, per conjunct and outside the loop.
    fn cmp<T>(&mut self, data: &[T], valid: &[bool], op: CmpOp, ord: impl Fn(&T) -> Ordering) {
        match op {
            CmpOp::Eq => self.select(data, valid, |_, x, ok| ok & ord(x).is_eq()),
            CmpOp::Ne => self.select(data, valid, |_, x, ok| ok & ord(x).is_ne()),
            CmpOp::Lt => self.select(data, valid, |_, x, ok| ok & ord(x).is_lt()),
            CmpOp::Le => self.select(data, valid, |_, x, ok| ok & ord(x).is_le()),
            CmpOp::Gt => self.select(data, valid, |_, x, ok| ok & ord(x).is_gt()),
            CmpOp::Ge => self.select(data, valid, |_, x, ok| ok & ord(x).is_ge()),
        }
    }
}

/// Evaluate a conjunction of bound filters over whole columns, producing
/// the selection vector of surviving row ids (ascending) in `sel`. The
/// first conjunct fills `sel`; every later conjunct compacts it in place
/// (counted by [`ExecMetrics::sel_reuses`]), so one scan allocates at most
/// one selection vector regardless of the number of predicates. Each
/// conjunct dispatches once, on its shape and column types, to a
/// statically-dispatched [`Pass::select`] loop.
///
/// Charges exactly the comparisons the tuple-at-a-time path would: a row
/// is a candidate for conjunct `k` iff it survived conjuncts `1..k`, which
/// is precisely the set of filters the short-circuiting row loop evaluates.
pub fn filter_selection(
    table: &Table,
    bound: &[BoundFilter],
    sel: &mut Vec<u32>,
    metrics: &mut ExecMetrics,
) -> ExecResult<()> {
    sel.clear();
    let n = table.num_rows();
    // Beyond u32::MAX rows the `as u32` casts below would silently alias
    // row ids in release builds; refuse with a typed error instead.
    crate::error::check_rowid_range(n)?;
    if bound.is_empty() {
        sel.extend((0..n).map(crate::error::rowid));
        return Ok(());
    }
    for (k, f) in bound.iter().enumerate() {
        let candidates = if k == 0 { n } else { sel.len() };
        metrics.comparisons += candidates as u64;
        metrics.kernel_rows += candidates as u64;
        metrics.sel_reuses += u64::from(k > 0);
        let mut pass = Pass { sel: &mut *sel, first: k == 0 };
        match f {
            BoundFilter::Cmp { pos, op, value } => {
                let col = table.column(*pos)?;
                let ok = col.validity();
                match (col.as_int_slice(), col.as_float_slice(), col.as_str_slice(), value) {
                    (Some(d), _, _, Value::Int(c)) => pass.cmp(d, ok, *op, |x| x.cmp(c)),
                    (Some(d), _, _, Value::Float(c)) => {
                        pass.cmp(d, ok, *op, |x| cmp_int_float(*x, *c));
                    }
                    (_, Some(d), _, Value::Int(c)) => {
                        pass.cmp(d, ok, *op, |x| cmp_int_float(*c, *x).reverse());
                    }
                    (_, Some(d), _, Value::Float(c)) => pass.cmp(d, ok, *op, |x| x.total_cmp(c)),
                    (_, _, Some(d), Value::Str(c)) => pass.cmp(d, ok, *op, |x| x.as_str().cmp(c)),
                    // NULL constant or incomparable types: SQL comparison
                    // is unknown / false for every row.
                    _ => pass.select(ok, ok, |_, _, _| false),
                }
            }
            BoundFilter::ColEq { left, right } => {
                let (lc, rc) = (table.column(*left)?, table.column(*right)?);
                let (lv, rv) = (lc.validity(), rc.validity());
                match (lc.as_int_slice(), rc.as_int_slice()) {
                    (Some(a), Some(b)) => pass.select(a, lv, |row, x, ok| {
                        ok & matches!((b.get(row), rv.get(row)), (Some(y), Some(true)) if x == y)
                    }),
                    _ => {
                        let eq = (0..lc.len())
                            .map(|row| Ok(lc.value_ref(row)?.sql_eq(rc.value_ref(row)?)))
                            .collect::<ExecResult<Vec<bool>>>()?;
                        pass.select(&eq, lv, |_, &eq, _| eq);
                    }
                }
            }
            BoundFilter::IsNull { pos, negated } => {
                let ok = table.column(*pos)?.validity();
                pass.select(ok, ok, |_, _, ok| ok == *negated);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::{DataType, Table};

    fn chunk() -> Chunk {
        let mut t = Table::empty("t", &[("a", DataType::Int), ("b", DataType::Int)]);
        for (a, b) in [(1, 1), (2, 5), (3, 3), (4, 0)] {
            t.push_row(vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        Chunk::from_base_table(0, t)
    }

    fn c(col: usize) -> ColumnRef {
        ColumnRef::new(0, col)
    }

    #[test]
    fn cmp_filter_selects() {
        let ch = chunk();
        let f = CompiledFilter::Cmp { column: c(0), op: CmpOp::Ge, value: Value::Int(3) };
        let mut m = ExecMetrics::default();
        let out = apply_filters(&ch, &[f], &mut m).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(m.comparisons, 4);
    }

    #[test]
    fn col_eq_filter_selects_agreeing_rows() {
        let ch = chunk();
        let f = CompiledFilter::ColEq { left: c(0), right: c(1) };
        let mut m = ExecMetrics::default();
        let out = apply_filters(&ch, &[f], &mut m).unwrap();
        assert_eq!(out.num_rows(), 2); // (1,1) and (3,3)
    }

    #[test]
    fn conjunction_short_circuits() {
        let ch = chunk();
        let f1 = CompiledFilter::Cmp { column: c(0), op: CmpOp::Gt, value: Value::Int(100) };
        let f2 = CompiledFilter::Cmp { column: c(1), op: CmpOp::Gt, value: Value::Int(0) };
        let mut m = ExecMetrics::default();
        let out = apply_filters(&ch, &[f1, f2], &mut m).unwrap();
        assert_eq!(out.num_rows(), 0);
        // First filter fails every row; second never evaluated.
        assert_eq!(m.comparisons, 4);
    }

    #[test]
    fn null_comparisons_are_false() {
        let mut t = Table::empty("t", &[("a", DataType::Int)]);
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Int(1)]).unwrap();
        let ch = Chunk::from_base_table(0, t);
        let f = CompiledFilter::Cmp { column: c(0), op: CmpOp::Ne, value: Value::Int(5) };
        let mut m = ExecMetrics::default();
        let out = apply_filters(&ch, &[f], &mut m).unwrap();
        // NULL <> 5 is unknown -> filtered out; 1 <> 5 is true.
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn join_predicates_rejected() {
        let p = Predicate::col_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap();
        assert!(CompiledFilter::from_predicate(&p).is_err());
        let p = Predicate::col_eq(ColumnRef::new(0, 0), ColumnRef::new(0, 1)).unwrap();
        assert!(CompiledFilter::from_predicate(&p).is_ok());
    }

    #[test]
    fn empty_filter_list_is_identity() {
        let ch = chunk();
        let mut m = ExecMetrics::default();
        let out = apply_filters(&ch, &[], &mut m).unwrap();
        assert_eq!(out.num_rows(), ch.num_rows());
        assert_eq!(m.comparisons, 0);
    }

    #[test]
    fn is_null_filter_selects_null_rows() {
        let mut t = Table::empty("t", &[("a", DataType::Int)]);
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Int(1)]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let ch = Chunk::from_base_table(0, t);
        let mut m = ExecMetrics::default();
        let nulls =
            apply_filters(&ch, &[CompiledFilter::IsNull { column: c(0), negated: false }], &mut m)
                .unwrap();
        assert_eq!(nulls.num_rows(), 2);
        let non_nulls =
            apply_filters(&ch, &[CompiledFilter::IsNull { column: c(0), negated: true }], &mut m)
                .unwrap();
        assert_eq!(non_nulls.num_rows(), 1);
    }

    #[test]
    fn is_null_predicate_compiles() {
        let p = Predicate::is_not_null(ColumnRef::new(0, 0));
        assert_eq!(
            CompiledFilter::from_predicate(&p).unwrap(),
            CompiledFilter::IsNull { column: ColumnRef::new(0, 0), negated: true }
        );
    }

    #[test]
    fn string_filters_work() {
        let mut t = Table::empty("t", &[("s", DataType::Str)]);
        for s in ["apple", "banana", "cherry"] {
            t.push_row(vec![Value::from(s)]).unwrap();
        }
        let ch = Chunk::from_base_table(0, t);
        let f = CompiledFilter::Cmp { column: c(0), op: CmpOp::Eq, value: Value::from("banana") };
        let mut m = ExecMetrics::default();
        let out = apply_filters(&ch, &[f], &mut m).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn binding_reports_every_missing_column() {
        let ch = chunk();
        let filters = vec![
            CompiledFilter::Cmp {
                column: ColumnRef::new(7, 0),
                op: CmpOp::Eq,
                value: Value::Int(1),
            },
            CompiledFilter::ColEq { left: c(0), right: ColumnRef::new(8, 2) },
        ];
        let err = bind_filters_to_chunk(&filters, &ch).unwrap_err();
        match err {
            ExecError::ColumnsNotInSchema(missing) => {
                assert_eq!(missing, vec![ColumnRef::new(7, 0), ColumnRef::new(8, 2)]);
            }
            other => panic!("expected ColumnsNotInSchema, got {other:?}"),
        }
    }

    /// The kernels and the row-at-a-time loop must select identical rows
    /// and charge identical comparison counts.
    fn assert_kernel_parity(ch: &Chunk, filters: &[CompiledFilter]) {
        let mut row_m = ExecMetrics::default();
        let row_out = apply_filters(ch, filters, &mut row_m).unwrap();
        let bound = bind_filters_to_chunk(filters, ch).unwrap();
        let mut vec_m = ExecMetrics::default();
        let mut sel = Vec::new();
        filter_selection(&ch.data, &bound, &mut sel, &mut vec_m).unwrap();
        let keep: Vec<usize> = sel.iter().map(|&i| i as usize).collect();
        let vec_out = ch.filter_rows(&keep).unwrap();
        assert_eq!(vec_out.num_rows(), row_out.num_rows());
        for r in 0..row_out.num_rows() {
            assert_eq!(vec_out.data.row(r).unwrap(), row_out.data.row(r).unwrap(), "row {r}");
        }
        assert_eq!(vec_m.comparisons, row_m.comparisons, "comparison parity");
    }

    #[test]
    fn kernels_match_row_path_on_every_filter_shape() {
        let ch = chunk();
        let shapes: Vec<Vec<CompiledFilter>> = vec![
            vec![CompiledFilter::Cmp { column: c(0), op: CmpOp::Ge, value: Value::Int(3) }],
            vec![CompiledFilter::Cmp { column: c(1), op: CmpOp::Lt, value: Value::Float(3.5) }],
            vec![CompiledFilter::ColEq { left: c(0), right: c(1) }],
            vec![CompiledFilter::IsNull { column: c(0), negated: true }],
            // Conjunction exercises short-circuit/compaction parity.
            vec![
                CompiledFilter::Cmp { column: c(0), op: CmpOp::Gt, value: Value::Int(1) },
                CompiledFilter::Cmp { column: c(1), op: CmpOp::Le, value: Value::Int(3) },
            ],
            // NULL constant: nothing matches, everything still counted.
            vec![CompiledFilter::Cmp { column: c(0), op: CmpOp::Eq, value: Value::Null }],
            // Incomparable types: Int column vs Str constant.
            vec![CompiledFilter::Cmp { column: c(0), op: CmpOp::Eq, value: Value::from("x") }],
        ];
        for filters in &shapes {
            assert_kernel_parity(&ch, filters);
        }
    }

    #[test]
    fn kernels_match_row_path_with_nulls_and_floats() {
        let mut t = Table::empty("t", &[("f", DataType::Float), ("s", DataType::Str)]);
        t.push_row(vec![Value::Float(1.5), Value::from("a")]).unwrap();
        t.push_row(vec![Value::Null, Value::from("b")]).unwrap();
        t.push_row(vec![Value::Float(-2.0), Value::Null]).unwrap();
        t.push_row(vec![Value::Float(2.0), Value::from("c")]).unwrap();
        let ch = Chunk::from_base_table(0, t);
        let shapes: Vec<Vec<CompiledFilter>> = vec![
            vec![CompiledFilter::Cmp { column: c(0), op: CmpOp::Gt, value: Value::Int(0) }],
            vec![CompiledFilter::Cmp { column: c(0), op: CmpOp::Ne, value: Value::Float(2.0) }],
            vec![CompiledFilter::Cmp { column: c(1), op: CmpOp::Ge, value: Value::from("b") }],
            vec![CompiledFilter::IsNull { column: c(1), negated: false }],
            vec![
                CompiledFilter::IsNull { column: c(0), negated: true },
                CompiledFilter::Cmp { column: c(1), op: CmpOp::Lt, value: Value::from("z") },
            ],
        ];
        for filters in &shapes {
            assert_kernel_parity(&ch, filters);
        }
    }

    #[test]
    fn selection_vector_is_reused_across_conjuncts() {
        let ch = chunk();
        let filters = vec![
            CompiledFilter::Cmp { column: c(0), op: CmpOp::Gt, value: Value::Int(1) },
            CompiledFilter::Cmp { column: c(1), op: CmpOp::Gt, value: Value::Int(0) },
            CompiledFilter::Cmp { column: c(0), op: CmpOp::Lt, value: Value::Int(4) },
        ];
        let bound = bind_filters_to_chunk(&filters, &ch).unwrap();
        let mut m = ExecMetrics::default();
        let mut sel = Vec::new();
        filter_selection(&ch.data, &bound, &mut sel, &mut m).unwrap();
        assert_eq!(m.sel_reuses, 2);
        assert_eq!(m.kernel_rows, m.comparisons);
        assert_eq!(sel, vec![1, 2]); // rows (2,5) and (3,3)
    }

    #[test]
    fn empty_bound_filter_list_selects_everything() {
        let ch = chunk();
        let mut m = ExecMetrics::default();
        let mut sel = vec![9, 9]; // stale contents must be cleared
        filter_selection(&ch.data, &[], &mut sel, &mut m).unwrap();
        assert_eq!(sel, vec![0, 1, 2, 3]);
        assert_eq!(m.comparisons, 0);
    }

    /// Column 0 and 1 are `Int`, 2 is `Float`, 3 is `Str`; cell `i` of a
    /// column is drawn from its pool by `picks[i]`, pool index 0 being NULL.
    fn pooled_table(rows: usize, picks: &[Vec<u8>]) -> Table {
        let two53 = 9_007_199_254_740_992i64;
        let ints = [i64::MIN, -1, 0, 1, 2, two53, two53 + 1, i64::MAX].map(Value::Int);
        let floats =
            [f64::NEG_INFINITY, -0.0, 0.0, 0.5, 1.0, 2.0, two53 as f64, f64::INFINITY, f64::NAN]
                .map(Value::Float);
        let strs = ["", "a", "b", "c"].map(Value::from);
        let pools: [(DataType, &[Value]); 4] = [
            (DataType::Int, &ints),
            (DataType::Int, &ints),
            (DataType::Float, &floats),
            (DataType::Str, &strs),
        ];
        let columns = pools
            .iter()
            .zip(picks)
            .enumerate()
            .map(|(c, ((ty, pool), picks))| {
                let mut col = els_storage::ColumnVector::with_capacity(*ty, rows);
                for pick in picks.iter().take(rows) {
                    let pick = *pick as usize % (pool.len() + 1);
                    col.push(pick.checked_sub(1).map_or(Value::Null, |i| pool[i].clone())).unwrap();
                }
                (format!("c{c}"), col)
            })
            .collect();
        Table::new("t", columns).unwrap()
    }

    /// Constants of every type, comparable or not with a given column.
    fn constants() -> Vec<Value> {
        let two53 = 9_007_199_254_740_992i64;
        let mut pool = vec![Value::Null, Value::from(""), Value::from("b")];
        pool.extend([i64::MIN, -1, 0, 1, two53, two53 + 1, i64::MAX].map(Value::Int));
        pool.extend(
            [f64::NEG_INFINITY, -0.0, 0.5, 1.0, two53 as f64, 1e19, f64::INFINITY, f64::NAN]
                .map(Value::Float),
        );
        pool
    }

    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// `filter_selection` against the short-circuiting row loop over
    /// [`BoundFilter::matches`]: same ascending ids, same counters.
    fn check_against_row_oracle(table: &Table, bound: &[BoundFilter]) -> Result<(), String> {
        let mut want = Vec::new();
        let mut comparisons = 0u64;
        for row in 0..table.num_rows() {
            let mut keep = true;
            for f in bound {
                comparisons += 1;
                keep = f.matches(table, row).unwrap();
                if !keep {
                    break;
                }
            }
            if keep {
                want.push(row as u32);
            }
        }
        let mut m = ExecMetrics::default();
        let mut sel = vec![u32::MAX; 3]; // stale contents must not survive
        filter_selection(table, bound, &mut sel, &mut m).unwrap();
        let got = (&sel, m.comparisons, m.kernel_rows, m.sel_reuses);
        let want = (&want, comparisons, comparisons, bound.len() as u64 - 1);
        if got == want {
            return Ok(());
        }
        Err(format!(
            "{bound:?} over {} rows: {} ids, counters {:?}; oracle {} ids, counters {:?}",
            table.num_rows(),
            got.0.len(),
            (got.1, got.2, got.3),
            want.0.len(),
            (want.1, want.2, want.3)
        ))
    }

    #[test]
    fn every_column_constant_operator_triple_matches_the_row_oracle() {
        let rows = BLOCK_ROWS + 1;
        let picks: Vec<Vec<u8>> =
            (0..4u8).map(|c| (0..rows).map(|i| (i * 7 + i / 11) as u8 ^ c).collect()).collect();
        let table = pooled_table(rows, &picks);
        for pos in 0..4 {
            for value in constants() {
                for op in OPS {
                    let f = BoundFilter::Cmp { pos, op, value: value.clone() };
                    check_against_row_oracle(&table, &[f]).unwrap();
                }
            }
        }
    }

    const SIZES: [usize; 6] =
        [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn random_conjunctions_match_the_row_oracle(
            size in 0usize..SIZES.len(),
            picks in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 3 * BLOCK_ROWS + 7),
                4,
            ),
            conjuncts in proptest::collection::vec(
                (0usize..9, 0usize..4, 0usize..4, 0usize..6, 0usize..64),
                1..4,
            ),
        ) {
            let table = pooled_table(SIZES[size], &picks);
            let constants = constants();
            let bound: Vec<BoundFilter> = conjuncts
                .into_iter()
                .map(|(shape, pos, other, op, value)| match shape {
                    0 | 1 => BoundFilter::IsNull { pos, negated: shape == 1 },
                    2 => BoundFilter::ColEq { left: pos, right: other },
                    _ => BoundFilter::Cmp {
                        pos,
                        op: OPS[op],
                        value: constants[value % constants.len()].clone(),
                    },
                })
                .collect();
            if let Err(why) = check_against_row_oracle(&table, &bound) {
                return Err(proptest::TestCaseError::fail(why));
            }
        }
    }
}
