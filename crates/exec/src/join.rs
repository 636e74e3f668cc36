//! Join algorithms: nested loops, sort-merge, and hash.
//!
//! The paper's Section 8 plans used Nested Loops and Sort Merge; hash join
//! is provided for the extended plan-quality experiments. All three are
//! equi-joins on one or more key pairs, with SQL NULL semantics (NULL keys
//! never match). Each algorithm produces the same result set — a property
//! test checks all three against a brute-force cartesian evaluator.

use std::collections::HashMap;

use els_core::predicate::CmpOp;
use els_core::ColumnRef;
use els_storage::column::ValueRef;
use els_storage::Value;

use crate::chunk::Chunk;
use crate::error::{ExecError, ExecResult};
use crate::metrics::ExecMetrics;

/// Resolve key columns: `keys` are `(left column, right column)` pairs in
/// query coordinates; returns their positions in the two chunks.
pub(crate) fn key_positions(
    left: &Chunk,
    right: &Chunk,
    keys: &[(ColumnRef, ColumnRef)],
) -> ExecResult<Vec<(usize, usize)>> {
    keys.iter()
        .map(|&(l, r)| {
            let lp = left.position_of(l).ok_or(ExecError::ColumnNotInSchema(l))?;
            let rp = right.position_of(r).ok_or(ExecError::ColumnNotInSchema(r))?;
            Ok((lp, rp))
        })
        .collect()
}

/// Extract one row's key values; `None` when any component is NULL.
pub(crate) fn key_values(
    chunk: &Chunk,
    positions: &[usize],
    row: usize,
) -> ExecResult<Option<Vec<Value>>> {
    let mut vals = Vec::with_capacity(positions.len());
    for &p in positions {
        let v = chunk.data.column(p)?.get(row)?;
        if v.is_null() {
            return Ok(None);
        }
        vals.push(v);
    }
    Ok(Some(vals))
}

/// A hashable normalization of a key value.
///
/// Integers hash **exactly** as `i64` — the earlier encoding collapsed
/// `Int` to its `f64` image, which collides distinct integers beyond 2⁵³
/// (e.g. `i64::MAX` and `i64::MAX - 1`). To keep `Int(2)` and `Float(2.0)`
/// in the same bucket (they are equal under [`Value::sql_eq`]), a float
/// whose value is *bit-exactly* the image of some `i64` normalizes to that
/// integer; every other float keeps its own bit pattern. `-0.0` stays a
/// float: `sql_eq` compares floats with `total_cmp`, under which `-0.0`
/// equals neither `0.0` nor `Int(0)`.
///
/// Mixed-type equality beyond 2⁵³ inherits `sql_eq`'s non-transitivity
/// (`Float(2⁵³)` matches only the one `i64` it is the exact image of),
/// which is also how the sort-merge comparator behaves — Int/Int exactness
/// is the property that matters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum HashKey {
    Int(i64),
    Float(u64),
    Str(String),
}

pub(crate) fn hash_key(v: &Value) -> Option<HashKey> {
    match v {
        Value::Null => None,
        Value::Int(x) => Some(HashKey::Int(*x)),
        Value::Float(x) => Some(normalize_float_key(*x)),
        Value::Str(s) => Some(HashKey::Str(s.clone())),
    }
}

/// Lexicographic total order on composite keys (shared by the row-path and
/// vectorized sort-merge implementations, which must sort identically).
pub(crate) fn cmp_key_slices(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_cmp(y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Comparisons charged for sorting `n` keys: `n log₂ n`. The real sort
/// performs them; counting inside the comparator would double-count with
/// the merge phase.
#[expect(
    clippy::cast_possible_truncation,
    reason = "n log2 n of a row count is far below u64::MAX, and a float-to-int cast saturates"
)]
pub(crate) fn sort_charge(n: usize) -> u64 {
    if n > 1 {
        (n as f64 * (n as f64).log2()) as u64
    } else {
        0
    }
}

/// Map a float to the integer key it would `sql_eq`, when one exists.
fn normalize_float_key(x: f64) -> HashKey {
    // `x as i64` saturates; the round-trip check rejects saturated values,
    // NaN/inf (fract fails), fractional floats, and -0.0 (sign bit differs
    // from `0_i64 as f64`).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the round-trip check below rejects every value the cast changed"
    )]
    let candidate = x as i64;
    if (candidate as f64).to_bits() == x.to_bits() {
        HashKey::Int(candidate)
    } else {
        HashKey::Float(x.to_bits())
    }
}

/// Nested-loops join: for every outer (left) tuple, rescan the inner
/// (right) side. The simulated cost model charges the inner table's pages
/// once per outer tuple — the rescan cost that makes this method disastrous
/// with a large unfiltered inner, which is precisely what a misled optimizer
/// picks in the paper's experiment.
pub fn nested_loop_join(
    left: &Chunk,
    right: &Chunk,
    keys: &[(ColumnRef, ColumnRef)],
    metrics: &mut ExecMetrics,
) -> ExecResult<Chunk> {
    let pos = key_positions(left, right, keys)?;
    let lpos: Vec<usize> = pos.iter().map(|p| p.0).collect();
    let mut rows: Vec<(usize, usize)> = Vec::new();
    let inner_pages = right.data.num_pages() as u64;
    for l in 0..left.num_rows() {
        metrics.pages_read += inner_pages;
        let lkey = key_values(left, &lpos, l)?;
        for r in 0..right.num_rows() {
            metrics.comparisons += pos.len().max(1) as u64;
            let matched = match &lkey {
                None => false,
                Some(lvals) => {
                    let mut ok = true;
                    for (&(_, rp), lv) in pos.iter().zip(lvals) {
                        let rv = right.data.column(rp)?.get(r)?;
                        if !lv.sql_eq(&rv) {
                            ok = false;
                            break;
                        }
                    }
                    // No keys: cartesian product.
                    ok
                }
            };
            // A keyless nested loop is a cartesian product; `lkey` is
            // Some(vec![]) then, so `matched` is true above.
            if matched {
                rows.push((l, r));
            }
        }
    }
    metrics.tuples_emitted += rows.len() as u64;
    Chunk::join_rows(left, right, &rows)
}

/// Nested loops with a *base-table inner*: the inner relation is rescanned
/// from storage for every outer tuple, applying its local filters during
/// each rescan — System R's nested-loops access pattern when no index
/// exists, and the cost structure of the paper's Starburst experiment
/// (an unfiltered giant inner is charged its full page count per outer
/// tuple). Produces exactly the same rows as filtering the inner once and
/// calling [`nested_loop_join`] — which is how the vectorized path evaluates
/// it, charging what this operator charges: the reference it is tested
/// against, like every row operator in this module.
pub fn nested_loop_rescan_join(
    left: &Chunk,
    inner_table_id: usize,
    inner: &els_storage::Table,
    inner_filters: &[crate::filter::CompiledFilter],
    keys: &[(ColumnRef, ColumnRef)],
    metrics: &mut ExecMetrics,
    io: &mut crate::buffer::PageIo,
) -> ExecResult<Chunk> {
    // Build a one-row-free view of the inner for provenance-aware filter
    // evaluation. The chunk borrows nothing, so clone the table once; the
    // rescan below iterates row indices, not cloned data.
    let inner_chunk = Chunk::from_base_table(inner_table_id, inner.clone());
    let pos = key_positions(left, &inner_chunk, keys)?;
    let lpos: Vec<usize> = pos.iter().map(|p| p.0).collect();
    // Resolve filter columns once for the whole rescan loop, not per row.
    let bound_filters = crate::filter::bind_filters_to_chunk(inner_filters, &inner_chunk)?;
    let inner_pages = inner.num_pages() as u64;
    let mut rows: Vec<(usize, usize)> = Vec::new();
    for l in 0..left.num_rows() {
        // One full rescan of the stored inner per outer tuple (the buffer
        // pool, when present, decides how much of it is physical).
        io.scan_table(inner_table_id, inner_pages, metrics);
        metrics.tuples_scanned += inner.num_rows() as u64;
        let lkey = key_values(left, &lpos, l)?;
        'inner: for r in 0..inner.num_rows() {
            // Local filters are evaluated during the rescan.
            for f in &bound_filters {
                metrics.comparisons += 1;
                if !f.matches(&inner_chunk.data, r)? {
                    continue 'inner;
                }
            }
            metrics.comparisons += pos.len().max(1) as u64;
            let matched = match &lkey {
                None => false,
                Some(lvals) => {
                    let mut ok = true;
                    for (&(_, rp), lv) in pos.iter().zip(lvals) {
                        let rv = inner_chunk.data.column(rp)?.get(r)?;
                        if !lv.sql_eq(&rv) {
                            ok = false;
                            break;
                        }
                    }
                    ok
                }
            };
            if matched {
                rows.push((l, r));
            }
        }
    }
    metrics.tuples_emitted += rows.len() as u64;
    Chunk::join_rows(left, &inner_chunk, &rows)
}

/// Sort-merge join: sort both inputs on their key columns, then merge,
/// emitting the cross product of each pair of equal-key runs.
pub fn sort_merge_join(
    left: &Chunk,
    right: &Chunk,
    keys: &[(ColumnRef, ColumnRef)],
    metrics: &mut ExecMetrics,
) -> ExecResult<Chunk> {
    if keys.is_empty() {
        // Degenerate to a nested-loops cartesian product.
        return nested_loop_join(left, right, keys, metrics);
    }
    let pos = key_positions(left, right, keys)?;
    let lpos: Vec<usize> = pos.iter().map(|p| p.0).collect();
    let rpos: Vec<usize> = pos.iter().map(|p| p.1).collect();

    // Materialize non-NULL keys with their row ids, then sort.
    let mut lrows: Vec<(Vec<Value>, usize)> = Vec::with_capacity(left.num_rows());
    for row in 0..left.num_rows() {
        if let Some(k) = key_values(left, &lpos, row)? {
            lrows.push((k, row));
        }
    }
    let mut rrows: Vec<(Vec<Value>, usize)> = Vec::with_capacity(right.num_rows());
    for row in 0..right.num_rows() {
        if let Some(k) = key_values(right, &rpos, row)? {
            rrows.push((k, row));
        }
    }
    metrics.rows_sorted += (lrows.len() + rrows.len()) as u64;
    let cmp_keys = cmp_key_slices;
    lrows.sort_by(|a, b| cmp_keys(&a.0, &b.0));
    rrows.sort_by(|a, b| cmp_keys(&a.0, &b.0));
    metrics.comparisons += sort_charge(lrows.len()) + sort_charge(rrows.len());

    // Merge the equal-key runs (`chunk_by` yields no empty run), charging
    // one comparison per row a side skips and one per matched pair of runs.
    let same_key = |a: &(Vec<Value>, usize), b: &(Vec<Value>, usize)| cmp_keys(&a.0, &b.0).is_eq();
    let (mut lruns, mut rruns) =
        (lrows.chunk_by(same_key).peekable(), rrows.chunk_by(same_key).peekable());
    let mut rows: Vec<(usize, usize)> = Vec::new();
    while let (Some(lrun @ [(lkey, _), ..]), Some(rrun @ [(rkey, _), ..])) =
        (lruns.peek().copied(), rruns.peek().copied())
    {
        match cmp_keys(lkey, rkey) {
            std::cmp::Ordering::Less => {
                metrics.comparisons += lrun.len() as u64;
                lruns.next();
            }
            std::cmp::Ordering::Greater => {
                metrics.comparisons += rrun.len() as u64;
                rruns.next();
            }
            std::cmp::Ordering::Equal => {
                metrics.comparisons += 1;
                for lrow in lrun {
                    for rrow in rrun {
                        rows.push((lrow.1, rrow.1));
                    }
                }
                lruns.next();
                rruns.next();
            }
        }
    }
    metrics.tuples_emitted += rows.len() as u64;
    Chunk::join_rows(left, right, &rows)
}

/// Hash join: build a table on the left input, probe with the right.
pub fn hash_join(
    left: &Chunk,
    right: &Chunk,
    keys: &[(ColumnRef, ColumnRef)],
    metrics: &mut ExecMetrics,
) -> ExecResult<Chunk> {
    if keys.is_empty() {
        return nested_loop_join(left, right, keys, metrics);
    }
    let pos = key_positions(left, right, keys)?;
    let lpos: Vec<usize> = pos.iter().map(|p| p.0).collect();
    let rpos: Vec<usize> = pos.iter().map(|p| p.1).collect();

    let mut table: HashMap<Vec<HashKey>, Vec<usize>> = HashMap::new();
    for row in 0..left.num_rows() {
        if let Some(vals) = key_values(left, &lpos, row)? {
            let key: Option<Vec<HashKey>> = vals.iter().map(hash_key).collect();
            if let Some(key) = key {
                table.entry(key).or_default().push(row);
            }
        }
    }
    let mut rows: Vec<(usize, usize)> = Vec::new();
    for row in 0..right.num_rows() {
        metrics.hash_probes += 1;
        if let Some(vals) = key_values(right, &rpos, row)? {
            let key: Option<Vec<HashKey>> = vals.iter().map(hash_key).collect();
            if let Some(key) = key {
                if let Some(ls) = table.get(&key) {
                    for &l in ls {
                        rows.push((l, row));
                    }
                }
            }
        }
    }
    // Keep output ordering deterministic (left-major) to match the other
    // algorithms' natural order in tests.
    rows.sort_unstable();
    metrics.tuples_emitted += rows.len() as u64;
    Chunk::join_rows(left, right, &rows)
}

/// SQL truth of `lv op rv` for one candidate join pair: NULL on either
/// side never matches; non-NULL values compare under [`Value::total_cmp`],
/// which agrees with SQL comparison on same-typed operands and keeps
/// `Int`/`Float` cross-type comparisons consistent with the filter layer.
pub(crate) fn range_pair_matches(lv: &Value, rv: &Value, op: CmpOp) -> bool {
    !lv.is_null() && !rv.is_null() && op.eval(lv.total_cmp(rv))
}

/// [`range_pair_matches`] over borrowed cells, for the vectorized operators:
/// the same truth for every pair of cells, without a `Value` (and so without
/// a string clone) per operand.
pub(crate) fn range_ref_matches(lv: ValueRef<'_>, rv: ValueRef<'_>, op: CmpOp) -> bool {
    use std::cmp::Ordering;
    let ord = match (lv, rv) {
        (ValueRef::Null, _) | (_, ValueRef::Null) => return false,
        (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
        // `Value::total_cmp` ranks every string above every number.
        (ValueRef::Str(_), _) => Ordering::Greater,
        (_, ValueRef::Str(_)) => Ordering::Less,
        // Two numbers: `to_value` copies eight bytes.
        (a, b) => a.to_value().total_cmp(&b.to_value()),
    };
    op.eval(ord)
}

/// Comparisons charged per outer row for the band probe's binary search
/// over `n` sorted inner keys: `ceil(log₂ n) + 1`. A fixed function of the
/// input size (not of the data), so the row and vectorized operators — and
/// the serial and morsel-parallel schedules — charge identically.
pub(crate) fn probe_charge(n: usize) -> u64 {
    let n = n.max(1);
    let ceil_log2 = if n.is_power_of_two() { n.ilog2() } else { n.ilog2() + 1 };
    u64::from(ceil_log2) + 1
}

/// The band probe shared by the row and vectorized range-join operators:
/// both inputs are non-NULL `(key, logical row)` entries sorted ascending
/// by key; every left entry binary-searches the right side for its band
/// boundary and emits each `(left row, right row)` pair with
/// `left key op right key`; `=` and `<>` are an [`ExecError::InvalidPlan`].
/// Pure — the caller charges `len(left) · probe_charge(len(right))`
/// comparisons and sorts the result.
pub(crate) fn band_probe(
    lrows: &[(Value, u32)],
    rrows: &[(Value, u32)],
    op: CmpOp,
) -> ExecResult<Vec<(u32, u32)>> {
    // Matches lie above the boundary (`Lt`, `Le`) or below it (`Gt`, `Ge`);
    // right keys equal to the left key sort below it for `Lt` and `Ge`.
    let (above, equal_below) = match op {
        CmpOp::Lt => (true, true),
        CmpOp::Le => (true, false),
        CmpOp::Gt => (false, false),
        CmpOp::Ge => (false, true),
        CmpOp::Eq | CmpOp::Ne => {
            return Err(ExecError::InvalidPlan(format!("`{op}` cannot drive a range join")))
        }
    };
    let mut pairs = Vec::new();
    for (lv, lj) in lrows {
        let boundary = rrows.partition_point(|(rv, _)| match rv.total_cmp(lv) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => equal_below,
            std::cmp::Ordering::Greater => false,
        });
        let (skip, take) = if above { (boundary, rrows.len()) } else { (0, boundary) };
        pairs.extend(rrows.iter().take(take).skip(skip).map(|&(_, rj)| (*lj, rj)));
    }
    Ok(pairs)
}

/// Sort-based band join on inequality `ranges` (no equi-keys): sort both
/// sides once on the first range's columns, binary-search each outer row's
/// band boundary in the sorted inner, then filter the candidates through
/// any residual ranges. NULL keys never match. Charges `rows_sorted` for
/// both sides, `n log n` sort comparisons, [`probe_charge`] per outer key,
/// one comparison per candidate per residual range, and counts every
/// output row in both `tuples_emitted` and `range_join_rows`.
pub fn range_join(
    left: &Chunk,
    right: &Chunk,
    ranges: &[(ColumnRef, CmpOp, ColumnRef)],
    metrics: &mut ExecMetrics,
) -> ExecResult<Chunk> {
    let Some((&(lc, op, rc), residual)) = ranges.split_first() else {
        return Err(ExecError::InvalidPlan("range join requires at least one range".into()));
    };
    crate::error::check_rowid_range(left.num_rows())?;
    crate::error::check_rowid_range(right.num_rows())?;
    let (lp, rp) = (left.require(lc)?, right.require(rc)?);
    let gather = |chunk: &Chunk, pos: usize| -> ExecResult<Vec<(Value, u32)>> {
        let mut out = Vec::with_capacity(chunk.num_rows());
        for row in 0..chunk.num_rows() {
            let v = chunk.data.column(pos)?.get(row)?;
            if !v.is_null() {
                out.push((v, crate::error::rowid(row)));
            }
        }
        Ok(out)
    };
    let mut lrows = gather(left, lp)?;
    let mut rrows = gather(right, rp)?;
    metrics.rows_sorted += (lrows.len() + rrows.len()) as u64;
    lrows.sort_by(|a, b| a.0.total_cmp(&b.0));
    rrows.sort_by(|a, b| a.0.total_cmp(&b.0));
    metrics.comparisons += sort_charge(lrows.len()) + sort_charge(rrows.len());
    metrics.comparisons += lrows.len() as u64 * probe_charge(rrows.len());
    let mut pairs = band_probe(&lrows, &rrows, op)?;
    if !residual.is_empty() {
        // Residual ranges filter the band's candidates; charge one
        // comparison per candidate per residual regardless of
        // short-circuiting, so the charge is schedule-independent.
        metrics.comparisons += pairs.len() as u64 * residual.len() as u64;
        let extras: Vec<(usize, CmpOp, usize)> = residual
            .iter()
            .map(|&(l, o, r)| Ok((left.require(l)?, o, right.require(r)?)))
            .collect::<ExecResult<_>>()?;
        let mut kept = Vec::with_capacity(pairs.len());
        'pairs: for (lj, rj) in pairs {
            for &(le, o, re) in &extras {
                let lv = left.data.column(le)?.get(lj as usize)?;
                let rv = right.data.column(re)?.get(rj as usize)?;
                if !range_pair_matches(&lv, &rv, o) {
                    continue 'pairs;
                }
            }
            kept.push((lj, rj));
        }
        pairs = kept;
    }
    pairs.sort_unstable();
    metrics.tuples_emitted += pairs.len() as u64;
    metrics.range_join_rows += pairs.len() as u64;
    let rows: Vec<(usize, usize)> = pairs.iter().map(|&(l, r)| (l as usize, r as usize)).collect();
    Chunk::join_rows(left, right, &rows)
}

/// Residual inequality filter for keyed joins: keep the output rows of an
/// equi-join whose `ranges` all hold (both columns resolve in the joined
/// chunk, so range orientation does not matter here). Charges one
/// comparison per input row per range — the same charge the vectorized
/// pair-list filter applies — and passes the chunk through untouched when
/// `ranges` is empty.
pub fn apply_join_ranges(
    chunk: Chunk,
    ranges: &[(ColumnRef, CmpOp, ColumnRef)],
    metrics: &mut ExecMetrics,
) -> ExecResult<Chunk> {
    if ranges.is_empty() {
        return Ok(chunk);
    }
    let pos: Vec<(usize, CmpOp, usize)> = ranges
        .iter()
        .map(|&(l, o, r)| Ok((chunk.require(l)?, o, chunk.require(r)?)))
        .collect::<ExecResult<_>>()?;
    metrics.comparisons += chunk.num_rows() as u64 * ranges.len() as u64;
    let mut keep = Vec::new();
    'rows: for row in 0..chunk.num_rows() {
        for &(lp, o, rp) in &pos {
            let lv = chunk.data.column(lp)?.get(row)?;
            let rv = chunk.data.column(rp)?.get(row)?;
            if !range_pair_matches(&lv, &rv, o) {
                continue 'rows;
            }
        }
        keep.push(row);
    }
    if keep.len() == chunk.num_rows() {
        return Ok(chunk);
    }
    chunk.filter_rows(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::{DataType, Table};

    fn chunk(table_id: usize, values: &[Option<i64>]) -> Chunk {
        let mut t = Table::empty("t", &[("k", DataType::Int)]);
        for v in values {
            t.push_row(vec![v.map_or(Value::Null, Value::Int)]).unwrap();
        }
        Chunk::from_base_table(table_id, t)
    }

    fn keys() -> Vec<(ColumnRef, ColumnRef)> {
        vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))]
    }

    /// Brute-force reference join.
    fn reference(left: &Chunk, right: &Chunk) -> Vec<(Value, Value)> {
        let mut out = Vec::new();
        for l in 0..left.num_rows() {
            let lv = left.data.column(0).unwrap().get(l).unwrap();
            for r in 0..right.num_rows() {
                let rv = right.data.column(0).unwrap().get(r).unwrap();
                if lv.sql_eq(&rv) {
                    out.push((lv.clone(), rv));
                }
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    fn result_pairs(c: &Chunk) -> Vec<(Value, Value)> {
        let mut out: Vec<(Value, Value)> = (0..c.num_rows())
            .map(|r| {
                let row = c.data.row(r).unwrap();
                (row[0].clone(), row[1].clone())
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    fn all_methods(
        left: &Chunk,
        right: &Chunk,
        ks: &[(ColumnRef, ColumnRef)],
    ) -> Vec<(&'static str, Chunk)> {
        let mut m = ExecMetrics::default();
        vec![
            ("nl", nested_loop_join(left, right, ks, &mut m).unwrap()),
            ("sm", sort_merge_join(left, right, ks, &mut m).unwrap()),
            ("hash", hash_join(left, right, ks, &mut m).unwrap()),
        ]
    }

    #[test]
    fn all_methods_agree_with_reference() {
        let l = chunk(0, &[Some(1), Some(2), Some(2), Some(3), None]);
        let r = chunk(1, &[Some(2), Some(2), Some(3), Some(4), None]);
        let expect = reference(&l, &r);
        assert_eq!(expect.len(), 5); // 2x2 for key 2, 1 for key 3.
        for (name, out) in all_methods(&l, &r, &keys()) {
            assert_eq!(result_pairs(&out), expect, "{name} join differs");
        }
    }

    #[test]
    fn nulls_never_match() {
        let l = chunk(0, &[None, None]);
        let r = chunk(1, &[None, Some(1)]);
        for (name, out) in all_methods(&l, &r, &keys()) {
            assert_eq!(out.num_rows(), 0, "{name} matched NULLs");
        }
    }

    #[test]
    fn empty_inputs_yield_empty_outputs() {
        let l = chunk(0, &[]);
        let r = chunk(1, &[Some(1)]);
        for (name, out) in all_methods(&l, &r, &keys()) {
            assert_eq!(out.num_rows(), 0, "{name}");
        }
        for (name, out) in all_methods(&r, &l, &[(ColumnRef::new(1, 0), ColumnRef::new(0, 0))]) {
            assert_eq!(out.num_rows(), 0, "{name} flipped");
        }
    }

    #[test]
    fn keyless_join_is_cartesian() {
        let l = chunk(0, &[Some(1), Some(2)]);
        let r = chunk(1, &[Some(3), Some(4), Some(5)]);
        let mut m = ExecMetrics::default();
        let out = nested_loop_join(&l, &r, &[], &mut m).unwrap();
        assert_eq!(out.num_rows(), 6);
        let out = sort_merge_join(&l, &r, &[], &mut m).unwrap();
        assert_eq!(out.num_rows(), 6);
        let out = hash_join(&l, &r, &[], &mut m).unwrap();
        assert_eq!(out.num_rows(), 6);
    }

    #[test]
    fn multi_key_joins() {
        // Two key columns; only rows agreeing on both match.
        let mut lt = Table::empty("l", &[("a", DataType::Int), ("b", DataType::Int)]);
        for (a, b) in [(1, 1), (1, 2), (2, 1)] {
            lt.push_row(vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        let mut rt = Table::empty("r", &[("a", DataType::Int), ("b", DataType::Int)]);
        for (a, b) in [(1, 1), (2, 2), (2, 1)] {
            rt.push_row(vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        let l = Chunk::from_base_table(0, lt);
        let r = Chunk::from_base_table(1, rt);
        let ks = vec![
            (ColumnRef::new(0, 0), ColumnRef::new(1, 0)),
            (ColumnRef::new(0, 1), ColumnRef::new(1, 1)),
        ];
        for (name, out) in all_methods(&l, &r, &ks) {
            assert_eq!(out.num_rows(), 2, "{name}: (1,1) and (2,1) match");
        }
    }

    #[test]
    fn nested_loop_charges_inner_pages_per_outer_tuple() {
        let l = chunk(0, &[Some(1), Some(2), Some(3)]);
        let r = chunk(1, &(0..2000).map(Some).collect::<Vec<_>>());
        let inner_pages = r.data.num_pages() as u64;
        assert!(inner_pages > 1);
        let mut m = ExecMetrics::default();
        nested_loop_join(&l, &r, &keys(), &mut m).unwrap();
        assert_eq!(m.pages_read, 3 * inner_pages);
    }

    #[test]
    fn hash_keys_are_exact_near_i64_max() {
        // Regression: the old `(*x as f64).to_bits()` encoding collapsed
        // i64::MAX and i64::MAX - 1 (and every pair beyond 2^53 sharing an
        // f64 image) into one bucket, producing phantom matches.
        let l = chunk(0, &[Some(i64::MAX), Some(i64::MAX - 1), Some(i64::MIN + 1)]);
        let r = chunk(1, &[Some(i64::MAX - 1)]);
        let mut m = ExecMetrics::default();
        let out = hash_join(&l, &r, &keys(), &mut m).unwrap();
        assert_eq!(out.num_rows(), 1, "exactly one exact match");
        assert_eq!(
            out.data.row(0).unwrap(),
            vec![Value::Int(i64::MAX - 1), Value::Int(i64::MAX - 1)]
        );
        // And the same result as the other methods.
        for (name, other) in all_methods(&l, &r, &keys()) {
            assert_eq!(other.num_rows(), 1, "{name}");
        }
    }

    #[test]
    fn hash_keys_keep_int_float_cross_type_equality() {
        // Int(2) and Float(2.0) are sql_eq and must share a hash bucket;
        // Float(2.5) and Float(-0.0) match nothing integral.
        let mut lt = Table::empty("l", &[("k", DataType::Float)]);
        for v in [2.0, 2.5, -0.0] {
            lt.push_row(vec![Value::Float(v)]).unwrap();
        }
        let l = Chunk::from_base_table(0, lt);
        let r = chunk(1, &[Some(2), Some(0)]);
        let mut m = ExecMetrics::default();
        let out = hash_join(&l, &r, &keys(), &mut m).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.data.row(0).unwrap(), vec![Value::Float(2.0), Value::Int(2)]);
        // The normalization agrees with sql_eq on the awkward cases.
        assert_eq!(hash_key(&Value::Float(2.0)), hash_key(&Value::Int(2)));
        assert_ne!(hash_key(&Value::Float(-0.0)), hash_key(&Value::Int(0)));
        assert_ne!(hash_key(&Value::Float(2.5)), hash_key(&Value::Int(2)));
        assert_ne!(hash_key(&Value::Float(f64::NAN)), hash_key(&Value::Int(0)));
    }

    #[test]
    fn missing_key_column_is_an_error() {
        let l = chunk(0, &[Some(1)]);
        let r = chunk(1, &[Some(1)]);
        let bad = vec![(ColumnRef::new(5, 0), ColumnRef::new(1, 0))];
        let mut m = ExecMetrics::default();
        assert!(matches!(
            nested_loop_join(&l, &r, &bad, &mut m),
            Err(ExecError::ColumnNotInSchema(_))
        ));
    }

    #[test]
    fn rescan_join_matches_filter_then_join() {
        use crate::filter::CompiledFilter;
        use els_core::predicate::CmpOp;
        // Inner 0..100 filtered to < 10; outer keys 0..20.
        let outer = chunk(0, &(0..20).map(Some).collect::<Vec<_>>());
        let mut inner_t = Table::empty("in", &[("k", DataType::Int)]);
        for v in 0..100 {
            inner_t.push_row(vec![Value::Int(v)]).unwrap();
        }
        let filters = vec![CompiledFilter::Cmp {
            column: ColumnRef::new(1, 0),
            op: CmpOp::Lt,
            value: Value::Int(10),
        }];
        let mut m1 = ExecMetrics::default();
        let mut io = crate::buffer::PageIo::unbuffered();
        let rescan =
            nested_loop_rescan_join(&outer, 1, &inner_t, &filters, &keys(), &mut m1, &mut io)
                .unwrap();

        let inner_chunk = Chunk::from_base_table(1, inner_t.clone());
        let mut m2 = ExecMetrics::default();
        let filtered = crate::filter::apply_filters(&inner_chunk, &filters, &mut m2).unwrap();
        let reference = nested_loop_join(&outer, &filtered, &keys(), &mut m2).unwrap();
        assert_eq!(result_pairs(&rescan), result_pairs(&reference));
        assert_eq!(rescan.num_rows(), 10);
        // The rescan charged the ORIGINAL inner pages once per outer tuple.
        assert_eq!(m1.pages_read, 20 * inner_t.num_pages() as u64);
        assert_eq!(m1.tuples_scanned, 20 * 100);
    }

    /// Brute-force band-join reference: all non-NULL pairs with `lv op rv`.
    fn range_reference(left: &Chunk, right: &Chunk, op: CmpOp) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for l in 0..left.num_rows() {
            let lv = left.data.column(0).unwrap().get(l).unwrap();
            for r in 0..right.num_rows() {
                let rv = right.data.column(0).unwrap().get(r).unwrap();
                if range_pair_matches(&lv, &rv, op) {
                    out.push((l, r));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn range_join_matches_brute_force_on_every_operator() {
        let l = chunk(0, &[Some(5), Some(1), None, Some(3), Some(3)]);
        let r = chunk(1, &[Some(2), None, Some(4), Some(3)]);
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let expect = range_reference(&l, &r, op);
            let mut m = ExecMetrics::default();
            let out =
                range_join(&l, &r, &[(ColumnRef::new(0, 0), op, ColumnRef::new(1, 0))], &mut m)
                    .unwrap();
            assert_eq!(out.num_rows(), expect.len(), "{op}");
            // Every output pair satisfies the predicate.
            for i in 0..out.num_rows() {
                let row = out.data.row(i).unwrap();
                assert!(range_pair_matches(&row[0], &row[1], op), "{op}: {row:?}");
            }
            assert_eq!(m.range_join_rows, expect.len() as u64, "{op}");
            assert_eq!(m.tuples_emitted, expect.len() as u64, "{op}");
            // Both sides' non-NULL keys passed through the sort.
            assert_eq!(m.rows_sorted, 4 + 3, "{op}");
            assert!(m.comparisons > 0, "{op}");
        }
    }

    #[test]
    fn range_join_rejects_degenerate_plans() {
        let l = chunk(0, &[Some(1)]);
        let r = chunk(1, &[Some(2)]);
        let mut m = ExecMetrics::default();
        assert!(matches!(range_join(&l, &r, &[], &mut m), Err(ExecError::InvalidPlan(_))));
        let eq = [(ColumnRef::new(0, 0), CmpOp::Eq, ColumnRef::new(1, 0))];
        assert!(matches!(range_join(&l, &r, &eq, &mut m), Err(ExecError::InvalidPlan(_))));
    }

    #[test]
    fn residual_ranges_filter_band_candidates() {
        // Two columns per side: band on column 0, residual on column 1.
        let mut lt = Table::empty("l", &[("a", DataType::Int), ("u", DataType::Int)]);
        for (a, u) in [(1, 10), (2, 0), (3, 10)] {
            lt.push_row(vec![Value::Int(a), Value::Int(u)]).unwrap();
        }
        let mut rt = Table::empty("r", &[("b", DataType::Int), ("v", DataType::Int)]);
        for (b, v) in [(2, 5), (4, 5), (9, 20)] {
            rt.push_row(vec![Value::Int(b), Value::Int(v)]).unwrap();
        }
        let l = Chunk::from_base_table(0, lt);
        let r = Chunk::from_base_table(1, rt);
        let band = (ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(1, 0));
        let residual = (ColumnRef::new(0, 1), CmpOp::Lt, ColumnRef::new(1, 1));
        let mut m_band = ExecMetrics::default();
        let band_only = range_join(&l, &r, &[band], &mut m_band).unwrap();
        assert_eq!(band_only.num_rows(), 7, "a < b alone");
        let mut m = ExecMetrics::default();
        let out = range_join(&l, &r, &[band, residual], &mut m).unwrap();
        // Of the 7 band candidates, u < v keeps (1,⋅) only against v=20,
        // (2,⋅) against both of its b-matches, and (3,⋅) only against v=20.
        assert_eq!(out.num_rows(), 4);
        assert_eq!(m.range_join_rows, 4);
        // The residual charged one comparison per band candidate.
        assert_eq!(m.comparisons, m_band.comparisons + 7);
    }

    #[test]
    fn apply_join_ranges_filters_joined_rows() {
        // A keyless cartesian product post-filtered by a range behaves like
        // the band join on the same predicate.
        let l = chunk(0, &[Some(1), Some(2), Some(3)]);
        let r = chunk(1, &[Some(2), Some(3)]);
        let mut m = ExecMetrics::default();
        let product = nested_loop_join(&l, &r, &[], &mut m).unwrap();
        assert_eq!(product.num_rows(), 6);
        let ranges = [(ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(1, 0))];
        let before = m.comparisons;
        let filtered = apply_join_ranges(product, &ranges, &mut m).unwrap();
        assert_eq!(filtered.num_rows(), 3, "(1,2), (1,3), (2,3)");
        assert_eq!(m.comparisons, before + 6, "one comparison per row per range");
        // Empty ranges pass through untouched and charge nothing.
        let n = m.comparisons;
        let same = apply_join_ranges(filtered, &[], &mut m).unwrap();
        assert_eq!(same.num_rows(), 3);
        assert_eq!(m.comparisons, n);
    }

    proptest::proptest! {
        #[test]
        fn range_join_agrees_with_brute_force_on_random_inputs(
            lvals in proptest::collection::vec(proptest::option::of(0i64..12), 0..30),
            rvals in proptest::collection::vec(proptest::option::of(0i64..12), 0..30),
            op_ix in 0usize..4,
        ) {
            let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op_ix];
            let l = chunk(0, &lvals);
            let r = chunk(1, &rvals);
            let expect = range_reference(&l, &r, op);
            let mut m = ExecMetrics::default();
            let out = range_join(&l, &r, &[(ColumnRef::new(0, 0), op, ColumnRef::new(1, 0))], &mut m)
                .unwrap();
            proptest::prop_assert_eq!(out.num_rows(), expect.len());
            for i in 0..out.num_rows() {
                let row = out.data.row(i).unwrap();
                proptest::prop_assert!(range_pair_matches(&row[0], &row[1], op));
            }
            proptest::prop_assert_eq!(m.range_join_rows, expect.len() as u64);
        }
    }

    #[test]
    fn borrowed_range_test_agrees_with_the_owned_one_on_every_pair_of_cells() {
        let cells = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Int(2),
            Value::Int((1 << 53) + 1),
            Value::Float(-0.0),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Float((1u64 << 53) as f64),
            Value::Float(f64::NAN),
            Value::Str(String::new()),
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        fn view(v: &Value) -> ValueRef<'_> {
            match v {
                Value::Null => ValueRef::Null,
                Value::Int(x) => ValueRef::Int(*x),
                Value::Float(x) => ValueRef::Float(*x),
                Value::Str(s) => ValueRef::Str(s),
            }
        }
        let refs: Vec<ValueRef<'_>> = cells.iter().map(view).collect();
        for (lv, lr) in cells.iter().zip(&refs) {
            for (rv, rr) in cells.iter().zip(&refs) {
                for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
                    assert_eq!(
                        range_ref_matches(*lr, *rr, op),
                        range_pair_matches(lv, rv, op),
                        "{lv:?} {op} {rv:?}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn methods_agree_on_random_inputs(
            lvals in proptest::collection::vec(proptest::option::of(0i64..8), 0..40),
            rvals in proptest::collection::vec(proptest::option::of(0i64..8), 0..40),
        ) {
            let l = chunk(0, &lvals);
            let r = chunk(1, &rvals);
            let expect = reference(&l, &r);
            for (name, out) in all_methods(&l, &r, &keys()) {
                proptest::prop_assert_eq!(result_pairs(&out), expect.clone(), "{} join differs", name);
            }
        }
    }
}
