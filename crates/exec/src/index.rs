//! A sorted secondary index and the row path's indexed nested-loops join.
//!
//! System R's nested loops becomes viable on large inners when the inner
//! has an index on the join key: each outer tuple costs an index descent
//! plus the matching tuples, instead of a full rescan. The paper's
//! experiment ran without such indexes (which is what makes the misled
//! plans catastrophic); this module provides the indexed path so the
//! access-method ablation (experiment F6) can quantify how much of the
//! damage an index would absorb.
//!
//! [`SortedIndex`] is a binary-searchable `(key, row)` array — the moral
//! equivalent of a read-only B⁺-tree for an in-memory store. Both execution
//! modes build and probe it; [`index_nested_loop_join`] is the row-at-a-time
//! operator, the oracle the vectorized kernel (`index_nested_loop` in
//! [`crate::vectorized`]) is checked against.

use els_core::ColumnRef;
use els_storage::{Table, Value};

use crate::chunk::Chunk;
use crate::error::{ExecError, ExecResult};
use crate::filter::CompiledFilter;
use crate::metrics::ExecMetrics;

/// A sorted `(key, row id)` index over one column of a stored table.
#[derive(Debug, Clone)]
pub(crate) struct SortedIndex {
    /// Entries sorted by key (NULL keys are excluded — they never join).
    entries: Vec<(Value, u32)>,
}

impl SortedIndex {
    /// Build an index over `column` of `table`. Cost: one scan plus a sort;
    /// callers that model cost should charge [`SortedIndex::build_cost_rows`]
    /// tuples.
    pub(crate) fn build(table: &Table, column: usize) -> ExecResult<SortedIndex> {
        let col = table.column(column)?;
        // Index entries address rows with u32 ids, exactly like selection
        // vectors; refuse oversized tables instead of aliasing row ids.
        crate::error::check_rowid_range(col.len())?;
        let mut entries: Vec<(Value, u32)> = Vec::with_capacity(col.len());
        for row in 0..col.len() {
            let v = col.get(row)?;
            if !v.is_null() {
                entries.push((v, crate::error::rowid(row)));
            }
        }
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Ok(SortedIndex { entries })
    }

    /// Number of indexed (non-NULL) entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Comparisons one descent is charged: `⌊log₂ entries⌋`, at least one.
    pub(crate) fn descent_charge(&self) -> u64 {
        u64::from(self.len().max(2).ilog2())
    }

    /// Rows whose key equals `key`, in row order. Binary search; O(log n +
    /// matches).
    pub(crate) fn lookup<'a>(&'a self, key: &'a Value) -> impl Iterator<Item = usize> + 'a {
        let lo =
            self.entries.partition_point(|(k, _)| k.total_cmp(key) == std::cmp::Ordering::Less);
        self.entries
            .iter()
            .skip(lo)
            .take_while(move |(k, _)| k.sql_eq(key))
            .map(|(_, r)| *r as usize)
    }
}

/// Indexed nested loops: probe `index` (over `key_column` of the stored
/// `inner`) once per outer tuple; each hit is verified against the inner's
/// local `filters` and any residual `keys` beyond the indexed one.
///
/// `keys[0].1` must be the indexed column.
#[expect(
    clippy::too_many_arguments,
    reason = "the row operator's inputs: outer, inner and its index, filters, keys, metrics and page I/O"
)]
pub(crate) fn index_nested_loop_join(
    left: &Chunk,
    inner_table_id: usize,
    inner: &Table,
    index: &SortedIndex,
    inner_filters: &[CompiledFilter],
    keys: &[(ColumnRef, ColumnRef)],
    metrics: &mut ExecMetrics,
    io: &mut crate::buffer::PageIo,
) -> ExecResult<Chunk> {
    let Some((&(first_left, _), residual_keys)) = keys.split_first() else {
        return Err(ExecError::InvalidPlan(
            "index nested loops requires at least one join key".into(),
        ));
    };
    let inner_chunk = Chunk::from_base_table(inner_table_id, inner.clone());
    let probe_pos = left.require(first_left)?;
    // Residual keys beyond the indexed first.
    let residual: Vec<(usize, usize)> = residual_keys
        .iter()
        .map(|&(l, r)| Ok((left.require(l)?, inner_chunk.require(r)?)))
        .collect::<ExecResult<Vec<_>>>()?;

    let tuples_per_page = inner.tuples_per_page() as u64;
    let mut rows: Vec<(usize, usize)> = Vec::new();
    for l in 0..left.num_rows() {
        let key = left.data.column(probe_pos)?.get(l)?;
        if key.is_null() {
            continue;
        }
        // One index descent per outer tuple.
        metrics.comparisons += index.descent_charge();
        'hit: for r in index.lookup(&key) {
            // Fetch the data page holding the matched tuple.
            io.read_page(inner_table_id, r as u64 / tuples_per_page.max(1), metrics);
            for f in inner_filters {
                metrics.comparisons += 1;
                if !f.matches(&inner_chunk, r)? {
                    continue 'hit;
                }
            }
            for &(lp, rp) in &residual {
                metrics.comparisons += 1;
                let lv = left.data.column(lp)?.get(l)?;
                let rv = inner_chunk.data.column(rp)?.get(r)?;
                if !lv.sql_eq(&rv) {
                    continue 'hit;
                }
            }
            rows.push((l, r));
        }
    }
    metrics.tuples_emitted += rows.len() as u64;
    Chunk::join_rows(left, &inner_chunk, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_core::predicate::CmpOp;
    use els_storage::DataType;

    fn table(values: &[i64]) -> Table {
        let mut t = Table::empty("t", &[("k", DataType::Int)]);
        for &v in values {
            t.push_row(vec![Value::Int(v)]).unwrap();
        }
        t
    }

    #[test]
    fn build_and_lookup() {
        let t = table(&[5, 3, 5, 1, 5]);
        let idx = SortedIndex::build(&t, 0).unwrap();
        assert_eq!(idx.len(), 5);
        let hits: Vec<usize> = idx.lookup(&Value::Int(5)).collect();
        assert_eq!(hits, vec![0, 2, 4]);
        assert_eq!(idx.lookup(&Value::Int(9)).count(), 0);
    }

    #[test]
    fn nulls_are_not_indexed() {
        let mut t = table(&[1, 2]);
        t.push_row(vec![Value::Null]).unwrap();
        let idx = SortedIndex::build(&t, 0).unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.lookup(&Value::Null).count(), 0);
    }

    #[test]
    fn index_join_matches_rescan_join() {
        let outer_t = table(&[0, 1, 2, 2, 9]);
        let outer = Chunk::from_base_table(0, outer_t);
        let inner = table(&[2, 2, 3, 0]);
        let idx = SortedIndex::build(&inner, 0).unwrap();
        let keys = vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))];
        let mut m = ExecMetrics::default();
        let mut io = crate::buffer::PageIo::unbuffered();
        let via_index =
            index_nested_loop_join(&outer, 1, &inner, &idx, &[], &keys, &mut m, &mut io).unwrap();
        let via_rescan =
            crate::join::nested_loop_rescan_join(&outer, 1, &inner, &[], &keys, &mut m, &mut io)
                .unwrap();
        let pairs = |c: &Chunk| {
            let mut v: Vec<Vec<Value>> =
                (0..c.num_rows()).map(|r| c.data.row(r).unwrap()).collect();
            v.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
            v
        };
        assert_eq!(pairs(&via_index), pairs(&via_rescan));
        assert_eq!(via_index.num_rows(), 5); // 0->1, 1->0, 2x2 for key 2
    }

    #[test]
    fn index_join_applies_inner_filters() {
        let outer = Chunk::from_base_table(0, table(&[2]));
        let inner = table(&[2, 2, 2]);
        let idx = SortedIndex::build(&inner, 0).unwrap();
        let keys = vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))];
        // Filter keeps no inner rows (k < 0): no matches survive.
        let filters = vec![CompiledFilter::Cmp {
            column: ColumnRef::new(1, 0),
            op: CmpOp::Lt,
            value: Value::Int(0),
        }];
        let mut m = ExecMetrics::default();
        let mut io = crate::buffer::PageIo::unbuffered();
        let out = index_nested_loop_join(&outer, 1, &inner, &idx, &filters, &keys, &mut m, &mut io)
            .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn index_join_requires_a_key() {
        let outer = Chunk::from_base_table(0, table(&[1]));
        let inner = table(&[1]);
        let idx = SortedIndex::build(&inner, 0).unwrap();
        let mut m = ExecMetrics::default();
        let mut io = crate::buffer::PageIo::unbuffered();
        assert!(matches!(
            index_nested_loop_join(&outer, 1, &inner, &idx, &[], &[], &mut m, &mut io),
            Err(ExecError::InvalidPlan(_))
        ));
    }

    #[test]
    fn probe_cost_is_logarithmic_not_linear() {
        // 10k-entry index, 10 probes: far fewer comparisons than 100k.
        let inner = table(&(0..10_000).collect::<Vec<i64>>());
        let idx = SortedIndex::build(&inner, 0).unwrap();
        let outer = Chunk::from_base_table(0, table(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]));
        let keys = vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))];
        let mut m = ExecMetrics::default();
        let mut io = crate::buffer::PageIo::unbuffered();
        index_nested_loop_join(&outer, 1, &inner, &idx, &[], &keys, &mut m, &mut io).unwrap();
        assert!(m.comparisons < 1000, "comparisons {}", m.comparisons);
    }
}
