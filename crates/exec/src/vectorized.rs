//! Late-materializing vectorized plan evaluation.
//!
//! The tentpole of the vectorization PR. Instead of materializing a full
//! [`Chunk`] at every operator (the row-at-a-time path clones whole tables
//! at scans and gathers every column at every join), this evaluator carries
//! **row-id selections over shared sources**:
//!
//! * a scan produces a selection vector over the stored table (built by the
//!   typed filter kernels in [`crate::filter::filter_selection`]) — no data
//!   is copied;
//! * hash and sort-merge joins work on **typed key columns** and produce a
//!   pair list of logical row ids, which is *composed* with the inputs'
//!   selections — still no data copied;
//! * only the plan root gathers each surviving column once
//!   ([`VChunk::materialize`]), or never, for `COUNT(*)` outputs.
//!
//! Single-column `Int` equi-joins take fast paths over raw `i64` slices
//! (exact — see `HashKey` in [`crate::join`] for the 2⁵³ story); the hash
//! join builds `IntTable`, a flat table over the distinct keys plus one
//! vector of row ids, with no allocation per key. With more
//! than one worker and a large enough probe side, the int path goes
//! parallel through the work-stealing scheduler ([`crate::scheduler`]): one
//! shared hash table, built serially, probed in fixed-size **morsels**
//! (`morsel_pieces` makes that decision for the hash probe, the fused count
//! and the band join alike). Results are deterministic regardless of worker
//! count: morsel buffers merge in morsel order and the pair list gets the
//! same left-major sort the serial path applies. `COUNT(*)` roots
//! additionally fuse the probe with the count ([`execute_root_count`]) so
//! no row-id pair list is ever allocated for them.
//!
//! Nested-loops shapes (rescan, indexed, and keyless joins) delegate to the
//! row-path operators on materialized inputs: their cost is dominated by
//! the simulated rescan charges, and sharing the implementation keeps the
//! two paths' metrics identical by construction. Every operator charges
//! exactly the counters the row-at-a-time oracle charges (a property the
//! differential tests assert), so plan-quality experiments are unaffected
//! by the execution mode.

use std::collections::HashMap;
use std::sync::Arc;

use els_core::predicate::CmpOp;
use els_core::ColumnRef;
use els_storage::{ColumnVector, Table, Value};

use crate::chunk::Chunk;
use crate::error::{ExecError, ExecResult};
use crate::executor::ExecState;
use crate::filter::{bind_filters, filter_selection};
use crate::join::{
    band_probe, cmp_key_slices, hash_join, hash_key, nested_loop_join, probe_charge,
    range_pair_matches, sort_charge, sort_merge_join, HashKey,
};
use crate::metrics::ExecMetrics;
use crate::plan::{JoinMethod, PlanNode};

/// Probe rows per morsel handed to one parallel worker.
pub const MORSEL_ROWS: usize = 2048;

/// Minimum probe rows before the parallel path engages; below this the
/// thread-spawn overhead dominates any probe speedup. Public so the
/// boundary-straddling differential tests can pin sizes right at the
/// threshold.
pub const PARALLEL_MIN_ROWS: usize = 4 * MORSEL_ROWS;

/// The one place an operator decides whether it goes parallel, and in what
/// pieces: `0..rows` splits into [`MORSEL_ROWS`]-sized pieces run on the
/// work-stealing scheduler when `workers > 1` and `rows` reaches
/// [`PARALLEL_MIN_ROWS`], and is a single piece on the calling thread
/// otherwise. Returns the per-piece results in piece order. `morsels` is
/// charged identically either way (the serial path reports the morsel count
/// the parallel path dispatches, so accounting is mode-independent);
/// `steals` only when the scheduler ran.
fn morsel_pieces<T: Send>(
    workers: usize,
    rows: usize,
    metrics: &mut ExecMetrics,
    piece: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    let n_morsels = rows.div_ceil(MORSEL_ROWS);
    metrics.morsels += n_morsels as u64;
    if workers <= 1 || rows < PARALLEL_MIN_ROWS {
        return vec![piece(0, rows)];
    }
    let (pieces, stats) = crate::scheduler::run_tasks(workers, n_morsels, |m| {
        let lo = m * MORSEL_ROWS;
        piece(lo, (lo + MORSEL_ROWS).min(rows))
    });
    metrics.steals += stats.steals;
    pieces
}

/// Concatenate per-piece pair lists in piece order. The serial path's
/// single piece is returned as it is, not copied.
fn concat_pairs(pieces: Vec<Vec<(u32, u32)>>) -> Vec<(u32, u32)> {
    let mut rest = pieces.into_iter();
    let mut pairs = rest.next().unwrap_or_default();
    pairs.extend(rest.flatten());
    pairs
}

/// One input a selection can point into: either a stored base table
/// (shared, never copied) or a materialized intermediate produced by a
/// delegated row-path operator.
enum VSource {
    /// A base table behind its query `table_id`.
    Base { table_id: usize, data: Arc<Table> },
    /// A materialized intermediate with provenance.
    Mat(Box<Chunk>),
}

/// A late-materialized intermediate result: parallel `(source, row ids)`
/// pairs. Logical row `j` of the chunk is row `rowids[s][j]` of source `s`,
/// for every source — all rowid vectors share the same length.
pub(crate) struct VChunk {
    sources: Vec<VSource>,
    rowids: Vec<Vec<u32>>,
    len: usize,
}

impl VChunk {
    /// A filtered scan: the stored table plus its selection vector.
    fn scan(table_id: usize, data: Arc<Table>, sel: Vec<u32>) -> VChunk {
        let len = sel.len();
        VChunk { sources: vec![VSource::Base { table_id, data }], rowids: vec![sel], len }
    }

    /// Wrap a materialized chunk (identity selection). Fallible because
    /// the identity selection addresses rows with `u32` ids.
    fn from_chunk(c: Chunk) -> ExecResult<VChunk> {
        let len = c.num_rows();
        crate::error::check_rowid_range(len)?;
        Ok(VChunk {
            sources: vec![VSource::Mat(Box::new(c))],
            rowids: vec![(0..len).map(crate::error::rowid).collect()],
            len,
        })
    }

    /// Number of logical rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Resolve a query column to `(source index, column position)`,
    /// searching sources left to right — the same order the row path's
    /// `Chunk::position_of` searches the concatenated join schema.
    fn resolve(&self, c: ColumnRef) -> Option<(usize, usize)> {
        for (si, src) in self.sources.iter().enumerate() {
            match src {
                VSource::Base { table_id, data } => {
                    if c.table == *table_id && c.column < data.num_columns() {
                        return Some((si, c.column));
                    }
                }
                VSource::Mat(ch) => {
                    if let Some(pos) = ch.position_of(c) {
                        return Some((si, pos));
                    }
                }
            }
        }
        None
    }

    /// The physical column behind `(source index, column position)`.
    fn source_column(&self, si: usize, pos: usize) -> ExecResult<&ColumnVector> {
        match &self.sources[si] {
            VSource::Base { data, .. } => Ok(data.column(pos)?),
            VSource::Mat(ch) => Ok(ch.data.column(pos)?),
        }
    }

    /// Compose a join's pair list with both inputs' selections: source `s`
    /// of the result selects `left.rowids[s][l]` for every pair `(l, r)`.
    /// No column data moves; this is the late-materialization step.
    fn compose(left: VChunk, right: VChunk, pairs: &[(u32, u32)]) -> VChunk {
        let mut sources = Vec::with_capacity(left.sources.len() + right.sources.len());
        let mut rowids: Vec<Vec<u32>> = Vec::with_capacity(sources.capacity());
        for (src, ids) in left.sources.into_iter().zip(left.rowids) {
            rowids.push(pairs.iter().map(|&(lj, _)| ids[lj as usize]).collect());
            sources.push(src);
        }
        for (src, ids) in right.sources.into_iter().zip(right.rowids) {
            rowids.push(pairs.iter().map(|&(_, rj)| ids[rj as usize]).collect());
            sources.push(src);
        }
        VChunk { sources, rowids, len: pairs.len() }
    }

    /// Gather every column once, reproducing exactly the chunk the
    /// row-at-a-time path would have built: base-table names for a single
    /// scanned source, the source's own names for a single materialized
    /// intermediate, synthesized `t{T}_c{C}` names under table `join` for
    /// multi-source join results.
    pub(crate) fn materialize(&self) -> ExecResult<Chunk> {
        if let [VSource::Base { table_id, data }] = self.sources.as_slice() {
            let ids = &self.rowids[0];
            let columns = data
                .column_names()
                .iter()
                .zip(data.columns())
                .map(|(n, col)| Ok((n.clone(), col.gather_u32(ids)?)))
                .collect::<ExecResult<Vec<_>>>()?;
            let provenance =
                (0..data.num_columns()).map(|i| ColumnRef::new(*table_id, i)).collect();
            return Ok(Chunk { data: Table::new(data.name().to_owned(), columns)?, provenance });
        }
        if let [VSource::Mat(ch)] = self.sources.as_slice() {
            let ids = &self.rowids[0];
            if ids.len() == ch.num_rows() && ids.iter().enumerate().all(|(i, &v)| v as usize == i) {
                return Ok((**ch).clone());
            }
            let columns = ch
                .data
                .column_names()
                .iter()
                .zip(ch.data.columns())
                .map(|(n, col)| Ok((n.clone(), col.gather_u32(ids)?)))
                .collect::<ExecResult<Vec<_>>>()?;
            return Ok(Chunk {
                data: Table::new(ch.data.name().to_owned(), columns)?,
                provenance: ch.provenance.clone(),
            });
        }
        let mut columns: Vec<(String, ColumnVector)> = Vec::new();
        let mut provenance: Vec<ColumnRef> = Vec::new();
        for (src, ids) in self.sources.iter().zip(&self.rowids) {
            match src {
                VSource::Base { table_id, data } => {
                    for (ci, col) in data.columns().iter().enumerate() {
                        let p = ColumnRef::new(*table_id, ci);
                        columns.push((format!("t{}_c{}", p.table, p.column), col.gather_u32(ids)?));
                        provenance.push(p);
                    }
                }
                VSource::Mat(ch) => {
                    for (ci, col) in ch.data.columns().iter().enumerate() {
                        let p = ch.provenance[ci];
                        columns.push((format!("t{}_c{}", p.table, p.column), col.gather_u32(ids)?));
                        provenance.push(p);
                    }
                }
            }
        }
        Ok(Chunk { data: Table::new("join", columns)?, provenance })
    }
}

/// Evaluate a plan tree, returning the root's late-materialized result.
pub(crate) fn execute_root(
    node: &PlanNode,
    tables: &[Arc<Table>],
    workers: usize,
    st: &mut ExecState<'_>,
) -> ExecResult<VChunk> {
    exec_node(node, tables, workers, st)
}

/// Fused `COUNT(*)` evaluation: when the plan root is a *keyed* hash or
/// sort-merge join, count the matches in one pass over the probe instead
/// of materializing, merging, and sorting the root's row-id pair list.
/// Only the root can fuse — lower joins' parents compose selections from
/// their pair lists — and NL/INL/keyless roots fall back to the general
/// path (they delegate to row operators and never build a pair list).
/// Counters and observations are charged exactly as the unfused path
/// charges them, minus the `pair_lists` allocation the fusion removes.
pub(crate) fn execute_root_count(
    node: &PlanNode,
    tables: &[Arc<Table>],
    workers: usize,
    st: &mut ExecState<'_>,
) -> ExecResult<u64> {
    if let PlanNode::Join { method, left, right, keys, ranges } = node {
        if !keys.is_empty()
            && ranges.is_empty()
            && matches!(method, JoinMethod::Hash | JoinMethod::SortMerge)
        {
            let start = crate::timing::Stopwatch::start();
            let l = exec_node(left, tables, workers, st)?;
            let r = exec_node(right, tables, workers, st)?;
            let n = match method {
                JoinMethod::Hash => vhash_count(&l, &r, keys, workers, st.metrics)?,
                _ => vsort_merge_count(&l, &r, keys, st.metrics)?,
            };
            st.metrics.tuples_emitted += n;
            st.obs.join_outputs.push((node.tables(), n));
            st.obs.join_elapsed.push(start.elapsed());
            return Ok(n);
        }
    }
    Ok(execute_root(node, tables, workers, st)?.len() as u64)
}

/// Recursive node evaluation, recording the same per-operator observations
/// (in the same post-order) as the row path.
fn exec_node(
    node: &PlanNode,
    tables: &[Arc<Table>],
    workers: usize,
    st: &mut ExecState<'_>,
) -> ExecResult<VChunk> {
    let start = crate::timing::Stopwatch::start();
    let out = exec_inner(node, tables, workers, st)?;
    match node {
        PlanNode::Scan { table_id, .. } => {
            st.obs.scan_outputs.push((*table_id, out.len() as u64));
            st.obs.scan_elapsed.push(start.elapsed());
        }
        PlanNode::Join { .. } => {
            st.obs.join_outputs.push((node.tables(), out.len() as u64));
            st.obs.join_elapsed.push(start.elapsed());
        }
    }
    Ok(out)
}

fn exec_inner(
    node: &PlanNode,
    tables: &[Arc<Table>],
    workers: usize,
    st: &mut ExecState<'_>,
) -> ExecResult<VChunk> {
    match node {
        PlanNode::Scan { table_id, filters } => {
            let data = tables.get(*table_id).ok_or(ExecError::UnknownTable(*table_id))?;
            st.metrics.tuples_scanned += data.num_rows() as u64;
            st.io.scan_table(*table_id, data.num_pages() as u64, st.metrics);
            let ncols = data.num_columns();
            let bound = bind_filters(filters, |c| {
                (c.table == *table_id && c.column < ncols).then_some(c.column)
            })?;
            let mut sel = Vec::new();
            filter_selection(data, &bound, &mut sel, st.metrics)?;
            st.metrics.tuples_emitted += sel.len() as u64;
            Ok(VChunk::scan(*table_id, Arc::clone(data), sel))
        }
        PlanNode::Join { method, left, right, keys, ranges } => {
            let l = exec_node(left, tables, workers, st)?;
            // Rescanning and indexed nested loops share the row-path
            // operators (see module docs): their cost is the simulated
            // rescans, not the evaluation loop.
            if let (JoinMethod::NestedLoop, PlanNode::Scan { table_id, filters }) =
                (method, right.as_ref())
            {
                let lchunk = l.materialize()?;
                let out = crate::executor::rescan_nested_loop(
                    &lchunk, *table_id, filters, keys, tables, st,
                )?;
                let out = crate::join::apply_join_ranges(out, ranges, st.metrics)?;
                return VChunk::from_chunk(out);
            }
            if *method == JoinMethod::IndexNestedLoop {
                let lchunk = l.materialize()?;
                let out = crate::executor::indexed_nested_loop(&lchunk, right, keys, tables, st)?;
                let out = crate::join::apply_join_ranges(out, ranges, st.metrics)?;
                return VChunk::from_chunk(out);
            }
            let r = exec_node(right, tables, workers, st)?;
            if *method == JoinMethod::Range {
                if !keys.is_empty() {
                    return Err(ExecError::InvalidPlan("range join cannot carry equi-keys".into()));
                }
                let pairs = vrange_join(&l, &r, ranges, workers, st.metrics)?;
                st.metrics.pair_lists += 1;
                st.metrics.tuples_emitted += pairs.len() as u64;
                st.metrics.range_join_rows += pairs.len() as u64;
                return Ok(VChunk::compose(l, r, &pairs));
            }
            if keys.is_empty() || *method == JoinMethod::NestedLoop {
                // Keyless joins degenerate to cartesian nested loops in
                // every method; NL over a materialized inner is the row
                // operator by definition.
                let (lc, rc) = (l.materialize()?, r.materialize()?);
                let out = match method {
                    JoinMethod::NestedLoop => nested_loop_join(&lc, &rc, keys, st.metrics)?,
                    JoinMethod::SortMerge => sort_merge_join(&lc, &rc, keys, st.metrics)?,
                    JoinMethod::Hash => hash_join(&lc, &rc, keys, st.metrics)?,
                    JoinMethod::IndexNestedLoop | JoinMethod::Range => {
                        unreachable!("handled above")
                    }
                };
                let out = crate::join::apply_join_ranges(out, ranges, st.metrics)?;
                return VChunk::from_chunk(out);
            }
            let pairs = match method {
                JoinMethod::SortMerge => vsort_merge(&l, &r, keys, st.metrics)?,
                JoinMethod::Hash => vhash_join(&l, &r, keys, workers, st.metrics)?,
                JoinMethod::NestedLoop | JoinMethod::IndexNestedLoop | JoinMethod::Range => {
                    unreachable!("handled above")
                }
            };
            st.metrics.pair_lists += 1;
            st.metrics.tuples_emitted += pairs.len() as u64;
            let pairs = filter_pairs_by_ranges(&l, &r, pairs, ranges, st.metrics)?;
            Ok(VChunk::compose(l, r, &pairs))
        }
    }
}

/// One side's key column viewed through its selection: the physical column
/// plus the logical-row → physical-row mapping.
struct SideKey<'a> {
    col: &'a ColumnVector,
    ids: &'a [u32],
}

impl<'a> SideKey<'a> {
    /// The side as raw `i64` slices, when its key column is `Int`.
    fn int_keys(&self) -> Option<IntKeys<'a>> {
        Some(IntKeys { data: self.col.as_int_slice()?, valid: self.col.validity(), ids: self.ids })
    }
}

fn side_keys<'a>(
    v: &'a VChunk,
    refs: impl Iterator<Item = ColumnRef>,
) -> ExecResult<Vec<SideKey<'a>>> {
    refs.map(|c| {
        let (si, pos) = v.resolve(c).ok_or(ExecError::ColumnNotInSchema(c))?;
        Ok(SideKey { col: v.source_column(si, pos)?, ids: &v.rowids[si] })
    })
    .collect()
}

/// Per-row composite hash keys for the generic join path; `None` marks a
/// row with a NULL key component (never matches).
fn gather_hash_keys(side: &[SideKey<'_>], len: usize) -> ExecResult<Vec<Option<Vec<HashKey>>>> {
    (0..len)
        .map(|j| {
            let mut ks = Vec::with_capacity(side.len());
            for sk in side {
                let v = sk.col.get(sk.ids[j] as usize)?;
                match hash_key(&v) {
                    None => return Ok(None),
                    Some(k) => ks.push(k),
                }
            }
            Ok(Some(ks))
        })
        .collect()
}

/// Non-NULL composite sort keys with their logical row ids, in row order
/// (so the stable sorts below permute exactly like the row path's).
fn gather_sort_keys(side: &[SideKey<'_>], len: usize) -> ExecResult<Vec<(Vec<Value>, u32)>> {
    let mut out = Vec::with_capacity(len);
    'rows: for j in 0..len {
        let mut ks = Vec::with_capacity(side.len());
        for sk in side {
            let v = sk.col.get(sk.ids[j] as usize)?;
            if v.is_null() {
                continue 'rows;
            }
            ks.push(v);
        }
        out.push((ks, crate::error::rowid(j)));
    }
    Ok(out)
}

/// One side's non-NULL `(key, logical row)` entries for a single range
/// column, in logical-row order (so the stable sort below permutes exactly
/// like the row operator's).
fn gather_range_keys(side: &SideKey<'_>, len: usize) -> ExecResult<Vec<(Value, u32)>> {
    let mut out = Vec::with_capacity(len);
    for j in 0..len {
        let v = side.col.get(side.ids[j] as usize)?;
        if !v.is_null() {
            out.push((v, crate::error::rowid(j)));
        }
    }
    Ok(out)
}

/// Vectorized band join on logical row ids — the late-materializing twin
/// of [`crate::join::range_join`]. Sorts both sides' keys once, binary
/// searches each outer key's band boundary ([`band_probe`]), and filters
/// candidates through residual ranges. The sorted outer side is probed in
/// the pieces [`morsel_pieces`] picks; they concatenate in piece order, and
/// the final left-major sort makes the pair list independent of the
/// schedule. Every logical-work counter is charged exactly as the row
/// operator charges it.
fn vrange_join(
    left: &VChunk,
    right: &VChunk,
    ranges: &[(ColumnRef, CmpOp, ColumnRef)],
    workers: usize,
    metrics: &mut ExecMetrics,
) -> ExecResult<Vec<(u32, u32)>> {
    let Some(&(lc, op, rc)) = ranges.first() else {
        return Err(ExecError::InvalidPlan("range join requires at least one range".into()));
    };
    if !op.is_range() {
        return Err(ExecError::InvalidPlan(format!("`{op}` cannot drive a range join")));
    }
    let lside = side_keys(left, std::iter::once(lc))?;
    let rside = side_keys(right, std::iter::once(rc))?;
    let mut lrows = gather_range_keys(&lside[0], left.len())?;
    let mut rrows = gather_range_keys(&rside[0], right.len())?;
    metrics.rows_sorted += (lrows.len() + rrows.len()) as u64;
    lrows.sort_by(|a, b| a.0.total_cmp(&b.0));
    rrows.sort_by(|a, b| a.0.total_cmp(&b.0));
    metrics.comparisons += sort_charge(lrows.len()) + sort_charge(rrows.len());
    metrics.comparisons += lrows.len() as u64 * probe_charge(rrows.len());
    let mut pairs = concat_pairs(morsel_pieces(workers, lrows.len(), metrics, |lo, hi| {
        band_probe(&lrows[lo..hi], &rrows, op)
    }));
    if ranges.len() > 1 {
        metrics.comparisons += pairs.len() as u64 * (ranges.len() - 1) as u64;
        pairs = retain_matching_pairs(left, right, pairs, &ranges[1..])?;
    }
    pairs.sort_unstable();
    Ok(pairs)
}

/// Residual inequality filter over a keyed join's pair list — the
/// late-materializing twin of [`crate::join::apply_join_ranges`], charging
/// the same one comparison per candidate pair per range.
fn filter_pairs_by_ranges(
    left: &VChunk,
    right: &VChunk,
    pairs: Vec<(u32, u32)>,
    ranges: &[(ColumnRef, CmpOp, ColumnRef)],
    metrics: &mut ExecMetrics,
) -> ExecResult<Vec<(u32, u32)>> {
    if ranges.is_empty() {
        return Ok(pairs);
    }
    metrics.comparisons += pairs.len() as u64 * ranges.len() as u64;
    retain_matching_pairs(left, right, pairs, ranges)
}

/// Keep the pairs whose row values satisfy every range (NULLs never
/// match). Pure filtering — the caller charges the comparisons.
fn retain_matching_pairs(
    left: &VChunk,
    right: &VChunk,
    pairs: Vec<(u32, u32)>,
    ranges: &[(ColumnRef, CmpOp, ColumnRef)],
) -> ExecResult<Vec<(u32, u32)>> {
    let lsides = side_keys(left, ranges.iter().map(|&(l, _, _)| l))?;
    let rsides = side_keys(right, ranges.iter().map(|&(_, _, r)| r))?;
    let ops: Vec<CmpOp> = ranges.iter().map(|&(_, o, _)| o).collect();
    let mut kept = Vec::with_capacity(pairs.len());
    'pairs: for (lj, rj) in pairs {
        for ((ls, rs), &o) in lsides.iter().zip(&rsides).zip(&ops) {
            let lv = ls.col.get(ls.ids[lj as usize] as usize)?;
            let rv = rs.col.get(rs.ids[rj as usize] as usize)?;
            if !range_pair_matches(&lv, &rv, o) {
                continue 'pairs;
            }
        }
        kept.push((lj, rj));
    }
    Ok(kept)
}

/// One distinct build key and where its rows sit in [`IntTable::rows`];
/// `len == 0` marks an empty slot.
#[derive(Clone, Copy, Default)]
struct Slot {
    key: i64,
    start: u32,
    len: u32,
}

/// The build side of an `i64` hash join: open addressing over the *distinct*
/// keys, in a power of two of at least twice the valid build rows (so the
/// load stays under one half and a linear probe always ends), plus every
/// bucket's logical rows back to back in `rows`, in row order. Two
/// allocations per build (one for a count), none per key.
struct IntTable {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps the product's high bits.
    shift: u32,
    rows: Vec<u32>,
    /// Least and greatest valid build key (`min > max` without one): a probe
    /// key outside them has no match and is not hashed.
    min: i64,
    max: i64,
}

impl IntTable {
    /// Count pass: one slot per distinct valid key, `len` its row count.
    /// With `with_rows`, two more passes lay the buckets out in `rows`:
    /// prefix sums leave each `start` at its bucket's end, then the valid
    /// rows, walked last to first, each step their bucket's `start` down
    /// and land there — so a bucket reads in ascending row order.
    fn build(keys: &IntKeys<'_>, with_rows: bool) -> IntTable {
        let (n, min, max) = keys
            .valid_keys()
            .fold((0usize, i64::MAX, i64::MIN), |(n, lo, hi), k| (n + 1, lo.min(k), hi.max(k)));
        let cap = (2 * n).next_power_of_two().max(2);
        let (slots, shift) = (vec![Slot::default(); cap], 64 - cap.trailing_zeros());
        let mut table = IntTable { slots, shift, rows: Vec::new(), min, max };
        for key in keys.valid_keys() {
            let at = table.slot_of(key);
            if let Some(slot) = table.slots.get_mut(at) {
                slot.key = key;
                slot.len += 1;
            }
        }
        if with_rows {
            let mut end = 0;
            for slot in &mut table.slots {
                end += slot.len;
                slot.start = end;
            }
            table.rows = vec![0; n];
            for (j, &rid) in keys.ids.iter().enumerate().rev() {
                let Some(key) = keys.key(rid) else { continue };
                let at = table.slot_of(key);
                let Some(slot) = table.slots.get_mut(at) else { continue };
                slot.start -= 1;
                if let Some(row) = table.rows.get_mut(slot.start as usize) {
                    *row = crate::error::rowid(j);
                }
            }
        }
        table
    }

    /// Index of the slot holding `key`, or of the empty one ending its probe.
    /// The probe starts at a multiplicative hash: sequential and power-of-two
    /// strided keys land far apart in the product's high bits.
    fn slot_of(&self, key: i64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = ((key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        while self.slots.get(i).is_some_and(|s| s.len != 0 && s.key != key) {
            i = (i + 1) & mask;
        }
        i
    }

    /// The bucket of `key`, if the build side holds it.
    fn find(&self, key: i64) -> Option<&Slot> {
        if key < self.min || key > self.max {
            return None;
        }
        self.slots.get(self.slot_of(key)).filter(|s| s.len != 0)
    }
}

/// One side's single `Int` key column as raw slices.
struct IntKeys<'a> {
    data: &'a [i64],
    valid: &'a [bool],
    ids: &'a [u32],
}

impl IntKeys<'_> {
    /// The key at physical row `rid`; `None` when it is NULL.
    fn key(&self, rid: u32) -> Option<i64> {
        let (ok, key) = (self.valid.get(rid as usize)?, self.data.get(rid as usize)?);
        ok.then_some(*key)
    }

    /// The non-NULL keys, in logical row order.
    fn valid_keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.ids.iter().filter_map(|&rid| self.key(rid))
    }
}

/// Vectorized hash join on logical row ids. Charges one `hash_probes` per
/// probe-side row (NULLs included), like the row path, and returns pairs in
/// left-major order (the row path's `rows.sort_unstable()`).
fn vhash_join(
    left: &VChunk,
    right: &VChunk,
    keys: &[(ColumnRef, ColumnRef)],
    workers: usize,
    metrics: &mut ExecMetrics,
) -> ExecResult<Vec<(u32, u32)>> {
    let lsides = side_keys(left, keys.iter().map(|&(l, _)| l))?;
    let rsides = side_keys(right, keys.iter().map(|&(_, r)| r))?;
    if let ([lk], [rk]) = (lsides.as_slice(), rsides.as_slice()) {
        if let (Some(build), Some(probe)) = (lk.int_keys(), rk.int_keys()) {
            return Ok(int_hash_join(&build, &probe, workers, metrics));
        }
        if let (Some(ld), Some(rd)) = (lk.col.as_str_slice(), rk.col.as_str_slice()) {
            let (lv, rv) = (lk.col.validity(), rk.col.validity());
            let mut table: HashMap<&str, Vec<u32>> = HashMap::new();
            for (j, &rid) in lk.ids.iter().enumerate() {
                if lv[rid as usize] {
                    table
                        .entry(ld[rid as usize].as_str())
                        .or_default()
                        .push(crate::error::rowid(j));
                }
            }
            metrics.hash_probes += rk.ids.len() as u64;
            let mut pairs = Vec::new();
            for (j, &rid) in rk.ids.iter().enumerate() {
                if rv[rid as usize] {
                    if let Some(ls) = table.get(rd[rid as usize].as_str()) {
                        for &lj in ls {
                            pairs.push((lj, crate::error::rowid(j)));
                        }
                    }
                }
            }
            pairs.sort_unstable();
            return Ok(pairs);
        }
    }
    // Generic path: composite and/or mixed-type keys through the same
    // normalized `HashKey` the row path uses.
    let mut table: HashMap<Vec<HashKey>, Vec<u32>> = HashMap::new();
    for (j, k) in gather_hash_keys(&lsides, left.len())?.into_iter().enumerate() {
        if let Some(k) = k {
            table.entry(k).or_default().push(crate::error::rowid(j));
        }
    }
    metrics.hash_probes += right.len() as u64;
    let mut pairs = Vec::new();
    for (j, k) in gather_hash_keys(&rsides, right.len())?.into_iter().enumerate() {
        if let Some(k) = k {
            if let Some(ls) = table.get(&k) {
                for &lj in ls {
                    pairs.push((lj, crate::error::rowid(j)));
                }
            }
        }
    }
    pairs.sort_unstable();
    Ok(pairs)
}

/// Fused counting twin of [`vhash_join`]: the same three key paths with
/// the same `hash_probes` charge, but only a running count crosses the
/// probe loop — no `(u32, u32)` pair list is ever allocated (so the
/// `pair_lists` counter stays untouched) and the build tables hold bucket
/// *sizes*, not row-id lists, where possible.
fn vhash_count(
    left: &VChunk,
    right: &VChunk,
    keys: &[(ColumnRef, ColumnRef)],
    workers: usize,
    metrics: &mut ExecMetrics,
) -> ExecResult<u64> {
    let lsides = side_keys(left, keys.iter().map(|&(l, _)| l))?;
    let rsides = side_keys(right, keys.iter().map(|&(_, r)| r))?;
    if let ([lk], [rk]) = (lsides.as_slice(), rsides.as_slice()) {
        if let (Some(build), Some(probe)) = (lk.int_keys(), rk.int_keys()) {
            return Ok(int_hash_count(&build, &probe, workers, metrics));
        }
        if let (Some(ld), Some(rd)) = (lk.col.as_str_slice(), rk.col.as_str_slice()) {
            let (lv, rv) = (lk.col.validity(), rk.col.validity());
            let mut table: HashMap<&str, u64> = HashMap::new();
            for &rid in lk.ids {
                if lv[rid as usize] {
                    *table.entry(ld[rid as usize].as_str()).or_default() += 1;
                }
            }
            metrics.hash_probes += rk.ids.len() as u64;
            let mut n = 0u64;
            for &rid in rk.ids {
                if rv[rid as usize] {
                    n += table.get(rd[rid as usize].as_str()).copied().unwrap_or(0);
                }
            }
            return Ok(n);
        }
    }
    let mut table: HashMap<Vec<HashKey>, u64> = HashMap::new();
    for k in gather_hash_keys(&lsides, left.len())?.into_iter().flatten() {
        *table.entry(k).or_default() += 1;
    }
    metrics.hash_probes += right.len() as u64;
    let mut n = 0u64;
    for k in gather_hash_keys(&rsides, right.len())?.into_iter().flatten() {
        n += table.get(&k).copied().unwrap_or(0);
    }
    Ok(n)
}

/// `i64` fast path: one shared table built serially, probed in the pieces
/// [`morsel_pieces`] picks. Charges one `hash_probes` per probe-side row
/// (NULLs included, like the row path).
fn int_hash_join(
    build: &IntKeys<'_>,
    probe: &IntKeys<'_>,
    workers: usize,
    metrics: &mut ExecMetrics,
) -> Vec<(u32, u32)> {
    metrics.hash_probes += probe.ids.len() as u64;
    let table = IntTable::build(build, true);
    let mut pairs = concat_pairs(morsel_pieces(workers, probe.ids.len(), metrics, |lo, hi| {
        probe_morsel(&table, probe, lo, hi)
    }));
    pairs.sort_unstable();
    pairs
}

/// Fused counting twin of [`int_hash_join`]: identical table, pieces, and
/// counter charges, but sums matching-bucket sizes instead of allocating a
/// pair list. A count is additive, so no merge order or final sort is
/// needed for determinism.
fn int_hash_count(
    build: &IntKeys<'_>,
    probe: &IntKeys<'_>,
    workers: usize,
    metrics: &mut ExecMetrics,
) -> u64 {
    metrics.hash_probes += probe.ids.len() as u64;
    let table = IntTable::build(build, false);
    morsel_pieces(workers, probe.ids.len(), metrics, |lo, hi| count_morsel(&table, probe, lo, hi))
        .into_iter()
        .sum()
}

/// Probe rows `lo..hi`, emitting `(build row, probe row)` logical pairs.
fn probe_morsel(table: &IntTable, probe: &IntKeys<'_>, lo: usize, hi: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for (j, &rid) in (lo..hi).zip(probe.ids.get(lo..hi).unwrap_or_default()) {
        if let Some(slot) = probe.key(rid).and_then(|key| table.find(key)) {
            let (start, rj) = (slot.start as usize, crate::error::rowid(j));
            let bucket = table.rows.get(start..start + slot.len as usize).unwrap_or_default();
            pairs.extend(bucket.iter().map(|&lj| (lj, rj)));
        }
    }
    pairs
}

/// Counting twin of [`probe_morsel`].
fn count_morsel(table: &IntTable, probe: &IntKeys<'_>, lo: usize, hi: usize) -> u64 {
    let ids = probe.ids.get(lo..hi).unwrap_or_default();
    ids.iter().filter_map(|&rid| table.find(probe.key(rid)?)).map(|s| u64::from(s.len)).sum()
}

/// Vectorized sort-merge join on logical row ids; replicates the row
/// algorithm (stable key sorts, `n log n` sort charge, one comparison per
/// merge iteration, equal-run cross products) so counters and output order
/// match exactly.
fn vsort_merge(
    left: &VChunk,
    right: &VChunk,
    keys: &[(ColumnRef, ColumnRef)],
    metrics: &mut ExecMetrics,
) -> ExecResult<Vec<(u32, u32)>> {
    let lsides = side_keys(left, keys.iter().map(|&(l, _)| l))?;
    let rsides = side_keys(right, keys.iter().map(|&(_, r)| r))?;
    if let ([lk], [rk]) = (lsides.as_slice(), rsides.as_slice()) {
        if let (Some(l), Some(r)) = (lk.int_keys(), rk.int_keys()) {
            return Ok(int_sort_merge(&l, &r, metrics));
        }
    }
    let mut lrows = gather_sort_keys(&lsides, left.len())?;
    let mut rrows = gather_sort_keys(&rsides, right.len())?;
    metrics.rows_sorted += (lrows.len() + rrows.len()) as u64;
    lrows.sort_by(|a, b| cmp_key_slices(&a.0, &b.0));
    rrows.sort_by(|a, b| cmp_key_slices(&a.0, &b.0));
    metrics.comparisons += sort_charge(lrows.len()) + sort_charge(rrows.len());
    let mut pairs = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lrows.len() && j < rrows.len() {
        metrics.comparisons += 1;
        match cmp_key_slices(&lrows[i].0, &rrows[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let mut ie = i + 1;
                while ie < lrows.len() && cmp_key_slices(&lrows[ie].0, &lrows[i].0).is_eq() {
                    ie += 1;
                }
                let mut je = j + 1;
                while je < rrows.len() && cmp_key_slices(&rrows[je].0, &rrows[j].0).is_eq() {
                    je += 1;
                }
                for lrow in &lrows[i..ie] {
                    for rrow in &rrows[j..je] {
                        pairs.push((lrow.1, rrow.1));
                    }
                }
                i = ie;
                j = je;
            }
        }
    }
    Ok(pairs)
}

/// `i64` fast path of [`vsort_merge`]: sorts `(key, row)` pairs instead of
/// allocating `Vec<Value>` per row. `i64::cmp` orders identically to
/// `Value::total_cmp` on `Int`s, so the permutation (and every counter)
/// matches the generic algorithm.
fn int_sort_merge(l: &IntKeys<'_>, r: &IntKeys<'_>, metrics: &mut ExecMetrics) -> Vec<(u32, u32)> {
    let collect = |k: &IntKeys<'_>| -> Vec<(i64, u32)> {
        let keyed = |(j, &rid)| Some((k.key(rid)?, crate::error::rowid(j)));
        k.ids.iter().enumerate().filter_map(keyed).collect()
    };
    let mut lrows = collect(l);
    let mut rrows = collect(r);
    metrics.rows_sorted += (lrows.len() + rrows.len()) as u64;
    lrows.sort_by_key(|e| e.0);
    rrows.sort_by_key(|e| e.0);
    metrics.comparisons += sort_charge(lrows.len()) + sort_charge(rrows.len());
    let mut pairs = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lrows.len() && j < rrows.len() {
        metrics.comparisons += 1;
        match lrows[i].0.cmp(&rrows[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let mut ie = i + 1;
                while ie < lrows.len() && lrows[ie].0 == lrows[i].0 {
                    ie += 1;
                }
                let mut je = j + 1;
                while je < rrows.len() && rrows[je].0 == rrows[j].0 {
                    je += 1;
                }
                for &(_, lj) in &lrows[i..ie] {
                    for &(_, rj) in &rrows[j..je] {
                        pairs.push((lj, rj));
                    }
                }
                i = ie;
                j = je;
            }
        }
    }
    pairs
}

/// Fused counting twin of [`vsort_merge`]: identical sorts, sort charges,
/// and merge loop, but an equal run contributes `|left run| * |right run|`
/// to a running count instead of materializing its cross product.
fn vsort_merge_count(
    left: &VChunk,
    right: &VChunk,
    keys: &[(ColumnRef, ColumnRef)],
    metrics: &mut ExecMetrics,
) -> ExecResult<u64> {
    let lsides = side_keys(left, keys.iter().map(|&(l, _)| l))?;
    let rsides = side_keys(right, keys.iter().map(|&(_, r)| r))?;
    if let ([lk], [rk]) = (lsides.as_slice(), rsides.as_slice()) {
        if let (Some(l), Some(r)) = (lk.int_keys(), rk.int_keys()) {
            return Ok(int_sort_merge_count(&l, &r, metrics));
        }
    }
    let mut lrows = gather_sort_keys(&lsides, left.len())?;
    let mut rrows = gather_sort_keys(&rsides, right.len())?;
    metrics.rows_sorted += (lrows.len() + rrows.len()) as u64;
    lrows.sort_by(|a, b| cmp_key_slices(&a.0, &b.0));
    rrows.sort_by(|a, b| cmp_key_slices(&a.0, &b.0));
    metrics.comparisons += sort_charge(lrows.len()) + sort_charge(rrows.len());
    let mut n = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < lrows.len() && j < rrows.len() {
        metrics.comparisons += 1;
        match cmp_key_slices(&lrows[i].0, &rrows[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let mut ie = i + 1;
                while ie < lrows.len() && cmp_key_slices(&lrows[ie].0, &lrows[i].0).is_eq() {
                    ie += 1;
                }
                let mut je = j + 1;
                while je < rrows.len() && cmp_key_slices(&rrows[je].0, &rrows[j].0).is_eq() {
                    je += 1;
                }
                n += ((ie - i) * (je - j)) as u64;
                i = ie;
                j = je;
            }
        }
    }
    Ok(n)
}

/// `i64` fast path of [`vsort_merge_count`] (see [`int_sort_merge`]).
fn int_sort_merge_count(l: &IntKeys<'_>, r: &IntKeys<'_>, metrics: &mut ExecMetrics) -> u64 {
    let collect = |k: &IntKeys<'_>| -> Vec<i64> {
        // Sized for every id: `collect` on a filter grows by doubling, one
        // `realloc` (and arena lock) per step.
        let mut rows = Vec::with_capacity(k.ids.len());
        rows.extend(k.valid_keys());
        rows
    };
    let mut lrows = collect(l);
    let mut rrows = collect(r);
    metrics.rows_sorted += (lrows.len() + rrows.len()) as u64;
    lrows.sort_unstable();
    rrows.sort_unstable();
    metrics.comparisons += sort_charge(lrows.len()) + sort_charge(rrows.len());
    let mut n = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < lrows.len() && j < rrows.len() {
        metrics.comparisons += 1;
        match lrows[i].cmp(&rrows[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let mut ie = i + 1;
                while ie < lrows.len() && lrows[ie] == lrows[i] {
                    ie += 1;
                }
                let mut je = j + 1;
                while je < rrows.len() && rrows[je] == rrows[j] {
                    je += 1;
                }
                n += ((ie - i) * (je - j)) as u64;
                i = ie;
                j = je;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};

    fn int_keys_table(name: &str, rows: usize, modulo: i64) -> Arc<Table> {
        let t = TableSpec::new(name, rows)
            .column(ColumnSpec::new("k", Distribution::UniformInt { lo: 0, hi: modulo }))
            .generate(rows as u64);
        Arc::new(t)
    }

    /// Sizes straddling the parallel threshold, one below it that is not a
    /// whole number of morsels, and one well above it.
    const PIECE_SIZES: [usize; 5] = [
        PARALLEL_MIN_ROWS - 1,
        PARALLEL_MIN_ROWS,
        PARALLEL_MIN_ROWS + 1,
        3 * MORSEL_ROWS + 7,
        3 * PARALLEL_MIN_ROWS,
    ];

    #[test]
    fn parallel_probe_matches_serial_and_counts_morsels() {
        let build = int_keys_table("b", 500, 400);
        let bids: Vec<u32> = (0..build.num_rows() as u32).collect();
        let bcol = build.column(0).unwrap();
        let bk = IntKeys { data: bcol.as_int_slice().unwrap(), valid: bcol.validity(), ids: &bids };
        for rows in PIECE_SIZES {
            let probe = int_keys_table("p", rows, 400);
            let pids: Vec<u32> = (0..rows as u32).collect();
            let pcol = probe.column(0).unwrap();
            let pk =
                IntKeys { data: pcol.as_int_slice().unwrap(), valid: pcol.validity(), ids: &pids };
            let mut serial_m = ExecMetrics::default();
            let serial = int_hash_join(&bk, &pk, 1, &mut serial_m);
            assert!(!serial.is_empty());
            assert_eq!(
                serial_m.morsels,
                rows.div_ceil(MORSEL_ROWS) as u64,
                "serial probe reports the same morsel count the parallel path dispatches"
            );
            for workers in [1, 2, 3, 8] {
                let ctx = format!("rows={rows} workers={workers}");
                let mut m = ExecMetrics::default();
                assert_eq!(int_hash_join(&bk, &pk, workers, &mut m), serial, "{ctx}");
                let mut cm = ExecMetrics::default();
                assert_eq!(
                    int_hash_count(&bk, &pk, workers, &mut cm),
                    serial.len() as u64,
                    "{ctx}"
                );
                for metrics in [&m, &cm] {
                    assert_eq!(metrics.morsels, serial_m.morsels, "{ctx}");
                    assert_eq!(metrics.hash_probes, serial_m.hash_probes, "{ctx}");
                    if workers == 1 || rows < PARALLEL_MIN_ROWS {
                        assert_eq!(metrics.steals, 0, "{ctx}: the scheduler must not run");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_band_probe_matches_serial_and_counts_morsels() {
        // Keys drawn from a narrow domain so bands overlap heavily; a small
        // inner keeps the pair lists (outer × about half of it) cheap.
        let rinner = int_keys_table("r", 50, 300);
        let rv = VChunk::scan(1, Arc::clone(&rinner), (0..rinner.num_rows() as u32).collect());
        let ranges = vec![(ColumnRef::new(0, 0), CmpOp::Lt, ColumnRef::new(1, 0))];
        for rows in PIECE_SIZES {
            let louter = int_keys_table("l", rows, 300);
            let lv = VChunk::scan(0, Arc::clone(&louter), (0..rows as u32).collect());
            let mut serial_m = ExecMetrics::default();
            let serial = vrange_join(&lv, &rv, &ranges, 1, &mut serial_m).unwrap();
            assert!(!serial.is_empty());
            assert_eq!(serial_m.morsels, rows.div_ceil(MORSEL_ROWS) as u64);
            for workers in [1, 2, 3, 8] {
                let ctx = format!("rows={rows} workers={workers}");
                let mut m = ExecMetrics::default();
                let pairs = vrange_join(&lv, &rv, &ranges, workers, &mut m).unwrap();
                assert_eq!(pairs, serial, "{ctx}");
                assert_eq!(m.morsels, serial_m.morsels, "{ctx}");
                assert_eq!(m.comparisons, serial_m.comparisons, "{ctx}");
                assert_eq!(m.rows_sorted, serial_m.rows_sorted, "{ctx}");
                if workers == 1 || rows < PARALLEL_MIN_ROWS {
                    assert_eq!(m.steals, 0, "{ctx}: the scheduler must not run");
                }
            }
        }
    }

    #[test]
    fn stealing_join_and_count_match_serial_with_interleaved_nulls() {
        // Handmade keys with interleaved NULLs so validity filtering is
        // exercised on both sides, in the build and in every probe morsel.
        let bdata: Vec<i64> = (0..600).map(|i| i % 97).collect();
        let bvalid: Vec<bool> = (0..600).map(|i| i % 13 != 0).collect();
        let pdata: Vec<i64> = (0..3 * PARALLEL_MIN_ROWS as i64).map(|i| i % 97).collect();
        let pvalid: Vec<bool> = (0..pdata.len()).map(|i| i % 7 != 0).collect();
        let bids: Vec<u32> = (0..bdata.len() as u32).collect();
        let pids: Vec<u32> = (0..pdata.len() as u32).collect();
        let bk = IntKeys { data: &bdata, valid: &bvalid, ids: &bids };
        let pk = IntKeys { data: &pdata, valid: &pvalid, ids: &pids };
        let mut base_m = ExecMetrics::default();
        let base = int_hash_join(&bk, &pk, 1, &mut base_m);
        assert!(!base.is_empty());
        for workers in [1, 2, 3, 8] {
            let ctx = format!("workers={workers}");
            let mut m = ExecMetrics::default();
            let pairs = int_hash_join(&bk, &pk, workers, &mut m);
            assert_eq!(pairs, base, "{ctx}");
            let mut cm = ExecMetrics::default();
            let n = int_hash_count(&bk, &pk, workers, &mut cm);
            assert_eq!(n, base.len() as u64, "{ctx}");
            for metrics in [&m, &cm] {
                assert_eq!(metrics.hash_probes, base_m.hash_probes, "{ctx}");
                assert_eq!(metrics.morsels, base_m.morsels, "{ctx}");
            }
        }
    }

    #[test]
    fn stealing_join_handles_empty_and_all_null_sides() {
        let pdata: Vec<i64> = (0..2 * PARALLEL_MIN_ROWS as i64).collect();
        let pvalid = vec![true; pdata.len()];
        let pids: Vec<u32> = (0..pdata.len() as u32).collect();
        let pk = IntKeys { data: &pdata, valid: &pvalid, ids: &pids };
        let empty = IntKeys { data: &[], valid: &[], ids: &[] };
        let nulls_data = vec![7i64; 100];
        let nulls_valid = vec![false; 100];
        let nulls_ids: Vec<u32> = (0..100).collect();
        let nulls = IntKeys { data: &nulls_data, valid: &nulls_valid, ids: &nulls_ids };
        for workers in [1, 2, 3, 8] {
            let mut m = ExecMetrics::default();
            assert!(int_hash_join(&empty, &pk, workers, &mut m).is_empty());
            assert_eq!(int_hash_count(&empty, &pk, workers, &mut m), 0);
            assert!(int_hash_join(&nulls, &pk, workers, &mut m).is_empty());
            assert_eq!(int_hash_count(&nulls, &pk, workers, &mut m), 0);
            assert!(int_hash_join(&pk, &empty, workers, &mut m).is_empty());
            assert_eq!(int_hash_count(&pk, &nulls, workers, &mut m), 0);
        }
    }

    /// One side of a handmade join: keys with NULLs, identity selection.
    struct Side {
        data: Vec<i64>,
        valid: Vec<bool>,
        ids: Vec<u32>,
    }

    impl Side {
        fn new(keys: impl IntoIterator<Item = Option<i64>>) -> Side {
            let keys: Vec<Option<i64>> = keys.into_iter().collect();
            Side {
                data: keys.iter().map(|k| k.unwrap_or(0)).collect(),
                valid: keys.iter().map(Option::is_some).collect(),
                ids: (0..keys.len() as u32).collect(),
            }
        }

        fn keys(&self) -> IntKeys<'_> {
            IntKeys { data: &self.data, valid: &self.valid, ids: &self.ids }
        }
    }

    /// Every `(build row, probe row)` with equal non-NULL keys, left-major.
    fn nested_loop_oracle(build: &Side, probe: &Side) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (i, (b, bok)) in build.data.iter().zip(&build.valid).enumerate() {
            for (j, (p, pok)) in probe.data.iter().zip(&probe.valid).enumerate() {
                if *bok && *pok && b == p {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        pairs
    }

    #[test]
    fn flat_table_matches_a_nested_loop_on_adversarial_keys() {
        let big = PARALLEL_MIN_ROWS as i64 + 100;
        let extremes = |n: i64| (0..n).map(|i| Some([i64::MIN, i64::MAX, 0, -1][i as usize % 4]));
        let strided = |shift: u32, n: i64| (0..n).map(move |i| Some((i - n / 2) << shift));
        let some_null = |n: i64| (0..n).map(|i| (i % 5 != 0).then_some(i % 200));
        let cases: Vec<(&str, Side, Side)> = vec![
            ("extreme keys", Side::new(extremes(40)), Side::new(extremes(big))),
            ("one key", Side::new((0..50).map(|_| Some(7))), Side::new((0..big).map(|_| Some(7)))),
            ("all distinct", Side::new((0..300).map(Some)), Side::new((0..big).map(Some))),
            ("stride 2^16", Side::new(strided(16, 300)), Side::new(strided(16, big))),
            ("stride 2^32", Side::new(strided(32, 300)), Side::new(strided(32, big))),
            ("build larger than probe", Side::new(some_null(big)), Side::new(some_null(150))),
            (
                "outside the build's key range",
                Side::new((50..60).map(Some)),
                Side::new(some_null(big)),
            ),
        ];
        for (name, build, probe) in &cases {
            let expect = nested_loop_oracle(build, probe);
            assert!(!expect.is_empty(), "{name}");
            for workers in [1, 2, 3, 8] {
                let ctx = format!("{name}, workers={workers}");
                let mut m = ExecMetrics::default();
                assert_eq!(
                    int_hash_join(&build.keys(), &probe.keys(), workers, &mut m),
                    expect,
                    "{ctx}"
                );
                let mut cm = ExecMetrics::default();
                let n = int_hash_count(&build.keys(), &probe.keys(), workers, &mut cm);
                assert_eq!(n, expect.len() as u64, "{ctx}");
                assert_eq!(
                    m.hash_probes,
                    probe.ids.len() as u64,
                    "{ctx}: pruned probes are charged"
                );
                assert_eq!(cm.hash_probes, m.hash_probes, "{ctx}");
            }
        }
    }

    #[test]
    fn int_table_keeps_probe_sequences_short_for_sequential_and_strided_keys() {
        // A probe never leaves the run of occupied slots it starts in, so
        // the longest run (cyclically) bounds every probe sequence. Patterned
        // keys are where a multiplicative hash does best.
        const LONGEST_RUN: usize = 8;
        for shift in [0u32, 1, 4, 16, 32, 48] {
            for n in [1_000i64, 4_096, 5_000] {
                let side = Side::new((0..n).map(|i| Some((i - n / 2) << shift)));
                let table = IntTable::build(&side.keys(), true);
                assert!(table.slots.len() >= 2 * n as usize && table.slots.len() < 4 * n as usize);
                assert!(side.data.iter().all(|&k| table.find(k).is_some_and(|s| s.len == 1)));
                let (mut run, mut longest) = (0, 0);
                for slot in table.slots.iter().chain(&table.slots) {
                    run = if slot.len == 0 { 0 } else { run + 1 };
                    longest = longest.max(run);
                }
                assert!(
                    longest <= LONGEST_RUN,
                    "stride 2^{shift}, {n} keys: {longest} occupied slots in a row"
                );
            }
        }
    }
}
