//! Late-materializing vectorized plan evaluation (DESIGN.md §4c).
//!
//! Instead of materializing a full [`Chunk`] at every operator (the
//! row-at-a-time path clones whole tables at scans and gathers every column
//! at every join), this evaluator carries **row-id selections over the
//! stored tables**:
//!
//! * a scan produces a selection vector over the stored table (built by the
//!   typed filter kernels in [`crate::filter::filter_selection`]) — no data
//!   is copied;
//! * every join produces a pair list of logical row ids, which is
//!   *composed* with the inputs' selections — still no data copied;
//! * only the plan root gathers each surviving column once
//!   ([`VChunk::materialize`]), or never, for `COUNT(*)` outputs, whose
//!   root also fuses the join with the count ([`execute_root_count`]).
//!
//! One kernel per join shape: the hash join (`vhash_join`: `IntTable` over
//! raw `i64` slices when every key pair is `Int`/`Int`, exact — see
//! `HashKey` in [`crate::join`] for the 2⁵³ story — and a generic fallback
//! otherwise), the sort-merge (`vsort_merge`), the band join
//! (`vrange_join`), nested loops over a rescanned or an evaluated inner
//! (`nested_loop`, whose rescans are charged, in order, without being
//! performed) and indexed nested loops (`index_nested_loop`, probing the
//! [`SortedIndex`] the row path builds). `morsel_pieces` is the one place
//! an operator goes parallel; results do not depend on the worker count.
//! Every operator charges exactly the counters the row-at-a-time oracle
//! charges (a property the differential tests assert), so plan-quality
//! experiments are unaffected by the execution mode; [`crate::join`] and
//! [`crate::index`] are used here for shared data structures and charge
//! formulas only.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use els_core::predicate::CmpOp;
use els_core::ColumnRef;
use els_storage::column::ValueRef;
use els_storage::{ColumnVector, Table, Value, PAGE_SIZE_BYTES};

use crate::chunk::Chunk;
use crate::error::{rowid, ExecError, ExecResult};
use crate::executor::ExecState;
use crate::filter::{bind_filters, filter_selection, CompiledFilter};
use crate::index::SortedIndex;
use crate::join::{
    band_probe, cmp_key_slices, hash_key, probe_charge, range_ref_matches, sort_charge, HashKey,
};
use crate::metrics::ExecMetrics;
use crate::plan::{JoinMethod, PlanNode};

/// Probe rows per morsel handed to one parallel worker.
pub const MORSEL_ROWS: usize = 2048;

/// Minimum probe rows before the parallel path engages: four morsels, so
/// that waking a parked helper (no thread is spawned per join) buys it
/// more than one task. A constant, not a fitted value. Public so the
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

/// Concatenate per-piece pair lists in piece order, into one allocation of
/// the summed length (growing the first piece instead is a `realloc`, and
/// an arena lock, per doubling). The serial path's single piece is returned
/// as it is, not copied.
fn concat_pairs(mut pieces: Vec<Vec<(u32, u32)>>) -> Vec<(u32, u32)> {
    if pieces.len() <= 1 {
        return pieces.pop().unwrap_or_default();
    }
    let mut pairs = Vec::with_capacity(pieces.iter().map(Vec::len).sum());
    pieces.iter().for_each(|piece| pairs.extend_from_slice(piece));
    pairs
}

/// A selection over a stored base table (shared, never copied) behind its
/// query `table_id`: the only thing a chunk is made of.
struct VSource {
    table_id: usize,
    data: Arc<Table>,
    rows: Vec<u32>,
}

/// A late-materialized intermediate result: one source or more, all of one
/// length. Logical row `j` of the chunk is row `rows[j]` of every source.
pub(crate) struct VChunk {
    sources: Vec<VSource>,
}

impl VChunk {
    /// A filtered scan: the stored table plus its selection vector.
    fn scan(table_id: usize, data: Arc<Table>, rows: Vec<u32>) -> VChunk {
        VChunk { sources: vec![VSource { table_id, data, rows }] }
    }

    /// Number of logical rows.
    pub(crate) fn len(&self) -> usize {
        self.sources.first().map_or(0, |src| src.rows.len())
    }

    /// Resolve a query column to `(source index, column position)`,
    /// searching sources left to right — the same order the row path's
    /// `Chunk::position_of` searches the concatenated join schema.
    fn resolve(&self, c: ColumnRef) -> Option<(usize, usize)> {
        let holds = |src: &VSource| c.table == src.table_id && c.column < src.data.num_columns();
        Some((self.sources.iter().position(holds)?, c.column))
    }

    /// Simulated pages of the chunk the row path would have materialized
    /// here: every source's columns side by side, `len` rows of them.
    fn num_pages(&self) -> usize {
        let row_bytes: usize = self.sources.iter().map(|s| s.data.estimated_row_bytes()).sum();
        self.len().div_ceil((PAGE_SIZE_BYTES / row_bytes.max(1)).max(1))
    }

    /// Compose a join's pair list with both inputs' selections: a source
    /// of the left input selects its `rows[l]` for every pair `(l, r)`, one
    /// of the right its `rows[r]`. No column data moves; this is the
    /// late-materialization step. A pair outside its input's selection
    /// selects a row outside every column, which the root's gather reports.
    fn compose(left: VChunk, right: VChunk, pairs: &[(u32, u32)]) -> VChunk {
        fn reselect(
            src: VSource,
            pairs: &[(u32, u32)],
            side: impl Fn(&(u32, u32)) -> u32,
        ) -> VSource {
            let row = |p| src.rows.get(side(p) as usize).copied().unwrap_or(u32::MAX);
            VSource { rows: pairs.iter().map(row).collect(), ..src }
        }
        let left = left.sources.into_iter().map(|src| reselect(src, pairs, |p| p.0));
        let right = right.sources.into_iter().map(|src| reselect(src, pairs, |p| p.1));
        VChunk { sources: left.chain(right).collect() }
    }

    /// Gather every column once, reproducing exactly the chunk the
    /// row-at-a-time path would have built: the base table's own names for
    /// a single scanned source, synthesized `t{T}_c{C}` names under table
    /// `join` for a join result. Called at the plan root only.
    pub(crate) fn materialize(&self) -> ExecResult<Chunk> {
        let (name, scanned) = match self.sources.as_slice() {
            [only] => (only.data.name(), true),
            _ => ("join", false),
        };
        let mut columns: Vec<(String, ColumnVector)> = Vec::new();
        let mut provenance: Vec<ColumnRef> = Vec::new();
        for VSource { table_id, data, rows } in &self.sources {
            for (ci, (own, col)) in data.column_names().iter().zip(data.columns()).enumerate() {
                let name = if scanned { own.clone() } else { format!("t{table_id}_c{ci}") };
                columns.push((name, col.gather_u32(rows)?));
                provenance.push(ColumnRef::new(*table_id, ci));
            }
        }
        Ok(Chunk { data: Table::new(name, columns)?, provenance })
    }
}

/// Fused `COUNT(*)` evaluation: when the plan root is a nested loop, or a
/// *keyed* hash or sort-merge join without residual ranges, count the
/// matches in one pass instead of building (and, for the hash join, merging
/// and sorting) the root's row-id pair list. Only the root can fuse — lower
/// joins' parents compose selections from their pair lists — and indexed
/// nested loops, band joins and residual-filtered roots take the general
/// path. Counters and observations are charged exactly as the unfused path
/// charges them, minus the `pair_lists` allocation the fusion removes.
pub(crate) fn execute_root_count(
    node: &PlanNode,
    tables: &[Arc<Table>],
    workers: usize,
    st: &mut ExecState<'_>,
) -> ExecResult<u64> {
    if let PlanNode::Join { method, left, right, keys, ranges } = node {
        let nested = is_nested_loop(*method, keys);
        let keyed = matches!(method, JoinMethod::Hash | JoinMethod::SortMerge);
        if nested || (keyed && ranges.is_empty()) {
            let start = crate::timing::Stopwatch::start();
            let l = exec_node(left, tables, workers, st)?;
            let mut n = 0u64;
            if nested {
                let r = nested_loop_inner(l.len(), *method, right, tables, workers, st)?;
                nested_loop(&l, &r, keys, ranges, st.metrics, |_, _| n += 1)?;
            } else {
                let r = exec_node(right, tables, workers, st)?;
                n = match method {
                    JoinMethod::Hash => vhash_join(&l, &r, keys, workers, st.metrics, None)?,
                    _ => vsort_merge(&l, &r, keys, st.metrics, None)?,
                };
                st.metrics.tuples_emitted += n;
            }
            st.obs.join_outputs.push((node.tables(), n));
            st.obs.join_elapsed.push(start.elapsed());
            return Ok(n);
        }
    }
    Ok(exec_node(node, tables, workers, st)?.len() as u64)
}

/// Evaluate a plan (sub)tree into its late-materialized result, recording
/// the same per-operator observations (in the same post-order) as the row
/// path.
pub(crate) fn exec_node(
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
            let sel = scan_selection(*table_id, data, filters, st.metrics)?;
            st.metrics.tuples_emitted += sel.len() as u64;
            Ok(VChunk::scan(*table_id, Arc::clone(data), sel))
        }
        PlanNode::Join { method, left, right, keys, ranges } => {
            let l = exec_node(left, tables, workers, st)?;
            let mut pairs = Vec::new();
            let r = if *method == JoinMethod::IndexNestedLoop {
                let r = index_nested_loop(&l, right, keys, tables, st, &mut pairs)?;
                pairs = filter_pairs_by_ranges(&l, &r, pairs, ranges, st.metrics)?;
                r
            } else if is_nested_loop(*method, keys) {
                let r = nested_loop_inner(l.len(), *method, right, tables, workers, st)?;
                nested_loop(&l, &r, keys, ranges, st.metrics, |lj, rj| pairs.push((lj, rj)))?;
                r
            } else {
                let r = exec_node(right, tables, workers, st)?;
                if *method == JoinMethod::Range {
                    if !keys.is_empty() {
                        return Err(ExecError::InvalidPlan(
                            "range join cannot carry equi-keys".into(),
                        ));
                    }
                    pairs = vrange_join(&l, &r, ranges, workers, st.metrics)?;
                    st.metrics.tuples_emitted += pairs.len() as u64;
                    st.metrics.range_join_rows += pairs.len() as u64;
                } else {
                    if *method == JoinMethod::SortMerge {
                        vsort_merge(&l, &r, keys, st.metrics, Some(&mut pairs))?;
                    } else {
                        vhash_join(&l, &r, keys, workers, st.metrics, Some(&mut pairs))?;
                    }
                    st.metrics.tuples_emitted += pairs.len() as u64;
                    pairs = filter_pairs_by_ranges(&l, &r, pairs, ranges, st.metrics)?;
                }
                r
            };
            st.metrics.pair_lists += 1;
            Ok(VChunk::compose(l, r, &pairs))
        }
    }
}

/// The rows of stored table `table_id` that pass `filters`, ascending.
fn scan_selection(
    table_id: usize,
    data: &Table,
    filters: &[CompiledFilter],
    metrics: &mut ExecMetrics,
) -> ExecResult<Vec<u32>> {
    let ncols = data.num_columns();
    let bound =
        bind_filters(filters, |c| (c.table == table_id && c.column < ncols).then_some(c.column))?;
    let mut sel = Vec::new();
    filter_selection(data, &bound, &mut sel, metrics)?;
    Ok(sel)
}

/// Whether a join runs as nested loops: the method itself, and every keyless
/// hash or sort-merge join, which degenerates to the cartesian nested loop.
fn is_nested_loop(method: JoinMethod, keys: &[(ColumnRef, ColumnRef)]) -> bool {
    method == JoinMethod::NestedLoop
        || (keys.is_empty() && matches!(method, JoinMethod::Hash | JoinMethod::SortMerge))
}

/// The inner side of a nested loop under `outer` rows, with the simulated
/// cost of reading it once per outer row. A stored inner under
/// `NestedLoop` is what the row path *rescans* (System R's access pattern),
/// filtering on the fly: here its filters run once, and every rescan is
/// charged — a pass through the buffer pool per outer row, in outer order,
/// the stored rows scanned, the comparisons one filter pass makes — plus the
/// phantom scan observation the row path records. Any other inner is
/// evaluated once and charged, per outer row, the pages its materialized
/// rows would fill.
fn nested_loop_inner(
    outer: usize,
    method: JoinMethod,
    right: &PlanNode,
    tables: &[Arc<Table>],
    workers: usize,
    st: &mut ExecState<'_>,
) -> ExecResult<VChunk> {
    let outer = outer as u64;
    if let (JoinMethod::NestedLoop, PlanNode::Scan { table_id, filters }) = (method, right) {
        let data = tables.get(*table_id).ok_or(ExecError::UnknownTable(*table_id))?;
        let mut pass = ExecMetrics::default();
        let sel = scan_selection(*table_id, data, filters, &mut pass)?;
        st.metrics.kernel_rows += pass.kernel_rows;
        st.metrics.sel_reuses += pass.sel_reuses;
        st.metrics.comparisons += outer * pass.comparisons;
        st.metrics.tuples_scanned += outer * data.num_rows() as u64;
        for _ in 0..outer {
            st.io.scan_table(*table_id, data.num_pages() as u64, st.metrics);
        }
        st.obs.scan_outputs.push((*table_id, data.num_rows() as u64));
        st.obs.scan_elapsed.push(std::time::Duration::ZERO);
        return Ok(VChunk::scan(*table_id, Arc::clone(data), sel));
    }
    let r = exec_node(right, tables, workers, st)?;
    st.metrics.pages_read += outer * r.num_pages() as u64;
    Ok(r)
}

/// The nested-loops kernel: `emit` sees, outer-major and in row order, every
/// `(outer row, inner row)` whose `keys` are SQL-equal and whose `ranges`
/// ([`oriented`]) all hold. When every column involved is `Int` the loop
/// runs over `i64` slices; otherwise over borrowed cells, under the row
/// path's `sql_eq` and range semantics. Charges what the row operators
/// charge once the inner is in hand: `max(|keys|, 1)` comparisons per pair
/// examined, one more per range per key match, and the key matches as
/// `tuples_emitted`.
fn nested_loop(
    l: &VChunk,
    r: &VChunk,
    keys: &[(ColumnRef, ColumnRef)],
    ranges: &[(ColumnRef, CmpOp, ColumnRef)],
    metrics: &mut ExecMetrics,
    emit: impl FnMut(u32, u32),
) -> ExecResult<()> {
    let tests: Vec<(ColumnRef, CmpOp, ColumnRef)> = keys
        .iter()
        .map(|&(a, b)| (a, CmpOp::Eq, b))
        .chain(ranges.iter().map(|&range| oriented(l, range)))
        .collect();
    let outer = side_keys(l, tests.iter().map(|t| t.0))?;
    let inner = side_keys(r, tests.iter().map(|t| t.2))?;
    let sides = || outer.iter().zip(&inner).zip(&tests);
    let typed: Option<Vec<IntTest<'_>>> =
        sides().map(|((o, i), t)| Some(IntTest::new(o.int_keys()?, t.1, i.int_keys()?))).collect();
    let (nl, nr) = (rowid(l.len()), rowid(r.len()));
    let matched = if let Some(tests) = typed {
        let (keys, ranges) = tests.split_at(keys.len());
        let all = |tests: &[IntTest<'_>], lj, rj| tests.iter().all(|t| t.holds(lj, rj));
        pair_loop(nl, nr, |lj, rj| Ok(all(keys, lj, rj)), |lj, rj| Ok(all(ranges, lj, rj)), emit)?
    } else {
        let cells: Vec<_> = sides().map(|((o, i), t)| (o, t.1, i)).collect();
        let (keys, ranges) = cells.split_at(keys.len());
        pair_loop(
            nl,
            nr,
            |lj, rj| cells_hold(keys, lj, rj, |l, r, _| l.sql_eq(r)),
            |lj, rj| cells_hold(ranges, lj, rj, range_ref_matches),
            emit,
        )?
    };
    let examined = l.len() as u64 * r.len() as u64;
    metrics.comparisons += examined * keys.len().max(1) as u64 + matched * ranges.len() as u64;
    metrics.tuples_emitted += matched;
    Ok(())
}

/// The indexed nested loop: `pairs` receives, outer-major and in index
/// order, every `(outer row, stored inner row)` that agrees on all `keys`
/// and passes the inner's filters; the returned chunk is the stored inner,
/// unselected, which those inner rows address. Charges what the row
/// operator in [`crate::index`] charges, in its order: the index build (a
/// scan and a sort of the inner), then per outer row with a non-NULL probe
/// key one descent, and per hit one page read plus one comparison per filter
/// and per residual key tested, short-circuit. The filters run per hit, so
/// the inner's scan observation is its stored row count, with no time.
fn index_nested_loop(
    l: &VChunk,
    right: &PlanNode,
    keys: &[(ColumnRef, ColumnRef)],
    tables: &[Arc<Table>],
    st: &mut ExecState<'_>,
    pairs: &mut Vec<(u32, u32)>,
) -> ExecResult<VChunk> {
    let PlanNode::Scan { table_id, filters } = right else {
        return Err(ExecError::InvalidPlan(
            "index nested loops requires a base-table inner".into(),
        ));
    };
    let data = tables.get(*table_id).ok_or(ExecError::UnknownTable(*table_id))?;
    let Some((&(probe, indexed), residual)) = keys.split_first() else {
        return Err(ExecError::InvalidPlan(
            "index nested loops requires at least one join key".into(),
        ));
    };
    if indexed.table != *table_id || indexed.column >= data.num_columns() {
        return Err(ExecError::ColumnNotInSchema(indexed));
    }
    let index = SortedIndex::build(data, indexed.column)?;
    let r = VChunk::scan(*table_id, Arc::clone(data), (0..data.num_rows()).map(rowid).collect());
    let stored = data.num_rows() as u64;
    st.metrics.tuples_scanned += stored;
    st.io.scan_table(*table_id, data.num_pages() as u64, st.metrics);
    st.metrics.rows_sorted += stored;

    let probe = side_key(l, probe)?;
    let outer = side_keys(l, residual.iter().map(|k| k.0))?;
    let inner = side_keys(&r, residual.iter().map(|k| k.1))?;
    let filters = bind_filters(filters, |c| r.resolve(c).map(|(_, pos)| pos))?;
    let per_page = data.tuples_per_page().max(1) as u64;
    for lj in 0..rowid(l.len()) {
        let key = probe.value(lj)?.to_value();
        if key.is_null() {
            continue;
        }
        st.metrics.comparisons += index.descent_charge();
        'hit: for row in index.lookup(&key) {
            st.io.read_page(*table_id, row as u64 / per_page, st.metrics);
            for f in &filters {
                st.metrics.comparisons += 1;
                if !f.matches(data, row)? {
                    continue 'hit;
                }
            }
            let rj = rowid(row);
            for (o, i) in outer.iter().zip(&inner) {
                st.metrics.comparisons += 1;
                if !o.value(lj)?.sql_eq(i.value(rj)?) {
                    continue 'hit;
                }
            }
            pairs.push((lj, rj));
        }
    }
    st.metrics.tuples_emitted += pairs.len() as u64;
    st.obs.scan_outputs.push((*table_id, stored));
    st.obs.scan_elapsed.push(std::time::Duration::ZERO);
    Ok(r)
}

/// A join range with its first column on the `left` input's side. The row
/// path resolves a range's columns in the joined schema, so a plan may name
/// them in either order: one written right-to-left is mirrored.
fn oriented(
    left: &VChunk,
    (a, op, b): (ColumnRef, CmpOp, ColumnRef),
) -> (ColumnRef, CmpOp, ColumnRef) {
    match left.resolve(a) {
        Some(_) => (a, op, b),
        None => (b, op.flip(), a),
    }
}

/// The loop of [`nested_loop`]: `emit` every pair that passes `key` and then
/// `range`; returns how many passed `key`.
fn pair_loop(
    outer: u32,
    inner: u32,
    key: impl Fn(u32, u32) -> ExecResult<bool>,
    range: impl Fn(u32, u32) -> ExecResult<bool>,
    mut emit: impl FnMut(u32, u32),
) -> ExecResult<u64> {
    let mut matched = 0;
    for lj in 0..outer {
        for rj in 0..inner {
            if key(lj, rj)? {
                matched += 1;
                if range(lj, rj)? {
                    emit(lj, rj);
                }
            }
        }
    }
    Ok(matched)
}

/// Whether `holds(outer cell, inner cell, op)` for every test at the pair
/// `(lj, rj)`, short-circuit.
fn cells_hold(
    tests: &[(&SideKey<'_>, CmpOp, &SideKey<'_>)],
    lj: u32,
    rj: u32,
    holds: fn(ValueRef<'_>, ValueRef<'_>, CmpOp) -> bool,
) -> ExecResult<bool> {
    for (o, op, i) in tests {
        if !holds(o.value(lj)?, i.value(rj)?, *op) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `outer op inner` over two `Int` key columns. The operator is matched
/// once, here, into the set of orderings it accepts, so the loops that call
/// [`IntTest::holds`] per pair carry no branch on it.
struct IntTest<'a> {
    outer: IntKeys<'a>,
    inner: IntKeys<'a>,
    /// Accepted orderings, as the sum of their [`IntTest::bit`]s.
    accepts: u8,
}

impl<'a> IntTest<'a> {
    fn new(outer: IntKeys<'a>, op: CmpOp, inner: IntKeys<'a>) -> IntTest<'a> {
        let accepts = [Ordering::Less, Ordering::Equal, Ordering::Greater]
            .into_iter()
            .filter(|&ord| op.eval(ord))
            .map(IntTest::bit)
            .sum();
        IntTest { outer, inner, accepts }
    }

    fn bit(ord: Ordering) -> u8 {
        match ord {
            Ordering::Less => 1,
            Ordering::Equal => 2,
            Ordering::Greater => 4,
        }
    }

    /// Whether logical rows `lj` of the outer and `rj` of the inner side
    /// pass; a NULL on either side never does.
    fn holds(&self, lj: u32, rj: u32) -> bool {
        matches!(
            (self.outer.at(lj), self.inner.at(rj)),
            (Some(a), Some(b)) if self.accepts & IntTest::bit(a.cmp(&b)) != 0
        )
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

    /// The side's keys in logical row order (`None` for a NULL), when its
    /// key column is `Str`.
    fn str_keys(&self) -> Option<impl Iterator<Item = Option<&'a str>> + 'a> {
        let (data, valid) = (self.col.as_str_slice()?, self.col.validity());
        let key = move |&rid: &u32| {
            let (ok, key) = (valid.get(rid as usize)?, data.get(rid as usize)?);
            ok.then_some(key.as_str())
        };
        Some(self.ids.iter().map(key))
    }

    /// The physical row behind logical row `j`; outside the selection, a
    /// row outside every column.
    fn rid(&self, j: usize) -> usize {
        self.ids.get(j).map_or(usize::MAX, |&rid| rid as usize)
    }

    /// The cell of logical row `j`, borrowed; a row outside the selection
    /// or the column is an error.
    fn value(&self, j: u32) -> ExecResult<ValueRef<'a>> {
        Ok(self.col.value_ref(self.rid(j as usize))?)
    }
}

fn side_key(v: &VChunk, c: ColumnRef) -> ExecResult<SideKey<'_>> {
    let missing = || ExecError::ColumnNotInSchema(c);
    let (si, pos) = v.resolve(c).ok_or_else(missing)?;
    let src = v.sources.get(si).ok_or_else(missing)?;
    Ok(SideKey { col: src.data.column(pos)?, ids: &src.rows })
}

fn side_keys<'a>(
    v: &'a VChunk,
    refs: impl Iterator<Item = ColumnRef>,
) -> ExecResult<Vec<SideKey<'a>>> {
    refs.map(|c| side_key(v, c)).collect()
}

/// One side's key columns as raw `i64` slices, when every component is
/// `Int` — what the typed hash join and its fused count run on, a single
/// pair being the one-component case.
fn all_int_keys<'a>(side: &[SideKey<'a>]) -> Option<Vec<IntKeys<'a>>> {
    side.iter().map(SideKey::int_keys).collect()
}

/// Per-row composite hash keys for the generic join path; `None` marks a
/// row with a NULL key component (never matches).
fn gather_hash_keys(side: &[SideKey<'_>], len: usize) -> ExecResult<Vec<Option<Vec<HashKey>>>> {
    (0..len)
        .map(|j| {
            let mut ks = Vec::with_capacity(side.len());
            for sk in side {
                match hash_key(&sk.col.get(sk.rid(j))?) {
                    None => return Ok(None),
                    Some(k) => ks.push(k),
                }
            }
            Ok(Some(ks))
        })
        .collect()
}

/// Non-NULL composite sort keys with their logical row ids, in row order.
fn gather_sort_keys(side: &[SideKey<'_>], len: usize) -> ExecResult<Vec<(Vec<Value>, u32)>> {
    let mut out = Vec::with_capacity(len);
    'rows: for j in 0..len {
        let mut ks = Vec::with_capacity(side.len());
        for sk in side {
            let v = sk.col.get(sk.rid(j))?;
            if v.is_null() {
                continue 'rows;
            }
            ks.push(v);
        }
        out.push((ks, rowid(j)));
    }
    Ok(out)
}

/// One side's non-NULL `(key, logical row)` entries for a single range
/// column, in logical-row order (so the stable sort below permutes exactly
/// like the row operator's).
fn gather_range_keys(side: &SideKey<'_>, len: usize) -> ExecResult<Vec<(Value, u32)>> {
    let mut out = Vec::with_capacity(len);
    for j in 0..len {
        let v = side.col.get(side.rid(j))?;
        if !v.is_null() {
            out.push((v, rowid(j)));
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
    let Some((&(lc, op, rc), residual)) = ranges.split_first() else {
        return Err(ExecError::InvalidPlan("range join requires at least one range".into()));
    };
    let mut lrows = gather_range_keys(&side_key(left, lc)?, left.len())?;
    let mut rrows = gather_range_keys(&side_key(right, rc)?, right.len())?;
    metrics.rows_sorted += (lrows.len() + rrows.len()) as u64;
    lrows.sort_by(|a, b| a.0.total_cmp(&b.0));
    rrows.sort_by(|a, b| a.0.total_cmp(&b.0));
    metrics.comparisons += sort_charge(lrows.len()) + sort_charge(rrows.len());
    metrics.comparisons += lrows.len() as u64 * probe_charge(rrows.len());
    let pieces = morsel_pieces(workers, lrows.len(), metrics, |lo, hi| {
        band_probe(lrows.get(lo..hi).unwrap_or_default(), &rrows, op)
    });
    let mut pairs = concat_pairs(pieces.into_iter().collect::<ExecResult<_>>()?);
    pairs = filter_pairs_by_ranges(left, right, pairs, residual, metrics)?;
    pairs.sort_unstable();
    Ok(pairs)
}

/// Residual inequality filter over a pair list, charging what the row
/// path's residual filter over a joined chunk charges — one comparison per
/// candidate pair per range — and keeping the pairs that
/// satisfy every range (NULLs never match). Each range is one pass over the
/// survivors: over `i64` slices when both its columns are `Int`
/// ([`IntTest`]), over borrowed cells otherwise.
fn filter_pairs_by_ranges(
    left: &VChunk,
    right: &VChunk,
    mut pairs: Vec<(u32, u32)>,
    ranges: &[(ColumnRef, CmpOp, ColumnRef)],
    metrics: &mut ExecMetrics,
) -> ExecResult<Vec<(u32, u32)>> {
    metrics.comparisons += pairs.len() as u64 * ranges.len() as u64;
    for &range in ranges {
        let (lc, op, rc) = oriented(left, range);
        let (l, r) = (side_key(left, lc)?, side_key(right, rc)?);
        match (l.int_keys(), r.int_keys()) {
            (Some(li), Some(ri)) => {
                let test = IntTest::new(li, op, ri);
                pairs.retain(|&(lj, rj)| test.holds(lj, rj));
            }
            _ => {
                let mut failed = Ok(());
                pairs.retain(|&(lj, rj)| match (l.value(lj), r.value(rj)) {
                    (Ok(lv), Ok(rv)) => range_ref_matches(lv, rv, op),
                    (Err(e), _) | (_, Err(e)) => {
                        failed = Err(e);
                        false
                    }
                });
                failed?;
            }
        }
    }
    Ok(pairs)
}

/// One distinct build key and where its rows sit in [`IntTable::rows`];
/// `len == 0` marks an empty slot.
#[derive(Clone, Copy, Default)]
struct Slot {
    key: i64,
    start: u32,
    len: u32,
}

/// The build side of an `i64` hash join: one slot per *distinct* key plus
/// every bucket's logical rows back to back in `rows`, in row order. Two
/// allocations per build (one for a count), none per key. The slot array
/// takes one of two layouts, chosen from the build keys alone: *dense*,
/// `max - min + 1` slots addressed by `key - min`, when that is fewer
/// slots than hashing would take (sequential key domains: one array read
/// per probe, sequential probes read sequential slots, and a
/// duplicate-heavy build side gets a table the size of its key range, not
/// of its row count); otherwise *hashed*, open addressing in a power of two
/// of at least twice the valid build rows (so the load stays under one
/// half and a linear probe always ends).
struct IntTable {
    slots: Vec<Slot>,
    /// Hashed layout: `64 - log2(slots.len())`, the hash keeps the
    /// product's high bits. `None` for the dense layout.
    shift: Option<u32>,
    rows: Vec<u32>,
    /// Least and greatest valid build key (`min > max` without one): a probe
    /// key outside them has no match and is not looked up, which is also
    /// the dense layout's bounds check.
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
        let hashed = (2 * n).next_power_of_two().max(2);
        let span = max.checked_sub(min).and_then(|span| usize::try_from(span).ok());
        let (cap, shift) = match span.filter(|&span| span < hashed) {
            Some(span) => (span + 1, None),
            None => (hashed, Some(64 - hashed.trailing_zeros())),
        };
        let mut table =
            IntTable { slots: vec![Slot::default(); cap], shift, rows: Vec::new(), min, max };
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

    /// Index of the slot of `key`, a key in `min..=max`: dense, `key - min`;
    /// hashed, the slot holding it or the empty one ending its probe, which
    /// starts at a multiplicative hash (sequential and power-of-two strided
    /// keys land far apart in the product's high bits).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "both casts land below slots.len(): a dense key is in min..=max, whose span fits the slots, and the hash keeps only the top log2(slots.len()) bits"
    )]
    fn slot_of(&self, key: i64) -> usize {
        let Some(shift) = self.shift else { return key.wrapping_sub(self.min) as usize };
        let mask = self.slots.len() - 1;
        let mut i = ((key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        while self.slots.get(i).is_some_and(|s| s.len != 0 && s.key != key) {
            i = (i + 1) & mask;
        }
        i
    }

    /// A bucket's logical build rows, ascending (empty for a table built
    /// without rows).
    fn bucket(&self, slot: &Slot) -> &[u32] {
        let start = slot.start as usize;
        self.rows.get(start..start + slot.len as usize).unwrap_or_default()
    }

    /// The bucket of `key`, if the build side holds it.
    fn find(&self, key: i64) -> Option<&Slot> {
        if key < self.min || key > self.max {
            return None;
        }
        self.slots.get(self.slot_of(key)).filter(|s| s.len != 0)
    }
}

/// One `Int` key column of one side, as raw slices.
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

    /// The key of logical row `j`; `None` when it is NULL.
    fn at(&self, j: u32) -> Option<i64> {
        self.key(*self.ids.get(j as usize)?)
    }

    /// The non-NULL keys, in logical row order.
    fn valid_keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.ids.iter().filter_map(|&rid| self.key(rid))
    }
}

/// Whether logical rows `lj` of `l` and `rj` of `r` agree on every key
/// component; a NULL component never matches.
fn keys_match(l: &[IntKeys<'_>], lj: u32, r: &[IntKeys<'_>], rj: u32) -> bool {
    l.iter().zip(r).all(|(l, r)| matches!((l.at(lj), r.at(rj)), (Some(a), Some(b)) if a == b))
}

/// Vectorized hash join on logical row ids, and its fused counting twin:
/// returns the number of matches and, given a pair list, fills it in
/// left-major order (the row path's `rows.sort_unstable()`). Without one no
/// `(u32, u32)` is ever allocated and the build tables hold bucket *sizes*,
/// not row-id lists, where possible. Charges one `hash_probes` per
/// probe-side row (NULLs included), like the row path. All-`Int` keys take
/// the typed table; a lone `Str` pair hashes borrowed `&str`s; any other
/// component type goes through the normalized [`HashKey`]s the row path uses.
fn vhash_join(
    left: &VChunk,
    right: &VChunk,
    keys: &[(ColumnRef, ColumnRef)],
    workers: usize,
    metrics: &mut ExecMetrics,
    pairs: Option<&mut Vec<(u32, u32)>>,
) -> ExecResult<u64> {
    let lsides = side_keys(left, keys.iter().map(|&(l, _)| l))?;
    let rsides = side_keys(right, keys.iter().map(|&(_, r)| r))?;
    if let (Some(build), Some(probe)) = (all_int_keys(&lsides), all_int_keys(&rsides)) {
        let Some(pairs) = pairs else {
            return Ok(int_hash_count(&build, &probe, workers, metrics));
        };
        *pairs = int_hash_join(&build, &probe, workers, metrics);
        return Ok(pairs.len() as u64);
    }
    metrics.hash_probes += right.len() as u64;
    if let ([lk], [rk]) = (lsides.as_slice(), rsides.as_slice()) {
        if let (Some(lkeys), Some(rkeys)) = (lk.str_keys(), rk.str_keys()) {
            return Ok(hash_join_on(lkeys, rkeys, pairs));
        }
    }
    let lkeys = gather_hash_keys(&lsides, left.len())?.into_iter();
    Ok(hash_join_on(lkeys, gather_hash_keys(&rsides, right.len())?.into_iter(), pairs))
}

/// The fallback hash join over any hashable key, each side's keys in logical
/// row order (`None` for a row with a NULL component, which never matches).
fn hash_join_on<K: Hash + Eq>(
    build: impl Iterator<Item = Option<K>>,
    probe: impl Iterator<Item = Option<K>>,
    pairs: Option<&mut Vec<(u32, u32)>>,
) -> u64 {
    let Some(pairs) = pairs else {
        let mut sizes: HashMap<K, u64> = HashMap::new();
        for key in build.flatten() {
            *sizes.entry(key).or_default() += 1;
        }
        return probe.flatten().filter_map(|key| sizes.get(&key)).sum();
    };
    let mut rows: HashMap<K, Vec<u32>> = HashMap::new();
    for (j, key) in build.enumerate() {
        if let Some(key) = key {
            rows.entry(key).or_default().push(rowid(j));
        }
    }
    for (j, key) in probe.enumerate() {
        if let Some(ls) = key.and_then(|key| rows.get(&key)) {
            pairs.extend(ls.iter().map(|&lj| (lj, rowid(j))));
        }
    }
    pairs.sort_unstable();
    pairs.len() as u64
}

/// The typed hash join, built: one table over the build side's first key
/// component, shared by every probe piece, and the components a bucket
/// candidate still has to agree on ([`keys_match`]).
struct IntProbe<'a> {
    table: IntTable,
    first: &'a IntKeys<'a>,
    build_rest: &'a [IntKeys<'a>],
    probe_rest: &'a [IntKeys<'a>],
}

impl<'a> IntProbe<'a> {
    /// Build the table (`with_rows`: bucket rows, not just bucket sizes) and
    /// charge one `hash_probes` per probe-side row, NULLs included, like the
    /// row path. `None` without a key.
    fn new(
        build: &'a [IntKeys<'a>],
        probe: &'a [IntKeys<'a>],
        with_rows: bool,
        metrics: &mut ExecMetrics,
    ) -> Option<IntProbe<'a>> {
        let ((bfirst, build_rest), (first, probe_rest)) =
            (build.split_first()?, probe.split_first()?);
        metrics.hash_probes += first.ids.len() as u64;
        Some(IntProbe { table: IntTable::build(bfirst, with_rows), first, build_rest, probe_rest })
    }

    /// The probe rows `lo..hi` that find a bucket, each with its bucket.
    fn hits(&self, lo: usize, hi: usize) -> impl Iterator<Item = (u32, &Slot)> {
        let ids = self.first.ids.get(lo..hi).unwrap_or_default();
        let hit = |(j, &rid)| Some((rowid(j), self.table.find(self.first.key(rid)?)?));
        (lo..hi).zip(ids).filter_map(hit)
    }

    /// A bucket's build rows that match probe row `rj` on every component.
    fn matches<'s>(&'s self, slot: &Slot, rj: u32) -> impl Iterator<Item = u32> + 's {
        let agree = move |&lj: &u32| keys_match(self.build_rest, lj, self.probe_rest, rj);
        self.table.bucket(slot).iter().copied().filter(agree)
    }

    /// Probe rows `lo..hi`, emitting `(build row, probe row)` logical pairs.
    fn pairs(&self, lo: usize, hi: usize) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (rj, slot) in self.hits(lo, hi) {
            pairs.extend(self.matches(slot, rj).map(|lj| (lj, rj)));
        }
        pairs
    }

    /// Counting twin of [`IntProbe::pairs`]: for a single component the
    /// matching buckets' sizes, which a table without rows still knows.
    fn count(&self, lo: usize, hi: usize) -> u64 {
        if self.probe_rest.is_empty() {
            return self.hits(lo, hi).map(|(_, slot)| u64::from(slot.len)).sum();
        }
        self.hits(lo, hi).map(|(rj, slot)| self.matches(slot, rj).count() as u64).sum()
    }
}

/// Typed path of [`vhash_join`]: the shared table is built serially and
/// probed in the pieces [`morsel_pieces`] picks.
fn int_hash_join(
    build: &[IntKeys<'_>],
    probe: &[IntKeys<'_>],
    workers: usize,
    metrics: &mut ExecMetrics,
) -> Vec<(u32, u32)> {
    let Some(join) = IntProbe::new(build, probe, true, metrics) else { return Vec::new() };
    let rows = join.first.ids.len();
    let mut pairs =
        concat_pairs(morsel_pieces(workers, rows, metrics, |lo, hi| join.pairs(lo, hi)));
    pairs.sort_unstable();
    pairs
}

/// Fused counting twin of [`int_hash_join`]: identical table, pieces, and
/// counter charges, but sums matches instead of allocating a pair list, and
/// keeps bucket rows only when there are further components to verify. A
/// count is additive, so no merge order or final sort is needed for
/// determinism.
fn int_hash_count(
    build: &[IntKeys<'_>],
    probe: &[IntKeys<'_>],
    workers: usize,
    metrics: &mut ExecMetrics,
) -> u64 {
    let Some(join) = IntProbe::new(build, probe, build.len() > 1, metrics) else { return 0 };
    let rows = join.first.ids.len();
    morsel_pieces(workers, rows, metrics, |lo, hi| join.count(lo, hi)).into_iter().sum()
}

/// Vectorized sort-merge join on logical row ids, and its fused counting
/// twin: returns the number of matches and, given a pair list, pushes them
/// onto it in the row algorithm's output order. A single `Int`/`Int` key
/// pair sorts `(key, row)` entries (`i64::cmp` orders identically to
/// `Value::total_cmp` on `Int`s); composite and non-`Int` keys gather
/// `Value`s per row. [`sort_merge`] is the algorithm either way.
fn vsort_merge(
    left: &VChunk,
    right: &VChunk,
    keys: &[(ColumnRef, ColumnRef)],
    metrics: &mut ExecMetrics,
    pairs: Option<&mut Vec<(u32, u32)>>,
) -> ExecResult<u64> {
    let lsides = side_keys(left, keys.iter().map(|&(l, _)| l))?;
    let rsides = side_keys(right, keys.iter().map(|&(_, r)| r))?;
    if let ([lk], [rk]) = (lsides.as_slice(), rsides.as_slice()) {
        if let (Some(l), Some(r)) = (lk.int_keys(), rk.int_keys()) {
            let entries = |k: &IntKeys<'_>| {
                // Sized for every id: `collect` on a filter grows by
                // doubling, one `realloc` (and arena lock) per step.
                let mut rows = Vec::with_capacity(k.ids.len());
                let keyed = |(j, &rid)| Some((k.key(rid)?, rowid(j)));
                rows.extend(k.ids.iter().enumerate().filter_map(keyed));
                rows
            };
            return Ok(sort_merge(entries(&l), entries(&r), i64::cmp, metrics, pairs));
        }
    }
    let lrows = gather_sort_keys(&lsides, left.len())?;
    let rrows = gather_sort_keys(&rsides, right.len())?;
    Ok(sort_merge(lrows, rrows, |a, b| cmp_key_slices(a, b), metrics, pairs))
}

/// The sort-merge algorithm, replicating the row operator so counters and
/// output order match exactly: sort both sides' non-NULL `(key, row)`
/// entries, charge `n log n` per sort, then merge with one comparison per
/// step, an equal-key run pair contributing its cross product. Entries
/// arrive in row order, so breaking key ties by row is the row operator's
/// stable sort without its scratch buffer.
fn sort_merge<K>(
    mut lrows: Vec<(K, u32)>,
    mut rrows: Vec<(K, u32)>,
    cmp: impl Fn(&K, &K) -> Ordering,
    metrics: &mut ExecMetrics,
    mut pairs: Option<&mut Vec<(u32, u32)>>,
) -> u64 {
    metrics.rows_sorted += (lrows.len() + rrows.len()) as u64;
    lrows.sort_unstable_by(|a, b| cmp(&a.0, &b.0).then(a.1.cmp(&b.1)));
    rrows.sort_unstable_by(|a, b| cmp(&a.0, &b.0).then(a.1.cmp(&b.1)));
    metrics.comparisons += sort_charge(lrows.len()) + sort_charge(rrows.len());
    let (mut lrest, mut rrest) = (lrows.as_slice(), rrows.as_slice());
    let mut n = 0u64;
    while let (Some((a, ltail)), Some((b, rtail))) = (lrest.split_first(), rrest.split_first()) {
        metrics.comparisons += 1;
        match cmp(&a.0, &b.0) {
            Ordering::Less => lrest = ltail,
            Ordering::Greater => rrest = rtail,
            Ordering::Equal => {
                let lrun = 1 + ltail.iter().take_while(|e| cmp(&e.0, &a.0).is_eq()).count();
                let rrun = 1 + rtail.iter().take_while(|e| cmp(&e.0, &b.0).is_eq()).count();
                let ((lrun, ltail), (rrun, rtail)) = (lrest.split_at(lrun), rrest.split_at(rrun));
                n += lrun.len() as u64 * rrun.len() as u64;
                if let Some(pairs) = pairs.as_deref_mut() {
                    for (_, lj) in lrun {
                        pairs.extend(rrun.iter().map(|(_, rj)| (*lj, *rj)));
                    }
                }
                (lrest, rrest) = (ltail, rtail);
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};
    use std::slice::from_ref as one;

    fn int_keys_table(name: &str, rows: usize, modulo: i64) -> Arc<Table> {
        let t = TableSpec::new(name, rows)
            .column(ColumnSpec::new("k", Distribution::UniformInt { lo: 0, hi: modulo }))
            .generate(rows as u64);
        Arc::new(t)
    }

    #[test]
    fn a_row_id_outside_the_column_is_an_error_not_a_null() {
        let col = ColumnVector::from_ints([7, 8]);
        let side = SideKey { col: &col, ids: &[1, 5] };
        assert!(matches!(side.value(0), Ok(ValueRef::Int(8))));
        assert!(side.value(1).is_err(), "physical row 5 of a 2-row column");
        assert!(side.value(2).is_err(), "logical row 2 of a 2-row selection");
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
            let serial = int_hash_join(one(&bk), one(&pk), 1, &mut serial_m);
            assert!(!serial.is_empty());
            assert_eq!(
                serial_m.morsels,
                rows.div_ceil(MORSEL_ROWS) as u64,
                "serial probe reports the same morsel count the parallel path dispatches"
            );
            for workers in [1, 2, 3, 8] {
                let ctx = format!("rows={rows} workers={workers}");
                let mut m = ExecMetrics::default();
                assert_eq!(int_hash_join(one(&bk), one(&pk), workers, &mut m), serial, "{ctx}");
                let mut cm = ExecMetrics::default();
                assert_eq!(
                    int_hash_count(one(&bk), one(&pk), workers, &mut cm),
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
        let base = int_hash_join(one(&bk), one(&pk), 1, &mut base_m);
        assert!(!base.is_empty());
        for workers in [1, 2, 3, 8] {
            let ctx = format!("workers={workers}");
            let mut m = ExecMetrics::default();
            let pairs = int_hash_join(one(&bk), one(&pk), workers, &mut m);
            assert_eq!(pairs, base, "{ctx}");
            let mut cm = ExecMetrics::default();
            let n = int_hash_count(one(&bk), one(&pk), workers, &mut cm);
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
            assert!(int_hash_join(one(&empty), one(&pk), workers, &mut m).is_empty());
            assert_eq!(int_hash_count(one(&empty), one(&pk), workers, &mut m), 0);
            assert!(int_hash_join(one(&nulls), one(&pk), workers, &mut m).is_empty());
            assert_eq!(int_hash_count(one(&nulls), one(&pk), workers, &mut m), 0);
            assert!(int_hash_join(one(&pk), one(&empty), workers, &mut m).is_empty());
            assert_eq!(int_hash_count(one(&pk), one(&nulls), workers, &mut m), 0);
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

    /// 300 build keys over `0..=span`. They hash into 1 024 slots, so a span
    /// of 1 023 is the widest dense table and 1 024 the narrowest hashed one.
    fn spanning(span: i64) -> Side {
        Side::new((0..299).chain([span]).map(Some))
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
            ("span one below capacity", spanning(1023), Side::new((-5..big).map(Some))),
            ("span at capacity", spanning(1024), Side::new((-5..big).map(Some))),
            ("negative keys", Side::new((-500..-200).map(Some)), Side::new((-big..0).map(Some))),
            (
                "mixed-sign keys",
                Side::new((-150..150).map(Some)),
                Side::new((0..big).map(|i| Some(i % 400 - 200))),
            ),
            (
                "400 duplicates of 3 keys",
                Side::new((0..400).map(|i| Some(i % 3 * 7 - 7))),
                Side::new((0..big).map(|i| Some(i % 23 - 11))),
            ),
            (
                "probe keys just outside the build's",
                Side::new((-5..=5).map(Some)),
                Side::new((0..big).map(|i| Some(i % 15 - 7))),
            ),
            ("one build row", Side::new([Some(-3)]), Side::new((0..big).map(|i| Some(i % 7 - 3)))),
            ("all-NULL build", Side::new((0..40).map(|_| None)), Side::new((0..big).map(Some))),
            ("all-NULL probe", Side::new((0..40).map(Some)), Side::new((0..big).map(|_| None))),
        ];
        for (name, build, probe) in &cases {
            let expect = nested_loop_oracle(build, probe);
            assert_eq!(expect.is_empty(), name.starts_with("all-NULL"), "{name}");
            for workers in [1, 2, 3, 8] {
                let ctx = format!("{name}, workers={workers}");
                let mut m = ExecMetrics::default();
                assert_eq!(
                    int_hash_join(one(&build.keys()), one(&probe.keys()), workers, &mut m),
                    expect,
                    "{ctx}"
                );
                let mut cm = ExecMetrics::default();
                let n = int_hash_count(one(&build.keys()), one(&probe.keys()), workers, &mut cm);
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
        // Hashed, a probe never leaves the run of occupied slots it starts
        // in, so the longest run (cyclically) bounds every probe sequence;
        // patterned keys are where a multiplicative hash does best. Dense,
        // there is no probe sequence: one slot per value of the key range.
        const LONGEST_RUN: usize = 8;
        for shift in [0u32, 1, 4, 16, 32, 48] {
            for n in [1_000i64, 4_096, 5_000] {
                let ctx = format!("stride 2^{shift}, {n} keys");
                let side = Side::new((0..n).map(|i| Some((i - n / 2) << shift)));
                let table = IntTable::build(&side.keys(), true);
                assert!(side.data.iter().all(|&k| table.find(k).is_some_and(|s| s.len == 1)));
                let hashed = (2 * n as usize).next_power_of_two();
                let span = ((n - 1) << shift) as usize;
                assert_eq!(table.shift.is_none(), span < hashed, "{ctx}: layout");
                if table.shift.is_none() {
                    assert!(shift <= 1, "{ctx}: only strides 1 and 2 are dense");
                    assert_eq!(table.slots.len(), span + 1, "{ctx}");
                    continue;
                }
                assert_eq!(table.slots.len(), hashed, "{ctx}");
                let (mut run, mut longest) = (0, 0);
                for slot in table.slots.iter().chain(&table.slots) {
                    run = if slot.len == 0 { 0 } else { run + 1 };
                    longest = longest.max(run);
                }
                assert!(longest <= LONGEST_RUN, "{ctx}: {longest} occupied slots in a row");
            }
        }
    }

    #[test]
    fn int_table_layout_follows_the_key_span_and_never_outgrows_the_hashed_one() {
        // (build keys, dense?)
        let cases = [
            ("span one below capacity", spanning(1023), true),
            ("span at capacity", spanning(1024), false),
            ("400 duplicates of 3 keys", Side::new((0..400).map(|i| Some(i % 3 * 7 - 7))), true),
            ("the whole i64 range", Side::new([Some(i64::MIN), Some(i64::MAX)]), false),
            ("span i64::MAX", Side::new([Some(-1), Some(i64::MAX - 1)]), false),
            ("one key", Side::new([Some(i64::MIN)]), true),
            ("NULLs do not count", Side::new((0..64).map(|i| (i < 2).then_some(i))), true),
            ("all NULL", Side::new((0..8).map(|_| None)), false),
            ("empty", Side::new([]), false),
        ];
        for (name, side, dense) in &cases {
            let valid: Vec<i64> = side.keys().valid_keys().collect();
            let hashed = (2 * valid.len()).next_power_of_two().max(2);
            for with_rows in [false, true] {
                let table = IntTable::build(&side.keys(), with_rows);
                assert_eq!(table.shift.is_none(), *dense, "{name}");
                if let (true, Some(min), Some(max)) =
                    (*dense, valid.iter().min(), valid.iter().max())
                {
                    assert_eq!(table.slots.len() as i64, max - min + 1, "{name}");
                    assert!(table.slots.len() <= hashed, "{name}");
                    for outside in [min.checked_sub(1), max.checked_add(1)].into_iter().flatten() {
                        assert!(table.find(outside).is_none(), "{name}: {outside}");
                    }
                } else {
                    assert_eq!(table.slots.len(), hashed, "{name}");
                }
                for key in &valid {
                    let rows = valid.iter().filter(|k| *k == key).count();
                    assert_eq!(table.find(*key).map(|s| s.len as usize), Some(rows), "{name}");
                }
                assert_eq!(table.rows.len(), if with_rows { valid.len() } else { 0 }, "{name}");
            }
        }
    }

    /// A chunk over a handmade all-`Int` table, one column per key
    /// component, read through `sel`.
    fn int_chunk(
        table_id: usize,
        rows: &[Vec<Option<i64>>],
        width: usize,
        sel: Vec<u32>,
    ) -> VChunk {
        let columns = (0..width).map(|c| {
            let mut col = ColumnVector::new(els_storage::DataType::Int);
            for row in rows {
                col.push(row[c].map_or(Value::Null, Value::Int)).unwrap();
            }
            (format!("c{c}"), col)
        });
        VChunk::scan(table_id, Arc::new(Table::new("t", columns.collect()).unwrap()), sel)
    }

    /// Every `(left row, right row)` of the two selections whose components
    /// are all non-NULL and equal, left-major.
    fn composite_oracle(
        (lrows, lsel): (&[Vec<Option<i64>>], &[u32]),
        (rrows, rsel): (&[Vec<Option<i64>>], &[u32]),
    ) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (i, &l) in lsel.iter().enumerate() {
            for (j, &r) in rsel.iter().enumerate() {
                let (l, r) = (&lrows[l as usize], &rrows[r as usize]);
                if l.iter().zip(r).all(|(a, b)| a.is_some() && a == b) {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        pairs
    }

    #[test]
    fn composite_int_keys_match_a_naive_oracle_in_every_kernel() {
        type Rows = Vec<Vec<Option<i64>>>;
        let row = |cells: &[i64]| cells.iter().map(|&c| Some(c)).collect::<Vec<_>>();
        let (lo, hi) = (i64::MIN, i64::MAX);
        let cases: Vec<(&str, Rows, Rows)> = vec![
            (
                "NULL in the second component only",
                vec![vec![Some(1), Some(5)], vec![Some(1), None], vec![Some(2), Some(6)]],
                vec![vec![Some(1), Some(5)], vec![Some(2), None], vec![Some(2), Some(6)]],
            ),
            (
                "duplicate composite keys on both sides",
                [[1, 1], [2, 2], [1, 1], [1, 2], [2, 2], [1, 1]].iter().map(|r| row(r)).collect(),
                [[2, 2], [1, 1], [2, 1], [2, 2], [1, 1], [2, 2]].iter().map(|r| row(r)).collect(),
            ),
            (
                "extreme components",
                [[lo, hi], [hi, lo], [lo, lo], [hi, hi], [0, -1]].iter().map(|r| row(r)).collect(),
                [[hi, hi], [lo, hi], [-1, 0], [hi, lo], [lo, lo], [lo, hi]]
                    .iter()
                    .map(|r| row(r))
                    .collect(),
            ),
            (
                "three components, the last one deciding",
                [[7, 7, 1], [7, 7, 2], [7, 7, 2], [8, 7, 2]].iter().map(|r| row(r)).collect(),
                [[7, 7, 2], [7, 7, 3], [7, 8, 2], [7, 7, 1]].iter().map(|r| row(r)).collect(),
            ),
            (
                "dense, duplicate-heavy first component",
                (0..40).map(|i| row(&[i % 3 - 1, i % 5])).collect(),
                (0..30).map(|i| row(&[i % 5 - 2, i % 4])).collect(),
            ),
            (
                "hashed first component, mixed signs",
                (0..12).map(|i| row(&[(i - 6) * 1_000, i % 2])).collect(),
                (0..12).map(|i| row(&[(i - 4) * 1_000, i % 2])).collect(),
            ),
            (
                "probe keys just outside a one-key build",
                vec![row(&[-4, 9]), row(&[-4, 9])],
                [[-5, 9], [-4, 9], [-3, 9], [-4, 8]].iter().map(|r| row(r)).collect(),
            ),
            ("empty left side", Vec::new(), vec![row(&[1, 1])]),
            ("empty right side", vec![row(&[1, 1])], Vec::new()),
            (
                "a side with one component all NULL",
                vec![vec![None, Some(1)], vec![None, Some(2)]],
                vec![row(&[1, 1]), vec![Some(2), None]],
            ),
        ];
        for (name, lrows, rrows) in &cases {
            let width = lrows.iter().chain(rrows).map(Vec::len).max().unwrap_or(2);
            // Identity selections, then reversed ones with a row dropped: a
            // logical row is not its physical row.
            let identity = |n: usize| (0..n as u32).collect::<Vec<_>>();
            let reversed = |n: usize| (0..n as u32).rev().skip(1).collect::<Vec<_>>();
            for (lsel, rsel) in [
                (identity(lrows.len()), identity(rrows.len())),
                (reversed(lrows.len()), reversed(rrows.len())),
            ] {
                let want = composite_oracle((lrows, &lsel), (rrows, &rsel));
                let l = int_chunk(0, lrows, width, lsel);
                let r = int_chunk(1, rrows, width, rsel);
                let keys: Vec<_> =
                    (0..width).map(|c| (ColumnRef::new(0, c), ColumnRef::new(1, c))).collect();
                let n = want.len() as u64;

                for workers in [1, 3] {
                    let (mut m, mut cm) = (ExecMetrics::default(), ExecMetrics::default());
                    let mut hashed = Vec::new();
                    let joined = vhash_join(&l, &r, &keys, workers, &mut m, Some(&mut hashed));
                    assert_eq!((joined.unwrap(), hashed), (n, want.clone()), "{name}");
                    let counted = vhash_join(&l, &r, &keys, workers, &mut cm, None);
                    assert_eq!(counted.unwrap(), n, "{name}");
                    assert_eq!(m.hash_probes, r.len() as u64, "{name}: one probe per probe row");
                    assert_eq!(cm, m, "{name}: the count charges what the join charges");
                }

                let (mut m, mut cm) = (ExecMetrics::default(), ExecMetrics::default());
                let mut merged = Vec::new();
                assert_eq!(vsort_merge(&l, &r, &keys, &mut m, Some(&mut merged)).unwrap(), n);
                merged.sort_unstable();
                assert_eq!(merged, want, "{name}: sort-merge");
                assert_eq!(vsort_merge(&l, &r, &keys, &mut cm, None).unwrap(), n, "{name}");
                assert_eq!(cm, m, "{name}: the count charges what the join charges");

                let (mut m, mut cm) = (ExecMetrics::default(), ExecMetrics::default());
                let (mut looped, mut counted) = (Vec::new(), 0u64);
                nested_loop(&l, &r, &keys, &[], &mut m, |lj, rj| looped.push((lj, rj))).unwrap();
                nested_loop(&l, &r, &keys, &[], &mut cm, |_, _| counted += 1).unwrap();
                assert_eq!(looped, want, "{name}: nested loop, in its own order");
                assert_eq!((counted, m.tuples_emitted), (n, n), "{name}");
                assert_eq!(cm, m, "{name}: the count charges what the join charges");
                assert_eq!(m.comparisons, (l.len() * r.len() * width) as u64, "{name}");
            }
        }
    }

    #[test]
    fn sort_merge_emits_runs_in_key_order_with_stable_ties() {
        // Keys (k, 0): the second component never decides, so the output is
        // the single-key order, rows of one key in row order on both sides.
        let lrows: Vec<_> = [3, 1, 3, 2, 1].iter().map(|&k| vec![Some(k), Some(0)]).collect();
        let rrows: Vec<_> = [1, 3, 1, 4].iter().map(|&k| vec![Some(k), Some(0)]).collect();
        let l = int_chunk(0, &lrows, 2, (0..5).collect());
        let r = int_chunk(1, &rrows, 2, (0..4).collect());
        let keys: Vec<_> = (0..2).map(|c| (ColumnRef::new(0, c), ColumnRef::new(1, c))).collect();
        let (mut m, mut pairs) = (ExecMetrics::default(), Vec::new());
        vsort_merge(&l, &r, &keys, &mut m, Some(&mut pairs)).unwrap();
        assert_eq!(pairs, [(1, 0), (1, 2), (4, 0), (4, 2), (0, 1), (2, 1)]);
        assert_eq!(m.rows_sorted, 9);
        // Merge steps: 1=1 (run), 2<3, 3=3 (run); then the left side is out.
        assert_eq!(m.comparisons, sort_charge(5) + sort_charge(4) + 3);
    }

    #[test]
    fn nested_loop_tests_keys_and_ranges_in_one_pass_and_mirrors_a_reversed_range() {
        // c0 is the key, c1 the range column; a NULL in either never passes.
        let lrows = vec![
            vec![Some(1), Some(10)],
            vec![Some(1), None],
            vec![Some(2), Some(i64::MIN)],
            vec![None, Some(0)],
        ];
        let rrows = vec![
            vec![Some(1), Some(11)],
            vec![Some(1), Some(10)],
            vec![Some(2), Some(i64::MAX)],
            vec![Some(2), None],
        ];
        let l = int_chunk(0, &lrows, 2, (0..4).collect());
        let r = int_chunk(1, &rrows, 2, (0..4).collect());
        let keys = [(ColumnRef::new(0, 0), ColumnRef::new(1, 0))];
        let (lc, rc) = (ColumnRef::new(0, 1), ColumnRef::new(1, 1));
        for (range, want) in [
            ((lc, CmpOp::Lt, rc), vec![(0, 0), (2, 2)]),
            ((rc, CmpOp::Gt, lc), vec![(0, 0), (2, 2)]),
            ((lc, CmpOp::Ge, rc), vec![(0, 1)]),
            ((rc, CmpOp::Le, lc), vec![(0, 1)]),
            ((lc, CmpOp::Ne, rc), vec![(0, 0), (2, 2)]),
        ] {
            let (mut m, mut pairs) = (ExecMetrics::default(), Vec::new());
            nested_loop(&l, &r, &keys, &[range], &mut m, |lj, rj| pairs.push((lj, rj))).unwrap();
            assert_eq!(pairs, want, "{range:?}");
            // Key matches: rows 0 and 1 meet inner rows 0 and 1, row 2 meets
            // inner rows 2 and 3; each is charged one range comparison.
            assert_eq!(m.tuples_emitted, 6, "{range:?}");
            assert_eq!(m.comparisons, 16 + 6, "{range:?}");
            let mut hashed = Vec::new();
            vhash_join(&l, &r, &keys, 1, &mut m, Some(&mut hashed)).unwrap();
            let residual = filter_pairs_by_ranges(&l, &r, hashed, &[range], &mut m);
            assert_eq!(residual.unwrap(), want, "{range:?}: as a residual on a keyed join");
        }
        // Keyless: the cartesian product, one comparison per pair.
        let (mut m, mut n) = (ExecMetrics::default(), 0u64);
        nested_loop(&l, &r, &[], &[(lc, CmpOp::Lt, rc)], &mut m, |_, _| n += 1).unwrap();
        assert_eq!((n, m.tuples_emitted, m.comparisons), (8, 16, 16 + 16));
    }
}
