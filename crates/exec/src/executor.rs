//! Plan interpretation: the two entry points, output shaping shared by both
//! modes, and the row-at-a-time interpreter — `execute_node` and the
//! operators it calls in [`crate::join`] and [`crate::index`], reachable
//! through [`ExecMode::RowAtATime`] only. The default mode evaluates the same
//! plans in [`crate::vectorized`] and shares no operator with it.

use std::sync::Arc;
use std::time::Duration;

use crate::timing::Stopwatch;

use els_storage::Table;

use crate::chunk::Chunk;
use crate::error::{ExecError, ExecResult};
use crate::filter::apply_filters;
use crate::join::{hash_join, nested_loop_join, sort_merge_join};
use crate::metrics::ExecMetrics;
use crate::plan::{JoinMethod, PlanNode, PlanOutput, QueryPlan};

/// Result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The result rows (for `COUNT(*)`, a single-row single-column table
    /// holding the count).
    pub rows: Table,
    /// The count when the output was `COUNT(*)`, else the row count.
    pub count: u64,
    /// Accumulated metrics, including wall time.
    pub metrics: ExecMetrics,
}

/// How a plan tree is evaluated. Both modes produce identical rows, in
/// identical order, with identical logical-work counters (a property the
/// differential tests assert); they differ only in wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The original tuple-at-a-time interpreter, kept as the reference
    /// oracle: whole-table clones at scans, per-row `Value` extraction,
    /// full materialization at every operator.
    RowAtATime,
    /// Typed whole-column kernels with selection vectors and late
    /// materialization (see [`crate::vectorized`]). Hash-join probes split
    /// into morsels across `workers` threads when the probe side is large
    /// enough; `workers == 1` (the default) stays serial.
    Vectorized {
        /// Probe-side worker threads (values below 1 are treated as 1).
        workers: usize,
    },
}

impl Default for ExecMode {
    fn default() -> ExecMode {
        ExecMode::Vectorized { workers: 1 }
    }
}

/// Execute `plan` against `tables`, where `tables[i]` is the data of query
/// table `i` (the `FROM`-list position), unbuffered: every logical base
/// page read is physical. [`execute_plan_observed`] with the per-operator
/// observations dropped.
pub fn execute_plan_with(
    plan: &QueryPlan,
    tables: &[Arc<Table>],
    mode: ExecMode,
) -> ExecResult<ExecOutput> {
    execute_plan_observed(plan, tables, mode, None).map(|(out, _)| out)
}

/// Per-operator output sizes observed during execution, in post-order —
/// the "actual rows" column of EXPLAIN ANALYZE. Join entries align with
/// [`els_core::Els`] step estimates for left-deep plans.
#[derive(Debug, Clone, Default)]
pub struct Observations {
    /// `(tables covered by the subtree, output rows)` for every Join node,
    /// post-order.
    pub join_outputs: Vec<(Vec<usize>, u64)>,
    /// `(table id, rows surviving the scan filters)` for every Scan node.
    /// For inners consumed by rescanning access paths (plain or indexed
    /// nested loops) the stored row count is recorded instead — their
    /// filters are applied during each rescan, so no single filtered
    /// output exists.
    pub scan_outputs: Vec<(usize, u64)>,
    /// Inclusive subtree wall time per Join node, aligned with
    /// `join_outputs`. The rescan-NL/INL inner's cost is charged to its
    /// join, not to the phantom scan entry.
    pub join_elapsed: Vec<Duration>,
    /// Inclusive wall time per Scan node, aligned with `scan_outputs`
    /// (zero for rescanned inners — see `join_elapsed`).
    pub scan_elapsed: Vec<Duration>,
}

/// Equality compares only the *logical* observations (output cardinalities):
/// the wall-time vectors are measurement noise and would make every
/// differential `vec_obs == row_obs` assertion flaky.
impl PartialEq for Observations {
    fn eq(&self, other: &Observations) -> bool {
        self.join_outputs == other.join_outputs && self.scan_outputs == other.scan_outputs
    }
}

/// Mutable execution state threaded through every operator: counters,
/// simulated page I/O, and observed cardinalities.
pub(crate) struct ExecState<'a> {
    pub(crate) metrics: &'a mut ExecMetrics,
    pub(crate) io: &'a mut crate::buffer::PageIo,
    pub(crate) obs: &'a mut Observations,
}

/// Execute `plan` under `mode` and return its output together with the
/// per-operator actual cardinalities and wall times — the execution half
/// of EXPLAIN ANALYZE. With `buffer_pages`, base-table reads go through an
/// LRU buffer pool of that many pages: pages already resident cost no
/// physical I/O (the paper's experiment ran with a fixed buffer size).
pub fn execute_plan_observed(
    plan: &QueryPlan,
    tables: &[Arc<Table>],
    mode: ExecMode,
    buffer_pages: Option<usize>,
) -> ExecResult<(ExecOutput, Observations)> {
    let mut io = match buffer_pages {
        None => crate::buffer::PageIo::unbuffered(),
        Some(pages) => crate::buffer::PageIo::with_pool(pages),
    };
    let mut obs = Observations::default();
    let start = Stopwatch::start();
    let mut metrics = ExecMetrics::default();
    let (mut rows, mut count): (Table, u64) = match mode {
        ExecMode::RowAtATime => {
            let chunk = execute_node(&plan.root, tables, &mut metrics, &mut io, &mut obs)?;
            shape_output(chunk, &plan.output, &mut metrics)?
        }
        ExecMode::Vectorized { workers } => {
            let mut st = ExecState { metrics: &mut metrics, io: &mut io, obs: &mut obs };
            if matches!(plan.output, PlanOutput::CountStar) {
                // COUNT(*) never materializes the join result — the point
                // of carrying row ids to the top of the plan — and a keyed
                // hash/sort-merge root fuses the probe with the count, so
                // not even the root's pair list is allocated.
                let n = crate::vectorized::execute_root_count(
                    &plan.root,
                    tables,
                    workers.max(1),
                    &mut st,
                )?;
                (count_table(n)?, n)
            } else {
                let v = crate::vectorized::exec_node(&plan.root, tables, workers.max(1), &mut st)?;
                shape_output(v.materialize()?, &plan.output, &mut metrics)?
            }
        }
    };
    if !plan.order_by.is_empty() {
        rows = sort_output(&rows, &plan.order_by, &mut metrics)?;
    }
    if let Some(limit) = plan.limit {
        let keep = usize::try_from(limit).unwrap_or(usize::MAX).min(rows.num_rows());
        if keep < rows.num_rows() {
            let indices: Vec<usize> = (0..keep).collect();
            rows = rows.gather(rows.name().to_owned(), &indices)?;
        }
        // A COUNT(*) reports the aggregate, not the size of its one-row
        // output: only LIMIT 0, which returns no row at all, changes it.
        if limit == 0 || !matches!(plan.output, PlanOutput::CountStar) {
            count = count.min(limit);
        }
    }
    metrics.elapsed = start.elapsed();
    Ok((ExecOutput { rows, count, metrics }, obs))
}

/// Shape a materialized root chunk into the client-facing table per the
/// plan's output clause (shared by both execution modes).
fn shape_output(
    chunk: Chunk,
    output: &PlanOutput,
    metrics: &mut ExecMetrics,
) -> ExecResult<(Table, u64)> {
    Ok(match output {
        PlanOutput::CountStar => {
            let n = chunk.num_rows() as u64;
            (count_table(n)?, n)
        }
        PlanOutput::Star => {
            let n = chunk.num_rows() as u64;
            (chunk.data, n)
        }
        PlanOutput::Columns(cols) => {
            let projected = chunk.project(cols)?;
            let n = projected.num_rows() as u64;
            (projected.data, n)
        }
        PlanOutput::GroupCount(cols) => {
            let grouped = group_count(&chunk, cols, metrics)?;
            let n = grouped.num_rows() as u64;
            (grouped, n)
        }
    })
}

/// The single-row `COUNT(*)` result table.
fn count_table(n: u64) -> ExecResult<Table> {
    let mut t = Table::empty("count", &[("count", els_storage::DataType::Int)]);
    t.push_row(vec![els_storage::Value::Int(n as i64)])?;
    Ok(t)
}

/// Stable-sort an output table by `(column, descending)` keys; the columns
/// are located by their synthesized output names (`t{T}_c{C}`).
fn sort_output(
    rows: &Table,
    order_by: &[(els_core::ColumnRef, bool)],
    metrics: &mut ExecMetrics,
) -> ExecResult<Table> {
    // Resolve every key column up front so the comparator below is
    // infallible (a malformed plan degrades to an error, never a panic
    // inside `sort_by`).
    let keys: Vec<(&els_storage::ColumnVector, bool)> = order_by
        .iter()
        .map(|&(c, desc)| {
            let p = rows
                .column_index(&format!("t{}_c{}", c.table, c.column))
                .ok_or(ExecError::ColumnNotInSchema(c))?;
            let column = rows.column(p).map_err(|_| ExecError::ColumnNotInSchema(c))?;
            Ok((column, desc))
        })
        .collect::<ExecResult<Vec<_>>>()?;
    let mut indices: Vec<usize> = (0..rows.num_rows()).collect();
    metrics.rows_sorted += rows.num_rows() as u64;
    indices.sort_by(|&a, &b| {
        for &(column, desc) in &keys {
            // Indices come from `0..num_rows`, so both lookups succeed;
            // treat the unreachable error arm as NULL rather than panic.
            let va = column.get(a).unwrap_or(els_storage::Value::Null);
            let vb = column.get(b).unwrap_or(els_storage::Value::Null);
            let ord = va.total_cmp(&vb);
            if ord != std::cmp::Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(rows.gather(rows.name().to_owned(), &indices)?)
}

/// Hash-aggregate `chunk` by the given key columns, producing a table of
/// the keys plus a trailing `count` column, sorted by key (deterministic
/// output order). NULL keys form their own group, as in SQL `GROUP BY`.
fn group_count(
    chunk: &Chunk,
    columns: &[els_core::ColumnRef],
    metrics: &mut ExecMetrics,
) -> ExecResult<Table> {
    let positions: Vec<usize> =
        columns.iter().map(|&c| chunk.require(c)).collect::<ExecResult<Vec<_>>>()?;
    // Group by the rendered total-order key (values of one column share a
    // type, so rendering is collision-free) and remember one witness row.
    let mut groups: std::collections::BTreeMap<Vec<String>, (usize, u64)> =
        std::collections::BTreeMap::new();
    for row in 0..chunk.num_rows() {
        let mut key = Vec::with_capacity(positions.len());
        for &p in &positions {
            key.push(chunk.data.column(p)?.get(row)?.to_string());
        }
        metrics.hash_probes += 1;
        groups.entry(key).and_modify(|(_, n)| *n += 1).or_insert((row, 1));
    }
    // Assemble the output table.
    let mut out_columns: Vec<(String, els_storage::ColumnVector)> = positions
        .iter()
        .zip(columns)
        .map(|(&p, c)| {
            Ok((
                format!("t{}_c{}", c.table, c.column),
                els_storage::ColumnVector::with_capacity(
                    chunk.data.column(p)?.data_type(),
                    groups.len(),
                ),
            ))
        })
        .collect::<ExecResult<Vec<_>>>()?;
    let mut counts =
        els_storage::ColumnVector::with_capacity(els_storage::DataType::Int, groups.len());
    for (witness, n) in groups.values() {
        for ((_, out), &p) in out_columns.iter_mut().zip(&positions) {
            out.push(chunk.data.column(p)?.get(*witness)?)?;
        }
        counts.push(els_storage::Value::Int(*n as i64))?;
    }
    out_columns.push(("count".to_owned(), counts));
    metrics.tuples_emitted += groups.len() as u64;
    Ok(Table::new("group_count", out_columns)?)
}

/// Recursively execute one plan node, recording its output size and
/// inclusive wall time into `obs`.
fn execute_node(
    node: &PlanNode,
    tables: &[Arc<Table>],
    metrics: &mut ExecMetrics,
    io: &mut crate::buffer::PageIo,
    obs: &mut Observations,
) -> ExecResult<Chunk> {
    let start = Stopwatch::start();
    let chunk = execute_node_inner(node, tables, metrics, io, obs)?;
    match node {
        PlanNode::Scan { table_id, .. } => {
            obs.scan_outputs.push((*table_id, chunk.num_rows() as u64));
            obs.scan_elapsed.push(start.elapsed());
        }
        PlanNode::Join { .. } => {
            obs.join_outputs.push((node.tables(), chunk.num_rows() as u64));
            obs.join_elapsed.push(start.elapsed());
        }
    }
    Ok(chunk)
}

fn execute_node_inner(
    node: &PlanNode,
    tables: &[Arc<Table>],
    metrics: &mut ExecMetrics,
    io: &mut crate::buffer::PageIo,
    obs: &mut Observations,
) -> ExecResult<Chunk> {
    match node {
        PlanNode::Scan { table_id, filters } => {
            let data = tables.get(*table_id).ok_or(ExecError::UnknownTable(*table_id))?;
            metrics.tuples_scanned += data.num_rows() as u64;
            io.scan_table(*table_id, data.num_pages() as u64, metrics);
            let chunk = Chunk::from_base_table(*table_id, (**data).clone());
            let filtered = apply_filters(&chunk, filters, metrics)?;
            metrics.tuples_emitted += filtered.num_rows() as u64;
            Ok(filtered)
        }
        PlanNode::Join { method, left, right, keys, ranges } => {
            let l = execute_node(left, tables, metrics, io, obs)?;
            let out = match (method, right.as_ref()) {
                // Nested loops with a base-table inner uses the System-R
                // access pattern: rescan the stored relation (filters
                // applied on the fly) once per outer tuple.
                (JoinMethod::NestedLoop, PlanNode::Scan { table_id, filters }) => {
                    let mut st = ExecState { metrics, io, obs };
                    rescan_nested_loop(&l, *table_id, filters, keys, tables, &mut st)?
                }
                (JoinMethod::IndexNestedLoop, _) => {
                    let mut st = ExecState { metrics, io, obs };
                    indexed_nested_loop(&l, right, keys, tables, &mut st)?
                }
                // Every other shape materializes the inner.
                (JoinMethod::Range, _) => {
                    let r = execute_node(right, tables, metrics, io, obs)?;
                    if !keys.is_empty() {
                        return Err(ExecError::InvalidPlan(
                            "range join cannot carry equi-keys".into(),
                        ));
                    }
                    return crate::join::range_join(&l, &r, ranges, metrics);
                }
                (JoinMethod::NestedLoop, _) => {
                    let r = execute_node(right, tables, metrics, io, obs)?;
                    nested_loop_join(&l, &r, keys, metrics)?
                }
                (JoinMethod::SortMerge, _) => {
                    let r = execute_node(right, tables, metrics, io, obs)?;
                    sort_merge_join(&l, &r, keys, metrics)?
                }
                (JoinMethod::Hash, _) => {
                    let r = execute_node(right, tables, metrics, io, obs)?;
                    hash_join(&l, &r, keys, metrics)?
                }
            };
            crate::join::apply_join_ranges(out, ranges, metrics)
        }
    }
}

/// Nested loops over a stored inner (System-R rescan access pattern),
/// recording the inner's scan observation. The row path's operator: the
/// vectorized path charges the same rescans around a pair-list kernel
/// (`nested_loop_inner` in [`crate::vectorized`]) and is checked against
/// this one by the differential tests.
fn rescan_nested_loop(
    l: &Chunk,
    inner_table_id: usize,
    inner_filters: &[crate::filter::CompiledFilter],
    keys: &[(els_core::ColumnRef, els_core::ColumnRef)],
    tables: &[Arc<Table>],
    st: &mut ExecState<'_>,
) -> ExecResult<Chunk> {
    let inner = tables.get(inner_table_id).ok_or(ExecError::UnknownTable(inner_table_id))?;
    let out = crate::join::nested_loop_rescan_join(
        l,
        inner_table_id,
        inner,
        inner_filters,
        keys,
        st.metrics,
        st.io,
    )?;
    st.obs.scan_outputs.push((inner_table_id, inner.num_rows() as u64));
    st.obs.scan_elapsed.push(Duration::ZERO);
    Ok(out)
}

/// Indexed nested loops: build a sorted index on the inner's first key
/// column (charged as a scan plus a sort), then probe per outer tuple.
/// `right` must be a base-table scan, and the first key's right side a
/// column of it. The row path's operator: the vectorized path's
/// `index_nested_loop` kernel is checked against this one by the
/// differential tests.
fn indexed_nested_loop(
    l: &Chunk,
    right: &PlanNode,
    keys: &[(els_core::ColumnRef, els_core::ColumnRef)],
    tables: &[Arc<Table>],
    st: &mut ExecState<'_>,
) -> ExecResult<Chunk> {
    let PlanNode::Scan { table_id, filters } = right else {
        return Err(ExecError::InvalidPlan(
            "index nested loops requires a base-table inner".into(),
        ));
    };
    let inner = tables.get(*table_id).ok_or(ExecError::UnknownTable(*table_id))?;
    let Some(&(_, first_right)) = keys.first() else {
        return Err(ExecError::InvalidPlan(
            "index nested loops requires at least one join key".into(),
        ));
    };
    if first_right.table != *table_id || first_right.column >= inner.num_columns() {
        return Err(ExecError::ColumnNotInSchema(first_right));
    }
    let index = crate::index::SortedIndex::build(inner, first_right.column)?;
    st.metrics.tuples_scanned += inner.num_rows() as u64;
    st.io.scan_table(*table_id, inner.num_pages() as u64, st.metrics);
    st.metrics.rows_sorted += inner.num_rows() as u64;
    let out = crate::index::index_nested_loop_join(
        l, *table_id, inner, &index, filters, keys, st.metrics, st.io,
    )?;
    st.obs.scan_outputs.push((*table_id, inner.num_rows() as u64));
    st.obs.scan_elapsed.push(Duration::ZERO);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::CompiledFilter;
    use els_core::predicate::CmpOp;
    use els_core::ColumnRef;
    use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};
    use els_storage::Value;

    /// Two tables: T0 has keys 0..100, T1 has keys 0..1000; every T0 key
    /// matches exactly one T1 key.
    fn tables() -> Vec<Arc<Table>> {
        let t0 = TableSpec::new("T0", 100)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
            .generate(1);
        let t1 = TableSpec::new("T1", 1000)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
            .generate(2);
        vec![Arc::new(t0), Arc::new(t1)]
    }

    fn join_plan(method: JoinMethod, filters: Vec<CompiledFilter>) -> QueryPlan {
        QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Join {
                method,
                left: Box::new(PlanNode::Scan { table_id: 0, filters }),
                right: Box::new(PlanNode::Scan { table_id: 1, filters: Vec::new() }),
                keys: vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))],
                ranges: vec![],
            },
            output: PlanOutput::CountStar,
        }
    }

    #[test]
    fn count_star_counts_join_result() {
        for method in [JoinMethod::NestedLoop, JoinMethod::SortMerge, JoinMethod::Hash] {
            let out =
                execute_plan_with(&join_plan(method, Vec::new()), &tables(), ExecMode::default())
                    .unwrap();
            assert_eq!(out.count, 100, "{method:?}");
            assert_eq!(out.rows.row(0).unwrap(), vec![Value::Int(100)]);
        }
    }

    #[test]
    fn scan_filters_apply_before_join() {
        let f = CompiledFilter::Cmp {
            column: ColumnRef::new(0, 0),
            op: CmpOp::Lt,
            value: Value::Int(10),
        };
        let out = execute_plan_with(
            &join_plan(JoinMethod::SortMerge, vec![f]),
            &tables(),
            ExecMode::default(),
        )
        .unwrap();
        assert_eq!(out.count, 10);
    }

    #[test]
    fn metrics_accumulate_across_nodes() {
        let out = execute_plan_with(
            &join_plan(JoinMethod::Hash, Vec::new()),
            &tables(),
            ExecMode::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.tuples_scanned, 1100);
        assert!(out.metrics.pages_read >= 3); // both scans at least.
        assert!(out.metrics.hash_probes == 1000);
        assert!(out.metrics.elapsed.as_nanos() > 0);
    }

    #[test]
    fn star_output_returns_all_columns() {
        let mut plan = join_plan(JoinMethod::SortMerge, Vec::new());
        plan.output = PlanOutput::Star;
        let out = execute_plan_with(&plan, &tables(), ExecMode::default()).unwrap();
        assert_eq!(out.count, 100);
        assert_eq!(out.rows.num_columns(), 2);
    }

    #[test]
    fn column_output_projects() {
        let mut plan = join_plan(JoinMethod::SortMerge, Vec::new());
        plan.output = PlanOutput::Columns(vec![ColumnRef::new(1, 0)]);
        let out = execute_plan_with(&plan, &tables(), ExecMode::default()).unwrap();
        assert_eq!(out.rows.num_columns(), 1);
        assert_eq!(out.count, 100);
    }

    #[test]
    fn index_nested_loop_plan_executes_and_is_cheap() {
        let filter = CompiledFilter::Cmp {
            column: ColumnRef::new(0, 0),
            op: CmpOp::Lt,
            value: Value::Int(10),
        };
        let plan = |method| QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Join {
                method,
                left: Box::new(PlanNode::Scan { table_id: 0, filters: vec![filter.clone()] }),
                right: Box::new(PlanNode::Scan { table_id: 1, filters: Vec::new() }),
                keys: vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))],
                ranges: vec![],
            },
            output: PlanOutput::CountStar,
        };
        let inl =
            execute_plan_with(&plan(JoinMethod::IndexNestedLoop), &tables(), ExecMode::default())
                .unwrap();
        assert_eq!(inl.count, 10);
        let nl = execute_plan_with(&plan(JoinMethod::NestedLoop), &tables(), ExecMode::default())
            .unwrap();
        assert_eq!(nl.count, 10);
        // INL scans the inner once for the build; NL rescans it 10 times.
        assert!(
            inl.metrics.tuples_scanned < nl.metrics.tuples_scanned,
            "INL {} vs NL {}",
            inl.metrics.tuples_scanned,
            nl.metrics.tuples_scanned
        );
    }

    #[test]
    fn index_nested_loop_rejects_intermediate_inner() {
        let scan = |t| PlanNode::Scan { table_id: t, filters: Vec::new() };
        let plan = QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Join {
                method: JoinMethod::IndexNestedLoop,
                left: Box::new(scan(0)),
                right: Box::new(PlanNode::Join {
                    method: JoinMethod::Hash,
                    left: Box::new(scan(1)),
                    right: Box::new(scan(0)),
                    keys: vec![],
                    ranges: vec![],
                }),
                keys: vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))],
                ranges: vec![],
            },
            output: PlanOutput::CountStar,
        };
        assert!(matches!(
            execute_plan_with(&plan, &tables(), ExecMode::default()),
            Err(ExecError::InvalidPlan(_))
        ));
    }

    #[test]
    fn buffered_execution_absorbs_rescans_when_the_inner_fits() {
        // NL join with T1 (1000 rows = 2 pages) as the inner, 100 outer
        // tuples: unbuffered pays 100 rescans; a 16-page pool reads T1 once.
        let plan = QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Join {
                method: JoinMethod::NestedLoop,
                left: Box::new(PlanNode::Scan { table_id: 0, filters: Vec::new() }),
                right: Box::new(PlanNode::Scan { table_id: 1, filters: Vec::new() }),
                keys: vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))],
                ranges: vec![],
            },
            output: PlanOutput::CountStar,
        };
        let ts = tables();
        let unbuffered = execute_plan_with(&plan, &ts, ExecMode::default()).unwrap();
        let buffered = execute_plan_observed(&plan, &ts, ExecMode::default(), Some(16)).unwrap().0;
        assert_eq!(unbuffered.count, buffered.count);
        // Logical reads identical; physical reads collapse.
        assert_eq!(unbuffered.metrics.pages_read, buffered.metrics.pages_read);
        assert_eq!(unbuffered.metrics.physical_pages_read, unbuffered.metrics.pages_read);
        let t0_pages = ts[0].num_pages() as u64;
        let t1_pages = ts[1].num_pages() as u64;
        assert_eq!(buffered.metrics.physical_pages_read, t0_pages + t1_pages);
    }

    #[test]
    fn a_too_small_buffer_floods_and_does_not_help() {
        let plan = QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Join {
                method: JoinMethod::NestedLoop,
                left: Box::new(PlanNode::Scan { table_id: 0, filters: Vec::new() }),
                right: Box::new(PlanNode::Scan { table_id: 1, filters: Vec::new() }),
                keys: vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))],
                ranges: vec![],
            },
            output: PlanOutput::CountStar,
        };
        let ts = tables();
        let t1_pages = ts[1].num_pages();
        assert!(t1_pages >= 2);
        // Pool strictly smaller than the rescanned inner: LRU sequential
        // flooding -- physical equals logical on the inner.
        let out =
            execute_plan_observed(&plan, &ts, ExecMode::default(), Some(t1_pages - 1)).unwrap().0;
        let unbuffered = execute_plan_with(&plan, &ts, ExecMode::default()).unwrap();
        assert_eq!(out.metrics.physical_pages_read, unbuffered.metrics.physical_pages_read);
    }

    #[test]
    fn group_count_output() {
        // T0 keys 0..100 joined with T1 keys 0..1000, grouped by T0 key
        // modulo nothing: every key occurs once -> 100 groups of 1. More
        // interesting: group the *inner* side of a duplicated join.
        let mut ts = tables();
        // A table where each key 0..10 appears 3 times.
        let mut dup = Table::empty("dup", &[("k", els_storage::DataType::Int)]);
        for r in 0..30 {
            dup.push_row(vec![Value::Int(r % 10)]).unwrap();
        }
        ts.push(Arc::new(dup));
        let plan = QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Scan { table_id: 2, filters: Vec::new() },
            output: PlanOutput::GroupCount(vec![ColumnRef::new(2, 0)]),
        };
        let out = execute_plan_with(&plan, &ts, ExecMode::default()).unwrap();
        assert_eq!(out.count, 10); // ten groups
        assert_eq!(out.rows.num_columns(), 2);
        // Every group has count 3; keys are sorted.
        for r in 0..10 {
            let row = out.rows.row(r).unwrap();
            assert_eq!(row[1], Value::Int(3), "group {r}");
        }
        assert_eq!(out.rows.row(0).unwrap()[0], Value::Int(0));
    }

    #[test]
    fn group_count_nulls_form_one_group() {
        let mut t = Table::empty("t", &[("k", els_storage::DataType::Int)]);
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Int(1)]).unwrap();
        let ts = vec![Arc::new(t)];
        let plan = QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Scan { table_id: 0, filters: Vec::new() },
            output: PlanOutput::GroupCount(vec![ColumnRef::new(0, 0)]),
        };
        let out = execute_plan_with(&plan, &ts, ExecMode::default()).unwrap();
        assert_eq!(out.count, 2);
    }

    #[test]
    fn unknown_table_errors() {
        let plan = QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Scan { table_id: 7, filters: Vec::new() },
            output: PlanOutput::CountStar,
        };
        assert!(matches!(
            execute_plan_with(&plan, &tables(), ExecMode::default()),
            Err(ExecError::UnknownTable(7))
        ));
    }

    #[test]
    fn single_scan_count() {
        let plan = QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Scan { table_id: 0, filters: Vec::new() },
            output: PlanOutput::CountStar,
        };
        let out = execute_plan_with(&plan, &tables(), ExecMode::default()).unwrap();
        assert_eq!(out.count, 100);
    }

    /// Old counters with the vectorized-only fields and wall time zeroed,
    /// for cross-mode equality checks.
    fn comparable(mut m: ExecMetrics) -> ExecMetrics {
        m.kernel_rows = 0;
        m.sel_reuses = 0;
        m.morsels = 0;
        m.steals = 0;
        m.pair_lists = 0;
        m.elapsed = std::time::Duration::ZERO;
        m
    }

    #[test]
    fn vectorized_mode_matches_row_mode_on_every_method() {
        let f = CompiledFilter::Cmp {
            column: ColumnRef::new(0, 0),
            op: CmpOp::Lt,
            value: Value::Int(50),
        };
        for method in [
            JoinMethod::NestedLoop,
            JoinMethod::SortMerge,
            JoinMethod::Hash,
            JoinMethod::IndexNestedLoop,
        ] {
            for output in [PlanOutput::CountStar, PlanOutput::Star] {
                let mut plan = join_plan(method, vec![f.clone()]);
                plan.output = output;
                let (row, row_obs) =
                    execute_plan_observed(&plan, &tables(), ExecMode::RowAtATime, None).unwrap();
                let (vec, vec_obs) = execute_plan_observed(
                    &plan,
                    &tables(),
                    ExecMode::Vectorized { workers: 1 },
                    None,
                )
                .unwrap();
                assert_eq!(vec.count, row.count, "{method:?}");
                assert_eq!(vec.rows.num_rows(), row.rows.num_rows(), "{method:?}");
                assert_eq!(vec.rows.column_names(), row.rows.column_names(), "{method:?}");
                for r in 0..row.rows.num_rows() {
                    assert_eq!(vec.rows.row(r).unwrap(), row.rows.row(r).unwrap(), "{method:?}");
                }
                assert_eq!(comparable(vec.metrics), comparable(row.metrics), "{method:?}");
                assert_eq!(vec_obs, row_obs, "{method:?}");
            }
        }
    }

    fn range_plan(method: JoinMethod, keys: Vec<(ColumnRef, ColumnRef)>, op: CmpOp) -> QueryPlan {
        QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Join {
                method,
                left: Box::new(PlanNode::Scan { table_id: 0, filters: Vec::new() }),
                right: Box::new(PlanNode::Scan { table_id: 1, filters: Vec::new() }),
                keys,
                ranges: vec![(ColumnRef::new(0, 0), op, ColumnRef::new(1, 0))],
            },
            output: PlanOutput::CountStar,
        }
    }

    #[test]
    fn range_join_plan_matches_row_mode_across_workers() {
        // T0.k in 0..100, T1.k in 0..1000: |{(a,b) : a < b}| = Σ(999-k).
        let expected: u64 = (0..100u64).map(|k| 999 - k).sum();
        for output in [PlanOutput::CountStar, PlanOutput::Star] {
            let mut plan = range_plan(JoinMethod::Range, vec![], CmpOp::Lt);
            plan.output = output;
            let (row, row_obs) =
                execute_plan_observed(&plan, &tables(), ExecMode::RowAtATime, None).unwrap();
            assert_eq!(row.count, expected);
            assert_eq!(row.metrics.range_join_rows, expected);
            for workers in [1, 2, 3, 8] {
                let (vec, vec_obs) =
                    execute_plan_observed(&plan, &tables(), ExecMode::Vectorized { workers }, None)
                        .unwrap();
                assert_eq!(vec.count, row.count, "workers={workers}");
                assert_eq!(vec.rows.num_rows(), row.rows.num_rows(), "workers={workers}");
                for r in 0..row.rows.num_rows() {
                    assert_eq!(vec.rows.row(r).unwrap(), row.rows.row(r).unwrap());
                }
                assert_eq!(comparable(vec.metrics), comparable(row.metrics), "workers={workers}");
                assert_eq!(vec_obs, row_obs, "workers={workers}");
            }
        }
    }

    #[test]
    fn residual_ranges_agree_across_methods_and_modes() {
        // Keyed on k with residual `T0.k <= T1.k`: the residual keeps every
        // matched pair, so the count stays 100 and both modes charge the
        // same comparisons. The residual path never touches the band-join
        // counter.
        for method in [JoinMethod::NestedLoop, JoinMethod::SortMerge, JoinMethod::Hash] {
            let keys = vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))];
            let plan = range_plan(method, keys, CmpOp::Le);
            let row = execute_plan_with(&plan, &tables(), ExecMode::RowAtATime).unwrap();
            let vec =
                execute_plan_with(&plan, &tables(), ExecMode::Vectorized { workers: 1 }).unwrap();
            assert_eq!(row.count, 100, "{method:?}");
            assert_eq!(vec.count, 100, "{method:?}");
            assert_eq!(comparable(vec.metrics), comparable(row.metrics), "{method:?}");
            assert_eq!(row.metrics.range_join_rows, 0, "{method:?}");
        }
        // A strict residual on the same column pair eliminates every pair.
        let keys = vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))];
        let plan = range_plan(JoinMethod::Hash, keys, CmpOp::Lt);
        for mode in [ExecMode::RowAtATime, ExecMode::Vectorized { workers: 1 }] {
            assert_eq!(execute_plan_with(&plan, &tables(), mode).unwrap().count, 0);
        }
    }

    #[test]
    fn range_join_with_keys_is_rejected_in_both_modes() {
        let keys = vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))];
        let plan = range_plan(JoinMethod::Range, keys, CmpOp::Lt);
        for mode in [ExecMode::RowAtATime, ExecMode::Vectorized { workers: 1 }] {
            let err = execute_plan_with(&plan, &tables(), mode).unwrap_err();
            assert!(matches!(err, ExecError::InvalidPlan(_)), "{err}");
        }
    }

    #[test]
    fn vectorized_count_star_skips_materialization() {
        // Counts agree with Star row counts even though no gather happens.
        let plan = join_plan(JoinMethod::Hash, Vec::new());
        let count =
            execute_plan_with(&plan, &tables(), ExecMode::Vectorized { workers: 1 }).unwrap();
        let mut star = join_plan(JoinMethod::Hash, Vec::new());
        star.output = PlanOutput::Star;
        let rows =
            execute_plan_with(&star, &tables(), ExecMode::Vectorized { workers: 1 }).unwrap();
        assert_eq!(count.count, rows.rows.num_rows() as u64);
        // The fused COUNT(*) root allocates no row-id pair list; the Star
        // plan materializes exactly one (the root join's).
        assert_eq!(count.metrics.pair_lists, 0, "fused count must not build a pair list");
        assert_eq!(rows.metrics.pair_lists, 1);
    }

    #[test]
    fn fused_count_only_skips_the_root_pair_list() {
        // (T0 ⋈ T1) ⋈ T1: the lower join must still materialize its pair
        // list (its parent composes selections from it); only the root
        // fuses away.
        let plan = QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Join {
                method: JoinMethod::Hash,
                left: Box::new(PlanNode::Join {
                    method: JoinMethod::Hash,
                    left: Box::new(PlanNode::Scan { table_id: 0, filters: Vec::new() }),
                    right: Box::new(PlanNode::Scan { table_id: 1, filters: Vec::new() }),
                    keys: vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))],
                    ranges: vec![],
                }),
                right: Box::new(PlanNode::Scan { table_id: 1, filters: Vec::new() }),
                keys: vec![(ColumnRef::new(1, 0), ColumnRef::new(1, 0))],
                ranges: vec![],
            },
            output: PlanOutput::CountStar,
        };
        let out = execute_plan_with(&plan, &tables(), ExecMode::Vectorized { workers: 1 }).unwrap();
        assert_eq!(out.count, 100);
        assert_eq!(out.metrics.pair_lists, 1, "only the lower join materializes");
    }

    #[test]
    fn nested_loops_and_composite_hash_joins_are_pair_list_kernels() {
        let mode = ExecMode::Vectorized { workers: 1 };
        let scan = |table_id| Box::new(PlanNode::Scan { table_id, filters: Vec::new() });
        let key = |l, r| (ColumnRef::new(l, 0), ColumnRef::new(r, 0));
        let count = |root| QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root,
            output: PlanOutput::CountStar,
        };
        // Under a fused root, a nested loop (rescanned and evaluated inner)
        // and a two-key hash join each build the plan's one pair list.
        let filtered = CompiledFilter::Cmp {
            column: ColumnRef::new(1, 0),
            op: CmpOp::Lt,
            value: Value::Int(500),
        };
        let evaluated_inner = Box::new(PlanNode::Join {
            method: JoinMethod::Hash,
            left: Box::new(PlanNode::Scan { table_id: 1, filters: vec![filtered] }),
            right: scan(0),
            keys: vec![key(1, 0)],
            ranges: vec![],
        });
        for (method, right, keys, pair_lists) in [
            (JoinMethod::NestedLoop, scan(1), vec![key(0, 1)], 1),
            (JoinMethod::NestedLoop, evaluated_inner, vec![key(0, 1)], 2),
            (JoinMethod::Hash, scan(1), vec![key(0, 1), key(0, 1)], 1),
        ] {
            let lower = PlanNode::Join { method, left: scan(0), right, keys, ranges: vec![] };
            let plan = count(PlanNode::Join {
                method: JoinMethod::Hash,
                left: Box::new(lower),
                right: scan(1),
                keys: vec![key(0, 1)],
                ranges: vec![],
            });
            let out = execute_plan_with(&plan, &tables(), mode).unwrap();
            let row = execute_plan_with(&plan, &tables(), ExecMode::RowAtATime).unwrap();
            assert_eq!(out.count, 100, "{method:?}");
            assert_eq!(out.metrics.pair_lists, pair_lists, "{method:?} under a fused root");
            assert_eq!(comparable(out.metrics), comparable(row.metrics), "{method:?}");
        }
        // A nested-loop root: counted without a pair list, gathered from one.
        for (keys, ranges, rows) in [
            (vec![key(0, 1)], vec![], 100),
            (vec![], vec![(ColumnRef::new(0, 0), CmpOp::Gt, ColumnRef::new(1, 0))], 4950),
        ] {
            let root = PlanNode::Join {
                method: JoinMethod::NestedLoop,
                left: scan(0),
                right: scan(1),
                keys,
                ranges,
            };
            let mut plan = count(root);
            let counted = execute_plan_with(&plan, &tables(), mode).unwrap();
            assert_eq!((counted.count, counted.metrics.pair_lists), (rows, 0));
            plan.output = PlanOutput::Star;
            let gathered = execute_plan_with(&plan, &tables(), mode).unwrap();
            assert_eq!((gathered.count, gathered.metrics.pair_lists), (rows, 1));
            let mut without = gathered.metrics;
            without.pair_lists = 0;
            without.elapsed = counted.metrics.elapsed;
            assert_eq!(without, counted.metrics, "the count charges what the join charges");
        }
    }

    #[test]
    fn three_way_join_pipeline() {
        // (T0 ⋈ T1) ⋈ T2 with T2 = 0..50.
        let mut ts = tables();
        ts.push(Arc::new(
            TableSpec::new("T2", 50)
                .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
                .generate(3),
        ));
        let plan = QueryPlan {
            order_by: Vec::new(),
            limit: None,
            root: PlanNode::Join {
                method: JoinMethod::Hash,
                left: Box::new(PlanNode::Join {
                    method: JoinMethod::SortMerge,
                    left: Box::new(PlanNode::Scan { table_id: 0, filters: Vec::new() }),
                    right: Box::new(PlanNode::Scan { table_id: 1, filters: Vec::new() }),
                    keys: vec![(ColumnRef::new(0, 0), ColumnRef::new(1, 0))],
                    ranges: vec![],
                }),
                right: Box::new(PlanNode::Scan { table_id: 2, filters: Vec::new() }),
                // Join on either prior table's key: use T1's column.
                keys: vec![(ColumnRef::new(1, 0), ColumnRef::new(2, 0))],
                ranges: vec![],
            },
            output: PlanOutput::CountStar,
        };
        let out = execute_plan_with(&plan, &ts, ExecMode::default()).unwrap();
        assert_eq!(out.count, 50);
    }
}
