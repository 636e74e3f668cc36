//! Plan interpretation: the two entry points, output shaping shared by both
//! modes, and the row-at-a-time interpreter — `execute_node` and the
//! operators it calls in [`crate::join`] and [`crate::index`], reachable
//! through [`ExecMode::RowAtATime`] only. The default mode evaluates the same
//! plans in [`crate::vectorized`] and shares no operator with it.

use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Duration;

use els_core::ColumnRef;
use els_storage::column::ValueRef;
use els_storage::{ColumnVector, Table};

use crate::chunk::Chunk;
use crate::error::{ExecError, ExecResult};
use crate::filter::apply_filters;
use crate::join::{hash_join, nested_loop_join, sort_merge_join, total_cmp_ref};
use crate::metrics::ExecMetrics;
use crate::plan::{JoinMethod, Plan, PlanNode, PlanOutput, QueryPlan};
use crate::timing::Stopwatch;

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
    /// materialization (see `crate::vectorized`). Hash-join probes split
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
/// page read is physical. Observes nothing: no per-operator record is
/// written and no per-operator clock is read.
pub fn execute_plan_with(
    plan: &QueryPlan,
    tables: &[Arc<Table>],
    mode: ExecMode,
) -> ExecResult<ExecOutput> {
    execute(plan, tables, mode, crate::buffer::PageIo::unbuffered(), &mut [])
}

/// What one plan node produced: the "actual rows" column of EXPLAIN
/// ANALYZE, with the node's inclusive wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeRecord {
    /// The query tables the node's subtree covers, as a mask.
    pub tables: u64,
    /// Output rows. A rescanned inner (plain or indexed nested loops over
    /// a stored table) records its stored row count: its filters run
    /// during each rescan, so no single filtered output exists.
    pub rows: u64,
    /// Inclusive subtree wall time; zero for a rescanned inner and for a
    /// stored probe side a fused hash count filters morsel by morsel as it
    /// probes (their time is inside their join's).
    pub elapsed: Duration,
}

/// One [`NodeRecord`] per plan node, at the node's position in the
/// [`Plan`].
#[derive(Debug, Clone, Default)]
pub struct Observations {
    /// The records, by node position.
    pub nodes: Vec<NodeRecord>,
}

/// Equality compares only the *logical* observations (tables and output
/// rows): wall time is measurement noise and would make every differential
/// `vec_obs == row_obs` assertion flaky.
impl PartialEq for Observations {
    fn eq(&self, other: &Observations) -> bool {
        let logical = |n: &NodeRecord| (n.tables, n.rows);
        self.nodes.iter().map(logical).eq(other.nodes.iter().map(logical))
    }
}

/// Mutable execution state threaded through every operator: the plan being
/// run, counters, simulated page I/O, and the observation records when
/// observing.
pub(crate) struct ExecState<'a> {
    plan: &'a Plan,
    pub(crate) metrics: &'a mut ExecMetrics,
    pub(crate) io: &'a mut crate::buffer::PageIo,
    /// One record per plan node, by position; empty when not observing.
    nodes: &'a mut [NodeRecord],
}

impl<'a> ExecState<'a> {
    /// A stopwatch for a node about to run, when observing.
    pub(crate) fn clock(&self) -> Option<Stopwatch> {
        (!self.nodes.is_empty()).then(Stopwatch::start)
    }

    /// The plan's node at `at`.
    pub(crate) fn node(&self, at: usize) -> ExecResult<&'a PlanNode> {
        self.plan.node(at)
    }

    /// Record what the plan's node at `at` produced: its tables, its output
    /// `rows`, and the time since `clock` (zero without one). Does nothing
    /// when not observing.
    pub(crate) fn record(&mut self, at: usize, rows: u64, clock: Option<Stopwatch>) {
        if let Some(slot) = self.nodes.get_mut(at) {
            let elapsed = clock.map_or(Duration::ZERO, |c| c.elapsed());
            *slot = NodeRecord { tables: self.plan.tables(at), rows, elapsed };
        }
    }
}

/// Execute `plan` under `mode` and return its output together with one
/// record per plan node — the execution half of EXPLAIN ANALYZE. With
/// `buffer_pages`, base-table reads go through an LRU buffer pool of that
/// many pages: pages already resident cost no physical I/O (the paper's
/// experiment ran with a fixed buffer size).
pub fn execute_plan_observed(
    plan: &QueryPlan,
    tables: &[Arc<Table>],
    mode: ExecMode,
    buffer_pages: Option<usize>,
) -> ExecResult<(ExecOutput, Observations)> {
    let io = match buffer_pages {
        None => crate::buffer::PageIo::unbuffered(),
        Some(pages) => crate::buffer::PageIo::with_pool(pages),
    };
    let mut nodes = vec![NodeRecord::default(); plan.root.node_count()];
    let out = execute(plan, tables, mode, io, &mut nodes)?;
    Ok((out, Observations { nodes }))
}

/// Both entry points: run `plan`, recording into `nodes` unless it is empty.
fn execute(
    plan: &QueryPlan,
    tables: &[Arc<Table>],
    mode: ExecMode,
    mut io: crate::buffer::PageIo,
    nodes: &mut [NodeRecord],
) -> ExecResult<ExecOutput> {
    let start = Stopwatch::start();
    let mut metrics = ExecMetrics::default();
    let at = plan.root.root()?;
    let mut st = ExecState { plan: &plan.root, metrics: &mut metrics, io: &mut io, nodes };
    let (root, mut count) = match mode {
        ExecMode::RowAtATime => {
            shape_output(execute_node(at, tables, &mut st)?, &plan.output, st.metrics)?
        }
        // COUNT(*) never materializes the join result — the point of
        // carrying row ids to the top of the plan — and a root that fuses
        // its join with the count (`execute_root_count` names which) does
        // not even allocate its pair list.
        ExecMode::Vectorized { workers } if plan.output == PlanOutput::CountStar => {
            let n = crate::vectorized::execute_root_count(at, tables, workers.max(1), &mut st)?;
            (count_chunk(n)?, n)
        }
        ExecMode::Vectorized { workers } => {
            let v = crate::vectorized::exec_node(at, tables, workers.max(1), &mut st)?;
            shape_output(v.materialize()?, &plan.output, st.metrics)?
        }
    };
    let mut rows = match plan.order_by.as_slice() {
        [] => root.data,
        order_by => sort_output(&root, order_by, &mut metrics)?,
    };
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
    Ok(ExecOutput { rows, count, metrics })
}

/// Shape a materialized root chunk into the client-facing table per the
/// plan's output clause (shared by both execution modes), keeping the
/// provenance of every column a query names (a `GROUP BY`'s trailing
/// `count` has none).
fn shape_output(
    chunk: Chunk,
    output: &PlanOutput,
    metrics: &mut ExecMetrics,
) -> ExecResult<(Chunk, u64)> {
    let n = chunk.num_rows() as u64;
    let shaped = match output {
        PlanOutput::CountStar => return Ok((count_chunk(n)?, n)),
        PlanOutput::Star => chunk,
        PlanOutput::Columns(cols) => chunk.project(cols)?,
        PlanOutput::GroupCount(cols) => {
            Chunk { data: group_count(&chunk, cols, metrics)?, provenance: cols.clone() }
        }
    };
    let n = shaped.num_rows() as u64;
    Ok((shaped, n))
}

/// The single-row `COUNT(*)` result, a column no query names.
fn count_chunk(n: u64) -> ExecResult<Chunk> {
    let mut t = Table::empty("count", &[("count", els_storage::DataType::Int)]);
    t.push_row(vec![els_storage::Value::Int(n as i64)])?;
    Ok(Chunk { data: t, provenance: Vec::new() })
}

/// The columns of `chunk` holding the query columns `keys` names, each with
/// its `descending` flag, resolved by provenance.
fn key_columns(
    chunk: &Chunk,
    keys: impl IntoIterator<Item = (ColumnRef, bool)>,
) -> ExecResult<Vec<(&ColumnVector, bool)>> {
    keys.into_iter().map(|(c, desc)| Ok((chunk.data.column(chunk.require(c)?)?, desc))).collect()
}

/// Order rows `a` and `b` by `keys` under [`els_storage::Value::total_cmp`]
/// (NULL first), each key reversed when descending.
fn cmp_rows(keys: &[(&ColumnVector, bool)], a: usize, b: usize) -> Ordering {
    for &(column, desc) in keys {
        let cell = |row| column.value_ref(row).unwrap_or(ValueRef::Null);
        let ord = total_cmp_ref(cell(a), cell(b));
        if ord.is_ne() {
            return if desc { ord.reverse() } else { ord };
        }
    }
    Ordering::Equal
}

/// Stable-sort the root's rows by `(column, descending)` keys, found by
/// their provenance.
fn sort_output(
    root: &Chunk,
    order_by: &[(ColumnRef, bool)],
    metrics: &mut ExecMetrics,
) -> ExecResult<Table> {
    let keys = key_columns(root, order_by.iter().copied())?;
    let mut indices: Vec<usize> = (0..root.num_rows()).collect();
    metrics.rows_sorted += root.num_rows() as u64;
    indices.sort_by(|&a, &b| cmp_rows(&keys, a, b));
    Ok(root.data.gather(root.data.name().to_owned(), &indices)?)
}

/// Aggregate `chunk` by the given key columns, producing a table of the
/// keys plus a trailing `count` column in key order, ORDER BY's order (a
/// NULL key is one group, first). One `hash_probes` per row, one
/// `tuples_emitted` per group.
fn group_count(
    chunk: &Chunk,
    columns: &[ColumnRef],
    metrics: &mut ExecMetrics,
) -> ExecResult<Table> {
    let keys = key_columns(chunk, columns.iter().map(|&c| (c, false)))?;
    // A stable sort of the row ids puts each group's rows side by side,
    // its first row (the one whose keys the output copies) first.
    let mut rows: Vec<usize> = (0..chunk.num_rows()).collect();
    rows.sort_by(|&a, &b| cmp_rows(&keys, a, b));
    metrics.hash_probes += rows.len() as u64;
    let groups = rows.chunk_by(|&a, &b| cmp_rows(&keys, a, b).is_eq());
    let (witnesses, counts): (Vec<usize>, Vec<i64>) =
        groups.filter_map(|run| Some((*run.first()?, i64::try_from(run.len()).ok()?))).unzip();
    metrics.tuples_emitted += witnesses.len() as u64;
    let key = |(c, (column, _)): (&ColumnRef, &(&ColumnVector, bool))| {
        Ok((format!("t{}_c{}", c.table, c.column), column.gather(&witnesses)?))
    };
    let mut out_columns = columns.iter().zip(&keys).map(key).collect::<ExecResult<Vec<_>>>()?;
    out_columns.push(("count".to_owned(), ColumnVector::from_ints(counts)));
    Ok(Table::new("group_count", out_columns)?)
}

/// Recursively execute the plan's node at `at`, recording its output size
/// and inclusive wall time.
fn execute_node(at: usize, tables: &[Arc<Table>], st: &mut ExecState<'_>) -> ExecResult<Chunk> {
    let clock = st.clock();
    let chunk = execute_node_inner(at, tables, st)?;
    st.record(at, chunk.num_rows() as u64, clock);
    Ok(chunk)
}

fn execute_node_inner(
    at: usize,
    tables: &[Arc<Table>],
    st: &mut ExecState<'_>,
) -> ExecResult<Chunk> {
    match st.node(at)? {
        PlanNode::Scan { table_id, filters } => {
            let data = tables.get(*table_id).ok_or(ExecError::UnknownTable(*table_id))?;
            st.metrics.tuples_scanned += data.num_rows() as u64;
            st.io.scan_table(*table_id, data.num_pages() as u64, st.metrics);
            let chunk = Chunk::from_base_table(*table_id, (**data).clone());
            let filtered = apply_filters(&chunk, filters, st.metrics)?;
            st.metrics.tuples_emitted += filtered.num_rows() as u64;
            Ok(filtered)
        }
        PlanNode::Join { method, left, right, keys, ranges } => {
            let (l, right) = (execute_node(*left, tables, st)?, *right);
            let out = match (method, st.node(right)?) {
                // Nested loops with a base-table inner uses the System-R
                // access pattern: rescan the stored relation (filters
                // applied on the fly) once per outer tuple.
                (JoinMethod::NestedLoop, PlanNode::Scan { table_id, filters }) => {
                    let inner = tables.get(*table_id).ok_or(ExecError::UnknownTable(*table_id))?;
                    let out = crate::join::nested_loop_rescan_join(
                        &l, *table_id, inner, filters, keys, st.metrics, st.io,
                    )?;
                    st.record(right, inner.num_rows() as u64, None);
                    out
                }
                (JoinMethod::IndexNestedLoop, _) => {
                    indexed_nested_loop(&l, right, keys, tables, st)?
                }
                // Every other shape materializes the inner.
                (JoinMethod::Range, _) => {
                    let r = execute_node(right, tables, st)?;
                    if !keys.is_empty() {
                        return Err(ExecError::InvalidPlan(
                            "range join cannot carry equi-keys".into(),
                        ));
                    }
                    return crate::join::range_join(&l, &r, ranges, st.metrics);
                }
                (JoinMethod::NestedLoop, _) => {
                    nested_loop_join(&l, &execute_node(right, tables, st)?, keys, st.metrics)?
                }
                (JoinMethod::SortMerge, _) => {
                    sort_merge_join(&l, &execute_node(right, tables, st)?, keys, st.metrics)?
                }
                (JoinMethod::Hash, _) => {
                    hash_join(&l, &execute_node(right, tables, st)?, keys, st.metrics)?
                }
            };
            crate::join::apply_join_ranges(out, ranges, st.metrics)
        }
    }
}

/// Indexed nested loops: build a sorted index on the inner's first key
/// column (charged as a scan plus a sort), then probe per outer tuple,
/// recording the inner at its stored size. The plan's node at `right` must
/// be a base-table scan, and the first key's right side a column of it.
/// The row path's operator: the vectorized path's `index_nested_loop`
/// kernel is checked against this one by the differential tests.
fn indexed_nested_loop(
    l: &Chunk,
    right: usize,
    keys: &[(ColumnRef, ColumnRef)],
    tables: &[Arc<Table>],
    st: &mut ExecState<'_>,
) -> ExecResult<Chunk> {
    let PlanNode::Scan { table_id, filters } = st.node(right)? else {
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
    st.record(right, inner.num_rows() as u64, None);
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

    /// `method` joining a scan of table 0 under `filters` to one of table
    /// 1, on `keys` and `ranges`.
    fn two_way(
        method: JoinMethod,
        filters: Vec<CompiledFilter>,
        keys: Vec<(ColumnRef, ColumnRef)>,
        ranges: Vec<(ColumnRef, CmpOp, ColumnRef)>,
    ) -> Plan {
        let mut plan = Plan::default();
        let inputs = (plan.scan(0, filters), plan.scan(1, Vec::new()));
        plan.join(method, inputs, keys, ranges).unwrap();
        plan
    }

    /// A scan of table `t` alone.
    fn one_scan(t: usize) -> Plan {
        let mut plan = Plan::default();
        plan.scan(t, Vec::new());
        plan
    }

    fn key(l: usize, r: usize) -> (ColumnRef, ColumnRef) {
        (ColumnRef::new(l, 0), ColumnRef::new(r, 0))
    }

    fn join_plan(method: JoinMethod, filters: Vec<CompiledFilter>) -> QueryPlan {
        QueryPlan::new(two_way(method, filters, vec![key(0, 1)], vec![]), PlanOutput::CountStar)
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
        let plan = |method| join_plan(method, vec![filter.clone()]);
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
        let mut root = Plan::default();
        let outer = root.scan(0, Vec::new());
        let inputs = (root.scan(1, Vec::new()), root.scan(0, Vec::new()));
        let inner = root.join(JoinMethod::Hash, inputs, vec![], vec![]).unwrap();
        root.join(JoinMethod::IndexNestedLoop, (outer, inner), vec![key(0, 1)], vec![]).unwrap();
        let plan = QueryPlan::new(root, PlanOutput::CountStar);
        assert!(matches!(
            execute_plan_with(&plan, &tables(), ExecMode::default()),
            Err(ExecError::InvalidPlan(_))
        ));
    }

    #[test]
    fn buffered_execution_absorbs_rescans_when_the_inner_fits() {
        // NL join with T1 (1000 rows = 2 pages) as the inner, 100 outer
        // tuples: unbuffered pays 100 rescans; a 16-page pool reads T1 once.
        let plan = join_plan(JoinMethod::NestedLoop, Vec::new());
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
        let plan = join_plan(JoinMethod::NestedLoop, Vec::new());
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
        let plan = QueryPlan::new(one_scan(2), PlanOutput::GroupCount(vec![ColumnRef::new(2, 0)]));
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
        let plan = QueryPlan::new(one_scan(0), PlanOutput::GroupCount(vec![ColumnRef::new(0, 0)]));
        let out = execute_plan_with(&plan, &ts, ExecMode::default()).unwrap();
        assert_eq!(out.count, 2);

        // Groups come out in key order, NULL first, not in the order of
        // the keys' text: 10 after 9, -2 before -1. Same in both modes.
        let mut t = Table::empty("t", &[("k", els_storage::DataType::Int)]);
        for k in [Some(9), Some(10), Some(2), None, Some(-1), Some(-2), Some(100), Some(9)] {
            t.push_row(vec![k.map_or(Value::Null, Value::Int)]).unwrap();
        }
        let ts = vec![Arc::new(t)];
        let mut limited = plan.clone();
        limited.limit = Some(2);
        for mode in [ExecMode::RowAtATime, ExecMode::default()] {
            let out = execute_plan_with(&plan, &ts, mode).unwrap();
            let rows: Vec<_> = (0..out.rows.num_rows()).map(|r| out.rows.row(r).unwrap()).collect();
            let group = |k: Value, n| vec![k, Value::Int(n)];
            let expected = [
                group(Value::Null, 1),
                group(Value::Int(-2), 1),
                group(Value::Int(-1), 1),
                group(Value::Int(2), 1),
                group(Value::Int(9), 2),
                group(Value::Int(10), 1),
                group(Value::Int(100), 1),
            ];
            assert_eq!(rows, expected, "{mode:?}");
            assert_eq!((out.metrics.hash_probes, out.metrics.tuples_emitted), (8, 8 + 7));
            let out = execute_plan_with(&limited, &ts, mode).unwrap();
            assert_eq!(out.count, 2, "{mode:?}");
            assert_eq!(out.rows.row(1).unwrap(), group(Value::Int(-2), 1), "{mode:?}");
        }
    }

    #[test]
    fn unknown_table_errors() {
        let plan = QueryPlan::new(one_scan(7), PlanOutput::CountStar);
        assert!(matches!(
            execute_plan_with(&plan, &tables(), ExecMode::default()),
            Err(ExecError::UnknownTable(7))
        ));
    }

    #[test]
    fn single_scan_count() {
        let plan = QueryPlan::new(one_scan(0), PlanOutput::CountStar);
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
        let ranges = vec![(ColumnRef::new(0, 0), op, ColumnRef::new(1, 0))];
        QueryPlan::new(two_way(method, Vec::new(), keys, ranges), PlanOutput::CountStar)
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
        let mut root = two_way(JoinMethod::Hash, Vec::new(), vec![key(0, 1)], vec![]);
        let inputs = (root.root().unwrap(), root.scan(1, Vec::new()));
        root.join(JoinMethod::Hash, inputs, vec![key(1, 1)], vec![]).unwrap();
        let plan = QueryPlan::new(root, PlanOutput::CountStar);
        let out = execute_plan_with(&plan, &tables(), ExecMode::Vectorized { workers: 1 }).unwrap();
        assert_eq!(out.count, 100);
        assert_eq!(out.metrics.pair_lists, 1, "only the lower join materializes");
    }

    #[test]
    fn nested_loops_and_composite_hash_joins_are_pair_list_kernels() {
        let mode = ExecMode::Vectorized { workers: 1 };
        let count = |root| QueryPlan::new(root, PlanOutput::CountStar);
        // Under a fused root, a nested loop (rescanned and evaluated inner)
        // and a two-key hash join each build the plan's one pair list.
        let filtered = CompiledFilter::Cmp {
            column: ColumnRef::new(1, 0),
            op: CmpOp::Lt,
            value: Value::Int(500),
        };
        for (method, evaluated_inner, keys, pair_lists) in [
            (JoinMethod::NestedLoop, false, vec![key(0, 1)], 1),
            (JoinMethod::NestedLoop, true, vec![key(0, 1)], 2),
            (JoinMethod::Hash, false, vec![key(0, 1), key(0, 1)], 1),
        ] {
            let mut root = Plan::default();
            let outer = root.scan(0, Vec::new());
            let right = if evaluated_inner {
                let inputs = (root.scan(1, vec![filtered.clone()]), root.scan(0, Vec::new()));
                root.join(JoinMethod::Hash, inputs, vec![key(1, 0)], vec![]).unwrap()
            } else {
                root.scan(1, Vec::new())
            };
            let lower = root.join(method, (outer, right), keys, vec![]).unwrap();
            let inputs = (lower, root.scan(1, Vec::new()));
            root.join(JoinMethod::Hash, inputs, vec![key(0, 1)], vec![]).unwrap();
            let plan = count(root);
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
            let mut plan = count(two_way(JoinMethod::NestedLoop, Vec::new(), keys, ranges));
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
        let mut root = two_way(JoinMethod::SortMerge, Vec::new(), vec![key(0, 1)], vec![]);
        let inputs = (root.root().unwrap(), root.scan(2, Vec::new()));
        // Join on either prior table's key: use T1's column.
        root.join(JoinMethod::Hash, inputs, vec![key(1, 2)], vec![]).unwrap();
        let plan = QueryPlan::new(root, PlanOutput::CountStar);
        let out = execute_plan_with(&plan, &ts, ExecMode::default()).unwrap();
        assert_eq!(out.count, 50);
    }
}
