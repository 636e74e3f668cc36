//! EXPLAIN ANALYZE: the estimation-observability layer.
//!
//! The paper's whole evaluation (Section 8) is a table of *estimated* join
//! result sizes next to *actual* ones; this module closes that loop at
//! runtime. Executing a plan with observations enabled yields per-operator
//! actual cardinalities and wall times; re-running the prepared
//! [`els_core::Els`] estimator over the *same plan tree shape* yields the
//! per-operator estimates the optimizer believed in (works for bushy trees,
//! not just the left-deep chains `estimated_sizes` covers). Each operator
//! then gets the paper's error ratio (`est/act`) and its symmetric folding,
//! the **q-error** `max(est/act, act/est)` (see [`els_core::q_error`]).
//!
//! Reports are recorded into the process-wide
//! [`els_exec::MetricsRegistry`], keyed by selectivity rule, so a long-run
//! accuracy histogram accumulates across queries and engines.

use std::fmt;
use std::time::Duration;

use std::collections::HashMap;

use els_catalog::{FeedbackKey, QueryCorrections};
use els_core::{
    q_error, scan_fingerprint, CardinalityEstimator, Els, ElsResult, JoinState, Predicate,
    SelectivityRule,
};
use els_exec::{ExecMetrics, ExecMode, JoinMethod, MetricsRegistry, Observations, PlanNode};

/// One operator of the analyzed plan: the estimator's belief next to the
/// executor's observation.
#[derive(Debug, Clone)]
pub struct OperatorReport {
    /// Display label, e.g. `Scan(a)` or `Join<HASH>`.
    pub label: String,
    /// Depth in the plan tree (root = 0); renders as indentation.
    pub depth: usize,
    /// Query tables covered by this operator's subtree, sorted.
    pub tables: Vec<usize>,
    /// True for join operators (the paper's metric is join sizes; scans are
    /// context).
    pub is_join: bool,
    /// The optimizer's estimated output cardinality.
    pub estimated: f64,
    /// The observed output cardinality.
    pub actual: u64,
    /// Inclusive subtree wall time (zero for rescanned inners, whose cost
    /// is charged to their join).
    pub elapsed: Duration,
    /// True for a rescanned inner (NL/INL over a stored table): its
    /// "actual" is the stored row count, not a post-filter cardinality, so
    /// feedback harvesting must not treat it as a scan observation.
    pub rescan: bool,
}

impl OperatorReport {
    /// `max(est/act, act/est)`, both floored at one tuple.
    pub fn q_error(&self) -> f64 {
        q_error(self.estimated, self.actual as f64)
    }

    /// The paper's raw error ratio `est/act` (`> 1` over-estimates,
    /// `< 1` under-estimates; infinite when the actual was zero but the
    /// estimate was not).
    pub fn error_ratio(&self) -> f64 {
        if self.actual == 0 {
            if self.estimated <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.estimated / self.actual as f64
        }
    }
}

/// The result of [`crate::engine::Engine::explain_analyze`]: the executed
/// query, its operator tree with estimated-vs-actual annotations, and the
/// execution metrics. `Display` renders the stable human-readable report.
#[derive(Debug, Clone)]
pub struct ExplainAnalyzeReport {
    /// The SQL as submitted.
    pub sql: String,
    /// Short name of the selectivity rule the estimates used ("LS", "M", …).
    pub rule: String,
    /// The execution mode the actuals were measured under.
    pub mode: ExecMode,
    /// True when the plan came from the engine's plan cache.
    pub cache_hit: bool,
    /// Published feedback corrections the optimizer folded into this
    /// plan's estimates (0 unless it ran under
    /// [`els_catalog::FeedbackMode::Apply`]).
    pub corrections_applied: u64,
    /// Result row count (the count itself for `COUNT(*)`).
    pub result_rows: u64,
    /// Operators in pre-order (root first).
    pub operators: Vec<OperatorReport>,
    /// Whole-query execution metrics.
    pub metrics: ExecMetrics,
}

impl ExplainAnalyzeReport {
    /// The root operator (None only for a degenerate empty plan).
    pub fn root(&self) -> Option<&OperatorReport> {
        self.operators.first()
    }

    /// q-error of the final result size — the paper's headline metric.
    pub fn query_q_error(&self) -> f64 {
        self.root().map_or(1.0, OperatorReport::q_error)
    }

    /// Worst per-operator q-error in the plan.
    pub fn max_q_error(&self) -> f64 {
        self.operators.iter().map(OperatorReport::q_error).fold(1.0, f64::max)
    }

    /// The join operators only (the observations the paper's Section 8
    /// table is made of).
    pub fn join_operators(&self) -> impl Iterator<Item = &OperatorReport> {
        self.operators.iter().filter(|o| o.is_join)
    }

    /// Fold this report into a [`MetricsRegistry`]: one q-error sample per
    /// join operator under this report's rule (the root scan when the query
    /// had no joins), plus the query's kernel counters.
    pub fn record(&self, registry: &MetricsRegistry) {
        let mut recorded = false;
        for op in self.join_operators() {
            registry.record_q_error(&self.rule, op.q_error());
            recorded = true;
        }
        if !recorded {
            if let Some(root) = self.root() {
                registry.record_q_error(&self.rule, root.q_error());
            }
        }
        registry.record_query(&self.metrics);
    }
}

impl fmt::Display for ExplainAnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.mode {
            ExecMode::RowAtATime => "row".to_owned(),
            ExecMode::Vectorized { workers } => format!("vectorized({workers})"),
        };
        write!(
            f,
            "EXPLAIN ANALYZE  rule={}  mode={mode}  cache={}",
            self.rule,
            if self.cache_hit { "hit" } else { "miss" }
        )?;
        if self.corrections_applied > 0 {
            write!(f, "  corrected={}", self.corrections_applied)?;
        }
        writeln!(f)?;
        writeln!(f, "query: {}", self.sql)?;
        writeln!(f, "result rows: {}", self.result_rows)?;
        for op in &self.operators {
            writeln!(
                f,
                "{}{}  est={:.1} act={} qerr={:.2} ({:.3}ms)",
                "  ".repeat(op.depth),
                op.label,
                op.estimated,
                op.actual,
                op.q_error(),
                op.elapsed.as_secs_f64() * 1e3,
            )?;
        }
        writeln!(f, "metrics: {}", self.metrics)?;
        writeln!(
            f,
            "query q-error: {:.2} (worst operator: {:.2})",
            self.query_q_error(),
            self.max_q_error()
        )
    }
}

/// Walker state: two observation cursors (scans and joins are separate
/// post-order streams) plus the pre-order operator list under construction.
struct Builder<'a> {
    est: &'a dyn CardinalityEstimator,
    binding_names: &'a [String],
    obs: &'a Observations,
    scan_cursor: usize,
    join_cursor: usize,
    operators: Vec<OperatorReport>,
}

impl Builder<'_> {
    fn table_name(&self, t: usize) -> &str {
        self.binding_names.get(t).map_or("?", |s| s.as_str())
    }

    fn next_scan(&mut self) -> (usize, u64, Duration) {
        let (t, rows) = self.obs.scan_outputs.get(self.scan_cursor).copied().unwrap_or((0, 0));
        let elapsed =
            self.obs.scan_elapsed.get(self.scan_cursor).copied().unwrap_or(Duration::ZERO);
        self.scan_cursor += 1;
        (t, rows, elapsed)
    }

    fn next_join(&mut self) -> (u64, Duration) {
        let rows = self.obs.join_outputs.get(self.join_cursor).map_or(0, |(_, r)| *r);
        let elapsed =
            self.obs.join_elapsed.get(self.join_cursor).copied().unwrap_or(Duration::ZERO);
        self.join_cursor += 1;
        (rows, elapsed)
    }

    /// Walk one plan node, consuming its observations in the exact order
    /// the executor produced them (see `execute_node` in `els-exec`) and
    /// recomputing the estimator's belief for the node's subtree. Returns
    /// the estimator state covering the subtree.
    fn walk(&mut self, node: &PlanNode, depth: usize) -> ElsResult<JoinState> {
        match node {
            PlanNode::Scan { table_id, filters } => {
                let state = self.est.initial_state(*table_id)?;
                let (obs_table, actual, elapsed) = self.next_scan();
                debug_assert_eq!(obs_table, *table_id, "scan observation order diverged");
                let mut label = format!("Scan({})", self.table_name(*table_id));
                if !filters.is_empty() {
                    label.push_str(&format!(" [{} filter(s)]", filters.len()));
                }
                self.operators.push(OperatorReport {
                    label,
                    depth,
                    tables: vec![*table_id],
                    is_join: false,
                    estimated: state.cardinality(),
                    actual,
                    elapsed,
                    rescan: false,
                });
                Ok(state)
            }
            PlanNode::Join { method, left, right, .. } => {
                // Reserve the join's pre-order slot before descending.
                let slot = self.operators.len();
                self.operators.push(OperatorReport {
                    label: String::new(),
                    depth,
                    tables: node.tables(),
                    is_join: true,
                    estimated: 0.0,
                    actual: 0,
                    elapsed: Duration::ZERO,
                    rescan: false,
                });
                let l = self.walk(left, depth + 1)?;

                // Rescanning access paths (plain NL over a stored inner,
                // and INL) never execute the inner as a plan node: the
                // executor records the inner's *stored* row count as its
                // scan observation. Mirror that — and estimate it with the
                // original (pre-predicate) cardinality, since that is what
                // the observation measures.
                let rescans_inner = matches!(
                    (method, right.as_ref()),
                    (JoinMethod::NestedLoop, PlanNode::Scan { .. })
                ) || *method == JoinMethod::IndexNestedLoop;
                let r = if rescans_inner {
                    let PlanNode::Scan { table_id, .. } = right.as_ref() else {
                        // INL over a non-scan inner fails execution before
                        // any report is built; estimate it as a plain walk.
                        let r = self.walk(right, depth + 1)?;
                        return self.finish_join(slot, method, &l, &r);
                    };
                    let (obs_table, actual, elapsed) = self.next_scan();
                    debug_assert_eq!(obs_table, *table_id, "rescan observation order diverged");
                    let stored = self.est.original_cardinality(*table_id).unwrap_or(0.0);
                    self.operators.push(OperatorReport {
                        label: format!("Rescan({})", self.table_name(*table_id)),
                        depth: depth + 1,
                        tables: vec![*table_id],
                        is_join: false,
                        estimated: stored,
                        actual,
                        elapsed,
                        rescan: true,
                    });
                    self.est.initial_state(*table_id)?
                } else {
                    self.walk(right, depth + 1)?
                };
                self.finish_join(slot, method, &l, &r)
            }
        }
    }

    /// Fill a reserved join slot from the estimator and the next join
    /// observation.
    fn finish_join(
        &mut self,
        slot: usize,
        method: &JoinMethod,
        l: &JoinState,
        r: &JoinState,
    ) -> ElsResult<JoinState> {
        let state = self.est.join_sets(l, r)?;
        let (actual, elapsed) = self.next_join();
        let names: Vec<String> = self.operators[slot]
            .tables
            .clone()
            .into_iter()
            .map(|t| self.table_name(t).to_owned())
            .collect();
        let op = &mut self.operators[slot];
        op.label = format!("Join<{}> {{{}}}", method.name(), names.join(","));
        op.estimated = state.cardinality();
        op.actual = actual;
        op.elapsed = elapsed;
        Ok(state)
    }
}

/// Build the per-operator report for an executed plan. `est` must be the
/// prepared estimator the optimizer used (it carries the effective
/// statistics the plan was costed with); `obs` the observations from the
/// same plan's execution.
pub fn build_operator_reports(
    plan_root: &PlanNode,
    est: &dyn CardinalityEstimator,
    binding_names: &[String],
    obs: &Observations,
) -> ElsResult<Vec<OperatorReport>> {
    let mut b =
        Builder { est, binding_names, obs, scan_cursor: 0, join_cursor: 0, operators: Vec::new() };
    b.walk(plan_root, 0)?;
    debug_assert_eq!(b.scan_cursor, obs.scan_outputs.len(), "unconsumed scan observations");
    debug_assert_eq!(b.join_cursor, obs.join_outputs.len(), "unconsumed join observations");
    Ok(b.operators)
}

/// The direct children of the join at pre-order index `join`: the operator
/// right after it, and the next operator at the same child depth after that
/// child's subtree.
fn direct_children(operators: &[OperatorReport], join: usize) -> Option<(usize, usize)> {
    let child_depth = operators[join].depth + 1;
    let left = join + 1;
    if operators.get(left)?.depth != child_depth {
        return None;
    }
    let mut right = left + 1;
    while operators.get(right).is_some_and(|o| o.depth > child_depth) {
        right += 1;
    }
    (operators.get(right)?.depth == child_depth).then_some((left, right))
}

/// Harvest one executed query's estimated-vs-actual residuals into the
/// feedback store behind `corrections`. Returns
/// `(observations folded, publications granted)`; any granted publication
/// means the caller should invalidate cached plans (once — publications
/// coalesce into a single epoch bump per query).
///
/// Two residual families, keyed like the corrections the optimizer reads:
///
/// * **Scans** — each filtered scan contributes `actual / estimated` under
///   its `(table, predicate-fingerprint)` key. Unfiltered scans are exact
///   by construction and rescanned inners report stored (pre-filter) row
///   counts, so both are skipped.
/// * **Joins** — a join's raw residual conflates its children's errors;
///   dividing observed join selectivity `act_J / (act_L · act_R)` by the
///   estimated one isolates the join-selectivity error, which is split
///   `e^(1/n)` across the `n` correction *applications* at the step — one
///   per crossing predicate under Rule M, one per linking class under the
///   choosing rules — so replaying the learned factors reproduces `e`. For a
///   join over a rescanned inner — whose post-filter actual is
///   unobservable — the inner's filtered *estimate* stands in on both
///   sides of the ratio, so the inner cancels and the residual measures
///   the join alone.
///
/// `corrected` says whether the plan's estimates already carried published
/// corrections (an `Apply`-mode plan); the store composes them back out so
/// learning always targets the raw estimator error.
pub fn harvest_feedback(
    operators: &[OperatorReport],
    els: &Els,
    corrections: &QueryCorrections,
    corrected: bool,
) -> (u64, u64) {
    let store = corrections.store();
    let mut observed = 0u64;
    let mut published = 0u64;
    for (i, op) in operators.iter().enumerate() {
        if op.rescan {
            continue;
        }
        if !op.is_join {
            let Some(&t) = op.tables.first() else { continue };
            let fingerprint = scan_fingerprint(els.predicates(), t);
            let Some(key) = corrections.scan_key(t, &fingerprint) else { continue };
            observed += 1;
            published += u64::from(store.observe(key, op.estimated, op.actual as f64, corrected));
            continue;
        }
        let Some((l, r)) = direct_children(operators, i) else { continue };
        if op.actual == 0 {
            // An empty observed join: the q-error convention calls a
            // sub-tuple estimate of an empty result exact, and a residual
            // learned from it would only push corrections toward zero.
            continue;
        }
        let (lop, rop) = (&operators[l], &operators[r]);
        // Count how many times the estimator applied each class's
        // correction at this step: corrections scale *predicate*
        // selectivities, so Rule M (which multiplies every eligible
        // predicate) applies a class's factor once per predicate crossing
        // the two children, while the choosing rules (LS/SS/REP) collapse
        // a class's eligible set into one value and apply it once.
        let mut applications: HashMap<FeedbackKey, usize> = HashMap::new();
        for p in els.predicates() {
            match p {
                Predicate::JoinEq { left, right } => {
                    let crosses = (lop.tables.contains(&left.table)
                        && rop.tables.contains(&right.table))
                        || (rop.tables.contains(&left.table) && lop.tables.contains(&right.table));
                    if !crosses {
                        continue;
                    }
                    let Some(class) = els.classes().class_of(*left) else { continue };
                    let Some(key) = corrections.join_key(els.classes().members(class)) else {
                        continue;
                    };
                    *applications.entry(key).or_insert(0) += 1;
                }
                // Inequality edges: applied once per predicate under every
                // rule (range selectivities multiply independently of the
                // equi-join rule's choose-vs-multiply policy), keyed by the
                // canonicalized `(column, op, column)` triple.
                Predicate::JoinRange { left, op, right } => {
                    let crosses = (lop.tables.contains(&left.table)
                        && rop.tables.contains(&right.table))
                        || (rop.tables.contains(&left.table) && lop.tables.contains(&right.table));
                    if !crosses {
                        continue;
                    }
                    let Some(key) = corrections.range_key(*left, *op, *right) else { continue };
                    *applications.entry(key).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        if applications.is_empty() {
            // A cartesian step (or classes the key schema cannot name):
            // nothing the optimizer could re-apply, so nothing to learn.
            continue;
        }
        let total = if els.options().rule == SelectivityRule::Multiplicative {
            applications.values().sum::<usize>()
        } else {
            applications.len()
        };
        // A rescanned inner reports its *stored* row count; the post-filter
        // actual is unobservable. Substitute the estimator's filtered
        // cardinality on both sides of the ratio so the inner cancels out —
        // the residual then reads "join output given the left child", which
        // is exact whenever the inner's local estimate is (and the scan key
        // tracks that error separately when it is not).
        let (r_est, r_act) = if rop.rescan {
            let filtered = rop
                .tables
                .first()
                .and_then(|&t| els.effective_cardinality(t).ok())
                .unwrap_or(rop.estimated);
            (filtered, filtered)
        } else {
            (rop.estimated, rop.actual as f64)
        };
        // Actual cardinalities are at least one tuple here; estimates are
        // floored at a sub-tuple epsilon instead — flooring a collapsed
        // estimate (Rule M's 1e-9 "rows") up to one tuple would erase
        // exactly the under-estimation the loop exists to correct.
        const EST_FLOOR: f64 = 1e-6;
        let act_sel =
            (op.actual as f64).max(1.0) / ((lop.actual as f64).max(1.0) * r_act.max(EST_FLOOR));
        let est_sel =
            op.estimated.max(EST_FLOOR) / (lop.estimated.max(EST_FLOOR) * r_est.max(EST_FLOOR));
        let ratio = (act_sel / est_sel).powf(1.0 / total as f64);
        for key in applications.into_keys() {
            observed += 1;
            published += u64::from(store.observe_ratio(key, ratio, corrected));
        }
    }
    (observed, published)
}
