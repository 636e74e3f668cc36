//! EXPLAIN ANALYZE: the estimation-observability layer.
//!
//! The paper's whole evaluation (Section 8) is a table of *estimated* join
//! result sizes next to *actual* ones; this module closes that loop at
//! runtime. Executing a plan with observations enabled yields one record
//! per plan node (actual cardinality and wall time) at the node's
//! position; the optimizer's estimates for the plan are
//! [`els_optimizer::Annotation`]s at the same positions (bushy trees too,
//! not just the left-deep chains `estimated_sizes` covers), so a report is
//! the plan's nodes zipped with the two arrays. Each
//! operator then gets the paper's error ratio (`est/act`) and its symmetric
//! folding, the **q-error** `max(est/act, act/est)` (see
//! [`els_core::q_error`]).

use std::fmt;
use std::time::Duration;

use std::collections::HashMap;

use els_catalog::{FeedbackKey, QueryCorrections};
use els_core::{q_error, scan_fingerprint, Els, Predicate, SelectivityRule};
use els_exec::{ExecMetrics, ExecMode, Observations, PlanNode};
use els_optimizer::OptimizedQuery;

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
    /// Inclusive subtree wall time (zero for rescanned inners and for a
    /// stored probe side a fused hash count scans as it probes: their cost
    /// is charged to their join).
    pub elapsed: Duration,
    /// True for a rescanned inner (NL/INL over a stored table): its
    /// "actual" is the stored row count, not a post-filter cardinality, so
    /// feedback harvesting must not treat it as a scan observation.
    pub rescan: bool,
    /// A join's two inputs: their positions in the report's operators.
    pub inputs: Option<(usize, usize)>,
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

/// Observations that belong to another plan than the one they meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The first plan node (in post-order) without its observation or its
    /// annotation, or the number of nodes when observations are left over.
    pub at: usize,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "the observations diverge from the plan at node {}", self.at)
    }
}

impl std::error::Error for Mismatch {}

/// Build the per-operator report of an executed plan: the optimized
/// plan's nodes, each with its annotation (the optimizer's estimate) and
/// its record in `obs` (what the execution observed, one record per node
/// at the same position), then laid out in pre-order from the root through
/// each join's inputs. A record covering other tables than its node, a
/// missing record, or one left over means the observations came from
/// another plan.
pub fn build_operator_reports(
    optimized: &OptimizedQuery,
    binding_names: &[String],
    obs: &Observations,
) -> Result<Vec<OperatorReport>, Mismatch> {
    let plan = &optimized.plan.root;
    let mut post = Vec::with_capacity(plan.node_count());
    for (at, node) in plan.nodes().iter().enumerate() {
        let mask = plan.tables(at);
        let seen = obs.nodes.get(at).filter(|n| n.tables == mask).ok_or(Mismatch { at })?;
        let estimate = optimized.annotations.get(at).ok_or(Mismatch { at })?;
        let tables: Vec<usize> = (0..64).filter(|t| mask >> t & 1 == 1).collect();
        let names: Vec<&str> =
            tables.iter().map(|&t| binding_names.get(t).map_or("?", String::as_str)).collect();
        let names = names.join(",");
        let rescan = plan.rescanned(at);
        let (label, inputs) = match node {
            PlanNode::Join { method, left, right, .. } => {
                (format!("Join<{}> {{{names}}}", method.name()), Some((*left, *right)))
            }
            PlanNode::Scan { .. } if rescan => (format!("Rescan({names})"), None),
            PlanNode::Scan { filters, .. } if !filters.is_empty() => {
                (format!("Scan({names}) [{} filter(s)]", filters.len()), None)
            }
            PlanNode::Scan { .. } => (format!("Scan({names})"), None),
        };
        post.push(Some(OperatorReport {
            label,
            depth: 0,
            tables,
            is_join: inputs.is_some(),
            estimated: estimate.rows,
            actual: seen.rows,
            elapsed: seen.elapsed,
            rescan,
            inputs,
        }));
    }
    if obs.nodes.len() > post.len() {
        return Err(Mismatch { at: post.len() });
    }
    let mut operators = Vec::with_capacity(post.len());
    if let Some(root) = post.len().checked_sub(1) {
        place(&mut post, root, 0, &mut operators)?;
    }
    Ok(operators)
}

/// Move the subtree under `post[at]` to `out` in pre-order, turning its
/// joins' `inputs` from positions in `post` into positions in `out`.
/// Returns the subtree root's position in `out`.
fn place(
    post: &mut [Option<OperatorReport>],
    at: usize,
    depth: usize,
    out: &mut Vec<OperatorReport>,
) -> Result<usize, Mismatch> {
    let mut op = post.get_mut(at).and_then(Option::take).ok_or(Mismatch { at })?;
    let (position, inputs) = (out.len(), op.inputs.take());
    op.depth = depth;
    out.push(op);
    if let Some((left, right)) = inputs {
        let left = place(post, left, depth + 1, out)?;
        let right = place(post, right, depth + 1, out)?;
        if let Some(op) = out.get_mut(position) {
            op.inputs = Some((left, right));
        }
    }
    Ok(position)
}

/// Harvest one executed query's estimated-vs-actual residuals into the
/// feedback store behind `corrections`. Returns the number of
/// publications granted; any granted publication means the caller should
/// invalidate cached plans (once — publications coalesce into a single
/// epoch bump per query).
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
) -> u64 {
    let store = corrections.store();
    let mut published = 0u64;
    for op in operators {
        if op.rescan {
            continue;
        }
        let Some((l, r)) = op.inputs else {
            let Some(&t) = op.tables.first() else { continue };
            let fingerprint = scan_fingerprint(els.predicates(), t);
            let Some(key) = corrections.scan_key(t, &fingerprint) else { continue };
            published += u64::from(store.observe(key, op.estimated, op.actual as f64, corrected));
            continue;
        };
        let (Some(lop), Some(rop)) = (operators.get(l), operators.get(r)) else { continue };
        if op.actual == 0 {
            // An empty observed join: the q-error convention calls a
            // sub-tuple estimate of an empty result exact, and a residual
            // learned from it would only push corrections toward zero.
            continue;
        }
        // Count how many times the estimator applied each class's
        // correction at this step: corrections scale *predicate*
        // selectivities, so Rule M (which multiplies every eligible
        // predicate) applies a class's factor once per predicate crossing
        // the two children, while the choosing rules (LS/SS/REP) collapse
        // a class's eligible set into one value and apply it once.
        let crosses = |l: usize, r: usize| {
            let (a, b) = (&lop.tables, &rop.tables);
            (a.contains(&l) && b.contains(&r)) || (b.contains(&l) && a.contains(&r))
        };
        let mut applications: HashMap<FeedbackKey, usize> = HashMap::new();
        for p in els.predicates() {
            let key = match p {
                Predicate::JoinEq { left, right } if crosses(left.table, right.table) => {
                    let classes = els.classes();
                    classes.class_of(*left).and_then(|c| corrections.join_key(classes.members(c)))
                }
                // Inequality edges: applied once per predicate under every
                // rule (range selectivities multiply independently of the
                // equi-join rule's choose-vs-multiply policy), keyed by the
                // canonicalized `(column, op, column)` triple.
                Predicate::JoinRange { left, op, right } if crosses(left.table, right.table) => {
                    corrections.range_key(*left, *op, *right)
                }
                _ => None,
            };
            if let Some(key) = key {
                *applications.entry(key).or_insert(0) += 1;
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
            published += u64::from(store.observe_ratio(key, ratio, corrected));
        }
    }
    published
}
