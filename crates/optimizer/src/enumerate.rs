//! Dynamic-programming join enumeration over left-deep or bushy trees.
//!
//! The classic System R algorithm [13]: the best plan for every subset of
//! tables is kept, and subsets are extended one base table at a time (and,
//! under [`TreeShape::Bushy`], paired with every disjoint subset that
//! already has a plan). At each extension the estimator supplies the
//! intermediate result size — this is precisely the "incremental
//! estimation" loop the paper's Algorithm ELS serves — and the cost model
//! prices each applicable join method; the cheapest (plan, method)
//! combination survives.
//!
//! The loop runs once per candidate (`n·2ⁿ⁻¹` left-deep extensions plus
//! about `3ⁿ` bushy pairs), so a candidate costs one cost formula per
//! method over terms computed once per input, and nothing else. An
//! estimator whose sizes depend on the table set alone
//! ([`CardinalityEstimator::order_independent`]: ELS under Rule LS, UES,
//! no-estimates) is asked once per subset before the loop; any other once
//! per candidate, with the same result. A table entry is a `Copy` record
//! holding back-pointers to its two inputs rather than a plan, and "do
//! equality keys / range edges link these two sides" is an AND against
//! per-table adjacency masks. The operator tree, with its key lists and
//! compiled scan filters, is built once, for the winner, by following the
//! back-pointers from the full set; the same walk emits the winner's
//! [`Annotation`]s, one per node in the executor's post-order, holding the
//! estimates and costs the DP charged, so nothing re-estimates the plan.
//!
//! Cartesian products are permitted but naturally priced out whenever a
//! connected extension exists. A candidate replaces an entry only when it
//! is strictly cheaper, so **candidate order is tie-break order**: masks
//! ascending, then base tables ascending, then partner subsets descending;
//! methods in the caller's order. Reordering any of these loops changes
//! which of two equal-cost plans is returned.
//!
//! [`cost_order`] prices one fixed left-deep order by the same method
//! policy and emits the same annotations, for join-order searches outside
//! the DP.

use els_core::estimator::JoinState;
use els_core::predicate::{CmpOp, Predicate};
use els_core::{CardinalityEstimator, ColumnRef};
use els_exec::filter::CompiledFilter;
use els_exec::{JoinMethod, PlanNode};

use crate::cost::{CostParams, Inner, InputTerms, MaterializedTerms, StoredTerms};
use crate::error::{OptimizerError, OptimizerResult};
use crate::profile::TableProfile;

/// Hard cap on query size: the DP table is dense over `2^n` subsets.
pub const MAX_DP_TABLES: usize = 16;

/// The space of join trees the DP explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TreeShape {
    /// Left-deep trees only: every join's inner is a base table (System R
    /// [13], and the shape the paper's incremental estimation addresses).
    #[default]
    LeftDeep,
    /// All bushy trees: both join inputs may be intermediates. An
    /// extension beyond the paper; estimation uses the set-vs-set form of
    /// Step 6 ([`Els::join_sets`]), under which Rule LS remains consistent
    /// with Equation 3.
    Bushy,
}

/// The winning plan for the full table set.
#[derive(Debug, Clone)]
pub struct EnumerationResult {
    /// The chosen operator tree (no output node).
    pub root: PlanNode,
    /// Join order: tables in the sequence the left-deep tree touches them.
    pub join_order: Vec<usize>,
    /// Estimated result size after each join step (`join_order.len() - 1`
    /// entries) — the numbers the paper's experiment table reports. The
    /// join annotations' rows, in post-order.
    pub estimated_sizes: Vec<f64>,
    /// Total estimated cost in page units: the root annotation's cost.
    pub estimated_cost: f64,
    /// One record per node of `root`, in the executor's post-order.
    pub annotations: Vec<Annotation>,
}

impl EnumerationResult {
    /// The result for `root`, whose annotations are `annotations`.
    fn new(root: PlanNode, annotations: Vec<Annotation>) -> EnumerationResult {
        let joins = annotations.iter().filter(|a| a.method.is_some());
        let (estimated_sizes, join_order) = (joins.map(|a| a.rows).collect(), root.join_order());
        let estimated_cost = annotations.last().map_or(0.0, |a| a.cost);
        EnumerationResult { root, join_order, estimated_sizes, estimated_cost, annotations }
    }
}

/// One node of a chosen plan as the optimizer priced it. A plan's
/// annotations are in the executor's post-order (left input, right input,
/// node), the order of its scan and join observations, so EXPLAIN ANALYZE
/// pairs them with the actuals without re-estimating anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Annotation {
    /// The tables under the node, one bit per table.
    pub tables: u64,
    /// The join method; `None` for a scan.
    pub method: Option<JoinMethod>,
    /// The local predicates a scan applies (0 for a join).
    pub filters: usize,
    /// Estimated output rows. A rescanned inner's are its stored
    /// cardinality, which is what the executor records for it.
    pub rows: f64,
    /// Estimated cost of the node's subtree, in page units.
    pub cost: f64,
    /// Position of a join's left input in the annotations, below its own
    /// (0 for a scan).
    pub left: usize,
    /// Position of a join's right input, between the left's and its own.
    pub right: usize,
    /// A stored inner that its nested-loops or indexed nested-loops join
    /// rescans instead of executing as a scan.
    pub rescan: bool,
}

impl Annotation {
    /// A scan of `table` applying `filters` local predicates. Under a
    /// `parent` join that rescans it, its rows are the stored cardinality.
    fn scan(
        els: &dyn CardinalityEstimator,
        table: usize,
        filters: usize,
        rows: f64,
        cost: f64,
        parent: Option<JoinMethod>,
    ) -> OptimizerResult<Annotation> {
        let rescan = matches!(parent, Some(JoinMethod::NestedLoop | JoinMethod::IndexNestedLoop));
        let rows = if rescan { els.original_cardinality(table)? } else { rows };
        let (tables, method, left, right) = (1 << table, None, 0, 0);
        Ok(Annotation { tables, method, filters, rows, cost, left, right, rescan })
    }

    /// A join of the annotations at positions `left` and `right`.
    fn join(tables: u64, method: JoinMethod, rows: f64, cost: f64, inputs: (usize, usize)) -> Self {
        let (method, (left, right)) = (Some(method), inputs);
        Annotation { tables, method, filters: 0, rows, cost, left, right, rescan: false }
    }
}

/// One plan that was, when it was priced, the cheapest for its table
/// subset. Its inputs are back-pointers into the list of such plans, not
/// subtrees: 48 bytes and `Copy`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    cost: f64,
    state: JoinState,
    /// Combined tuple width of the covered tables (prices rescans of this
    /// result as a materialized inner).
    width: usize,
    /// The covered tables.
    mask: u32,
    /// Positions of the two inputs in the plan list (unused for a scan).
    left: u32,
    right: u32,
    /// `None` for a base-table scan.
    method: Option<JoinMethod>,
}

/// The DP table: every plan that ever became the best for its subset, in
/// the order they won, and per subset the position of the current best.
///
/// A superseded plan stays in the list because a bushy candidate may have
/// taken it as its inner before the cheaper one arrived (a partner subset
/// numerically above the outer's is not final yet); the back-pointer then
/// still leads to the plan whose cost the candidate was charged.
struct PlanTable {
    plans: Vec<Entry>,
    /// Parallel to `plans`: each plan's cost terms as a join input,
    /// computed once, when it wins.
    terms: Vec<MaterializedTerms>,
    best: Vec<Option<u32>>,
}

/// The current best plan for a subset.
#[derive(Clone, Copy)]
struct Best {
    /// Its position in the plan list.
    at: u32,
    entry: Entry,
    terms: MaterializedTerms,
}

impl PlanTable {
    fn new(n: usize) -> PlanTable {
        PlanTable {
            plans: Vec::with_capacity(1 << n),
            terms: Vec::with_capacity(1 << n),
            best: vec![None; 1 << n],
        }
    }

    /// The current best plan for `mask`.
    fn best(&self, mask: u32) -> Option<Best> {
        let at = (*self.best.get(mask as usize)?)?;
        let (entry, terms) = (*self.plans.get(at as usize)?, *self.terms.get(at as usize)?);
        Some(Best { at, entry, terms })
    }

    /// Install `candidate` when it is strictly cheaper than the current
    /// best for its subset (so the earliest of equal-cost candidates stays).
    fn offer(&mut self, candidate: Entry, params: &CostParams) {
        let Some(slot) = self.best.get_mut(candidate.mask as usize) else { return };
        let incumbent = slot.and_then(|at| self.plans.get(at as usize));
        if incumbent.is_none_or(|e| candidate.cost < e.cost) {
            *slot = Some(self.plans.len() as u32);
            self.plans.push(candidate);
            let rows = candidate.state.cardinality();
            self.terms.push(params.materialized_terms(rows, candidate.width));
        }
    }

    /// The operator tree of the plan at `at`, rebuilt from the
    /// back-pointers, with its [`Annotation`]s appended to `out` in
    /// post-order; returns the tree and its root's position in `out`.
    /// `parent` is the method of the join the plan is the inner of. Each
    /// base table occurs once in a tree, so its compiled filters are moved
    /// out of `filters`.
    fn build(
        &self,
        at: u32,
        parent: Option<JoinMethod>,
        els: &dyn CardinalityEstimator,
        filters: &mut [Vec<CompiledFilter>],
        out: &mut Vec<Annotation>,
    ) -> OptimizerResult<(PlanNode, usize)> {
        let lost = || OptimizerError::Internal(format!("join enumeration lost the plan at {at}"));
        let entry = self.plans.get(at as usize).ok_or_else(lost)?;
        let (rows, cost) = (entry.state.cardinality(), entry.cost);
        let (node, annotation) = match entry.method {
            None => {
                let table_id = entry.mask.trailing_zeros() as usize;
                let filters = std::mem::take(filters.get_mut(table_id).ok_or_else(lost)?);
                let scan = Annotation::scan(els, table_id, filters.len(), rows, cost, parent)?;
                (PlanNode::Scan { table_id, filters }, scan)
            }
            Some(method) => {
                let inner = u64::from(self.plans.get(entry.right as usize).ok_or_else(lost)?.mask);
                let outer = u64::from(entry.mask) & !inner;
                let (keys, ranges) = edges_between(els.predicates(), outer, inner);
                let (left, l) = self.build(entry.left, None, els, filters, out)?;
                let (right, r) = self.build(entry.right, Some(method), els, filters, out)?;
                let (left, right) = (Box::new(left), Box::new(right));
                let join = Annotation::join(u64::from(entry.mask), method, rows, cost, (l, r));
                (PlanNode::Join { method, left, right, keys, ranges }, join)
            }
        };
        out.push(annotation);
        Ok((node, out.len() - 1))
    }
}

/// What the loop needs of one base table, computed once per enumeration.
struct BaseTable {
    /// Its cost terms as a stored inner, over the planning cardinality
    /// (what a filtered scan is expected to produce).
    terms: StoredTerms,
    /// Tables linked to this one by an equality / an inequality predicate.
    key_adjacent: u32,
    range_adjacent: u32,
}

/// Scan filters for one table: every local predicate of the (possibly
/// closed) predicate set that touches only this table.
pub(crate) fn scan_filters(
    predicates: &[Predicate],
    table: usize,
) -> OptimizerResult<Vec<CompiledFilter>> {
    predicates
        .iter()
        .filter(|p| p.is_local() && p.columns().iter().all(|c| c.table == table))
        .map(|p| CompiledFilter::from_predicate(p).map_err(OptimizerError::from))
        .collect()
}

/// The equality keys and the inequality ranges of one join.
type JoinEdges = (Vec<(ColumnRef, ColumnRef)>, Vec<(ColumnRef, CmpOp, ColumnRef)>);

/// The join predicates between two disjoint table sets, keys and ranges, in
/// one pass: each oriented `(column in left_mask, column in right_mask)`,
/// a range's operator flipped when it is stored the other way round. The one
/// place a predicate is matched against the two sides of a join.
fn edges_between(predicates: &[Predicate], left_mask: u64, right_mask: u64) -> JoinEdges {
    let links = |l: &ColumnRef, r: &ColumnRef| {
        left_mask & (1 << l.table) != 0 && right_mask & (1 << r.table) != 0
    };
    let (mut keys, mut ranges) = (Vec::new(), Vec::new());
    for p in predicates {
        let (l, op, r) = match p {
            Predicate::JoinEq { left, right } => (left, None, right),
            Predicate::JoinRange { left, op, right } => (left, Some(*op), right),
            _ => continue,
        };
        let (l, op, r) = if links(l, r) {
            (l, op, r)
        } else if links(r, l) {
            (r, op.map(CmpOp::flip), l)
        } else {
            continue;
        };
        match op {
            None => keys.push((*l, *r)),
            Some(op) => ranges.push((*l, op, *r)),
        }
    }
    (keys, ranges)
}

/// Join keys linking the tables of `mask` to `table`: `(left, right)` pairs
/// with `left` inside the mask and `right` on the new table.
pub fn join_keys(predicates: &[Predicate], mask: u64, table: usize) -> Vec<(ColumnRef, ColumnRef)> {
    join_keys_between(predicates, mask, 1u64 << table)
}

/// Join keys between two disjoint table sets: `(left, right)` pairs with
/// `left` in `left_mask` and `right` in `right_mask`.
pub(crate) fn join_keys_between(
    predicates: &[Predicate],
    left_mask: u64,
    right_mask: u64,
) -> Vec<(ColumnRef, ColumnRef)> {
    edges_between(predicates, left_mask, right_mask).0
}

/// Inequality predicates linking the tables of `mask` to `table`, oriented
/// left-side-in-mask (flipping the operator when the stored orientation is
/// the other way round).
pub fn range_keys(
    predicates: &[Predicate],
    mask: u64,
    table: usize,
) -> Vec<(ColumnRef, CmpOp, ColumnRef)> {
    range_keys_between(predicates, mask, 1u64 << table)
}

/// Inequality predicates between two disjoint table sets, oriented
/// `(left in left_mask, op, right in right_mask)`.
pub(crate) fn range_keys_between(
    predicates: &[Predicate],
    left_mask: u64,
    right_mask: u64,
) -> Vec<(ColumnRef, CmpOp, ColumnRef)> {
    edges_between(predicates, left_mask, right_mask).1
}

/// Run the DP over any [`CardinalityEstimator`] (the paper's ELS, the
/// UES-style upper bound, the no-estimates baseline, ...). `shape` selects
/// left-deep (System R) or bushy exploration.
pub fn enumerate(
    els: &dyn CardinalityEstimator,
    profiles: &[TableProfile],
    methods: &[JoinMethod],
    params: &CostParams,
    shape: TreeShape,
) -> OptimizerResult<EnumerationResult> {
    // Observable from the outside so cache effectiveness ("hits skip
    // enumeration") can be asserted; see `els_exec::metrics::enumerations`.
    els_exec::metrics::record_enumeration();
    let n = profiles.len();
    if n == 0 {
        return Err(OptimizerError::Unsupported("query with no tables".into()));
    }
    if n > MAX_DP_TABLES {
        return Err(OptimizerError::Unsupported(format!(
            "{n} tables exceeds the DP limit of {MAX_DP_TABLES}"
        )));
    }
    if methods.is_empty() {
        return Err(OptimizerError::Unsupported("no join methods enabled".into()));
    }
    let predicates = els.predicates();

    let mut tables: Vec<BaseTable> = Vec::with_capacity(n);
    let mut filters: Vec<Vec<CompiledFilter>> = Vec::with_capacity(n);
    let mut dp = PlanTable::new(n);
    for (t, profile) in profiles.iter().enumerate() {
        tables.push(BaseTable {
            terms: params.stored_terms(profile, els.effective_cardinality(t)?),
            key_adjacent: 0,
            range_adjacent: 0,
        });
        filters.push(scan_filters(predicates, t)?);
        dp.offer(
            Entry {
                cost: params.scan(profile),
                state: els.initial_state(t)?,
                width: profile.row_bytes,
                mask: 1 << t,
                left: 0,
                right: 0,
                method: None,
            },
            params,
        );
    }
    for p in predicates {
        let (l, r, is_key) = match p {
            Predicate::JoinEq { left, right } => (left.table, right.table, true),
            Predicate::JoinRange { left, right, .. } => (left.table, right.table, false),
            _ => continue,
        };
        if l >= n || r >= n {
            continue;
        }
        for (t, other) in [(l, r), (r, l)] {
            if let Some(table) = tables.get_mut(t) {
                let adjacent =
                    if is_key { &mut table.key_adjacent } else { &mut table.range_adjacent };
                *adjacent |= 1 << other;
            }
        }
    }
    let universe = (1u32 << n) - 1;
    let sizes =
        if els.order_independent() { subset_sizes(els, &dp, universe)? } else { Vec::new() };

    // One candidate: `outer ⋈ inner`, offered at its cheapest applicable
    // method (none may be — e.g. IndexNestedLoop-only configurations over
    // an intermediate — which is no candidate, not a panic). An inner that
    // is a scan is a stored table; anything else is materialized. The size
    // of the joined set comes from `sizes` when the estimator filled it,
    // else from one estimator call.
    let consider = |dp: &mut PlanTable,
                    outer: &Best,
                    inner: &Best,
                    links: (bool, bool)|
     -> OptimizerResult<()> {
        let mask = outer.entry.mask | inner.entry.mask;
        let t = inner.entry.mask.trailing_zeros() as usize;
        let stored = tables.get(t).filter(|_| inner.entry.method.is_none());
        let state = match (sizes.get(mask as usize - 1), stored) {
            (Some(state), _) => *state,
            (None, Some(_)) => els.join(&outer.entry.state, t)?,
            (None, None) => els.join_sets(&outer.entry.state, &inner.entry.state)?,
        };
        // The stored inner's scan is charged inside each method's formula.
        let (inner_terms, inputs_cost) = match stored {
            Some(table) => (Inner::Stored(&table.terms), outer.entry.cost),
            None => (Inner::Materialized(&inner.terms), outer.entry.cost + inner.entry.cost),
        };
        let (outer_terms, out) = (&outer.terms.input, state.cardinality());
        if let Some((method, join_cost)) =
            cheapest_method(methods, params, outer_terms, inner_terms, out, links)
        {
            let candidate = Entry {
                cost: inputs_cost + join_cost,
                state,
                width: outer.entry.width + inner.entry.width,
                mask,
                left: outer.at,
                right: inner.at,
                method: Some(method),
            };
            dp.offer(candidate, params);
        }
        Ok(())
    };

    // Extend subsets in increasing mask order (all proper submasks of m are
    // numerically smaller than m, so m's plan is final when m is extended).
    for mask in 1..=universe {
        let Some(outer) = dp.best(mask) else { continue };
        // Every table a key / a range edge leads to from inside `mask`:
        // "do keys link `mask` to this other side" is then one AND.
        let (key_reach, range_reach) = tables
            .iter()
            .enumerate()
            .filter(|(t, _)| mask & (1 << t) != 0)
            .fold((0u32, 0u32), |(k, r), (_, b)| (k | b.key_adjacent, r | b.range_adjacent));
        let links = |other: u32| (key_reach & other != 0, range_reach & other != 0);

        // Left-deep transitions: extend by one base table.
        for bit in (0..n).map(|t| 1u32 << t).filter(|bit| mask & bit == 0) {
            if let Some(scan) = dp.best(bit) {
                consider(&mut dp, &outer, &scan, links(bit))?;
            }
        }

        // Bushy transitions: pair this subtree, as the outer, with every
        // disjoint subtree of size >= 2 that has a plan so far (size-1
        // partners are covered by the left-deep transitions above, with
        // their cheaper base-inner cost structure).
        //
        // A pair {A, B} with A < B numerically is priced with B outer and
        // A inner at iteration B, when A's plan is final. The other
        // orientation is priced at iteration A only against whatever plan
        // masks below A have pushed into B by then — often none: at
        // A = 0b0011 nothing has reached B = 0b1100, which only masks 4 and
        // 8 push into. So "A outer, B inner" is in general not considered,
        // although nested loops over a materialized inner and a parallel
        // probe cost the two orientations differently (ROADMAP, "bushy
        // orientation").
        if shape == TreeShape::Bushy {
            let rest = universe & !mask;
            let mut sub = rest;
            while sub > 0 {
                if sub.count_ones() >= 2 {
                    if let Some(partner) = dp.best(sub) {
                        consider(&mut dp, &outer, &partner, links(sub))?;
                    }
                }
                sub = (sub - 1) & rest;
            }
        }
    }

    // Every subset should be reachable (left-deep transitions alone connect
    // any mask), but a serving thread must degrade to an error — never
    // panic — if that invariant is ever broken by a bad configuration.
    let no_plan = || {
        OptimizerError::Internal(format!(
            "join enumeration built no plan for the full table set ({n} tables)"
        ))
    };
    let winner = dp.best(universe).ok_or_else(no_plan)?;
    let mut annotations = Vec::with_capacity(2 * n - 1);
    let (root, _) = dp.build(winner.at, None, els, &mut filters, &mut annotations)?;
    Ok(EnumerationResult::new(root, annotations))
}

/// The state of every non-empty subset `m` of `universe`, at `m - 1`, for
/// an [order-independent](CardinalityEstimator::order_independent)
/// estimator: each subset is its highest table joined to the rest (the
/// estimator's incremental step), a single table is its scan's state. One
/// estimator call per subset, where the DP would make one per candidate.
fn subset_sizes(
    els: &dyn CardinalityEstimator,
    dp: &PlanTable,
    universe: u32,
) -> OptimizerResult<Vec<JoinState>> {
    let mut sizes = Vec::with_capacity(universe as usize);
    for mask in 1..=universe {
        let high = mask.ilog2();
        let state = match (mask ^ (1 << high)).checked_sub(1) {
            None => dp.best(mask).map(|scan| scan.entry.state),
            Some(rest) => {
                sizes.get(rest as usize).map(|r| els.join(r, high as usize)).transpose()?
            }
        };
        sizes.push(state.ok_or_else(|| {
            OptimizerError::Internal(format!("no estimate for the table subset {mask:#b}"))
        })?);
    }
    Ok(sizes)
}

/// Cost one fixed left-deep order, choosing the join method of each step by
/// the DP's policy (`cheapest_method`), so a join-order search outside
/// the DP prices its candidates exactly as the DP would. `profiles` holds
/// one profile per table of `els`.
pub fn cost_order(
    order: &[usize],
    els: &dyn CardinalityEstimator,
    profiles: &[TableProfile],
    methods: &[JoinMethod],
    params: &CostParams,
) -> OptimizerResult<EnumerationResult> {
    let Some((&first, rest)) = order.split_first() else {
        return Err(OptimizerError::Unsupported("empty join order".into()));
    };
    let profile = |t: usize| {
        profiles.get(t).ok_or_else(|| {
            let (have, want) = (profiles.len(), els.num_tables());
            OptimizerError::Unsupported(format!("table {t} of {want} has no profile among {have}"))
        })
    };
    let predicates = els.predicates();
    let mut state = els.initial_state(first)?;
    let filters = scan_filters(predicates, first)?;
    let mut cost = params.scan(profile(first)?);
    let mut annotations =
        vec![Annotation::scan(els, first, filters.len(), state.cardinality(), cost, None)?];
    let mut node = PlanNode::Scan { table_id: first, filters };
    let mut mask: u64 = 1 << first;

    for &t in rest {
        let new_state = els.join(&state, t)?;
        let outer = params.input_terms(state.cardinality());
        let inner = params.stored_terms(profile(t)?, els.effective_cardinality(t)?);
        let (keys, ranges) = edges_between(predicates, mask, 1 << t);
        let links = (!keys.is_empty(), !ranges.is_empty());
        let Some((method, join_cost)) = cheapest_method(
            methods,
            params,
            &outer,
            Inner::Stored(&inner),
            new_state.cardinality(),
            links,
        ) else {
            return Err(OptimizerError::Unsupported("no join methods enabled".into()));
        };
        let filters = scan_filters(predicates, t)?;
        let (rows, scan_cost) = (els.initial_state(t)?.cardinality(), params.scan(profile(t)?));
        let scan = Annotation::scan(els, t, filters.len(), rows, scan_cost, Some(method))?;
        let outer_at = annotations.len() - 1;
        annotations.push(scan);
        cost += join_cost;
        mask |= 1 << t;
        let rows = new_state.cardinality();
        annotations.push(Annotation::join(mask, method, rows, cost, (outer_at, outer_at + 1)));
        node = PlanNode::Join {
            method,
            left: Box::new(node),
            right: Box::new(PlanNode::Scan { table_id: t, filters }),
            keys,
            ranges,
        };
        state = new_state;
    }
    Ok(EnumerationResult::new(node, annotations))
}

/// The cheapest applicable method for one candidate join, the earliest
/// enabled one on ties; `None` when no enabled method can run it.
/// `output_rows` is the estimator's size for the joined set, and
/// `(has_keys, has_ranges)` say which kinds of predicate link the two inputs.
/// The method policy of both the DP above and [`cost_order`].
fn cheapest_method(
    methods: &[JoinMethod],
    p: &CostParams,
    outer: &InputTerms,
    inner: Inner<'_>,
    output_rows: f64,
    (has_keys, has_ranges): (bool, bool),
) -> Option<(JoinMethod, f64)> {
    let (input, scan, rescan, index) = inner.parts();
    // The band join is not part of the configured method list: it
    // becomes a candidate exactly when it is executable — no equi-keys
    // but at least one inequality edge. Keyed joins treat the
    // inequalities as residual filters instead.
    let band_ok = !has_keys && has_ranges;
    // Keyless methods materialize the full cross product before the
    // residual inequality filter; only the band join prunes while
    // probing, so only it is charged the filtered output.
    let emit = if band_ok { outer.rows * input.rows } else { output_rows };
    let mut best: Option<(JoinMethod, f64)> = None;
    for &m in methods.iter().chain(band_ok.then_some(&JoinMethod::Range)) {
        let cost = match (m, index) {
            (JoinMethod::NestedLoop, _) => p.nested_loop_cost(outer.rows, rescan),
            (JoinMethod::SortMerge, _) => p.sort_merge_cost(scan, outer, input, emit),
            (JoinMethod::Hash, _) => p.hash_cost(scan, outer.rows, input, emit),
            // Indexed nested loops probes a stored table's index, so
            // it needs a base inner and at least one key to probe on.
            (JoinMethod::IndexNestedLoop, Some(index)) if has_keys => {
                p.index_nested_loop_cost(outer.rows, index, emit)
            }
            (JoinMethod::Range, _) if band_ok => p.range_join_cost(scan, outer, input, output_rows),
            (JoinMethod::IndexNestedLoop | JoinMethod::Range, _) => continue,
        };
        if best.is_none_or(|(_, c)| cost < c) {
            best = Some((m, cost));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_core::predicate::CmpOp;
    use els_core::{ColumnStatistics, Els, ElsOptions, QueryStatistics, TableStatistics};

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    /// The paper's Section 8 setup (statistics only).
    fn section8(options: &ElsOptions) -> (Els, Vec<TableProfile>) {
        let mk = |rows: f64| {
            TableStatistics::new(rows, vec![ColumnStatistics::with_domain(rows, 0.0, rows - 1.0)])
        };
        let stats =
            QueryStatistics::new(vec![mk(1000.0), mk(10_000.0), mk(50_000.0), mk(100_000.0)]);
        let preds = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
            Predicate::col_eq(c(2, 0), c(3, 0)).unwrap(),
            Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64),
        ];
        let els = Els::prepare(&preds, &stats, options).unwrap();
        let profiles = [1000.0, 10_000.0, 50_000.0, 100_000.0]
            .iter()
            .map(|&r| TableProfile::synthetic(r, 16))
            .collect();
        (els, profiles)
    }

    const NL_SM: [JoinMethod; 2] = [JoinMethod::NestedLoop, JoinMethod::SortMerge];

    /// A chain query over n tables with growing cardinalities and a filter
    /// on table 0.
    fn chain(n: usize) -> (Els, Vec<TableProfile>) {
        let stats = QueryStatistics::new(
            (0..n)
                .map(|i| {
                    let rows = 1000.0 * (i + 1) as f64;
                    TableStatistics::new(
                        rows,
                        vec![ColumnStatistics::with_domain(rows, 0.0, rows - 1.0)],
                    )
                })
                .collect(),
        );
        let mut preds: Vec<Predicate> =
            (1..n).map(|i| Predicate::col_eq(c(i - 1, 0), c(i, 0)).unwrap()).collect();
        preds.push(Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64));
        let els = Els::prepare(&preds, &stats, &ElsOptions::algorithm_els()).unwrap();
        let profiles =
            (0..n).map(|i| TableProfile::synthetic(1000.0 * (i + 1) as f64, 16)).collect();
        (els, profiles)
    }

    #[test]
    fn cost_order_matches_dp_on_the_dp_winner() {
        let (els, profiles) = chain(5);
        let dp = enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
            .unwrap();
        let re =
            cost_order(&dp.join_order, &els, &profiles, &NL_SM, &CostParams::default()).unwrap();
        assert!((re.estimated_cost - dp.estimated_cost).abs() < 1e-9);
        assert_eq!(re.join_order, dp.join_order);
        assert_eq!(re.estimated_sizes, dp.estimated_sizes);
    }

    #[test]
    fn a_profile_count_that_disagrees_with_the_estimator_is_unsupported() {
        let (els, profiles) = chain(2);
        for short in [&profiles[..1], &[]] {
            let err = cost_order(&[0, 1], &els, short, &NL_SM, &CostParams::default());
            assert!(matches!(err, Err(OptimizerError::Unsupported(_))), "{err:?}");
        }
    }

    /// DESIGN.md quotes these figures for the DP table's footprint.
    #[test]
    fn a_table_entry_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 48);
    }

    #[test]
    fn an_entrys_pricing_terms_are_40_bytes() {
        assert_eq!(std::mem::size_of::<MaterializedTerms>(), 40);
    }

    #[test]
    fn single_table_is_a_scan() {
        let stats = QueryStatistics::new(vec![TableStatistics::new(
            10.0,
            vec![ColumnStatistics::with_distinct(10.0)],
        )]);
        let els = Els::prepare(&[], &stats, &ElsOptions::default()).unwrap();
        let r = enumerate(
            &els,
            &[TableProfile::synthetic(10.0, 8)],
            &NL_SM,
            &CostParams::default(),
            TreeShape::LeftDeep,
        )
        .unwrap();
        assert!(matches!(r.root, PlanNode::Scan { table_id: 0, .. }));
        assert_eq!(r.join_order, vec![0]);
        assert!(r.estimated_sizes.is_empty());
    }

    #[test]
    fn section8_els_avoids_nested_loops_over_giants() {
        let (els, profiles) = section8(&ElsOptions::algorithm_els());
        let r = enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
            .unwrap();
        // Every intermediate is estimated at 100.
        for s in &r.estimated_sizes {
            assert!((s - 100.0).abs() < 1e-6, "sizes {:?}", r.estimated_sizes);
        }
        // No nested-loops join may have table G (3) as its inner: an honest
        // 100-tuple outer makes rescanning 100k rows absurd.
        fn nl_inner_tables(node: &PlanNode, out: &mut Vec<usize>) {
            if let PlanNode::Join { method, left, right, .. } = node {
                nl_inner_tables(left, out);
                if *method == JoinMethod::NestedLoop {
                    if let PlanNode::Scan { table_id, .. } = right.as_ref() {
                        out.push(*table_id);
                    }
                }
            }
        }
        let mut nl_inners = Vec::new();
        nl_inner_tables(&r.root, &mut nl_inners);
        assert!(!nl_inners.contains(&3), "ELS plan rescans G: {}", r.root.explain());
    }

    #[test]
    fn section8_sm_is_misled_into_rescanning_a_giant() {
        let (els, profiles) = section8(&ElsOptions::algorithm_sm());
        let r = enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
            .unwrap();
        // The final intermediate estimates collapse toward zero...
        assert!(r.estimated_sizes.last().copied().unwrap() < 1e-3, "sizes {:?}", r.estimated_sizes);
        // ...so some nested-loops rescan of a big table looks free. G (or at
        // least B) must appear as an NL inner.
        let text = r.root.explain();
        fn has_nl(node: &PlanNode) -> bool {
            match node {
                PlanNode::Scan { .. } => false,
                PlanNode::Join { method, left, .. } => {
                    *method == JoinMethod::NestedLoop || has_nl(left)
                }
            }
        }
        assert!(has_nl(&r.root), "SM plan unexpectedly avoids NL:\n{text}");
    }

    #[test]
    fn cartesian_products_are_priced_not_forbidden() {
        // Two tables, no predicates: the only plan is a cartesian product.
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(10.0, vec![ColumnStatistics::with_distinct(10.0)]),
            TableStatistics::new(20.0, vec![ColumnStatistics::with_distinct(20.0)]),
        ]);
        let els = Els::prepare(&[], &stats, &ElsOptions::default()).unwrap();
        let profiles = vec![TableProfile::synthetic(10.0, 8), TableProfile::synthetic(20.0, 8)];
        let r = enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
            .unwrap();
        assert_eq!(r.estimated_sizes, vec![200.0]);
        if let PlanNode::Join { keys, .. } = &r.root {
            assert!(keys.is_empty());
        } else {
            panic!("expected a join root");
        }
    }

    #[test]
    fn pure_inequality_queries_choose_the_band_join() {
        // Two tables linked only by `R0.x < R1.y`, with nearly disjoint
        // domains (R0's values sit above R1's) so the band output is tiny:
        // sort + log-probe beats rescanning the inner per outer tuple, and
        // the plan carries the range edge.
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(
                1000.0,
                vec![ColumnStatistics::with_domain(1000.0, 1000.0, 1999.0)],
            ),
            TableStatistics::new(5000.0, vec![ColumnStatistics::with_domain(1000.0, 0.0, 999.0)]),
        ]);
        let preds = vec![Predicate::join_range(c(0, 0), CmpOp::Lt, c(1, 0)).unwrap()];
        let els = Els::prepare(&preds, &stats, &ElsOptions::algorithm_els()).unwrap();
        let profiles =
            vec![TableProfile::synthetic(1000.0, 16), TableProfile::synthetic(5000.0, 16)];
        let r = enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
            .unwrap();
        let PlanNode::Join { method, keys, ranges, left, right } = &r.root else {
            panic!("expected a join root");
        };
        assert_eq!(*method, JoinMethod::Range, "{}", r.root.explain());
        assert!(keys.is_empty());
        assert_eq!(ranges.len(), 1);
        // The range is oriented left-column-in-left-subtree regardless of
        // which table the DP put on the outer side.
        let (lc, _, rc) = ranges[0];
        let left_tables = left.tables();
        assert!(left_tables.contains(&lc.table), "{}", r.root.explain());
        assert!(right.tables().contains(&rc.table), "{}", r.root.explain());
    }

    #[test]
    fn range_keys_between_flips_the_operator_with_the_sides() {
        let preds = vec![Predicate::join_range(c(0, 0), CmpOp::Lt, c(1, 0)).unwrap()];
        let fwd = range_keys_between(&preds, 0b01, 0b10);
        assert_eq!(fwd, vec![(c(0, 0), CmpOp::Lt, c(1, 0))]);
        let rev = range_keys_between(&preds, 0b10, 0b01);
        assert_eq!(rev, vec![(c(1, 0), CmpOp::Gt, c(0, 0))]);
        // Edges internal to one side never leak out.
        assert!(range_keys_between(&preds, 0b11, 0b100).is_empty());
    }

    #[test]
    fn keyed_joins_carry_ranges_as_residuals() {
        // Equi-key plus inequality on the same table pair: the plan keeps a
        // keyed method and attaches the range as a residual.
        let mk = |rows: f64| {
            TableStatistics::new(
                rows,
                vec![
                    ColumnStatistics::with_domain(rows, 0.0, rows - 1.0),
                    ColumnStatistics::with_domain(rows, 0.0, rows - 1.0),
                ],
            )
        };
        let stats = QueryStatistics::new(vec![mk(1000.0), mk(1000.0)]);
        let preds = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::join_range(c(0, 1), CmpOp::Le, c(1, 1)).unwrap(),
        ];
        let els = Els::prepare(&preds, &stats, &ElsOptions::algorithm_els()).unwrap();
        let profiles =
            vec![TableProfile::synthetic(1000.0, 16), TableProfile::synthetic(1000.0, 16)];
        let r = enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
            .unwrap();
        let PlanNode::Join { method, keys, ranges, .. } = &r.root else {
            panic!("expected a join root");
        };
        assert_ne!(*method, JoinMethod::Range, "{}", r.root.explain());
        assert_eq!(keys.len(), 1);
        assert_eq!(ranges.len(), 1);
    }

    #[test]
    fn join_keys_collects_all_closure_edges() {
        let preds = els_core::closure::transitive_closure(&[
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
        ]);
        // Mask {0, 1}, new table 2: keys from both s=... and m=...
        let keys = join_keys(&preds, 0b011, 2);
        assert_eq!(keys.len(), 2);
        for (l, r) in keys {
            assert_eq!(r.table, 2);
            assert!(l.table < 2);
        }
    }

    #[test]
    fn scan_filters_pick_only_this_tables_locals() {
        let preds = vec![
            Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64),
            Predicate::local_cmp(c(1, 0), CmpOp::Gt, 5i64),
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
        ];
        let f0 = scan_filters(&preds, 0).unwrap();
        assert_eq!(f0.len(), 1);
        let f2 = scan_filters(&preds, 2).unwrap();
        assert!(f2.is_empty());
    }

    #[test]
    fn bushy_space_never_costs_more_than_left_deep() {
        let (els, profiles) = section8(&ElsOptions::algorithm_els());
        let ld = enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
            .unwrap();
        let bushy =
            enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::Bushy).unwrap();
        assert!(
            bushy.estimated_cost <= ld.estimated_cost + 1e-9,
            "bushy {} > left-deep {}",
            bushy.estimated_cost,
            ld.estimated_cost
        );
        // The bushy winner still estimates 100 at every join node.
        for s in &bushy.estimated_sizes {
            assert!((s - 100.0).abs() < 1e-6, "sizes {:?}", bushy.estimated_sizes);
        }
    }

    #[test]
    fn bushy_helps_disconnected_pair_queries() {
        // Two independent joins (A⋈B) and (C⋈D) linked by nothing until the
        // top: bushy can join the two small results; left-deep must push one
        // pair's result through a cartesian step with a base table first.
        let mk = |rows: f64| {
            TableStatistics::new(rows, vec![ColumnStatistics::with_domain(rows, 0.0, rows - 1.0)])
        };
        let stats = QueryStatistics::new(vec![mk(1000.0), mk(1000.0), mk(1000.0), mk(1000.0)]);
        let preds = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(2, 0), c(3, 0)).unwrap(),
            Predicate::local_cmp(c(0, 0), CmpOp::Lt, 10i64),
            Predicate::local_cmp(c(2, 0), CmpOp::Lt, 10i64),
        ];
        let els = Els::prepare(&preds, &stats, &ElsOptions::algorithm_els()).unwrap();
        let profiles: Vec<TableProfile> =
            (0..4).map(|_| TableProfile::synthetic(1000.0, 16)).collect();
        let ld = enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
            .unwrap();
        let bushy =
            enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::Bushy).unwrap();
        assert!(bushy.estimated_cost <= ld.estimated_cost + 1e-9);
        // Final estimate is (10 ⋈ 10) × (10 ⋈ 10) = 100 either way.
        assert!((bushy.estimated_sizes.last().unwrap() - 100.0).abs() < 1e-6);
    }

    /// Pins a known gap rather than a virtue: a bushy pair {A, B} is only
    /// priced with the numerically larger mask as the outer (see the note
    /// in `enumerate`), so renumbering the tables changes the best cost
    /// when the two orientations are priced differently — here nested
    /// loops, which rescans its materialized inner once per outer tuple.
    /// When the ROADMAP's "bushy orientation" item lands, both numberings
    /// must cost what the cheaper one does today.
    #[test]
    fn bushy_prices_a_pair_only_with_the_higher_mask_as_outer() {
        // Two independent pairs: one joins to 10 tuples, the other to 1000.
        let bushy_nl = |small_pair_first: bool| {
            let mk = |rows: f64| {
                TableStatistics::new(
                    rows,
                    vec![ColumnStatistics::with_domain(rows, 0.0, rows - 1.0)],
                )
            };
            let stats = QueryStatistics::new(vec![mk(1000.0), mk(1000.0), mk(1000.0), mk(1000.0)]);
            let (small, big) = if small_pair_first { (0, 2) } else { (2, 0) };
            let preds = vec![
                Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
                Predicate::col_eq(c(2, 0), c(3, 0)).unwrap(),
                Predicate::local_cmp(c(small, 0), CmpOp::Lt, 10i64),
                Predicate::local_cmp(c(big, 0), CmpOp::Lt, 1000i64),
            ];
            let els = Els::prepare(&preds, &stats, &ElsOptions::algorithm_els()).unwrap();
            let profiles: Vec<TableProfile> =
                (0..4).map(|_| TableProfile::synthetic(1000.0, 16)).collect();
            let methods = [JoinMethod::NestedLoop];
            enumerate(&els, &profiles, &methods, &CostParams::default(), TreeShape::Bushy).unwrap()
        };
        let sides = |r: &EnumerationResult| match &r.root {
            PlanNode::Join { left, right, .. } => (left.tables(), right.tables()),
            PlanNode::Scan { .. } => panic!("join root expected"),
        };
        // Small pair numbered {2, 3}: it is the outer, and the big pair's
        // result is rescanned ten times.
        let cheap = bushy_nl(false);
        assert_eq!(sides(&cheap), (vec![2, 3], vec![0, 1]), "{}", cheap.root.explain());
        // Small pair numbered {0, 1}: "{0, 1} outer, {2, 3} inner" is never
        // priced (nothing has pushed into 0b1100 at iteration 0b0011), so
        // the big pair stays the outer and the same query costs more.
        let dear = bushy_nl(true);
        assert_eq!(sides(&dear), (vec![2, 3], vec![0, 1]), "{}", dear.root.explain());
        assert!(
            dear.estimated_cost > cheap.estimated_cost,
            "renumbered {} vs {}",
            dear.estimated_cost,
            cheap.estimated_cost
        );
    }

    #[test]
    fn errors_on_empty_or_oversized_queries() {
        let stats = QueryStatistics::new(vec![]);
        let els = Els::prepare(&[], &stats, &ElsOptions::default()).unwrap();
        assert!(matches!(
            enumerate(&els, &[], &NL_SM, &CostParams::default(), TreeShape::LeftDeep),
            Err(OptimizerError::Unsupported(_))
        ));
        let stats =
            QueryStatistics::new((0..20).map(|_| TableStatistics::new(1.0, vec![])).collect());
        let els = Els::prepare(&[], &stats, &ElsOptions::default()).unwrap();
        let profiles: Vec<TableProfile> =
            (0..20).map(|_| TableProfile::synthetic(1.0, 8)).collect();
        assert!(matches!(
            enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep),
            Err(OptimizerError::Unsupported(_))
        ));
        let (els, profiles) = section8(&ElsOptions::default());
        assert!(matches!(
            enumerate(&els, &profiles, &[], &CostParams::default(), TreeShape::LeftDeep),
            Err(OptimizerError::Unsupported(_))
        ));
    }
}
