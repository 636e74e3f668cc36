//! Dynamic-programming join enumeration over left-deep or bushy trees.
//!
//! The classic System R algorithm [13]: the best plan for every subset of
//! tables is kept, and each subset is built once, in ascending mask order,
//! from plans that are already final: its subset without one base table
//! joined to that table, and, under [`TreeShape::Bushy`], every split into
//! two disjoint subsets, both orientations priced in the same visit. At
//! each candidate the estimator supplies the intermediate result size —
//! this is precisely the "incremental estimation" loop the paper's
//! Algorithm ELS serves — and the cost model prices each applicable join
//! method; the cheapest (plan, method) combination survives.
//!
//! The loop runs once per candidate (`n·2ⁿ⁻¹` left-deep ones, about `3ⁿ`
//! bushy ones), so a candidate costs one cost formula per applicable
//! method over terms computed once per input, and nothing else. An
//! estimator whose sizes depend on the table set alone
//! ([`CardinalityEstimator::order_independent`]: ELS under Rule LS, UES,
//! no-estimates) is asked once per subset; any other once per candidate,
//! with the same result. The table is dense by mask: an entry is a `Copy`
//! record naming its outer input's mask rather than holding a plan, and "do
//! equality keys / range edges link these two sides" is an AND against
//! per-subset reach masks. The [`Plan`], with its key lists and compiled
//! scan filters, is built once, for the winner, by following the masks
//! from the full set; each node it pushes gets an [`Annotation`] at the
//! same position, holding the estimate and cost the DP charged, so nothing
//! re-estimates the plan.
//!
//! **Minimality.** One plan, and one estimate, survives per subset, so the
//! winner is the cheapest of all trees of the shape only for an estimator
//! that is a set function: one declared
//! [`CardinalityEstimator::order_independent`], or Rule M (one in reals,
//! so exact up to rounding). Under Rule SS a dearer plan for a subset can
//! carry a smaller estimate, and the trees built on it can beat the DP's:
//! `tests/dp_optimality.rs`'s bushy reference, seed 1948695685684210122,
//! n = 5, finds 15 711.9 page units where the DP returns 18 035.9.
//!
//! Cartesian products are permitted but naturally priced out whenever a
//! connected extension exists. **Tie-break:** among candidates of equal
//! cost for one subset, the smaller outer mask wins, then the earlier
//! method in the caller's order (the band join last): the order in which a
//! left-deep enumeration meets them.
//!
//! [`cost_order`] prices one fixed left-deep order by the same method
//! policy and annotates its plan the same way, for join-order searches
//! outside the DP.

use els_core::estimator::JoinState;
use els_core::predicate::{CmpOp, Predicate};
use els_core::{CardinalityEstimator, ColumnRef};
use els_exec::filter::CompiledFilter;
use els_exec::{JoinMethod, Plan, PlanNode};

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
    pub root: Plan,
    /// Join order: tables in the sequence the left-deep tree touches them.
    pub join_order: Vec<usize>,
    /// Estimated result size after each join step (`join_order.len() - 1`
    /// entries) — the numbers the paper's experiment table reports. The
    /// join annotations' rows, in post-order.
    pub estimated_sizes: Vec<f64>,
    /// Total estimated cost in page units: the root annotation's cost.
    pub estimated_cost: f64,
    /// One record per node of `root`, at the node's position.
    pub annotations: Vec<Annotation>,
}

impl EnumerationResult {
    /// The result for `root`, whose annotations are `annotations`.
    fn new(root: Plan, annotations: Vec<Annotation>) -> EnumerationResult {
        let nodes = annotations.iter().zip(root.nodes());
        let joins = nodes.filter(|(_, node)| matches!(node, PlanNode::Join { .. }));
        let (estimated_sizes, join_order) =
            (joins.map(|(a, _)| a.rows).collect(), root.join_order().collect());
        let estimated_cost = annotations.last().map_or(0.0, |a| a.cost);
        EnumerationResult { root, join_order, estimated_sizes, estimated_cost, annotations }
    }
}

/// What the optimizer estimated and charged for the plan node at the same
/// position; the node itself says what it is. EXPLAIN ANALYZE pairs it
/// with that node's observation without re-estimating anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Annotation {
    /// Estimated output rows. A rescanned inner's are its stored
    /// cardinality, which is what the executor records for it.
    pub rows: f64,
    /// Estimated cost of the node's subtree, in page units.
    pub cost: f64,
}

impl Annotation {
    /// A scan of `table`'s, estimated and priced at `(rows, cost)`; under a
    /// `parent` join that rescans it ([`Plan::rescanned`]), its rows are the
    /// table's stored cardinality.
    fn scan(
        els: &dyn CardinalityEstimator,
        table: usize,
        (rows, cost): (f64, f64),
        parent: Option<JoinMethod>,
    ) -> OptimizerResult<Annotation> {
        let rescan = matches!(parent, Some(JoinMethod::NestedLoop | JoinMethod::IndexNestedLoop));
        let rows = if rescan { els.original_cardinality(table)? } else { rows };
        Ok(Annotation { rows, cost })
    }
}

/// The best plan for one table subset. Its inputs are subsets too, named
/// by mask, so an entry is a `Copy` record rather than a subtree.
#[derive(Debug, Clone, Copy)]
struct Entry {
    cost: f64,
    state: JoinState,
    /// The outer input's tables; the inner's are the rest of the subset.
    /// 0 for a scan.
    outer: u32,
    /// `None` for a base-table scan.
    method: Option<JoinMethod>,
    /// Its cost terms as a join input.
    terms: MaterializedTerms,
}

/// The DP table, dense by subset mask: the best plan of every subset that
/// has one. A subset is built once, in ascending mask order, from proper
/// submasks, so its inputs are final when it is priced and the plan it is
/// charged for is the plan its back-pointers lead to.
struct PlanTable {
    plans: Vec<Option<Entry>>,
}

impl PlanTable {
    /// The best plan for `mask`, if it has one.
    #[inline]
    fn get(&self, mask: u32) -> Option<&Entry> {
        self.plans.get(mask as usize)?.as_ref()
    }

    /// Push the plan for `mask`, rebuilt from the back-pointers, onto
    /// `plan`, each node with its [`Annotation`] onto `annotations`;
    /// returns its root's position. `parent` is the method of the join the
    /// plan is the inner of. Each base table occurs once in a tree, so its
    /// compiled filters are moved out of `filters`.
    fn build(
        &self,
        mask: u32,
        parent: Option<JoinMethod>,
        els: &dyn CardinalityEstimator,
        filters: &mut [Vec<CompiledFilter>],
        (plan, annotations): (&mut Plan, &mut Vec<Annotation>),
    ) -> OptimizerResult<usize> {
        let lost = || OptimizerError::Internal(format!("join enumeration lost the plan {mask:#b}"));
        let entry = self.get(mask).ok_or_else(lost)?;
        let (rows, cost) = (entry.state.cardinality(), entry.cost);
        let Some(method) = entry.method else {
            let table = mask.trailing_zeros() as usize;
            let filters = std::mem::take(filters.get_mut(table).ok_or_else(lost)?);
            annotations.push(Annotation::scan(els, table, (rows, cost), parent)?);
            return Ok(plan.scan(table, filters));
        };
        let (outer, inner) = (entry.outer, mask ^ entry.outer);
        let (keys, ranges) = edges_between(els.predicates(), outer.into(), inner.into());
        let left = self.build(outer, None, els, filters, (plan, annotations))?;
        let right = self.build(inner, Some(method), els, filters, (plan, annotations))?;
        annotations.push(Annotation { rows, cost });
        Ok(plan.join(method, (left, right), keys, ranges)?)
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
    /// Its tuple width.
    width: usize,
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
    edges_between(predicates, mask, 1u64 << table).0
}

/// Inequality predicates linking the tables of `mask` to `table`, oriented
/// left-side-in-mask (flipping the operator when the stored orientation is
/// the other way round).
pub fn range_keys(
    predicates: &[Predicate],
    mask: u64,
    table: usize,
) -> Vec<(ColumnRef, CmpOp, ColumnRef)> {
    edges_between(predicates, mask, 1u64 << table).1
}

/// What the loop needs of one subset whatever its plan, filled in the
/// ascending pass from the subset without its highest table.
#[derive(Clone, Copy, Default)]
struct Subset {
    /// Every table a key / a range edge leads to from inside the subset:
    /// "do keys link this subset to that other side" is then one AND.
    key_reach: u32,
    range_reach: u32,
    /// Combined tuple width of its tables (prices rescans of its result as
    /// a materialized inner).
    width: usize,
}

/// The cheapest candidate for one subset so far.
#[derive(Clone, Copy)]
struct Incumbent {
    cost: f64,
    outer: u32,
    method: JoinMethod,
    state: JoinState,
}

impl Incumbent {
    /// Take `candidate` when it is cheaper, or as cheap with the smaller
    /// outer mask; any candidate when there is none yet, whatever its cost.
    #[inline]
    fn offer(best: &mut Option<Incumbent>, candidate: Incumbent) {
        let wins = |b: &Incumbent| {
            candidate.cost < b.cost || (candidate.cost == b.cost && candidate.outer < b.outer)
        };
        if best.as_ref().is_none_or(wins) {
            *best = Some(candidate);
        }
    }
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
    let methods = MethodSet::new(methods);
    let predicates = els.predicates();

    let mut tables: Vec<BaseTable> = Vec::with_capacity(n);
    let mut filters: Vec<Vec<CompiledFilter>> = Vec::with_capacity(n);
    let mut dp = PlanTable { plans: vec![None; 1 << n] };
    for (t, profile) in profiles.iter().enumerate() {
        tables.push(BaseTable {
            terms: params.stored_terms(profile, els.effective_cardinality(t)?),
            key_adjacent: 0,
            range_adjacent: 0,
            width: profile.row_bytes,
        });
        filters.push(scan_filters(predicates, t)?);
        let state = els.initial_state(t)?;
        if let Some(slot) = dp.plans.get_mut(1 << t) {
            *slot = Some(Entry {
                cost: params.scan(profile),
                state,
                outer: 0,
                method: None,
                terms: params.materialized_terms(state.cardinality(), profile.row_bytes),
            });
        }
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
    let lost = |mask: u32| {
        OptimizerError::Internal(format!("join enumeration reached {mask:#b} before its parts"))
    };
    let mut subsets: Vec<Subset> = Vec::with_capacity(1 << n);
    subsets.push(Subset::default());
    // An order-independent estimator sizes each subset once, as its
    // highest table joined to the rest (the estimator's incremental step),
    // at `sizes[mask - 1]`; any other is asked once per candidate.
    let order_independent = els.order_independent();
    let mut sizes: Vec<JoinState> =
        Vec::with_capacity(if order_independent { universe as usize } else { 0 });

    // Subsets in ascending mask order: every input of a subset is a proper
    // submask, so it is final when the subset is built.
    for mask in 1..=universe {
        let high = mask.ilog2() as usize;
        let rest = mask ^ (1 << high);
        let (table, below) = (tables.get(high), subsets.get(rest as usize));
        let (Some(table), Some(below)) = (table, below) else { return Err(lost(mask)) };
        let subset = Subset {
            key_reach: below.key_reach | table.key_adjacent,
            range_reach: below.range_reach | table.range_adjacent,
            width: below.width + table.width,
        };
        subsets.push(subset);
        let size = match (order_independent, rest) {
            (false, _) => None,
            (true, 0) => dp.get(mask).map(|scan| scan.state),
            (true, _) => {
                Some(els.join(sizes.get(rest as usize - 1).ok_or_else(|| lost(mask))?, high)?)
            }
        };
        sizes.extend(size);
        if rest == 0 {
            continue;
        }

        // One candidate: `outer ⋈ inner`, at its cheapest applicable
        // method (none may be — e.g. IndexNestedLoop-only configurations
        // over an intermediate — which is no candidate, not a panic). An
        // inner that is one table is a stored table; anything else is
        // materialized.
        let mut best: Option<Incumbent> = None;
        let mut consider = |outer: u32, o: &Entry, inner: u32, i: &Entry, links| {
            let t = inner.trailing_zeros() as usize;
            let stored = tables.get(t).filter(|_| i.method.is_none());
            let state = match (size, stored) {
                (Some(state), _) => state,
                (None, Some(_)) => els.join(&o.state, t)?,
                (None, None) => els.join_sets(&o.state, &i.state)?,
            };
            // The stored inner's scan is charged inside each method's formula.
            let (inner_terms, inputs_cost) = match stored {
                Some(table) => (Inner::Stored(&table.terms), o.cost),
                None => (Inner::Materialized(&i.terms), o.cost + i.cost),
            };
            let out = state.cardinality();
            if let Some((method, join_cost)) =
                methods.cheapest(params, &o.terms.input, inner_terms, out, links)
            {
                let cost = inputs_cost + join_cost;
                Incumbent::offer(&mut best, Incumbent { cost, outer, method, state });
            }
            OptimizerResult::Ok(())
        };
        let links = |outer: u32, inner: u32| {
            let reach = subsets.get(outer as usize).copied().unwrap_or_default();
            (reach.key_reach & inner != 0, reach.range_reach & inner != 0)
        };
        match shape {
            // `mask` minus one table, the highest first, so outers ascend.
            TreeShape::LeftDeep => {
                let mut bits = mask;
                while bits != 0 {
                    let inner = 1 << bits.ilog2();
                    bits ^= inner;
                    let outer = mask ^ inner;
                    if let (Some(o), Some(i)) = (dp.get(outer), dp.get(inner)) {
                        consider(outer, o, inner, i, links(outer, inner))?;
                    }
                }
            }
            // Every unordered split {a, b} once (`a` holds the lowest
            // table), both orientations priced in the same visit.
            TreeShape::Bushy => {
                let (low, others) = (mask & mask.wrapping_neg(), mask & (mask - 1));
                let mut sub = others;
                while sub != 0 {
                    sub = (sub - 1) & others;
                    let (a, b) = (low | sub, others ^ sub);
                    if let (Some(ea), Some(eb)) = (dp.get(a), dp.get(b)) {
                        let links = links(a, b);
                        consider(a, ea, b, eb, links)?;
                        consider(b, eb, a, ea, links)?;
                    }
                }
            }
        }
        if let (Some(best), Some(slot)) = (best, dp.plans.get_mut(mask as usize)) {
            *slot = Some(Entry {
                cost: best.cost,
                state: best.state,
                outer: best.outer,
                method: Some(best.method),
                terms: params.materialized_terms(best.state.cardinality(), subset.width),
            });
        }
    }

    // Every subset should be reachable (left-deep transitions alone connect
    // any mask), but a serving thread must degrade to an error — never
    // panic — if that invariant is ever broken by a bad configuration.
    if dp.get(universe).is_none() {
        return Err(OptimizerError::Internal(format!(
            "join enumeration built no plan for the full table set ({n} tables)"
        )));
    }
    let nodes = 2 * n - 1;
    let (mut root, mut annotations) = (Plan::with_capacity(nodes), Vec::with_capacity(nodes));
    dp.build(universe, None, els, &mut filters, (&mut root, &mut annotations))?;
    Ok(EnumerationResult::new(root, annotations))
}

/// Cost one fixed left-deep order, choosing the join method of each step by
/// the DP's policy ([`MethodSet`]), so a join-order search outside
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
    let (predicates, methods) = (els.predicates(), MethodSet::new(methods));
    let mut state = els.initial_state(first)?;
    let mut cost = params.scan(profile(first)?);
    let mut plan = Plan::with_capacity(2 * order.len() - 1);
    let mut annotations = vec![Annotation::scan(els, first, (state.cardinality(), cost), None)?];
    let mut at = plan.scan(first, scan_filters(predicates, first)?);
    let mut mask: u64 = 1 << first;

    for &t in rest {
        let new_state = els.join(&state, t)?;
        let outer = params.input_terms(state.cardinality());
        let inner = params.stored_terms(profile(t)?, els.effective_cardinality(t)?);
        let (keys, ranges) = edges_between(predicates, mask, 1 << t);
        let links = (!keys.is_empty(), !ranges.is_empty());
        let Some((method, join_cost)) =
            methods.cheapest(params, &outer, Inner::Stored(&inner), new_state.cardinality(), links)
        else {
            return Err(OptimizerError::Unsupported("no join methods enabled".into()));
        };
        let scan = (els.initial_state(t)?.cardinality(), params.scan(profile(t)?));
        annotations.push(Annotation::scan(els, t, scan, Some(method))?);
        let right = plan.scan(t, scan_filters(predicates, t)?);
        cost += join_cost;
        mask |= 1 << t;
        annotations.push(Annotation { rows: new_state.cardinality(), cost });
        at = plan.join(method, (at, right), keys, ranges)?;
        state = new_state;
    }
    Ok(EnumerationResult::new(plan, annotations))
}

/// The enabled join methods, resolved once per enumeration into the
/// methods that can run each kind of candidate, in the caller's order, each
/// once. The band join is not part of the configured list: it is a
/// candidate exactly when it is executable — no equi-keys but at least one
/// inequality edge — and keyed joins treat the inequalities as residual
/// filters instead. The method policy of both the DP and [`cost_order`].
struct MethodSet {
    /// Inputs linked by a key, or by nothing: every method but indexed
    /// nested loops and the band join.
    plain: Vec<JoinMethod>,
    /// A stored inner linked by a key: indexed nested loops probes its
    /// index, so it needs both.
    indexed: Vec<JoinMethod>,
    /// Inputs linked by inequality edges alone: the band join is added,
    /// last unless configured earlier.
    band: Vec<JoinMethod>,
}

impl MethodSet {
    fn new(methods: &[JoinMethod]) -> MethodSet {
        let without = |skip: &[JoinMethod], last: Option<JoinMethod>| {
            let mut list: Vec<JoinMethod> = Vec::with_capacity(methods.len() + 1);
            for &m in methods.iter().chain(&last) {
                if !skip.contains(&m) && !list.contains(&m) {
                    list.push(m);
                }
            }
            list
        };
        let (inl, range) = (JoinMethod::IndexNestedLoop, JoinMethod::Range);
        MethodSet {
            plain: without(&[inl, range], None),
            indexed: without(&[range], None),
            band: without(&[inl], Some(range)),
        }
    }

    /// The cheapest method for one candidate join, the earliest on ties;
    /// `None` when no enabled method can run it. `output_rows` is the
    /// estimator's size for the joined set, and `(has_keys, has_ranges)`
    /// say which kinds of predicate link the two inputs.
    #[inline]
    fn cheapest(
        &self,
        p: &CostParams,
        outer: &InputTerms,
        inner: Inner<'_>,
        output_rows: f64,
        (has_keys, has_ranges): (bool, bool),
    ) -> Option<(JoinMethod, f64)> {
        let (input, scan, rescan, index) = inner.parts();
        let band_ok = !has_keys && has_ranges;
        // Keyless methods materialize the full cross product before the
        // residual inequality filter; only the band join prunes while
        // probing, so only it is charged the filtered output.
        let emit = if band_ok { outer.rows * input.rows } else { output_rows };
        // Only `indexed` holds indexed nested loops, so the other lists
        // never read the index terms.
        let (list, index) = match index {
            _ if band_ok => (&self.band, (0.0, 0.0)),
            Some(index) if has_keys => (&self.indexed, index),
            _ => (&self.plain, (0.0, 0.0)),
        };
        let mut best: Option<(JoinMethod, f64)> = None;
        for &m in list {
            let cost = match m {
                JoinMethod::NestedLoop => p.nested_loop_cost(outer.rows, rescan),
                JoinMethod::SortMerge => p.sort_merge_cost(scan, outer, input, emit),
                JoinMethod::Hash => p.hash_cost(scan, outer.rows, input, emit),
                JoinMethod::IndexNestedLoop => p.index_nested_loop_cost(outer.rows, index, emit),
                JoinMethod::Range => p.range_join_cost(scan, outer, input, output_rows),
            };
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((m, cost));
            }
        }
        best
    }
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
    fn a_table_entry_is_72_bytes() {
        assert_eq!(std::mem::size_of::<Option<Entry>>(), 72);
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
        assert!(matches!(r.root.nodes(), [PlanNode::Scan { table_id: 0, .. }]));
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
        let nl_inners: Vec<usize> = (r.root.nodes().iter().zip(&r.root.nodes()[1..]))
            .filter_map(|(node, next)| match (node, next) {
                (
                    PlanNode::Scan { table_id, .. },
                    PlanNode::Join { method: JoinMethod::NestedLoop, .. },
                ) => Some(*table_id),
                _ => None,
            })
            .collect();
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
        let has_nl = r
            .root
            .nodes()
            .iter()
            .any(|node| matches!(node, PlanNode::Join { method: JoinMethod::NestedLoop, .. }));
        assert!(has_nl, "SM plan unexpectedly avoids NL:\n{text}");
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
        if let Some(PlanNode::Join { keys, .. }) = r.root.nodes().last() {
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
        let Some(PlanNode::Join { method, keys, ranges, left, right }) = r.root.nodes().last()
        else {
            panic!("expected a join root");
        };
        assert_eq!(*method, JoinMethod::Range, "{}", r.root.explain());
        assert!(keys.is_empty());
        assert_eq!(ranges.len(), 1);
        // The range is oriented left-column-in-left-subtree regardless of
        // which table the DP put on the outer side.
        let (lc, _, rc) = ranges[0];
        assert_eq!(r.root.tables(*left) >> lc.table & 1, 1, "{}", r.root.explain());
        assert_eq!(r.root.tables(*right) >> rc.table & 1, 1, "{}", r.root.explain());
    }

    #[test]
    fn range_keys_between_flips_the_operator_with_the_sides() {
        let preds = vec![Predicate::join_range(c(0, 0), CmpOp::Lt, c(1, 0)).unwrap()];
        let fwd = edges_between(&preds, 0b01, 0b10).1;
        assert_eq!(fwd, vec![(c(0, 0), CmpOp::Lt, c(1, 0))]);
        let rev = edges_between(&preds, 0b10, 0b01).1;
        assert_eq!(rev, vec![(c(1, 0), CmpOp::Gt, c(0, 0))]);
        // Edges internal to one side never leak out.
        assert!(edges_between(&preds, 0b11, 0b100).1.is_empty());
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
        let Some(PlanNode::Join { method, keys, ranges, .. }) = r.root.nodes().last() else {
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

    /// A bushy pair is priced in both orientations, so renumbering the
    /// tables changes neither the plan's shape nor its cost, although the
    /// two orientations cost differently — here under nested loops, which
    /// rescans its materialized inner once per outer tuple.
    #[test]
    fn bushy_prices_both_orientations() {
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
        let sides = |r: &EnumerationResult| match r.root.nodes().last() {
            Some(PlanNode::Join { left, right, .. }) => {
                (r.root.tables(*left), r.root.tables(*right))
            }
            _ => panic!("join root expected"),
        };
        // Either numbering: the small pair is the outer, and the big pair's
        // result is rescanned ten times.
        let high = bushy_nl(false);
        assert_eq!(sides(&high), (0b1100, 0b0011), "{}", high.root.explain());
        let low = bushy_nl(true);
        assert_eq!(sides(&low), (0b0011, 0b1100), "{}", low.root.explain());
        assert_eq!(low.estimated_cost.to_bits(), high.estimated_cost.to_bits());
    }

    /// A subset gets a plan whenever some candidate has an applicable
    /// method, whatever that costs; one with none is no plan, and a query
    /// left without one is a typed error.
    #[test]
    fn degenerate_costs_and_method_sets_still_plan_or_fail_typed() {
        let (els, profiles) = chain(4);
        let nan = CostParams { cpu_tuple_cost: f64::NAN, ..CostParams::default() };
        let inf = CostParams { page_cost: f64::INFINITY, ..CostParams::default() };
        let inl = [JoinMethod::IndexNestedLoop];
        for shape in [TreeShape::LeftDeep, TreeShape::Bushy] {
            for (methods, params) in [(&NL_SM[..], nan), (&NL_SM[..], inf), (&inl[..], nan)] {
                let r = enumerate(&els, &profiles, methods, &params, shape).unwrap();
                assert_eq!(r.join_order.len(), 4, "{shape:?} {params:?}");
            }
            // No key links a cartesian pair, so indexed nested loops cannot
            // run it.
            let stats = QueryStatistics::new(vec![
                TableStatistics::new(10.0, vec![ColumnStatistics::with_distinct(10.0)]),
                TableStatistics::new(20.0, vec![ColumnStatistics::with_distinct(20.0)]),
            ]);
            let pair = Els::prepare(&[], &stats, &ElsOptions::default()).unwrap();
            let two = [TableProfile::synthetic(10.0, 8), TableProfile::synthetic(20.0, 8)];
            let r = enumerate(&pair, &two, &inl, &CostParams::default(), shape);
            assert!(matches!(r, Err(OptimizerError::Internal(_))), "{r:?}");
        }
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
