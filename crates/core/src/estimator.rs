//! Incremental join-result-size estimation (Algorithm ELS, Step 6;
//! paper Section 7).
//!
//! A [`PreparedQuery`] holds everything Steps 1–5 produced: effective table
//! cardinalities, the column cardinalities to plug into Equation 2, the
//! equivalence classes, and the annotated join predicates. A [`JoinState`]
//! is an immutable snapshot of one intermediate result (a set of joined
//! tables plus its estimated cardinality); [`PreparedQuery::join`] extends a
//! state by one table, the access pattern of every System-R style
//! enumerator.
//!
//! At each step the *eligible* predicates — those linking the new table to
//! tables already in the state — are grouped by equivalence class, each
//! class contributes one selectivity chosen by the configured
//! [`SelectivityRule`], classes multiply (independence assumption), and the
//! new cardinality is `old · ‖T‖′ · ∏ per-class selectivity`.
//!
//! A step allocates nothing: the predicates are indexed once, at
//! construction, as table bitmasks grouped by class, and one pass over that
//! index finds each class's choice and multiplies the classes in ascending
//! [`ClassId`] order — the same product, to the bit, for every query
//! prepared the same way.
//!
//! Under Rule LS the estimate of a join set is Equation 3 over the set,
//! whatever order built it (Section 7), when every class is a clique of
//! `min(s_i, s_j)` pair selectivities — which closure and Equation 2
//! produce. [`PreparedQuery::from_parts`] checks that condition, and a query
//! that meets it computes every set's size along one canonical order,
//! ascending tables, so the estimate is a function of the set to the bit
//! ([`PreparedQuery::order_independent`]). An enumerator may then ask once
//! per table subset instead of once per candidate plan.

use std::collections::HashMap;

use crate::error::{ElsError, ElsResult};
use crate::ids::{ClassId, TableId};
use crate::join_sel::{JoinPredicateInfo, RangePredicateInfo};
use crate::rules::SelectivityRule;

/// Maximum number of tables in one query (states are 64-bit bitmasks).
pub const MAX_TABLES: usize = 64;

/// An immutable snapshot of an intermediate join result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinState {
    tables: u64,
    cardinality: f64,
}

impl JoinState {
    /// Build a state directly from a table bitmask and an estimate. Only
    /// estimator implementations (this module and [`crate::cardinality`])
    /// construct states; everyone else receives them from an estimator, so
    /// the mask/cardinality pairing stays an estimator invariant.
    pub(crate) fn from_parts(tables: u64, cardinality: f64) -> JoinState {
        JoinState { tables, cardinality }
    }

    /// The estimated cardinality of this intermediate result.
    pub fn cardinality(&self) -> f64 {
        self.cardinality
    }

    /// Bitmask of the joined tables (bit `i` = table `i`).
    pub fn table_mask(&self) -> u64 {
        self.tables
    }

    /// True when `table` is part of this state.
    pub fn contains(&self, table: TableId) -> bool {
        table < MAX_TABLES && self.tables & (1 << table) != 0
    }

    /// The tables in this state, ascending.
    pub fn tables(&self) -> Vec<TableId> {
        (0..MAX_TABLES).filter(|t| self.contains(*t)).collect()
    }

    /// Number of tables in the state.
    pub fn len(&self) -> usize {
        self.tables.count_ones() as usize
    }

    /// True when the state is empty (no tables yet).
    pub fn is_empty(&self) -> bool {
        self.tables == 0
    }
}

/// How one equivalence class contributed to one join step.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassChoice {
    /// The class.
    pub class: ClassId,
    /// Selectivities of the eligible predicates in this class.
    pub eligible: Vec<f64>,
    /// The value the configured rule selected/combined.
    pub chosen: f64,
}

/// Diagnostic record of one join step (see
/// [`PreparedQuery::explain_join`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStepExplanation {
    /// The table being joined in.
    pub table: TableId,
    /// Its effective base cardinality.
    pub base_cardinality: f64,
    /// Per-class eligible selectivities and the rule's choice.
    pub classes: Vec<ClassChoice>,
    /// Intermediate cardinality before the step.
    pub cardinality_before: f64,
    /// Intermediate cardinality after the step.
    pub cardinality_after: f64,
}

/// One cross-table predicate as Step 6 tests it.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// The bits of the two tables it links. Empty when either lies past
    /// the 64-bit state mask: such an edge never crosses, exactly as
    /// [`JoinState::contains`] never reports such a table.
    tables: u64,
    selectivity: f64,
}

impl Edge {
    fn new(left: TableId, right: TableId, selectivity: f64) -> Edge {
        let tables =
            if left < MAX_TABLES && right < MAX_TABLES { (1 << left) | (1 << right) } else { 0 };
        Edge { tables, selectivity }
    }

    /// True when the edge links a table of `a` to a table of `b`. The two
    /// sets must be disjoint: an edge has at most two tables, so meeting
    /// both sets means one end in each.
    fn crosses(&self, a: u64, b: u64) -> bool {
        (self.tables & a != 0) & (self.tables & b != 0)
    }
}

/// The equality edges of one equivalence class: in predicate order under
/// Rules M and REP, most selective first under Rule SS and least selective
/// first under Rule LS — so that the choice of either of those two rules at
/// any step is simply the first edge that crosses it.
#[derive(Debug, Clone)]
struct ClassEdges {
    class: ClassId,
    /// The class's fixed representative (`None` when Steps 1–5 supplied
    /// none; only Rule REP reads it).
    representative: Option<f64>,
    edges: Vec<Edge>,
}

impl ClassEdges {
    /// True when the class meets the condition under which Rule LS
    /// estimates by Equation 3 whatever the join order: every two of its
    /// tables are linked, and a pair's selectivity (the largest over its
    /// parallel edges) is `min(s_i, s_j)` for per-table values `s`, to the
    /// bit. Equation 2 makes this hold for every class that transitive
    /// closure has made a clique, `s` being the table's `1/d`. Read off the
    /// edges sorted least selective first: `s_t` is the first edge at `t`,
    /// a pair's selectivity the first edge linking the two.
    fn is_min_clique(&self) -> bool {
        let links_two = |e: &Edge| e.tables.count_ones() == 2 && !e.selectivity.is_nan();
        if !self.edges.iter().all(links_two) {
            return false;
        }
        let first_over = |tables: u64| {
            self.edges.iter().find(|e| e.tables & tables == tables).map(|e| e.selectivity)
        };
        let members = self.edges.iter().fold(0, |m, e| m | e.tables);
        bits(members).all(|i| {
            let above = members & (i.wrapping_neg() ^ i);
            bits(above).all(|j| match (first_over(i), first_over(j), first_over(i | j)) {
                (Some(s_i), Some(s_j), Some(pair)) => pair.to_bits() == s_i.min(s_j).to_bits(),
                _ => false,
            })
        })
    }
}

/// The single-bit masks of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        let low = mask & mask.wrapping_neg();
        mask ^= low;
        (low != 0).then_some(low)
    })
}

/// The output of Steps 1–5, ready for incremental estimation.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// Effective table cardinalities (‖R‖′, or ‖R‖″ after Section 6).
    pub(crate) table_cardinality: Vec<f64>,
    /// Annotated join predicates (post-closure when closure is enabled).
    pub(crate) join_predicates: Vec<JoinPredicateInfo>,
    /// Annotated inequality join predicates. Classless: each multiplies its
    /// selectivity into the first step that crosses it.
    pub(crate) range_predicates: Vec<RangePredicateInfo>,
    /// `join_predicates` as edges, grouped by class in ascending class
    /// order: the classes are multiplied in an order that depends on
    /// nothing but the query.
    class_edges: Vec<ClassEdges>,
    /// `range_predicates` as edges, in predicate order.
    range_edges: Vec<Edge>,
    /// The configured selectivity-choice rule (fixed at construction:
    /// `class_edges` is ordered for it).
    rule: SelectivityRule,
    /// True when Equation 3 holds for this query (see
    /// [`PreparedQuery::order_independent`]): every size is then computed
    /// along its set's canonical order.
    order_independent: bool,
}

impl PreparedQuery {
    /// Build a prepared query directly from its parts. Most users should go
    /// through [`crate::algorithm::Els::prepare`], which runs Steps 1–5;
    /// this constructor exists for tests and custom pipelines.
    pub fn from_parts(
        table_cardinality: Vec<f64>,
        join_predicates: Vec<JoinPredicateInfo>,
        class_representative: HashMap<ClassId, f64>,
        rule: SelectivityRule,
    ) -> Self {
        let mut class_edges: Vec<ClassEdges> = Vec::new();
        for p in &join_predicates {
            let edge = Edge::new(p.left.table, p.right.table, p.selectivity);
            match class_edges.iter_mut().find(|c| c.class == p.class) {
                Some(c) => c.edges.push(edge),
                None => class_edges.push(ClassEdges {
                    class: p.class,
                    representative: class_representative.get(&p.class).copied(),
                    edges: vec![edge],
                }),
            }
        }
        class_edges.sort_by_key(|c| c.class);
        for class in &mut class_edges {
            match rule {
                SelectivityRule::SmallestSelectivity => {
                    class.edges.sort_by(|x, y| x.selectivity.total_cmp(&y.selectivity));
                }
                SelectivityRule::LargestSelectivity => {
                    class.edges.sort_by(|x, y| y.selectivity.total_cmp(&x.selectivity));
                }
                SelectivityRule::Multiplicative | SelectivityRule::Representative => {}
            }
        }
        let order_independent = rule == SelectivityRule::LargestSelectivity
            && class_edges.iter().all(ClassEdges::is_min_clique);
        PreparedQuery {
            table_cardinality,
            join_predicates,
            range_predicates: Vec::new(),
            class_edges,
            range_edges: Vec::new(),
            rule,
            order_independent,
        }
    }

    /// Attach annotated inequality join predicates (builder style).
    #[must_use]
    pub fn with_range_predicates(mut self, range_predicates: Vec<RangePredicateInfo>) -> Self {
        self.range_edges = range_predicates
            .iter()
            .map(|p| Edge::new(p.left.table, p.right.table, p.selectivity))
            .collect();
        self.range_predicates = range_predicates;
        self
    }

    /// Number of tables in the query.
    pub fn num_tables(&self) -> usize {
        self.table_cardinality.len()
    }

    /// Effective cardinality of a base table (after local predicates and the
    /// Section 6 adjustment).
    pub fn base_cardinality(&self, table: TableId) -> ElsResult<f64> {
        self.table_cardinality.get(table).copied().ok_or(ElsError::UnknownTable(table))
    }

    /// The annotated join predicates.
    pub fn join_predicates(&self) -> &[JoinPredicateInfo] {
        &self.join_predicates
    }

    /// The annotated inequality join predicates.
    pub fn range_predicates(&self) -> &[RangePredicateInfo] {
        &self.range_predicates
    }

    /// The selectivity-choice rule in force.
    pub fn rule(&self) -> SelectivityRule {
        self.rule
    }

    /// True when every join set's estimate is a function of the set alone,
    /// to the bit: Rule LS, and every equivalence class a clique whose pair
    /// selectivities are `min(s_i, s_j)` for per-table values `s` (paper
    /// Section 7: the estimate is then Equation 3 over the set, whatever
    /// order built it). Such a query computes each set's size along one
    /// canonical order, ascending tables: [`PreparedQuery::join`] with a
    /// table above every table of the state is the incremental step, and
    /// every other `join` or [`PreparedQuery::join_sets`] recomputes that
    /// canonical chain. Derived from the query; nothing can set it.
    pub fn order_independent(&self) -> bool {
        self.order_independent
    }

    /// The effective cardinality of `table`, or a typed error when the id
    /// is outside the query or the 64-table state mask. Centralizing the
    /// bound check keeps the estimator free of indexing panics: Algorithm
    /// ELS must degrade to an error on degenerate inputs, never abort.
    fn checked_base(&self, table: TableId) -> ElsResult<f64> {
        if table >= MAX_TABLES {
            return Err(ElsError::InvalidJoinStep { table, reason: "table out of range" });
        }
        self.table_cardinality
            .get(table)
            .copied()
            .ok_or(ElsError::InvalidJoinStep { table, reason: "table out of range" })
    }

    /// Start a join with a single base table.
    pub fn initial_state(&self, table: TableId) -> ElsResult<JoinState> {
        let cardinality = self.checked_base(table)?;
        Ok(JoinState { tables: 1 << table, cardinality })
    }

    /// The representative selectivity of a class. Only
    /// [`SelectivityRule::Representative`] consumes the value, so a
    /// missing entry is fine under every other rule — but under Rule REP
    /// it means Steps 1–5 and this query disagree about the class set
    /// (drifted or hand-built stats), and silently substituting 1.0 would
    /// turn every affected join step into a cartesian product. Degrade to a
    /// typed error instead.
    fn representative(&self, class: &ClassEdges) -> ElsResult<f64> {
        match class.representative {
            Some(r) => Ok(r),
            None if self.rule != SelectivityRule::Representative => Ok(1.0),
            None => Err(ElsError::DegenerateStats(format!(
                "rule REP has no representative selectivity for class {}",
                class.class
            ))),
        }
    }

    /// Combined selectivity of every predicate linking the disjoint table
    /// sets `a` and `b`: the rule's choice per class, the classes
    /// multiplied in ascending id order, then each crossing range
    /// predicate.
    fn crossing_selectivity(&self, a: u64, b: u64) -> ElsResult<f64> {
        let mut selectivity = 1.0f64;
        for class in &self.class_edges {
            let mut eligible =
                class.edges.iter().filter(|e| e.crosses(a, b)).map(|e| e.selectivity);
            let chosen = match self.rule {
                SelectivityRule::Multiplicative => eligible.reduce(|acc, s| acc * s),
                SelectivityRule::SmallestSelectivity | SelectivityRule::LargestSelectivity => {
                    eligible.next()
                }
                SelectivityRule::Representative => match eligible.next() {
                    Some(_) => Some(self.representative(class)?),
                    None => None,
                },
            };
            if let Some(chosen) = chosen {
                selectivity *= chosen;
            }
        }
        Ok(self
            .range_edges
            .iter()
            .filter(|e| e.crosses(a, b))
            .fold(selectivity, |s, e| s * e.selectivity))
    }

    /// Extend `state` by `table`, returning the new state with its estimated
    /// cardinality. When no predicate links the new table to the state the
    /// step is a cartesian product. Equal, to the bit, to
    /// [`PreparedQuery::join_sets`] with `table`'s initial state; when the
    /// query is [order independent](PreparedQuery::order_independent), equal
    /// to the bit to any other way of building the same set.
    pub fn join(&self, state: &JoinState, table: TableId) -> ElsResult<JoinState> {
        let base = self.checked_base(table)?;
        if state.contains(table) {
            return Err(ElsError::InvalidJoinStep { table, reason: "table already joined" });
        }
        if state.is_empty() {
            return self.initial_state(table);
        }
        if self.order_independent && state.tables > (1 << table) {
            return self.canonical(state.tables | (1 << table));
        }
        self.step(state, table, base)
    }

    /// The incremental step: `state` extended by `table`, whose effective
    /// cardinality is `base`.
    fn step(&self, state: &JoinState, table: TableId, base: f64) -> ElsResult<JoinState> {
        let selectivity = self.crossing_selectivity(state.tables, 1 << table)?;
        Ok(JoinState {
            tables: state.tables | (1 << table),
            cardinality: state.cardinality * base * selectivity,
        })
    }

    /// The estimate for the table set `tables` along its canonical order,
    /// ascending tables: the first table's effective cardinality, then one
    /// incremental step per further table.
    fn canonical(&self, tables: u64) -> ElsResult<JoinState> {
        let mut members = bits(tables).map(|bit| bit.trailing_zeros() as TableId);
        let Some(first) = members.next() else {
            return Err(ElsError::InvalidJoinStep { table: MAX_TABLES, reason: "empty join set" });
        };
        let mut state = self.initial_state(first)?;
        for table in members {
            state = self.step(&state, table, self.checked_base(table)?)?;
        }
        Ok(state)
    }

    /// Explain one join step: the eligible selectivities per class, the
    /// value each class contributed under the configured rule, and the
    /// resulting cardinality. Pure diagnostics — [`PreparedQuery::join`]
    /// computes the same numbers (for an order-independent query, along
    /// the set's canonical order, so `cardinality_after` may differ from
    /// `before · base · chosen` in the last bits).
    pub fn explain_join(
        &self,
        state: &JoinState,
        table: TableId,
    ) -> ElsResult<JoinStepExplanation> {
        let new_state = self.join(state, table)?;
        let base_cardinality = self.checked_base(table)?;
        let crosses = |p: &JoinPredicateInfo| {
            Edge::new(p.left.table, p.right.table, p.selectivity).crosses(state.tables, 1 << table)
        };
        let mut classes: Vec<ClassChoice> = Vec::new();
        for class in &self.class_edges {
            let eligible: Vec<f64> = self
                .join_predicates
                .iter()
                .filter(|p| p.class == class.class && crosses(p))
                .map(|p| p.selectivity)
                .collect();
            if !eligible.is_empty() {
                let chosen = self.rule.combine(&eligible, self.representative(class)?);
                classes.push(ClassChoice { class: class.class, eligible, chosen });
            }
        }
        Ok(JoinStepExplanation {
            table,
            base_cardinality,
            classes,
            cardinality_before: state.cardinality(),
            cardinality_after: new_state.cardinality(),
        })
    }

    /// Join two disjoint intermediate results (the bushy-tree transition).
    /// Eligible predicates are those linking a table of `a` to a table of
    /// `b`; the configured rule combines them per class exactly as in the
    /// left-deep case. Rule LS remains consistent with Equation 3 here:
    /// with per-side class minima `m_a`, `m_b`, the largest eligible
    /// selectivity is `1/max(m_a, m_b)`, which stitches the two partial
    /// denominators into the full all-but-global-min product.
    pub fn join_sets(&self, a: &JoinState, b: &JoinState) -> ElsResult<JoinState> {
        if a.tables & b.tables != 0 {
            return Err(ElsError::InvalidJoinStep {
                table: (a.tables & b.tables).trailing_zeros() as usize,
                reason: "join sides overlap",
            });
        }
        if a.is_empty() {
            return Ok(*b);
        }
        if b.is_empty() {
            return Ok(*a);
        }
        // Unless one side is a single table above every table of the other
        // (the canonical step itself: `x · y` is `y · x` to the bit), an
        // order-independent query recomputes the union's canonical chain.
        let (low, high) = (a.tables.min(b.tables), a.tables.max(b.tables));
        if self.order_independent && !(high.is_power_of_two() && high > low) {
            return self.canonical(a.tables | b.tables);
        }
        let selectivity = self.crossing_selectivity(a.tables, b.tables)?;
        Ok(JoinState {
            tables: a.tables | b.tables,
            cardinality: a.cardinality * b.cardinality * selectivity,
        })
    }

    /// Estimate the sizes of every intermediate result along a join order.
    /// Returns one entry per join step (so `order.len() - 1` entries).
    pub fn estimate_order(&self, order: &[TableId]) -> ElsResult<Vec<f64>> {
        let Some((&first, rest)) = order.split_first() else {
            return Ok(Vec::new());
        };
        let mut state = self.initial_state(first)?;
        let mut sizes = Vec::with_capacity(rest.len());
        for &t in rest {
            state = self.join(&state, t)?;
            sizes.push(state.cardinality());
        }
        Ok(sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::transitive_closure;
    use crate::equivalence::EquivalenceClasses;
    use crate::ids::ColumnRef;
    use crate::join_sel::annotate_join_predicates;
    use crate::predicate::Predicate;
    use crate::rules::RepresentativeStrategy;

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    /// Paper Example 1b query: three tables, one class, closure applied;
    /// cardinalities 100/1000/1000, d = 10/100/1000.
    fn example_1b(rule: SelectivityRule, rep: RepresentativeStrategy) -> PreparedQuery {
        let preds = transitive_closure(&[
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
        ]);
        let classes = EquivalenceClasses::from_predicates(&preds);
        let d = |cr: ColumnRef| [10.0, 100.0, 1000.0][cr.table];
        let infos = annotate_join_predicates(&preds, &classes, d).unwrap();
        let mut class_sels: HashMap<ClassId, Vec<f64>> = HashMap::new();
        for i in &infos {
            class_sels.entry(i.class).or_default().push(i.selectivity);
        }
        let reps = class_sels.into_iter().map(|(k, v)| (k, rep.derive(&v))).collect();
        PreparedQuery::from_parts(vec![100.0, 1000.0, 1000.0], infos, reps, rule)
    }

    #[test]
    fn example_1b_intermediate_and_final() {
        // R2 ⋈ R3 = 1000, then LS gives the correct 1000.
        let q = example_1b(SelectivityRule::LargestSelectivity, Default::default());
        let sizes = q.estimate_order(&[1, 2, 0]).unwrap();
        assert_eq!(sizes, vec![1000.0, 1000.0]);
    }

    #[test]
    fn example_2_rule_m_underestimates() {
        let q = example_1b(SelectivityRule::Multiplicative, Default::default());
        let sizes = q.estimate_order(&[1, 2, 0]).unwrap();
        assert_eq!(sizes[0], 1000.0);
        assert!((sizes[1] - 1.0).abs() < 1e-9, "Rule M should give 1, got {}", sizes[1]);
    }

    #[test]
    fn example_3_rule_ss_underestimates() {
        let q = example_1b(SelectivityRule::SmallestSelectivity, Default::default());
        let sizes = q.estimate_order(&[1, 2, 0]).unwrap();
        assert_eq!(sizes, vec![1000.0, 100.0]);
    }

    #[test]
    fn representative_rule_fails_both_ways() {
        // Rep = 0.01 (largest in class): final = 10000, too high.
        let q = example_1b(SelectivityRule::Representative, RepresentativeStrategy::LargestInClass);
        let sizes = q.estimate_order(&[1, 2, 0]).unwrap();
        assert_eq!(sizes, vec![10_000.0, 10_000.0]);
        // Rep = 0.001 (smallest): final = 100, too low.
        let q =
            example_1b(SelectivityRule::Representative, RepresentativeStrategy::SmallestInClass);
        let sizes = q.estimate_order(&[1, 2, 0]).unwrap();
        assert_eq!(sizes, vec![1000.0, 100.0]);
    }

    #[test]
    fn ls_is_order_independent_on_example_1b() {
        let q = example_1b(SelectivityRule::LargestSelectivity, Default::default());
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let sizes = q.estimate_order(&order).unwrap();
            assert_eq!(*sizes.last().unwrap(), 1000.0, "final size differs for order {order:?}");
        }
    }

    #[test]
    fn rule_m_is_order_dependent_here() {
        // Starting with R1 ⋈ R2 then R3: eligible at step 2 are J2 and J3.
        let q = example_1b(SelectivityRule::Multiplicative, Default::default());
        let a = q.estimate_order(&[0, 1, 2]).unwrap().last().copied().unwrap();
        let b = q.estimate_order(&[1, 2, 0]).unwrap().last().copied().unwrap();
        assert!((a - 1.0).abs() < 1e-9 && (b - 1.0).abs() < 1e-9);
        // Both underestimate, but via different paths; the intermediate
        // differs: R1 ⋈ R2 = 100*1000*0.01 = 1000.
        assert_eq!(q.estimate_order(&[0, 1, 2]).unwrap()[0], 1000.0);
    }

    #[test]
    fn range_predicates_multiply_into_crossing_steps() {
        use crate::join_sel::RangePredicateInfo;
        use crate::predicate::CmpOp;
        let q = PreparedQuery::from_parts(
            vec![10.0, 20.0, 30.0],
            Vec::new(),
            HashMap::new(),
            SelectivityRule::LargestSelectivity,
        )
        .with_range_predicates(vec![RangePredicateInfo {
            left: c(0, 0),
            op: CmpOp::Lt,
            right: c(1, 0),
            selectivity: 0.25,
        }]);
        assert_eq!(q.range_predicates().len(), 1);
        // Crossing step applies the 0.25; the unrelated table does not.
        let s = q.initial_state(0).unwrap();
        let s01 = q.join(&s, 1).unwrap();
        assert_eq!(s01.cardinality(), 10.0 * 20.0 * 0.25);
        let s012 = q.join(&s01, 2).unwrap();
        assert_eq!(s012.cardinality(), 10.0 * 20.0 * 0.25 * 30.0);
        // Starting elsewhere, the predicate fires when its pair first meets.
        let s2 = q.initial_state(2).unwrap();
        let s20 = q.join(&s2, 0).unwrap();
        assert_eq!(s20.cardinality(), 300.0);
        let s201 = q.join(&s20, 1).unwrap();
        assert_eq!(s201.cardinality(), 300.0 * 20.0 * 0.25);
        // Bushy form agrees.
        let bushy = q.join_sets(&q.initial_state(1).unwrap(), &s20).unwrap();
        assert_eq!(bushy.cardinality(), s201.cardinality());
    }

    #[test]
    fn cartesian_product_when_no_predicate_links() {
        let q = PreparedQuery::from_parts(
            vec![10.0, 20.0],
            Vec::new(),
            HashMap::new(),
            SelectivityRule::LargestSelectivity,
        );
        let s = q.join(&q.initial_state(0).unwrap(), 1).unwrap();
        assert_eq!(s.cardinality(), 200.0);
    }

    #[test]
    fn join_state_accessors() {
        let q = example_1b(SelectivityRule::LargestSelectivity, Default::default());
        let s = q.initial_state(1).unwrap();
        assert!(s.contains(1));
        assert!(!s.contains(0));
        assert_eq!(s.len(), 1);
        let s = q.join(&s, 2).unwrap();
        assert_eq!(s.tables(), vec![1, 2]);
        assert_eq!(s.table_mask(), 0b110);
    }

    #[test]
    fn invalid_steps_are_rejected() {
        let q = example_1b(SelectivityRule::LargestSelectivity, Default::default());
        let s = q.initial_state(0).unwrap();
        assert!(matches!(
            q.join(&s, 0),
            Err(ElsError::InvalidJoinStep { table: 0, reason: "table already joined" })
        ));
        assert!(q.join(&s, 9).is_err());
        assert!(q.initial_state(9).is_err());
    }

    #[test]
    fn join_sets_matches_left_deep_for_single_table_sides() {
        let q = example_1b(SelectivityRule::LargestSelectivity, Default::default());
        let a = q.initial_state(1).unwrap();
        let b = q.initial_state(2).unwrap();
        let bushy = q.join_sets(&a, &b).unwrap();
        let left_deep = q.join(&a, 2).unwrap();
        assert_eq!(bushy.cardinality(), left_deep.cardinality());
        assert_eq!(bushy.table_mask(), left_deep.table_mask());
    }

    #[test]
    fn join_sets_is_consistent_with_equation_3() {
        // (R1) ⋈ (R2 ⋈ R3) bushy == 1000 under LS.
        let q = example_1b(SelectivityRule::LargestSelectivity, Default::default());
        let right = q.join(&q.initial_state(1).unwrap(), 2).unwrap();
        let left = q.initial_state(0).unwrap();
        let all = q.join_sets(&left, &right).unwrap();
        assert_eq!(all.cardinality(), 1000.0);
    }

    #[test]
    fn join_sets_rejects_overlap_and_handles_empty() {
        let q = example_1b(SelectivityRule::LargestSelectivity, Default::default());
        let a = q.initial_state(0).unwrap();
        assert!(q.join_sets(&a, &a).is_err());
        let empty = JoinState { tables: 0, cardinality: 0.0 };
        assert_eq!(q.join_sets(&a, &empty).unwrap(), a);
        assert_eq!(q.join_sets(&empty, &a).unwrap(), a);
    }

    #[test]
    fn join_sets_cartesian_when_disconnected() {
        let q = PreparedQuery::from_parts(
            vec![10.0, 20.0],
            Vec::new(),
            HashMap::new(),
            SelectivityRule::LargestSelectivity,
        );
        let s = q.join_sets(&q.initial_state(0).unwrap(), &q.initial_state(1).unwrap()).unwrap();
        assert_eq!(s.cardinality(), 200.0);
    }

    #[test]
    fn empty_order_estimates_nothing() {
        let q = example_1b(SelectivityRule::LargestSelectivity, Default::default());
        assert!(q.estimate_order(&[]).unwrap().is_empty());
        assert!(q.estimate_order(&[2]).unwrap().is_empty());
    }

    /// Regression: table ids at or past the 64-table state mask used to
    /// reach `1 << table` (a shift-overflow panic in debug builds) and
    /// direct `table_cardinality[table]` indexing. Every entry point must
    /// return a typed error instead.
    #[test]
    fn out_of_range_tables_are_typed_errors_not_panics() {
        let q = example_1b(SelectivityRule::LargestSelectivity, Default::default());
        let s = q.initial_state(0).unwrap();
        for bad in [MAX_TABLES, MAX_TABLES + 1, usize::MAX] {
            assert!(matches!(
                q.initial_state(bad),
                Err(ElsError::InvalidJoinStep { reason: "table out of range", .. })
            ));
            assert!(matches!(q.join(&s, bad), Err(ElsError::InvalidJoinStep { .. })));
            assert!(q.explain_join(&s, bad).is_err());
            assert!(q.base_cardinality(bad).is_err());
            assert!(q.estimate_order(&[0, bad]).is_err());
        }
    }

    /// Regression: under Rule REP a class with no representative entry used
    /// to silently contribute selectivity 1.0 — a cartesian step planned as
    /// confident — from any drifted or hand-built `from_parts` input. It
    /// must now be a typed `DegenerateStats` error; every other rule keeps
    /// ignoring the representative map entirely.
    #[test]
    fn missing_representative_is_an_error_only_under_rule_rep() {
        let preds = transitive_closure(&[Predicate::col_eq(c(0, 0), c(1, 0)).unwrap()]);
        let classes = EquivalenceClasses::from_predicates(&preds);
        let infos =
            annotate_join_predicates(&preds, &classes, |cr| [10.0, 100.0][cr.table]).unwrap();
        for rule in [
            SelectivityRule::LargestSelectivity,
            SelectivityRule::SmallestSelectivity,
            SelectivityRule::Multiplicative,
        ] {
            let q =
                PreparedQuery::from_parts(vec![100.0, 1000.0], infos.clone(), HashMap::new(), rule);
            let s = q.join(&q.initial_state(0).unwrap(), 1).unwrap();
            assert!(s.cardinality() > 0.0, "{rule:?} must not need representatives");
            assert!(q.explain_join(&q.initial_state(0).unwrap(), 1).is_ok());
        }
        let q = PreparedQuery::from_parts(
            vec![100.0, 1000.0],
            infos,
            HashMap::new(),
            SelectivityRule::Representative,
        );
        let s0 = q.initial_state(0).unwrap();
        for err in [
            q.join(&s0, 1).unwrap_err(),
            q.explain_join(&s0, 1).unwrap_err(),
            q.join_sets(&s0, &q.initial_state(1).unwrap()).unwrap_err(),
        ] {
            assert!(matches!(err, ElsError::DegenerateStats(_)), "got {err:?}");
            assert!(err.to_string().contains("EC"), "error must name the class: {err}");
        }
    }

    /// `join` picks each class's value from the rule-ordered index,
    /// `explain_join` recomputes it with [`SelectivityRule::combine`] over
    /// the eligible predicates: the two must tell the same story.
    #[test]
    fn explain_join_agrees_with_join_under_every_rule() {
        for rule in [
            SelectivityRule::Multiplicative,
            SelectivityRule::SmallestSelectivity,
            SelectivityRule::LargestSelectivity,
            SelectivityRule::Representative,
        ] {
            let q = example_1b(rule, RepresentativeStrategy::GeometricMean);
            let state = q.join(&q.initial_state(1).unwrap(), 2).unwrap();
            let step = q.explain_join(&state, 0).unwrap();
            assert_eq!(step.classes.len(), 1, "{rule:?}");
            assert_eq!(step.classes[0].eligible, vec![0.01, 0.001], "{rule:?}");
            let replayed = step.cardinality_before * step.base_cardinality * step.classes[0].chosen;
            assert_eq!(step.cardinality_after, replayed, "{rule:?}");
        }
    }

    /// Regression: per-class selectivities used to be multiplied in
    /// `HashMap` iteration order, so with three or more classes crossing
    /// one step the product could differ in its last bit between two
    /// processes, or two values prepared from the same input (these four
    /// selectivities have four distinct products across their 24 orders).
    /// The product is taken in ascending class order, whatever order the
    /// predicates arrive in.
    #[test]
    fn classes_multiply_in_ascending_id_order_bit_for_bit() {
        let sels = [0.3, 0.07, 0.011, 0.13];
        let prepare = |order: [usize; 4]| {
            let infos = order
                .iter()
                .map(|&i| JoinPredicateInfo {
                    left: c(0, i),
                    right: c(i + 1, 0),
                    class: ClassId(i),
                    selectivity: sels[i],
                })
                .collect();
            PreparedQuery::from_parts(
                vec![1.0; 5],
                infos,
                HashMap::new(),
                SelectivityRule::LargestSelectivity,
            )
        };
        let expected = (((sels[0] * sels[1]) * sels[2]) * sels[3]).to_bits();
        for q in [prepare([0, 1, 2, 3]), prepare([0, 1, 2, 3]), prepare([2, 0, 3, 1])] {
            // The four dimension tables first (cartesian), then the hub:
            // all four classes cross the last step.
            let mut dims = q.initial_state(1).unwrap();
            for t in 2..5 {
                dims = q.join(&dims, t).unwrap();
            }
            assert_eq!(q.join(&dims, 0).unwrap().cardinality().to_bits(), expected);
            let hub = q.initial_state(0).unwrap();
            assert_eq!(q.join_sets(&hub, &dims).unwrap().cardinality().to_bits(), expected);
            assert_eq!(q.join_sets(&dims, &hub).unwrap().cardinality().to_bits(), expected);
            let explained = q.explain_join(&dims, 0).unwrap();
            assert_eq!(explained.cardinality_after.to_bits(), expected);
            let classes: Vec<ClassId> = explained.classes.iter().map(|c| c.class).collect();
            assert_eq!(classes, (0..4).map(ClassId).collect::<Vec<_>>());
        }
    }

    /// Regression: a caller may hand `from_parts` more than [`MAX_TABLES`]
    /// cardinalities. Table 64 then exists in the vector but has no bit in
    /// the state mask — it must be rejected, not silently aliased to bit 0.
    #[test]
    fn oversized_table_vector_cannot_overflow_the_state_mask() {
        let q = PreparedQuery::from_parts(
            vec![10.0; MAX_TABLES + 8],
            Vec::new(),
            HashMap::new(),
            SelectivityRule::LargestSelectivity,
        );
        assert!(q.initial_state(MAX_TABLES - 1).is_ok());
        assert!(matches!(
            q.initial_state(MAX_TABLES),
            Err(ElsError::InvalidJoinStep { table, reason: "table out of range" })
                if table == MAX_TABLES
        ));
        let s = q.initial_state(0).unwrap();
        assert!(q.join(&s, MAX_TABLES).is_err());
        assert!(q.join(&s, MAX_TABLES + 7).is_err());
    }
}
