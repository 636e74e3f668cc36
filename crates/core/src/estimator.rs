//! Incremental join-result-size estimation (Algorithm ELS, Step 6;
//! paper Section 7): the [`CardinalityEstimator`] implementation of
//! [`Els`].
//!
//! [`Els::prepare`] runs Steps 1–5 and keeps what Step 6 reads: effective
//! table cardinalities and the annotated join predicates, indexed by
//! equivalence class. A [`JoinState`] is an immutable snapshot of one
//! intermediate result (a set of joined tables plus its estimated
//! cardinality); [`CardinalityEstimator::join`] extends a state by one
//! table, the access pattern of every System-R style enumerator, and
//! [`CardinalityEstimator::join_sets`] joins two.
//!
//! At each step the *eligible* predicates — those linking the new table to
//! tables already in the state — are grouped by equivalence class, each
//! class contributes one selectivity chosen by the configured
//! [`SelectivityRule`], classes multiply (independence assumption), and the
//! new cardinality is `old · ‖T‖′ · ∏ per-class selectivity`.
//!
//! A step allocates nothing: the predicates are indexed once, at
//! preparation, as table bitmasks grouped by class, and one pass over that
//! index finds each class's choice and multiplies the classes in ascending
//! [`ClassId`] order — the same product, to the bit, for every query
//! prepared the same way.
//!
//! Under Rule LS the estimate of a join set is Equation 3 over the set,
//! whatever order built it (Section 7), when every class is a clique of
//! `min(s_i, s_j)` pair selectivities — which closure and Equation 2
//! produce. Preparation checks that condition, and a query that meets it
//! computes every set's size along one canonical order, ascending tables,
//! so the estimate is a function of the set to the bit
//! ([`CardinalityEstimator::order_independent`]). An enumerator may then
//! ask once per table subset instead of once per candidate plan.

use std::collections::HashMap;

use crate::algorithm::{Els, Preprocessing};
use crate::cardinality::CardinalityEstimator;
use crate::error::{ElsError, ElsResult};
use crate::ids::{ClassId, TableId};
use crate::join_sel::JoinPredicateInfo;
use crate::predicate::Predicate;
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
    pub(crate) fn contains(&self, table: TableId) -> bool {
        table < MAX_TABLES && self.tables & (1 << table) != 0
    }

    /// True when the state is empty (no tables yet).
    pub(crate) fn is_empty(&self) -> bool {
        self.tables == 0
    }
}

/// The entry of `table` in a per-table `cardinality` list, or a typed error
/// when the id is outside the query or the 64-table state mask. Every
/// estimator's range check: degrade to an error on degenerate inputs, never
/// abort on an indexing or shift-overflow panic.
pub(crate) fn checked_cardinality(cardinality: &[f64], table: TableId) -> ElsResult<f64> {
    cardinality
        .get(table)
        .filter(|_| table < MAX_TABLES)
        .copied()
        .ok_or(ElsError::InvalidJoinStep { table, reason: "table out of range" })
}

/// The guards every `join_sets` starts with: sides that share a table are
/// an error, and an empty side makes the other side the answer (`Some`).
/// `None` leaves two disjoint, non-empty sides for the estimator to size.
pub(crate) fn settled_join(a: &JoinState, b: &JoinState) -> ElsResult<Option<JoinState>> {
    let overlap = a.tables & b.tables;
    if overlap != 0 {
        let table = overlap.trailing_zeros() as usize;
        return Err(ElsError::InvalidJoinStep { table, reason: "join sides overlap" });
    }
    Ok(if a.is_empty() {
        Some(*b)
    } else if b.is_empty() {
        Some(*a)
    } else {
        None
    })
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

/// Diagnostic record of one join step (see [`Els::report`]).
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
pub(crate) struct Edge {
    /// The bits of the two tables it links. Empty when either lies past
    /// the 64-bit state mask: such an edge never crosses, exactly as
    /// [`JoinState::contains`] never reports such a table.
    tables: u64,
    selectivity: f64,
}

impl Edge {
    pub(crate) fn new(left: TableId, right: TableId, selectivity: f64) -> Edge {
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
pub(crate) struct ClassEdges {
    class: ClassId,
    /// The class's fixed representative (`None` when Steps 1–5 supplied
    /// none; only Rule REP reads it).
    representative: Option<f64>,
    edges: Vec<Edge>,
}

impl ClassEdges {
    /// Index Step 5's join predicates for Step 6: grouped by class in
    /// ascending class order, so the classes are multiplied in an order that
    /// depends on nothing but the query, each class's edges ordered for
    /// `rule`. Also says whether Equation 3 holds for the query (see
    /// [`CardinalityEstimator::order_independent`]): Rule LS, and every
    /// class a [min-clique](ClassEdges::is_min_clique).
    pub(crate) fn index(
        join_predicates: &[JoinPredicateInfo],
        representatives: &HashMap<ClassId, f64>,
        rule: SelectivityRule,
    ) -> (Vec<ClassEdges>, bool) {
        let mut classes: Vec<ClassEdges> = Vec::new();
        for p in join_predicates {
            let edge = Edge::new(p.left.table, p.right.table, p.selectivity);
            match classes.iter_mut().find(|c| c.class == p.class) {
                Some(c) => c.edges.push(edge),
                None => classes.push(ClassEdges {
                    class: p.class,
                    representative: representatives.get(&p.class).copied(),
                    edges: vec![edge],
                }),
            }
        }
        classes.sort_by_key(|c| c.class);
        for class in &mut classes {
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
            && classes.iter().all(ClassEdges::is_min_clique);
        (classes, order_independent)
    }

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

impl Els {
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
            None if self.options().rule != SelectivityRule::Representative => Ok(1.0),
            None => Err(ElsError::DegenerateStats(format!(
                "rule REP has no representative selectivity for class {}",
                class.class
            ))),
        }
    }

    /// The configured rule's choice for one class between the disjoint
    /// table sets `a` and `b`, or `None` when no edge of the class links
    /// them.
    fn class_choice(&self, class: &ClassEdges, a: u64, b: u64) -> ElsResult<Option<f64>> {
        let mut eligible = class.edges.iter().filter(|e| e.crosses(a, b)).map(|e| e.selectivity);
        Ok(match self.options().rule {
            SelectivityRule::Multiplicative => eligible.reduce(|acc, s| acc * s),
            SelectivityRule::SmallestSelectivity | SelectivityRule::LargestSelectivity => {
                eligible.next()
            }
            SelectivityRule::Representative => match eligible.next() {
                Some(_) => Some(self.representative(class)?),
                None => None,
            },
        })
    }

    /// Combined selectivity of every predicate linking the disjoint table
    /// sets `a` and `b`: the rule's choice per class, the classes
    /// multiplied in ascending id order, then each crossing range
    /// predicate.
    fn crossing_selectivity(&self, a: u64, b: u64) -> ElsResult<f64> {
        let mut selectivity = 1.0f64;
        for class in &self.class_edges {
            if let Some(chosen) = self.class_choice(class, a, b)? {
                selectivity *= chosen;
            }
        }
        Ok(self
            .range_edges
            .iter()
            .filter(|e| e.crosses(a, b))
            .fold(selectivity, |s, e| s * e.selectivity))
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
            let base = checked_cardinality(&self.table_cardinality, table)?;
            let selectivity = self.crossing_selectivity(state.tables, 1 << table)?;
            state = JoinState {
                tables: state.tables | (1 << table),
                cardinality: state.cardinality * base * selectivity,
            };
        }
        Ok(state)
    }

    /// Explain one join step: the eligible selectivities per class (in
    /// predicate order), the value each class contributed under the
    /// configured rule, and the resulting cardinality. Pure diagnostics —
    /// [`CardinalityEstimator::join`] computes the same numbers (for an
    /// order-independent query, along the set's canonical order, so
    /// `cardinality_after` may differ from `before · base · chosen` in the
    /// last bits).
    pub(crate) fn explain_join(
        &self,
        state: &JoinState,
        table: TableId,
    ) -> ElsResult<JoinStepExplanation> {
        let new_state = self.join(state, table)?;
        let base_cardinality = checked_cardinality(&self.table_cardinality, table)?;
        let (before, single) = (state.tables, 1 << table);
        let mut classes: Vec<ClassChoice> = Vec::new();
        for class in &self.class_edges {
            if let Some(chosen) = self.class_choice(class, before, single)? {
                let eligible = self
                    .join_predicates
                    .iter()
                    .filter(|p| p.class == class.class)
                    .filter(|p| {
                        Edge::new(p.left.table, p.right.table, p.selectivity)
                            .crosses(before, single)
                    })
                    .map(|p| p.selectivity)
                    .collect();
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
}

impl CardinalityEstimator for Els {
    fn name(&self) -> &'static str {
        match (self.options().preprocessing, self.options().rule) {
            (Preprocessing::Els, SelectivityRule::LargestSelectivity) => "els",
            (Preprocessing::Els, SelectivityRule::Multiplicative) => "els-rule-m",
            (Preprocessing::Els, SelectivityRule::SmallestSelectivity) => "els-rule-ss",
            (Preprocessing::Els, SelectivityRule::Representative) => "els-rule-rep",
            (Preprocessing::Standard, SelectivityRule::LargestSelectivity) => "standard-ls",
            (Preprocessing::Standard, SelectivityRule::Multiplicative) => "standard-sm",
            (Preprocessing::Standard, SelectivityRule::SmallestSelectivity) => "standard-sss",
            (Preprocessing::Standard, SelectivityRule::Representative) => "standard-rep",
        }
    }

    fn num_tables(&self) -> usize {
        self.table_cardinality.len()
    }

    fn predicates(&self) -> &[Predicate] {
        Els::predicates(self)
    }

    fn effective_cardinality(&self, table: TableId) -> ElsResult<f64> {
        Els::effective_cardinality(self, table)
    }

    fn original_cardinality(&self, table: TableId) -> ElsResult<f64> {
        self.effective_stats()
            .tables
            .get(table)
            .map(|t| t.original_cardinality)
            .ok_or(ElsError::UnknownTable(table))
    }

    fn initial_state(&self, table: TableId) -> ElsResult<JoinState> {
        let cardinality = checked_cardinality(&self.table_cardinality, table)?;
        Ok(JoinState { tables: 1 << table, cardinality })
    }

    /// Eligible predicates are those linking a table of `a` to a table of
    /// `b`; the configured rule combines them per class. With a single
    /// table on one side this is the incremental step of Step 6. Rule LS
    /// remains consistent with Equation 3 for bushy joins too: with
    /// per-side class minima `m_a`, `m_b`, the largest eligible selectivity
    /// is `1/max(m_a, m_b)`, which stitches the two partial denominators
    /// into the full all-but-global-min product.
    fn join_sets(&self, a: &JoinState, b: &JoinState) -> ElsResult<JoinState> {
        if let Some(settled) = settled_join(a, b)? {
            return Ok(settled);
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

    /// True when every join set's estimate is a function of the set alone,
    /// to the bit: Rule LS, and every equivalence class a clique whose pair
    /// selectivities are `min(s_i, s_j)` for per-table values `s` (paper
    /// Section 7: the estimate is then Equation 3 over the set, whatever
    /// order built it). Such a query computes each set's size along one
    /// canonical order, ascending tables: joining a single table above
    /// every table of the other side is the incremental step, and every
    /// other join recomputes that canonical chain. Derived from the query;
    /// nothing can set it.
    fn order_independent(&self) -> bool {
        self.order_independent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::ElsOptions;
    use crate::closure::transitive_closure;
    use crate::equivalence::EquivalenceClasses;
    use crate::ids::ColumnRef;
    use crate::join_sel::annotate_join_predicates;
    use crate::rules::RepresentativeStrategy;
    use crate::stats::{ColumnStatistics, QueryStatistics, TableStatistics};

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    /// An `Els` whose Step 6 reads hand-built input: `table_cardinality`
    /// and `join_predicates` in place of what Steps 1–5 derive, and no
    /// representative but those in `representatives`.
    fn from_parts(
        table_cardinality: Vec<f64>,
        join_predicates: Vec<JoinPredicateInfo>,
        representatives: HashMap<ClassId, f64>,
        rule: SelectivityRule,
    ) -> Els {
        let no_tables = QueryStatistics::new(Vec::new());
        let mut els =
            Els::prepare(&[], &no_tables, &ElsOptions::default().with_rule(rule)).unwrap();
        (els.class_edges, els.order_independent) =
            ClassEdges::index(&join_predicates, &representatives, rule);
        els.table_cardinality = table_cardinality;
        els.join_predicates = join_predicates;
        els
    }

    /// Paper Example 1b query: three tables, one class, closure applied;
    /// cardinalities 100/1000/1000, d = 10/100/1000.
    fn example_1b(rule: SelectivityRule, rep: RepresentativeStrategy) -> Els {
        let stats = QueryStatistics::new(
            [(100.0, 10.0), (1000.0, 100.0), (1000.0, 1000.0)]
                .map(|(rows, d)| {
                    TableStatistics::new(rows, vec![ColumnStatistics::with_distinct(d)])
                })
                .to_vec(),
        );
        let preds = [
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
        ];
        let options = ElsOptions::default().with_rule(rule).with_representative(rep);
        Els::prepare(&preds, &stats, &options).unwrap()
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
        let mut q = from_parts(
            vec![10.0, 20.0, 30.0],
            Vec::new(),
            HashMap::new(),
            SelectivityRule::LargestSelectivity,
        );
        q.range_edges = vec![Edge::new(0, 1, 0.25)];
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
        let q = from_parts(
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
        assert_eq!(s.table_mask(), 0b010);
        let s = q.join(&s, 2).unwrap();
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
        let q = from_parts(
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
            assert!(q.effective_cardinality(bad).is_err());
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
            let q = from_parts(vec![100.0, 1000.0], infos.clone(), HashMap::new(), rule);
            let s = q.join(&q.initial_state(0).unwrap(), 1).unwrap();
            assert!(s.cardinality() > 0.0, "{rule:?} must not need representatives");
            assert!(q.explain_join(&q.initial_state(0).unwrap(), 1).is_ok());
        }
        let q =
            from_parts(vec![100.0, 1000.0], infos, HashMap::new(), SelectivityRule::Representative);
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

    /// `explain_join` lists the eligible predicates in predicate order and
    /// reads each class's choice the way `join` does: replaying the step
    /// from the explanation must give `join`'s estimate.
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
            from_parts(vec![1.0; 5], infos, HashMap::new(), SelectivityRule::LargestSelectivity)
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
        let q = from_parts(
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

    #[test]
    fn one_corrected_join_edge_does_not_declare() {
        // Example 1b's pair selectivities are min(s_i, s_j) for s = (1/10,
        // 1/100, 1/1000)... until one edge alone is corrected by a factor 5.
        let els = example_1b(SelectivityRule::LargestSelectivity, Default::default());
        assert!(els.order_independent());
        let cards: Vec<f64> = (0..3).map(|t| els.effective_cardinality(t).unwrap()).collect();
        let mut infos = els.join_predicates.clone();
        let edge = infos.iter_mut().find(|p| (p.left.table, p.right.table) == (0, 2)).unwrap();
        edge.selectivity *= 5.0;
        let corrected =
            from_parts(cards, infos, HashMap::new(), SelectivityRule::LargestSelectivity);
        assert!(!corrected.order_independent());
        let last = |order: &[usize]| *corrected.estimate_order(order).unwrap().last().unwrap();
        assert_ne!(last(&[0, 2, 1]), last(&[1, 2, 0]));
    }
}
