//! Pluggable cardinality estimation: the [`CardinalityEstimator`] trait
//! and the non-ELS implementations behind it.
//!
//! The paper's Algorithm ELS is one way to answer the question a join
//! enumerator keeps asking — *how big is this set of joined tables?* —
//! but not the only one. This module makes the question a trait (in the
//! spirit of PostBOUND's `JoinBoundCardinalityEstimator` meta-strategy:
//! set up once per query, then estimate per join edge/state), so the
//! optimizer can run the same dynamic program over any estimator:
//!
//! * **[`Els`](crate::Els)** — the paper's pipeline, in all its
//!   configurations: rule LS (Algorithm ELS), the System-R rule M and rule
//!   SS baselines, and the feedback-corrected variant (corrections are
//!   folded in during `prepare_full`, so a corrected `Els` *is* the
//!   feedback estimator). Its implementation is Step 6, in
//!   [`crate::estimator`].
//! * **[`UpperBoundEstimator`]** — a UES-style sketch bound built from
//!   max join-column frequencies: estimates are *guaranteed upper
//!   bounds* on the true result size, for any data distribution. The
//!   price of the guarantee is pessimism.
//! * **[`NoEstimatesEstimator`]** — the Simpli-Squared baseline: no
//!   statistics beyond table cardinalities, and the blanket assumption
//!   that joins never expand (every join set is planned at the size of
//!   its largest member). A deliberately information-free control that
//!   keeps bake-offs honest.
//!
//! All three hand out the same opaque [`JoinState`] tokens, so the
//! enumerator in `els-optimizer` is estimator-agnostic.

use std::collections::HashMap;

use crate::closure::transitive_closure;
use crate::error::{ElsError, ElsResult};
use crate::estimator::{checked_cardinality, settled_join, JoinState, MAX_TABLES};
use crate::ids::{ColumnRef, TableId};
use crate::predicate::Predicate;
use crate::stats::QueryStatistics;

/// Estimate join-result sizes for a query, one join state at a time.
///
/// The surface is exactly what a System-R style enumerator consumes:
/// per-table planning cardinalities, incremental [`join`] /
/// [`join_sets`] transitions, and the (possibly closed) predicate set
/// the physical plan must evaluate. Implementations are prepared once
/// per query (the analogue of PostBOUND's `setup_for_query`) and then
/// answer estimation requests for arbitrary join orders.
///
/// [`join`]: CardinalityEstimator::join
/// [`join_sets`]: CardinalityEstimator::join_sets
pub trait CardinalityEstimator: std::fmt::Debug {
    /// Stable short name for diagnostics and bake-off labels.
    fn name(&self) -> &'static str;

    /// Number of tables in the query this estimator was prepared for.
    fn num_tables(&self) -> usize;

    /// The predicate set the physical plan evaluates (deduplicated, and
    /// closed under transitivity when the implementation applies the
    /// paper's Step 2).
    fn predicates(&self) -> &[Predicate];

    /// The planning cardinality of one base table — what a scan of it is
    /// expected to produce.
    fn effective_cardinality(&self, table: TableId) -> ElsResult<f64>;

    /// The stored (pre-predicate) cardinality of one base table — what a
    /// *rescan* of it produces.
    fn original_cardinality(&self, table: TableId) -> ElsResult<f64>;

    /// Start a join state from one base table.
    fn initial_state(&self, table: TableId) -> ElsResult<JoinState>;

    /// Extend a state by one base table (the left-deep transition): the
    /// table's initial state joined to `state` by
    /// [`join_sets`](CardinalityEstimator::join_sets), after checking that
    /// `state` does not hold it already.
    fn join(&self, state: &JoinState, table: TableId) -> ElsResult<JoinState> {
        let single = self.initial_state(table)?;
        if state.contains(table) {
            return Err(ElsError::InvalidJoinStep { table, reason: "table already joined" });
        }
        self.join_sets(state, &single)
    }

    /// Join two disjoint intermediate results (the bushy transition).
    fn join_sets(&self, a: &JoinState, b: &JoinState) -> ElsResult<JoinState>;

    /// True when the estimate for a join set depends on the set alone, to
    /// the bit, whichever `join` / `join_sets` calls built it. An
    /// enumerator may then ask once per table subset instead of once per
    /// candidate plan. The default, `false`, is always safe: a wrapper that
    /// does not forward this method is asked per candidate and gets the
    /// same answers.
    fn order_independent(&self) -> bool {
        false
    }

    /// Estimate the sizes of every intermediate result along a join
    /// order (`order.len() - 1` entries).
    fn estimate_order(&self, order: &[TableId]) -> ElsResult<Vec<f64>> {
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

/// Shared scaffolding of the non-ELS estimators: stored cardinalities,
/// the closed predicate set, and checked table access.
#[derive(Debug, Clone)]
struct BaseTables {
    /// Stored table cardinalities ‖R‖ (never reduced by local
    /// predicates).
    cardinality: Vec<f64>,
    /// The transitively closed predicate set (what the plan evaluates).
    predicates: Vec<Predicate>,
}

impl BaseTables {
    fn new(predicates: &[Predicate], stats: &QueryStatistics) -> ElsResult<BaseTables> {
        stats.validate()?;
        let predicates = transitive_closure(predicates);
        let shape = stats.shape();
        for p in &predicates {
            p.validate(&shape)?;
        }
        Ok(BaseTables {
            cardinality: stats.tables.iter().map(|t| t.cardinality).collect(),
            predicates,
        })
    }

    /// Stored cardinality of `table`, or a typed error when the id is
    /// outside the query or the 64-table state mask.
    fn checked(&self, table: TableId) -> ElsResult<f64> {
        checked_cardinality(&self.cardinality, table)
    }
}

/// An estimator whose size for a join state depends on the table *set*
/// alone, not on the order that built it: all it has to say is
/// [`SetSized::size_of`], and the rest of the [`CardinalityEstimator`]
/// surface — stored cardinalities on both accessors, states that are a mask
/// plus that size — is written once below.
trait SetSized: std::fmt::Debug {
    /// [`CardinalityEstimator::name`].
    const NAME: &'static str;

    /// The stored cardinalities and the closed predicate set.
    fn base(&self) -> &BaseTables;

    /// The planning size of the non-empty table set `mask`.
    fn size_of(&self, mask: u64) -> ElsResult<f64>;
}

impl<T: SetSized> CardinalityEstimator for T {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn num_tables(&self) -> usize {
        self.base().cardinality.len()
    }

    fn predicates(&self) -> &[Predicate] {
        &self.base().predicates
    }

    fn effective_cardinality(&self, table: TableId) -> ElsResult<f64> {
        self.base().checked(table)
    }

    fn original_cardinality(&self, table: TableId) -> ElsResult<f64> {
        self.base().checked(table)
    }

    fn initial_state(&self, table: TableId) -> ElsResult<JoinState> {
        let cardinality = self.base().checked(table)?;
        Ok(JoinState::from_parts(1u64 << table, cardinality))
    }

    fn join_sets(&self, a: &JoinState, b: &JoinState) -> ElsResult<JoinState> {
        if let Some(settled) = settled_join(a, b)? {
            return Ok(settled);
        }
        let mask = a.table_mask() | b.table_mask();
        Ok(JoinState::from_parts(mask, self.size_of(mask)?))
    }

    /// Every size is `SetSized::size_of` of the state's mask.
    fn order_independent(&self) -> bool {
        true
    }
}

/// A UES-style upper-bound estimator.
///
/// For a join `R ⋈ S` on `a = b`, the result size is
/// `Σ_v f_R(a=v) · f_S(b=v) ≤ min(‖R‖ · MF_S(b), ‖S‖ · MF_R(a))`, where
/// `MF(x)` is the frequency of the most common value of `x`. The bound
/// holds for *any* data — no uniformity, independence or containment
/// assumption — and it composes: the max frequency of a column inside an
/// intermediate result grows by at most the other side's per-row match
/// bound, so iterating the formula over a join set yields a guaranteed
/// upper bound on the final size.
///
/// Two deliberate pessimisms keep the guarantee airtight:
///
/// * base cardinalities are **unfiltered** — local-predicate
///   selectivities are estimates, not bounds, so they never shrink the
///   bound;
/// * a column with no collected max-frequency statistic falls back to
///   the worst value consistent with `(‖R‖, d)`: one value owning all
///   the slack rows, `MF = ‖R‖ − d + 1`.
///
/// Estimates depend only on the table *set*, not the join order, so the
/// bound is reproducible across plan shapes.
///
/// Inequality join predicates ([`Predicate::JoinRange`]) never tighten
/// the bound: a selectivity for `L < R` would be an estimate, not a
/// guarantee, so a table pair linked only by a range predicate bounds at
/// the cross product — exactly what the worst data (every left value
/// below every right value) realizes.
#[derive(Debug, Clone)]
pub struct UpperBoundEstimator {
    base: BaseTables,
    /// Per-table, per-column max-frequency bound (fallback applied).
    max_frequency: Vec<Vec<f64>>,
    /// The cross-table equality edges of the closed predicate set.
    join_edges: Vec<(ColumnRef, ColumnRef)>,
}

impl UpperBoundEstimator {
    /// Prepare the bound estimator for one query.
    pub fn new(
        predicates: &[Predicate],
        stats: &QueryStatistics,
    ) -> ElsResult<UpperBoundEstimator> {
        let base = BaseTables::new(predicates, stats)?;
        let max_frequency = stats
            .tables
            .iter()
            .map(|t| {
                t.columns
                    .iter()
                    .map(|c| {
                        c.max_frequency
                            .unwrap_or_else(|| (t.cardinality - c.distinct + 1.0).max(1.0))
                            .min(t.cardinality.max(1.0))
                    })
                    .collect()
            })
            .collect();
        let join_edges = base
            .predicates
            .iter()
            .filter_map(|p| match p {
                Predicate::JoinEq { left, right } => Some((*left, *right)),
                _ => None,
            })
            .collect();
        Ok(UpperBoundEstimator { base, max_frequency, join_edges })
    }

    /// Max-frequency bound of a base-table column (worst-case fallback
    /// already folded in at construction). `join_edges` only holds
    /// validated columns, so a miss means the edge list and the statistics
    /// drifted apart — surface that as a typed error rather than the old
    /// silent `f64::INFINITY` (which would quietly neutralize the bound).
    fn column_mf(&self, c: ColumnRef) -> ElsResult<f64> {
        self.max_frequency
            .get(c.table)
            .and_then(|cols| cols.get(c.column))
            .copied()
            .ok_or(ElsError::UnknownColumn(c))
    }
}

impl SetSized for UpperBoundEstimator {
    const NAME: &'static str = "upper-bound";

    fn base(&self) -> &BaseTables {
        &self.base
    }

    /// The upper bound for one table set, by folding tables into a
    /// growing component (connected tables first, lowest id breaking
    /// ties, cartesian only when forced). The fold tracks a per-column
    /// max-frequency bound of the intermediate alongside its size bound.
    fn size_of(&self, mask: u64) -> ElsResult<f64> {
        let tables: Vec<TableId> = (0..MAX_TABLES).filter(|t| mask & (1u64 << t) != 0).collect();
        let Some((&first, rest)) = tables.split_first() else {
            return Ok(0.0);
        };
        let mut in_component = 1u64 << first;
        let mut bound = self.base.checked(first)?;
        // Upper bounds on each column's max frequency inside the
        // intermediate.
        let mut mf: HashMap<ColumnRef, f64> = self
            .max_frequency
            .get(first)
            .map(|cols| {
                cols.iter().enumerate().map(|(i, &v)| (ColumnRef::new(first, i), v)).collect()
            })
            .unwrap_or_default();
        let mut remaining: Vec<TableId> = rest.to_vec();
        while !remaining.is_empty() {
            let connected = remaining.iter().position(|&t| {
                self.join_edges.iter().any(|(l, r)| {
                    (l.table == t && in_component & (1u64 << r.table) != 0)
                        || (r.table == t && in_component & (1u64 << l.table) != 0)
                })
            });
            // els-lint: allow(numeric-discipline, "deliberate cartesian fallback: when no remaining table joins the component, fold the lowest-id one at full size")
            let t = remaining.remove(connected.unwrap_or(0));
            let t_card = self.base.checked(t)?;
            // One intermediate row matches at most `t_factor` rows of the
            // new table; one new-table row matches at most
            // `component_factor` intermediate rows. Cartesian steps leave
            // the factors at the full sizes.
            let mut t_factor = t_card;
            let mut component_factor = bound;
            for (l, r) in &self.join_edges {
                let (t_col, comp_col) = if l.table == t && in_component & (1u64 << r.table) != 0 {
                    (*l, *r)
                } else if r.table == t && in_component & (1u64 << l.table) != 0 {
                    (*r, *l)
                } else {
                    continue;
                };
                t_factor = t_factor.min(self.column_mf(t_col)?);
                component_factor =
                    component_factor.min(mf.get(&comp_col).copied().unwrap_or(bound));
            }
            let new_bound = (bound * t_factor).min(t_card * component_factor);
            for v in mf.values_mut() {
                *v = (*v * t_factor).min(new_bound);
            }
            if let Some(cols) = self.max_frequency.get(t) {
                for (i, &base_mf) in cols.iter().enumerate() {
                    mf.insert(ColumnRef::new(t, i), (base_mf * component_factor).min(new_bound));
                }
            }
            bound = new_bound;
            in_component |= 1u64 << t;
        }
        Ok(bound)
    }
}

/// The Simpli-Squared no-estimates baseline.
///
/// Uses no statistic beyond table cardinalities and assumes joins never
/// expand: every join set is planned at the size of its *largest* member
/// (sound for key–foreign-key joins, a plain guess otherwise). Useful as
/// the information-free control in estimator bake-offs — any estimator
/// that cannot beat it is not earning its statistics.
#[derive(Debug, Clone)]
pub struct NoEstimatesEstimator {
    base: BaseTables,
}

impl NoEstimatesEstimator {
    /// Prepare the baseline for one query.
    pub fn new(
        predicates: &[Predicate],
        stats: &QueryStatistics,
    ) -> ElsResult<NoEstimatesEstimator> {
        Ok(NoEstimatesEstimator { base: BaseTables::new(predicates, stats)? })
    }
}

impl SetSized for NoEstimatesEstimator {
    const NAME: &'static str = "no-estimates";

    fn base(&self) -> &BaseTables {
        &self.base
    }

    /// The largest member: joins are assumed never to expand.
    fn size_of(&self, mask: u64) -> ElsResult<f64> {
        let tables = self.base.cardinality.iter().take(MAX_TABLES).enumerate();
        let members = tables.filter(|(t, _)| mask & (1u64 << t) != 0);
        Ok(members.fold(0.0, |largest, (_, &cardinality)| largest.max(cardinality)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Els, ElsOptions};
    use crate::predicate::CmpOp;
    use crate::stats::{ColumnStatistics, TableStatistics};

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    /// The Section 8 catalog: S/M/B/G with key join columns (MF = 1).
    fn section8() -> (QueryStatistics, Vec<Predicate>) {
        let mk = |rows: f64| {
            TableStatistics::new(
                rows,
                vec![ColumnStatistics {
                    max_frequency: Some(1.0),
                    ..ColumnStatistics::with_domain(rows, 0.0, rows - 1.0)
                }],
            )
        };
        let stats =
            QueryStatistics::new(vec![mk(1000.0), mk(10_000.0), mk(50_000.0), mk(100_000.0)]);
        let preds = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(),
            Predicate::col_eq(c(2, 0), c(3, 0)).unwrap(),
            Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64),
        ];
        (stats, preds)
    }

    #[test]
    fn els_answers_through_a_trait_object() {
        let (stats, preds) = section8();
        let els = Els::prepare(&preds, &stats, &ElsOptions::default()).unwrap();
        let dynamic: &dyn CardinalityEstimator = &els;
        assert_eq!(dynamic.name(), "els");
        assert_eq!(dynamic.num_tables(), 4);
        assert_eq!(dynamic.estimate_order(&[2, 3, 1, 0]).unwrap(), vec![100.0; 3]);
        assert_eq!(dynamic.original_cardinality(3).unwrap(), 100_000.0);
        assert_eq!(dynamic.effective_cardinality(3).unwrap(), 100.0);
    }

    #[test]
    fn els_names_track_the_configuration() {
        let (stats, preds) = section8();
        let sm = Els::prepare(&preds, &stats, &ElsOptions::algorithm_sm()).unwrap();
        assert_eq!(CardinalityEstimator::name(&sm), "standard-sm");
        let sss = Els::prepare(&preds, &stats, &ElsOptions::algorithm_sss()).unwrap();
        assert_eq!(CardinalityEstimator::name(&sss), "standard-sss");
    }

    #[test]
    fn upper_bound_on_key_joins_is_tight_to_the_small_side() {
        // With MF = 1 everywhere each join step bounds at min(‖L‖, ‖R‖):
        // S ⋈ M ≤ 1000, ⋈ B ≤ 1000, ⋈ G ≤ 1000. The true (unfiltered)
        // chain result is 1000, so the bound is exact here.
        let (stats, preds) = section8();
        let ues = UpperBoundEstimator::new(&preds, &stats).unwrap();
        let sizes = ues.estimate_order(&[0, 1, 2, 3]).unwrap();
        assert_eq!(sizes, vec![1000.0, 1000.0, 1000.0]);
        // Order independence: the bound depends only on the table set.
        let other = ues.estimate_order(&[3, 2, 1, 0]).unwrap();
        assert_eq!(other.last(), sizes.last());
    }

    #[test]
    fn upper_bound_ignores_local_filters() {
        // `s < 100` filters S to 100 rows, but filter selectivities are
        // estimates, not bounds: the UES base stays ‖S‖ = 1000.
        let (stats, preds) = section8();
        let ues = UpperBoundEstimator::new(&preds, &stats).unwrap();
        assert_eq!(ues.effective_cardinality(0).unwrap(), 1000.0);
        assert_eq!(ues.initial_state(0).unwrap().cardinality(), 1000.0);
    }

    #[test]
    fn upper_bound_dominates_any_actual_frequency_pairing() {
        // Two 100-row tables joining on a column with MF 10 and 4: the
        // worst pairing realizes Σ f_R·f_S ≤ min(100·4, 100·10) = 400.
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(
                100.0,
                vec![ColumnStatistics {
                    max_frequency: Some(10.0),
                    ..ColumnStatistics::with_distinct(10.0)
                }],
            ),
            TableStatistics::new(
                100.0,
                vec![ColumnStatistics {
                    max_frequency: Some(4.0),
                    ..ColumnStatistics::with_distinct(25.0)
                }],
            ),
        ]);
        let preds = vec![Predicate::col_eq(c(0, 0), c(1, 0)).unwrap()];
        let ues = UpperBoundEstimator::new(&preds, &stats).unwrap();
        let s = ues.join(&ues.initial_state(0).unwrap(), 1).unwrap();
        assert_eq!(s.cardinality(), 400.0);
    }

    #[test]
    fn missing_max_frequency_falls_back_to_worst_case() {
        // ‖R‖ = 100, d = 91: the worst distribution gives one value
        // 100 − 91 + 1 = 10 rows. The bound must assume it.
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(100.0, vec![ColumnStatistics::with_distinct(91.0)]),
            TableStatistics::new(50.0, vec![ColumnStatistics::with_distinct(50.0)]),
        ]);
        let preds = vec![Predicate::col_eq(c(0, 0), c(1, 0)).unwrap()];
        let ues = UpperBoundEstimator::new(&preds, &stats).unwrap();
        let s = ues.join(&ues.initial_state(1).unwrap(), 0).unwrap();
        // min(‖S‖·MF_R, ‖R‖·MF_S) = min(50·10, 100·1) = 100.
        assert_eq!(s.cardinality(), 100.0);
    }

    #[test]
    fn upper_bound_cartesian_is_the_product() {
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(10.0, vec![]),
            TableStatistics::new(20.0, vec![]),
        ]);
        let ues = UpperBoundEstimator::new(&[], &stats).unwrap();
        let s = ues.join(&ues.initial_state(0).unwrap(), 1).unwrap();
        assert_eq!(s.cardinality(), 200.0);
        let bushy =
            ues.join_sets(&ues.initial_state(0).unwrap(), &ues.initial_state(1).unwrap()).unwrap();
        assert_eq!(bushy.cardinality(), 200.0);
    }

    #[test]
    fn upper_bound_exceeds_the_exhaustive_worst_case_on_random_stats() {
        // Adversarial check against brute force: for every two-table
        // equality join, the maximum achievable result given (n, d, MF)
        // per side is Σ over value slots of f_R·f_S maximized greedily —
        // which is ≤ min(n_R·MF_S, n_S·MF_R), the exact bound we compute.
        for (n_r, d_r, mf_r, n_s, d_s, mf_s) in [
            (100.0, 10.0, 20.0, 100.0, 10.0, 20.0),
            (1000.0, 100.0, 50.0, 10.0, 10.0, 1.0),
            (7.0, 7.0, 1.0, 9.0, 3.0, 5.0),
        ] {
            let stats = QueryStatistics::new(vec![
                TableStatistics::new(
                    n_r,
                    vec![ColumnStatistics {
                        max_frequency: Some(mf_r),
                        ..ColumnStatistics::with_distinct(d_r)
                    }],
                ),
                TableStatistics::new(
                    n_s,
                    vec![ColumnStatistics {
                        max_frequency: Some(mf_s),
                        ..ColumnStatistics::with_distinct(d_s)
                    }],
                ),
            ]);
            let preds = vec![Predicate::col_eq(c(0, 0), c(1, 0)).unwrap()];
            let ues = UpperBoundEstimator::new(&preds, &stats).unwrap();
            let bound = ues.join(&ues.initial_state(0).unwrap(), 1).unwrap().cardinality();
            assert!(
                bound >= (n_r * mf_s).min(n_s * mf_r) - 1e-9,
                "bound {bound} below the achievable worst case"
            );
        }
    }

    #[test]
    fn range_joins_leave_the_upper_bound_at_the_cross_product() {
        // A pure inequality join has no equality edge. The worst data
        // (every left value below every right value) realizes the full
        // cross product, so any tighter bound would be unsound.
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(10.0, vec![ColumnStatistics::with_domain(10.0, 0.0, 9.0)]),
            TableStatistics::new(20.0, vec![ColumnStatistics::with_domain(20.0, 0.0, 19.0)]),
        ]);
        let preds = vec![Predicate::join_range(c(0, 0), CmpOp::Lt, c(1, 0)).unwrap()];
        let ues = UpperBoundEstimator::new(&preds, &stats).unwrap();
        let s = ues.join(&ues.initial_state(0).unwrap(), 1).unwrap();
        assert_eq!(s.cardinality(), 200.0);
        // The Simpli-Squared baseline stays at the largest member, and the
        // range predicate survives into the exposed predicate set for the
        // physical plan to evaluate.
        let simpli = NoEstimatesEstimator::new(&preds, &stats).unwrap();
        let s = simpli.join(&simpli.initial_state(0).unwrap(), 1).unwrap();
        assert_eq!(s.cardinality(), 20.0);
        assert!(simpli.predicates().iter().any(|p| matches!(p, Predicate::JoinRange { .. })));
    }

    #[test]
    fn no_estimates_plans_every_set_at_its_largest_member() {
        let (stats, preds) = section8();
        let simpli = NoEstimatesEstimator::new(&preds, &stats).unwrap();
        let sizes = simpli.estimate_order(&[0, 1, 2, 3]).unwrap();
        assert_eq!(sizes, vec![10_000.0, 50_000.0, 100_000.0]);
        let a = simpli.join(&simpli.initial_state(3).unwrap(), 0).unwrap();
        assert_eq!(a.cardinality(), 100_000.0);
        let b = simpli.initial_state(1).unwrap();
        assert_eq!(simpli.join_sets(&a, &b).unwrap().cardinality(), 100_000.0);
    }

    #[test]
    fn alternative_estimators_reject_invalid_steps() {
        let (stats, preds) = section8();
        let ues = UpperBoundEstimator::new(&preds, &stats).unwrap();
        let simpli = NoEstimatesEstimator::new(&preds, &stats).unwrap();
        for est in [&ues as &dyn CardinalityEstimator, &simpli] {
            let s = est.initial_state(0).unwrap();
            assert!(matches!(
                est.join(&s, 0),
                Err(ElsError::InvalidJoinStep { reason: "table already joined", .. })
            ));
            for bad in [4usize, MAX_TABLES, usize::MAX] {
                assert!(est.initial_state(bad).is_err());
                assert!(est.join(&s, bad).is_err());
                assert!(est.effective_cardinality(bad).is_err());
            }
            let overlap = est.join_sets(&s, &s);
            assert!(matches!(
                overlap,
                Err(ElsError::InvalidJoinStep { reason: "join sides overlap", .. })
            ));
        }
    }

    #[test]
    fn alternative_estimators_expose_the_closed_predicate_set() {
        // Closure derives filters for every chained table (6 join + 4
        // local predicates on Section 8), so the physical plans built
        // over these estimators evaluate the same predicates as ELS's.
        let (stats, preds) = section8();
        let ues = UpperBoundEstimator::new(&preds, &stats).unwrap();
        assert_eq!(ues.predicates().len(), 10);
        let simpli = NoEstimatesEstimator::new(&preds, &stats).unwrap();
        assert_eq!(simpli.predicates().len(), 10);
    }

    #[test]
    fn construction_validates_stats_and_predicates() {
        let stats = QueryStatistics::new(vec![TableStatistics::new(-1.0, vec![])]);
        assert!(UpperBoundEstimator::new(&[], &stats).is_err());
        assert!(NoEstimatesEstimator::new(&[], &stats).is_err());
        let stats = QueryStatistics::new(vec![TableStatistics::new(10.0, vec![])]);
        let preds = vec![Predicate::col_eq(c(0, 0), c(5, 0)).unwrap()];
        assert!(UpperBoundEstimator::new(&preds, &stats).is_err());
    }
}
