//! The end-to-end Algorithm ELS façade (paper, Section 4).
//!
//! [`Els::prepare`] runs the preliminary phase — Steps 1 through 5 — once
//! per query; the returned object then answers incremental estimation
//! requests (Step 6) for any join order, which is exactly how a System-R
//! style dynamic-programming enumerator consumes it.
//!
//! The same entry point also configures the *baseline* algorithms of the
//! paper's experiment:
//!
//! * **Algorithm SM** — [`Preprocessing::Standard`] +
//!   [`SelectivityRule::Multiplicative`];
//! * **Algorithm SSS** — [`Preprocessing::Standard`] +
//!   [`SelectivityRule::SmallestSelectivity`];
//! * **Algorithm ELS** — [`Preprocessing::Els`] +
//!   [`SelectivityRule::LargestSelectivity`] (the default).
//!
//! "Standard" pre-processing reduces table cardinalities by local-predicate
//! selectivities (as System R does) but computes join selectivities from the
//! *unreduced* column cardinalities and ignores the single-table
//! j-equivalence treatment of Section 6 — the two defects Sections 5 and 6
//! of the paper correct.

use std::collections::HashMap;

use crate::closure::transitive_closure;
use crate::correction::{CorrectionSource, NoCorrections};
use crate::equivalence::EquivalenceClasses;
use crate::error::ElsResult;
use crate::estimator::{JoinState, PreparedQuery};
use crate::ids::{ClassId, ColumnRef, TableId};
use crate::join_sel::{annotate_join_predicates_corrected, annotate_range_predicates};
use crate::local_effects::{compute_effective_stats_corrected, DistinctReduction, EffectiveStats};
use crate::predicate::{dedup_predicates, Predicate};
use crate::rules::{RepresentativeStrategy, SelectivityRule};
use crate::same_table::{apply_same_table_equivalences, SameTableAdjustment};
use crate::selectivity::{NoOracle, SelectivityOracle};
use crate::stats::QueryStatistics;

/// Whether Steps 4–5 use the paper's corrections or the standard behaviour
/// of contemporary optimizers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Preprocessing {
    /// Join selectivities from unreduced column cardinalities; no Section 6
    /// treatment. (Table cardinalities are still reduced by local
    /// predicates, as in System R.)
    Standard,
    /// Full ELS: effective column cardinalities (Section 5) and same-table
    /// j-equivalence handling (Section 6).
    #[default]
    Els,
}

/// Configuration of the estimation pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElsOptions {
    /// Selectivity-choice rule for Step 6 (default: LS).
    pub rule: SelectivityRule,
    /// Standard vs ELS pre-processing (default: ELS).
    pub preprocessing: Preprocessing,
    /// Whether Step 2 (predicate transitive closure) runs (default: yes).
    /// The paper's experiment toggles this independently of the rule.
    pub apply_closure: bool,
    /// Distinct-value reduction model for Step 4 (default: urn model).
    pub distinct_reduction: DistinctReduction,
    /// How the per-class representative selectivity is derived when
    /// [`SelectivityRule::Representative`] is in force.
    pub representative: RepresentativeStrategy,
}

impl Default for ElsOptions {
    fn default() -> Self {
        ElsOptions {
            rule: SelectivityRule::LargestSelectivity,
            preprocessing: Preprocessing::Els,
            apply_closure: true,
            distinct_reduction: DistinctReduction::UrnModel,
            representative: RepresentativeStrategy::default(),
        }
    }
}

impl ElsOptions {
    /// The paper's Algorithm SM: standard pre-processing + Rule M.
    pub fn algorithm_sm() -> Self {
        ElsOptions {
            rule: SelectivityRule::Multiplicative,
            preprocessing: Preprocessing::Standard,
            ..ElsOptions::default()
        }
    }

    /// The paper's Algorithm SSS: standard pre-processing + Rule SS.
    pub fn algorithm_sss() -> Self {
        ElsOptions {
            rule: SelectivityRule::SmallestSelectivity,
            preprocessing: Preprocessing::Standard,
            ..ElsOptions::default()
        }
    }

    /// The paper's Algorithm ELS (the default configuration).
    pub fn algorithm_els() -> Self {
        ElsOptions::default()
    }

    /// Replace the selectivity rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: SelectivityRule) -> Self {
        self.rule = rule;
        self
    }

    /// Replace the pre-processing mode.
    #[must_use]
    pub fn with_preprocessing(mut self, p: Preprocessing) -> Self {
        self.preprocessing = p;
        self
    }

    /// Enable or disable predicate transitive closure.
    #[must_use]
    pub fn with_closure(mut self, on: bool) -> Self {
        self.apply_closure = on;
        self
    }

    /// Replace the distinct-reduction model.
    #[must_use]
    pub fn with_distinct_reduction(mut self, r: DistinctReduction) -> Self {
        self.distinct_reduction = r;
        self
    }

    /// Replace the representative-selectivity strategy.
    #[must_use]
    pub fn with_representative(mut self, r: RepresentativeStrategy) -> Self {
        self.representative = r;
        self
    }
}

/// A fully prepared estimation pipeline for one query.
#[derive(Debug, Clone)]
pub struct Els {
    options: ElsOptions,
    predicates: Vec<Predicate>,
    classes: EquivalenceClasses,
    effective: EffectiveStats,
    adjustments: Vec<SameTableAdjustment>,
    prepared: PreparedQuery,
}

impl Els {
    /// Run Steps 1–5 with no distribution statistics (uniformity model for
    /// local predicates).
    pub fn prepare(
        predicates: &[Predicate],
        stats: &QueryStatistics,
        options: &ElsOptions,
    ) -> ElsResult<Els> {
        Els::prepare_with_oracle(predicates, stats, options, &NoOracle)
    }

    /// Run Steps 1–5, consulting `oracle` (e.g. histograms) for
    /// local-predicate selectivities.
    pub fn prepare_with_oracle(
        predicates: &[Predicate],
        stats: &QueryStatistics,
        options: &ElsOptions,
        oracle: &dyn SelectivityOracle,
    ) -> ElsResult<Els> {
        Els::prepare_full(predicates, stats, options, oracle, &NoCorrections)
    }

    /// Run Steps 1–5 with both hooks: `oracle` for distribution
    /// statistics and `corrections` for feedback-learned factors (scan
    /// corrections fold into Step 4's local selectivities, join
    /// corrections into Step 5's Equation 2 values; see
    /// [`crate::correction`]). Passing [`NoCorrections`] makes this
    /// identical to [`Els::prepare_with_oracle`].
    pub fn prepare_full(
        predicates: &[Predicate],
        stats: &QueryStatistics,
        options: &ElsOptions,
        oracle: &dyn SelectivityOracle,
        corrections: &dyn CorrectionSource,
    ) -> ElsResult<Els> {
        // Step 1: deduplicate. Step 2: transitive closure (optional).
        let predicates = if options.apply_closure {
            transitive_closure(predicates)
        } else {
            dedup_predicates(predicates)
        };
        // Equivalence classes over whatever predicate set survives.
        let classes = EquivalenceClasses::from_predicates(&predicates);

        // Steps 3–4: local predicate selectivities and effective statistics.
        let mut effective = compute_effective_stats_corrected(
            &predicates,
            stats,
            oracle,
            options.distinct_reduction,
            corrections,
        )?;

        // Step 5 special case (Section 6), ELS pre-processing only.
        let adjustments = match options.preprocessing {
            Preprocessing::Els => apply_same_table_equivalences(&mut effective, &classes)?,
            Preprocessing::Standard => Vec::new(),
        };

        // Step 5: join selectivities from the appropriate cardinalities.
        let infos = match options.preprocessing {
            Preprocessing::Els => annotate_join_predicates_corrected(
                &predicates,
                &classes,
                |c| effective.distinct(c),
                corrections,
            )?,
            Preprocessing::Standard => annotate_join_predicates_corrected(
                &predicates,
                &classes,
                |c| effective.original_distinct(c),
                corrections,
            )?,
        };

        // Fixed representative per class (only used by Rule REP).
        let mut class_sels: HashMap<ClassId, Vec<f64>> = HashMap::new();
        for i in &infos {
            class_sels.entry(i.class).or_default().push(i.selectivity);
        }
        let reps: HashMap<ClassId, f64> =
            class_sels.into_iter().map(|(k, v)| (k, options.representative.derive(&v))).collect();

        // Inequality join predicates: classless, annotated from histograms
        // (oracle), the uniform-domain model, and feedback corrections.
        let ranges = annotate_range_predicates(&predicates, stats, oracle, corrections)?;

        let table_cardinality = effective.tables.iter().map(|t| t.cardinality).collect();
        let prepared = PreparedQuery::from_parts(table_cardinality, infos, reps, options.rule)
            .with_range_predicates(ranges);
        Ok(Els { options: *options, predicates, classes, effective, adjustments, prepared })
    }

    /// The configured options.
    pub fn options(&self) -> &ElsOptions {
        &self.options
    }

    /// The predicate set after Steps 1–2 (deduplicated; closed under
    /// transitivity when closure is enabled). The executor evaluates exactly
    /// this set.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The j-equivalence classes.
    pub fn classes(&self) -> &EquivalenceClasses {
        &self.classes
    }

    /// Post-Step-4/5 effective statistics.
    pub fn effective_stats(&self) -> &EffectiveStats {
        &self.effective
    }

    /// The Section 6 adjustments that were applied (empty under standard
    /// pre-processing).
    pub fn same_table_adjustments(&self) -> &[SameTableAdjustment] {
        &self.adjustments
    }

    /// The prepared Step 6 estimator.
    pub fn prepared(&self) -> &PreparedQuery {
        &self.prepared
    }

    /// Effective cardinality ‖R‖′ of a base table.
    pub fn effective_cardinality(&self, table: TableId) -> ElsResult<f64> {
        self.prepared.base_cardinality(table)
    }

    /// Effective distinct count of a column as used in join selectivities.
    pub fn join_distinct(&self, column: ColumnRef) -> f64 {
        match self.options.preprocessing {
            Preprocessing::Els => self.effective.distinct(column),
            Preprocessing::Standard => self.effective.original_distinct(column),
        }
    }

    /// Step 6: start a join state from one base table.
    pub fn initial_state(&self, table: TableId) -> ElsResult<JoinState> {
        self.prepared.initial_state(table)
    }

    /// Step 6: extend a join state by one table.
    pub fn join(&self, state: &JoinState, table: TableId) -> ElsResult<JoinState> {
        self.prepared.join(state, table)
    }

    /// Step 6, bushy form: join two disjoint intermediate results.
    pub fn join_sets(&self, a: &JoinState, b: &JoinState) -> ElsResult<JoinState> {
        self.prepared.join_sets(a, b)
    }

    /// Step 6 over a whole join order; returns the size after each step.
    pub fn estimate_order(&self, order: &[TableId]) -> ElsResult<Vec<f64>> {
        self.prepared.estimate_order(order)
    }

    /// Convenience: the final estimated size of joining all tables in the
    /// given order. A single-table order estimates at that table's
    /// effective cardinality; an empty order estimates an empty result.
    pub fn estimate_final(&self, order: &[TableId]) -> ElsResult<f64> {
        if let Some(&last) = self.estimate_order(order)?.last() {
            return Ok(last);
        }
        match order.first() {
            Some(&t) => self.prepared.base_cardinality(t),
            None => Ok(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::stats::{ColumnStatistics, TableStatistics};
    use crate::ElsError;

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
    }

    /// The Section 8 catalog: S/M/B/G with key join columns.
    fn section8() -> (QueryStatistics, Vec<Predicate>) {
        let mk = |rows: f64| {
            TableStatistics::new(rows, vec![ColumnStatistics::with_domain(rows, 0.0, rows - 1.0)])
        };
        let stats =
            QueryStatistics::new(vec![mk(1000.0), mk(10_000.0), mk(50_000.0), mk(100_000.0)]);
        let preds = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(), // s = m
            Predicate::col_eq(c(1, 0), c(2, 0)).unwrap(), // m = b
            Predicate::col_eq(c(2, 0), c(3, 0)).unwrap(), // b = g
            Predicate::local_cmp(c(0, 0), CmpOp::Lt, 100i64), // s < 100
        ];
        (stats, preds)
    }

    #[test]
    fn section8_els_estimates_every_intermediate_as_100() {
        let (stats, preds) = section8();
        let els = Els::prepare(&preds, &stats, &ElsOptions::algorithm_els()).unwrap();
        // The order ELS chose in the paper: B ⋈ G ⋈ M ⋈ S.
        let sizes = els.estimate_order(&[2, 3, 1, 0]).unwrap();
        assert_eq!(sizes, vec![100.0, 100.0, 100.0]);
        // Effective base cardinalities are all 100.
        for t in 0..4 {
            assert_eq!(els.effective_cardinality(t).unwrap(), 100.0);
        }
    }

    #[test]
    fn section8_sm_with_ptc_reproduces_paper_row2() {
        // Rule M with closure, order M ⋈ B ⋈ S ⋈ G:
        // estimates (0.2, 4e-8, 4e-21) — the paper's second row.
        let (stats, preds) = section8();
        let sm = Els::prepare(&preds, &stats, &ElsOptions::algorithm_sm()).unwrap();
        let sizes = sm.estimate_order(&[1, 2, 0, 3]).unwrap();
        assert!((sizes[0] - 0.2).abs() < 1e-12, "got {:?}", sizes);
        assert!((sizes[1] - 4e-8).abs() < 1e-20, "got {:?}", sizes);
        assert!((sizes[2] - 4e-21).abs() < 1e-33, "got {:?}", sizes);
    }

    #[test]
    fn section8_sss_with_ptc_reproduces_paper_row3() {
        // Rule SS with closure, same order: (0.2, 4e-4, 4e-7).
        let (stats, preds) = section8();
        let sss = Els::prepare(&preds, &stats, &ElsOptions::algorithm_sss()).unwrap();
        let sizes = sss.estimate_order(&[1, 2, 0, 3]).unwrap();
        assert!((sizes[0] - 0.2).abs() < 1e-12, "got {:?}", sizes);
        assert!((sizes[1] - 4e-4).abs() < 1e-16, "got {:?}", sizes);
        assert!((sizes[2] - 4e-7).abs() < 1e-19, "got {:?}", sizes);
    }

    #[test]
    fn closure_off_limits_eligible_predicates() {
        let (stats, preds) = section8();
        let opts = ElsOptions::algorithm_sm().with_closure(false);
        let sm = Els::prepare(&preds, &stats, &opts).unwrap();
        // Without closure only s=m, m=b, b=g exist: S ⋈ B has no predicate
        // and is a cartesian product.
        let s = sm.initial_state(0).unwrap();
        let sb = sm.join(&s, 2).unwrap();
        assert_eq!(sb.cardinality(), 100.0 * 50_000.0);
        // And the derived filters m<100 etc. are absent: ||M||' = 10000.
        assert_eq!(sm.effective_cardinality(1).unwrap(), 10_000.0);
    }

    #[test]
    fn closure_on_derives_filters_for_all_tables() {
        let (stats, preds) = section8();
        let els = Els::prepare(&preds, &stats, &ElsOptions::default()).unwrap();
        // 6 join predicates + 4 local filters after closure.
        assert_eq!(els.predicates().len(), 10);
        assert_eq!(els.effective_cardinality(3).unwrap(), 100.0);
    }

    #[test]
    fn standard_mode_uses_unreduced_distincts() {
        let (stats, preds) = section8();
        let sm = Els::prepare(&preds, &stats, &ElsOptions::algorithm_sm()).unwrap();
        assert_eq!(sm.join_distinct(c(0, 0)), 1000.0);
        let els = Els::prepare(&preds, &stats, &ElsOptions::default()).unwrap();
        assert_eq!(els.join_distinct(c(0, 0)), 100.0);
    }

    #[test]
    fn section6_adjustments_only_under_els() {
        let stats = QueryStatistics::new(vec![
            TableStatistics::new(100.0, vec![ColumnStatistics::with_distinct(100.0)]),
            TableStatistics::new(
                1000.0,
                vec![ColumnStatistics::with_distinct(10.0), ColumnStatistics::with_distinct(50.0)],
            ),
        ]);
        let preds = vec![
            Predicate::col_eq(c(0, 0), c(1, 0)).unwrap(),
            Predicate::col_eq(c(0, 0), c(1, 1)).unwrap(),
        ];
        let els = Els::prepare(&preds, &stats, &ElsOptions::default()).unwrap();
        assert_eq!(els.same_table_adjustments().len(), 1);
        assert_eq!(els.effective_cardinality(1).unwrap(), 20.0);
        let std = Els::prepare(&preds, &stats, &ElsOptions::algorithm_sm()).unwrap();
        assert!(std.same_table_adjustments().is_empty());
        assert_eq!(std.effective_cardinality(1).unwrap(), 1000.0);
    }

    #[test]
    fn estimate_final_handles_single_table_orders() {
        let (stats, preds) = section8();
        let els = Els::prepare(&preds, &stats, &ElsOptions::default()).unwrap();
        assert_eq!(els.estimate_final(&[0]).unwrap(), 100.0);
        assert_eq!(els.estimate_final(&[]).unwrap(), 0.0);
    }

    #[test]
    fn options_builders_compose() {
        let o = ElsOptions::default()
            .with_rule(SelectivityRule::SmallestSelectivity)
            .with_preprocessing(Preprocessing::Standard)
            .with_closure(false)
            .with_distinct_reduction(DistinctReduction::Proportional)
            .with_representative(RepresentativeStrategy::GeometricMean);
        assert_eq!(o.rule, SelectivityRule::SmallestSelectivity);
        assert_eq!(o.preprocessing, Preprocessing::Standard);
        assert!(!o.apply_closure);
        assert_eq!(o.distinct_reduction, DistinctReduction::Proportional);
        assert_eq!(o.representative, RepresentativeStrategy::GeometricMean);
    }

    /// Regression: degenerate table ids through the `Els` facade surface as
    /// `InvalidJoinStep`, never as an indexing or shift-overflow panic.
    #[test]
    fn facade_rejects_out_of_range_tables_with_typed_errors() {
        let (stats, preds) = section8();
        let els = Els::prepare(&preds, &stats, &ElsOptions::default()).unwrap();
        let s = els.initial_state(0).unwrap();
        for bad in [stats.num_tables(), 64, usize::MAX] {
            assert!(
                matches!(els.effective_cardinality(bad), Err(ElsError::UnknownTable(t)) if t == bad)
            );
            assert!(els.initial_state(bad).is_err());
            assert!(els.join(&s, bad).is_err());
            assert!(els.estimate_order(&[0, bad]).is_err());
            assert!(els.estimate_final(&[bad]).is_err());
        }
    }
}
