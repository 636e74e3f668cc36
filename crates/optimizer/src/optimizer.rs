//! The optimizer front door.

use std::sync::Arc;

use els_catalog::{Catalog, FeedbackMode};
use els_core::{
    CardinalityEstimator, CorrectionSource, Els, ElsOptions, NoCorrections, NoEstimatesEstimator,
    Predicate, QueryStatistics, UpperBoundEstimator,
};
use els_exec::plan::PlanOutput;
use els_exec::{JoinMethod, QueryPlan};
use els_sql::{BoundProjection, BoundQuery};
use els_storage::Table;

use crate::cost::CostParams;
use crate::enumerate::{enumerate, Annotation, TreeShape};
use crate::error::{OptimizerError, OptimizerResult};
use crate::profile::TableProfile;

/// The four estimation configurations of the paper's Section 8 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorPreset {
    /// Algorithm SM on the original query (no predicate transitive
    /// closure) — the paper's first row.
    SmNoPtc,
    /// Algorithm SM after predicate transitive closure — second row.
    Sm,
    /// Algorithm SSS after predicate transitive closure — third row.
    Sss,
    /// Algorithm ELS (closure is integral to it) — fourth row.
    Els,
}

impl EstimatorPreset {
    /// The label used in the paper's experiment table.
    pub fn label(self) -> &'static str {
        match self {
            EstimatorPreset::SmNoPtc => "Orig. SM",
            EstimatorPreset::Sm => "Orig.+PTC SM",
            EstimatorPreset::Sss => "Orig.+PTC SSS",
            EstimatorPreset::Els => "Orig. ELS",
        }
    }

    /// The estimation-core options this preset denotes.
    pub(crate) fn els_options(self) -> ElsOptions {
        match self {
            EstimatorPreset::SmNoPtc => ElsOptions::algorithm_sm().with_closure(false),
            EstimatorPreset::Sm => ElsOptions::algorithm_sm(),
            EstimatorPreset::Sss => ElsOptions::algorithm_sss(),
            EstimatorPreset::Els => ElsOptions::algorithm_els(),
        }
    }

    /// All four presets, in the paper's row order.
    pub fn all() -> [EstimatorPreset; 4] {
        [EstimatorPreset::SmNoPtc, EstimatorPreset::Sm, EstimatorPreset::Sss, EstimatorPreset::Els]
    }
}

/// Which cardinality estimator drives join enumeration.
///
/// Every strategy still prepares the paper's [`Els`] estimator alongside
/// (EXPLAIN, accuracy reporting and feedback harvesting are defined
/// against it); the strategy picks whose numbers the dynamic program
/// *plans* with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EstimatorStrategy {
    /// The configured [`ElsOptions`] pipeline (Algorithm ELS by default;
    /// rule M / SS / representative and the standard pre-processing are
    /// selected through [`OptimizerOptions::els`]).
    #[default]
    Els,
    /// The UES-style sketch bound ([`UpperBoundEstimator`]): plan against
    /// guaranteed upper bounds built from max join-column frequencies.
    UpperBound,
    /// The Simpli-Squared baseline ([`NoEstimatesEstimator`]): no
    /// statistics, joins assumed never to expand.
    NoEstimates,
}

/// Optimizer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerOptions {
    /// Estimation-core configuration (rule, pre-processing, closure).
    pub els: ElsOptions,
    /// Which estimator's numbers the join enumerator plans with.
    pub strategy: EstimatorStrategy,
    /// Join methods the enumerator may choose from. The paper's experiment
    /// enabled Nested Loops and Sort Merge.
    pub join_methods: Vec<JoinMethod>,
    /// Cost-model constants.
    pub cost: CostParams,
    /// Join-tree space to enumerate (left-deep by default, as in System R
    /// and the paper's experiment).
    pub tree_shape: TreeShape,
    /// Runtime-feedback policy: whether executions are harvested into the
    /// catalog's [`els_catalog::FeedbackStore`] and whether the estimator
    /// consults published corrections. `Off` reproduces the paper exactly.
    pub feedback: FeedbackMode,
    /// Plan-cache lane. Does not shape plans, but *is* folded into
    /// [`Self::config_fingerprint`] (via the Debug rendering), so two
    /// configurations differing only in lane never share cache entries.
    /// Multi-tenant servers give each tenant its own lane so one tenant
    /// can never replay another's cached plans even on a shared cache.
    pub lane: u64,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            els: ElsOptions::default(),
            strategy: EstimatorStrategy::default(),
            join_methods: vec![JoinMethod::NestedLoop, JoinMethod::SortMerge],
            cost: CostParams::default(),
            tree_shape: TreeShape::LeftDeep,
            feedback: FeedbackMode::Off,
            lane: 0,
        }
    }
}

impl OptimizerOptions {
    /// Options for one of the paper's presets.
    pub fn preset(preset: EstimatorPreset) -> Self {
        OptimizerOptions { els: preset.els_options(), ..OptimizerOptions::default() }
    }

    /// Enable hash joins too (used by the extended experiments).
    #[must_use]
    pub fn with_hash_join(mut self) -> Self {
        if !self.join_methods.contains(&JoinMethod::Hash) {
            self.join_methods.push(JoinMethod::Hash);
        }
        self
    }

    /// Explore bushy join trees instead of left-deep only.
    #[must_use]
    pub fn with_bushy_trees(mut self) -> Self {
        self.tree_shape = TreeShape::Bushy;
        self
    }

    /// Enable indexed nested loops (a sorted index on the inner's join
    /// key). Used by the access-method ablation (experiment F6).
    #[must_use]
    pub fn with_index_nested_loop(mut self) -> Self {
        if !self.join_methods.contains(&JoinMethod::IndexNestedLoop) {
            self.join_methods.push(JoinMethod::IndexNestedLoop);
        }
        self
    }

    /// Set the runtime-feedback policy (default [`FeedbackMode::Off`]).
    #[must_use]
    pub fn with_feedback(mut self, mode: FeedbackMode) -> Self {
        self.feedback = mode;
        self
    }

    /// Plan with a different estimator (default [`EstimatorStrategy::Els`]).
    #[must_use]
    pub fn with_strategy(mut self, strategy: EstimatorStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// A fingerprint of every plan-shaping knob in this configuration:
    /// two option sets produce the same fingerprint iff switching between
    /// them could never change the chosen plan or its estimates. Plan
    /// caches must fold this into their keys — the same SQL text under a
    /// different estimator, rule or feedback mode is a different plan.
    /// Process-local (the hash is not stable across runs); never persist
    /// it.
    pub fn config_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // Every field of the struct shapes plans (estimator choice, rule,
        // closure, join methods, cost constants, tree shape, feedback), so
        // the Debug rendering of the whole value is the honest key.
        format!("{self:?}").hash(&mut h);
        h.finish()
    }
}

/// The non-ELS estimator that planned a query, retained for EXPLAIN-style
/// inspection (the ELS pipeline is always kept alongside in
/// [`OptimizedQuery::els`]).
#[derive(Debug, Clone)]
pub(crate) enum AltEstimator {
    UpperBound(UpperBoundEstimator),
    NoEstimates(NoEstimatesEstimator),
}

/// The result of optimization: an executable plan plus everything the paper
/// reports about it.
#[derive(Debug, Clone)]
pub struct OptimizedQuery {
    /// The executable physical plan.
    pub plan: QueryPlan,
    /// The chosen join order (table positions in the `FROM` list).
    pub join_order: Vec<usize>,
    /// Estimated intermediate result sizes along that order (per the
    /// planning estimator, i.e. [`Self::estimator`]): the join
    /// annotations' rows.
    pub estimated_sizes: Vec<f64>,
    /// Total estimated cost in page units: the root annotation's cost.
    pub estimated_cost: f64,
    /// The plan's nodes as the optimizer estimated and priced them, in the
    /// executor's post-order ([`crate::EnumerationResult::annotations`]).
    pub annotations: Vec<Annotation>,
    /// The prepared ELS estimator (for EXPLAIN-style inspection and
    /// feedback harvesting) — prepared even when another strategy planned
    /// the query.
    pub els: Els,
    /// The alternative estimator that planned the query, when the
    /// strategy was not [`EstimatorStrategy::Els`].
    pub(crate) alt: Option<AltEstimator>,
    /// Published feedback corrections folded into this plan's estimates
    /// (0 unless the optimizer ran under [`FeedbackMode::Apply`]).
    pub corrections_applied: u64,
}

impl OptimizedQuery {
    /// The estimator whose numbers chose this plan.
    pub fn estimator(&self) -> &dyn CardinalityEstimator {
        match &self.alt {
            Some(AltEstimator::UpperBound(e)) => e,
            Some(AltEstimator::NoEstimates(e)) => e,
            None => &self.els,
        }
    }

    /// The strategy that planned this query.
    pub fn strategy(&self) -> EstimatorStrategy {
        match &self.alt {
            Some(AltEstimator::UpperBound(_)) => EstimatorStrategy::UpperBound,
            Some(AltEstimator::NoEstimates(_)) => EstimatorStrategy::NoEstimates,
            None => EstimatorStrategy::Els,
        }
    }
}

/// Optimize from raw parts: predicates + statistics + physical profiles.
/// `output` is what the plan should return.
pub fn optimize(
    predicates: &[Predicate],
    stats: &QueryStatistics,
    profiles: &[TableProfile],
    output: PlanOutput,
    options: &OptimizerOptions,
) -> OptimizerResult<OptimizedQuery> {
    let oracle = &els_core::selectivity::NoOracle;
    optimize_full(predicates, stats, profiles, output, options, oracle, &NoCorrections)
}

/// [`optimize`] with a selectivity oracle (histograms) for local predicates
/// and a runtime-feedback correction source whose published factors are
/// multiplied into selectivities before clamping. Pass [`NoCorrections`]
/// to reproduce the uncorrected estimates exactly.
pub fn optimize_full(
    predicates: &[Predicate],
    stats: &QueryStatistics,
    profiles: &[TableProfile],
    output: PlanOutput,
    options: &OptimizerOptions,
    oracle: &dyn els_core::selectivity::SelectivityOracle,
    corrections: &dyn CorrectionSource,
) -> OptimizerResult<OptimizedQuery> {
    if stats.num_tables() != profiles.len() {
        return Err(OptimizerError::Unsupported(format!(
            "statistics describe {} tables but {} profiles were supplied",
            stats.num_tables(),
            profiles.len()
        )));
    }
    let els = Els::prepare_full(predicates, stats, &options.els, oracle, corrections)?;
    let alt = match options.strategy {
        EstimatorStrategy::Els => None,
        EstimatorStrategy::UpperBound => {
            Some(AltEstimator::UpperBound(UpperBoundEstimator::new(predicates, stats)?))
        }
        EstimatorStrategy::NoEstimates => {
            Some(AltEstimator::NoEstimates(NoEstimatesEstimator::new(predicates, stats)?))
        }
    };
    let estimator: &dyn CardinalityEstimator = match &alt {
        Some(AltEstimator::UpperBound(e)) => e,
        Some(AltEstimator::NoEstimates(e)) => e,
        None => &els,
    };
    let result =
        enumerate(estimator, profiles, &options.join_methods, &options.cost, options.tree_shape)?;
    Ok(OptimizedQuery {
        plan: QueryPlan::new(result.root, output),
        join_order: result.join_order,
        estimated_sizes: result.estimated_sizes,
        estimated_cost: result.estimated_cost,
        annotations: result.annotations,
        els,
        alt,
        corrections_applied: 0,
    })
}

/// Optimize a bound SQL query against a catalog (statistics, histograms and
/// physical profiles all come from the catalog).
pub fn optimize_bound(
    query: &BoundQuery,
    catalog: &Catalog,
    options: &OptimizerOptions,
) -> OptimizerResult<OptimizedQuery> {
    let from: Vec<&str> = query.table_names.iter().map(String::as_str).collect();
    let stats = catalog.query_statistics(&from)?;
    let profiles = from
        .iter()
        .map(|name| Ok(TableProfile::of(catalog.table_data(name)?.as_ref())))
        .collect::<OptimizerResult<Vec<_>>>()?;
    let oracle = catalog.oracle(&from)?;
    let output = match &query.projection {
        BoundProjection::CountStar => PlanOutput::CountStar,
        BoundProjection::Star => PlanOutput::Star,
        BoundProjection::Columns(cols) => PlanOutput::Columns(cols.clone()),
        BoundProjection::GroupCount(cols) => PlanOutput::GroupCount(cols.clone()),
    };
    let corrections =
        if options.feedback.applies() { Some(catalog.corrections(&from)?) } else { None };
    let source: &dyn CorrectionSource = match &corrections {
        Some(published) => published,
        None => &NoCorrections,
    };
    let mut optimized =
        optimize_full(&query.predicates, &stats, &profiles, output, options, &oracle, source)?;
    optimized.corrections_applied = corrections.map_or(0, |c| c.applied());
    optimized.plan.order_by = query.order_by.clone();
    optimized.plan.limit = query.limit;
    Ok(optimized)
}

/// Fetch the `FROM`-list table data for executing an optimized bound query.
pub fn bound_query_tables(
    query: &BoundQuery,
    catalog: &Catalog,
) -> OptimizerResult<Vec<Arc<Table>>> {
    query
        .table_names
        .iter()
        .map(|name| catalog.table_data(name).map_err(OptimizerError::from))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_catalog::collect::CollectOptions;
    use els_exec::{execute_plan_with, ExecMode};
    use els_sql::{bind, parse};
    use els_storage::datagen::starburst_experiment_tables;

    fn section8_catalog() -> Catalog {
        let mut c = Catalog::new();
        for t in starburst_experiment_tables(42) {
            c.register(t, &CollectOptions::default()).unwrap();
        }
        c
    }

    const SQL: &str = "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100";

    #[test]
    fn presets_have_labels_and_options() {
        for p in EstimatorPreset::all() {
            assert!(!p.label().is_empty());
        }
        assert!(!EstimatorPreset::SmNoPtc.els_options().apply_closure);
        assert!(EstimatorPreset::Els.els_options().apply_closure);
    }

    #[test]
    fn every_preset_produces_a_correct_executable_plan() {
        // Whatever the estimator believes, the chosen plan must compute the
        // true answer (100 rows survive every join).
        let catalog = section8_catalog();
        let bound = bind(&parse(SQL).unwrap(), &catalog).unwrap();
        let tables = bound_query_tables(&bound, &catalog).unwrap();
        for preset in EstimatorPreset::all() {
            let optimized =
                optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset)).unwrap();
            let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
            assert_eq!(out.count, 100, "{} got {}", preset.label(), out.count);
        }
    }

    #[test]
    fn els_estimates_100_and_sm_collapses() {
        let catalog = section8_catalog();
        let bound = bind(&parse(SQL).unwrap(), &catalog).unwrap();
        let els = optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Els))
            .unwrap();
        for s in &els.estimated_sizes {
            assert!((s - 100.0).abs() < 1e-6, "{:?}", els.estimated_sizes);
        }
        let sm = optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Sm))
            .unwrap();
        assert!(sm.estimated_sizes.last().unwrap() < &1e-3, "{:?}", sm.estimated_sizes);
    }

    #[test]
    fn els_plan_is_much_cheaper_at_runtime_than_sm_plan() {
        // The headline result: the misled plan does at least an order of
        // magnitude more simulated I/O.
        let catalog = section8_catalog();
        let bound = bind(&parse(SQL).unwrap(), &catalog).unwrap();
        let tables = bound_query_tables(&bound, &catalog).unwrap();
        let run = |preset| {
            let optimized =
                optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset)).unwrap();
            execute_plan_with(&optimized.plan, &tables, ExecMode::default())
                .unwrap()
                .metrics
                .pages_read
        };
        let sm_pages = run(EstimatorPreset::Sm);
        let els_pages = run(EstimatorPreset::Els);
        assert!(
            sm_pages >= 10 * els_pages,
            "expected >=10x page gap, got SM={sm_pages} ELS={els_pages}"
        );
    }

    #[test]
    fn ptc_enables_early_selection() {
        // Row 1 vs row 2 of the paper's table: closure derives the filters
        // m < 100, b < 100, g < 100, so scans of M, B, G become selective
        // and join inputs shrink by orders of magnitude. Without PTC the
        // plan must push full tables through its joins (the paper's row 1
        // paid 610s for that); with PTC every join input is ~100 tuples.
        let catalog = section8_catalog();
        let bound = bind(&parse(SQL).unwrap(), &catalog).unwrap();
        let tables = bound_query_tables(&bound, &catalog).unwrap();
        let run = |preset| {
            let optimized =
                optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset)).unwrap();
            let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
            assert_eq!(out.count, 100);
            (optimized, out.metrics)
        };
        let (no_ptc_plan, no_ptc) = run(EstimatorPreset::SmNoPtc);
        let (with_ptc_plan, _) = run(EstimatorPreset::Sm);
        // Without closure only S carries a filter.
        let count_filters = |plan: &els_exec::Plan| {
            let filters = |node: &els_exec::PlanNode| match node {
                els_exec::PlanNode::Scan { filters, .. } => filters.len(),
                els_exec::PlanNode::Join { .. } => 0,
            };
            plan.nodes().iter().map(filters).sum::<usize>()
        };
        assert_eq!(count_filters(&no_ptc_plan.plan.root), 1);
        assert_eq!(count_filters(&with_ptc_plan.plan.root), 4);
        // The closure-free plan really does push big tables through joins:
        // its sort inputs alone dwarf the whole filtered workload.
        assert!(
            no_ptc.rows_sorted > 100_000,
            "expected full-table sort inputs without PTC, got {}",
            no_ptc.rows_sorted
        );
    }

    #[test]
    fn profile_stats_shape_mismatch_is_rejected() {
        let catalog = section8_catalog();
        let bound = bind(&parse(SQL).unwrap(), &catalog).unwrap();
        let from: Vec<&str> = bound.table_names.iter().map(String::as_str).collect();
        let stats = catalog.query_statistics(&from).unwrap();
        let err = optimize(
            &bound.predicates,
            &stats,
            &[TableProfile::synthetic(1.0, 8)],
            PlanOutput::CountStar,
            &OptimizerOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, OptimizerError::Unsupported(_)));
    }

    #[test]
    fn hash_join_option_extends_methods() {
        let o = OptimizerOptions::default().with_hash_join();
        assert!(o.join_methods.contains(&JoinMethod::Hash));
        assert_eq!(o.with_hash_join().join_methods.len(), 3);
    }

    #[test]
    fn feedback_apply_with_empty_store_matches_off() {
        // The differential guarantee: Apply with zero observations takes the
        // published-correction path but finds nothing, so every estimate is
        // bit-identical to Off.
        let catalog = section8_catalog();
        let bound = bind(&parse(SQL).unwrap(), &catalog).unwrap();
        for preset in EstimatorPreset::all() {
            let off = OptimizerOptions::preset(preset);
            let apply = OptimizerOptions::preset(preset).with_feedback(FeedbackMode::Apply);
            let a = optimize_bound(&bound, &catalog, &off).unwrap();
            let b = optimize_bound(&bound, &catalog, &apply).unwrap();
            assert_eq!(a.join_order, b.join_order, "{}", preset.label());
            assert_eq!(a.estimated_sizes, b.estimated_sizes, "{}", preset.label());
            assert_eq!(a.estimated_cost, b.estimated_cost, "{}", preset.label());
            assert_eq!(b.corrections_applied, 0);
        }
    }

    #[test]
    fn published_corrections_rescale_apply_estimates() {
        use els_catalog::FeedbackKey;
        let catalog = section8_catalog();
        let bound = bind(&parse(SQL).unwrap(), &catalog).unwrap();
        let off = optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Els))
            .unwrap();
        // Teach the store that the filtered S scan returns 4x the estimate;
        // one observation with full first-observation weight publishes it.
        let key = FeedbackKey::scan("S", "c0<100");
        assert!(catalog.feedback().observe(key, 100.0, 400.0, false));
        let apply =
            OptimizerOptions::preset(EstimatorPreset::Els).with_feedback(FeedbackMode::Apply);
        let corrected = optimize_bound(&bound, &catalog, &apply).unwrap();
        assert!(corrected.corrections_applied >= 1);
        let last_off = *off.estimated_sizes.last().unwrap();
        let last_on = *corrected.estimated_sizes.last().unwrap();
        assert!(
            last_on > last_off * 2.0,
            "expected corrected final estimate to grow ~4x: off={last_off} on={last_on}"
        );
    }
}
