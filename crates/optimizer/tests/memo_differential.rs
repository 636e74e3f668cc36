//! The DP asks an order-independent estimator once per table subset, and
//! any other once per candidate. The two paths must agree to the bit: the
//! same tree, join order, sizes and cost, whether or not the estimator
//! declares itself — as they must for a wrapper that does not forward
//! `order_independent` (the benchmark's counting estimator is one), which
//! takes the per-candidate path over the same estimates.
//!
//! Every plan either path returns must also carry its own annotations: its
//! nodes in post-order, each with the estimate a re-walk of the tree
//! computes ([`node_sizes`]) to the bit, the root with the plan's cost.

#[path = "support/corpus.rs"]
mod corpus;
#[path = "support/node_sizes.rs"]
mod node_sizes;
#[path = "support/random_graph.rs"]
mod random_graph;

use els_core::{
    CardinalityEstimator, Els, ElsOptions, ElsResult, JoinState, NoEstimatesEstimator, Predicate,
    TableId, UpperBoundEstimator,
};
use els_exec::{JoinMethod, PlanNode};
use els_optimizer::enumerate::{enumerate, EnumerationResult};
use els_optimizer::{CostParams, TableProfile, TreeShape};
use node_sizes::node_sizes;
use proptest::prelude::*;

/// Forwards every call but `order_independent`, which keeps its default.
#[derive(Debug)]
struct Undeclared<'a>(&'a dyn CardinalityEstimator);

impl CardinalityEstimator for Undeclared<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn num_tables(&self) -> usize {
        self.0.num_tables()
    }
    fn predicates(&self) -> &[Predicate] {
        self.0.predicates()
    }
    fn effective_cardinality(&self, table: TableId) -> ElsResult<f64> {
        self.0.effective_cardinality(table)
    }
    fn original_cardinality(&self, table: TableId) -> ElsResult<f64> {
        self.0.original_cardinality(table)
    }
    fn initial_state(&self, table: TableId) -> ElsResult<JoinState> {
        self.0.initial_state(table)
    }
    fn join(&self, state: &JoinState, table: TableId) -> ElsResult<JoinState> {
        self.0.join(state, table)
    }
    fn join_sets(&self, a: &JoinState, b: &JoinState) -> ElsResult<JoinState> {
        self.0.join_sets(a, b)
    }
}

/// What must not differ between the two paths, bits for the numbers.
fn outcome(r: &EnumerationResult) -> (String, Vec<usize>, Vec<u64>, u64) {
    let sizes = r.estimated_sizes.iter().map(|s| s.to_bits()).collect();
    (r.root.explain(), r.join_order.clone(), sizes, r.estimated_cost.to_bits())
}

/// `r`'s annotations are `r.root`'s nodes in post-order: each node with
/// the tables, method and input positions (so inputs come first) the
/// reference walk finds there, and its annotation with the walk's rows, to
/// the bit. `estimated_sizes` holds the joins'
/// rows, `estimated_cost` is the root's cost, and a left-deep plan's sizes
/// are `estimate_order`'s.
fn annotations_hold(
    r: &EnumerationResult,
    est: &dyn CardinalityEstimator,
) -> Result<(), TestCaseError> {
    let mut reference = Vec::new();
    node_sizes(est, &r.root, r.root.root().unwrap(), false, &mut reference).unwrap();
    let join = |node: &PlanNode| match node {
        PlanNode::Join { method, left, right, .. } => Some((*method, *left, *right)),
        PlanNode::Scan { .. } => None,
    };
    let nodes = r.root.nodes().iter().zip(&r.annotations).enumerate();
    let got: Vec<_> =
        nodes.clone().map(|(at, (n, a))| (r.root.tables(at), join(n), a.rows.to_bits())).collect();
    let want: Vec<_> = reference.iter().map(|&(t, join, rows)| (t, join, rows.to_bits())).collect();
    prop_assert_eq!(got, want);
    let joins: Vec<f64> =
        nodes.filter(|(_, (n, _))| join(n).is_some()).map(|(_, (_, a))| a.rows).collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&joins), bits(&r.estimated_sizes));
    prop_assert_eq!(
        r.annotations.last().map(|a| a.cost.to_bits()),
        Some(r.estimated_cost.to_bits())
    );
    let scan = |at: usize| join(&r.root.nodes()[at]).is_none();
    if r.root.nodes().iter().all(|n| join(n).is_none_or(|(_, _, right)| scan(right))) {
        prop_assert_eq!(bits(&est.estimate_order(&r.join_order).unwrap()), bits(&joins));
    }
    Ok(())
}

/// Plan `est` directly and through [`Undeclared`] in both tree shapes;
/// returns how many of the plans took the per-subset path. Both plans'
/// annotations must hold.
fn plan_both_ways(
    query: &str,
    est: &dyn CardinalityEstimator,
    profiles: &[TableProfile],
    methods: &[JoinMethod],
) -> Result<usize, TestCaseError> {
    let params = CostParams::default();
    let mut declared = 0;
    for shape in [TreeShape::LeftDeep, TreeShape::Bushy] {
        let memo = enumerate(est, profiles, methods, &params, shape).unwrap();
        let per_candidate = enumerate(&Undeclared(est), profiles, methods, &params, shape).unwrap();
        annotations_hold(&memo, est)?;
        annotations_hold(&per_candidate, est)?;
        prop_assert_eq!(
            outcome(&memo),
            outcome(&per_candidate),
            "{} {} {:?}",
            query,
            est.name(),
            shape
        );
        declared += usize::from(est.order_independent());
    }
    Ok(declared)
}

#[test]
fn the_golden_corpus_plans_the_same_either_way() {
    let mut declared = 0;
    for q in corpus::corpus() {
        let profiles: Vec<TableProfile> =
            q.stats.tables.iter().map(|t| TableProfile::synthetic(t.cardinality, 16)).collect();
        for (_, est) in corpus::estimators(&q) {
            for (_, methods) in corpus::METHOD_SETS {
                declared += plan_both_ways(q.name, est.as_ref(), &profiles, methods).unwrap();
            }
        }
    }
    // Six queries × three declared estimators (els, upper_bound,
    // no_estimates) × three method sets × two shapes.
    assert_eq!(declared, 6 * 3 * 3 * 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_graphs_plan_the_same_either_way(seed in 0u64..u64::MAX, n in 2usize..=7) {
        let q = random_graph::random_query(seed, n);
        let estimators: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(Els::prepare(&q.predicates, &q.stats, &ElsOptions::algorithm_els()).unwrap()),
            Box::new(UpperBoundEstimator::new(&q.predicates, &q.stats).unwrap()),
            Box::new(NoEstimatesEstimator::new(&q.predicates, &q.stats).unwrap()),
        ];
        let methods = [
            JoinMethod::NestedLoop,
            JoinMethod::SortMerge,
            JoinMethod::Hash,
            JoinMethod::IndexNestedLoop,
        ];
        for est in &estimators {
            plan_both_ways(&format!("seed {seed}, n {n}"), est.as_ref(), &q.profiles, &methods)?;
        }
    }
}
