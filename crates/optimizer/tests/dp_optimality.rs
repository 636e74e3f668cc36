//! The DP against references that share no code with its adjacency masks,
//! method-applicability match or back-pointer table, on random join graphs
//! (equality edges over two columns per table, inequality edges, local
//! predicates):
//!
//! * the left-deep DP's cost must equal the cheapest of all `n!` join
//!   orders, each priced step by step here with the public [`CostParams`]
//!   functions and the public `join_keys` / `range_keys`;
//! * in either tree shape, the returned operator tree, re-priced node by
//!   node, must cost exactly what the DP reports — which fails if a
//!   back-pointer ever leads to a different subplan than the one the
//!   candidate was charged for.

#[path = "support/random_graph.rs"]
mod random_graph;

use els_core::JoinState;
use els_core::{CardinalityEstimator, Els, ElsOptions, NoEstimatesEstimator, UpperBoundEstimator};
use els_exec::{JoinMethod, PlanNode};
use els_optimizer::enumerate::{enumerate, join_keys, range_keys};
use els_optimizer::{CostParams, TableProfile, TreeShape};
use proptest::prelude::*;
use random_graph::random_query;

const METHODS: [JoinMethod; 4] =
    [JoinMethod::NestedLoop, JoinMethod::SortMerge, JoinMethod::Hash, JoinMethod::IndexNestedLoop];

/// Cost of one left-deep order: the first table's scan, then per step the
/// cheapest method that can run it.
fn order_cost(
    est: &dyn CardinalityEstimator,
    profiles: &[TableProfile],
    params: &CostParams,
    order: &[usize],
) -> f64 {
    let mut state = est.initial_state(order[0]).unwrap();
    let mut total = params.scan(&profiles[order[0]]);
    for &t in &order[1..] {
        let mask = state.table_mask();
        let has_keys = !join_keys(est.predicates(), mask, t).is_empty();
        let band = !has_keys && !range_keys(est.predicates(), mask, t).is_empty();
        let next = est.join(&state, t).unwrap();
        let (outer, inner, out) =
            (state.cardinality(), est.effective_cardinality(t).unwrap(), next.cardinality());
        let emit = if band { outer * inner } else { out };
        let p = &profiles[t];
        let mut costs = vec![
            params.nested_loop(outer, p),
            params.sort_merge(outer, p, inner, emit),
            params.hash(outer, p, inner, emit),
        ];
        if has_keys {
            costs.push(params.index_nested_loop(outer, p, emit));
        }
        if band {
            costs.push(params.range_join(outer, p, inner, out));
        }
        total += costs.into_iter().fold(f64::INFINITY, f64::min);
        state = next;
    }
    total
}

/// Re-price an operator tree bottom-up: `(state, cost, tuple width)`.
fn tree_cost(
    est: &dyn CardinalityEstimator,
    profiles: &[TableProfile],
    params: &CostParams,
    node: &PlanNode,
) -> (JoinState, f64, usize) {
    let (method, left, right, keys, ranges) = match node {
        PlanNode::Scan { table_id, .. } => {
            let p = &profiles[*table_id];
            return (est.initial_state(*table_id).unwrap(), params.scan(p), p.row_bytes);
        }
        PlanNode::Join { method, left, right, keys, ranges } => {
            (*method, left, right, keys, ranges)
        }
    };
    let (outer_state, outer_cost, outer_width) = tree_cost(est, profiles, params, left);
    let (inner_state, inner_cost, inner_width) = tree_cost(est, profiles, params, right);
    let state = est.join_sets(&outer_state, &inner_state).unwrap();
    let (outer, inner, out) =
        (outer_state.cardinality(), inner_state.cardinality(), state.cardinality());
    let band = keys.is_empty() && !ranges.is_empty();
    let emit = if band { outer * inner } else { out };
    assert!(band || method != JoinMethod::Range, "band join chosen without a lone range edge");
    let join_cost = if let PlanNode::Scan { table_id, .. } = right.as_ref() {
        // A base inner is scanned inside the join's own formula.
        let p = &profiles[*table_id];
        let join = match method {
            JoinMethod::NestedLoop => params.nested_loop(outer, p),
            JoinMethod::SortMerge => params.sort_merge(outer, p, inner, emit),
            JoinMethod::Hash => params.hash(outer, p, inner, emit),
            JoinMethod::IndexNestedLoop => {
                assert!(!keys.is_empty(), "index nested loops chosen without a key");
                params.index_nested_loop(outer, p, emit)
            }
            JoinMethod::Range => params.range_join(outer, p, inner, out),
        };
        outer_cost + join
    } else {
        let join = match method {
            JoinMethod::NestedLoop => params.nested_loop_intermediate(outer, inner, inner_width),
            JoinMethod::SortMerge => params.sort_merge_intermediate(outer, inner, emit),
            JoinMethod::Hash => params.hash_intermediate(outer, inner, emit),
            JoinMethod::Range => params.range_join_intermediate(outer, inner, out),
            JoinMethod::IndexNestedLoop => panic!("index nested loops over an intermediate"),
        };
        outer_cost + inner_cost + join
    };
    (state, join_cost, outer_width + inner_width)
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for i in 0..=p.len() {
            let mut q = p.clone();
            q.insert(i, n - 1);
            out.push(q);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn left_deep_dp_cost_is_the_minimum_over_all_orders(seed in 0u64..u64::MAX, n in 2usize..=6) {
        let q = random_query(seed, n);
        let params = CostParams::default();
        // Estimators whose size for a table set does not depend on the
        // order it was joined in — the assumption the DP itself makes. (ELS
        // under Rule LS is one to the bit, and declares it; Rule M is not.)
        let estimators: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(Els::prepare(&q.predicates, &q.stats, &ElsOptions::algorithm_els()).unwrap()),
            Box::new(UpperBoundEstimator::new(&q.predicates, &q.stats).unwrap()),
            Box::new(NoEstimatesEstimator::new(&q.predicates, &q.stats).unwrap()),
        ];
        for est in &estimators {
            let dp = enumerate(est.as_ref(), &q.profiles, &METHODS, &params, TreeShape::LeftDeep)
                .unwrap();
            let brute = permutations(n)
                .iter()
                .map(|order| order_cost(est.as_ref(), &q.profiles, &params, order))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(
                (dp.estimated_cost - brute).abs() <= brute.abs() * 1e-9,
                "{}: dp {} vs brute force {} (seed {seed}, n {n}, order {:?})",
                est.name(), dp.estimated_cost, brute, dp.join_order
            );
        }
    }

    #[test]
    fn the_returned_tree_costs_what_the_dp_reports(seed in 0u64..u64::MAX, n in 2usize..=6) {
        let q = random_query(seed, n);
        let params = CostParams::default();
        // Any estimator, order-dependent ones included: the DP's state for
        // a subset is the one its own plan for that subset produces.
        let estimators: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(Els::prepare(&q.predicates, &q.stats, &ElsOptions::algorithm_els()).unwrap()),
            Box::new(Els::prepare(&q.predicates, &q.stats, &ElsOptions::algorithm_sm()).unwrap()),
            Box::new(UpperBoundEstimator::new(&q.predicates, &q.stats).unwrap()),
        ];
        for est in &estimators {
            for shape in [TreeShape::LeftDeep, TreeShape::Bushy] {
                for methods in [&METHODS[..2], &METHODS[..]] {
                    let dp = enumerate(est.as_ref(), &q.profiles, methods, &params, shape).unwrap();
                    let (state, cost, _) = tree_cost(est.as_ref(), &q.profiles, &params, &dp.root);
                    prop_assert_eq!(
                        cost.to_bits(), dp.estimated_cost.to_bits(),
                        "{} {:?}: tree {} vs reported {} (seed {}, n {})\n{}",
                        est.name(), shape, cost, dp.estimated_cost, seed, n, dp.root.explain()
                    );
                    prop_assert_eq!(
                        dp.estimated_sizes.last().map(|s| s.to_bits()),
                        (n > 1).then(|| state.cardinality().to_bits())
                    );
                }
            }
        }
    }
}
