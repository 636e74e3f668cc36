//! The DP against references that share no code with its adjacency masks,
//! method-applicability match or back-pointer table, on random join graphs
//! (equality edges over two columns per table, inequality edges, local
//! predicates):
//!
//! * the left-deep DP's cost must equal the cheapest of all `n!` join
//!   orders, each priced step by step here with the public [`CostParams`]
//!   functions and the public `join_keys` / `range_keys`;
//! * the bushy DP's cost must equal the cheapest of all bushy trees, every
//!   split in both orientations, priced the same way (a bushy pair priced
//!   in one orientation only fails it, e.g. seed 6331889603854858818,
//!   n = 3);
//! * in either tree shape, the returned operator tree, re-priced node by
//!   node, must cost exactly what the DP reports — which fails if a
//!   back-pointer ever leads to a different subplan than the one the
//!   candidate was charged for.

#[path = "support/random_graph.rs"]
mod random_graph;

use els_core::JoinState;
use els_core::{CardinalityEstimator, Els, ElsOptions, NoEstimatesEstimator, UpperBoundEstimator};
use els_exec::{JoinMethod, Plan, PlanNode};
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

/// Re-price the subtree at `at` of `plan` bottom-up: `(state, cost, tuple
/// width)`.
fn tree_cost(
    est: &dyn CardinalityEstimator,
    profiles: &[TableProfile],
    params: &CostParams,
    (plan, at): (&Plan, usize),
) -> (JoinState, f64, usize) {
    let (method, left, right, keys, ranges) = match &plan.nodes()[at] {
        PlanNode::Scan { table_id, .. } => {
            let p = &profiles[*table_id];
            return (est.initial_state(*table_id).unwrap(), params.scan(p), p.row_bytes);
        }
        PlanNode::Join { method, left, right, keys, ranges } => {
            (*method, left, right, keys, ranges)
        }
    };
    let (outer_state, outer_cost, outer_width) = tree_cost(est, profiles, params, (plan, *left));
    let (inner_state, inner_cost, inner_width) = tree_cost(est, profiles, params, (plan, *right));
    let state = est.join_sets(&outer_state, &inner_state).unwrap();
    let (outer, inner, out) =
        (outer_state.cardinality(), inner_state.cardinality(), state.cardinality());
    let band = keys.is_empty() && !ranges.is_empty();
    let emit = if band { outer * inner } else { out };
    assert!(band || method != JoinMethod::Range, "band join chosen without a lone range edge");
    let join_cost = if let PlanNode::Scan { table_id, .. } = &plan.nodes()[*right] {
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

/// Every bushy tree over the tables of `mask`, each split in both
/// orientations: `(state, cost)` per tree, priced bottom-up like
/// [`order_cost`], a single-table inner as a stored table and a larger one
/// by the `*_intermediate` functions.
fn bushy_trees(
    est: &dyn CardinalityEstimator,
    profiles: &[TableProfile],
    params: &CostParams,
    mask: u64,
) -> Vec<(JoinState, f64)> {
    let tables = |mask: u64| (0..profiles.len()).filter(move |t| mask & 1 << t != 0);
    if mask.is_power_of_two() {
        let t = mask.trailing_zeros() as usize;
        return vec![(est.initial_state(t).unwrap(), params.scan(&profiles[t]))];
    }
    let mut trees = Vec::new();
    for outer in (1..mask).filter(|o| o & mask == *o) {
        let inner = mask ^ outer;
        let has_keys = tables(inner).any(|t| !join_keys(est.predicates(), outer, t).is_empty());
        let has_ranges = tables(inner).any(|t| !range_keys(est.predicates(), outer, t).is_empty());
        let band = !has_keys && has_ranges;
        let width: usize = tables(inner).map(|t| profiles[t].row_bytes).sum();
        let inner_trees = bushy_trees(est, profiles, params, inner);
        for (outer_state, outer_cost) in bushy_trees(est, profiles, params, outer) {
            for &(inner_state, inner_cost) in &inner_trees {
                let state = est.join_sets(&outer_state, &inner_state).unwrap();
                let (o, out) = (outer_state.cardinality(), state.cardinality());
                let mut costs = Vec::new();
                let cost = if inner.is_power_of_two() {
                    let t = inner.trailing_zeros() as usize;
                    let (p, i) = (&profiles[t], est.effective_cardinality(t).unwrap());
                    let emit = if band { o * i } else { out };
                    costs.extend([
                        params.nested_loop(o, p),
                        params.sort_merge(o, p, i, emit),
                        params.hash(o, p, i, emit),
                    ]);
                    costs.extend(has_keys.then(|| params.index_nested_loop(o, p, emit)));
                    costs.extend(band.then(|| params.range_join(o, p, i, out)));
                    outer_cost
                } else {
                    let i = inner_state.cardinality();
                    let emit = if band { o * i } else { out };
                    costs.extend([
                        params.nested_loop_intermediate(o, i, width),
                        params.sort_merge_intermediate(o, i, emit),
                        params.hash_intermediate(o, i, emit),
                    ]);
                    costs.extend(band.then(|| params.range_join_intermediate(o, i, out)));
                    outer_cost + inner_cost
                };
                trees.push((state, cost + costs.into_iter().fold(f64::INFINITY, f64::min)));
            }
        }
    }
    trees
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
    fn bushy_dp_cost_is_the_minimum_over_all_trees(seed in 0u64..u64::MAX, n in 2usize..=5) {
        let q = random_query(seed, n);
        let params = CostParams::default();
        // ELS is sized once per subset; Rule M is not order independent to
        // the bit, so it is asked once per candidate, but in reals its
        // estimate is a set function too (the product over every predicate
        // inside the set), which keeps the DP exact. Rule SS is neither: a
        // dearer plan for a subset can leave a smaller estimate, so the DP
        // is no minimum under it.
        let estimators: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(Els::prepare(&q.predicates, &q.stats, &ElsOptions::algorithm_els()).unwrap()),
            Box::new(Els::prepare(&q.predicates, &q.stats, &ElsOptions::algorithm_sm()).unwrap()),
        ];
        prop_assert!(estimators[0].order_independent() && !estimators[1].order_independent());
        for est in &estimators {
            let dp = enumerate(est.as_ref(), &q.profiles, &METHODS, &params, TreeShape::Bushy)
                .unwrap();
            let brute = bushy_trees(est.as_ref(), &q.profiles, &params, (1 << n) - 1)
                .into_iter()
                .map(|(_, cost)| cost)
                .fold(f64::INFINITY, f64::min);
            prop_assert!(
                (dp.estimated_cost - brute).abs() <= brute.abs() * 1e-9,
                "{}: dp {} vs brute force {} (seed {seed}, n {n})\n{}",
                est.name(), dp.estimated_cost, brute, dp.root.explain()
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
                    let root = (&dp.root, dp.root.root().unwrap());
                    let (state, cost, _) = tree_cost(est.as_ref(), &q.profiles, &params, root);
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
