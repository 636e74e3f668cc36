//! Heuristic join-order search for large queries.
//!
//! The paper motivates *incremental* estimation precisely because every
//! practical join-ordering algorithm consumes sizes one join at a time:
//! "the dynamic programming algorithm [13], the AB algorithm [15] and
//! randomized algorithms [14, 5]" (Section 1). The exact DP of
//! [`crate::enumerate`] covers [13] up to [`crate::enumerate::MAX_DP_TABLES`]
//! tables; this module provides the other two families for queries beyond
//! that:
//!
//! * [`greedy_order`] — a minimum-intermediate-size greedy (the flavour of
//!   the augmentation part of Swami & Iyer's AB algorithm [15]): start from
//!   the best single table and repeatedly append the table whose join
//!   yields the cheapest next step.
//! * [`iterative_improvement`] — randomized local search over join orders
//!   (Swami's thesis [14] / Kang [5]): repeated random restarts, each
//!   improved by swap moves until a local optimum.
//!
//! Both return left-deep plans costed by the same cost model as the DP, so
//! their plan quality is directly comparable (see the `heuristics`
//! benchmarks and tests).

use els_exec::{JoinMethod, PlanNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use els_core::CardinalityEstimator;

use crate::cost::{CostParams, Inner};
use crate::enumerate::{
    cheapest_method, edges_between, scan_filters, Annotation, EnumerationResult,
};
use crate::error::{OptimizerError, OptimizerResult};
use crate::profile::TableProfile;

/// Cost one fixed left-deep order, choosing the join method of each step by
/// the DP's policy ([`cheapest_method`]); shared by all strategies in this
/// module. `profiles` holds one profile per table of `els`.
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

/// Greedy minimum-cost augmentation: try every starting table, then extend
/// with whichever next table adds the least cost. O(n³) cost evaluations.
pub fn greedy_order(
    els: &dyn CardinalityEstimator,
    profiles: &[TableProfile],
    methods: &[JoinMethod],
    params: &CostParams,
) -> OptimizerResult<EnumerationResult> {
    let n = profiles.len();
    if n == 0 {
        return Err(OptimizerError::Unsupported("query with no tables".into()));
    }
    let mut best: Option<EnumerationResult> = None;
    for start in 0..n {
        let mut order = vec![start];
        let mut remaining: Vec<usize> = (0..n).filter(|&t| t != start).collect();
        while !remaining.is_empty() {
            // Pick the extension with the cheapest partial cost.
            let mut chosen = 0usize;
            let mut chosen_cost = f64::INFINITY;
            for (i, &t) in remaining.iter().enumerate() {
                let mut candidate = order.clone();
                candidate.push(t);
                let partial = cost_order(&candidate, els, profiles, methods, params)?;
                if partial.estimated_cost < chosen_cost {
                    chosen_cost = partial.estimated_cost;
                    chosen = i;
                }
            }
            order.push(remaining.swap_remove(chosen));
        }
        let full = cost_order(&order, els, profiles, methods, params)?;
        if best.as_ref().is_none_or(|b| full.estimated_cost < b.estimated_cost) {
            best = Some(full);
        }
    }
    best.ok_or_else(|| {
        OptimizerError::Internal("greedy ordering produced no candidate order".into())
    })
}

/// Randomized iterative improvement: random restart orders, each improved
/// by adjacent-swap and random-swap moves until no move helps, keeping the
/// global best. Deterministic for a given `seed`.
pub fn iterative_improvement(
    els: &dyn CardinalityEstimator,
    profiles: &[TableProfile],
    methods: &[JoinMethod],
    params: &CostParams,
    restarts: usize,
    seed: u64,
) -> OptimizerResult<EnumerationResult> {
    let n = profiles.len();
    if n == 0 {
        return Err(OptimizerError::Unsupported("query with no tables".into()));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut global: Option<EnumerationResult> = None;
    for _ in 0..restarts.max(1) {
        // Random start.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut current = cost_order(&order, els, profiles, methods, params)?;
        // Hill-climb with swap moves.
        let mut improved = true;
        while improved {
            improved = false;
            'moves: for i in 0..n {
                for j in (i + 1)..n {
                    let mut cand = current.join_order.clone();
                    cand.swap(i, j);
                    let res = cost_order(&cand, els, profiles, methods, params)?;
                    if res.estimated_cost + 1e-9 < current.estimated_cost {
                        current = res;
                        improved = true;
                        continue 'moves;
                    }
                }
            }
        }
        if global.as_ref().is_none_or(|g| current.estimated_cost < g.estimated_cost) {
            global = Some(current);
        }
    }
    global.ok_or_else(|| {
        OptimizerError::Internal("iterative improvement produced no candidate order".into())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate, TreeShape};
    use els_core::predicate::{CmpOp, Predicate};
    use els_core::{
        ColumnRef, ColumnStatistics, Els, ElsOptions, QueryStatistics, TableStatistics,
    };

    fn c(t: usize, col: usize) -> ColumnRef {
        ColumnRef::new(t, col)
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
    fn greedy_is_never_better_than_dp_and_usually_close() {
        for n in [3usize, 5, 7] {
            let (els, profiles) = chain(n);
            let dp =
                enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
                    .unwrap();
            let greedy = greedy_order(&els, &profiles, &NL_SM, &CostParams::default()).unwrap();
            assert!(
                greedy.estimated_cost >= dp.estimated_cost - 1e-9,
                "greedy beat the exact DP?! {} < {}",
                greedy.estimated_cost,
                dp.estimated_cost
            );
            assert!(
                greedy.estimated_cost <= dp.estimated_cost * 3.0,
                "greedy {}x worse than DP on an easy chain",
                greedy.estimated_cost / dp.estimated_cost
            );
        }
    }

    #[test]
    fn iterative_improvement_matches_dp_on_small_queries() {
        let (els, profiles) = chain(5);
        let dp = enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
            .unwrap();
        let ii =
            iterative_improvement(&els, &profiles, &NL_SM, &CostParams::default(), 6, 7).unwrap();
        // Left-deep local optimum over swaps on a 5-chain reaches the DP
        // optimum with a handful of restarts.
        assert!(
            (ii.estimated_cost - dp.estimated_cost) / dp.estimated_cost < 0.05,
            "II {} vs DP {}",
            ii.estimated_cost,
            dp.estimated_cost
        );
    }

    #[test]
    fn heuristics_scale_past_the_dp_limit() {
        // 18 tables: the DP refuses, the heuristics deliver.
        let (els, profiles) = chain(18);
        assert!(enumerate(&els, &profiles, &NL_SM, &CostParams::default(), TreeShape::LeftDeep)
            .is_err());
        let greedy = greedy_order(&els, &profiles, &NL_SM, &CostParams::default()).unwrap();
        assert_eq!(greedy.join_order.len(), 18);
        let ii =
            iterative_improvement(&els, &profiles, &NL_SM, &CostParams::default(), 2, 3).unwrap();
        assert_eq!(ii.join_order.len(), 18);
        assert!(greedy.estimated_cost.is_finite() && ii.estimated_cost.is_finite());
    }

    #[test]
    fn iterative_improvement_is_deterministic_per_seed() {
        let (els, profiles) = chain(6);
        let a =
            iterative_improvement(&els, &profiles, &NL_SM, &CostParams::default(), 3, 42).unwrap();
        let b =
            iterative_improvement(&els, &profiles, &NL_SM, &CostParams::default(), 3, 42).unwrap();
        assert_eq!(a.join_order, b.join_order);
        assert_eq!(a.estimated_cost, b.estimated_cost);
    }

    #[test]
    fn a_profile_count_that_disagrees_with_the_estimator_is_unsupported() {
        let (els, profiles) = chain(2);
        for short in [&profiles[..1], &[]] {
            let err = cost_order(&[0, 1], &els, short, &NL_SM, &CostParams::default());
            assert!(matches!(err, Err(OptimizerError::Unsupported(_))), "{err:?}");
        }
    }

    #[test]
    fn empty_inputs_rejected() {
        let stats = QueryStatistics::new(vec![]);
        let els = Els::prepare(&[], &stats, &ElsOptions::default()).unwrap();
        assert!(greedy_order(&els, &[], &NL_SM, &CostParams::default()).is_err());
        assert!(iterative_improvement(&els, &[], &NL_SM, &CostParams::default(), 1, 1).is_err());
        let (els, profiles) = chain(3);
        assert!(cost_order(&[], &els, &profiles, &NL_SM, &CostParams::default()).is_err());
    }
}
