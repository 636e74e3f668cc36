//! Predicate transitive closure is a *semantics-preserving* rewrite: for
//! any generated workload, executing the original predicate set and the
//! closed predicate set yields identical results — closure only adds
//! predicates that are already implied.

use els::core::closure::{pairwise_fixpoint, transitive_closure};
use els::exec::{execute_plan_with, ExecMode};
use els::optimizer::{
    apply_predicate_transitive_closure, bound_query_tables, optimize_bound, EstimatorPreset,
    OptimizerOptions,
};
use els_bench::workload::{generate, Shape, WorkloadSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn closed_and_original_queries_agree(seed in 0u64..5_000, star in proptest::bool::ANY) {
        let spec = WorkloadSpec {
            tables: 3,
            shape: if star { Shape::Star } else { Shape::Chain },
            ..Default::default()
        };
        let inst = generate(&spec, seed);
        let tables = bound_query_tables(&inst.bound, &inst.catalog).unwrap();

        // Original predicates, closure disabled end to end.
        let no_ptc = OptimizerOptions::preset(EstimatorPreset::SmNoPtc);
        let original = optimize_bound(&inst.bound, &inst.catalog, &no_ptc).unwrap();
        let a = execute_plan_with(&original.plan, &tables, ExecMode::default()).unwrap().count;

        // Explicitly rewritten query, closure again disabled (the derived
        // predicates are now *literal*).
        let rewritten = apply_predicate_transitive_closure(&inst.bound);
        let closed = optimize_bound(&rewritten, &inst.catalog, &no_ptc).unwrap();
        let b = execute_plan_with(&closed.plan, &tables, ExecMode::default()).unwrap().count;

        prop_assert_eq!(a, b, "closure changed the result of `{}`", inst.sql);
    }

    /// The production class-based closure and the literal pairwise fixpoint
    /// agree on workload-shaped predicate sets (beyond the random small
    /// sets already tested in els-core).
    #[test]
    fn closure_implementations_agree_on_workloads(seed in 0u64..5_000) {
        let inst = generate(&WorkloadSpec { tables: 4, ..Default::default() }, seed);
        let a = transitive_closure(&inst.bound.predicates);
        let b = pairwise_fixpoint(&inst.bound.predicates);
        let key = |ps: &[els::core::Predicate]| {
            let mut v: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
            v.sort();
            v
        };
        prop_assert_eq!(key(&a), key(&b));
    }
}

#[test]
fn closure_never_removes_rows_and_never_adds_them() {
    // A deterministic spot check with hand-built data, including NULLs in
    // the filter column (closure rule e must not propagate across NULL
    // semantics incorrectly).
    let inst =
        generate(&WorkloadSpec { tables: 3, filter_probability: 1.0, ..Default::default() }, 1234);
    let tables = bound_query_tables(&inst.bound, &inst.catalog).unwrap();
    let with_ptc =
        optimize_bound(&inst.bound, &inst.catalog, &OptimizerOptions::preset(EstimatorPreset::Els))
            .unwrap();
    let without_ptc = optimize_bound(
        &inst.bound,
        &inst.catalog,
        &OptimizerOptions::preset(EstimatorPreset::SmNoPtc),
    )
    .unwrap();
    let a = execute_plan_with(&with_ptc.plan, &tables, ExecMode::default()).unwrap().count;
    let b = execute_plan_with(&without_ptc.plan, &tables, ExecMode::default()).unwrap().count;
    assert_eq!(a, b);
}
