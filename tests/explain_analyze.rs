//! End-to-end tests of `explain_analyze`: the per-operator
//! estimated-vs-actual report, its stability across execution modes, a
//! repeat analysis served from the plan cache, and the typed error when a
//! plan's annotations meet another plan's observations.

#[path = "../crates/optimizer/tests/support/node_sizes.rs"]
mod node_sizes;

use els::analyze::{build_operator_reports, Mismatch, OperatorReport};
use els::engine::Engine;
use els::exec::{execute_plan_observed, ExecMode, Observations};
use els::optimizer::{CachedPlan, OptimizerOptions};
use els::storage::datagen::{
    starburst_experiment_tables_sized, ColumnSpec, Distribution, TableSpec,
};
use node_sizes::node_sizes;

const SECTION8_SQL: &str =
    "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100";

fn section8_engine(workers: usize) -> Engine {
    let engine = Engine::new().exec_workers(workers);
    for t in starburst_experiment_tables_sized(42, &[1_000, 10_000, 20_000, 30_000]) {
        engine.register(t).unwrap();
    }
    engine
}

#[test]
fn section8_report_has_per_operator_estimates_and_actuals() {
    let engine = section8_engine(1);
    let report = engine.explain_analyze(SECTION8_SQL).unwrap();

    // Four scans + three joins, root first.
    assert_eq!(report.operators.len(), 7, "{report}");
    assert_eq!(report.join_operators().count(), 3, "{report}");
    let root = report.root().unwrap();
    assert!(root.is_join, "{report}");
    assert_eq!(root.tables, vec![0, 1, 2, 3], "{report}");

    // Containment holds by construction, so `s < 100` makes every join
    // produce exactly 100 rows and ELS gets each one exactly right.
    assert_eq!(report.result_rows, 100, "{report}");
    assert_eq!(root.actual, 100, "{report}");
    assert_eq!(report.query_q_error(), 1.0, "{report}");
    for op in report.join_operators() {
        assert_eq!(op.actual, 100, "{report}");
        assert_eq!(op.q_error(), 1.0, "{report}");
        assert_eq!(op.error_ratio(), 1.0, "{report}");
    }
    assert_eq!(report.rule, "LS", "ELS defaults to rule LS");
}

#[test]
fn actuals_are_identical_across_execution_modes() {
    let serial = section8_engine(1).explain_analyze(SECTION8_SQL).unwrap();
    let parallel = section8_engine(4).explain_analyze(SECTION8_SQL).unwrap();
    assert_eq!(serial.mode, ExecMode::Vectorized { workers: 1 });
    assert_eq!(parallel.mode, ExecMode::Vectorized { workers: 4 });
    assert_eq!(serial.operators.len(), parallel.operators.len());
    for (a, b) in serial.operators.iter().zip(&parallel.operators) {
        assert_eq!(a.actual, b.actual, "{}: actuals diverged across modes", a.label);
        assert_eq!(a.tables, b.tables, "{}: operator order diverged", a.label);
    }

    // The row oracle, serial and parallel kernels on one prepared plan.
    let engine = section8_engine(1);
    let plan = engine.prepare(SECTION8_SQL).unwrap();
    let snapshot = engine.snapshot();
    let tables: Vec<_> =
        plan.table_names.iter().map(|name| snapshot.table_data(name).unwrap()).collect();
    let observe =
        |mode| execute_plan_observed(&plan.optimized.plan, &tables, mode, None).unwrap().1;
    let row = observe(ExecMode::RowAtATime);
    assert_eq!(row.nodes.iter().filter(|n| n.tables.count_ones() > 1).count(), 3);
    for workers in [1, 4] {
        assert_eq!(observe(ExecMode::Vectorized { workers }), row, "{workers} worker(s)");
    }
}

#[test]
fn display_renders_the_annotated_tree() {
    let engine = section8_engine(1);
    let text = engine.explain_analyze(SECTION8_SQL).unwrap().to_string();
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains("est="), "{text}");
    assert!(text.contains("act="), "{text}");
    assert!(text.contains("qerr="), "{text}");
    assert!(text.contains("Scan(S"), "{text}");
    assert!(text.contains("Join<"), "{text}");
    assert!(text.contains("rule=LS"), "{text}");
}

#[test]
fn second_analysis_hits_the_plan_cache() {
    let engine = section8_engine(1);
    let cold = engine.explain_analyze(SECTION8_SQL).unwrap();
    assert!(!cold.cache_hit);
    let warm = engine.explain_analyze(SECTION8_SQL).unwrap();
    assert!(warm.cache_hit, "second analysis should reuse the cached plan");
    assert_eq!(cold.operators.len(), warm.operators.len());
}

/// The estimates of `ops[at]`'s subtree in post-order, read through each
/// join's `inputs`.
fn post_order(ops: &[OperatorReport], at: usize, out: &mut Vec<f64>) {
    if let Some((left, right)) = ops[at].inputs {
        post_order(ops, left, out);
        post_order(ops, right, out);
    }
    out.push(ops[at].estimated);
}

#[test]
fn a_bushy_plan_reports_rescanned_inners_at_their_stored_size() {
    // Two band joins, each a nested loop rescanning its 2 000-row fact
    // table once per surviving dimension row, under a cartesian root: the
    // bushy winner joins the two pairs' results. Both orientations of the
    // root cost the same, so the smaller outer mask, {fact, dim}, wins.
    let engine = Engine::with_options(OptimizerOptions::default().with_bushy_trees());
    for (fact, dim) in [("fact", "dim"), ("f2", "d2")] {
        let key = Distribution::CycleInt { modulus: 100, start: 0 };
        engine.generate(TableSpec::new(fact, 2000).column(ColumnSpec::new("key", key)), 1).unwrap();
        let id = Distribution::SequentialInt { start: 0 };
        engine.generate(TableSpec::new(dim, 100).column(ColumnSpec::new("id", id)), 2).unwrap();
    }
    let sql = "SELECT COUNT(*) FROM fact, dim, f2, d2 \
               WHERE fact.key < dim.id AND dim.id < 5 AND f2.key < d2.id AND d2.id < 3";
    let report = engine.explain_analyze(sql).unwrap();
    let shape: Vec<_> = report
        .operators
        .iter()
        .map(|op| (op.label.as_str(), op.depth, op.tables.clone(), op.rescan))
        .collect();
    assert_eq!(
        shape,
        [
            ("Join<NL> {fact,dim,f2,d2}", 0, vec![0, 1, 2, 3], false),
            ("Join<NL> {fact,dim}", 1, vec![0, 1], false),
            ("Scan(dim) [1 filter(s)]", 2, vec![1], false),
            ("Rescan(fact)", 2, vec![0], true),
            ("Join<NL> {f2,d2}", 1, vec![2, 3], false),
            ("Scan(d2) [1 filter(s)]", 2, vec![3], false),
            ("Rescan(f2)", 2, vec![2], true),
        ],
        "{report}"
    );
    assert_eq!(report.result_rows, 200 * 60, "{report}");

    let plan = engine.prepare(sql).unwrap();
    let est = plan.optimized.estimator();
    for op in report.operators.iter().filter(|op| op.rescan) {
        assert_eq!(op.estimated, est.original_cardinality(op.tables[0]).unwrap(), "{report}");
        assert_eq!((op.estimated, op.actual), (2000.0, 2000), "{report}");
    }
    let (mut reported, mut reference) = (Vec::new(), Vec::new());
    post_order(&report.operators, 0, &mut reported);
    let tree = &plan.optimized.plan.root;
    node_sizes(est, tree, tree.root().unwrap(), false, &mut reference).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let reference: Vec<f64> = reference.iter().map(|&(_, _, rows)| rows).collect();
    assert_eq!(bits(&reported), bits(&reference), "{report}");
}

#[test]
fn another_plans_observations_are_a_typed_error() {
    let engine = section8_engine(1);
    let snapshot = engine.snapshot();
    let observe_in = |plan: &CachedPlan, mode| -> Observations {
        let tables: Vec<_> =
            plan.table_names.iter().map(|name| snapshot.table_data(name).unwrap()).collect();
        execute_plan_observed(&plan.optimized.plan, &tables, mode, None).unwrap().1
    };
    let observe = |plan: &CachedPlan| observe_in(plan, ExecMode::default());
    let report = |plan: &CachedPlan, obs: &Observations| {
        build_operator_reports(&plan.optimized, &plan.binding_names, obs)
    };
    let one = engine.prepare("SELECT COUNT(*) FROM S").unwrap();
    let two = engine.prepare("SELECT COUNT(*) FROM S, M WHERE s = m").unwrap();
    let four = engine.prepare(SECTION8_SQL).unwrap();
    let (one_obs, two_obs, four_obs) = (observe(&one), observe(&two), observe(&four));
    assert_eq!(report(&two, &two_obs).unwrap().len(), 3);
    assert_eq!(report(&four, &four_obs).unwrap().len(), 7);
    // One plan's scan of S is the other's first: then a join observation
    // is left over, or missing.
    assert_eq!(report(&one, &two_obs).unwrap_err(), Mismatch { at: 1 });
    assert_eq!(report(&two, &one_obs).unwrap_err(), Mismatch { at: 1 });
    // The Section 8 plan scans M first, the two-table plan S.
    assert_eq!(report(&four, &two_obs).unwrap_err(), Mismatch { at: 0 });
    assert_eq!(report(&two, &four_obs).unwrap_err(), Mismatch { at: 0 });
    // Each plan's own run: one record per node, record `i` over node `i`'s
    // tables, serial or parallel.
    for plan in [&one, &two, &four] {
        let tree = &plan.optimized.plan.root;
        let annotated: Vec<u64> = (0..tree.node_count()).map(|at| tree.tables(at)).collect();
        for workers in [1, 2] {
            let obs = observe_in(plan, ExecMode::Vectorized { workers });
            let recorded: Vec<u64> = obs.nodes.iter().map(|n| n.tables).collect();
            assert_eq!(recorded, annotated, "{workers} worker(s)");
        }
    }
}
