//! End-to-end: SQL text → bind → optimize → execute, with results checked
//! against brute-force evaluation and estimates checked against the data.

use std::sync::Arc;

use els::catalog::collect::CollectOptions;
use els::catalog::Catalog;
use els::exec::{execute_plan_with, ExecMode};
use els::optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};
use els::sql::{bind, parse};
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els::storage::Table;

/// Brute-force COUNT(*) of a conjunctive query by nested iteration.
fn brute_force_count(tables: &[Arc<Table>], predicates: &[els::core::Predicate]) -> u64 {
    fn rec(
        tables: &[Arc<Table>],
        predicates: &[els::core::Predicate],
        row: &mut Vec<usize>,
        depth: usize,
    ) -> u64 {
        if depth == tables.len() {
            let ok = predicates.iter().all(|p| match p {
                els::core::Predicate::LocalCmp { column, op, value } => {
                    let v = tables[column.table]
                        .column(column.column)
                        .unwrap()
                        .get(row[column.table])
                        .unwrap();
                    v.sql_cmp(value).map(|o| op.eval(o)).unwrap_or(false)
                }
                els::core::Predicate::IsNull { column, negated } => {
                    let v = tables[column.table]
                        .column(column.column)
                        .unwrap()
                        .get(row[column.table])
                        .unwrap();
                    v.is_null() != *negated
                }
                els::core::Predicate::LocalColEq { left, right }
                | els::core::Predicate::JoinEq { left, right } => {
                    let a = tables[left.table]
                        .column(left.column)
                        .unwrap()
                        .get(row[left.table])
                        .unwrap();
                    let b = tables[right.table]
                        .column(right.column)
                        .unwrap()
                        .get(row[right.table])
                        .unwrap();
                    a.sql_eq(&b)
                }
                els::core::Predicate::JoinRange { left, op, right } => {
                    let a = tables[left.table]
                        .column(left.column)
                        .unwrap()
                        .get(row[left.table])
                        .unwrap();
                    let b = tables[right.table]
                        .column(right.column)
                        .unwrap()
                        .get(row[right.table])
                        .unwrap();
                    a.sql_cmp(&b).map(|o| op.eval(o)).unwrap_or(false)
                }
            });
            return ok as u64;
        }
        let mut total = 0;
        for r in 0..tables[depth].num_rows() {
            row[depth] = r;
            total += rec(tables, predicates, row, depth + 1);
        }
        total
    }
    let mut row = vec![0usize; tables.len()];
    rec(tables, predicates, &mut row, 0)
}

fn small_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        TableSpec::new("A", 30)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
            .column(ColumnSpec::new("v", Distribution::CycleInt { modulus: 5, start: 0 }))
            .generate(1),
        &CollectOptions::default(),
    )
    .unwrap();
    c.register(
        TableSpec::new("Bt", 40)
            .column(ColumnSpec::new("k", Distribution::CycleInt { modulus: 20, start: 0 }))
            .column(ColumnSpec::new("w", Distribution::CycleInt { modulus: 4, start: 0 }))
            .generate(2),
        &CollectOptions::default(),
    )
    .unwrap();
    c.register(
        TableSpec::new("Ct", 25)
            .column(ColumnSpec::new("k", Distribution::CycleInt { modulus: 10, start: 0 }))
            .generate(3),
        &CollectOptions::default(),
    )
    .unwrap();
    c
}

/// Optimize + execute `sql` under every preset and check the count against
/// brute force.
fn check_query(sql: &str) {
    let catalog = small_catalog();
    let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();
    let truth = brute_force_count(&tables, &bound.predicates);
    for preset in EstimatorPreset::all() {
        let optimized =
            optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset)).unwrap();
        let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
        assert_eq!(out.count, truth, "{sql} under {}", preset.label());
    }
    // Hash joins enabled must agree too.
    let optimized = optimize_bound(
        &bound,
        &catalog,
        &OptimizerOptions::preset(EstimatorPreset::Els).with_hash_join(),
    )
    .unwrap();
    let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
    assert_eq!(out.count, truth, "{sql} with hash joins");
    // And bushy-tree enumeration (plans may have intermediate inners).
    let optimized = optimize_bound(
        &bound,
        &catalog,
        &OptimizerOptions::preset(EstimatorPreset::Els).with_hash_join().with_bushy_trees(),
    )
    .unwrap();
    let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
    assert_eq!(out.count, truth, "{sql} with bushy trees");
    // And indexed nested loops in the repertoire.
    let optimized = optimize_bound(
        &bound,
        &catalog,
        &OptimizerOptions::preset(EstimatorPreset::Els).with_index_nested_loop(),
    )
    .unwrap();
    let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
    assert_eq!(out.count, truth, "{sql} with index nested loops");
}

#[test]
fn two_way_join() {
    check_query("SELECT COUNT(*) FROM A, Bt WHERE A.k = Bt.k");
}

#[test]
fn two_way_join_with_filter() {
    check_query("SELECT COUNT(*) FROM A, Bt WHERE A.k = Bt.k AND A.k < 12");
}

#[test]
fn three_way_chain() {
    check_query("SELECT COUNT(*) FROM A, Bt, Ct WHERE A.k = Bt.k AND Bt.k = Ct.k");
}

#[test]
fn three_way_chain_with_filters() {
    check_query(
        "SELECT COUNT(*) FROM A, Bt, Ct WHERE A.k = Bt.k AND Bt.k = Ct.k AND A.k < 8 AND Bt.w = 1",
    );
}

#[test]
fn same_table_j_equivalent_columns_query() {
    // A.k = Bt.k AND A.k = Bt.w: the Section 6 shape. Closure derives
    // Bt.k = Bt.w, applied at the scan.
    check_query("SELECT COUNT(*) FROM A, Bt WHERE A.k = Bt.k AND A.k = Bt.w");
}

#[test]
fn cartesian_product_query() {
    check_query("SELECT COUNT(*) FROM A, Ct");
}

#[test]
fn local_only_query() {
    check_query("SELECT COUNT(*) FROM A WHERE v = 2 AND k >= 4");
}

#[test]
fn empty_result_query() {
    check_query("SELECT COUNT(*) FROM A, Bt WHERE A.k = Bt.k AND A.k > 1000");
}

#[test]
fn duplicate_predicates_query() {
    check_query(
        "SELECT COUNT(*) FROM A, Bt WHERE A.k = Bt.k AND A.k = Bt.k AND A.k < 12 AND A.k < 12",
    );
}

#[test]
fn pure_inequality_band_join() {
    check_query("SELECT COUNT(*) FROM A, Bt WHERE A.k < Bt.k");
}

#[test]
fn inequality_with_filters() {
    check_query("SELECT COUNT(*) FROM A, Bt WHERE A.k >= Bt.k AND A.k < 12 AND Bt.w = 1");
}

#[test]
fn mixed_equi_and_inequality_join() {
    check_query("SELECT COUNT(*) FROM A, Bt WHERE A.k = Bt.k AND A.v <= Bt.w");
}

#[test]
fn column_between_band_join() {
    check_query("SELECT COUNT(*) FROM A, Bt WHERE Bt.k BETWEEN A.v AND A.k");
}

#[test]
fn three_way_with_inequality_edge() {
    check_query("SELECT COUNT(*) FROM A, Bt, Ct WHERE A.k = Bt.k AND Bt.k > Ct.k");
}

#[test]
fn inverted_between_is_statically_empty() {
    // `BETWEEN 5 AND 3` binds to the contradictory pair `k >= 5 AND k <= 3`:
    // the estimate collapses to zero and so does the executed result —
    // end-to-end, under every preset.
    let catalog = small_catalog();
    let sql = "SELECT COUNT(*) FROM A, Bt WHERE A.k = Bt.k AND A.k BETWEEN 5 AND 3";
    let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();
    assert_eq!(brute_force_count(&tables, &bound.predicates), 0);
    for preset in EstimatorPreset::all() {
        let optimized =
            optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset)).unwrap();
        let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
        assert_eq!(out.count, 0, "{sql} under {}", preset.label());
        if preset == EstimatorPreset::Els {
            let last = *optimized.estimated_sizes.last().unwrap();
            assert!(last < 1.0, "contradictory range must estimate below one tuple: {last}");
        }
    }
}

#[test]
fn projection_star_and_columns_execute() {
    let catalog = small_catalog();
    let bound =
        bind(&parse("SELECT A.k, Bt.w FROM A, Bt WHERE A.k = Bt.k").unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();
    let optimized =
        optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Els)).unwrap();
    let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
    assert_eq!(out.rows.num_columns(), 2);
    assert!(out.count > 0);
}

#[test]
fn estimates_are_exact_when_model_assumptions_hold() {
    // Cycle columns with nested domains satisfy uniformity + containment
    // exactly, so ELS's estimate must equal the executed count.
    let catalog = small_catalog();
    let sql = "SELECT COUNT(*) FROM A, Bt, Ct WHERE A.k = Bt.k AND Bt.k = Ct.k";
    let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();
    let optimized =
        optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Els)).unwrap();
    let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap();
    let final_estimate = *optimized.estimated_sizes.last().unwrap();
    assert_eq!(final_estimate.round() as u64, out.count);
}
