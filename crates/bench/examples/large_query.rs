//! Optimizing past the dynamic program: a 20-table join.
//!
//! The exact System-R DP is exponential in the table count; the paper's
//! Section 1 points at the AB algorithm [15] and randomized algorithms
//! [14, 5] as the practical alternatives — all of them driven by the same
//! incremental size estimation Algorithm ELS provides. This example builds
//! a 20-table chain query (far beyond the DP's 16-table cap), orders it
//! with the greedy and iterative-improvement strategies, executes the
//! greedy plan, and verifies the answer.
//!
//! Run with: `cargo run --release -p els-bench --example large_query`

use std::sync::Arc;

use els::catalog::collect::CollectOptions;
use els::catalog::Catalog;
use els::core::{Els, ElsOptions};
use els::exec::plan::PlanOutput;
use els::exec::{execute_plan_with, ExecMode, JoinMethod, QueryPlan};
use els::optimizer::{CostParams, TableProfile};
use els::sql::{bind, parse};
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els_bench::heuristic::{greedy_order, iterative_improvement};

const N: usize = 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Tables t0..t19, each with a shared key column over nested domains.
    let mut catalog = Catalog::new();
    let mut from = Vec::new();
    for i in 0..N {
        // Key columns over nested sequential domains: every table holds key
        // 7 exactly once, so the 20-way chain joins to exactly one row.
        let rows = 200 * (1 + (i % 7));
        let name = format!("t{i}");
        catalog.register(
            TableSpec::new(&name, rows)
                .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
                .generate(i as u64 + 1),
            &CollectOptions::default(),
        )?;
        from.push(name);
    }
    let mut sql = format!("SELECT COUNT(*) FROM {}", from.join(", "));
    sql.push_str(" WHERE ");
    let joins: Vec<String> = (1..N).map(|i| format!("t{}.k = t{}.k", i - 1, i)).collect();
    sql.push_str(&joins.join(" AND "));
    sql.push_str(" AND t0.k = 7"); // a point filter keeps the result finite

    let bound = bind(&parse(&sql)?, &catalog)?;
    let from_refs: Vec<&str> = bound.table_names.iter().map(String::as_str).collect();
    let stats = catalog.query_statistics(&from_refs)?;
    let els = Els::prepare(&bound.predicates, &stats, &ElsOptions::algorithm_els())?;
    let profiles: Vec<TableProfile> = from_refs
        .iter()
        .map(|n| TableProfile::of(catalog.table_data(n).unwrap().as_ref()))
        .collect();
    let methods = [JoinMethod::NestedLoop, JoinMethod::SortMerge, JoinMethod::Hash];
    let params = CostParams::default();

    println!("{N}-table chain join with a point filter (DP limit is 16 tables)\n");
    let greedy = greedy_order(&els, &profiles, &methods, &params)?;
    println!(
        "greedy (AB-style):      cost {:>10.1}, order {:?}",
        greedy.estimated_cost, greedy.join_order
    );
    let ii = iterative_improvement(&els, &profiles, &methods, &params, 3, 42)?;
    println!("iterative improvement:  cost {:>10.1}, order {:?}", ii.estimated_cost, ii.join_order);

    // Execute the greedy plan.
    let tables: Vec<Arc<_>> = from_refs.iter().map(|n| catalog.table_data(n).unwrap()).collect();
    let plan = QueryPlan::new(greedy.root, PlanOutput::CountStar);
    let out = execute_plan_with(&plan, &tables, ExecMode::default())?;
    println!("\nexecuted greedy plan: COUNT(*) = {}", out.count);
    println!("metrics: {}", out.metrics);

    // The truth: each table holds key 7 exactly once; the chain join
    // multiplies the per-table multiplicities (all 1).
    let expected: u64 = from_refs
        .iter()
        .map(|n| {
            let t = catalog.table_data(n).unwrap();
            t.column_by_name("k").unwrap().iter().filter(|v| v.as_int() == Some(7)).count() as u64
        })
        .product();
    assert_eq!(out.count, expected, "executed count must match the closed form");
    println!("verified against the closed-form product: {expected}");
    Ok(())
}
