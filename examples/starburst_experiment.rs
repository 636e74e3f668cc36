//! The paper's Section 8 experiment, end to end.
//!
//! Generates the S / M / B / G tables, optimizes the query
//!
//! ```sql
//! SELECT COUNT(*) FROM S, M, B, G
//! WHERE s = m AND m = b AND b = g AND s < 100
//! ```
//!
//! under the paper's four configurations (Algorithm SM without and with
//! predicate transitive closure, Algorithm SSS, and Algorithm ELS),
//! executes each chosen plan, and prints the experiment table: join order,
//! estimated intermediate sizes, and measured execution effort.
//!
//! Run with: `cargo run --release --example starburst_experiment`

use els::catalog::collect::CollectOptions;
use els::catalog::Catalog;
use els::exec::{execute_plan_with, ExecMode};
use els::optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};
use els::sql::{bind, parse};
use els::storage::datagen::starburst_experiment_tables;

const SQL: &str = "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut catalog = Catalog::new();
    for t in starburst_experiment_tables(42) {
        catalog.register(t, &CollectOptions::default())?;
    }
    let bound = bind(&parse(SQL)?, &catalog)?;
    let tables = bound_query_tables(&bound, &catalog)?;
    let names = ["S", "M", "B", "G"];

    println!("Query: {SQL}");
    println!("True result size after any subset of joins: 100\n");
    println!(
        "{:<14} {:<18} {:<34} {:>10} {:>10} {:>9}",
        "algorithm", "join order", "estimated sizes", "pages", "tuples", "time(ms)"
    );
    println!("{}", "-".repeat(100));

    for preset in EstimatorPreset::all() {
        let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset))?;
        let order: Vec<&str> = optimized.join_order.iter().map(|&t| names[t]).collect();
        let sizes: Vec<String> =
            optimized.estimated_sizes.iter().map(|s| format!("{s:.3e}")).collect();
        let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default())?;
        assert_eq!(out.count, 100, "every plan must compute the true answer");
        println!(
            "{:<14} {:<18} {:<34} {:>10} {:>10} {:>9.2}",
            preset.label(),
            order.join("⋈"),
            format!("({})", sizes.join(", ")),
            out.metrics.pages_read,
            out.metrics.tuples_scanned,
            out.metrics.elapsed.as_secs_f64() * 1e3,
        );
    }

    println!("\nPlans:");
    for preset in EstimatorPreset::all() {
        let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset))?;
        println!("--- {} ---\n{}", preset.label(), optimized.plan.root.explain());
    }
    Ok(())
}
