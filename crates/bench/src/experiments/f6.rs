//! **F6** — access-method ablation: how much of the misestimation damage
//! would richer access methods absorb?
//!
//! The paper's experiment ran with Nested Loops and Sort Merge only; the
//! catastrophic plans rescan unindexed giants. This figure re-runs T1's
//! query with three method repertoires — {NL, SM} (the paper's), {NL, SM,
//! HASH}, and {NL, SM, INL} (indexed nested loops) — under each estimator,
//! and reports measured page reads.
//!
//! Measured shape (and the interesting finding): richer repertoires do
//! **not** rescue the misled estimators at all. Once the outer estimate has
//! collapsed toward zero, plain nested loops *looks cheaper than anything
//! else* (its cost model scales with the believed outer size while hash and
//! index builds carry fixed costs), so the optimizer declines the safer
//! methods it was offered. Bad cardinalities poison method selection, not
//! just join order — which is precisely why the paper fixes estimation
//! rather than adding machinery downstream of it.

use crate::table::{l, r, Table};
use crate::{section8_catalog, SECTION8_SQL};
use els_exec::{execute_plan_with, ExecMode};
use els_optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};
use els_sql::{bind, parse};

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = section8_catalog(42);
    let bound = bind(&parse(SECTION8_SQL)?, &catalog)?;
    let tables = bound_query_tables(&bound, &catalog)?;

    type Configure = fn(OptimizerOptions) -> OptimizerOptions;
    let repertoires: [(&str, Configure); 3] = [
        ("NL+SM (paper)", |o| o),
        ("NL+SM+HASH", |o| o.with_hash_join()),
        ("NL+SM+INL", |o| o.with_index_nested_loop()),
    ];

    println!("# F6 — measured page reads by estimator × join-method repertoire");
    println!("query: {SECTION8_SQL}\n");
    let report = Table::header(&[
        l("estimator", 14),
        r("NL+SM", 14),
        r("NL+SM+HASH", 14),
        r("NL+SM+INL", 14),
    ]);

    let mut table: Vec<(String, Vec<u64>)> = Vec::new();
    for preset in [EstimatorPreset::Sm, EstimatorPreset::Sss, EstimatorPreset::Els] {
        let mut row = Vec::new();
        for (_, configure) in repertoires {
            let options = configure(OptimizerOptions::preset(preset));
            let optimized = optimize_bound(&bound, &catalog, &options)?;
            let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default())?;
            assert_eq!(out.count, 100, "{} must compute the true answer", preset.label());
            row.push(out.metrics.pages_read);
        }
        report.row(&[&preset.label(), &row[0], &row[1], &row[2]]);
        table.push((preset.label().to_owned(), row));
    }

    let els = table.last().expect("ELS row present").1.clone();
    println!("\nslowdown vs ELS within each repertoire:");
    for (label, row) in &table {
        let ratios: Vec<String> =
            row.iter().zip(&els).map(|(r, e)| format!("{:.1}x", *r as f64 / *e as f64)).collect();
        println!("  {:<14} {}", label, ratios.join("  "));
    }
    Ok(())
}
