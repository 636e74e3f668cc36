//! **F5** — how the distinct-reduction model (urn vs proportional) changes
//! *join* estimates, not just column statistics.
//!
//! Setup: table R (‖R‖ rows) carries a filter on column `a` with a swept
//! selectivity, and joins table S on column `b` (d_b distinct values,
//! untouched by the filter). Estimating ‖σ(R) ⋈ S‖ requires d_b′ — the
//! distinct values of `b` that survive the filter — which is exactly where
//! Section 5's urn model and the common proportional estimate diverge.
//! Truth is measured by executing the query.
//!
//! Expected shape: the urn-model estimate tracks the truth across the whole
//! sweep; the proportional model increasingly *underestimates* as the
//! filter tightens (it assumes distinct values die linearly with rows,
//! while duplicates actually shield them) — and an underestimated d_b′
//! *overestimates* the join (smaller max(d) denominator), so the
//! proportional column drifts above 1.

use crate::table::{r, Table};
use els_catalog::collect::CollectOptions;
use els_catalog::Catalog;
use els_core::local_effects::DistinctReduction;
use els_exec::{execute_plan_with, ExecMode};
use els_optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};
use els_sql::{bind, parse};
use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    let rows = 20_000usize;
    let d_b = 200u64;
    let s_rows = 50usize; // S's domain is a subset of b's (containment)
    let mut catalog = Catalog::new();
    catalog.register(
        TableSpec::new("R", rows)
            .column(ColumnSpec::new("a", Distribution::SequentialInt { start: 0 }))
            .column(ColumnSpec::new("b", Distribution::UniformInt { lo: 0, hi: d_b as i64 - 1 }))
            .generate(31),
        &CollectOptions::default(),
    )?;
    catalog.register(
        TableSpec::new("S", s_rows)
            .column(ColumnSpec::new("id", Distribution::SequentialInt { start: 0 }))
            .generate(32),
        &CollectOptions::default(),
    )?;

    println!("# F5 — join estimate quality under urn vs proportional d' reduction");
    println!(
        "(R: {rows} rows, d_b = {d_b}; S: {s_rows} rows; query: R ⋈ S on b = id, filter a < c)\n"
    );
    let table = Table::header(&[
        r("filter", 9),
        r("truth", 10),
        r("urn est", 12),
        r("prop est", 12),
        r("urn/true", 9),
        r("prop/true", 9),
    ]);

    for frac in [0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.9] {
        let cut = (rows as f64 * frac) as i64;
        let sql = format!("SELECT COUNT(*) FROM R, S WHERE R.b = S.id AND R.a < {cut}");
        let bound = bind(&parse(&sql)?, &catalog)?;
        let tables = bound_query_tables(&bound, &catalog)?;
        let mut estimates = Vec::new();
        let mut truth = 0u64;
        for reduction in [DistinctReduction::UrnModel, DistinctReduction::Proportional] {
            let mut options = OptimizerOptions::preset(EstimatorPreset::Els);
            options.els = options.els.with_distinct_reduction(reduction);
            let optimized = optimize_bound(&bound, &catalog, &options)?;
            estimates.push(*optimized.estimated_sizes.last().unwrap());
            truth = execute_plan_with(&optimized.plan, &tables, ExecMode::default())?.count;
        }
        let t = truth as f64;
        table.row(&[
            &format_args!("{:.0}%", frac * 100.0),
            &truth,
            &format_args!("{:.1}", estimates[0]),
            &format_args!("{:.1}", estimates[1]),
            &format_args!("{:.3}", estimates[0] / t),
            &format_args!("{:.3}", estimates[1] / t),
        ]);
    }
    println!(
        "\nnote: the join selectivity is 1/max(d_b', d_id), so the d_b' model only matters \
         once the filter drives d_b' below d_id = {s_rows} — exactly where the proportional \
         model collapses far too early. The urn column's residual drift above 1 at tight \
         filters is the containment assumption, common to both models."
    );
    Ok(())
}
