//! **F8** — buffer-size sensitivity of the Section 8 damage.
//!
//! The paper ran "all QEPs … using the same buffer size". This figure
//! re-executes the T1 plans under LRU buffer pools of increasing capacity
//! and reports *physical* page reads. G occupies 391 pages (100 000 rows ×
//! 16 B ÷ 4 KiB), B 196; the misled plans' nested-loops rescans are
//! absorbed exactly when the rescanned inner fits.
//!
//! Measured shape: below G's 391-page footprint the buffer does nothing
//! for the misled plans (LRU sequential flooding — every rescan page
//! misses, 93× the ELS plan's I/O); once G fits, physical I/O collapses to
//! parity. The *CPU* gap (15M vs 161k tuple touches — the wall-time
//! column of T1) remains at every buffer size: buffering forgives I/O, not
//! comparisons. The paper's 9–12× with Starburst's fixed buffer sits
//! between these two regimes.

use crate::table::{l, r, Table};
use crate::{section8_catalog, SECTION8_SQL};
use els_exec::{execute_plan_observed, ExecMode};
use els_optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};
use els_sql::{bind, parse};

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = section8_catalog(42);
    let bound = bind(&parse(SECTION8_SQL)?, &catalog)?;
    let tables = bound_query_tables(&bound, &catalog)?;
    for (i, name) in ["S", "M", "B", "G"].iter().enumerate() {
        println!("{name}: {} pages", tables[i].num_pages());
    }

    let presets = [EstimatorPreset::Sm, EstimatorPreset::Els];
    let buffers: [Option<usize>; 5] = [None, Some(100), Some(500), Some(1000), Some(2000)];

    println!("\n# F8 — physical page reads by buffer capacity");
    println!("query: {SECTION8_SQL}\n");
    let headings = buffers.map(|b| b.map_or("unbuffered".to_owned(), |n| format!("{n}p")));
    let mut cols = vec![l("estimator", 14)];
    cols.extend(headings.iter().map(|h| r(h, 10)));
    let table = Table::header(&cols);

    let mut rows = Vec::new();
    for preset in presets {
        let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset))?;
        let mut row = Vec::new();
        for b in buffers {
            let (out, _) = execute_plan_observed(&optimized.plan, &tables, ExecMode::default(), b)?;
            assert_eq!(out.count, 100);
            row.push(out.metrics.physical_pages_read);
        }
        let label = preset.label();
        let mut cells: Vec<&dyn std::fmt::Display> = vec![&label];
        cells.extend(row.iter().map(|v| v as &dyn std::fmt::Display));
        table.row(&cells);
        rows.push(row);
    }

    println!("\nSM-plan physical I/O relative to the ELS plan, per buffer size:");
    for (i, b) in buffers.iter().enumerate() {
        let label = match b {
            None => "unbuffered".to_owned(),
            Some(n) => format!("{n} pages"),
        };
        println!("  {:<12} {:>8.1}x", label, rows[0][i] as f64 / rows[1][i] as f64);
    }
    Ok(())
}
