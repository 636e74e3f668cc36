//! Skewed (Zipf) data: distribution statistics vs the uniformity model.
//!
//! The paper's Section 5 allows local-predicate selectivities to come from
//! distribution statistics; its Section 9 names Zipfian data as the
//! important case the uniformity assumption mishandles. This example
//! generates a Zipf(1.2) column, compares local-predicate selectivity
//! estimates with and without histograms/MCVs against the truth, and shows
//! the effect propagating into a join size estimate.
//!
//! Run with: `cargo run --example skewed_data`

use els::catalog::collect::CollectOptions;
use els::catalog::Catalog;
use els::core::prelude::*;
use els::core::selectivity::SelectivityOracle;
use els::core::NoCorrections;
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = 20_000usize;
    let mut catalog = Catalog::new();
    catalog.register(
        TableSpec::new("FACT", rows)
            .column(ColumnSpec::new("key", Distribution::ZipfInt { n: 1000, theta: 1.2, start: 0 }))
            .generate(7),
        &CollectOptions::full(), // equi-depth histogram + MCV list
    )?;
    catalog.register(
        TableSpec::new("DIM", 1000)
            .column(ColumnSpec::new("id", Distribution::SequentialInt { start: 0 }))
            .generate(8),
        &CollectOptions::default(),
    )?;

    // Ground truth for the hot-key filter `key = 0`.
    let data = catalog.table_data("FACT")?;
    let truth = data.column_by_name("key")?.iter().filter(|v| v.as_int() == Some(0)).count() as f64
        / rows as f64;

    let stats = catalog.query_statistics(&["FACT", "DIM"])?;
    let d = stats.tables[0].columns[0].distinct;
    let uniform = 1.0 / d;
    let oracle = catalog.oracle(&["FACT", "DIM"])?;
    let with_stats = oracle
        .local_selectivity(ColumnRef::new(0, 0), CmpOp::Eq, &Value::Int(0))
        .expect("MCV tracks the hot key");

    println!("Zipf(1.2) column, {rows} rows, {d:.0} distinct values");
    println!("selectivity of `key = 0` (the hot value):");
    println!("  truth                     : {truth:.4}");
    println!("  uniformity model (1/d)    : {uniform:.4}  ({:.0}x off)", truth / uniform);
    println!("  histogram + MCV           : {with_stats:.4}\n");

    // Propagate into a join estimate: FACT ⋈ DIM after the hot filter.
    let predicates = vec![
        Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
        Predicate::local_cmp(ColumnRef::new(0, 0), CmpOp::Eq, 0i64),
    ];
    let plain = Els::prepare(&predicates, &stats, &ElsOptions::default())?;
    let informed =
        Els::prepare_full(&predicates, &stats, &ElsOptions::default(), &oracle, &NoCorrections)?;
    let plain_est = plain.estimate_final(&[0, 1])?;
    let informed_est = informed.estimate_final(&[0, 1])?;
    let true_join = truth * rows as f64; // each FACT row matches exactly one DIM row.

    println!("||FACT ⋈ DIM|| with the filter applied:");
    println!("  truth                     : {true_join:.0}");
    println!("  ELS, uniformity only      : {plain_est:.1}");
    println!("  ELS + distribution stats  : {informed_est:.1}");
    Ok(())
}
