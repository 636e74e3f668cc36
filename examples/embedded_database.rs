//! The embedded-database workflow: CSV in, SQL out.
//!
//! Shows the `els::engine::Engine` facade end to end: load a table from
//! CSV, generate a companion table, run filtered joins and a GROUP BY, and
//! print an EXPLAIN report — all with the paper's Algorithm ELS doing the
//! cardinality estimation underneath. The SM/SSS baselines are one engine
//! each, built with their preset.
//!
//! Run with: `cargo run --example embedded_database`

use std::io::Cursor;

use els::engine::Engine;
use els::optimizer::{EstimatorPreset, OptimizerOptions};
use els::storage::csv::read_csv;
use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};

const ORDERS_CSV: &str = "\
order_id,customer,amount
1,3,25.0
2,1,100.5
3,3,8.25
4,2,60.0
5,1,9.99
6,3,30.0
7,4,75.5
8,2,12.0
";

/// Load one table from CSV, generate another.
fn load(engine: Engine) -> Result<Engine, Box<dyn std::error::Error>> {
    engine.register(read_csv("orders", &mut Cursor::new(ORDERS_CSV), None)?)?;
    engine.generate(
        TableSpec::new("customers", 5)
            .column(ColumnSpec::new("id", Distribution::SequentialInt { start: 0 }))
            .column(ColumnSpec::new("region", Distribution::CycleInt { modulus: 2, start: 0 })),
        7,
    )?;
    Ok(engine)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The plan cache off: every query is optimized afresh.
    let engine = load(Engine::new().cache_capacity(0))?;

    // A filtered join.
    let r = engine.execute(
        "SELECT COUNT(*) FROM orders, customers \
         WHERE orders.customer = customers.id AND customers.region = 1",
    )?;
    println!("orders from region-1 customers: {}", r.count);
    println!("  join order: {}   estimates: {:?}", r.join_order.join(" ⋈ "), r.estimated_sizes);

    // A grouped count.
    let r = engine
        .execute("SELECT customer, COUNT(*) FROM orders WHERE amount > 10 GROUP BY customer")?;
    println!("\norders over 10 by customer:");
    for row in 0..r.rows.num_rows() {
        let vals = r.rows.row(row)?;
        println!("  customer {} -> {} orders", vals[0], vals[1]);
    }

    // Peek behind the curtain.
    println!("\nEXPLAIN under ELS:");
    println!(
        "{}",
        engine.explain(
            "SELECT COUNT(*) FROM orders, customers WHERE orders.customer = customers.id"
        )?
    );

    // The same query under the misestimating baseline, for contrast.
    let sm = load(Engine::with_options(OptimizerOptions::preset(EstimatorPreset::Sm)))?;
    let r =
        sm.execute("SELECT COUNT(*) FROM orders, customers WHERE orders.customer = customers.id")?;
    println!("same answer under Algorithm SM (the plan may differ): {}", r.count);
    Ok(())
}
