//! Quickstart: estimate a three-way join with every selectivity rule.
//!
//! Reproduces the running example of the paper (Examples 1b, 2, 3): three
//! tables R1, R2, R3 with one equivalence class {x, y, z}, joined as
//! (R2 ⋈ R3) ⋈ R1. The true size is 1000; Rule M says 1, Rule SS says 100,
//! and the paper's Rule LS gets it right.
//!
//! Run with: `cargo run --example quickstart`

use els::core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Statistics straight from Example 1b:
    // ||R1|| = 100, ||R2|| = 1000, ||R3|| = 1000; d_x = 10, d_y = 100,
    // d_z = 1000.
    let stats = QueryStatistics::new(vec![
        TableStatistics::new(100.0, vec![ColumnStatistics::with_distinct(10.0)]),
        TableStatistics::new(1000.0, vec![ColumnStatistics::with_distinct(100.0)]),
        TableStatistics::new(1000.0, vec![ColumnStatistics::with_distinct(1000.0)]),
    ]);

    // WHERE R1.x = R2.y AND R2.y = R3.z  (R1.x = R3.z arrives via closure).
    let predicates = vec![
        Predicate::join_eq(ColumnRef::new(0, 0), ColumnRef::new(1, 0)).unwrap(),
        Predicate::join_eq(ColumnRef::new(1, 0), ColumnRef::new(2, 0)).unwrap(),
    ];

    println!("Join order: (R2 ⋈ R3) ⋈ R1 — true size is 1000 at every step\n");
    println!("{:<28} {:>14} {:>14}", "rule", "||R2 ⋈ R3||", "final size");
    println!("{}", "-".repeat(60));

    for (name, rule) in [
        ("M  (multiplicative, [13])", SelectivityRule::Multiplicative),
        ("SS (smallest selectivity)", SelectivityRule::SmallestSelectivity),
        ("LS (largest — Algorithm ELS)", SelectivityRule::LargestSelectivity),
    ] {
        // Steps 1–5 once per query; Step 6 through the `CardinalityEstimator`
        // trait (in the prelude), here one size per join of the order.
        let els = Els::prepare(&predicates, &stats, &ElsOptions::default().with_rule(rule))?;
        let sizes = els.estimate_order(&[1, 2, 0])?;
        println!("{name:<28} {:>14.3} {:>14.3}", sizes[0], sizes[1]);
    }

    // The closed form (Equation 3) confirms the truth.
    let truth = els::core::exact::n_way(&[(100.0, 10.0), (1000.0, 100.0), (1000.0, 1000.0)]);
    println!("{}", "-".repeat(60));
    println!("{:<28} {:>14} {:>14.3}", "Equation 3 (ground truth)", "", truth);
    Ok(())
}
