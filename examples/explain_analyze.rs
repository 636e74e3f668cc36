//! EXPLAIN ANALYZE: estimated vs actual cardinalities, side by side.
//!
//! Runs the paper's Section 8 query under Algorithm SM and Algorithm ELS
//! and prints, for every join the plan performs, the optimizer's estimate
//! next to the measured result size — the view that makes the paper's
//! entire argument visible in one screen.
//!
//! Run with: `cargo run --release --example explain_analyze`

use els::engine::Engine;
use els::optimizer::{EstimatorPreset, OptimizerOptions};
use els::storage::datagen::starburst_experiment_tables;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sql = "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100";
    // One engine per estimator: the estimator is part of an engine's
    // configuration, fixed when it is built.
    for preset in [EstimatorPreset::Sm, EstimatorPreset::Els] {
        let engine = Engine::with_options(OptimizerOptions::preset(preset));
        for t in starburst_experiment_tables(42) {
            engine.register(t)?;
        }
        println!("=== {} ===", preset.label());
        println!("{}", engine.explain_analyze(sql)?);
    }
    Ok(())
}
