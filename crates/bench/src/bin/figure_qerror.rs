//! **F9** — q-error distributions across random workload families.
//!
//! The modern yardstick for cardinality estimation: the q-error
//! `max(est/true, true/est)` of the final join size, measured over random
//! chain and star workloads (truth by execution), per estimation
//! algorithm. This places the paper's 1994 contribution on the axis used
//! by today's learned-estimator literature.
//!
//! Expected shape: on uniform (model-exact) workloads ELS sits at q ≈ 1 up
//! to small rounding, SS is biased low with q growing in the join count,
//! and M is catastrophic; under Zipf skew every model-based estimator
//! degrades (the paper's stated future work), but their *ordering* is
//! preserved.

use els_bench::workload::{generate, q_error, quantile, Shape, WorkloadSpec};
use els_exec::{execute_plan_with, ExecMode};
use els_optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};

fn family(label: &str, spec: &WorkloadSpec, trials: u64) {
    let presets = [EstimatorPreset::Sm, EstimatorPreset::Sss, EstimatorPreset::Els];
    let mut qs: Vec<Vec<f64>> = vec![Vec::new(); presets.len()];
    for seed in 0..trials {
        let inst = generate(spec, seed);
        let tables = bound_query_tables(&inst.bound, &inst.catalog).unwrap();
        // Ground truth: execute once (any plan computes the same count).
        let reference =
            optimize_bound(&inst.bound, &inst.catalog, &OptimizerOptions::default()).unwrap();
        let truth =
            execute_plan_with(&reference.plan, &tables, ExecMode::default()).unwrap().count as f64;
        for (slot, preset) in presets.iter().enumerate() {
            let optimized =
                optimize_bound(&inst.bound, &inst.catalog, &OptimizerOptions::preset(*preset))
                    .unwrap();
            let estimate = optimized.estimated_sizes.last().copied().unwrap_or(truth);
            qs[slot].push(q_error(estimate, truth));
        }
    }
    for (slot, preset) in presets.iter().enumerate() {
        qs[slot].sort_by(f64::total_cmp);
        println!(
            "| {:<22} | {:<13} | {:>9.2} | {:>9.2} | {:>11.2e} | {:>11.2e} |",
            label,
            preset.label(),
            quantile(&qs[slot], 0.5),
            quantile(&qs[slot], 0.9),
            quantile(&qs[slot], 0.99),
            quantile(&qs[slot], 1.0),
        );
    }
}

fn main() {
    const TRIALS: u64 = 60;
    println!("# F9 — q-error of the final join-size estimate ({TRIALS} random instances/family)");
    println!("(q = max(est/true, true/est); 1.0 is perfect)\n");
    println!(
        "| {:<22} | {:<13} | {:>9} | {:>9} | {:>11} | {:>11} |",
        "family", "estimator", "median", "p90", "p99", "max"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|",
        "-".repeat(24),
        "-".repeat(15),
        "-".repeat(11),
        "-".repeat(11),
        "-".repeat(13),
        "-".repeat(13)
    );
    family("chain-3 uniform", &WorkloadSpec::default(), TRIALS);
    family("chain-5 uniform", &WorkloadSpec { tables: 5, ..Default::default() }, TRIALS);
    family(
        "star-4 uniform",
        &WorkloadSpec { tables: 4, shape: Shape::Star, ..Default::default() },
        TRIALS,
    );
    family("chain-3 zipf(1.0)", &WorkloadSpec { theta: 1.0, ..Default::default() }, TRIALS);
    family(
        "star-4 zipf(1.0)",
        &WorkloadSpec { tables: 4, shape: Shape::Star, theta: 1.0, ..Default::default() },
        TRIALS,
    );
}
