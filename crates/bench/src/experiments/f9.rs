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

use crate::table::{l, r, Table};
use crate::workload::{generate, quantile, Shape, WorkloadSpec};
use els_core::q_error;
use els_exec::{execute_plan_with, ExecMode};
use els_optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};

fn family(table: &Table, label: &str, spec: &WorkloadSpec, trials: u64) {
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
        table.row(&[
            &label,
            &preset.label(),
            &format_args!("{:.2}", quantile(&qs[slot], 0.5)),
            &format_args!("{:.2}", quantile(&qs[slot], 0.9)),
            &format_args!("{:.2e}", quantile(&qs[slot], 0.99)),
            &format_args!("{:.2e}", quantile(&qs[slot], 1.0)),
        ]);
    }
}

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    const TRIALS: u64 = 60;
    println!("# F9 — q-error of the final join-size estimate ({TRIALS} random instances/family)");
    println!("(q = max(est/true, true/est); 1.0 is perfect)\n");
    let table = Table::header(&[
        l("family", 22),
        l("estimator", 13),
        r("median", 9),
        r("p90", 9),
        r("p99", 11),
        r("max", 11),
    ]);
    let star4 = WorkloadSpec { tables: 4, shape: Shape::Star, ..Default::default() };
    family(&table, "chain-3 uniform", &WorkloadSpec::default(), TRIALS);
    family(&table, "chain-5 uniform", &WorkloadSpec { tables: 5, ..Default::default() }, TRIALS);
    family(&table, "star-4 uniform", &star4, TRIALS);
    family(&table, "chain-3 zipf(1.0)", &WorkloadSpec { theta: 1.0, ..Default::default() }, TRIALS);
    family(&table, "star-4 zipf(1.0)", &WorkloadSpec { theta: 1.0, ..star4.clone() }, TRIALS);
    Ok(())
}
