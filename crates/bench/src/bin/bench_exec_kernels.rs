//! Execution-kernel microbenchmark: row-at-a-time oracle vs vectorized
//! kernels vs morsel-parallel probing, on identical plans over the
//! Section 8 tables.
//!
//! Each workload query is optimized once, then the *same physical plan* is
//! interpreted under three [`ExecMode`]s:
//!
//! 1. **row** — the tuple-at-a-time reference oracle (the seed's executor).
//! 2. **vectorized** — typed whole-column kernels, selection vectors, late
//!    materialization, one worker.
//! 3. **vectorized_parallel** — same, with large hash probes morsel-split
//!    over a work-stealing scheduler across `available_parallelism()`
//!    workers.
//!
//! Any disagreement in result counts between modes prints a `REGRESSION`
//! line and exits non-zero — `scripts/check.sh` greps for that marker in
//! its smoke run (`--smoke`: scaled-down tables). The timings are printed,
//! never gated on: whether the parallel path pays is judged by
//! `exec.parallel_speedup` in the benchmark (`benchmark/`). `--samples N`
//! widens the accuracy / feedback / bake-off workload to `N` chain
//! variants of increasing filter cut.

// Tooling/timing layer: measuring wall clocks (and exiting non-zero) is
// this crate's job, so the workspace-wide `disallowed-methods` bans from
// clippy.toml do not apply here.
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use els_bench::accuracy::{preset_accuracy, preset_feedback_accuracy};
use els_bench::bakeoff::{bakeoff_regressions, estimator_bakeoff};
use els_catalog::collect::CollectOptions;
use els_catalog::Catalog;
use els_exec::{execute_plan_with, ExecMode, JoinMethod, PlanNode, QueryPlan};
use els_sql::{bind, parse};
use els_storage::datagen::{starburst_experiment_tables, starburst_experiment_tables_sized};
use els_storage::Table;

const SEED: u64 = 42;

/// The pinned smoke-gate threshold for the ELS median q-error on the
/// Section 8 chain: the model assumptions hold by construction there, so
/// anything above this means an estimator regression, not noise.
const ELS_MEDIAN_Q_LIMIT: f64 = 2.0;

/// The Section 8 schema at a reduced scale for the smoke gate (the full
/// tables are S/M/B/G at 1k/10k/50k/100k rows).
fn smoke_tables(seed: u64) -> Vec<Table> {
    starburst_experiment_tables_sized(seed, &[50, 500, 2_000, 4_000])
}

/// Force every join in the tree to one method, keeping shape and keys.
fn force_method(node: &mut PlanNode, m: JoinMethod) {
    if let PlanNode::Join { method, left, right, .. } = node {
        *method = m;
        force_method(left, m);
        force_method(right, m);
    }
}

/// Optimize `sql` against the catalog, then pin the join method so the
/// benchmark compares executors, not plan choices. Returns the plan with
/// its tables in FROM-list order (the coordinate system plans use).
fn plan_for(
    sql: &str,
    catalog: &Catalog,
    method: Option<JoinMethod>,
) -> (QueryPlan, Vec<std::sync::Arc<Table>>) {
    let bound = bind(&parse(sql).expect("bench SQL parses"), catalog).expect("bench SQL binds");
    let tables = els_optimizer::bound_query_tables(&bound, catalog).expect("bench tables resolve");
    let optimized =
        els_optimizer::optimize_bound(&bound, catalog, &els_optimizer::OptimizerOptions::default())
            .expect("bench SQL optimizes");
    let mut plan = optimized.plan;
    if let Some(m) = method {
        force_method(&mut plan.root, m);
    }
    (plan, tables)
}

struct Measurement {
    count: u64,
    best: Duration,
}

/// Best-of-`repeats` wall time for one plan under one mode.
fn measure(
    plan: &QueryPlan,
    tables: &[std::sync::Arc<Table>],
    mode: ExecMode,
    repeats: usize,
) -> Measurement {
    let mut best = Duration::MAX;
    let mut count = 0;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let out = execute_plan_with(plan, tables, mode).expect("bench plans execute");
        best = best.min(t0.elapsed());
        count = out.count;
    }
    Measurement { count, best }
}

/// Parse `--samples N` (workload rounds for the accuracy / feedback /
/// bake-off passes); `default` when absent or malformed.
fn samples_arg(default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(default, |n| n.max(1))
}

/// The estimation workload: `samples` variants of the Section 8 chain with
/// a widening local filter (`s < 100`, `s < 200`, …), so multi-round runs
/// measure the estimators across different selectivities instead of
/// repeating one identical query.
fn accuracy_workload(samples: usize) -> Vec<String> {
    (0..samples)
        .map(|i| {
            format!(
                "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < {}",
                100 * (i as i64 + 1)
            )
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = cpus.max(2); // exercise the morsel path even on 1 CPU
    let repeats = if smoke { 2 } else { 5 };
    let samples = samples_arg(if smoke { 1 } else { 3 });

    let base_tables = if smoke { smoke_tables(SEED) } else { starburst_experiment_tables(SEED) };
    let mut catalog = Catalog::new();
    for t in &base_tables {
        catalog
            .register(t.clone(), &CollectOptions::default())
            .expect("fresh catalog accepts the bench tables");
    }

    // The workload: the Section 8 chain under both vectorizable join
    // methods, a wide-output variant (exercises late materialization), and
    // a selective single-table scan (pure filter kernels).
    let chain_where = "s = m AND m = b AND b = g AND s < 100";
    let queries: Vec<(&str, String, Option<JoinMethod>)> = vec![
        (
            "hash_chain_count",
            format!("SELECT COUNT(*) FROM S, M, B, G WHERE {chain_where}"),
            Some(JoinMethod::Hash),
        ),
        (
            "sort_merge_chain_count",
            format!("SELECT COUNT(*) FROM S, M, B, G WHERE {chain_where}"),
            Some(JoinMethod::SortMerge),
        ),
        (
            "hash_chain_star",
            format!("SELECT * FROM S, M, B, G WHERE {chain_where}"),
            Some(JoinMethod::Hash),
        ),
        // No local filter: the closure can't shrink the probe side, so the
        // 100k-row probe of G actually splits into morsels.
        (
            "hash_big_probe_count",
            "SELECT COUNT(*) FROM M, G WHERE m = g".to_owned(),
            Some(JoinMethod::Hash),
        ),
        ("filter_scan", "SELECT * FROM G WHERE g < 500000 AND payload < 500000".to_owned(), None),
    ];

    let modes = [
        ("row", ExecMode::RowAtATime),
        ("vectorized", ExecMode::Vectorized { workers: 1 }),
        ("vectorized_parallel", ExecMode::Vectorized { workers }),
    ];
    println!(
        "exec kernels: {} queries x {} modes, {repeats} repeats, {samples} accuracy sample(s), \
         {cpus} cpu(s), {workers} workers{}",
        queries.len(),
        modes.len(),
        if smoke { " [smoke]" } else { "" }
    );

    let mut regression = false;
    let mut join_totals = [0.0f64; 3]; // per-mode seconds over join queries
    let mut all_totals = [0.0f64; 3];
    for (name, sql, method) in &queries {
        let (plan, tables) = plan_for(sql, &catalog, *method);
        let runs: Vec<Measurement> =
            modes.iter().map(|&(_, mode)| measure(&plan, &tables, mode, repeats)).collect();
        for (i, run) in runs.iter().enumerate() {
            all_totals[i] += run.best.as_secs_f64();
            if method.is_some() {
                join_totals[i] += run.best.as_secs_f64();
            }
            if run.count != runs[0].count {
                regression = true;
                println!(
                    "REGRESSION: {name} under {} returned {} rows, row oracle returned {}",
                    modes[i].0, run.count, runs[0].count
                );
            }
        }
        let speedup = runs[0].best.as_secs_f64() / runs[1].best.as_secs_f64().max(1e-9);
        println!(
            "{name:<24} rows {:>8}  row {:>9.3}ms  vec {:>9.3}ms  vec-par {:>9.3}ms  ({speedup:.2}x)",
            runs[0].count,
            runs[0].best.as_secs_f64() * 1e3,
            runs[1].best.as_secs_f64() * 1e3,
            runs[2].best.as_secs_f64() * 1e3,
        );
    }

    // Accuracy pass: the same Section 8 chain analyzed under the paper's
    // four estimator presets, summarized as join q-errors. In smoke mode
    // this doubles as the estimator-regression gate for scripts/check.sh.
    let accuracy_queries = accuracy_workload(samples);
    let summaries = preset_accuracy(&base_tables, &accuracy_queries);
    for s in &summaries {
        println!(
            "accuracy {:<14} rule {:<3} samples {:>2}  median q {:>7.2}  p95 q {:>7.2}  max q {:>7.2}",
            s.label, s.rule, s.samples, s.median_q, s.p95_q, s.max_q
        );
    }
    let els = summaries.iter().find(|s| s.label == "Orig. ELS").expect("ELS preset measured");
    if !(els.median_q <= ELS_MEDIAN_Q_LIMIT) {
        regression = true;
        println!(
            "ACCURACY REGRESSION: ELS median q-error {:.2} exceeds the pinned limit {:.1}",
            els.median_q, ELS_MEDIAN_Q_LIMIT
        );
    }

    // Feedback pass: a workload run twice under FeedbackMode::Apply; the
    // second (corrected) pass's median must never exceed the first. In
    // smoke mode this gates the estimation feedback loop the same way the
    // accuracy pass gates the raw estimators. The never-regress guarantee
    // is about *replaying* queries the loop has seen, so this pass repeats
    // the pinned chain `samples` times instead of using the widened
    // variants (a correction learned at one filter cut is allowed to miss
    // at another).
    let feedback_queries = vec![els_bench::SECTION8_SQL.to_owned(); samples];
    let feedback = preset_feedback_accuracy(&base_tables, &feedback_queries);
    for s in &feedback {
        println!(
            "feedback {:<14} rule {:<3} samples {:>2}  median q {:>7.2} -> {:>7.2}  \
             max q {:>7.2} -> {:>7.2}  learned {:>3}  published {}",
            s.label,
            s.rule,
            s.samples,
            s.median_q_before,
            s.median_q_after,
            s.max_q_before,
            s.max_q_after,
            s.learned,
            s.published
        );
        if !(s.median_q_after <= s.median_q_before) {
            regression = true;
            println!(
                "FEEDBACK REGRESSION: {} replay median q-error rose {:.2} -> {:.2}",
                s.label, s.median_q_before, s.median_q_after
            );
        }
    }

    // Bake-off pass: five estimator contenders (ELS, Rule-M, feedback-
    // corrected ELS, the UES upper bound, and the Simpli-Squared
    // no-estimates baseline) each plan AND execute the workload — q-error
    // tells how wrong the estimates were, runtime what the plans cost. In
    // smoke mode the gate fails on a UES under-estimate (it claims to be
    // an upper bound) or a degraded ELS median.
    let bakeoff = estimator_bakeoff(&base_tables, &accuracy_queries, workers);
    for e in &bakeoff {
        println!(
            "bakeoff {:<15} rule {:<11} samples {:>2}  median q {:>9.2}  max q {:>9.2}  \
             under-est {:>2}  runtime {:>8.3}ms",
            e.label, e.rule, e.samples, e.median_q, e.max_q, e.underestimates, e.runtime_ms
        );
    }
    for msg in bakeoff_regressions(&bakeoff) {
        regression = true;
        println!("BAKE-OFF REGRESSION: {msg}");
    }

    let join_speedup = join_totals[0] / join_totals[1].max(1e-9);
    let overall_speedup = all_totals[0] / all_totals[1].max(1e-9);
    println!("join workload: vectorized {join_speedup:.2}x over row-at-a-time");
    println!("overall      : vectorized {overall_speedup:.2}x over row-at-a-time");
    if regression {
        println!("REGRESSION: results diverged from the row oracle or accuracy gate");
        std::process::exit(1);
    }
}
