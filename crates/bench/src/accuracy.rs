//! Estimation-accuracy measurement for the `bakeoff` experiment.
//!
//! Runs a workload through [`Engine::explain_analyze`] under each of the
//! paper's four estimator presets and summarizes the per-join q-errors —
//! the same estimated-vs-actual comparison as the paper's Section 8 table,
//! but folded to median/p95/max so the unit tests below can pin a
//! regression threshold on it. [`contender`] and [`analyze`] are the one
//! way every accuracy experiment (here, `bakeoff` and `band`) builds a
//! contender and reads its q-errors.

use els::analyze::ExplainAnalyzeReport;
use els::engine::Engine;
use els_catalog::FeedbackMode;
use els_optimizer::{EstimatorPreset, EstimatorStrategy, OptimizerOptions};
use els_storage::Table;

use crate::workload::quantile;

/// One contender: an engine over `tables` that plans with `options` under
/// `strategy` and has its plan cache off, so every query is optimized
/// afresh. Panics if a table fails to register: these are benchmark
/// fixtures, not user input.
pub fn contender(
    options: OptimizerOptions,
    strategy: EstimatorStrategy,
    tables: &[Table],
) -> Engine {
    let engine = Engine::with_options(options.with_strategy(strategy)).cache_capacity(0);
    for table in tables {
        engine.register(table.clone()).expect("contender fixture tables register");
    }
    engine
}

/// A workload's EXPLAIN ANALYZE reports on one engine, in query order, and
/// their join-operator q-errors pooled and sorted ascending. Panics if a
/// query fails.
pub fn analyze<S: AsRef<str>>(
    engine: &Engine,
    queries: &[S],
) -> (Vec<ExplainAnalyzeReport>, Vec<f64>) {
    let reports: Vec<ExplainAnalyzeReport> = queries
        .iter()
        .map(|sql| engine.explain_analyze(sql.as_ref()).expect("workload queries execute"))
        .collect();
    let mut qerrs: Vec<f64> =
        reports.iter().flat_map(|r| r.join_operators().map(|op| op.q_error())).collect();
    qerrs.sort_by(f64::total_cmp);
    (reports, qerrs)
}

/// The rule the last report was planned under ("" for no reports).
pub fn last_rule(reports: &[ExplainAnalyzeReport]) -> String {
    reports.last().map_or_else(String::new, |r| r.rule.clone())
}

/// Median, p95 and max of sorted q-errors; all 1.0 when there are none.
pub fn summary(qerrs: &[f64]) -> [f64; 3] {
    match qerrs.last() {
        None => [1.0; 3],
        Some(&max) => [quantile(qerrs, 0.5), quantile(qerrs, 0.95), max],
    }
}

/// The per-preset q-error summary over one workload.
#[derive(Debug, Clone)]
pub struct AccuracySummary {
    /// The paper's preset label, e.g. `Orig. ELS`.
    pub label: String,
    /// The selectivity rule's short name ("M", "SS", "LS", …).
    pub rule: String,
    /// Number of join-operator q-error samples.
    pub samples: usize,
    /// Median q-error (nearest-rank).
    pub median_q: f64,
    /// 95th-percentile q-error.
    pub p95_q: f64,
    /// Worst q-error.
    pub max_q: f64,
}

/// All four of the paper's estimator presets, in table order.
pub const PRESETS: [EstimatorPreset; 4] =
    [EstimatorPreset::SmNoPtc, EstimatorPreset::Sm, EstimatorPreset::Sss, EstimatorPreset::Els];

/// Measure estimation accuracy: for each preset, build an engine over
/// `tables`, `explain_analyze` every query, and pool the join-operator
/// q-errors. Panics if a workload query fails — these are benchmark
/// fixtures, not user input.
pub fn preset_accuracy(tables: &[Table], queries: &[String]) -> Vec<AccuracySummary> {
    PRESETS
        .iter()
        .map(|&preset| {
            // Same plan space as the bake-off's contenders.
            let options = OptimizerOptions::preset(preset).with_bushy_trees().with_hash_join();
            let engine = contender(options, EstimatorStrategy::Els, tables);
            let (reports, qerrs) = analyze(&engine, queries);
            let [median_q, p95_q, max_q] = summary(&qerrs);
            AccuracySummary {
                label: preset.label().to_owned(),
                rule: last_rule(&reports),
                samples: qerrs.len(),
                median_q,
                p95_q,
                max_q,
            }
        })
        .collect()
}

/// The before/after-feedback q-error summary of one preset: the workload
/// runs twice through one engine under [`FeedbackMode::Apply`] — the
/// first pass learns per-key corrections from its own estimated-vs-actual
/// residuals, the second pass replays the identical queries against the
/// corrected estimator.
#[derive(Debug, Clone)]
pub struct FeedbackSummary {
    /// The paper's preset label, e.g. `Orig. SM`.
    pub label: String,
    /// The selectivity rule's short name.
    pub rule: String,
    /// Join q-error samples per pass.
    pub samples: usize,
    /// Median q-error of the learning (first) pass.
    pub median_q_before: f64,
    /// Median q-error of the corrected (second) pass.
    pub median_q_after: f64,
    /// Worst q-error of the learning pass.
    pub max_q_before: f64,
    /// Worst q-error of the corrected pass.
    pub max_q_after: f64,
    /// Observations harvested across both passes.
    pub learned: u64,
    /// Corrections published (each one a plan-invalidation request).
    pub published: u64,
}

/// Measure the feedback loop: for each preset, run `queries` twice under
/// [`FeedbackMode::Apply`] and summarize each pass's join q-errors. The
/// second pass's estimates carry whatever corrections the first pass
/// published, so `median_q_after <= median_q_before` is the loop working.
pub fn preset_feedback_accuracy(tables: &[Table], queries: &[String]) -> Vec<FeedbackSummary> {
    PRESETS
        .iter()
        .map(|&preset| {
            let options = OptimizerOptions::preset(preset)
                .with_bushy_trees()
                .with_hash_join()
                .with_feedback(FeedbackMode::Apply);
            let engine = contender(options, EstimatorStrategy::Els, tables);
            let (_, before) = analyze(&engine, queries);
            let (reports, after) = analyze(&engine, queries);
            let ([median_q_before, _, max_q_before], [median_q_after, _, max_q_after]) =
                (summary(&before), summary(&after));
            let counters = engine.snapshot().feedback().counters();
            FeedbackSummary {
                label: preset.label().to_owned(),
                rule: last_rule(&reports),
                samples: before.len(),
                median_q_before,
                median_q_after,
                max_q_before,
                max_q_after,
                learned: counters.learned,
                published: counters.epoch_bumps,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SECTION8_SCALED_ROWS as SCALE;
    use els_storage::datagen::starburst_experiment_tables_sized;

    #[test]
    fn accuracy_ranks_els_at_or_above_the_baselines() {
        for seed in [7, 42] {
            let tables = starburst_experiment_tables_sized(seed, &SCALE);
            let queries = vec![crate::SECTION8_SQL.to_owned()];
            let summaries = preset_accuracy(&tables, &queries);
            assert_eq!(summaries.len(), 4);
            let els = summaries.iter().find(|s| s.label == "Orig. ELS").unwrap();
            let sm = summaries.iter().find(|s| s.label == "Orig. SM").unwrap();
            assert_eq!(els.samples, 3, "three joins in the 4-table chain");
            // The paper's headline: ELS estimates the chain well; plain SM
            // without closure is far off.
            assert!(els.median_q <= sm.median_q, "ELS {} vs SM {}", els.median_q, sm.median_q);
            assert!(els.median_q < 2.0, "ELS median q-error degraded: {}", els.median_q);
        }
    }

    #[test]
    fn feedback_replay_never_regresses_and_rescues_sss() {
        for seed in [7, 42] {
            let tables = starburst_experiment_tables_sized(seed, &SCALE);
            let queries = vec![crate::SECTION8_SQL.to_owned()];
            let summaries = preset_feedback_accuracy(&tables, &queries);
            assert_eq!(summaries.len(), 4);
            for s in &summaries {
                assert!(
                    s.median_q_after <= s.median_q_before,
                    "{}: feedback regressed {} -> {}",
                    s.label,
                    s.median_q_before,
                    s.median_q_after
                );
                assert!(s.learned > 0, "{}: nothing harvested", s.label);
            }
            // SSS collapses its estimates on this chain; one learning pass pulls
            // the replay's median down by orders of magnitude (the class residual
            // transfers cleanly because SS applies one correction per class).
            let sss = summaries.iter().find(|s| s.label == "Orig.+PTC SSS").unwrap();
            assert!(
                sss.median_q_before > 10.0,
                "SSS fixture not broken enough: {}",
                sss.median_q_before
            );
            assert!(
                sss.median_q_after < sss.median_q_before / 2.0,
                "feedback should rescue SSS: {} -> {}",
                sss.median_q_before,
                sss.median_q_after
            );
            assert!(sss.published >= 1);
        }
    }

    #[test]
    fn feedback_converges_under_rule_m() {
        // Rule M with closure is the adversarial case: corrections raise the
        // chosen plan's estimates, so the optimizer escapes to the next
        // still-collapsed plan shape for a pass or two before every shape is
        // corrected. The replay medians must converge, not cycle.
        let tables = starburst_experiment_tables_sized(7, &SCALE);
        let options = OptimizerOptions::preset(EstimatorPreset::Sm)
            .with_bushy_trees()
            .with_hash_join()
            .with_feedback(FeedbackMode::Apply);
        let engine = contender(options, EstimatorStrategy::Els, &tables);
        let median = || summary(&analyze(&engine, &[crate::SECTION8_SQL]).1)[0];
        let first = median();
        assert!(first > 10.0, "rule-M fixture not broken enough: {first}");
        let mut last = first;
        for pass in 2..=5 {
            let m = median();
            assert!(m <= last, "pass {pass} regressed: {last} -> {m}");
            last = m;
        }
        assert!(
            last < first / 2.0,
            "rule-M replays should converge well below the raw medians: {first} -> {last}"
        );
        // Convergence means publications stopped, not just slowed: the
        // per-key cap bounds epoch churn no matter how many replays run.
        let counters = engine.snapshot().feedback().counters();
        assert!(counters.epoch_bumps <= 8 * counters.keys, "{counters:?}");
    }
}
