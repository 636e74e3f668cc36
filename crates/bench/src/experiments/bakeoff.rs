//! Estimator bake-off: accuracy *and* plan quality, side by side.
//!
//! The `accuracy` module answers "how wrong are the estimates"; this one
//! adds the question the estimates exist to answer — "how good is the plan
//! they chose". Each contender plans and executes the same workload:
//!
//! * **ELS** — the paper's full pipeline (`EstimatorPreset::Els`).
//! * **Rule-M** — the standard multiplicative baseline
//!   (`EstimatorPreset::Sm`).
//! * **ELS+feedback** — ELS under [`FeedbackMode::Apply`], measured on the
//!   replay pass after one learning pass over the workload.
//! * **UES bound** — the sketch-style guaranteed upper bound
//!   ([`EstimatorStrategy::UpperBound`]); its `underestimates` count must
//!   be zero on every workload, by construction.
//! * **Simpli-Squared** — the no-estimates baseline
//!   ([`EstimatorStrategy::NoEstimates`]).
//!
//! Per contender we pool the join-operator q-errors (via
//! `explain_analyze`) and separately time plain `execute` over the
//! workload, so the table carries both the estimation error and the
//! runtime of the plans that error bought, next to the plan itself (join
//! order and methods), so that a plan move shows in a diff of the output.
//! The timed pass runs the
//! vectorized executor with the caller's worker count — and tells the
//! cost model about it (`CostParams::probe_parallelism`) — so contenders
//! are compared on the engine configuration a real deployment would run.

use els::analyze::{ExplainAnalyzeReport, OperatorReport};
use els_catalog::FeedbackMode;
use els_exec::timing::Stopwatch;
use els_optimizer::{EstimatorPreset, EstimatorStrategy, OptimizerOptions};
use els_storage::datagen::starburst_experiment_tables_sized;
use els_storage::Table;

use crate::accuracy::{
    analyze, contender, last_rule, preset_accuracy, preset_feedback_accuracy, summary,
};
use crate::table::{l, r, Table as Report};
use crate::SECTION8_SCALED_ROWS as SCALE;

/// One contender's row of the bake-off table.
#[derive(Debug, Clone)]
pub struct BakeoffEntry {
    /// Contender label, e.g. `UES bound`.
    pub label: String,
    /// The planning estimator's short name as reported by
    /// `explain_analyze` ("LS", "M", "upper-bound", …).
    pub rule: String,
    /// Number of join-operator q-error samples.
    pub samples: usize,
    /// Median q-error (nearest-rank).
    pub median_q: f64,
    /// 95th-percentile q-error.
    pub p95_q: f64,
    /// Worst q-error.
    pub max_q: f64,
    /// Join operators whose estimate fell below the observed actual.
    /// Must be 0 for the UES bound contender.
    pub underestimates: usize,
    /// Wall time executing the workload with this contender's plans.
    pub runtime_ms: f64,
    /// The chosen plan of every query, `; `-separated ([`join_tree`]).
    pub plan: String,
}

/// A report's plan as one line: a join's method between its inputs, a scan
/// as its table, e.g. `((S HASH M) NL B)`.
pub fn join_tree(report: &ExplainAnalyzeReport) -> String {
    fn node(ops: &[OperatorReport], at: usize) -> String {
        let Some(op) = ops.get(at) else { return "?".to_owned() };
        let between = |open, close| op.label.split([open, close]).nth(1).unwrap_or("?");
        match op.inputs {
            Some((left, right)) => {
                format!("({} {} {})", node(ops, left), between('<', '>'), node(ops, right))
            }
            None => between('(', ')').to_owned(),
        }
    }
    node(&report.operators, 0)
}

/// How a contender configures its engine.
struct Contender {
    label: &'static str,
    preset: EstimatorPreset,
    strategy: EstimatorStrategy,
    feedback: bool,
}

const CONTENDERS: [Contender; 5] = [
    Contender {
        label: "ELS",
        preset: EstimatorPreset::Els,
        strategy: EstimatorStrategy::Els,
        feedback: false,
    },
    Contender {
        label: "Rule-M",
        preset: EstimatorPreset::Sm,
        strategy: EstimatorStrategy::Els,
        feedback: false,
    },
    Contender {
        label: "ELS+feedback",
        preset: EstimatorPreset::Els,
        strategy: EstimatorStrategy::Els,
        feedback: true,
    },
    Contender {
        label: "UES bound",
        preset: EstimatorPreset::Els,
        strategy: EstimatorStrategy::UpperBound,
        feedback: false,
    },
    Contender {
        label: "Simpli-Squared",
        preset: EstimatorPreset::Els,
        strategy: EstimatorStrategy::NoEstimates,
        feedback: false,
    },
];

/// Run the bake-off: every contender plans and executes `queries` over its
/// own engine built from `tables`, executing with `exec_workers`
/// vectorized workers (clamped to at least 1). Panics if a workload query
/// fails — these are benchmark fixtures, not user input.
pub fn estimator_bakeoff(
    tables: &[Table],
    queries: &[String],
    exec_workers: usize,
) -> Vec<BakeoffEntry> {
    CONTENDERS
        .iter()
        .map(|c| {
            let mut options =
                OptimizerOptions::preset(c.preset).with_bushy_trees().with_hash_join();
            if c.feedback {
                options = options.with_feedback(FeedbackMode::Apply);
            }
            let engine = contender(options, c.strategy, tables).exec_workers(exec_workers);
            if c.feedback {
                // Learning pass: harvest residuals so the measured pass
                // replays the workload against corrected estimates.
                analyze(&engine, queries);
            }
            let (reports, qerrs) = analyze(&engine, queries);
            let underestimates = reports
                .iter()
                .flat_map(|r| r.join_operators())
                .filter(|op| op.estimated < op.actual as f64)
                .count();
            let [median_q, p95_q, max_q] = summary(&qerrs);
            // Chosen-plan runtime: plain execution (no observation
            // overhead) of the same workload, planned by this contender.
            let start = Stopwatch::start();
            for sql in queries {
                engine.execute(sql).expect("bake-off timed pass executes");
            }
            let runtime_ms = start.elapsed().as_secs_f64() * 1e3;
            let plan = reports.iter().map(join_tree).collect::<Vec<_>>().join("; ");
            BakeoffEntry {
                label: c.label.to_owned(),
                rule: last_rule(&reports),
                samples: qerrs.len(),
                median_q,
                p95_q,
                max_q,
                underestimates,
                runtime_ms,
                plan,
            }
        })
        .collect()
}

/// The regression threshold on the ELS contender's median q-error.
pub const ELS_MEDIAN_Q_LIMIT: f64 = 2.0;

/// The gate conditions [`run`] and the unit tests enforce. Returns one
/// message per violated invariant (empty = healthy):
///
/// * the UES contender under-estimated a measured join (it claims to be an
///   upper bound, so a single miss is a correctness bug, not noise), or
/// * the ELS contender's median q-error exceeded [`ELS_MEDIAN_Q_LIMIT`].
pub fn bakeoff_regressions(entries: &[BakeoffEntry]) -> Vec<String> {
    let mut msgs = Vec::new();
    for e in entries {
        if e.label == "UES bound" && e.underestimates > 0 {
            msgs.push(format!(
                "UES bound under-estimated {} join operator(s) — not an upper bound",
                e.underestimates
            ));
        }
        if e.label == "ELS" && e.median_q > ELS_MEDIAN_Q_LIMIT {
            msgs.push(format!(
                "ELS median q-error {:.3} exceeds the {ELS_MEDIAN_Q_LIMIT} gate",
                e.median_q
            ));
        }
    }
    msgs
}

/// Print the accuracy, feedback and bake-off tables for the Section 8
/// chain; an error if a bake-off gate is violated.
pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    let tables = starburst_experiment_tables_sized(42, &SCALE);
    let queries = vec![crate::SECTION8_SQL.to_owned()];
    let q = |v: f64| format!("{v:.2}");
    println!("# Bake-off — estimator accuracy and chosen-plan runtime on the Section 8 chain");
    println!(
        "(S/M/B/G at {SCALE:?} rows, seed 42; q = join-operator q-error, truth by execution)\n"
    );

    let report = Report::header(&[
        l("preset", 14),
        l("rule", 4),
        r("median q", 9),
        r("p95 q", 9),
        r("max q", 9),
    ]);
    for s in preset_accuracy(&tables, &queries) {
        report.row(&[&s.label, &s.rule, &q(s.median_q), &q(s.p95_q), &q(s.max_q)]);
    }

    println!("\nreplay under FeedbackMode::Apply (first pass learns, second is corrected):\n");
    let report = Report::header(&[
        l("preset", 14),
        r("median q", 9),
        r("replayed", 9),
        r("max q", 9),
        r("replayed", 9),
        r("learned", 7),
        r("published", 9),
    ]);
    for s in preset_feedback_accuracy(&tables, &queries) {
        report.row(&[
            &s.label,
            &q(s.median_q_before),
            &q(s.median_q_after),
            &q(s.max_q_before),
            &q(s.max_q_after),
            &s.learned,
            &s.published,
        ]);
    }

    println!("\nfive contenders plan and execute the chain (2 exec workers):\n");
    let report = Report::header(&[
        l("contender", 14),
        l("rule", 12),
        r("median q", 9),
        r("max q", 9),
        r("under-est", 9),
        r("runtime ms", 10),
        l("plan", 36),
    ]);
    let entries = estimator_bakeoff(&tables, &queries, 2);
    for e in &entries {
        let ms = format_args!("{:.3}", e.runtime_ms);
        let (median, max) = (q(e.median_q), q(e.max_q));
        report.row(&[&e.label, &e.rule, &median, &max, &e.underestimates, &ms, &e.plan]);
    }
    match bakeoff_regressions(&entries).as_slice() {
        [] => Ok(()),
        msgs => Err(msgs.join("; ").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(seed: u64) -> (Vec<Table>, Vec<String>) {
        (starburst_experiment_tables_sized(seed, &SCALE), vec![crate::SECTION8_SQL.to_owned()])
    }

    #[test]
    fn bakeoff_covers_all_five_contenders() {
        let (tables, queries) = fixture(7);
        let entries = estimator_bakeoff(&tables, &queries, 2);
        let labels: Vec<&str> = entries.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["ELS", "Rule-M", "ELS+feedback", "UES bound", "Simpli-Squared"]);
        for e in &entries {
            assert_eq!(e.samples, 3, "{}: three joins in the 4-table chain", e.label);
            assert!(e.runtime_ms > 0.0, "{}: timed pass did not run", e.label);
            // Three joins over the four tables, each named once.
            assert_eq!(e.plan.matches('(').count(), 3, "{}: {}", e.label, e.plan);
            for table in ["S", "M", "B", "G"] {
                let named = e.plan.split([' ', '(', ')']).filter(|w| *w == table).count();
                assert_eq!(named, 1, "{}: {table} in {}", e.label, e.plan);
            }
        }
    }

    #[test]
    fn ues_bound_never_underestimates_and_gate_is_quiet() {
        for seed in [7, 42] {
            let (tables, queries) = fixture(seed);
            let entries = estimator_bakeoff(&tables, &queries, 1);
            let ues = entries.iter().find(|e| e.label == "UES bound").unwrap();
            assert_eq!(ues.underestimates, 0, "UES produced a below-actual estimate");
            // An upper bound over-estimates by construction, so its q-error is
            // its over-estimation factor — finite and at least 1.
            assert!(ues.median_q >= 1.0 && ues.median_q.is_finite());
            assert!(
                bakeoff_regressions(&entries).is_empty(),
                "{:?}",
                bakeoff_regressions(&entries)
            );
        }
    }

    #[test]
    fn feedback_contender_beats_or_matches_raw_els() {
        let (tables, queries) = fixture(7);
        let entries = estimator_bakeoff(&tables, &queries, 2);
        let els = entries.iter().find(|e| e.label == "ELS").unwrap();
        let fed = entries.iter().find(|e| e.label == "ELS+feedback").unwrap();
        assert!(
            fed.median_q <= els.median_q * 1.0001,
            "feedback replay regressed: {} -> {}",
            els.median_q,
            fed.median_q
        );
    }

    #[test]
    fn gate_flags_a_lying_bound_and_a_degraded_els() {
        let entries = vec![
            BakeoffEntry {
                label: "UES bound".to_owned(),
                rule: "upper-bound".to_owned(),
                samples: 3,
                median_q: 5.0,
                p95_q: 9.0,
                max_q: 9.0,
                underestimates: 2,
                runtime_ms: 1.0,
                plan: String::new(),
            },
            BakeoffEntry {
                label: "ELS".to_owned(),
                rule: "LS".to_owned(),
                samples: 3,
                median_q: 3.5,
                p95_q: 4.0,
                max_q: 4.0,
                underestimates: 0,
                runtime_ms: 1.0,
                plan: String::new(),
            },
        ];
        let msgs = bakeoff_regressions(&entries);
        assert_eq!(msgs.len(), 2);
        assert!(msgs[0].contains("not an upper bound"));
        assert!(msgs[1].contains("exceeds"));
    }
}
