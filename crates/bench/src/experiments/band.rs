//! Band-join (inequality join) estimation benchmark.
//!
//! The equi-join benches measure the paper's selectivity rules on the
//! predicates Section 4 was written for; this one measures the histogram
//! inequality extension on the predicates it was *not*: column-vs-column
//! range comparisons (`r.k < s.k`), executed by the sort + binary-search
//! band-join operator. Three data families stress the estimator from
//! different directions:
//!
//! * **uniform** — independent uniform keys on a shared domain, where the
//!   histogram-fraction model is near-exact (plus one equi-join query with
//!   an inequality *residual*).
//! * **zipf** — θ=1.0 Zipf keys on both sides: the per-bucket uniformity
//!   assumption is violated, the histogram's skew capture is what keeps
//!   the q-error bounded.
//! * **offset** — sequential keys with the inner shifted by half a table
//!   (correlated offsets): the band fraction is far from the coin-flip
//!   ½ a moment-only model would guess, so only the histograms get it.
//!
//! Three contenders estimate every query: **ELS** (histogram fractions),
//! the **UES bound** (cross-product fallback — a band join has no
//! per-key bound, so the claim it must keep is *never under-estimate*),
//! and the **No-estimates** baseline. Per contender we pool the
//! join-operator q-errors from `explain_analyze` (truth by execution).
//!
//! [`run`] prints the per-family table; the gates on it (ELS median, the
//! UES bound, result agreement, RANGE plans) are
//! `tests/band_join_gates.rs`, over the same [`measure`] at a smaller size.

use els_optimizer::{EstimatorPreset, EstimatorStrategy, OptimizerOptions};
use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els_storage::Table;

use crate::accuracy::{analyze, contender};
use crate::workload::quantile;

/// The pinned limit on the pooled ELS median q-error over the band-join
/// families. Inequality estimates lean on histogram resolution, so the bar
/// is looser than the equi-join gate's 2.0 — but anything above this is an
/// estimator regression, not noise.
pub const BAND_ELS_MEDIAN_Q_LIMIT: f64 = 4.0;

/// One band-join data family: a generator and the queries asked over it.
struct Family {
    name: &'static str,
    make: fn(u64, usize) -> Vec<Table>,
    queries: &'static [&'static str],
}

/// Independent uniform keys over a shared `0..rows` domain.
fn uniform_tables(seed: u64, rows: usize) -> Vec<Table> {
    let hi = rows as i64 - 1;
    let key = |s| {
        TableSpec::new(if s % 2 == 1 { "r" } else { "s" }, rows)
            .column(ColumnSpec::new("k", Distribution::UniformInt { lo: 0, hi }))
            .column(ColumnSpec::new("p", Distribution::UniformInt { lo: 0, hi: 9 }))
            .generate(s)
    };
    vec![key(seed * 2 + 1), key(seed * 2 + 2)]
}

/// Zipf(θ=1.0) keys on both sides: heavy head, long tail.
fn zipf_tables(seed: u64, rows: usize) -> Vec<Table> {
    let n = (rows / 2).max(8) as u64;
    let key = |s| {
        TableSpec::new(if s % 2 == 1 { "r" } else { "s" }, rows)
            .column(ColumnSpec::new("k", Distribution::ZipfInt { n, theta: 1.0, start: 0 }))
            .column(ColumnSpec::new("p", Distribution::UniformInt { lo: 0, hi: 9 }))
            .generate(s)
    };
    vec![key(seed * 2 + 1), key(seed * 2 + 2)]
}

/// Sequential keys with the inner shifted by half a table — correlated
/// offsets, so the true band fraction is far from ½.
fn offset_tables(seed: u64, rows: usize) -> Vec<Table> {
    let make = |name, start, s| {
        TableSpec::new(name, rows)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start }))
            .column(ColumnSpec::new("p", Distribution::UniformInt { lo: 0, hi: 9 }))
            .generate(s)
    };
    vec![make("r", 0, seed * 2 + 1), make("s", rows as i64 / 2, seed * 2 + 2)]
}

const FAMILIES: [Family; 3] = [
    Family {
        name: "uniform",
        make: uniform_tables,
        queries: &[
            "SELECT COUNT(*) FROM r, s WHERE r.k < s.k",
            "SELECT COUNT(*) FROM r, s WHERE r.k >= s.k",
            // Equi-join with an inequality residual: the range predicate
            // rides on a keyed join instead of the band operator.
            "SELECT COUNT(*) FROM r, s WHERE r.k = s.k AND r.p <= s.p",
        ],
    },
    Family {
        name: "zipf",
        make: zipf_tables,
        queries: &[
            "SELECT COUNT(*) FROM r, s WHERE r.k <= s.k",
            "SELECT COUNT(*) FROM r, s WHERE r.k > s.k",
        ],
    },
    Family {
        name: "offset",
        make: offset_tables,
        queries: &[
            "SELECT COUNT(*) FROM r, s WHERE r.k < s.k",
            "SELECT COUNT(*) FROM r, s WHERE r.k >= s.k",
        ],
    },
];

/// The estimation contenders. All plan through the ELS preset's plan
/// space; only the selectivity strategy differs.
const CONTENDERS: [(&str, EstimatorStrategy); 3] = [
    ("ELS", EstimatorStrategy::Els),
    ("UES bound", EstimatorStrategy::UpperBound),
    ("No-estimates", EstimatorStrategy::NoEstimates),
];

/// Rows per table and seeds per family of the printed run.
const ROWS: usize = 1_200;
const SEEDS: u64 = 6;

/// Pooled measurements of one contender on one family.
#[derive(Debug, Default, Clone)]
pub struct Cell {
    /// The planning estimator's short name, as `explain_analyze` reports it.
    pub rule: String,
    /// Join-operator q-errors, sorted.
    pub qerrs: Vec<f64>,
    /// Join operators whose estimate fell below the observed actual.
    pub underestimates: usize,
    /// Join operators executed by the band operator (RANGE method).
    pub range_plans: usize,
}

/// What [`measure`] observed.
#[derive(Debug)]
pub struct BandReport {
    /// `cells[family][contender]`: uniform, zipf, offset × ELS, UES bound,
    /// No-estimates.
    pub cells: Vec<Vec<Cell>>,
    /// One line per query on which a contender's executed count differed
    /// from the first contender's: estimation must never change a result.
    pub disagreements: Vec<String>,
}

impl BandReport {
    /// One contender's cells, across the families.
    pub fn contender(&self, label: &str) -> impl Iterator<Item = &Cell> {
        let ci = CONTENDERS.iter().position(|&(l, _)| l == label).expect("a CONTENDERS label");
        self.cells.iter().map(move |family| &family[ci])
    }

    /// Median q-error of the ELS contender, pooled across the families.
    pub fn els_pooled_median_q(&self) -> f64 {
        let mut qs: Vec<f64> =
            self.contender("ELS").flat_map(|c| c.qerrs.iter().copied()).collect();
        qs.sort_by(f64::total_cmp);
        quantile(&qs, 0.5)
    }
}

/// Run every contender over every family's queries, `seeds` data sets of
/// `rows` rows per table each, pooling the join-operator q-errors from
/// `explain_analyze` (truth by execution).
pub fn measure(rows: usize, seeds: u64) -> BandReport {
    let mut cells = vec![vec![Cell::default(); CONTENDERS.len()]; FAMILIES.len()];
    let mut disagreements = Vec::new();
    for (fi, family) in FAMILIES.iter().enumerate() {
        for seed in 0..seeds {
            let tables = (family.make)(seed, rows);
            let mut truth: Vec<u64> = Vec::new();
            for (ci, &(label, strategy)) in CONTENDERS.iter().enumerate() {
                let options = OptimizerOptions::preset(EstimatorPreset::Els);
                let engine = contender(options, strategy, &tables);
                let (reports, qerrs) = analyze(&engine, family.queries);
                let cell = &mut cells[fi][ci];
                cell.qerrs.extend(qerrs);
                for ((qi, sql), report) in family.queries.iter().enumerate().zip(&reports) {
                    cell.rule = report.rule.clone();
                    for op in report.join_operators() {
                        cell.underestimates += usize::from(op.estimated < op.actual as f64);
                        cell.range_plans += usize::from(op.label.contains("RANGE"));
                    }
                    if ci == 0 {
                        truth.push(report.result_rows);
                    } else if report.result_rows != truth[qi] {
                        disagreements.push(format!(
                            "{label} returned {} rows on `{sql}` ({} seed {seed}), {} returned {}",
                            report.result_rows, family.name, CONTENDERS[0].0, truth[qi]
                        ));
                    }
                }
            }
        }
    }
    for cell in cells.iter_mut().flatten() {
        cell.qerrs.sort_by(f64::total_cmp);
    }
    BandReport { cells, disagreements }
}

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "band join: {} families x {} contenders, {ROWS} rows/table, {SEEDS} seed(s)",
        FAMILIES.len(),
        CONTENDERS.len(),
    );
    let report = measure(ROWS, SEEDS);
    for (family, cells) in FAMILIES.iter().zip(&report.cells) {
        for (&(label, _), cell) in CONTENDERS.iter().zip(cells) {
            println!(
                "{:<8} {:<13} rule {:<11} samples {:>2}  median q {:>9.2}  p95 q {:>9.2}  \
                 max q {:>9.2}  under-est {:>2}  range plans {:>2}",
                family.name,
                label,
                cell.rule,
                cell.qerrs.len(),
                quantile(&cell.qerrs, 0.5),
                quantile(&cell.qerrs, 0.95),
                quantile(&cell.qerrs, 1.0),
                cell.underestimates,
                cell.range_plans
            );
        }
    }
    for line in &report.disagreements {
        println!("result mismatch: {line}");
    }
    println!(
        "pooled ELS band median q-error: {:.2} (limit {BAND_ELS_MEDIAN_Q_LIMIT})",
        report.els_pooled_median_q()
    );
    Ok(())
}
