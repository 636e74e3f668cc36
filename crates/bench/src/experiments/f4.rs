//! **F4** — plan quality across a query family.
//!
//! Generalizes the Section 8 experiment beyond one query: a family of
//! chain and star join queries (3–5 tables, with and without local
//! predicates) over generated catalogs is optimized by each of the paper's
//! estimation algorithms, every chosen plan is executed, and the measured
//! work (simulated page reads) is reported relative to the ELS plan.
//!
//! Expected shape: ELS never loses; SM/SSS pay large multiples whenever a
//! query contains derived predicates that collapse their estimates.

use crate::geometric_mean;
use crate::table::{l, r, Table};
use els_catalog::collect::CollectOptions;
use els_catalog::Catalog;
use els_exec::{execute_plan_with, ExecMode};
use els_optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};
use els_sql::{bind, parse};
use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};

fn catalog(seed: u64) -> Catalog {
    let mut c = Catalog::new();
    let specs: [(&str, &str, usize); 5] = [
        ("T1", "a", 500),
        ("T2", "b", 5_000),
        ("T3", "c", 20_000),
        ("T4", "d", 60_000),
        ("T5", "e", 2_000),
    ];
    for (name, col, rows) in specs {
        c.register(
            TableSpec::new(name, rows)
                .column(ColumnSpec::new(col, Distribution::SequentialInt { start: 0 }))
                .column(ColumnSpec::new(
                    "payload",
                    Distribution::UniformInt { lo: 0, hi: 1_000_000 },
                ))
                .generate(seed),
            &CollectOptions::default(),
        )
        .unwrap();
    }
    c
}

const QUERIES: [(&str, &str); 6] = [
    ("Q1 chain-3 + filter", "SELECT COUNT(*) FROM T1, T2, T3 WHERE a = b AND b = c AND a < 50"),
    (
        "Q2 chain-4 + filter",
        "SELECT COUNT(*) FROM T1, T2, T3, T4 WHERE a = b AND b = c AND c = d AND a < 50",
    ),
    (
        "Q3 star-4 + filter",
        "SELECT COUNT(*) FROM T1, T2, T3, T4 WHERE a = b AND a = c AND a = d AND a < 50",
    ),
    (
        "Q4 chain-5 + filter",
        "SELECT COUNT(*) FROM T1, T2, T3, T4, T5 WHERE a = b AND b = c AND c = d AND d = e AND a < 20",
    ),
    ("Q5 chain-3, no filter", "SELECT COUNT(*) FROM T1, T2, T3 WHERE a = b AND b = c"),
    (
        "Q6 star-3 + tight filter",
        "SELECT COUNT(*) FROM T2, T3, T4 WHERE b = c AND b = d AND b < 10",
    ),
];

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = catalog(99);
    let presets = [EstimatorPreset::Sm, EstimatorPreset::Sss, EstimatorPreset::Els];

    println!("# F4 — measured plan work (simulated page reads) by estimator");
    println!("(all plans verified to produce identical counts)\n");
    let table = Table::header(&[
        l("query", 24),
        r("SM pages", 12),
        r("SSS pages", 12),
        r("ELS pages", 12),
        r("SM/ELS", 8),
        r("SSS/ELS", 8),
    ]);

    let mut sm_ratios = Vec::new();
    let mut sss_ratios = Vec::new();
    for (label, sql) in QUERIES {
        let bound = bind(&parse(sql)?, &catalog)?;
        let tables = bound_query_tables(&bound, &catalog)?;
        let mut pages = Vec::new();
        let mut counts = Vec::new();
        for preset in presets {
            let optimized = optimize_bound(&bound, &catalog, &OptimizerOptions::preset(preset))?;
            let out = execute_plan_with(&optimized.plan, &tables, ExecMode::default())?;
            pages.push(out.metrics.pages_read as f64);
            counts.push(out.count);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{label}: plans disagree: {counts:?}");
        let (sm, sss, els) = (pages[0], pages[1], pages[2]);
        sm_ratios.push(sm / els);
        sss_ratios.push(sss / els);
        table.row(&[
            &label,
            &sm,
            &sss,
            &els,
            &format_args!("{:.1}x", sm / els),
            &format_args!("{:.1}x", sss / els),
        ]);
    }
    println!(
        "\ngeometric-mean slowdown vs ELS: SM {:.1}x, SSS {:.1}x",
        geometric_mean(&sm_ratios),
        geometric_mean(&sss_ratios)
    );
    Ok(())
}
