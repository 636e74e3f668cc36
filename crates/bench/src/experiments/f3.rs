//! **F3** — sensitivity of the estimates to skew (Zipf data).
//!
//! The paper's assumptions include uniformity of join-column values; its
//! Section 9 names Zipfian distributions as the important violation. This
//! figure quantifies the damage: a fact table whose join column is
//! Zipf(θ)-distributed is joined with a uniform dimension table, with and
//! without a local predicate on the fact table's hot value, and the ELS
//! estimate is compared with the executed truth.
//!
//! Expected shape: at θ = 0 the ratio is ~1 (assumptions hold); as θ grows
//! the pure uniformity estimate degrades, and supplying distribution
//! statistics (equi-depth histogram + MCV) repairs the *local-predicate*
//! part of the error while the join-uniformity error remains — exactly the
//! division of labour the paper describes in Section 5.

use crate::table::{l, r, Table};
use els_catalog::collect::CollectOptions;
use els_catalog::Catalog;
use els_exec::{execute_plan_with, ExecMode};
use els_optimizer::{bound_query_tables, optimize_bound, EstimatorPreset, OptimizerOptions};
use els_sql::{bind, parse};
use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};

fn run_case(theta: f64, with_filter: bool) -> (f64, f64) {
    let rows = 20_000usize;
    let dim_rows = 500usize;
    let mut catalog = Catalog::new();
    catalog
        .register(
            TableSpec::new("FACT", rows)
                .column(ColumnSpec::new(
                    "key",
                    Distribution::ZipfInt { n: dim_rows as u64, theta, start: 0 },
                ))
                .generate(11),
            &CollectOptions::full(),
        )
        .unwrap();
    catalog
        .register(
            TableSpec::new("DIM", dim_rows)
                .column(ColumnSpec::new("id", Distribution::SequentialInt { start: 0 }))
                .generate(12),
            &CollectOptions::default(),
        )
        .unwrap();

    let sql = if with_filter {
        "SELECT COUNT(*) FROM FACT, DIM WHERE FACT.key = DIM.id AND FACT.key = 0"
    } else {
        "SELECT COUNT(*) FROM FACT, DIM WHERE FACT.key = DIM.id"
    };
    let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();
    let optimized =
        optimize_bound(&bound, &catalog, &OptimizerOptions::preset(EstimatorPreset::Els)).unwrap();
    let truth =
        execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap().count as f64;
    let estimate = *optimized.estimated_sizes.last().unwrap();
    (estimate, truth)
}

/// The case where uniformity genuinely bites: both join columns are
/// Zipf(θ) over the same domain, so the true size Σᵢ fᵢ·gᵢ concentrates on
/// the hot ranks while Equation 2 assumes it spreads evenly.
fn run_zipf_zipf(theta: f64) -> (f64, f64) {
    let rows = 5_000usize;
    let domain = 500u64;
    let mut catalog = Catalog::new();
    for (name, seed) in [("ZA", 21u64), ("ZB", 22)] {
        catalog
            .register(
                TableSpec::new(name, rows)
                    .column(ColumnSpec::new(
                        "key",
                        Distribution::ZipfInt { n: domain, theta, start: 0 },
                    ))
                    .generate(seed),
                &CollectOptions::full(),
            )
            .unwrap();
    }
    let sql = "SELECT COUNT(*) FROM ZA, ZB WHERE ZA.key = ZB.key";
    let bound = bind(&parse(sql).unwrap(), &catalog).unwrap();
    let tables = bound_query_tables(&bound, &catalog).unwrap();
    let optimized = optimize_bound(
        &bound,
        &catalog,
        &OptimizerOptions::preset(EstimatorPreset::Els).with_hash_join(),
    )
    .unwrap();
    let truth =
        execute_plan_with(&optimized.plan, &tables, ExecMode::default()).unwrap().count as f64;
    (*optimized.estimated_sizes.last().unwrap(), truth)
}

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    println!("# F3 — ELS estimate/truth under Zipf(θ) join columns");
    println!("(FACT 20000 rows ⋈ DIM 500 rows; histograms + MCV collected on FACT)\n");
    let table = Table::header(&[
        r("θ", 4),
        l("query", 26),
        r("estimate", 10),
        r("truth", 10),
        r("est/true", 9),
    ]);
    let row = |theta: f64, query: &str, (estimate, truth): (f64, f64)| {
        table.row(&[
            &format_args!("{theta:.1}"),
            &query,
            &format_args!("{estimate:.1}"),
            &format_args!("{truth:.0}"),
            &format_args!("{:.3}", estimate / truth.max(1.0)),
        ]);
    };
    for theta in [0.0, 0.5, 1.0, 1.5] {
        row(theta, "plain join", run_case(theta, false));
        row(theta, "join + hot-value filter", run_case(theta, true));
    }
    println!();
    for theta in [0.0, 0.5, 1.0, 1.5] {
        row(theta, "Zipf ⋈ Zipf (both skewed)", run_zipf_zipf(theta));
    }
    println!(
        "\nexpected shape: the FK join stays exact even under skew — uniformity is only \
         needed on one side (Rosenthal [12]) — and the hot-value filter case stays accurate \
         because the MCV list repairs the local selectivity (drop CollectOptions::full() and \
         it collapses to 1/d). The Zipf ⋈ Zipf rows are where the uniformity assumption \
         genuinely fails: the true size Σ fᵢ·gᵢ concentrates on hot ranks and Equation 2 \
         underestimates it, increasingly with θ — the future-work case of the paper's \
         Section 9."
    );
    Ok(())
}
