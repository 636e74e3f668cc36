//! **F7** — join-ordering strategies × estimators.
//!
//! The paper motivates incremental estimation with three consumer families
//! (Section 1): the System R dynamic program [13], the AB algorithm's
//! greedy augmentation [15], and randomized algorithms [14, 5]. This figure
//! runs all three against the same chain workloads under the ELS estimator
//! and reports (a) estimated plan cost relative to the exact DP and (b)
//! optimization time, including sizes beyond the DP's reach.
//!
//! Expected shape: on chains the greedy and iterative-improvement results
//! stay within a small factor of the DP optimum while scaling far past 16
//! tables — evidence that a *correct incremental estimator* composes with
//! every optimizer architecture the paper names.

use crate::heuristic::{greedy_order, iterative_improvement};
use crate::table::{r, Table};
use crate::{chain_predicates, chain_statistics};
use els_core::{Els, ElsOptions};
use els_exec::timing::timed;
use els_exec::JoinMethod;
use els_optimizer::enumerate::{enumerate, TreeShape};
use els_optimizer::{CostParams, TableProfile};

pub fn run() -> Result<(), Box<dyn std::error::Error>> {
    let methods = [JoinMethod::NestedLoop, JoinMethod::SortMerge];
    let params = CostParams::default();

    println!("# F7 — plan cost (relative to exact DP) and optimization time by strategy");
    println!("(chain queries, filter on table 0, ELS estimation)\n");
    let table = Table::header(&[
        r("n", 3),
        r("DP cost", 12),
        r("greedy/DP", 12),
        r("iter-imp/DP", 12),
        r("DP ms", 9),
        r("greedy ms", 9),
        r("II ms", 9),
    ]);

    for n in [4usize, 6, 8, 10, 12, 14, 16, 20, 24] {
        let dims: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let rows = 500.0 * ((i % 5) + 1) as f64 * ((i / 5) + 1) as f64;
                (rows, rows)
            })
            .collect();
        let stats = chain_statistics(&dims);
        let mut preds = chain_predicates(n);
        preds.push(els_core::Predicate::local_cmp(
            els_core::ColumnRef::new(0, 0),
            els_core::CmpOp::Lt,
            50i64,
        ));
        let els = Els::prepare(&preds, &stats, &ElsOptions::algorithm_els())?;
        let profiles: Vec<TableProfile> =
            dims.iter().map(|&(rows, _)| TableProfile::synthetic(rows, 16)).collect();

        let time = |f: &mut dyn FnMut() -> f64| {
            let (cost, elapsed) = timed(f);
            (cost, elapsed.as_secs_f64() * 1e3)
        };

        let (dp_cost, dp_ms) = if n <= 16 {
            time(&mut || {
                enumerate(&els, &profiles, &methods, &params, TreeShape::LeftDeep)
                    .unwrap()
                    .estimated_cost
            })
        } else {
            (f64::NAN, f64::NAN)
        };
        let (greedy_cost, greedy_ms) =
            time(&mut || greedy_order(&els, &profiles, &methods, &params).unwrap().estimated_cost);
        let (ii_cost, ii_ms) = time(&mut || {
            iterative_improvement(&els, &profiles, &methods, &params, 4, 42).unwrap().estimated_cost
        });

        let rel = |c: f64| if dp_cost.is_nan() { f64::NAN } else { c / dp_cost };
        table.row(&[
            &n,
            &format_args!("{dp_cost:.1}"),
            &format_args!("{:.3}", rel(greedy_cost)),
            &format_args!("{:.3}", rel(ii_cost)),
            &format_args!("{dp_ms:.2}"),
            &format_args!("{greedy_ms:.2}"),
            &format_args!("{ii_ms:.2}"),
        ]);
    }
    println!("\n(n > 16: the dense DP is out of reach — NaN — while both heuristics continue.)");
    Ok(())
}
